//! The serving layer: a long-lived solver service over the portfolio engine.
//!
//! Everything below `rpo-serve` is run-to-completion: the batch driver
//! streams a workload, solves it, prints a report, and the process exits.
//! This crate promotes that machinery into a *persistent service* speaking
//! newline-delimited JSON over stdin/stdout ([`wire::serve_lines`]) or TCP
//! ([`wire::TcpServer`]), with the admission-control policy a serving system
//! actually needs:
//!
//! * **Bounded ingress + backpressure** — the queue between the protocol
//!   frontend and the solver workers holds at most
//!   [`ServeConfig::queue_capacity`] distinct solves; requests arriving
//!   beyond that get an immediate typed [`ResponseStatus::Overloaded`]
//!   rejection instead of unbounded buffering.
//! * **Per-request deadlines with queue-time shedding** — a request carries
//!   its own deadline (or inherits [`ServeConfig::default_deadline`]). A
//!   request whose deadline has already passed when a worker would *start*
//!   it is shed with [`ResponseStatus::Shed`], never solved stale, and no
//!   response is ever delivered past its deadline: results that finish late
//!   are converted to sheds before delivery.
//! * **Duplicate coalescing** — requests are keyed by the same canonical
//!   structural hash the engine's [`InstanceCache`] uses; concurrent
//!   identical requests attach to the in-flight solve and share its single
//!   result bit-for-bit.
//! * **One result cache** — admission consults the engine's
//!   [`InstanceCache`] once ([`PortfolioEngine::cached`]): a request
//!   identical to an already completed solve, from any tenant, is answered
//!   immediately with `cached: true` and never queues. The request's
//!   `tenant` field is a label only.
//! * **Graceful drain** — [`SolverService::shutdown`] stops admitting,
//!   finishes every queued solve (still under deadline rules), answers
//!   late arrivals with [`ResponseStatus::Draining`], and joins the
//!   workers.
//!
//! The service is instrumented through `rpo-obs`: `serve.queue_wait` and
//! `serve.latency` histograms, and `serve.{admitted, shed, coalesced,
//! overloaded}` counters — the `BENCH_serve.json` gate replays a seeded
//! duplicate-heavy request stream against these.
//!
//! [`InstanceCache`]: rpo_portfolio::InstanceCache
//! [`PortfolioEngine::cached`]: rpo_portfolio::PortfolioEngine::cached

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod proto;
pub mod service;
pub mod wire;

pub use proto::{ResponseStatus, ServeRequest, ServeResponse};
pub use service::{Responder, ServeConfig, ServeStats, SolverService, Ticket};
pub use wire::{serve_lines, TcpServer};
