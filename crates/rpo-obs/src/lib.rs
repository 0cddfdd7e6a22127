//! `rpo-obs`: the observability substrate of the workspace — structured
//! spans, a unified metrics registry, and latency histograms, with no
//! external dependencies (the vendored `serde` shim is the only one).
//!
//! Every layer of the solver stack reports through this crate: the
//! portfolio engine and batch driver open per-solve and per-backend spans,
//! the caches publish hit/miss/eviction counters, the DP kernels count row
//! sweeps and record build latencies, and the frontends export the result
//! as a [`MetricsSnapshot`] (embedded in `BatchReport` and every
//! `BENCH_*.json`), a JSONL trace, or a collapsed-stack flamegraph input.
//!
//! # The three pieces
//!
//! - [`Registry`] — counters, gauges, and log-bucketed latency histograms
//!   with exact-rank p50/p95/p99/p999 extraction. Counter and histogram
//!   state is sharded per thread and merged on [`Registry::snapshot`], so
//!   the hot path is an unsynchronized increment on the calling thread's
//!   own slot. An exiting thread's slots fold into retired totals, so
//!   thread churn does not grow the registry.
//! - [`SpanRecorder`] — RAII [`span!`] guards recording wall time, self
//!   time (minus child spans), and typed user fields into a bounded ring
//!   buffer, exported as JSONL or collapsed stacks. Every finished span
//!   also feeds the `span.<name>` histogram of the registry.
//! - The disabled path — a compile-time `obs` feature (on by default) and
//!   a runtime toggle ([`set_enabled`]).
//!
//! # Overhead contract
//!
//! - **Feature off** (`--no-default-features`): [`enabled`] is
//!   `cfg!(feature = "obs")` = constant `false`; every metric operation and
//!   span guard is dead code the optimizer removes.
//! - **Feature on, runtime-disabled**: every operation is one `Relaxed`
//!   atomic load and a branch — no allocation, no clock read, no lock.
//!   Field construction in [`span!`] is lazy and skipped.
//! - **Enabled, hot path**: a counter increment or histogram record is an
//!   unsynchronized (`Relaxed` load + store) bump of a thread-private
//!   slot — no locked instructions, no cross-thread cache-line traffic.
//!   Locks are confined to handle registration, a thread's first touch of
//!   a metric, a thread's exit, snapshotting, and span completion (ring
//!   push).
//!
//! # Example
//!
//! ```
//! use rpo_obs::{counter, histogram, span};
//!
//! let _solve = span!("engine.solve", backends = 4usize);
//! counter!("cache.instance.misses").inc();
//! histogram!("oracle.build").record_nanos(12_500);
//! drop(_solve);
//!
//! let snapshot = rpo_obs::global().snapshot();
//! assert!(snapshot.counter_value("cache.instance.misses").unwrap() >= 1);
//! assert!(snapshot.histogram("span.engine.solve").unwrap().count >= 1);
//! ```

mod registry;
mod report;
mod span;

pub use registry::{
    BucketSnapshot, Counter, CounterSnapshot, Gauge, GaugeSnapshot, Histogram, HistogramSnapshot,
    MetricsSnapshot, Registry,
};
pub use report::{bench_envelope, write_bench_report};
pub use span::{FieldValue, SpanGuard, SpanRecord, SpanRecorder, DEFAULT_RING_CAPACITY};

/// The process-wide registry (what [`counter!`] / [`histogram!`] /
/// [`span!`] report to).
pub fn global() -> &'static Registry {
    Registry::global()
}

/// The process-wide span recorder feeding [`global`].
pub fn recorder() -> &'static SpanRecorder {
    SpanRecorder::global()
}

/// Flips the global runtime toggle for metrics and spans.
pub fn set_enabled(on: bool) {
    Registry::global().set_enabled(on);
}

/// Whether global instrumentation is live (compile-time `obs` feature AND
/// the runtime toggle).
#[inline]
pub fn enabled() -> bool {
    Registry::global().enabled()
}

/// Opens an RAII span on the global recorder:
/// `span!("dp.kernel")` or `span!("dp.kernel", rows = n, backend = name)`.
///
/// Returns a [`SpanGuard`] that records the span when dropped. Field
/// expressions are evaluated only when observability is enabled; each
/// value goes through [`FieldValue::from`]. Disabled, the whole expansion
/// is a branch on one atomic load.
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::recorder().span($name)
    };
    ($name:literal, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::recorder().span_fields($name, || {
            vec![$((
                stringify!($key).to_string(),
                $crate::FieldValue::from($value),
            )),+]
        })
    };
}

/// A `&'static` handle to the global counter named by the literal —
/// resolved once per call site (`OnceLock`), so repeated calls skip the
/// registry name lookup: `counter!("cache.instance.hits").inc()`.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::Counter> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::global().counter($name))
    }};
}

/// A `&'static` handle to the global histogram named by the literal —
/// resolved once per call site: `histogram!("oracle.build").record(dt)`.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::Histogram> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::global().histogram($name))
    }};
}

/// A `&'static` handle to the global gauge named by the literal:
/// `gauge!("batch.workers").set(n as f64)`.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::Gauge> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::global().gauge($name))
    }};
}

#[cfg(test)]
mod tests {
    #[test]
    fn macros_report_to_the_global_registry() {
        counter!("lib.test.counter").add(3);
        histogram!("lib.test.histogram").record_nanos(500);
        gauge!("lib.test.gauge").set(1.5);
        {
            let _span = span!("lib.test.span", case = "macros", n = 2u64);
        }
        let snapshot = crate::global().snapshot();
        assert!(snapshot.counter_value("lib.test.counter").unwrap() >= 3);
        assert!(snapshot.histogram("lib.test.histogram").unwrap().count >= 1);
        assert_eq!(snapshot.gauge_value("lib.test.gauge"), Some(1.5));
        assert!(snapshot.histogram("span.lib.test.span").unwrap().count >= 1);
        let trace = crate::recorder().records();
        assert!(trace.iter().any(|r| r.name == "lib.test.span"));
    }
}
