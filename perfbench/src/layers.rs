//! Per-layer metrics both kinds of workload report: direct timings of
//! layer calls, per-backend shares, and the traced run's self-time split.

use std::time::{Duration, Instant};

use rpo_portfolio::ProblemInstance;

use crate::report::{Outcome, LAYERS};
use crate::stats;
use crate::trace::Tracer;

/// Times `ProblemInstance::{canonical_key, build_oracle}` directly.
pub fn layer_timings(instances: &[&ProblemInstance], outcome: &mut Outcome) {
    let started = Instant::now();
    for instance in instances {
        std::hint::black_box(instance.canonical_key());
    }
    outcome.set(
        "rpo-portfolio.cache.key_us",
        micros_per(started, instances.len()),
    );
    let started = Instant::now();
    for instance in instances {
        std::hint::black_box(instance.build_oracle());
    }
    outcome.set(
        "rpo-model.oracle.build_us",
        micros_per(started, instances.len()),
    );
}

fn micros_per(started: Instant, count: usize) -> f64 {
    started.elapsed().as_secs_f64() * 1e6 / count.max(1) as f64
}

/// Records one backend's `us_per_run`, `run_share` and `win_share`.
pub fn set_backend(
    outcome: &mut Outcome,
    backend: &str,
    micros: f64,
    runs: f64,
    wins: f64,
    solves: f64,
) {
    let name = |metric: &str| format!("rpo-portfolio.backend.{backend}.{metric}");
    outcome.set(name("us_per_run"), stats::share(micros, runs));
    outcome.set(name("run_share"), stats::share(runs, solves));
    outcome.set(name("win_share"), stats::share(wins, solves));
}

/// Per-layer self-time shares of a traced run and the split's residual
/// against the traced run's wall time.
pub fn split_metrics(tracer: &Tracer, wall_ns: f64, outcome: &mut Outcome) {
    let layers = tracer.by_layer();
    let mut accounted = 0.0;
    for layer in LAYERS {
        let own = layers.get(layer).map_or(0.0, |(total, _)| *total as f64);
        accounted += own;
        outcome.set(format!("{layer}.self_share"), stats::share(own, wall_ns));
    }
    for layer in layers.keys() {
        outcome.check(LAYERS.contains(layer), || {
            format!("span layer {layer} is not reported")
        });
    }
    let residual = stats::share((wall_ns - accounted).abs(), wall_ns);
    outcome.set("trace.split_residual_share", residual);
    outcome.check(residual <= 0.05, || {
        format!(
            "traced self times miss the traced run's wall time by {:.1}%",
            residual * 100.0
        )
    });
    outcome.set("trace.end_to_end_ms", wall_ns / 1e6);
}

/// Tracing overhead: the traced replays' extra wall time over the same
/// replays untraced.
pub fn set_overhead(untraced: Duration, traced: Duration, outcome: &mut Outcome) {
    let untraced = untraced.as_secs_f64();
    outcome.set(
        "trace.overhead_share",
        stats::share(traced.as_secs_f64() - untraced, untraced),
    );
}
