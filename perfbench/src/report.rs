//! Metric names, units and the result line.
//!
//! The names here are the ones `BENCHMARK.json` declares. Every workload
//! reports every end-to-end metric; a per-layer metric a workload does not
//! exercise is reported as 0.

use std::collections::BTreeMap;

use crate::stats;

/// End-to-end metrics: `(name, unit)`. Wall-clock latencies, throughput
/// and the capacity they imply are reported per layer (`loadgen.*`): on a
/// shared 2-core host they move with the time other tenants take from the
/// host (a light-rate median went from 0.5 ms to 5 ms between two runs of
/// the same code minutes apart), wider than any bound this benchmark may
/// set. The processor time per request is what the program spends on it,
/// with the host's stolen time left out.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("cpu_us_per_request", "us"),
    ("reliability_nines_mean", "nines"),
    ("rss_peak_mb", "MB"),
];

/// The portfolio's backends, in the engine's dispatch order.
pub const BACKENDS: [&str; 10] = [
    "Algo-1",
    "Algo-2",
    "Period-Opt",
    "Heur-L",
    "Heur-P",
    "Het-Dp",
    "Het-Dp-Lat",
    "Het-Sweep",
    "ILP",
    "Exhaustive",
];

/// Layers of the traced split, in pipeline order.
pub const LAYERS: [&str; 6] = [
    "perfbench",
    "rpo-serve.wire",
    "rpo-serve.service",
    "rpo-portfolio.batch",
    "rpo-portfolio.engine",
    "rpo-portfolio.backend",
];

const FIXED_PER_LAYER: [(&str, &str); 37] = [
    ("rpo-serve.wire.decode_us", "us"),
    ("rpo-serve.wire.encode_us", "us"),
    ("rpo-serve.wire.request_bytes", "bytes"),
    ("rpo-serve.wire.idle_round_trip_ms", "ms"),
    ("rpo-serve.service.queue_wait_p50_ms", "ms"),
    ("rpo-serve.service.queue_wait_p99_ms", "ms"),
    ("rpo-serve.service.solve_p50_ms", "ms"),
    ("rpo-serve.service.solve_p99_ms", "ms"),
    ("rpo-serve.service.absorbed_share", "share"),
    ("rpo-serve.service.solves_per_request", "count"),
    ("rpo-serve.service.shed_share", "share"),
    ("rpo-serve.service.overloaded_share", "share"),
    ("rpo-portfolio.cache.instance_hit_share", "share"),
    ("rpo-portfolio.cache.oracle_hit_share", "share"),
    ("rpo-portfolio.cache.key_us", "us"),
    ("rpo-model.oracle.build_us", "us"),
    ("rpo-portfolio.engine.solve_p50_us", "us"),
    ("rpo-portfolio.engine.solve_p99_us", "us"),
    ("rpo-portfolio.engine.backends_per_solve", "count"),
    ("rpo-portfolio.engine.overhead_us", "us"),
    ("rpo-portfolio.engine.loser_time_share", "share"),
    ("rpo-portfolio.engine.missed_feasible_share", "share"),
    ("rpo-portfolio.batch.bucketed_share", "share"),
    ("rpo-portfolio.batch.lane_fill", "share"),
    ("rpo-portfolio.batch.padded_lane_share", "share"),
    ("rpo-portfolio.batch.registry_ms_per_run", "ms"),
    ("loadgen.light_p50_ms", "ms"),
    ("loadgen.heavy_p50_ms", "ms"),
    ("loadgen.capacity_rps", "1/s"),
    ("loadgen.throughput_ips", "1/s"),
    ("loadgen.light_tail_ms", "ms"),
    ("loadgen.heavy_tail_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.error_rate", "share"),
    ("trace.overhead_share", "share"),
    ("trace.split_residual_share", "share"),
    ("trace.end_to_end_ms", "ms"),
];

/// Every per-layer metric: `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut metrics: Vec<(String, &'static str)> = FIXED_PER_LAYER
        .iter()
        .map(|(name, unit)| (name.to_string(), *unit))
        .collect();
    for backend in BACKENDS {
        for (metric, unit) in [
            ("us_per_run", "us"),
            ("run_share", "share"),
            ("win_share", "share"),
        ] {
            metrics.push((format!("rpo-portfolio.backend.{backend}.{metric}"), unit));
        }
    }
    for layer in LAYERS {
        metrics.push((format!("{layer}.self_share"), "share"));
    }
    metrics
}

/// What one run measured and found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Failed output checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Operations (requests or instances) attempted in the measured phases.
    pub attempted: u64,
    /// Of those, operations that failed (refused, shed or unanswered).
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<String, f64>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Records a phase's median and tail latency from its rounds (each one
    /// latency per request, in schedule order): for each statistic, the
    /// median over the rounds, so a stretch of the run that the shared host
    /// slowed moves a round or two, not the figure. A round's tail is
    /// [`stats::windowed_tail`]: its p99 (a median of per-window p99s) with
    /// at least 1000 samples, else its deepest percentile with ten samples
    /// beyond it, as printed.
    pub fn set_latency(&mut self, phase: &str, rounds: &[&[f64]]) {
        let n: usize = rounds.iter().map(|round| round.len()).sum();
        let p50s: Vec<f64> = rounds
            .iter()
            .filter_map(|round| stats::percentile(&stats::sorted(round), 0.5))
            .collect();
        let tails: Vec<(f64, f64, usize)> = rounds
            .iter()
            .filter_map(|round| stats::windowed_tail(round))
            .collect();
        let complete = p50s.len() == rounds.len() && tails.len() == rounds.len();
        self.check(complete && n > 0, || {
            format!("{phase}: rounds of {n} samples cannot support a median and a tail")
        });
        let p50 = stats::median(&p50s);
        let tail_values: Vec<f64> = tails.iter().map(|t| t.0).collect();
        let tail = stats::median(&tail_values);
        let level = tails.iter().map(|t| t.1).fold(0.99, f64::min);
        self.set(format!("loadgen.{phase}_p50_ms"), p50);
        self.set(format!("loadgen.{phase}_tail_ms"), tail);
        println!(
            "phase {phase}: {n} samples in {} rounds; round p50s {p50s:.3?} ms, \
             tails {tail_values:.3?} ms; median p50 {p50:.3} ms, median p{:.1} {tail:.3} ms",
            rounds.len(),
            level * 100.0,
        );
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// Prints every metric by name and unit, then the result line (the
    /// end-to-end metrics, or with `trace` the per-layer ones). Returns
    /// whether every check passed.
    pub fn print(mut self, trace: bool) -> bool {
        for (name, _) in END_TO_END {
            let value = self.values.get(name).copied();
            self.check(value.is_some_and(|v| v.is_finite() && v > 0.0), || {
                format!("end-to-end metric {name} is missing or not positive: {value:?}")
            });
        }
        let end_to_end: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect();
        let per_layer = per_layer();
        let shown = |metrics: &[(String, &str)], values: &BTreeMap<String, f64>, header: &str| {
            println!("{header}");
            for (name, unit) in metrics {
                match values.get(name) {
                    Some(value) => println!("  {name:<48} {value:>16.6} {unit}"),
                    None => println!("  {name:<48} {:>16} {unit}", "-"),
                }
            }
        };
        shown(&end_to_end, &self.values, "end-to-end:");
        shown(&per_layer, &self.values, "per-layer:");
        for problem in &self.problems {
            println!("CHECK FAILED: {problem}");
            eprintln!("perfbench: check failed: {problem}");
        }
        let selected = if trace { per_layer } else { end_to_end };
        let metrics: Vec<String> = selected
            .iter()
            .map(|(name, unit)| {
                let value = self.values.get(name).copied().unwrap_or(0.0);
                let value = if value.is_finite() { value } else { 0.0 };
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(value)
                )
            })
            .collect();
        let correct = self.problems.is_empty();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        correct
    }
}

/// A finite float as a JSON number with all its digits.
fn json_number(value: f64) -> String {
    let text = format!("{value:?}");
    if text.contains('.') || text.contains('e') {
        text
    } else {
        format!("{text}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_within_limits() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        let count = names.len();
        assert!(per_layer().len() <= 128);
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate metric name");
        for name in &names {
            assert!(name.len() <= 64, "{name} too long");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_number(1.2034), "1.2034");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(1e-7), "1e-7");
    }
}
