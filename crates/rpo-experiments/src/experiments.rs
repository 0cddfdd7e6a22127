//! The five experiments behind Figures 6–15.
//!
//! Each experiment fixes one bound (or ties it to the swept one), sweeps the
//! other, and reports per method and per sweep point (i) the number of
//! instances for which a feasible mapping was found, and (ii) the average
//! failure probability of the mappings found (averaged over the instances the
//! method solved, as in the paper).

use rayon::prelude::*;
use rpo_algorithms::{DpScratch, HeuristicConfig, IntervalHeuristic, SolveCtx};
use rpo_model::IntervalOracle;
use rpo_workload::{ExperimentInstance, InstanceGenerator};
use serde::{Deserialize, Serialize};

/// Options shared by every experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepOptions {
    /// Number of random instances (the paper uses 100).
    pub num_instances: usize,
    /// Base seed for the instance generator.
    pub seed: u64,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            num_instances: 100,
            seed: 20100613,
        }
    }
}

/// One method curve of an experiment: per sweep point, the number of solved
/// instances and the average failure probability of the solved instances.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodCurve {
    /// Method label (`"ILP"`, `"Heur-L"`, `"Heur-P"`, `"Heur-L_HET"`, …).
    pub label: String,
    /// Number of solved instances per sweep point.
    pub solved: Vec<usize>,
    /// Average failure probability per sweep point (NaN when nothing solved).
    pub avg_failure: Vec<f64>,
}

/// The raw result of one experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentData {
    /// Swept x values (period or latency bounds).
    pub x_values: Vec<f64>,
    /// Per-method curves.
    pub curves: Vec<MethodCurve>,
    /// Number of instances per point.
    pub num_instances: usize,
}

/// How the (period, latency) bound pair is derived from the swept value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BoundRule {
    /// Sweep the period bound, keep the latency bound fixed.
    SweepPeriodFixedLatency {
        /// The fixed latency bound.
        latency: f64,
    },
    /// Sweep the latency bound, keep the period bound fixed.
    SweepLatencyFixedPeriod {
        /// The fixed period bound.
        period: f64,
    },
    /// Sweep the period bound with the latency bound tied to it (`L = ratio·P`).
    SweepPeriodProportionalLatency {
        /// The latency/period ratio.
        ratio: f64,
    },
}

impl BoundRule {
    /// The `(period_bound, latency_bound)` pair for a swept value `x`.
    pub fn bounds(&self, x: f64) -> (f64, f64) {
        match *self {
            BoundRule::SweepPeriodFixedLatency { latency } => (x, latency),
            BoundRule::SweepLatencyFixedPeriod { period } => (period, x),
            BoundRule::SweepPeriodProportionalLatency { ratio } => (x, ratio * x),
        }
    }

    /// Whether the swept value is a period (`true`) or a latency (`false`).
    pub fn sweeps_period(&self) -> bool {
        !matches!(self, BoundRule::SweepLatencyFixedPeriod { .. })
    }
}

/// Definition of one experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// Short name, used in logs.
    pub name: String,
    /// Swept values.
    pub x_values: Vec<f64>,
    /// Bound derivation rule.
    pub rule: BoundRule,
    /// Whether this is a heterogeneous-platform experiment (Figures 12–15).
    pub heterogeneous: bool,
}

/// Inclusive range with a fixed step.
pub(crate) fn sweep(from: f64, to: f64, step: f64) -> Vec<f64> {
    let mut values = Vec::new();
    let mut x = from;
    while x <= to + 1e-9 {
        values.push(x);
        x += step;
    }
    values
}

impl ExperimentSpec {
    /// Figures 6 and 7: homogeneous, latency fixed to 750, period swept.
    pub fn homogeneous_period_sweep() -> Self {
        ExperimentSpec {
            name: "homogeneous period sweep (L = 750)".to_string(),
            x_values: sweep(25.0, 500.0, 25.0),
            rule: BoundRule::SweepPeriodFixedLatency { latency: 750.0 },
            heterogeneous: false,
        }
    }

    /// Figures 8 and 9: homogeneous, period fixed to 250, latency swept.
    pub fn homogeneous_latency_sweep() -> Self {
        ExperimentSpec {
            name: "homogeneous latency sweep (P = 250)".to_string(),
            x_values: sweep(400.0, 1100.0, 50.0),
            rule: BoundRule::SweepLatencyFixedPeriod { period: 250.0 },
            heterogeneous: false,
        }
    }

    /// Figures 10 and 11: homogeneous, `L = 3 P`, period swept.
    pub fn homogeneous_proportional_sweep() -> Self {
        ExperimentSpec {
            name: "homogeneous proportional sweep (L = 3P)".to_string(),
            x_values: sweep(150.0, 350.0, 10.0),
            rule: BoundRule::SweepPeriodProportionalLatency { ratio: 3.0 },
            heterogeneous: false,
        }
    }

    /// Figures 12 and 13: heterogeneous vs speed-5 homogeneous, latency fixed
    /// to 150, period swept.
    pub fn heterogeneous_period_sweep() -> Self {
        ExperimentSpec {
            name: "heterogeneous period sweep (L = 150)".to_string(),
            x_values: sweep(10.0, 150.0, 10.0),
            rule: BoundRule::SweepPeriodFixedLatency { latency: 150.0 },
            heterogeneous: true,
        }
    }

    /// Figures 14 and 15: heterogeneous vs speed-5 homogeneous, period fixed
    /// to 50, latency swept.
    pub fn heterogeneous_latency_sweep() -> Self {
        ExperimentSpec {
            name: "heterogeneous latency sweep (P = 50)".to_string(),
            x_values: sweep(50.0, 250.0, 10.0),
            rule: BoundRule::SweepLatencyFixedPeriod { period: 50.0 },
            heterogeneous: true,
        }
    }

    /// Runs the experiment.
    pub fn run(&self, options: &SweepOptions) -> ExperimentData {
        let generator = if self.heterogeneous {
            InstanceGenerator::paper_heterogeneous(options.seed)
        } else {
            InstanceGenerator::paper_homogeneous(options.seed)
        };
        let instances = generator.batch(options.num_instances);
        if self.heterogeneous {
            run_heterogeneous(self, &instances)
        } else {
            run_homogeneous(self, &instances)
        }
    }
}

/// Reliability found by one heuristic on one platform under given bounds,
/// reading every interval metric from the context's shared oracle (one
/// oracle per `(chain, platform)` across the whole bound sweep).
fn heuristic_reliability(
    ctx: &SolveCtx<'_>,
    heuristic: IntervalHeuristic,
    period: f64,
    latency: f64,
) -> Option<f64> {
    ctx.run_heuristic(&HeuristicConfig {
        interval_heuristic: heuristic,
        period_bound: period,
        latency_bound: latency,
    })
    .ok()
    .map(|solution| solution.evaluation.reliability)
}

/// Aggregates per-instance, per-point reliabilities into a [`MethodCurve`].
fn aggregate(label: &str, per_instance: &[Vec<Option<f64>>], num_points: usize) -> MethodCurve {
    let mut solved = vec![0usize; num_points];
    let mut failure_sum = vec![0.0f64; num_points];
    for instance in per_instance {
        for (point, value) in instance.iter().enumerate() {
            if let Some(reliability) = value {
                solved[point] += 1;
                failure_sum[point] += 1.0 - reliability;
            }
        }
    }
    let avg_failure = solved
        .iter()
        .zip(&failure_sum)
        .map(|(&count, &sum)| {
            if count == 0 {
                f64::NAN
            } else {
                sum / count as f64
            }
        })
        .collect();
    MethodCurve {
        label: label.to_string(),
        solved,
        avg_failure,
    }
}

/// Homogeneous experiments: the exact optimum (the paper's ILP curve, computed
/// here with the partition-profile exact solver) plus Heur-L and Heur-P.
fn run_homogeneous(spec: &ExperimentSpec, instances: &[ExperimentInstance]) -> ExperimentData {
    let num_points = spec.x_values.len();
    let results: Vec<[Vec<Option<f64>>; 3]> = instances
        .par_iter()
        .map(|instance| {
            let platform = &instance.homogeneous;
            let oracle = IntervalOracle::new(&instance.chain, platform);
            let mut scratch = DpScratch::new();
            let ctx = SolveCtx::new(&instance.chain, platform, &oracle, &mut scratch);
            let profiles = ctx
                .partition_profiles()
                .expect("homogeneous platform by construction");
            let mut optimal = Vec::with_capacity(num_points);
            let mut heur_l = Vec::with_capacity(num_points);
            let mut heur_p = Vec::with_capacity(num_points);
            for &x in &spec.x_values {
                let (period, latency) = spec.rule.bounds(x);
                optimal.push(profiles.best_reliability_under(period, latency));
                heur_l.push(heuristic_reliability(
                    &ctx,
                    IntervalHeuristic::MinLatency,
                    period,
                    latency,
                ));
                heur_p.push(heuristic_reliability(
                    &ctx,
                    IntervalHeuristic::MinPeriod,
                    period,
                    latency,
                ));
            }
            [optimal, heur_l, heur_p]
        })
        .collect();

    let optimal: Vec<Vec<Option<f64>>> = results.iter().map(|r| r[0].clone()).collect();
    let heur_l: Vec<Vec<Option<f64>>> = results.iter().map(|r| r[1].clone()).collect();
    let heur_p: Vec<Vec<Option<f64>>> = results.iter().map(|r| r[2].clone()).collect();

    ExperimentData {
        x_values: spec.x_values.clone(),
        curves: vec![
            aggregate("ILP", &optimal, num_points),
            aggregate("Heur-L", &heur_l, num_points),
            aggregate("Heur-P", &heur_p, num_points),
        ],
        num_instances: instances.len(),
    }
}

/// Heterogeneous experiments: Heur-L and Heur-P on the heterogeneous platform
/// and on the speed-5 homogeneous comparison platform.
fn run_heterogeneous(spec: &ExperimentSpec, instances: &[ExperimentInstance]) -> ExperimentData {
    let num_points = spec.x_values.len();
    let results: Vec<[Vec<Option<f64>>; 4]> = instances
        .par_iter()
        .map(|instance| {
            let (chain, het, hom) = (
                &instance.chain,
                &instance.heterogeneous,
                &instance.homogeneous,
            );
            let (het_oracle, hom_oracle) = (
                IntervalOracle::new(chain, het),
                IntervalOracle::new(chain, hom),
            );
            let (mut het_scratch, mut hom_scratch) = (DpScratch::new(), DpScratch::new());
            let het_ctx = SolveCtx::new(chain, het, &het_oracle, &mut het_scratch);
            let hom_ctx = SolveCtx::new(chain, hom, &hom_oracle, &mut hom_scratch);
            let mut curves: [Vec<Option<f64>>; 4] = Default::default();
            for &x in &spec.x_values {
                let (period, latency) = spec.rule.bounds(x);
                let cases = [
                    (&het_ctx, IntervalHeuristic::MinLatency),
                    (&het_ctx, IntervalHeuristic::MinPeriod),
                    (&hom_ctx, IntervalHeuristic::MinLatency),
                    (&hom_ctx, IntervalHeuristic::MinPeriod),
                ];
                for (slot, (ctx, heuristic)) in cases.into_iter().enumerate() {
                    curves[slot].push(heuristic_reliability(ctx, heuristic, period, latency));
                }
            }
            curves
        })
        .collect();

    let labels = ["Heur-L_HET", "Heur-P_HET", "Heur-L_HOM", "Heur-P_HOM"];
    let curves = labels
        .iter()
        .enumerate()
        .map(|(slot, label)| {
            let per_instance: Vec<Vec<Option<f64>>> =
                results.iter().map(|r| r[slot].clone()).collect();
            aggregate(label, &per_instance, num_points)
        })
        .collect();

    ExperimentData {
        x_values: spec.x_values.clone(),
        curves,
        num_instances: instances.len(),
    }
}

/// The class-structured heterogeneous period sweep: the exact class-level DP
/// (`algo_het`) against the Section 7.2 greedy pipeline, on the paper's
/// 10-processor platform restricted to three processor classes. Sweeps the
/// period bound over the Figure 12 range with no latency bound (the DP
/// optimizes reliability under a period bound only).
pub fn run_het_dp_sweep(options: &SweepOptions) -> ExperimentData {
    let generator = InstanceGenerator::paper_heterogeneous_classes(options.seed);
    let instances = generator.batch(options.num_instances);
    let x_values = sweep(10.0, 150.0, 10.0);
    let num_points = x_values.len();

    let results: Vec<[Vec<Option<f64>>; 2]> = instances
        .par_iter()
        .map(|instance| {
            let platform = &instance.heterogeneous;
            let oracle = IntervalOracle::new(&instance.chain, platform);
            let mut scratch = DpScratch::new();
            let mut ctx = SolveCtx::new(&instance.chain, platform, &oracle, &mut scratch);
            let mut dp = Vec::with_capacity(num_points);
            let mut greedy = Vec::with_capacity(num_points);
            for &x in &x_values {
                // One solve serves both curves: algo_het runs the greedy
                // pipeline internally (fallback + pruner) and reports its
                // reliability alongside the DP's.
                match ctx.algo_het(Some(x)) {
                    Ok(solution) => {
                        dp.push(Some(solution.reliability));
                        greedy.push(solution.greedy_reliability);
                    }
                    Err(_) => {
                        // algo_het fails only when the greedy failed too.
                        dp.push(None);
                        greedy.push(None);
                    }
                }
            }
            [dp, greedy]
        })
        .collect();

    let dp: Vec<Vec<Option<f64>>> = results.iter().map(|r| r[0].clone()).collect();
    let greedy: Vec<Vec<Option<f64>>> = results.iter().map(|r| r[1].clone()).collect();
    ExperimentData {
        x_values,
        curves: vec![
            aggregate("Het-DP", &dp, num_points),
            aggregate("Greedy", &greedy, num_points),
        ],
        num_instances: instances.len(),
    }
}

/// The latency-aware class-structured heterogeneous sweep: the exact
/// latency DP (`algo_het_lat`) against the Section 7 heuristics under
/// **both** real-time bounds, on the paper's 10-processor platform
/// restricted to three processor classes. The latency bound sweeps the
/// Figure 14/15 range (50 … 250); the period bound is the tight
/// `BENCH_het.json` regime (`0.75 × W / s_max` per instance — a loose
/// absolute period saturates every mapping at full replication and ties all
/// curves at reliability ≈ 1).
pub fn run_het_lat_sweep(options: &SweepOptions) -> ExperimentData {
    let generator = InstanceGenerator::paper_heterogeneous_classes(options.seed);
    let instances = generator.batch(options.num_instances);
    let x_values = sweep(50.0, 250.0, 10.0);
    let num_points = x_values.len();

    let results: Vec<[Vec<Option<f64>>; 3]> = instances
        .par_iter()
        .map(|instance| {
            let platform = &instance.heterogeneous;
            let period = 0.75 * instance.chain.total_work() / platform.max_speed();
            let oracle = IntervalOracle::new(&instance.chain, platform);
            let mut scratch = DpScratch::new();
            let mut ctx = SolveCtx::new(&instance.chain, platform, &oracle, &mut scratch);
            let mut dp = Vec::with_capacity(num_points);
            let mut heur_l = Vec::with_capacity(num_points);
            let mut heur_p = Vec::with_capacity(num_points);
            for &latency in &x_values {
                dp.push(
                    ctx.algo_het_lat(Some(period), latency)
                        .ok()
                        .map(|solution| solution.reliability),
                );
                heur_l.push(heuristic_reliability(
                    &ctx,
                    IntervalHeuristic::MinLatency,
                    period,
                    latency,
                ));
                heur_p.push(heuristic_reliability(
                    &ctx,
                    IntervalHeuristic::MinPeriod,
                    period,
                    latency,
                ));
            }
            [dp, heur_l, heur_p]
        })
        .collect();

    let labels = ["Het-DP-Lat", "Heur-L", "Heur-P"];
    let curves = labels
        .iter()
        .enumerate()
        .map(|(slot, label)| {
            let per_instance: Vec<Vec<Option<f64>>> =
                results.iter().map(|r| r[slot].clone()).collect();
            aggregate(label, &per_instance, num_points)
        })
        .collect();
    ExperimentData {
        x_values,
        curves,
        num_instances: instances.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_options() -> SweepOptions {
        SweepOptions {
            num_instances: 4,
            seed: 7,
        }
    }

    #[test]
    fn sweep_generates_inclusive_ranges() {
        assert_eq!(sweep(1.0, 3.0, 1.0), vec![1.0, 2.0, 3.0]);
        assert_eq!(sweep(10.0, 10.0, 5.0), vec![10.0]);
        assert_eq!(sweep(0.0, 1.0, 0.25).len(), 5);
    }

    #[test]
    fn bound_rules_derive_the_right_pairs() {
        assert_eq!(
            BoundRule::SweepPeriodFixedLatency { latency: 750.0 }.bounds(100.0),
            (100.0, 750.0)
        );
        assert_eq!(
            BoundRule::SweepLatencyFixedPeriod { period: 250.0 }.bounds(600.0),
            (250.0, 600.0)
        );
        assert_eq!(
            BoundRule::SweepPeriodProportionalLatency { ratio: 3.0 }.bounds(200.0),
            (200.0, 600.0)
        );
        assert!(BoundRule::SweepPeriodFixedLatency { latency: 1.0 }.sweeps_period());
        assert!(!BoundRule::SweepLatencyFixedPeriod { period: 1.0 }.sweeps_period());
    }

    #[test]
    fn homogeneous_experiment_produces_consistent_curves() {
        let spec = ExperimentSpec {
            name: "test".to_string(),
            x_values: sweep(100.0, 500.0, 100.0),
            rule: BoundRule::SweepPeriodFixedLatency { latency: 750.0 },
            heterogeneous: false,
        };
        let options = small_options();
        let data = spec.run(&options);
        assert_eq!(data.curves.len(), 3);
        assert_eq!(data.num_instances, 4);
        let ilp = &data.curves[0];
        assert_eq!(ilp.label, "ILP");
        for curve in &data.curves {
            assert_eq!(curve.solved.len(), data.x_values.len());
            // No method can solve more instances than there are.
            assert!(curve.solved.iter().all(|&s| s <= 4));
            // Failure probabilities are probabilities (or NaN when unsolved).
            assert!(curve
                .avg_failure
                .iter()
                .all(|f| f.is_nan() || (0.0..=1.0).contains(f)));
        }
        // The exact optimum solves at least as many instances as any heuristic,
        // at every sweep point.
        for heuristic in &data.curves[1..] {
            for (point, &solved) in heuristic.solved.iter().enumerate() {
                assert!(
                    ilp.solved[point] >= solved,
                    "{} solves more than the optimum at point {point}",
                    heuristic.label
                );
            }
        }
        // The optimum's solved counts are monotone in the period bound.
        for window in ilp.solved.windows(2) {
            assert!(window[1] >= window[0]);
        }
    }

    #[test]
    fn heterogeneous_experiment_produces_four_curves() {
        let spec = ExperimentSpec {
            name: "test het".to_string(),
            x_values: sweep(50.0, 150.0, 50.0),
            rule: BoundRule::SweepPeriodFixedLatency { latency: 150.0 },
            heterogeneous: true,
        };
        let data = spec.run(&small_options());
        assert_eq!(data.curves.len(), 4);
        let labels: Vec<&str> = data.curves.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(
            labels,
            vec!["Heur-L_HET", "Heur-P_HET", "Heur-L_HOM", "Heur-P_HOM"]
        );
        for curve in &data.curves {
            assert!(curve.solved.iter().all(|&s| s <= 4));
        }
    }

    #[test]
    fn het_dp_sweep_never_trails_the_greedy_curve() {
        let data = run_het_dp_sweep(&small_options());
        assert_eq!(data.curves.len(), 2);
        let dp = &data.curves[0];
        let greedy = &data.curves[1];
        assert_eq!(dp.label, "Het-DP");
        assert_eq!(greedy.label, "Greedy");
        for point in 0..data.x_values.len() {
            // The DP solves at least as many instances as the greedy, and
            // (being exact ≥ greedy per instance) never averages worse on
            // the instances both solve.
            assert!(
                dp.solved[point] >= greedy.solved[point],
                "point {point}: DP solved {} < greedy {}",
                dp.solved[point],
                greedy.solved[point]
            );
            if dp.solved[point] == greedy.solved[point] && dp.solved[point] > 0 {
                assert!(
                    dp.avg_failure[point] <= greedy.avg_failure[point] + 1e-15,
                    "point {point}: DP failure {} above greedy {}",
                    dp.avg_failure[point],
                    greedy.avg_failure[point]
                );
            }
        }
    }

    #[test]
    fn het_lat_sweep_never_trails_either_heuristic() {
        let data = run_het_lat_sweep(&small_options());
        assert_eq!(data.curves.len(), 3);
        let dp = &data.curves[0];
        assert_eq!(dp.label, "Het-DP-Lat");
        for heuristic in &data.curves[1..] {
            for point in 0..data.x_values.len() {
                // The DP solves at least as many instances as each
                // heuristic (it is exact-or-better per instance under both
                // bounds), and never averages worse when they solve the
                // same set.
                assert!(
                    dp.solved[point] >= heuristic.solved[point],
                    "point {point}: DP solved {} < {} {}",
                    dp.solved[point],
                    heuristic.label,
                    heuristic.solved[point]
                );
                if dp.solved[point] == heuristic.solved[point] && dp.solved[point] > 0 {
                    assert!(
                        dp.avg_failure[point] <= heuristic.avg_failure[point] + 1e-15,
                        "point {point}: DP failure {} above {} {}",
                        dp.avg_failure[point],
                        heuristic.label,
                        heuristic.avg_failure[point]
                    );
                }
            }
        }
        // Solution counts are monotone in the latency bound.
        for window in dp.solved.windows(2) {
            assert!(window[1] >= window[0]);
        }
    }

    #[test]
    fn paper_specs_have_the_expected_shape() {
        assert!(!ExperimentSpec::homogeneous_period_sweep().heterogeneous);
        assert!(!ExperimentSpec::homogeneous_latency_sweep().heterogeneous);
        assert!(!ExperimentSpec::homogeneous_proportional_sweep().heterogeneous);
        assert!(ExperimentSpec::heterogeneous_period_sweep().heterogeneous);
        assert!(ExperimentSpec::heterogeneous_latency_sweep().heterogeneous);
        assert_eq!(
            ExperimentSpec::homogeneous_period_sweep().x_values.len(),
            20
        );
        assert_eq!(SweepOptions::default().num_instances, 100);
    }
}
