//! Machine-readable perf baselines: times the Algorithm 1/2 dynamic
//! programs with and without the [`IntervalOracle`] (writing
//! `BENCH_oracle.json`), times the lane-chunked DP kernel against the
//! scalar reference sweep and the portfolio batch with and without
//! chain-keyed oracle sharing (writing `BENCH_kernel.json`), and measures
//! the exact class-level heterogeneous DP against the Section 7.2 greedy
//! pipeline at the paper's 10-processor heterogeneous setup (3-class
//! variant; writing `BENCH_het.json`), and replays a duplicate-heavy
//! request stream through the `rpo-serve` solver service (writing
//! `BENCH_serve.json`).
//!
//! Usage:
//! `cargo run --release -p rpo-bench --bin oracle_baseline \
//!     [oracle_output] [kernel_output] [het_output] [het_lat_output] [repair_output] \
//!     [serve_output] \
//!     [--enforce-kernel-speedup] [--enforce-het-gain] [--enforce-het-lat-gain] \
//!     [--enforce-obs-overhead] [--enforce-batch-speedup] [--enforce-repair-speedup] \
//!     [--enforce-het-kernel-speedup] [--enforce-serve-latency]`
//! (default output paths `BENCH_oracle.json`, `BENCH_kernel.json`,
//! `BENCH_het.json`, `BENCH_het_lat.json`, `BENCH_repair.json` and
//! `BENCH_serve.json` in the working directory).
//! With `--enforce-kernel-speedup` the process exits non-zero if the chunked
//! kernel measures slower than the scalar reference; with
//! `--enforce-het-gain` it exits non-zero if `algo_het` ever falls below the
//! greedy reliability (or solves fewer instances); with
//! `--enforce-het-lat-gain` it exits non-zero unless `algo_het_lat` beats
//! the latency-aware greedy pipeline strictly somewhere with no losses, no
//! missed solves and no bound violations; with `--enforce-obs-overhead` it
//! exits non-zero if the portfolio batch with observability recording
//! enabled measures more than 3% slower than the same batch with the
//! runtime toggle off (on hosts with ≤ 2 cores the medians are scheduler
//! jitter, so the numbers are reported but not enforced); with
//! `--enforce-batch-speedup` it exits non-zero
//! unless the batched SoA mega-kernel clears 1.4× the per-instance chunked
//! kernel on a 512-instance same-shape homogeneous stream (2× with the
//! AVX-512 zmm `RUSTFLAGS` opt-in documented in `.cargo/config.toml`) *and*
//! the padded near-shape mixed-length stream beats the per-instance kernel
//! (the padded stream must additionally match it bit-for-bit — that check
//! is asserted unconditionally, flags or not; both floors are reported but
//! not enforced on ≤ 2-core hosts); with `--enforce-repair-speedup` it exits
//! non-zero unless repairing a single-processor failure through the
//! `rpo-repair` ladder measures at least 10× faster than a cold oracle
//! rebuild + re-solve at the same size *and* lands on the cold re-solve's
//! exact reliability; with `--enforce-het-kernel-speedup` it exits non-zero
//! unless the chunked `algo_het` class-DP kernel clears 1.3× the scalar
//! reference at the paper's 10-processor 3-class setup stretched to
//! n = 100 tasks (bit-identical mappings are asserted unconditionally;
//! like the overhead guard, the speedup floors are reported but not
//! enforced on ≤ 2-core hosts); with `--enforce-serve-latency` it exits
//! non-zero unless the solver service sustains 2 000 req/s with p99 latency
//! under the request deadline on a 2 048-request ≥ 30%-duplicate replay
//! (wall-clock floors environment-aware as above; the structural
//! invariants — zero responses delivered past their deadline, zero shed
//! responses carrying solve work — are asserted unconditionally, flags or
//! not) — the CI smoke step runs all eight.
//!
//! All four reports go through the shared [`rpo_obs::write_bench_report`]
//! reporter: the payload fields stay at the top level and the cumulative
//! [`rpo_obs::MetricsSnapshot`] of the instrumented run is embedded under
//! `metrics`. The run also asserts unconditionally that the snapshot
//! carries per-backend solve-time histograms, all three cache counter
//! families, and nonzero DP-kernel span counts.
//!
//! The "naive" dynamic program reimplements the pre-oracle recurrence — it
//! recomputes the Eq. 9 replica-block reliability (three `exp`s per
//! candidate) inside the `(j, i, q)` loops and uses nested `Vec<Vec<_>>`
//! tables — exactly what every solver in the workspace did before the
//! oracle, kept here as the measurement baseline.

use rpo_algorithms::{
    optimize_reliability_homogeneous, reference, solve_batch, BatchLane, BatchScratch, DpScratch,
    HetLatMethod, HetMethod, OptimalMapping, SolveCtx, LANES,
};
use rpo_bench::{bench_chain, bench_hom_platform};
use rpo_model::{reliability, Interval, IntervalOracle, Platform, TaskChain};
use rpo_portfolio::{BatchConfig, BatchDriver, BoundsPolicy, PortfolioEngine, ProblemInstance};
use rpo_serve::{ResponseStatus, ServeConfig, ServeRequest, ServeResponse, SolverService};
use rpo_workload::{ChainSpec, GeneratedRequest, InstanceGenerator, RequestSpec};
use serde::Serialize;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Problem size of the DP comparison (the acceptance target of the oracle
/// refactor: ≥ 3× at n = 100, p = 20).
const DP_TASKS: usize = 100;
const DP_PROCESSORS: usize = 20;
const DP_REPS: usize = 25;
const BATCH_INSTANCES: usize = 120;

#[derive(Debug, Serialize)]
struct DpComparison {
    tasks: usize,
    processors: usize,
    max_replication: usize,
    naive_millis: f64,
    oracle_millis: f64,
    speedup: f64,
}

#[derive(Debug, Serialize)]
struct BackendSummary {
    backend: String,
    runs: usize,
    wins: usize,
    win_rate: f64,
    front_points: usize,
    total_micros: u64,
}

#[derive(Debug, Serialize)]
struct BatchSummary {
    instances: usize,
    feasible_instances: usize,
    elapsed_millis: f64,
    instances_per_sec: f64,
    backends: Vec<BackendSummary>,
}

#[derive(Debug, Serialize)]
struct OracleBaseline {
    algo1: DpComparison,
    algo2: DpComparison,
    portfolio_batch: BatchSummary,
}

#[derive(Debug, Serialize)]
struct KernelComparison {
    tasks: usize,
    processors: usize,
    max_replication: usize,
    scalar_millis: f64,
    chunked_millis: f64,
    speedup: f64,
}

/// Throughput of one near-duplicate batch configuration (instances sharing
/// chains/platforms but differing in bounds).
#[derive(Debug, Serialize)]
struct SharingSummary {
    instances: usize,
    elapsed_millis: f64,
    instances_per_sec: f64,
    oracle_cache_hits: u64,
    oracle_cache_misses: u64,
}

/// Instances in the batched SoA mega-kernel stream (`batch_soa` section):
/// one shape (`DP_TASKS` × `DP_PROCESSORS`), per-instance numerics.
const BATCH_SOA_INSTANCES: usize = 512;

/// Repetitions of each timed sweep over the full SoA stream (median
/// filtered — each sweep already aggregates `BATCH_SOA_INSTANCES` solves,
/// so few repetitions suffice).
const BATCH_SOA_REPS: usize = 5;

/// The batched SoA mega-kernel vs the same solves run one instance at a
/// time through the chunked kernel. Oracles are prebuilt on both sides
/// (instance-level precomputation, measured in `BENCH_oracle.json`), so
/// this isolates the DP sweeps — exactly the work the mega-kernel
/// restructures into lane-major form.
#[derive(Debug, Serialize)]
struct BatchSoaComparison {
    instances: usize,
    tasks: usize,
    processors: usize,
    max_replication: usize,
    /// SIMD lane width of the mega-kernel (`rpo_algorithms::LANES`).
    lanes: usize,
    per_instance_millis: f64,
    /// Full-stream wall clock of the batch kernel's register-blocked fold.
    blocked_millis: f64,
    per_instance_per_s: f64,
    blocked_per_s: f64,
    /// Batch kernel vs the per-instance kernel — the
    /// `--enforce-batch-speedup` gate fails below 1.4×. (The floor was 2×
    /// when the default build carried the AVX-512 zmm opt-out removed from
    /// `.cargo/config.toml`; the default 256-bit build lands lower. The 2×
    /// figure is still reachable with the `RUSTFLAGS` opt-in documented
    /// there.)
    speedup: f64,
}

fn run_batch_soa() -> BatchSoaComparison {
    let platform = bench_hom_platform(DP_PROCESSORS);
    let chains: Vec<TaskChain> = (0..BATCH_SOA_INSTANCES)
        .map(|seed| bench_chain(DP_TASKS, 1000 + seed as u64))
        .collect();
    let oracles: Vec<IntervalOracle> = chains
        .iter()
        .map(|chain| IntervalOracle::new(chain, &platform))
        .collect();
    let lanes: Vec<BatchLane> = chains
        .iter()
        .zip(&oracles)
        .map(|(chain, oracle)| BatchLane {
            oracle,
            chain,
            platform: &platform,
            period_bound: None,
        })
        .collect();

    let mut scratch = DpScratch::new();
    let per_instance_millis = time_median(BATCH_SOA_REPS, || {
        for lane in 0..BATCH_SOA_INSTANCES {
            let result = SolveCtx::new(&chains[lane], &platform, &oracles[lane], &mut scratch)
                .reliability_dp(None);
            std::hint::black_box(result.ok());
        }
    });
    let mut batch_scratch = BatchScratch::new();
    let blocked_millis = time_median(BATCH_SOA_REPS, || {
        let results = solve_batch(&lanes, &mut batch_scratch);
        std::hint::black_box(results);
    });
    let per_s = |millis: f64| BATCH_SOA_INSTANCES as f64 / (millis / 1e3);
    BatchSoaComparison {
        instances: BATCH_SOA_INSTANCES,
        tasks: DP_TASKS,
        processors: DP_PROCESSORS,
        max_replication: platform.max_replication(),
        lanes: LANES,
        per_instance_millis,
        blocked_millis,
        per_instance_per_s: per_s(per_instance_millis),
        blocked_per_s: per_s(blocked_millis),
        speedup: per_instance_millis / blocked_millis,
    }
}

/// Same optional DP answer on both sides: equal mappings and bit-equal
/// reliabilities (or both infeasible).
fn same_solution(a: &Option<OptimalMapping>, b: &Option<OptimalMapping>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => {
            a.mapping == b.mapping && a.reliability.to_bits() == b.reliability.to_bits()
        }
        _ => false,
    }
}

/// Instances in the padded near-shape batch stream (`batch_padded`
/// section): one platform shape (`p`, `K`), chain lengths spread over
/// `[PADDED_MIN_TASKS, PADDED_MAX_TASKS]` so nearly every LANES-wide chunk
/// carries padded rows.
const PADDED_INSTANCES: usize = 256;
const PADDED_MIN_TASKS: usize = 60;
const PADDED_MAX_TASKS: usize = 100;
const PADDED_REPS: usize = 5;

/// The near-shape padded mega-kernel stream vs the same mixed-length solves
/// run one instance at a time through the chunked kernel. With PR 9's
/// relaxed bucketing the lanes share only `(p, K)`; shorter lanes ride as
/// NaN-poisoned padded rows, so this measures what the padding actually
/// costs against what lane-parallelism buys on a realistic mixed stream.
#[derive(Debug, Serialize)]
struct PaddedBatchComparison {
    instances: usize,
    min_tasks: usize,
    max_tasks: usize,
    processors: usize,
    max_replication: usize,
    lanes: usize,
    /// Lanes shorter than their chunk's longest lane (their rows past `n`
    /// are dead weight the sweep still walks).
    padded_lanes: usize,
    per_instance_millis: f64,
    batched_millis: f64,
    /// Batched stream vs the per-instance kernel — the
    /// `--enforce-batch-speedup` gate fails below 1× on hosts with the
    /// headroom to measure it.
    speedup: f64,
    /// Every lane's batched answer equals the per-instance chunked kernel's
    /// (same mapping, bit-equal reliability) — asserted unconditionally.
    bit_identical: bool,
}

fn run_padded_batch() -> PaddedBatchComparison {
    let platform = bench_hom_platform(DP_PROCESSORS);
    let chains: Vec<TaskChain> = (0..PADDED_INSTANCES)
        .map(|seed| {
            // 37 is coprime to the span, so chunk-mates almost never share a
            // length — the worst realistic padding pressure.
            let tasks = PADDED_MIN_TASKS + (seed * 37) % (PADDED_MAX_TASKS - PADDED_MIN_TASKS + 1);
            bench_chain(tasks, 5000 + seed as u64)
        })
        .collect();
    let oracles: Vec<IntervalOracle> = chains
        .iter()
        .map(|chain| IntervalOracle::new(chain, &platform))
        .collect();
    let lanes: Vec<BatchLane> = chains
        .iter()
        .zip(&oracles)
        .map(|(chain, oracle)| BatchLane {
            oracle,
            chain,
            platform: &platform,
            period_bound: None,
        })
        .collect();
    let padded_lanes = lanes
        .chunks(LANES)
        .map(|chunk| {
            let n_max = chunk
                .iter()
                .map(|lane| lane.oracle.len())
                .max()
                .unwrap_or(0);
            chunk
                .iter()
                .filter(|lane| lane.oracle.len() < n_max)
                .count()
        })
        .sum();

    let mut scratch = DpScratch::new();
    let per_instance_millis = time_median(PADDED_REPS, || {
        for lane in 0..PADDED_INSTANCES {
            let result = SolveCtx::new(&chains[lane], &platform, &oracles[lane], &mut scratch)
                .reliability_dp(None);
            std::hint::black_box(result.ok());
        }
    });
    let mut batch_scratch = BatchScratch::new();
    let batched_millis = time_median(PADDED_REPS, || {
        let results = solve_batch(&lanes, &mut batch_scratch);
        std::hint::black_box(results);
    });
    let batched = solve_batch(&lanes, &mut batch_scratch);
    let bit_identical = (0..PADDED_INSTANCES).all(|lane| {
        let per = SolveCtx::new(&chains[lane], &platform, &oracles[lane], &mut scratch)
            .reliability_dp(None)
            .ok();
        same_solution(&per, &batched[lane])
    });
    PaddedBatchComparison {
        instances: PADDED_INSTANCES,
        min_tasks: PADDED_MIN_TASKS,
        max_tasks: PADDED_MAX_TASKS,
        processors: DP_PROCESSORS,
        max_replication: platform.max_replication(),
        lanes: LANES,
        padded_lanes,
        per_instance_millis,
        batched_millis,
        speedup: per_instance_millis / batched_millis,
        bit_identical,
    }
}

#[derive(Debug, Serialize)]
struct KernelBaseline {
    /// Lane-chunked kernel vs the scalar reference sweep (both through the
    /// oracle; oracle construction included, like the oracle baseline).
    algo1: KernelComparison,
    algo2: KernelComparison,
    /// The standard paper-style portfolio batch (same configuration as
    /// `BENCH_oracle.json`'s `portfolio_batch`, for direct comparison).
    portfolio_batch: BatchSummary,
    /// Near-duplicate batch (same chains/platforms, three bound variants
    /// each) with the chain-keyed oracle cache enabled…
    batch_shared_oracle: SharingSummary,
    /// …and with it disabled (every solve rebuilds its oracle).
    batch_unshared_oracle: SharingSummary,
    /// Batched SoA mega-kernel vs per-instance solves over one same-shape
    /// homogeneous stream.
    batch_soa: BatchSoaComparison,
    /// The same mega-kernel on a padded near-shape mixed-length stream
    /// (lanes share only `(p, K)`) vs per-instance solves.
    batch_padded: PaddedBatchComparison,
}

/// Number of class-structured heterogeneous instances of the `algo_het`
/// baseline.
const HET_INSTANCES: usize = 50;

/// The chunked class-DP kernel comparison: the paper's 10-processor 3-class
/// setup stretched to `HET_KERNEL_TASKS` tasks (the het baseline's 15-task
/// chains finish in microseconds — the per-pattern inner loop only
/// dominates at the n = 100 scaling point), `HET_KERNEL_INSTANCES`
/// instances per timed sweep, median of `HET_KERNEL_REPS` sweeps.
const HET_KERNEL_INSTANCES: usize = 6;
const HET_KERNEL_TASKS: usize = 100;
const HET_KERNEL_REPS: usize = 5;

/// The chunked gather/compact/sweep `algo_het` kernel (`SolveCtx::class_dp`)
/// vs the scalar reference inner loop (`reference::class_dp`), with the same
/// greedy incumbent priming both pruners, exactly as `algo_het` primes its
/// class DP.
#[derive(Debug, Serialize)]
struct HetKernelComparison {
    instances: usize,
    tasks: usize,
    processors: usize,
    classes: usize,
    max_replication: usize,
    scalar_millis: f64,
    chunked_millis: f64,
    /// Scalar inner loop vs chunked kernel — the
    /// `--enforce-het-kernel-speedup` gate fails below 1.3× on hosts with
    /// the headroom to measure it.
    speedup: f64,
    /// The chunked kernel returned the same mapping and bit-equal
    /// reliability as the scalar reference on every instance — asserted
    /// unconditionally.
    bit_identical: bool,
}

/// A class-DP kernel: the production chunked one or the scalar reference.
type ClassDp = fn(&mut SolveCtx<'_>, Option<f64>, f64) -> Option<OptimalMapping>;

fn run_het_kernel_comparison() -> HetKernelComparison {
    let mut generator = InstanceGenerator::paper_heterogeneous_classes(0x0AC1E);
    generator.chain = ChainSpec::paper_with_tasks(HET_KERNEL_TASKS);
    let period_slack = 0.75;
    let mut comparison = HetKernelComparison {
        instances: HET_KERNEL_INSTANCES,
        tasks: HET_KERNEL_TASKS,
        processors: 0,
        classes: 0,
        max_replication: 0,
        scalar_millis: 0.0,
        chunked_millis: 0.0,
        speedup: 0.0,
        bit_identical: true,
    };
    let mut cases = Vec::new();
    for instance in generator.batch(HET_KERNEL_INSTANCES) {
        let chain = instance.chain;
        let platform = instance.heterogeneous;
        let oracle = IntervalOracle::new(&chain, &platform);
        comparison.processors = platform.num_processors();
        comparison.classes = oracle.classes().len();
        comparison.max_replication = platform.max_replication();
        let bound = period_slack * chain.total_work() / platform.max_speed();
        // The same greedy incumbent primes both kernels' pruning, exactly
        // as `algo_het` does before entering the class DP.
        let mut scratch = DpScratch::new();
        let incumbent = SolveCtx::new(&chain, &platform, &oracle, &mut scratch)
            .greedy_het(Some(bound))
            .map(|solution| solution.reliability)
            .unwrap_or(0.0);
        cases.push((oracle, chain, platform, bound, incumbent));
    }
    let mut scratch = DpScratch::new();
    let mut measure = |kernel: ClassDp| {
        time_median(HET_KERNEL_REPS, || {
            for (oracle, chain, platform, bound, incumbent) in &cases {
                let mut ctx = SolveCtx::new(chain, platform, oracle, &mut scratch);
                std::hint::black_box(kernel(&mut ctx, Some(*bound), *incumbent));
            }
        })
    };
    comparison.scalar_millis =
        measure(|ctx, bound, incumbent| reference::class_dp(ctx, bound, incumbent));
    comparison.chunked_millis = measure(|ctx, bound, incumbent| ctx.class_dp(bound, incumbent));
    comparison.speedup = comparison.scalar_millis / comparison.chunked_millis;
    for (oracle, chain, platform, bound, incumbent) in &cases {
        let mut ctx = SolveCtx::new(chain, platform, oracle, &mut scratch);
        comparison.bit_identical &= same_solution(
            &reference::class_dp(&ctx, Some(*bound), *incumbent),
            &ctx.class_dp(Some(*bound), *incumbent),
        );
    }
    comparison
}

/// The `algo_het` (exact class-level DP) vs greedy comparison at the paper's
/// 10-processor heterogeneous setup, restricted to three processor classes
/// so the DP applies.
#[derive(Debug, Serialize)]
struct HetBaseline {
    instances: usize,
    tasks: usize,
    processors: usize,
    classes: usize,
    max_replication: usize,
    /// Period bound = `period_slack × W / s_max` per instance (whole-chain
    /// work on the fastest processor — tight enough that the exact DP's
    /// partition/pattern choices matter).
    period_slack: f64,
    /// Instances each strategy solved within the bound.
    dp_solved: usize,
    greedy_solved: usize,
    /// Solves where the exact DP (not the greedy fallback) produced the
    /// answer.
    dp_exact_solves: usize,
    /// Total `algo_het` wall-clock across all instances. NOTE: `algo_het`
    /// runs the full greedy pipeline internally (fallback + upper-bound
    /// pruner), so this **includes** one greedy run per instance — the
    /// DP-only cost is roughly `dp_total_millis − greedy_total_millis`.
    dp_total_millis: f64,
    /// Total standalone greedy-pipeline wall-clock across all instances.
    greedy_total_millis: f64,
    /// Failure-probability gain `(F_greedy − F_dp) / F_greedy`, averaged /
    /// maximized over the instances both strategies solved.
    mean_failure_gain: f64,
    max_failure_gain: f64,
    /// Instances where the DP is strictly more reliable than the greedy.
    dp_wins: usize,
    /// Instances where the DP is *less* reliable than the greedy — must be
    /// zero (`--enforce-het-gain` fails otherwise).
    dp_losses: usize,
    /// Chunked vs scalar class-DP kernel timings at the n = 100 scaling
    /// point (the `--enforce-het-kernel-speedup` gate).
    het_kernel: HetKernelComparison,
}

fn run_het_baseline(het_kernel: HetKernelComparison) -> HetBaseline {
    let period_slack = 0.75;
    let generator = rpo_workload::InstanceGenerator::paper_heterogeneous_classes(0x0AC1E);
    let mut baseline = HetBaseline {
        instances: HET_INSTANCES,
        tasks: 0,
        processors: 0,
        classes: 0,
        max_replication: 0,
        period_slack,
        dp_solved: 0,
        greedy_solved: 0,
        dp_exact_solves: 0,
        dp_total_millis: 0.0,
        greedy_total_millis: 0.0,
        mean_failure_gain: 0.0,
        max_failure_gain: 0.0,
        dp_wins: 0,
        dp_losses: 0,
        het_kernel,
    };
    let mut gains: Vec<f64> = Vec::new();
    for instance in generator.batch(HET_INSTANCES) {
        let chain = &instance.chain;
        let platform = &instance.heterogeneous;
        baseline.tasks = chain.len();
        baseline.processors = platform.num_processors();
        baseline.max_replication = platform.max_replication();
        let oracle = IntervalOracle::new(chain, platform);
        let mut scratch = DpScratch::new();
        let mut ctx = SolveCtx::new(chain, platform, &oracle, &mut scratch);
        baseline.classes = oracle.classes().len();
        let bound = period_slack * chain.total_work() / platform.max_speed();

        let start = Instant::now();
        let dp = ctx.algo_het(Some(bound));
        baseline.dp_total_millis += start.elapsed().as_secs_f64() * 1e3;
        let start = Instant::now();
        let greedy = ctx.greedy_het(Some(bound));
        baseline.greedy_total_millis += start.elapsed().as_secs_f64() * 1e3;

        if let Ok(dp) = &dp {
            baseline.dp_solved += 1;
            if dp.method == HetMethod::ClassDp {
                baseline.dp_exact_solves += 1;
            }
        }
        if greedy.is_ok() {
            baseline.greedy_solved += 1;
        }
        if let (Ok(dp), Ok(greedy)) = (&dp, &greedy) {
            let (f_dp, f_greedy) = (1.0 - dp.reliability, 1.0 - greedy.reliability);
            if f_greedy > 0.0 {
                gains.push((f_greedy - f_dp) / f_greedy);
            }
            if dp.reliability > greedy.reliability {
                baseline.dp_wins += 1;
            } else if dp.reliability < greedy.reliability {
                baseline.dp_losses += 1;
            }
        }
    }
    if !gains.is_empty() {
        baseline.mean_failure_gain = gains.iter().sum::<f64>() / gains.len() as f64;
        baseline.max_failure_gain = gains.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    }
    baseline
}

/// The `algo_het_lat` (latency-aware label DP + Lagrangian fallback) vs
/// latency-aware greedy comparison at the paper's 10-processor 3-class
/// setup, under the tight relative bounds of
/// `rpo_workload::BoundsSpec::paper_het_lat` (period `0.75 × W/s_max`,
/// latency `1.6 × W/s_max`).
#[derive(Debug, Serialize)]
struct HetLatBaseline {
    instances: usize,
    tasks: usize,
    processors: usize,
    classes: usize,
    max_replication: usize,
    period_slack: f64,
    latency_slack: f64,
    /// Instances each strategy solved within both bounds.
    dp_solved: usize,
    greedy_solved: usize,
    /// Solves answered by the exact label DP (vs Lagrangian fallback or
    /// greedy).
    dp_exact_solves: usize,
    lagrangian_solves: usize,
    /// Total `algo_het_lat` wall-clock across all instances (includes its
    /// internal greedy run, as in `BENCH_het.json`).
    dp_total_millis: f64,
    /// Total standalone latency-aware greedy wall-clock.
    greedy_total_millis: f64,
    /// Failure-probability gain `(F_greedy − F_dp) / F_greedy`, averaged /
    /// maximized over the instances both strategies solved.
    mean_failure_gain: f64,
    max_failure_gain: f64,
    /// Instances where the DP is strictly more reliable than the greedy —
    /// must be positive (`--enforce-het-lat-gain` fails otherwise).
    dp_wins: usize,
    /// Instances where the DP is *less* reliable than the greedy — must be
    /// zero.
    dp_losses: usize,
    /// Returned mappings violating a bound — must be zero.
    bound_violations: usize,
}

fn run_het_lat_baseline() -> HetLatBaseline {
    let spec = rpo_workload::BoundsSpec::paper_het_lat();
    let mut baseline = HetLatBaseline {
        instances: HET_INSTANCES,
        tasks: 0,
        processors: 0,
        classes: 0,
        max_replication: 0,
        period_slack: spec.period_slack,
        latency_slack: spec.latency_slack,
        dp_solved: 0,
        greedy_solved: 0,
        dp_exact_solves: 0,
        lagrangian_solves: 0,
        dp_total_millis: 0.0,
        greedy_total_millis: 0.0,
        mean_failure_gain: 0.0,
        max_failure_gain: 0.0,
        dp_wins: 0,
        dp_losses: 0,
        bound_violations: 0,
    };
    let mut gains: Vec<f64> = Vec::new();
    for bounded in rpo_workload::InstanceGenerator::paper_het_lat_stream(0x0AC1E, HET_INSTANCES) {
        let chain = &bounded.instance.chain;
        let platform = &bounded.instance.heterogeneous;
        baseline.tasks = chain.len();
        baseline.processors = platform.num_processors();
        baseline.max_replication = platform.max_replication();
        let oracle = IntervalOracle::new(chain, platform);
        let mut scratch = DpScratch::new();
        let mut ctx = SolveCtx::new(chain, platform, &oracle, &mut scratch);
        baseline.classes = oracle.classes().len();

        let start = Instant::now();
        let dp = ctx.algo_het_lat(Some(bounded.period_bound), bounded.latency_bound);
        baseline.dp_total_millis += start.elapsed().as_secs_f64() * 1e3;
        let start = Instant::now();
        let greedy = ctx.greedy_het_lat(Some(bounded.period_bound), bounded.latency_bound);
        baseline.greedy_total_millis += start.elapsed().as_secs_f64() * 1e3;

        if let Ok(dp) = &dp {
            baseline.dp_solved += 1;
            match dp.method {
                HetLatMethod::LatDp => baseline.dp_exact_solves += 1,
                HetLatMethod::Lagrangian => baseline.lagrangian_solves += 1,
                HetLatMethod::Greedy => {}
            }
            let evaluation = oracle.evaluate(&dp.mapping);
            if evaluation.worst_case_latency > bounded.latency_bound
                || evaluation.worst_case_period > bounded.period_bound
            {
                baseline.bound_violations += 1;
            }
        }
        if greedy.is_ok() {
            baseline.greedy_solved += 1;
        }
        if let (Ok(dp), Ok(greedy)) = (&dp, &greedy) {
            let (f_dp, f_greedy) = (1.0 - dp.reliability, 1.0 - greedy.reliability);
            if f_greedy > 0.0 {
                gains.push((f_greedy - f_dp) / f_greedy);
            }
            if dp.reliability > greedy.reliability {
                baseline.dp_wins += 1;
            } else if dp.reliability < greedy.reliability {
                baseline.dp_losses += 1;
            }
        }
    }
    if !gains.is_empty() {
        baseline.mean_failure_gain = gains.iter().sum::<f64>() / gains.len() as f64;
        baseline.max_failure_gain = gains.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    }
    baseline
}

/// The repair ladder vs a cold re-solve on a single-processor failure at
/// the DP comparison size (`n = 100`, `p = 20`). The cold side pays what a
/// delta-oblivious pipeline pays — a fresh [`IntervalOracle`] plus a full
/// Algorithm 1 run on the shrunken platform; the repair side answers the
/// same question through [`rpo_repair::RepairSession::apply`]. The
/// `--enforce-repair-speedup` gate fails below 10×, or if the repaired
/// reliability drifts from the cold optimum by more than 1e-12 relative.
#[derive(Debug, Serialize)]
struct RepairBaseline {
    tasks: usize,
    processors: usize,
    max_replication: usize,
    sessions: usize,
    /// Median wall-clock of one `apply(ProcessorFailed)` (oracle delta +
    /// ladder), in milliseconds.
    repair_millis: f64,
    /// Median wall-clock of the cold path (fresh oracle + full DP on the
    /// shrunken platform), in milliseconds.
    cold_millis: f64,
    speedup: f64,
    repair_reliability: f64,
    cold_reliability: f64,
    /// `|repair − cold| / cold` — must stay ≤ 1e-12.
    reliability_rel_diff: f64,
    /// Ladder tier census across the timed sessions.
    local_patches: usize,
    warm_dps: usize,
    full_solves: usize,
}

fn run_repair_baseline() -> RepairBaseline {
    use rpo_model::PlatformDelta;
    use rpo_repair::{RepairSession, RepairTier};

    let chain = bench_chain(DP_TASKS, 42);
    let platform = bench_hom_platform(DP_PROCESSORS);
    let delta = PlatformDelta::ProcessorFailed(DP_PROCESSORS - 1);
    let (_, shrunken) = delta
        .apply(&chain, &platform)
        .expect("removing one of twenty processors");

    // One warm session per repetition, built untimed — `apply` consumes the
    // warm state, so each timed repair starts from an identical session.
    let mut sessions: Vec<RepairSession> = (0..DP_REPS)
        .map(|_| RepairSession::new(chain.clone(), platform.clone(), None).expect("initial solve"))
        .collect();
    let (mut repair_samples, mut tiers) = (Vec::with_capacity(DP_REPS), [0usize; 3]);
    let mut repair_reliability = 0.0;
    for session in &mut sessions {
        let start = Instant::now();
        let report = session.apply(&delta).expect("repairing one failure");
        repair_samples.push(start.elapsed().as_secs_f64() * 1e3);
        match report.tier {
            RepairTier::LocalPatch => tiers[0] += 1,
            RepairTier::WarmDp => tiers[1] += 1,
            RepairTier::FullSolve => tiers[2] += 1,
        }
        repair_reliability = report.reliability;
    }
    repair_samples.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    let repair_millis = repair_samples[repair_samples.len() / 2];

    let mut cold_reliability = 0.0;
    let cold_millis = time_median(DP_REPS, || {
        let result = optimize_reliability_homogeneous(&chain, &shrunken).expect("cold re-solve");
        cold_reliability = result.reliability;
        std::hint::black_box(&result);
    });

    RepairBaseline {
        tasks: DP_TASKS,
        processors: DP_PROCESSORS,
        max_replication: platform.max_replication(),
        sessions: DP_REPS,
        repair_millis,
        cold_millis,
        speedup: cold_millis / repair_millis,
        repair_reliability,
        cold_reliability,
        reliability_rel_diff: ((repair_reliability - cold_reliability) / cold_reliability).abs(),
        local_patches: tiers[0],
        warm_dps: tiers[1],
        full_solves: tiers[2],
    }
}

/// The pre-oracle replicated homogeneous interval reliability: three `exp`s
/// per call, recomputed for every `(j, i, q)` candidate.
fn naive_replicated(chain: &TaskChain, platform: &Platform, interval: Interval, q: usize) -> f64 {
    let input_size = if interval.first == 0 {
        0.0
    } else {
        chain.output_size(interval.first - 1)
    };
    let block = reliability::replica_block_reliability(
        chain,
        platform,
        0,
        interval,
        input_size,
        interval.output_size(chain),
    );
    1.0 - (1.0 - block).powi(q as i32)
}

/// The pre-oracle dynamic program of Algorithms 1/2 (nested-vector tables,
/// per-candidate reliability recomputation), returning the best reliability.
fn naive_reliability_dp(
    chain: &TaskChain,
    platform: &Platform,
    admissible: impl Fn(Interval) -> bool,
) -> Option<f64> {
    let n = chain.len();
    let p = platform.num_processors();
    let k_max = platform.max_replication().min(p);

    let mut f = vec![vec![-1.0f64; p + 1]; n + 1];
    let mut choice = vec![vec![None::<(usize, usize)>; p + 1]; n + 1];
    f[0][0] = 1.0;

    for i in 1..=n {
        for j in 0..i {
            let interval = Interval {
                first: j,
                last: i - 1,
            };
            if !admissible(interval) {
                continue;
            }
            for q in 1..=k_max {
                let rel_interval = naive_replicated(chain, platform, interval, q);
                for k in q..=p {
                    let prev = f[j][k - q];
                    if prev < 0.0 {
                        continue;
                    }
                    let rel = prev * rel_interval;
                    if rel > f[i][k] {
                        f[i][k] = rel;
                        choice[i][k] = Some((j, q));
                    }
                }
            }
        }
    }
    std::hint::black_box(&choice);
    (1..=p)
        .map(|k| f[n][k])
        .filter(|&r| r >= 0.0)
        .max_by(|a, b| a.partial_cmp(b).expect("finite reliabilities"))
}

/// Median wall-clock of `reps` runs of `body`, in milliseconds.
fn time_median(reps: usize, mut body: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            body();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    samples[samples.len() / 2]
}

fn compare_dp(chain: &TaskChain, platform: &Platform, period_bound: Option<f64>) -> DpComparison {
    let speed = platform.speed(0);
    let naive_millis = time_median(DP_REPS, || {
        let result = naive_reliability_dp(chain, platform, |interval| {
            period_bound.is_none_or(|bound| {
                rpo_model::timing::interval_period_requirement(chain, platform, interval, speed)
                    <= bound
            })
        });
        std::hint::black_box(result);
    });
    let oracle_millis = time_median(DP_REPS, || {
        // Oracle construction is part of the measured fast path: one oracle
        // per instance is exactly what the solvers pay.
        let result = SolveCtx::fresh(chain, platform, |ctx| ctx.reliability_dp(period_bound));
        std::hint::black_box(result.ok());
    });
    DpComparison {
        tasks: chain.len(),
        processors: platform.num_processors(),
        max_replication: platform.max_replication(),
        naive_millis,
        oracle_millis,
        speedup: naive_millis / oracle_millis,
    }
}

fn compare_kernels(
    chain: &TaskChain,
    platform: &Platform,
    period_bound: Option<f64>,
) -> KernelComparison {
    // The oracle is built once outside the timed body: it is instance-level
    // precomputation shared by every solver of a portfolio solve (and now by
    // the engine's chain-keyed cache across solves) — its cost is measured
    // separately in `BENCH_oracle.json`. This comparison isolates the DP
    // sweep the two kernels implement differently.
    let oracle = IntervalOracle::new(chain, platform);
    // A fresh scratch per run on both sides, as a one-off solve pays it.
    let scalar_millis = time_median(DP_REPS, || {
        let mut scratch = DpScratch::new();
        let ctx = SolveCtx::new(chain, platform, &oracle, &mut scratch);
        std::hint::black_box(reference::reliability_dp(&ctx, period_bound));
    });
    let chunked_millis = time_median(DP_REPS, || {
        let result = SolveCtx::new(chain, platform, &oracle, &mut DpScratch::new())
            .reliability_dp(period_bound);
        std::hint::black_box(result.ok());
    });
    KernelComparison {
        tasks: chain.len(),
        processors: platform.num_processors(),
        max_replication: platform.max_replication(),
        scalar_millis,
        chunked_millis,
        speedup: scalar_millis / chunked_millis,
    }
}

/// A batch of near-duplicate instances: `BATCH_INSTANCES / 3` distinct
/// chains/platforms, three period-bound variants each — the shape where the
/// chain-keyed oracle cache pays (the front cache misses every variant).
fn near_duplicate_instances() -> Vec<ProblemInstance> {
    let generator = InstanceGenerator::paper_homogeneous(0x0AC1E);
    let mut instances = Vec::new();
    for experiment in generator.batch(BATCH_INSTANCES / 3) {
        for period_slack in [1.3, 1.5, 1.8] {
            let bounds = BoundsPolicy {
                period_slack,
                ..BoundsPolicy::default()
            };
            instances.push(bounds.instance(&experiment, false));
        }
    }
    instances
}

/// Batch repetitions for the sharing comparison (median throughput): oracle
/// construction is a few percent of a solve, so single batch runs are noisy.
const SHARING_REPS: usize = 5;

fn run_sharing_batch(share_oracles: bool) -> SharingSummary {
    let mut summaries: Vec<SharingSummary> = (0..SHARING_REPS)
        .map(|_| {
            // Fresh engine per repetition (the instance cache must not answer
            // repeats). Single-threaded solves + instance-level batch
            // parallelism: the batch driver divides its worker budget by the
            // engine's per-solve threads, so threads(1) gives one inline
            // (spawn-free) solve per batch worker.
            let engine = if share_oracles {
                PortfolioEngine::default().with_threads(1)
            } else {
                PortfolioEngine::default()
                    .with_threads(1)
                    .with_oracle_cache_capacity(0)
            };
            let driver = BatchDriver::new(BatchConfig::default());
            let report = driver.run_instances(&engine, near_duplicate_instances());
            SharingSummary {
                instances: report.instances,
                elapsed_millis: report.elapsed.as_secs_f64() * 1e3,
                instances_per_sec: report.throughput(),
                oracle_cache_hits: report.oracle_cache.hits,
                oracle_cache_misses: report.oracle_cache.misses,
            }
        })
        .collect();
    summaries.sort_by(|a, b| {
        a.instances_per_sec
            .partial_cmp(&b.instances_per_sec)
            .expect("finite throughputs")
    });
    summaries.swap_remove(SHARING_REPS / 2)
}

fn run_batch() -> BatchSummary {
    let engine = PortfolioEngine::default().with_threads(1);
    let driver = BatchDriver::new(BatchConfig {
        bounds: BoundsPolicy::default(),
        ..BatchConfig::default()
    });
    let generator = InstanceGenerator::paper_homogeneous(0x0AC1E);
    let report = driver.run(&engine, generator.stream(BATCH_INSTANCES));
    BatchSummary {
        instances: report.instances,
        feasible_instances: report.feasible_instances,
        elapsed_millis: report.elapsed.as_secs_f64() * 1e3,
        instances_per_sec: report.throughput(),
        backends: report
            .backend_stats
            .iter()
            .map(|s| BackendSummary {
                backend: s.backend.clone(),
                runs: s.runs,
                wins: s.wins,
                win_rate: s.win_rate(),
                front_points: s.front_points,
                total_micros: s.total_micros,
            })
            .collect(),
    }
}

/// Writes one `BENCH_*.json` through the shared [`rpo_obs`] reporter: the
/// payload fields stay at the top level (existing gate consumers keep
/// working) and the cumulative instrumented [`rpo_obs::MetricsSnapshot`]
/// rides along under `metrics`.
fn write_json<T: Serialize>(path: &str, bench: &str, value: &T) {
    rpo_obs::write_bench_report(path, bench, value, &rpo_obs::global().snapshot())
        .expect("writing the baseline file");
    eprintln!("wrote {path}");
}

/// Unconditional acceptance check of the observability plumbing: after the
/// instrumented portfolio batch the registry must expose per-backend
/// solve-time histograms, hit/miss counters for all three caches, and a
/// nonzero DP-kernel span histogram.
fn assert_observability(snapshot: &rpo_obs::MetricsSnapshot, batch: &BatchSummary) {
    for backend in batch.backends.iter().filter(|b| b.runs > 0) {
        let name = format!("backend.solve.{}", backend.backend);
        let histogram = snapshot
            .histogram(&name)
            .unwrap_or_else(|| panic!("missing {name} histogram in the metrics snapshot"));
        assert!(
            histogram.count as usize >= backend.runs,
            "{name}: {} samples < {} recorded runs",
            histogram.count,
            backend.runs
        );
        assert!(
            histogram.p50_nanos > 0.0 && histogram.p99_nanos >= histogram.p50_nanos,
            "{name}: degenerate percentiles (p50 {}, p99 {})",
            histogram.p50_nanos,
            histogram.p99_nanos
        );
    }
    for family in ["cache.instance", "cache.oracle", "cache.scratch"] {
        for leaf in ["hits", "misses"] {
            let name = format!("{family}.{leaf}");
            assert!(
                snapshot.counter_value(&name).is_some(),
                "missing {name} counter in the metrics snapshot"
            );
        }
    }
    let kernel_spans = snapshot
        .histogram("span.dp.kernel")
        .expect("missing span.dp.kernel histogram in the metrics snapshot");
    assert!(
        kernel_spans.count > 0,
        "no dp.kernel spans recorded during the instrumented batch"
    );
    eprintln!(
        "  observability: {} backend histograms, all three cache counter families, \
         {} dp.kernel spans",
        batch.backends.iter().filter(|b| b.runs > 0).count(),
        kernel_spans.count
    );
}

/// Overhead-guard repetitions per side (median filtering, like the sharing
/// comparison).
const OVERHEAD_REPS: usize = 5;

/// Median batch throughput (instances/sec) of `OVERHEAD_REPS` fresh-engine
/// paper-style batches with the observability runtime toggle set to
/// `enabled`.
fn overhead_throughput(enabled: bool) -> f64 {
    rpo_obs::set_enabled(enabled);
    let mut samples: Vec<f64> = (0..OVERHEAD_REPS)
        .map(|_| {
            let engine = PortfolioEngine::default().with_threads(1);
            let driver = BatchDriver::new(BatchConfig::default());
            let generator = InstanceGenerator::paper_homogeneous(0x0AC1E);
            let report = driver.run(&engine, generator.stream(BATCH_INSTANCES));
            report.throughput()
        })
        .collect();
    rpo_obs::set_enabled(true);
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite throughputs"));
    samples[samples.len() / 2]
}

/// Requests in the serve replay (`BENCH_serve.json`). The gate demands at
/// least 2 000 requests with ≥ 30% duplicates.
const SERVE_REQUESTS: usize = 2048;

/// Seed of the serve replay stream.
const SERVE_SEED: u64 = 9010;

/// The serve replay: a duplicate-heavy request stream paced to its Poisson
/// arrival offsets and driven through an in-process [`SolverService`],
/// measuring sustained throughput, the latency distribution, and the
/// admission-control invariants (`--enforce-serve-latency` gate).
#[derive(Debug, Serialize)]
struct ServeBaseline {
    /// Requests replayed (gate: ≥ 2 000).
    requests: usize,
    /// Requests repeating an earlier unique instance.
    duplicate_requests: usize,
    /// `duplicate_requests / requests` (gate: ≥ 0.30).
    duplicate_fraction: f64,
    /// Mean offered load of the replay spec, in requests per second.
    offered_rate_per_s: f64,
    /// Per-request deadline of the replay spec, in milliseconds.
    deadline_ms: f64,
    /// Service worker threads.
    workers: usize,
    /// Wall-clock of the whole replay: first submit to full drain.
    elapsed_millis: f64,
    /// Sustained throughput: every request terminally answered, over the
    /// full replay wall-clock (gate: ≥ 2 000 req/s).
    throughput_req_per_s: f64,
    /// Requests admitted to the solve queue.
    admitted: u64,
    /// Requests coalesced onto an already-queued or in-flight solve.
    coalesced: u64,
    /// Requests answered from the engine's instance cache at admission.
    admission_cache_hits: u64,
    /// Responses flagged `coalesced` or `cached` (admission cache hits plus
    /// engine-cache answers at dequeue): duplicate traffic that paid no
    /// fresh solve.
    absorbed_responses: u64,
    /// Engine solve calls issued by the service workers.
    solves: u64,
    /// Requests shed on a passed deadline (at admission, at dequeue, or at
    /// delivery) — always as a typed rejection, never a stale result.
    shed: u64,
    /// Requests rejected because the bounded queue was full.
    overloaded: u64,
    /// `Ok`/`Infeasible` responses delivered past their deadline, with a
    /// 1 ms grace for the measurement itself (gate: must be 0; the service
    /// converts late results to sheds before handing anything out).
    deadline_violations: u64,
    /// Shed responses carrying solve work or a mapping payload (gate: must
    /// be 0 — a shed is rejected without being solved).
    sheds_carrying_solves: u64,
    /// Median end-to-end latency (submit to response), milliseconds.
    latency_p50_ms: f64,
    /// 99th-percentile end-to-end latency, milliseconds.
    latency_p99_ms: f64,
    /// 99.9th-percentile end-to-end latency, milliseconds.
    latency_p999_ms: f64,
    /// Median queue wait of admitted requests, milliseconds.
    queue_wait_p50_ms: f64,
    /// 99th-percentile queue wait of admitted requests, milliseconds.
    queue_wait_p99_ms: f64,
}

/// One delivered response with its submit/delivery instants, for the
/// external deadline audit.
struct Delivery {
    response: ServeResponse,
    submitted: Instant,
    delivered: Instant,
    deadline: Duration,
}

fn run_serve_baseline() -> ServeBaseline {
    let base = rpo_obs::global().snapshot();
    let spec = RequestSpec::serve_replay(SERVE_SEED);
    let requests: Vec<GeneratedRequest> = spec.stream(SERVE_REQUESTS).collect();
    let duplicate_requests = requests
        .iter()
        .filter(|request| request.duplicate_of.is_some())
        .count();

    let config = ServeConfig {
        workers: 2,
        queue_capacity: 1024,
        default_deadline: None,
        ..ServeConfig::default()
    };
    let workers = config.workers;
    let engine = Arc::new(PortfolioEngine::default().with_threads(1));
    let service = SolverService::start(engine, config);

    let deliveries: Arc<Mutex<Vec<Delivery>>> =
        Arc::new(Mutex::new(Vec::with_capacity(SERVE_REQUESTS)));
    let start = Instant::now();
    for request in &requests {
        // Pace to the spec's Poisson arrival offsets, so queue waits
        // reflect the offered load rather than a single burst.
        let now = start.elapsed();
        if now < request.arrival {
            std::thread::sleep(request.arrival - now);
        }
        let finite = |bound: f64| Some(bound).filter(|b| b.is_finite());
        let wire = ServeRequest {
            id: request.index as u64,
            tenant: request.tenant,
            deadline_ms: Some(request.deadline.as_secs_f64() * 1_000.0),
            chain: request.instance.chain.clone(),
            platform: request.instance.homogeneous.clone(),
            period_bound: finite(request.period_bound),
            latency_bound: finite(request.latency_bound),
        };
        let sink = Arc::clone(&deliveries);
        let submitted = Instant::now();
        let deadline = request.deadline;
        service.submit_with(
            wire,
            Box::new(move |response| {
                sink.lock().expect("delivery log poisoned").push(Delivery {
                    response,
                    submitted,
                    delivered: Instant::now(),
                    deadline,
                });
            }),
        );
    }
    let stats = service.shutdown();
    let elapsed = start.elapsed();

    let deliveries = Arc::try_unwrap(deliveries)
        .unwrap_or_else(|_| panic!("delivery log still shared after drain"))
        .into_inner()
        .expect("delivery log poisoned");
    assert_eq!(
        deliveries.len(),
        SERVE_REQUESTS,
        "every request must receive exactly one terminal response"
    );

    // External deadline audit: the service converts late results to sheds
    // before handing anything out; allow 1 ms for the measurement (the gap
    // between the service's own check and this thread observing delivery).
    let grace = Duration::from_millis(1);
    let mut deadline_violations = 0u64;
    let mut sheds_carrying_solves = 0u64;
    let mut absorbed_responses = 0u64;
    for delivery in &deliveries {
        let response = &delivery.response;
        match response.status {
            ResponseStatus::Ok | ResponseStatus::Infeasible => {
                if delivery.delivered > delivery.submitted + delivery.deadline + grace {
                    deadline_violations += 1;
                }
                if response.coalesced || response.cached {
                    absorbed_responses += 1;
                }
            }
            ResponseStatus::Shed if response.solve_micros > 0 || response.mapping.is_some() => {
                sheds_carrying_solves += 1;
            }
            _ => {}
        }
    }

    let delta = rpo_obs::global().snapshot().delta(&base);
    let quantiles = |name: &str| -> (f64, f64, f64) {
        delta.histogram(name).map_or((0.0, 0.0, 0.0), |h| {
            (h.p50_nanos / 1e6, h.p99_nanos / 1e6, h.p999_nanos / 1e6)
        })
    };
    let (latency_p50_ms, latency_p99_ms, latency_p999_ms) = quantiles("serve.latency");
    let (queue_wait_p50_ms, queue_wait_p99_ms, _) = quantiles("serve.queue_wait");

    ServeBaseline {
        requests: SERVE_REQUESTS,
        duplicate_requests,
        duplicate_fraction: duplicate_requests as f64 / SERVE_REQUESTS as f64,
        offered_rate_per_s: spec.arrival_rate,
        deadline_ms: spec.deadline.as_secs_f64() * 1_000.0,
        workers,
        elapsed_millis: elapsed.as_secs_f64() * 1_000.0,
        throughput_req_per_s: SERVE_REQUESTS as f64 / elapsed.as_secs_f64(),
        admitted: stats.admitted,
        coalesced: stats.coalesced,
        admission_cache_hits: stats.cache_hits,
        absorbed_responses,
        solves: stats.solved,
        shed: stats.shed,
        overloaded: stats.overloaded,
        deadline_violations,
        sheds_carrying_solves,
        latency_p50_ms,
        latency_p99_ms,
        latency_p999_ms,
        queue_wait_p50_ms,
        queue_wait_p99_ms,
    }
}

fn main() {
    let (mut outputs, mut enforce, mut enforce_het, mut enforce_het_lat, mut enforce_obs) =
        (Vec::new(), false, false, false, false);
    let (mut enforce_batch, mut enforce_repair, mut enforce_het_kernel) = (false, false, false);
    let mut enforce_serve = false;
    for arg in std::env::args().skip(1) {
        if arg == "--enforce-kernel-speedup" {
            enforce = true;
        } else if arg == "--enforce-het-gain" {
            enforce_het = true;
        } else if arg == "--enforce-het-lat-gain" {
            enforce_het_lat = true;
        } else if arg == "--enforce-obs-overhead" {
            enforce_obs = true;
        } else if arg == "--enforce-batch-speedup" {
            enforce_batch = true;
        } else if arg == "--enforce-repair-speedup" {
            enforce_repair = true;
        } else if arg == "--enforce-het-kernel-speedup" {
            enforce_het_kernel = true;
        } else if arg == "--enforce-serve-latency" {
            enforce_serve = true;
        } else {
            outputs.push(arg);
        }
    }
    // Speedup-floor gates share the overhead guard's environment awareness:
    // wall-clock medians on boxes pinned to one or two cores are dominated
    // by scheduler jitter, so those floors are reported, not enforced,
    // there. Bit-identity checks have no such excuse and assert everywhere.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let starved = cores <= 2;
    let oracle_output = outputs
        .first()
        .cloned()
        .unwrap_or_else(|| "BENCH_oracle.json".to_string());
    let kernel_output = outputs
        .get(1)
        .cloned()
        .unwrap_or_else(|| "BENCH_kernel.json".to_string());
    let het_output = outputs
        .get(2)
        .cloned()
        .unwrap_or_else(|| "BENCH_het.json".to_string());
    let het_lat_output = outputs
        .get(3)
        .cloned()
        .unwrap_or_else(|| "BENCH_het_lat.json".to_string());
    let repair_output = outputs
        .get(4)
        .cloned()
        .unwrap_or_else(|| "BENCH_repair.json".to_string());
    let serve_output = outputs
        .get(5)
        .cloned()
        .unwrap_or_else(|| "BENCH_serve.json".to_string());

    let chain = bench_chain(DP_TASKS, 42);
    let platform = bench_hom_platform(DP_PROCESSORS);

    eprintln!(
        "timing Algorithm 1 (n = {DP_TASKS}, p = {DP_PROCESSORS}, K = {}) …",
        platform.max_replication()
    );
    let algo1 = compare_dp(&chain, &platform, None);
    eprintln!(
        "  naive {:.2} ms, oracle {:.2} ms → {:.1}×",
        algo1.naive_millis, algo1.oracle_millis, algo1.speedup
    );

    // A period bound that keeps a healthy fraction of intervals admissible.
    let bound = 0.25 * chain.total_work() / platform.speed(0);
    eprintln!("timing Algorithm 2 (period bound {bound:.1}) …");
    let algo2 = compare_dp(&chain, &platform, Some(bound));
    eprintln!(
        "  naive {:.2} ms, oracle {:.2} ms → {:.1}×",
        algo2.naive_millis, algo2.oracle_millis, algo2.speedup
    );

    eprintln!("driving a {BATCH_INSTANCES}-instance portfolio batch …");
    let portfolio_batch = run_batch();
    eprintln!(
        "  {:.1} instances/sec, {} feasible",
        portfolio_batch.instances_per_sec, portfolio_batch.feasible_instances
    );

    assert_observability(&rpo_obs::global().snapshot(), &portfolio_batch);

    let baseline = OracleBaseline {
        algo1,
        algo2,
        portfolio_batch,
    };
    write_json(&oracle_output, "oracle", &baseline);

    eprintln!("timing the DP kernels (scalar reference vs lane-chunked) …");
    let kernel_algo1 = compare_kernels(&chain, &platform, None);
    eprintln!(
        "  algo1: scalar {:.2} ms, chunked {:.2} ms → {:.2}×",
        kernel_algo1.scalar_millis, kernel_algo1.chunked_millis, kernel_algo1.speedup
    );
    let kernel_algo2 = compare_kernels(&chain, &platform, Some(bound));
    eprintln!(
        "  algo2: scalar {:.2} ms, chunked {:.2} ms → {:.2}×",
        kernel_algo2.scalar_millis, kernel_algo2.chunked_millis, kernel_algo2.speedup
    );

    eprintln!("driving the near-duplicate batch with and without oracle sharing …");
    // Unshared first: any residual warm-up bias favours the *baseline*, so
    // an observed sharing win is not an ordering artifact.
    let unshared = run_sharing_batch(false);
    let shared = run_sharing_batch(true);
    eprintln!(
        "  shared {:.1} instances/sec ({} oracle hits), unshared {:.1} instances/sec",
        shared.instances_per_sec, shared.oracle_cache_hits, unshared.instances_per_sec
    );

    let fresh_batch = run_batch();
    eprintln!(
        "  portfolio batch (kernel build): {:.1} instances/sec",
        fresh_batch.instances_per_sec
    );

    eprintln!(
        "timing the batched SoA mega-kernel on a {BATCH_SOA_INSTANCES}-instance \
         same-shape stream …"
    );
    let batch_soa = run_batch_soa();
    eprintln!(
        "  per-instance {:.1} inst/s, batched {:.1} inst/s → {:.2}×",
        batch_soa.per_instance_per_s, batch_soa.blocked_per_s, batch_soa.speedup,
    );
    let batch_regressed = batch_soa.speedup < 1.4;

    eprintln!(
        "timing the padded near-shape batch on a {PADDED_INSTANCES}-instance \
         mixed-length stream (n ∈ [{PADDED_MIN_TASKS}, {PADDED_MAX_TASKS}]) …"
    );
    let batch_padded = run_padded_batch();
    eprintln!(
        "  per-instance {:.1} ms, batched {:.1} ms → {:.2}× ({} of {} lanes padded, \
         bit-identical: {})",
        batch_padded.per_instance_millis,
        batch_padded.batched_millis,
        batch_padded.speedup,
        batch_padded.padded_lanes,
        batch_padded.instances,
        batch_padded.bit_identical,
    );
    assert!(
        batch_padded.bit_identical,
        "the padded near-shape batch diverged from the per-instance chunked kernel"
    );
    let padded_regressed = batch_padded.speedup < 1.0;

    let slower = kernel_algo1.speedup < 1.0 || kernel_algo2.speedup < 1.0;
    let kernel = KernelBaseline {
        algo1: kernel_algo1,
        algo2: kernel_algo2,
        portfolio_batch: fresh_batch,
        batch_shared_oracle: shared,
        batch_unshared_oracle: unshared,
        batch_soa,
        batch_padded,
    };
    write_json(&kernel_output, "kernel", &kernel);

    eprintln!(
        "timing the class-DP kernels (scalar vs chunked) on {HET_KERNEL_INSTANCES} \
         paper-regime instances at n = {HET_KERNEL_TASKS} …"
    );
    let het_kernel = run_het_kernel_comparison();
    eprintln!(
        "  scalar {:.2} ms, chunked {:.2} ms → {:.2}× (bit-identical: {})",
        het_kernel.scalar_millis,
        het_kernel.chunked_millis,
        het_kernel.speedup,
        het_kernel.bit_identical,
    );
    assert!(
        het_kernel.bit_identical,
        "the chunked class-DP kernel diverged from the scalar reference"
    );
    let het_kernel_regressed = het_kernel.speedup < 1.3;

    eprintln!(
        "running algo_het vs greedy on {HET_INSTANCES} class-structured heterogeneous instances …"
    );
    let het = run_het_baseline(het_kernel);
    eprintln!(
        "  dp solved {}/{} ({} exact DP), greedy solved {}; algo_het {:.1} ms (incl. its \
         internal greedy run) vs greedy alone {:.1} ms; \
         mean failure gain {:.1}%, {} wins / {} losses",
        het.dp_solved,
        het.instances,
        het.dp_exact_solves,
        het.greedy_solved,
        het.dp_total_millis,
        het.greedy_total_millis,
        100.0 * het.mean_failure_gain,
        het.dp_wins,
        het.dp_losses,
    );
    let het_regressed = het.dp_losses > 0 || het.dp_solved < het.greedy_solved;
    write_json(&het_output, "het", &het);

    eprintln!(
        "running algo_het_lat vs latency-aware greedy on {HET_INSTANCES} latency-bounded \
         class-structured instances …"
    );
    let het_lat = run_het_lat_baseline();
    eprintln!(
        "  dp solved {}/{} ({} label DP, {} lagrangian), greedy solved {}; algo_het_lat \
         {:.1} ms (incl. its internal greedy run) vs greedy alone {:.1} ms; mean failure gain \
         {:.1}%, {} strict wins / {} losses, {} bound violations",
        het_lat.dp_solved,
        het_lat.instances,
        het_lat.dp_exact_solves,
        het_lat.lagrangian_solves,
        het_lat.greedy_solved,
        het_lat.dp_total_millis,
        het_lat.greedy_total_millis,
        100.0 * het_lat.mean_failure_gain,
        het_lat.dp_wins,
        het_lat.dp_losses,
        het_lat.bound_violations,
    );
    // The latency gate demands *strict* DP wins over the greedy pipeline at
    // the paper's 10-processor 3-class setup, on top of no losses, no
    // missed solves, and no bound violations.
    let het_lat_regressed = het_lat.dp_losses > 0
        || het_lat.dp_solved < het_lat.greedy_solved
        || het_lat.dp_wins == 0
        || het_lat.bound_violations > 0;
    write_json(&het_lat_output, "het_lat", &het_lat);

    eprintln!(
        "timing the repair ladder vs a cold re-solve on a single-processor failure \
         (n = {DP_TASKS}, p = {DP_PROCESSORS}) …"
    );
    let repair = run_repair_baseline();
    eprintln!(
        "  repair {:.3} ms vs cold {:.2} ms → {:.0}× \
         ({} local-patch / {} warm-dp / {} full-solve, reliability diff {:.1e})",
        repair.repair_millis,
        repair.cold_millis,
        repair.speedup,
        repair.local_patches,
        repair.warm_dps,
        repair.full_solves,
        repair.reliability_rel_diff,
    );
    let repair_regressed = repair.speedup < 10.0 || repair.reliability_rel_diff > 1e-12;
    write_json(&repair_output, "repair", &repair);

    eprintln!(
        "replaying a {SERVE_REQUESTS}-request duplicate-heavy stream through the \
         solver service …"
    );
    let serve = run_serve_baseline();
    eprintln!(
        "  {:.0} req/s sustained ({:.0}% duplicates; {} coalesced, {} cache hits, \
         {} absorbed, {} solves); latency p50 {:.2} ms, p99 {:.2} ms, p999 {:.2} ms; \
         {} shed, {} overloaded, {} deadline violations",
        serve.throughput_req_per_s,
        100.0 * serve.duplicate_fraction,
        serve.coalesced,
        serve.admission_cache_hits,
        serve.absorbed_responses,
        serve.solves,
        serve.latency_p50_ms,
        serve.latency_p99_ms,
        serve.latency_p999_ms,
        serve.shed,
        serve.overloaded,
        serve.deadline_violations,
    );
    // The admission-control invariants are structural — they hold on any
    // host and assert unconditionally (flags or not).
    assert!(
        serve.requests >= 2_000,
        "the serve replay must cover at least 2 000 requests"
    );
    assert!(
        serve.duplicate_fraction >= 0.30,
        "the serve replay must be duplicate-heavy (≥ 30%)"
    );
    assert_eq!(
        serve.deadline_violations, 0,
        "a response was delivered past its deadline"
    );
    assert_eq!(
        serve.sheds_carrying_solves, 0,
        "a shed response carried solve work — sheds must be rejected, not solved"
    );
    // The wall-clock floors are environment-aware like every other timing
    // gate: the sustained-throughput floor and the p99 ceiling.
    let serve_regressed =
        serve.throughput_req_per_s < 2_000.0 || serve.latency_p99_ms > serve.deadline_ms;
    write_json(&serve_output, "serve", &serve);

    let mut obs_regressed = false;
    if enforce_obs {
        eprintln!(
            "measuring observability overhead ({OVERHEAD_REPS} batches per side, \
             median throughput) …"
        );
        // Disabled side first: any residual warm-up bias then favours the
        // *uninstrumented* baseline, so a passing guard is not an ordering
        // artifact.
        let disabled = overhead_throughput(false);
        let enabled = overhead_throughput(true);
        let ratio = enabled / disabled;
        // Throughput medians on starved runners (boxes pinned to one or two
        // cores) are dominated by scheduler jitter, not recording cost: the
        // same build measures 15–30% "overhead" run to run with the
        // instrumented side's absolute throughput unchanged (the *baseline*
        // moves). No fixed budget is meaningful there, so report the numbers
        // and enforce nothing; the tight 3% budget holds wherever there is
        // headroom to measure it.
        eprintln!(
            "  obs enabled {enabled:.1} instances/sec vs disabled {disabled:.1} \
             instances/sec ({:.1}% overhead; {cores} cores)",
            100.0 * (1.0 - ratio),
        );
        if starved {
            eprintln!(
                "  (≤2-core host: medians reflect scheduler jitter, not recording \
                 cost — reporting only, gate not enforced)"
            );
        } else {
            obs_regressed = ratio < 0.97;
        }
    }

    if enforce && slower {
        eprintln!("FAIL: the chunked kernel measured slower than the scalar reference");
        std::process::exit(1);
    }
    if enforce_het && het_regressed {
        eprintln!("FAIL: algo_het fell below the greedy baseline (losses or fewer solves)");
        std::process::exit(1);
    }
    if enforce_het_lat && het_lat_regressed {
        eprintln!(
            "FAIL: algo_het_lat regressed against the latency-aware greedy baseline \
             (losses, fewer solves, no strict wins, or bound violations)"
        );
        std::process::exit(1);
    }
    if obs_regressed {
        eprintln!(
            "FAIL: observability overhead exceeded the environment-aware budget \
             of the uninstrumented batch"
        );
        std::process::exit(1);
    }
    if enforce_batch && batch_regressed {
        if starved {
            eprintln!(
                "  (≤2-core host: batched SoA speedup {:.2}× reported only, \
                 1.4× floor not enforced)",
                kernel.batch_soa.speedup
            );
        } else {
            eprintln!(
                "FAIL: the batched SoA mega-kernel measured below 1.4× the per-instance \
                 chunked kernel on the same-shape stream (2× with the zmm opt-in build)"
            );
            std::process::exit(1);
        }
    }
    if enforce_batch && padded_regressed {
        if starved {
            eprintln!(
                "  (≤2-core host: padded near-shape speedup {:.2}× reported only, \
                 floor not enforced)",
                kernel.batch_padded.speedup
            );
        } else {
            eprintln!(
                "FAIL: the padded near-shape batch measured slower than per-instance \
                 chunked solves on the mixed-length stream"
            );
            std::process::exit(1);
        }
    }
    if enforce_het_kernel && het_kernel_regressed {
        if starved {
            eprintln!(
                "  (≤2-core host: class-DP kernel speedup {:.2}× reported only, \
                 1.3× floor not enforced)",
                het.het_kernel.speedup
            );
        } else {
            eprintln!(
                "FAIL: the chunked class-DP kernel measured below 1.3× the scalar \
                 reference at the paper's 10-processor 3-class n = 100 regime"
            );
            std::process::exit(1);
        }
    }
    if enforce_repair && repair_regressed {
        eprintln!(
            "FAIL: repairing a single-processor failure measured below 10× the cold \
             re-solve, or its reliability drifted from the cold optimum"
        );
        std::process::exit(1);
    }
    if enforce_serve && serve_regressed {
        if starved {
            eprintln!(
                "  (≤2-core host: serve throughput/p99 floors reported only — the \
                 structural deadline and shed invariants asserted above still hold)"
            );
        } else {
            eprintln!(
                "FAIL: the solver service fell below 2 000 req/s sustained or its \
                 p99 latency exceeded the request deadline on the duplicate-heavy replay"
            );
            std::process::exit(1);
        }
    }
}
