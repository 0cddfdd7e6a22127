//! Batched SoA mega-kernel equivalence suite: on hundreds of seeded random
//! instance *batches*, the lane-major batch kernel must agree with the
//! per-instance chunked kernel — same feasibility verdicts, reliabilities
//! within `1e-12`, identical reconstructed mappings — across every bucket
//! width (1, LANES−1, LANES, 3·LANES+1), and the shape-bucketed batch
//! driver must reproduce the unbucketed run front-for-front.
//!
//! Reuses the ChaCha8 harness style of `tests/kernel.rs`: each case is
//! generated from its own seed, and a failing case re-panics with the seed
//! that reproduces it.

use pipelined_rt::algorithms::{
    solve_batch, BatchLane, BatchScratch, DpScratch, OptimalMapping, SolveCtx, LANES,
};
use pipelined_rt::model::{IntervalOracle, Platform, TaskChain};
use pipelined_rt::portfolio::{
    BatchConfig, BatchDriver, BoundsPolicy, PortfolioEngine, ProblemInstance,
};
use pipelined_rt::workload::InstanceGenerator;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The per-instance chunked kernel: Algorithm 1 (`None`) or Algorithm 2 on a
/// fresh scratch.
fn per_instance(
    oracle: &IntervalOracle,
    chain: &TaskChain,
    platform: &Platform,
    bound: Option<f64>,
) -> Option<OptimalMapping> {
    SolveCtx::new(chain, platform, oracle, &mut DpScratch::new())
        .reliability_dp(bound)
        .ok()
}

/// Number of random instance batches checked per property.
const CASES: u64 = 200;

fn for_random_cases(property: &str, mut check: impl FnMut(&mut ChaCha8Rng)) {
    for case in 0..CASES {
        let seed = 0x0BA7_C000 + case;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            check(&mut rng);
        }));
        if outcome.is_err() {
            panic!("property `{property}` failed for ChaCha8 seed {seed:#x}");
        }
    }
}

/// A random chain of exactly `n` tasks with works in [1, 100] and outputs
/// in [0, 10] — the batch requires one shape, so `n` is fixed per batch
/// while the numerics differ per lane.
fn random_chain(rng: &mut ChaCha8Rng, n: usize) -> TaskChain {
    let pairs: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen_range(1.0..100.0), rng.gen_range(0.0..10.0)))
        .collect();
    TaskChain::from_pairs(&pairs).expect("valid generated chain")
}

/// A random homogeneous platform of exactly `p` processors with replication
/// cap `k_max` (batch shape), with per-lane speed and failure numerics.
fn random_homogeneous_platform(rng: &mut ChaCha8Rng, p: usize, k_max: usize) -> Platform {
    Platform::homogeneous(
        p,
        rng.gen_range(1.0..4.0),
        rng.gen_range(1e-5..1e-2),
        rng.gen_range(0.5..4.0),
        rng.gen_range(0.0..1e-3),
        k_max,
    )
    .expect("valid platform")
}

/// A random period bound keeping a healthy feasible/infeasible mix.
fn random_period_bound(rng: &mut ChaCha8Rng, chain: &TaskChain, platform: &Platform) -> f64 {
    let speed = platform.speed(0);
    let floor = chain.max_task_work() / speed;
    let ceiling = chain.total_work() / speed;
    rng.gen_range(0.8 * floor..1.2 * ceiling)
}

/// The batched SoA kernel agrees with the per-instance chunked kernel on
/// every lane
/// of seeded same-shape batches of width 1, LANES−1, LANES, and 3·LANES+1
/// (exercising full chunks, partial tail chunks, and the padded-lane
/// masking), with a per-lane mix of unbounded (Algorithm 1) and
/// period-bounded (Algorithm 2) solves.
#[test]
fn batched_kernel_matches_the_per_instance_chunked_kernel() {
    let widths = [1, LANES - 1, LANES, 3 * LANES + 1];
    let mut scratch = BatchScratch::new(); // reused across cases, like a driver's
    for_random_cases(
        "batched_kernel_matches_the_per_instance_chunked_kernel",
        |rng| {
            let width = widths[rng.gen_range(0..widths.len())];
            let n = rng.gen_range(2usize..=12);
            let p = rng.gen_range(2usize..=8);
            let k_max = rng.gen_range(1usize..=3);

            let mut chains = Vec::with_capacity(width);
            let mut platforms = Vec::with_capacity(width);
            let mut bounds = Vec::with_capacity(width);
            for _ in 0..width {
                let chain = random_chain(rng, n);
                let platform = random_homogeneous_platform(rng, p, k_max);
                let bound = rng
                    .gen_bool(0.5)
                    .then(|| random_period_bound(rng, &chain, &platform));
                chains.push(chain);
                platforms.push(platform);
                bounds.push(bound);
            }
            let oracles: Vec<IntervalOracle> = chains
                .iter()
                .zip(&platforms)
                .map(|(chain, platform)| IntervalOracle::new(chain, platform))
                .collect();
            let lanes: Vec<BatchLane> = (0..width)
                .map(|lane| BatchLane {
                    oracle: &oracles[lane],
                    chain: &chains[lane],
                    platform: &platforms[lane],
                    period_bound: bounds[lane],
                })
                .collect();

            let batched = solve_batch(&lanes, &mut scratch);
            assert_eq!(batched.len(), width);
            for lane in 0..width {
                let reference = per_instance(
                    &oracles[lane],
                    &chains[lane],
                    &platforms[lane],
                    bounds[lane],
                );
                match (&batched[lane], &reference) {
                    (Some(a), Some(b)) => {
                        assert!(
                            (a.reliability - b.reliability).abs()
                                <= 1e-12 * a.reliability.abs().max(b.reliability.abs()),
                            "lane {lane}/{width} diverged: batched {} vs \
                         per-instance {} (bound {:?})",
                            a.reliability,
                            b.reliability,
                            bounds[lane]
                        );
                        assert_eq!(
                            a.mapping, b.mapping,
                            "lane {lane}/{width} reconstructed a different \
                         mapping (bound {:?})",
                            bounds[lane]
                        );
                    }
                    (None, None) => {}
                    (a, b) => panic!(
                        "lane {lane}/{width} feasibility mismatch (bound {:?}): \
                     batched={} per-instance={}",
                        bounds[lane],
                        a.is_some(),
                        b.is_some()
                    ),
                }
            }
        },
    );
}

/// Near-shape padding: batches whose lanes share `(p, k_max)` but have
/// **different task counts** — shorter lanes padded to the longest lane
/// with NaN-masked dead rows — agree with the per-instance chunked kernel
/// bit for bit on every lane, across widths straddling LANES (partial
/// chunk, full chunk, multi-chunk) and a per-lane mix of unbounded and
/// period-bounded solves.
#[test]
fn padded_mixed_length_batches_match_the_per_instance_chunked_kernel() {
    let widths = [2, LANES - 1, LANES, LANES + 3, 2 * LANES + 1];
    let mut scratch = BatchScratch::new();
    for_random_cases(
        "padded_mixed_length_batches_match_the_per_instance_chunked_kernel",
        |rng| {
            let width = widths[rng.gen_range(0..widths.len())];
            let p = rng.gen_range(2usize..=8);
            let k_max = rng.gen_range(1usize..=3);

            let mut chains = Vec::with_capacity(width);
            let mut platforms = Vec::with_capacity(width);
            let mut bounds = Vec::with_capacity(width);
            for _ in 0..width {
                // Per-lane n: the near-shape relaxation under test.
                let n = rng.gen_range(2usize..=12);
                let chain = random_chain(rng, n);
                let platform = random_homogeneous_platform(rng, p, k_max);
                let bound = rng
                    .gen_bool(0.5)
                    .then(|| random_period_bound(rng, &chain, &platform));
                chains.push(chain);
                platforms.push(platform);
                bounds.push(bound);
            }
            let oracles: Vec<IntervalOracle> = chains
                .iter()
                .zip(&platforms)
                .map(|(chain, platform)| IntervalOracle::new(chain, platform))
                .collect();
            let lanes: Vec<BatchLane> = (0..width)
                .map(|lane| BatchLane {
                    oracle: &oracles[lane],
                    chain: &chains[lane],
                    platform: &platforms[lane],
                    period_bound: bounds[lane],
                })
                .collect();

            let batched = solve_batch(&lanes, &mut scratch);
            assert_eq!(batched.len(), width);
            for lane in 0..width {
                let reference = per_instance(
                    &oracles[lane],
                    &chains[lane],
                    &platforms[lane],
                    bounds[lane],
                );
                match (&batched[lane], &reference) {
                    (Some(a), Some(b)) => {
                        assert_eq!(
                            a.reliability.to_bits(),
                            b.reliability.to_bits(),
                            "lane {lane}/{width} n={} diverged: batched {} vs \
                             per-instance {} (bound {:?})",
                            chains[lane].len(),
                            a.reliability,
                            b.reliability,
                            bounds[lane]
                        );
                        assert_eq!(
                            a.mapping,
                            b.mapping,
                            "lane {lane}/{width} n={} reconstructed a different \
                             mapping (bound {:?})",
                            chains[lane].len(),
                            bounds[lane]
                        );
                    }
                    (None, None) => {}
                    (a, b) => panic!(
                        "lane {lane}/{width} n={} feasibility mismatch \
                         (bound {:?}): batched={} per-instance={}",
                        chains[lane].len(),
                        bounds[lane],
                        a.is_some(),
                        b.is_some()
                    ),
                }
            }
        },
    );
}

/// The shape-bucketed batch driver — full buckets through the mega-kernel,
/// partial buckets flushed at stream end, heterogeneous instances down the
/// per-instance remainder loop — reproduces the unbucketed run's Pareto
/// fronts exactly, front-for-front, on a mixed stream.
#[test]
fn bucketed_driver_equals_the_unbucketed_run_front_for_front() {
    let policy = BoundsPolicy::default();
    // 2 full LANES-wide buckets' worth of homogeneous paper instances (plus
    // stragglers, since paper shapes vary) interleaved with heterogeneous
    // remainder instances.
    let hom: Vec<ProblemInstance> = InstanceGenerator::paper_homogeneous(0xBEEF)
        .batch(2 * LANES + 3)
        .iter()
        .map(|experiment| policy.instance(experiment, false))
        .collect();
    let het: Vec<ProblemInstance> = InstanceGenerator::paper_heterogeneous(0xFACE)
        .batch(4)
        .iter()
        .map(|experiment| policy.instance(experiment, true))
        .collect();
    let mut instances = Vec::new();
    for (index, instance) in hom.into_iter().enumerate() {
        instances.push(instance);
        if let Some(extra) = het.get(index).cloned() {
            instances.push(extra);
        }
    }

    let run = |bucketed: bool| {
        let engine = PortfolioEngine::default().with_threads(1);
        let driver = BatchDriver::new(BatchConfig {
            workers: 3,
            bucketed,
            ..BatchConfig::default()
        });
        let report = driver.run_instances(&engine, instances.clone());
        let fronts: Vec<_> = instances
            .iter()
            .map(|instance| engine.solve(instance).front)
            .collect();
        (report, fronts)
    };
    let (plain_report, plain_fronts) = run(false);
    let (bucket_report, bucket_fronts) = run(true);

    assert_eq!(plain_report.buckets_dispatched, 0);
    assert!(
        bucket_report.buckets_dispatched > 0,
        "same-shape homogeneous instances must form buckets"
    );
    assert_eq!(
        bucket_report.remainder_solves, 4,
        "every heterogeneous instance takes the remainder path"
    );
    assert_eq!(
        bucket_report.bucketed_instances + bucket_report.remainder_solves,
        bucket_report.instances
    );
    assert_eq!(
        plain_report.feasible_instances,
        bucket_report.feasible_instances
    );

    for (index, (plain, bucket)) in plain_fronts.iter().zip(&bucket_fronts).enumerate() {
        let key = |front: &pipelined_rt::portfolio::ParetoFront| -> Vec<_> {
            front
                .points()
                .iter()
                .map(|point| {
                    (
                        point.fingerprint(),
                        point.backend,
                        point.evaluation.reliability.to_bits(),
                        point.evaluation.worst_case_period.to_bits(),
                        point.evaluation.worst_case_latency.to_bits(),
                    )
                })
                .collect()
        };
        assert_eq!(
            key(plain),
            key(bucket),
            "instance {index}: bucketed front diverged from the unbucketed one"
        );
    }
}
