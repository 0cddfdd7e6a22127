//! Kernel-equivalence property suite: on hundreds of seeded random
//! instances, the lane-chunked DP kernel must agree with the scalar
//! reference sweep within `1e-12`, and the streaming Pareto front must equal
//! the batch-rebuilt front exactly.
//!
//! Reuses the ChaCha8 harness style of `tests/properties.rs`: each case is
//! generated from its own seed, and a failing case re-panics with the seed
//! that reproduces it.

use pipelined_rt::algorithms::{reference, DpScratch, SolveCtx};
use pipelined_rt::model::{IntervalOracle, IntervalPartition, Mapping, Platform, TaskChain};
use pipelined_rt::portfolio::{CandidateMapping, ParetoFront, StreamingFront};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Number of random instances checked per property.
const CASES: u64 = 200;

fn for_random_cases(property: &str, mut check: impl FnMut(&mut ChaCha8Rng)) {
    for case in 0..CASES {
        let seed = 0x0C0D_E000 + case;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            check(&mut rng);
        }));
        if outcome.is_err() {
            panic!("property `{property}` failed for ChaCha8 seed {seed:#x}");
        }
    }
}

/// A random chain of 2..=12 tasks with works in [1, 100] and outputs in
/// [0, 10].
fn random_chain(rng: &mut ChaCha8Rng) -> TaskChain {
    let n = rng.gen_range(2usize..=12);
    let pairs: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen_range(1.0..100.0), rng.gen_range(0.0..10.0)))
        .collect();
    TaskChain::from_pairs(&pairs).expect("valid generated chain")
}

/// A random homogeneous platform (the DP kernels require homogeneity).
fn random_homogeneous_platform(rng: &mut ChaCha8Rng) -> Platform {
    Platform::homogeneous(
        rng.gen_range(2usize..=8),
        rng.gen_range(1.0..4.0),
        rng.gen_range(1e-5..1e-2),
        rng.gen_range(0.5..4.0),
        rng.gen_range(0.0..1e-3),
        rng.gen_range(1usize..=3),
    )
    .expect("valid platform")
}

/// A valid random mapping: random contiguous partition, processors dealt
/// round-robin, at most K per interval.
fn random_mapping(rng: &mut ChaCha8Rng, chain: &TaskChain, platform: &Platform) -> Mapping {
    let n = chain.len();
    let p = platform.num_processors();
    let m = rng.gen_range(1usize..=n.min(p));

    let mut cuts: Vec<usize> = Vec::new();
    while cuts.len() < m - 1 {
        let cut = rng.gen_range(0usize..n - 1);
        if !cuts.contains(&cut) {
            cuts.push(cut);
        }
    }
    cuts.sort_unstable();
    let partition = IntervalPartition::from_cut_points(&cuts, n).expect("valid cuts");

    let k = platform.max_replication();
    let mut sets: Vec<Vec<usize>> = vec![Vec::new(); m];
    for processor in 0..p {
        let slot = processor % m;
        if sets[slot].len() < k {
            sets[slot].push(processor);
        }
    }
    Mapping::from_partition(&partition, sets, chain, platform)
        .expect("round-robin assignment is structurally valid")
}

/// A random period bound that keeps a healthy mix of feasible and
/// infeasible instances: between the largest single-task time (barely
/// feasible) and the whole chain on one processor (always feasible).
fn random_period_bound(rng: &mut ChaCha8Rng, chain: &TaskChain, platform: &Platform) -> f64 {
    let speed = platform.speed(0);
    let floor = chain.max_task_work() / speed;
    let ceiling = chain.total_work() / speed;
    rng.gen_range(0.8 * floor..1.2 * ceiling)
}

/// The chunked DP kernel and the scalar reference sweep agree — same
/// feasibility verdict, reliabilities within `1e-12`, identical reconstructed
/// mappings — on seeded instances of Algorithm 1 (no bound) and Algorithm 2
/// (random period bound).
#[test]
fn chunked_kernel_matches_scalar_reference() {
    for_random_cases("chunked_kernel_matches_scalar_reference", |rng| {
        let chain = random_chain(rng);
        let platform = random_homogeneous_platform(rng);
        let oracle = IntervalOracle::new(&chain, &platform);
        let bounds = [
            None,
            Some(random_period_bound(rng, &chain, &platform)),
            Some(random_period_bound(rng, &chain, &platform)),
        ];
        for bound in bounds {
            // A fresh scratch per run on both sides.
            let chunked = SolveCtx::new(&chain, &platform, &oracle, &mut DpScratch::new())
                .reliability_dp(bound)
                .ok();
            let scalar = reference::reliability_dp(
                &SolveCtx::new(&chain, &platform, &oracle, &mut DpScratch::new()),
                bound,
            );
            match (chunked, scalar) {
                (Some(a), Some(b)) => {
                    assert!(
                        (a.reliability - b.reliability).abs()
                            <= 1e-12 * a.reliability.abs().max(b.reliability.abs()),
                        "kernel reliabilities diverged: chunked {} vs scalar {} (bound {bound:?})",
                        a.reliability,
                        b.reliability
                    );
                    assert_eq!(
                        a.mapping, b.mapping,
                        "kernels reconstructed different mappings (bound {bound:?})"
                    );
                }
                (None, None) => {}
                (a, b) => panic!(
                    "kernel feasibility mismatch (bound {bound:?}): chunked={} scalar={}",
                    a.is_some(),
                    b.is_some()
                ),
            }
        }
    });
}

/// Streaming candidates into a [`StreamingFront`] — in any order, with the
/// oracle re-certification — yields **exactly** the front a batch rebuild
/// over the same candidates produces.
#[test]
fn streaming_front_equals_batch_rebuilt_front() {
    for_random_cases("streaming_front_equals_batch_rebuilt_front", |rng| {
        let chain = random_chain(rng);
        let platform = random_homogeneous_platform(rng);
        let oracle = IntervalOracle::new(&chain, &platform);

        let candidates: Vec<CandidateMapping> = (0..rng.gen_range(3usize..=12))
            .map(|_| {
                let mapping = random_mapping(rng, &chain, &platform);
                CandidateMapping::evaluate("stream-test", &oracle, mapping)
            })
            .collect();

        // Stream in reverse order (a schedule the batch rebuild never uses).
        let streaming = StreamingFront::new();
        for candidate in candidates.iter().rev().cloned() {
            streaming.offer(&oracle, candidate);
        }
        let streamed = streaming.into_front();
        let batch = ParetoFront::from_candidates(candidates);

        let key = |front: &ParetoFront| -> Vec<(f64, f64, f64, u64)> {
            front
                .points()
                .iter()
                .map(|p| {
                    (
                        p.evaluation.reliability,
                        p.evaluation.worst_case_period,
                        p.evaluation.worst_case_latency,
                        p.fingerprint(),
                    )
                })
                .collect()
        };
        assert_eq!(
            key(&streamed),
            key(&batch),
            "streaming front diverged from the batch-rebuilt front"
        );
    });
}
