//! Converse of Algorithm 2: minimize the period under a reliability bound, on
//! fully homogeneous platforms.
//!
//! The paper observes (Section 5.2) that this problem is also polynomial: it
//! suffices to binary-search the period and repeatedly run Algorithm 2. The
//! worst-case period of any mapping is one of finitely many candidate values
//! (an interval computation time `W(i..j)/s` or a communication time
//! `o_i / b`), so the search is performed over that sorted candidate set and
//! returns a certified optimum.
//!
//! At batch scale, [`minimize_period_batch`] runs **many instances' binary
//! searches lane-parallel**: each round gathers every unconverged lane's
//! next probe period and dispatches them as one SoA mega-kernel batch
//! ([`crate::batch_kernel`]) with per-lane period bounds — the probe DPs of
//! up to [`crate::LANES`](crate::algo1::LANES) searches run in lockstep
//! instead of serially. Converged lanes are masked simply by not being
//! repacked into the next round. Because the batch kernel is bit-identical
//! to the per-instance chunked DP, every lane's probe sequence, certified
//! period and mapping are exactly those of the scalar search.

use std::collections::HashMap;

use rpo_model::{IntervalOracle, Mapping, Platform, TaskChain};
use serde::{Deserialize, Serialize};

use crate::algo1::OptimalMapping;
use crate::batch_kernel::{solve_batch, BatchLane, BatchScratch};
use crate::{AlgoError, Result, SolveCtx};

/// Result of the period minimization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeriodOptimal {
    /// The minimal achievable worst-case period under the reliability bound.
    pub period: f64,
    /// A mapping achieving it.
    pub mapping: Mapping,
    /// The reliability of that mapping (≥ the requested bound).
    pub reliability: f64,
}

/// Relative tolerance under which two candidate periods are considered the
/// same value (an absolute tolerance would mis-merge distinct candidates on
/// instances whose periods are themselves tiny).
const CANDIDATE_REL_TOL: f64 = 1e-12;

/// Every value the worst-case period of a mapping can take: computation times
/// of all intervals and all boundary communication times, read from the
/// oracle's prefix sums.
///
/// Candidates strictly below the largest single-task computation time are
/// pruned: every task belongs to some interval, so the interval holding the
/// biggest task forces `period ≥ max_i w_i / s` on every mapping — probing
/// below that can never be feasible.
fn candidate_periods(oracle: &IntervalOracle, speed: f64) -> Vec<f64> {
    let n = oracle.len();
    let min_achievable = (0..n)
        .map(|i| oracle.work(i, i) / speed)
        .fold(0.0, f64::max);
    let mut candidates = Vec::with_capacity(n * (n + 1) / 2 + n);
    for first in 0..n {
        for last in first..n {
            candidates.push(oracle.work(first, last) / speed);
        }
    }
    for i in 0..n.saturating_sub(1) {
        candidates.push(oracle.output_comm_time(i));
    }
    candidates.retain(|&c| c >= min_achievable * (1.0 - CANDIDATE_REL_TOL));
    candidates.sort_by(|a, b| a.partial_cmp(b).expect("finite candidate periods"));
    // Merged near-equal candidates keep the *largest* member as their
    // representative: probing the representative then admits every interval
    // whose true requirement sits an ulp above the smaller members (rounding
    // of the prefix sums makes mathematically equal works differ by ulps).
    candidates.dedup_by(|a, b| {
        if (*a - *b).abs() <= CANDIDATE_REL_TOL * a.abs().max(b.abs()) {
            *b = b.max(*a);
            true
        } else {
            false
        }
    });
    candidates
}

/// Minimizes the worst-case period of a mapping whose reliability is at least
/// `reliability_bound`, on a fully homogeneous platform. A shim over
/// [`SolveCtx::minimize_period`] with a fresh context.
///
/// # Errors
///
/// Same as [`SolveCtx::minimize_period`].
pub fn minimize_period_with_reliability_bound(
    chain: &TaskChain,
    platform: &Platform,
    reliability_bound: f64,
) -> Result<PeriodOptimal> {
    SolveCtx::fresh(chain, platform, |ctx| {
        ctx.minimize_period(reliability_bound)
    })
}

/// Rejects non-homogeneous platforms and reliability bounds outside `(0, 1]`.
fn check_period_inputs(oracle: &IntervalOracle, reliability_bound: f64) -> Result<()> {
    if !oracle.is_homogeneous() {
        return Err(AlgoError::HeterogeneousPlatform);
    }
    if !(reliability_bound.is_finite() && reliability_bound > 0.0 && reliability_bound <= 1.0) {
        return Err(AlgoError::InvalidBound("reliability bound"));
    }
    Ok(())
}

impl SolveCtx<'_> {
    /// Minimizes the worst-case period of a mapping whose reliability is at
    /// least `reliability_bound`, on a fully homogeneous platform.
    ///
    /// The whole binary search (one Algorithm 2 run per probe) shares the
    /// context's oracle and runs every probe against its one warm scratch:
    /// the DP arenas are allocated once and the previous probe's
    /// admissible-interval set (`in_ok` boundary flags and per-row
    /// work-prefix cuts) seeds the next probe's admissibility derivation.
    ///
    /// # Errors
    ///
    /// * [`AlgoError::HeterogeneousPlatform`] if the platform is not
    ///   homogeneous;
    /// * [`AlgoError::InvalidBound`] if the reliability bound is not in
    ///   `(0, 1]`;
    /// * [`AlgoError::NoFeasibleMapping`] if even the unconstrained optimum of
    ///   Algorithm 1 does not reach the reliability bound.
    pub fn minimize_period(&mut self, reliability_bound: f64) -> Result<PeriodOptimal> {
        check_period_inputs(self.oracle(), reliability_bound)?;
        let candidates = candidate_periods(self.oracle(), self.platform().speed(0));
        // Check feasibility at the largest candidate (equivalent to no bound).
        let largest = *candidates
            .last()
            .expect("a non-empty chain has candidate periods");
        let unconstrained = self.reliability_dp(Some(largest))?;
        if unconstrained.reliability < reliability_bound {
            return Err(AlgoError::NoFeasibleMapping);
        }

        // Binary search the smallest candidate period meeting the bound.
        let (mut lo, mut hi) = (0usize, candidates.len() - 1);
        let mut best = unconstrained;
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.probe_period(candidates[mid], reliability_bound) {
                Some(solution) => {
                    best = solution;
                    hi = mid;
                }
                None => lo = mid + 1,
            }
        }
        Ok(PeriodOptimal {
            period: candidates[hi],
            mapping: best.mapping,
            reliability: best.reliability,
        })
    }

    /// One probe of the period searches: Algorithm 2 at `period`, feasible
    /// when it finds a mapping meeting the reliability bound.
    fn probe_period(&mut self, period: f64, reliability_bound: f64) -> Option<OptimalMapping> {
        rpo_obs::counter!("period_opt.probes").inc();
        match self.reliability_dp(Some(period)) {
            Ok(solution) if solution.reliability >= reliability_bound => Some(solution),
            _ => None,
        }
    }
}

/// One lane of a batched period minimization: an instance (prebuilt oracle,
/// the chain and platform it came from) and its reliability bound.
#[derive(Debug, Clone, Copy)]
pub struct PeriodLane<'a> {
    /// The instance's prebuilt interval oracle.
    pub oracle: &'a IntervalOracle,
    /// The task chain the oracle was built from.
    pub chain: &'a TaskChain,
    /// The (homogeneous) platform the oracle was built from.
    pub platform: &'a Platform,
    /// The reliability bound the minimized period must respect.
    pub reliability_bound: f64,
}

/// The live binary-search state of one batched lane.
struct LaneSearch {
    /// The lane's sorted candidate-period ladder.
    candidates: Vec<f64>,
    lo: usize,
    hi: usize,
    /// Whether the initial largest-candidate feasibility probe has landed.
    primed: bool,
    /// Best feasible solution seen so far (the certified answer once the
    /// bracket closes).
    best: Option<OptimalMapping>,
}

impl LaneSearch {
    /// The candidate index the lane probes next: the ladder top until the
    /// lane is primed, then the binary-search midpoint.
    fn next_probe(&self) -> usize {
        if self.primed {
            (self.lo + self.hi) / 2
        } else {
            self.candidates.len() - 1
        }
    }
}

/// Lane-parallel period minimization: runs every lane's candidate-ladder
/// binary search (the exact search of [`SolveCtx::minimize_period`])
/// through the SoA
/// mega-kernel, one probe round at a time. Each round repacks the
/// unconverged lanes — grouped by the kernel's `(p, k_max)` near-shape, with
/// **per-lane probe periods** as the lanes' Algorithm 2 bounds — into
/// [`solve_batch`] calls through the shared `scratch`; a converged lane is
/// masked by simply not being repacked. Task counts may differ within a
/// group (the kernel pads shorter lanes), so a mixed-size stream still fills
/// wide rounds.
///
/// Returns each lane's result in input order. Because the batch kernel is
/// bit-identical to the per-instance chunked DP, every lane's probe
/// sequence, certified period, mapping and reliability are exactly those of
/// the scalar search — the workspace differential suite asserts it.
///
/// # Errors
///
/// Per lane, same as [`minimize_period_with_reliability_bound`].
pub fn minimize_period_batch(
    lanes: &[PeriodLane<'_>],
    scratch: &mut BatchScratch,
) -> Vec<Result<PeriodOptimal>> {
    let mut results: Vec<Option<Result<PeriodOptimal>>> = (0..lanes.len()).map(|_| None).collect();
    let mut searches: Vec<Option<LaneSearch>> = (0..lanes.len()).map(|_| None).collect();
    for (idx, lane) in lanes.iter().enumerate() {
        if let Err(error) = check_period_inputs(lane.oracle, lane.reliability_bound) {
            results[idx] = Some(Err(error));
            continue;
        }
        let candidates = candidate_periods(lane.oracle, lane.platform.speed(0));
        searches[idx] = Some(LaneSearch {
            lo: 0,
            hi: candidates.len() - 1,
            candidates,
            primed: false,
            best: None,
        });
    }

    loop {
        // Collect the unconverged lanes and group them by the kernel's
        // near-shape key; every group runs this round's probes in lockstep.
        let live: Vec<usize> = (0..lanes.len())
            .filter(|&idx| searches[idx].is_some())
            .collect();
        if live.is_empty() {
            break;
        }
        rpo_obs::counter!("period_opt.batch_probes").inc();
        rpo_obs::counter!("period_opt.probes").add(live.len() as u64);
        let mut groups: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
        for &idx in &live {
            let p = lanes[idx].oracle.num_processors();
            let k_max = lanes[idx].oracle.max_replication().min(p);
            groups.entry((p, k_max)).or_default().push(idx);
        }
        for group in groups.values() {
            let batch: Vec<BatchLane> = group
                .iter()
                .map(|&idx| {
                    let search = searches[idx].as_ref().expect("live lanes are searching");
                    BatchLane {
                        oracle: lanes[idx].oracle,
                        chain: lanes[idx].chain,
                        platform: lanes[idx].platform,
                        period_bound: Some(search.candidates[search.next_probe()]),
                    }
                })
                .collect();
            let solutions = solve_batch(&batch, scratch);
            for (&idx, solution) in group.iter().zip(solutions) {
                let resolved: Option<Result<PeriodOptimal>> = {
                    let search = searches[idx].as_mut().expect("live lanes are searching");
                    // Feasible = the probe DP found a mapping meeting the
                    // lane's reliability bound (the scalar search's test).
                    let feasible =
                        solution.filter(|s| s.reliability >= lanes[idx].reliability_bound);
                    if !search.primed {
                        search.primed = true;
                        match feasible {
                            // The largest candidate admits every interval:
                            // an infeasible lane can never meet its bound.
                            None => Some(Err(AlgoError::NoFeasibleMapping)),
                            Some(solution) => {
                                search.best = Some(solution);
                                search.finished()
                            }
                        }
                    } else {
                        let mid = (search.lo + search.hi) / 2;
                        match feasible {
                            Some(solution) => {
                                search.best = Some(solution);
                                search.hi = mid;
                            }
                            None => search.lo = mid + 1,
                        }
                        search.finished()
                    }
                };
                if let Some(result) = resolved {
                    results[idx] = Some(result);
                    searches[idx] = None;
                }
            }
        }
    }

    results
        .into_iter()
        .map(|result| result.expect("every lane resolves to a result"))
        .collect()
}

impl LaneSearch {
    /// The lane's certified result once its bracket has closed, `None`
    /// while the search is still live.
    fn finished(&mut self) -> Option<Result<PeriodOptimal>> {
        if self.lo < self.hi {
            return None;
        }
        let best = self
            .best
            .take()
            .expect("a closed bracket holds a feasible incumbent");
        Some(Ok(PeriodOptimal {
            period: self.candidates[self.hi],
            mapping: best.mapping,
            reliability: best.reliability,
        }))
    }
}

impl SolveCtx<'_> {
    /// Warm-started period re-minimization after a platform or workload
    /// delta: instead of binary-searching the full candidate ladder from
    /// cold, the search **brackets around the previous optimum**
    /// `prev_period` with an exponential gallop. Deltas usually move the
    /// optimum by only a few candidate positions, so the common case pays
    /// `O(log Δ)` Algorithm 2 probes (Δ = how far the optimum moved) instead
    /// of `O(log n²)` — and each probe additionally reuses the scratch's warm
    /// admissibility cuts, exactly like the cold search.
    ///
    /// Returns the **same certified optimum** as
    /// [`SolveCtx::minimize_period`]: feasibility is monotone in the period,
    /// both searches select the smallest feasible candidate, they differ only
    /// in which probes are evaluated along the way.
    ///
    /// # Errors
    ///
    /// Same as [`SolveCtx::minimize_period`].
    pub fn repair_minimize_period(
        &mut self,
        reliability_bound: f64,
        prev_period: f64,
    ) -> Result<PeriodOptimal> {
        check_period_inputs(self.oracle(), reliability_bound)?;
        let candidates = candidate_periods(self.oracle(), self.platform().speed(0));
        let len = candidates.len();
        let mut feasible = |period: f64| self.probe_period(period, reliability_bound);

        // Start at the candidate nearest the previous optimum (degenerate
        // `prev_period` just means a worse start, never a wrong answer).
        let start = if prev_period.is_finite() {
            candidates
                .partition_point(|&c| c < prev_period * (1.0 - CANDIDATE_REL_TOL))
                .min(len - 1)
        } else {
            len - 1
        };

        // Gallop up until a feasible candidate brackets the optimum from above.
        let mut hi = start;
        let mut lo_infeasible: Option<usize> = None;
        let mut solution = feasible(candidates[hi]);
        let mut step = 1;
        while solution.is_none() {
            if hi == len - 1 {
                return Err(AlgoError::NoFeasibleMapping);
            }
            lo_infeasible = Some(hi);
            hi = (hi + step).min(len - 1);
            step *= 2;
            solution = feasible(candidates[hi]);
        }
        // If the start itself was feasible, gallop down for an infeasible floor.
        if lo_infeasible.is_none() {
            let mut step = 1;
            while hi > 0 {
                let probe = hi.saturating_sub(step);
                match feasible(candidates[probe]) {
                    Some(better) => {
                        solution = Some(better);
                        hi = probe;
                        step *= 2;
                    }
                    None => {
                        lo_infeasible = Some(probe);
                        break;
                    }
                }
            }
        }
        // Close the bracket: invariant `hi` feasible, `lo` infeasible.
        if let Some(mut lo) = lo_infeasible {
            while lo + 1 < hi {
                let mid = (lo + hi) / 2;
                match feasible(candidates[mid]) {
                    Some(better) => {
                        solution = Some(better);
                        hi = mid;
                    }
                    None => lo = mid,
                }
            }
        }
        let best = solution.expect("bracket always holds a feasible candidate");
        Ok(PeriodOptimal {
            period: candidates[hi],
            mapping: best.mapping,
            reliability: best.reliability,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimize_reliability_with_period_bound;
    use rpo_model::{MappingEvaluation, PlatformBuilder};

    fn chain() -> TaskChain {
        TaskChain::from_pairs(&[(30.0, 2.0), (10.0, 8.0), (25.0, 1.0), (40.0, 3.0)]).unwrap()
    }

    fn platform(p: usize, k: usize) -> Platform {
        PlatformBuilder::new()
            .identical_processors(p, 1.0, 1e-3)
            .bandwidth(1.0)
            .link_failure_rate(1e-4)
            .max_replication(k)
            .build()
            .unwrap()
    }

    #[test]
    fn returned_mapping_respects_both_period_and_reliability() {
        let c = chain();
        let p = platform(6, 3);
        let bound = 0.9;
        let sol = minimize_period_with_reliability_bound(&c, &p, bound).unwrap();
        let eval = MappingEvaluation::evaluate(&c, &p, &sol.mapping);
        assert!(eval.reliability >= bound);
        assert!(eval.worst_case_period <= sol.period + 1e-12);
    }

    #[test]
    fn trivial_reliability_bound_gives_minimal_period() {
        let c = chain();
        let p = platform(6, 3);
        // Any mapping is acceptable reliability-wise: the optimum is the best
        // achievable period, which (with 6 processors and 4 tasks) is the
        // largest single task work = 40.
        let sol = minimize_period_with_reliability_bound(&c, &p, 1e-12).unwrap();
        assert!((sol.period - 40.0).abs() < 1e-12);
    }

    #[test]
    fn result_is_the_smallest_feasible_candidate() {
        let c = chain();
        let p = platform(6, 3);
        let bound = 0.95;
        let sol = minimize_period_with_reliability_bound(&c, &p, bound).unwrap();
        // Exhaustive check over a fine grid slightly below the optimum: no
        // strictly smaller period may reach the reliability bound.
        let probe = sol.period - 1e-6;
        let below = optimize_reliability_with_period_bound(&c, &p, probe);
        match below {
            Err(AlgoError::NoFeasibleMapping) => {}
            Ok(solution) => assert!(solution.reliability < bound),
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn infeasible_reliability_bound_is_reported() {
        let c = chain();
        // Single processor, no replication possible: reliability is bounded
        // away from 1, so a bound of 0.999999999 is unreachable.
        let p = platform(1, 1);
        let unconstrained = crate::optimize_reliability_homogeneous(&c, &p).unwrap();
        let impossible = (unconstrained.reliability + 1.0) / 2.0;
        assert_eq!(
            minimize_period_with_reliability_bound(&c, &p, impossible).unwrap_err(),
            AlgoError::NoFeasibleMapping
        );
    }

    #[test]
    fn tighter_reliability_bounds_never_decrease_the_period() {
        let c = chain();
        let p = platform(6, 3);
        let relaxed = minimize_period_with_reliability_bound(&c, &p, 0.5).unwrap();
        let max_rel = crate::optimize_reliability_homogeneous(&c, &p)
            .unwrap()
            .reliability;
        let tight = minimize_period_with_reliability_bound(&c, &p, max_rel * 0.999999).unwrap();
        assert!(tight.period >= relaxed.period - 1e-12);
    }

    #[test]
    fn invalid_bounds_are_rejected() {
        let c = chain();
        let p = platform(4, 2);
        for bad in [0.0, -1.0, 1.5, f64::NAN] {
            assert_eq!(
                minimize_period_with_reliability_bound(&c, &p, bad).unwrap_err(),
                AlgoError::InvalidBound("reliability bound")
            );
        }
    }

    #[test]
    fn warm_started_binary_search_matches_a_fresh_linear_scan() {
        let c = chain();
        let p = platform(6, 3);
        let oracle = IntervalOracle::new(&c, &p);
        let mut scratch = crate::DpScratch::new();
        let mut ctx = SolveCtx::new(&c, &p, &oracle, &mut scratch);
        for bound in [0.5, 0.9, 0.95, 0.99] {
            let fast = ctx.minimize_period(bound).unwrap();
            // Reference: probe every candidate in ascending order with a
            // fresh (cold-scratch) Algorithm 2 run and take the first hit.
            let reference = candidate_periods(&oracle, p.speed(0))
                .into_iter()
                .find_map(
                    |period| match optimize_reliability_with_period_bound(&c, &p, period) {
                        Ok(sol) if sol.reliability >= bound => Some((period, sol.reliability)),
                        _ => None,
                    },
                )
                .expect("the relaxed bounds are feasible");
            assert_eq!(fast.period, reference.0, "bound {bound}");
            assert!((fast.reliability - reference.1).abs() < 1e-12);
        }
    }

    #[test]
    fn batched_search_matches_the_scalar_search_lane_for_lane() {
        // Four lanes of *different* chain lengths over the same platform
        // shape, with a spread of reliability bounds: the lane-parallel
        // search must certify the same period, mapping and reliability as
        // the scalar binary search on every lane.
        let chains = [
            chain(),
            TaskChain::from_pairs(&[(12.0, 1.0), (48.0, 4.0), (19.0, 6.0)]).unwrap(),
            TaskChain::from_pairs(&[
                (5.0, 9.0),
                (5.0, 9.0),
                (80.0, 0.5),
                (11.0, 7.0),
                (33.0, 2.5),
            ])
            .unwrap(),
            TaskChain::from_pairs(&[(60.0, 2.0), (7.0, 3.0), (22.0, 1.5), (18.0, 0.5)]).unwrap(),
        ];
        let p = platform(6, 3);
        let oracles: Vec<IntervalOracle> =
            chains.iter().map(|c| IntervalOracle::new(c, &p)).collect();
        let bounds = [0.5, 0.9, 0.95, 0.99];
        let lanes: Vec<PeriodLane> = (0..chains.len())
            .map(|idx| PeriodLane {
                oracle: &oracles[idx],
                chain: &chains[idx],
                platform: &p,
                reliability_bound: bounds[idx],
            })
            .collect();
        let mut scratch = BatchScratch::new();
        let batched = minimize_period_batch(&lanes, &mut scratch);
        for (idx, lane) in lanes.iter().enumerate() {
            let scalar = minimize_period_with_reliability_bound(
                lane.chain,
                lane.platform,
                lane.reliability_bound,
            )
            .unwrap();
            let batched = batched[idx].as_ref().unwrap();
            assert_eq!(batched.period, scalar.period, "lane {idx}");
            assert_eq!(batched.reliability, scalar.reliability, "lane {idx}");
            assert_eq!(batched.mapping, scalar.mapping, "lane {idx}");
        }
    }

    #[test]
    fn batched_search_reports_per_lane_errors_in_input_order() {
        let c = chain();
        let hom = platform(6, 3);
        let het = PlatformBuilder::new()
            .processor(1.0, 1e-3)
            .processor(2.0, 1e-4)
            .bandwidth(1.0)
            .link_failure_rate(1e-4)
            .max_replication(2)
            .build()
            .unwrap();
        let single = platform(1, 1);
        let unconstrained = crate::optimize_reliability_homogeneous(&c, &single)
            .unwrap()
            .reliability;
        let oracle_hom = IntervalOracle::new(&c, &hom);
        let oracle_het = IntervalOracle::new(&c, &het);
        let oracle_single = IntervalOracle::new(&c, &single);
        let lanes = [
            // Fine lane, heterogeneous lane, invalid bound, unreachable bound.
            PeriodLane {
                oracle: &oracle_hom,
                chain: &c,
                platform: &hom,
                reliability_bound: 0.9,
            },
            PeriodLane {
                oracle: &oracle_het,
                chain: &c,
                platform: &het,
                reliability_bound: 0.9,
            },
            PeriodLane {
                oracle: &oracle_hom,
                chain: &c,
                platform: &hom,
                reliability_bound: 1.5,
            },
            PeriodLane {
                oracle: &oracle_single,
                chain: &c,
                platform: &single,
                reliability_bound: (unconstrained + 1.0) / 2.0,
            },
        ];
        let mut scratch = BatchScratch::new();
        let results = minimize_period_batch(&lanes, &mut scratch);
        assert!(results[0].is_ok());
        assert_eq!(
            results[1].as_ref().unwrap_err(),
            &AlgoError::HeterogeneousPlatform
        );
        assert_eq!(
            results[2].as_ref().unwrap_err(),
            &AlgoError::InvalidBound("reliability bound")
        );
        assert_eq!(
            results[3].as_ref().unwrap_err(),
            &AlgoError::NoFeasibleMapping
        );
    }

    #[test]
    fn candidates_below_the_single_task_floor_are_pruned() {
        let c = chain(); // largest task work = 40, unit speed
        let p = platform(4, 2);
        let oracle = IntervalOracle::new(&c, &p);
        let candidates = candidate_periods(&oracle, 1.0);
        assert!(!candidates.is_empty());
        for &candidate in &candidates {
            assert!(
                candidate >= 40.0 * (1.0 - CANDIDATE_REL_TOL),
                "candidate {candidate} is below the single-task floor"
            );
        }
    }

    #[test]
    fn tiny_periods_are_not_mis_merged_by_the_dedup() {
        // Distinct single-task computation times of order 1e-11 sit within
        // an *absolute* 1e-12 of each other; a relative tolerance keeps them
        // apart and the minimizer still resolves the true optimum.
        let scale = 1e-12;
        let c = TaskChain::from_pairs(&[
            (30.0 * scale, 2.0 * scale),
            (10.0 * scale, 8.0 * scale),
            (25.0 * scale, 1.0 * scale),
            (40.0 * scale, 3.0 * scale),
        ])
        .unwrap();
        let p = platform(6, 3);
        let oracle = IntervalOracle::new(&c, &p);
        let candidates = candidate_periods(&oracle, 1.0);
        // Every distinct interval work ≥ the 40-unit floor must survive
        // (40 and 65 each occur twice and must merge to one candidate).
        let expected = [40.0, 65.0, 75.0, 105.0];
        assert_eq!(candidates.len(), expected.len());
        for (candidate, want) in candidates.iter().zip(expected) {
            assert!(
                (candidate - want * scale).abs() < 1e-9 * scale,
                "candidate {candidate} vs expected {}",
                want * scale
            );
        }
        // And the end-to-end minimizer matches the unscaled instance.
        let tiny = minimize_period_with_reliability_bound(&c, &p, 1e-12).unwrap();
        assert!((tiny.period - 40.0 * scale).abs() < 1e-9 * scale);
    }
}
