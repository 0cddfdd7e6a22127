//! `algo_het_lat`: latency-aware exact reliability optimization on
//! heterogeneous platforms — the paper's full tri-criteria problem
//! (reliability × period × latency, Eqs. 1–9) at class level.
//!
//! The latency-constrained heterogeneous problem is what makes the paper's
//! general case NP-complete, but it inherits all the structure `algo_het`
//! exploits — and one more piece: the worst-case latency (Eq. 7) is
//! **additive over intervals**, with each interval contributing
//! `W(j, i) / s_slowest + comm_out(i)`. Those terms live on the
//! boundary-indexed grid the [`IntervalOracle`] precomputes (the per-class
//! compute prefixes of [`rpo_model::ClassView::compute_prefix`] crossed with
//! the per-boundary communication times), so the latency-so-far of any
//! partial mapping is a sum of grid values — a *finite* set per boundary.
//!
//! [`algo_het_lat`] runs an exact dynamic program over
//!
//! `F(i, b) = the non-dominated (latency, reliability) labels of partial
//! mappings covering tasks `1 … i` with per-class remaining budgets `b``
//!
//! — the `(boundary, budgets, latency-so-far)` state space, stored sparsely:
//! each `(i, b)` state keeps only its Pareto-minimal labels (smaller latency
//! or larger reliability), because both criteria compose monotonically along
//! a common suffix (latency adds the same terms, reliability multiplies by
//! the same factors ≤ 1), so a dominated label can never overtake. Labels
//! whose latency already exceeds the bound are cut immediately (latency only
//! grows), and labels whose reliability falls below the greedy incumbent are
//! cut exactly as in `algo_het`. Latency is accumulated left-to-right from
//! [`IntervalOracle::class_latency_term`]s — operation for operation the sum
//! [`IntervalOracle::evaluate`] computes — so the feasibility decision and
//! the final re-scored `worst_case_latency` agree **bit-for-bit**, and the
//! returned reliability is the exact Eq. 9 value of the lowered mapping.
//!
//! # Paying only for labels that can still finish
//!
//! * **Suffix latency floor.** Once per solve, a backward O(n²) pass
//!   computes `floor[i]`, the least worst-case latency of covering tasks
//!   `i … n−1` with every interval at the fastest class's term, over the
//!   intervals that pass the DP's own period checks. Every pattern's term
//!   is at least the fastest class's term on the same interval, so a label
//!   at boundary `i` whose `lat + floor[i]` exceeds the bound has no
//!   feasible completion and is cut (counted by
//!   `het_lat.labels_cut.floor`). The comparison is against the bound
//!   widened by a relative margin of `4 (n + 2) ε`, which covers the
//!   rounding of the `n` additions on either side: a label whose completion
//!   lands exactly on the bound is never cut.
//! * **Live-state sweep.** When boundary `i` is complete, its non-empty
//!   budget states are recorded in ascending order together with its least
//!   label latency. A later row skips a start with no live state, or whose
//!   least latency plus the fastest term already cannot finish; skips a
//!   pattern on the same test with its own term; and visits only the live
//!   states that are valid predecessors of each pattern (a bit-set test).
//!
//! Neither changes an answer or a front point. A cut label can neither
//! finish nor evict a label that could: eviction needs a latency no larger
//! than the evicted label's, and at one boundary the cut is upward closed in
//! latency. The insertions that remain happen in the same order
//! `(start descending, pattern, state ascending, label ascending)` as a
//! sweep without the cuts, and that order decides which of two equal labels
//! survives, so ties return the same mapping. Which labels survive the
//! reliability cut is unchanged too, since that cut depends on the label
//! alone. The label cap below counts only the labels that survive the
//! cuts, so an instance can complete exactly where an uncut sweep would
//! overflow into the Lagrangian fallback; its answer can only improve.
//!
//! When an instance's label population exceeds [`MAX_LAT_LABELS`] (the
//! latency analogue of `algo_het`'s budget-state cap), the exact DP aborts
//! and a **Lagrangian / parametric sweep** takes over: maximize the penalized
//! product `Π rel_k · e^{−μ·lat_k}` — the same scalar class DP with each
//! `(interval, pattern)` factor damped by `e^{−μ·latency term}` — while
//! bisecting the penalty `μ ≥ 0` and keeping the best *feasible* incumbent.
//! The optimal latency of the penalized argmax is non-increasing in `μ`, so
//! bisection is sound. The sweep is **exact** when the latency-unconstrained
//! optimum (`μ = 0`) is already feasible, or when the constrained optimum
//! lies on the convex hull of the instance's (latency, log-reliability)
//! Pareto curve; between hull points it is a heuristic — which is why the
//! greedy pipeline's feasible incumbent is still compared at the end, and
//! the result never trails [`SolveCtx::greedy_het_lat`].

use rpo_model::{assignment_from_segments, IntervalOracle, Mapping, Platform, TaskChain};
use serde::{Deserialize, Serialize};

use crate::algo1::OptimalMapping;
use crate::algo_het::{
    budget_states, enumerate_patterns, greedy_het_bounded, het_dp_applicable, Pattern, Segments,
    MAX_EXHAUSTIVE_HET_TASKS,
};
use crate::{validate_period_bound, AlgoError, Result, SolveCtx};

/// Largest total number of live `(latency, reliability)` labels the exact
/// latency DP may hold across all `(boundary, budgets)` states; beyond it
/// the DP aborts and [`SolveCtx::algo_het_lat`] falls back to the Lagrangian
/// sweep.
pub const MAX_LAT_LABELS: usize = 200_000;

/// Bisection steps of the Lagrangian penalty sweep (after the initial
/// doubling search for a feasible penalty).
const LAGRANGIAN_STEPS: usize = 40;

/// Which strategy produced an [`algo_het_lat`] solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HetLatMethod {
    /// The exact label DP over `(boundary, budgets, latency-so-far)` states.
    LatDp,
    /// The Lagrangian / parametric penalty sweep (the fallback when the
    /// label population exceeds [`MAX_LAT_LABELS`]). Exact when the `μ = 0`
    /// solve is already latency-feasible; heuristic otherwise.
    Lagrangian,
    /// The latency-aware greedy pipeline — the fallback for large class
    /// counts, or when its recomputed reliability comes out strictly higher
    /// (possible only against the Lagrangian sweep, or via floating-point
    /// ulps against the exact DP).
    Greedy,
}

/// One point of the latency–reliability Pareto front surfaced by
/// [`algo_het_lat`]'s label DP: a lowered mapping with its exact Eq. 9
/// reliability and Eq. 7 worst-case latency.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HetLatFrontPoint {
    /// The lowered mapping of this front point.
    pub mapping: Mapping,
    /// Its reliability, recomputed exactly through the oracle.
    pub reliability: f64,
    /// Its worst-case latency, recomputed exactly through the oracle.
    pub worst_case_latency: f64,
}

/// An [`algo_het_lat`] solution: the mapping, its exact Eq. 9 reliability
/// and Eq. 7 worst-case latency, and the strategy that produced it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HetLatSolution {
    /// The chosen mapping.
    pub mapping: Mapping,
    /// Its reliability, recomputed exactly through the oracle.
    pub reliability: f64,
    /// Its worst-case latency, recomputed exactly through the oracle
    /// (always ≤ the requested bound).
    pub worst_case_latency: f64,
    /// Which strategy won.
    pub method: HetLatMethod,
    /// Whether the exact label DP ran to completion (its label population
    /// stayed within [`MAX_LAT_LABELS`]), so `reliability` is the proven
    /// optimum — also when the greedy's mapping won by an ulp.
    #[serde(default)]
    pub label_dp_completed: bool,
    /// Exact reliability of the latency-aware greedy pipeline's own best
    /// mapping, when it found one (`algo_het_lat` always runs the greedy as
    /// fallback and pruner, so sweeps comparing DP vs greedy read both from
    /// one solve).
    pub greedy_reliability: Option<f64>,
    /// The merged latency–reliability Pareto front of the label DP's final
    /// boundary: every non-dominated `(latency, reliability)` trade-off the
    /// DP discovered while optimizing, each lowered to a concrete mapping —
    /// not just the max-reliability point the solver returns. Singleton
    /// (the chosen mapping) on the Lagrangian and greedy paths, which
    /// optimize a single point. Always contains the chosen mapping.
    #[serde(default)]
    pub front: Vec<HetLatFrontPoint>,
}

/// Counts which strategy produced each returned solution, making the
/// once-silent Lagrangian/greedy fallbacks observable.
fn note_path(method: HetLatMethod) {
    match method {
        HetLatMethod::LatDp => rpo_obs::counter!("het_lat.path.label_dp").inc(),
        HetLatMethod::Lagrangian => rpo_obs::counter!("het_lat.path.lagrangian").inc(),
        HetLatMethod::Greedy => rpo_obs::counter!("het_lat.path.greedy").inc(),
    }
}

fn validate_latency_bound(latency_bound: f64) -> Result<f64> {
    if latency_bound.is_finite() && latency_bound > 0.0 {
        Ok(latency_bound)
    } else {
        Err(AlgoError::InvalidBound("latency bound"))
    }
}

/// `algo_het_lat`: the most reliable mapping of `chain` onto the (possibly
/// heterogeneous) `platform` whose worst-case latency fits `latency_bound`,
/// under an optional worst-case period bound. A shim over
/// [`SolveCtx::algo_het_lat`] with a fresh context.
///
/// # Errors
///
/// Same as [`SolveCtx::algo_het_lat`].
pub fn algo_het_lat(
    chain: &TaskChain,
    platform: &Platform,
    period_bound: Option<f64>,
    latency_bound: f64,
) -> Result<HetLatSolution> {
    SolveCtx::fresh(chain, platform, |ctx| {
        ctx.algo_het_lat(period_bound, latency_bound)
    })
}

impl SolveCtx<'_> {
    /// `algo_het_lat`: the most reliable mapping of the (possibly
    /// heterogeneous) instance whose worst-case latency fits `latency_bound`,
    /// under an optional worst-case period bound.
    ///
    /// Exact (label DP) whenever [`het_dp_applicable`] holds and the latency
    /// label population stays within [`MAX_LAT_LABELS`]; the Lagrangian sweep
    /// on label overflow within that regime; and the latency-aware greedy
    /// pipeline alone when the class DP is not applicable at all (too many
    /// classes / budget states). In all cases the result is never less
    /// reliable than [`SolveCtx::greedy_het_lat`]'s on the same instance, and
    /// the returned mapping never violates either bound.
    ///
    /// The label DP's per-state label vectors and per-class gather buffers
    /// live in the context scratch's pooled arenas, so a batch driver that
    /// reuses one scratch across latency-bounded solves stops churning
    /// allocations (reuse is visible through the
    /// `het_lat.label_pool.{hits,misses}` counters). Its replica patterns
    /// come from the scratch's table keyed by class shape, rebuilt only
    /// when the class member counts or the replication bound change
    /// (`het_lat.pattern_table.{hits,misses}`).
    ///
    /// # Errors
    ///
    /// * [`AlgoError::InvalidBound`] if the latency bound is NaN, infinite or
    ///   not positive, or the period bound is not a positive finite number;
    /// * [`AlgoError::NoFeasibleMapping`] if no mapping fits the bounds (e.g.
    ///   a latency bound below the single-interval floor
    ///   [`IntervalOracle::latency_floor`]).
    pub fn algo_het_lat(
        &mut self,
        period_bound: Option<f64>,
        latency_bound: f64,
    ) -> Result<HetLatSolution> {
        let (oracle, chain, platform) = (self.oracle(), self.chain(), self.platform());
        validate_period_bound(period_bound)?;
        validate_latency_bound(latency_bound)?;
        let _span = rpo_obs::span!("het_lat.solve", tasks = oracle.len());

        // The latency-aware greedy pipeline first: fallback when the DP cannot
        // run, upper-bound pruner when it can.
        let greedy = self.greedy_het_lat(period_bound, latency_bound);
        let greedy_reliability = greedy.as_ref().ok().map(|g| g.reliability);
        if !het_dp_applicable(oracle) {
            return greedy.map(|solution| {
                let worst_case_latency = oracle.evaluate(&solution.mapping).worst_case_latency;
                note_path(HetLatMethod::Greedy);
                HetLatSolution {
                    front: vec![HetLatFrontPoint {
                        mapping: solution.mapping.clone(),
                        reliability: solution.reliability,
                        worst_case_latency,
                    }],
                    mapping: solution.mapping,
                    reliability: solution.reliability,
                    worst_case_latency,
                    method: HetLatMethod::Greedy,
                    label_dp_completed: false,
                    greedy_reliability,
                }
            });
        }

        let incumbent = greedy_reliability.unwrap_or(0.0);
        let k_max = oracle.max_replication().min(oracle.num_processors());
        let scratch = &mut *self.scratch;
        let patterns = scratch.patterns.for_view(oracle.class_view(), k_max);
        let (dp, method, label_dp_completed) = match label_dp(
            oracle,
            chain,
            platform,
            period_bound,
            latency_bound,
            incumbent,
            patterns,
            &mut scratch.het_lat,
        ) {
            LabelDpOutcome::Solved(solution) => (solution, HetLatMethod::LatDp, true),
            LabelDpOutcome::Overflow => (
                lagrangian_sweep(
                    oracle,
                    chain,
                    platform,
                    period_bound,
                    latency_bound,
                    patterns,
                )
                .map(|solution| (solution, Vec::new())),
                HetLatMethod::Lagrangian,
                false,
            ),
        };

        // Both reliabilities are recomputed exactly, so picking the larger one
        // guarantees the "never below greedy" invariant bit-for-bit. The chosen
        // mapping always joins the surfaced front (the label DP's merged front
        // when it ran, a singleton otherwise).
        let finish = |mapping: Mapping,
                      reliability: f64,
                      method: HetLatMethod,
                      mut front: Vec<HetLatFrontPoint>| {
            let evaluation = oracle.evaluate(&mapping);
            debug_assert!(evaluation.worst_case_latency <= latency_bound);
            note_path(method);
            if !front.iter().any(|point| point.mapping == mapping) {
                front.push(HetLatFrontPoint {
                    mapping: mapping.clone(),
                    reliability,
                    worst_case_latency: evaluation.worst_case_latency,
                });
            }
            HetLatSolution {
                mapping,
                reliability,
                worst_case_latency: evaluation.worst_case_latency,
                method,
                label_dp_completed,
                greedy_reliability,
                front,
            }
        };
        match (dp, greedy) {
            (Some((dp, front)), Ok(greedy)) if greedy.reliability > dp.reliability => Ok(finish(
                greedy.mapping,
                greedy.reliability,
                HetLatMethod::Greedy,
                front,
            )),
            (Some((dp, front)), _) => Ok(finish(dp.mapping, dp.reliability, method, front)),
            (None, Ok(greedy)) => Ok(finish(
                greedy.mapping,
                greedy.reliability,
                HetLatMethod::Greedy,
                Vec::new(),
            )),
            (None, Err(e)) => Err(e),
        }
    }

    /// The Section 7.2 greedy pipeline under **both** real-time bounds:
    /// Heur-L and Heur-P partitions for every interval count, each allocated
    /// with `alloc_het`, keeping the most reliable mapping whose worst-case
    /// period *and* latency fit the bounds — the latency-aware analogue of
    /// [`SolveCtx::greedy_het`], and the comparison baseline of the
    /// `BENCH_het_lat.json` benchmark and the `--het-lat` experiment sweep.
    ///
    /// # Errors
    ///
    /// * [`AlgoError::InvalidBound`] if a bound is invalid;
    /// * [`AlgoError::NoFeasibleMapping`] if no candidate fits the bounds.
    pub fn greedy_het_lat(
        &self,
        period_bound: Option<f64>,
        latency_bound: f64,
    ) -> Result<OptimalMapping> {
        let bound = validate_period_bound(period_bound)?;
        let latency_bound = validate_latency_bound(latency_bound)?;
        greedy_het_bounded(self, bound, latency_bound)
    }
}

/// One `(latency, reliability)` label of a `(boundary, budgets)` state, with
/// its traceback: which interval start `j`, pattern, and predecessor label
/// produced it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Label {
    lat: f64,
    rel: f64,
    j: u32,
    pattern: u32,
    pred_label: u32,
}

/// Pooled arenas of the latency label DP, owned by [`DpScratch`](crate::DpScratch) so batch
/// callers reuse the per-state label vectors and per-class gather buffers
/// across latency-bounded solves instead of reallocating them per instance.
/// Every buffer is cleared (capacity kept) before use, so no label or block
/// value ever leaks across instances.
#[derive(Debug, Default)]
pub(crate) struct HetLatArenas {
    /// Per-`(boundary, budgets)` Pareto label lists.
    states: Vec<Vec<Label>>,
    /// Per-boundary live budget states (non-empty label lists), ascending.
    live: Vec<Vec<u32>>,
    /// Per-boundary least label latency (`+∞` with no live state).
    least_lat: Vec<f64>,
    /// Per-boundary suffix latency floor (see [`suffix_floor`]).
    floor: Vec<f64>,
    /// Per-class block-row gather buffers.
    rows: Vec<Vec<f64>>,
    /// Per-class failure powers `(1 − block)^q`.
    powers: Vec<Vec<f64>>,
}

impl HetLatArenas {
    /// Clears every instance-specific datum while keeping all allocated
    /// capacity — both the outer arenas and each inner vector.
    pub(crate) fn reset(&mut self) {
        for labels in &mut self.states {
            labels.clear();
        }
        for live in &mut self.live {
            live.clear();
        }
        self.least_lat.clear();
        self.floor.clear();
        for row in &mut self.rows {
            row.clear();
        }
        for pow in &mut self.powers {
            pow.clear();
        }
    }

    /// Prepares the arenas for one label-DP run over `n` tasks, `num_states`
    /// budget states and `kc` classes with replication bound `k_max`,
    /// recording pool reuse: a hit when the state arena's capacity already
    /// covers the run, a miss when it has to grow.
    fn prepare(&mut self, n: usize, num_states: usize, kc: usize, k_max: usize) {
        let len = (n + 1) * num_states;
        if self.states.capacity() >= len {
            rpo_obs::counter!("het_lat.label_pool.hits").inc();
        } else {
            rpo_obs::counter!("het_lat.label_pool.misses").inc();
        }
        self.reset();
        self.states.truncate(len);
        self.states.resize_with(len, Vec::new);
        self.live.truncate(n + 1);
        self.live.resize_with(n + 1, Vec::new);
        self.least_lat.resize(n + 1, f64::INFINITY);
        self.rows.truncate(kc);
        self.rows.resize_with(kc, Vec::new);
        self.powers.truncate(kc);
        self.powers.resize_with(kc, Vec::new);
        for pow in &mut self.powers {
            pow.resize(k_max + 1, 1.0);
        }
    }
}

/// What the exact label DP produced.
enum LabelDpOutcome {
    /// The DP ran to completion (`None`: no feasible mapping). A solution
    /// carries the merged final-boundary Pareto front alongside the
    /// max-reliability optimum.
    Solved(Option<(OptimalMapping, Vec<HetLatFrontPoint>)>),
    /// The label population exceeded [`MAX_LAT_LABELS`]; the caller falls
    /// back to the Lagrangian sweep.
    Overflow,
}

/// Inserts a label into a state's Pareto-minimal list (strictly ascending
/// latency **and** reliability), returning the change in live label count,
/// or `None` when the new label is dominated (the list is unchanged then).
fn insert_label(labels: &mut Vec<Label>, label: Label) -> Option<isize> {
    // First index with lat ≥ label.lat: labels[..lo] have lat < label.lat.
    let lo = labels.partition_point(|l| l.lat < label.lat);
    // Dominated by a strictly-faster label, or by an equal-latency label
    // with at least the same reliability?
    if lo > 0 && labels[lo - 1].rel >= label.rel {
        return None;
    }
    if lo < labels.len() && labels[lo].lat == label.lat && labels[lo].rel >= label.rel {
        return None;
    }
    // Evict labels with larger-or-equal latency and smaller-or-equal
    // reliability (they are dominated by the new label).
    let mut end = lo;
    while end < labels.len() && labels[end].rel <= label.rel {
        end += 1;
    }
    let removed = end - lo;
    labels.splice(lo..end, std::iter::once(label));
    Some(1 - removed as isize)
}

/// Relative slack of the suffix-floor cut for an `n`-task chain. A label's
/// final latency and the floor are each left-to-right or right-to-left sums
/// of at most `n + 1` rounded additions of non-negative terms, so each is
/// within a relative `(n + 1)·2⁻⁵³` of its exact value; `4 (n + 2) ε`
/// (ε = 2⁻⁵²) covers both with room to spare. A label is cut only when even
/// this margin cannot save it, so a completion that lands exactly on the
/// bound is never cut.
fn floor_margin(n: usize) -> f64 {
    4.0 * (n as f64 + 2.0) * f64::EPSILON
}

/// The suffix latency floor of one solve: `floor[i]` is the least
/// worst-case latency of covering tasks `i … n−1` (`floor[n] = 0`), taking
/// each interval at the fastest class's term and allowing only intervals
/// that pass the DP's own period checks (incoming and outgoing
/// communication, `work / max_speed`) and whose term fits the latency bound
/// on its own. Every pattern's term is at least the fastest class's term on
/// the same interval, so no completion of a boundary-`i` label is faster
/// than `floor[i]` (up to [`floor_margin`]). `+∞` marks a boundary with no
/// admissible completion. Backward O(n²) pass.
fn suffix_floor(
    oracle: &IntervalOracle,
    bound: f64,
    latency_bound: f64,
    in_ok: &[bool],
    fastest: usize,
    floor: &mut Vec<f64>,
) {
    let n = oracle.len();
    let work_prefix = oracle.work_prefix();
    let max_speed = oracle.class_view().max_speed();
    floor.clear();
    floor.resize(n + 1, f64::INFINITY);
    floor[n] = 0.0;
    for i in (0..n).rev() {
        if !in_ok[i] {
            continue;
        }
        let mut least = f64::INFINITY;
        for last in i..n {
            // The compute time grows with `last`: once it breaks the period
            // or the latency bound, every longer interval does too.
            let compute = (work_prefix[last + 1] - work_prefix[i]) / max_speed;
            if compute > bound || compute > latency_bound {
                break;
            }
            if oracle.output_comm_time(last) > bound {
                continue;
            }
            let term = oracle.class_latency_term(fastest, i, last);
            if term <= latency_bound {
                least = least.min(term + floor[last + 1]);
            }
        }
        floor[i] = least;
    }
}

/// The exact label DP over `(boundary, per-class budgets, latency-so-far)`.
///
/// The admissibility prelude and block-row gather mirror
/// `algo_het::class_dp` and [`penalized_dp`] — the three DPs differ in
/// their value type, so a fix to the shared shape must land in all three.
/// See the module docs for the floor cut and the live-state sweep.
#[allow(clippy::too_many_arguments)]
fn label_dp(
    oracle: &IntervalOracle,
    chain: &TaskChain,
    platform: &Platform,
    period_bound: Option<f64>,
    latency_bound: f64,
    incumbent: f64,
    patterns: &[Pattern],
    arenas: &mut HetLatArenas,
) -> LabelDpOutcome {
    let n = oracle.len();
    let view = oracle.class_view();
    let kc = view.len();
    let k_max = oracle.max_replication().min(oracle.num_processors());

    let num_states = budget_states(view);
    assert!(
        patterns.len() < (1 << 32) && n < (1 << 24) && num_states < (1 << 32),
        "label traceback supports < 2^32 patterns/labels and n < 2^24"
    );

    let bound = period_bound.unwrap_or(f64::INFINITY);
    let prune_below = incumbent * (1.0 - 1e-9);
    let work_prefix = oracle.work_prefix();
    let max_speed = view.max_speed();
    let fastest = (0..kc)
        .find(|&c| view.class(c).speed == max_speed)
        .expect("some class has the largest speed");
    let in_ok: Vec<bool> = (0..n).map(|j| oracle.input_comm_time(j) <= bound).collect();

    let full = num_states - 1;
    // Per-state label lists, per-boundary live states, least latencies and
    // suffix floor, per-class block-row gather buffers, and per-class
    // failure powers (1 − block)^q all come from the pooled arenas.
    arenas.prepare(n, num_states, kc, k_max);
    let HetLatArenas {
        states,
        live,
        least_lat,
        floor,
        rows,
        powers,
    } = arenas;
    suffix_floor(oracle, bound, latency_bound, &in_ok, fastest, floor);
    let floor_cut = latency_bound * (1.0 + floor_margin(n));
    // A label of latency `lat` at boundary `i` can still finish within the
    // bound. Latency sums only grow, and `+` is monotone in each operand,
    // so a lower bound that fails here fails for every label it bounds.
    let can_finish = |lat: f64, i: usize| lat <= latency_bound && lat + floor[i] <= floor_cut;

    states[full].push(Label {
        lat: 0.0,
        rel: 1.0,
        j: 0,
        pattern: 0,
        pred_label: 0,
    });
    live[0].push(full as u32);
    least_lat[0] = 0.0;
    let mut live_labels: isize = 1;
    let mut labels_inserted: u64 = 1;
    let mut labels_cut_floor: u64 = 0;

    for i in 1..=n {
        if oracle.output_comm_time(i - 1) > bound || !can_finish(0.0, i) {
            continue;
        }
        let j_lo = if bound.is_finite() {
            work_prefix[..i]
                .partition_point(|&w| w < work_prefix[i] - bound * max_speed)
                .saturating_sub(1)
        } else {
            0
        };
        for (c, row) in rows.iter_mut().enumerate() {
            oracle.fill_class_block_row(c, i - 1, j_lo, row);
        }
        let (done, rest) = states.split_at_mut(i * num_states);
        let row_i = &mut rest[..num_states];
        for j in (j_lo..i).rev() {
            let live_j = &live[j];
            if live_j.is_empty() || !in_ok[j] {
                continue;
            }
            let work = work_prefix[i] - work_prefix[j];
            if work / max_speed > bound {
                continue;
            }
            // Every pattern's term is at least the fastest class's: when
            // the start's least latency cannot finish through it, no label
            // of this start can.
            let least = least_lat[j];
            if !can_finish(least + oracle.class_latency_term(fastest, j, i - 1), i) {
                continue;
            }
            for (c, row) in rows.iter().enumerate() {
                let all_fail = 1.0 - row[j - j_lo];
                let pow = &mut powers[c];
                for q in 1..=k_max {
                    pow[q] = pow[q - 1] * all_fail;
                }
            }
            let row_j = &done[j * num_states..(j + 1) * num_states];
            for (pattern_index, pattern) in patterns.iter().enumerate() {
                if work / pattern.min_speed > bound {
                    continue;
                }
                // The pattern's exact latency term on this interval: the
                // slowest used class's compute time plus the outgoing
                // communication — evaluator operation order.
                let lat_term = oracle.class_latency_term(pattern.min_speed_class, j, i - 1);
                if !can_finish(least + lat_term, i) {
                    continue;
                }
                let survive: f64 = pattern
                    .counts
                    .iter()
                    .enumerate()
                    .map(|(c, &qc)| powers[c][qc])
                    .product();
                let rel = 1.0 - survive;
                // Live states in ascending order: the same insertion order
                // as a walk over every valid predecessor, since empty states
                // insert nothing.
                for &s in live_j {
                    let s = s as usize;
                    if !pattern.spends_from(s) {
                        continue;
                    }
                    let target = s - pattern.offset;
                    let labels = &row_j[s];
                    for (pred_label, label) in labels.iter().enumerate() {
                        let lat = label.lat + lat_term;
                        // Labels are sorted by ascending latency: once one
                        // cannot finish, no later label of this state can.
                        if lat > latency_bound {
                            break;
                        }
                        if lat + floor[i] > floor_cut {
                            labels_cut_floor += (labels.len() - pred_label) as u64;
                            break;
                        }
                        let cand = label.rel * rel;
                        if cand < prune_below {
                            continue;
                        }
                        if let Some(delta) = insert_label(
                            &mut row_i[target],
                            Label {
                                lat,
                                rel: cand,
                                j: j as u32,
                                pattern: pattern_index as u32,
                                pred_label: pred_label as u32,
                            },
                        ) {
                            live_labels += delta;
                            labels_inserted += 1;
                        }
                    }
                }
            }
            if live_labels as usize > MAX_LAT_LABELS {
                rpo_obs::counter!("het_lat.labels").add(labels_inserted);
                rpo_obs::counter!("het_lat.labels_cut.floor").add(labels_cut_floor);
                rpo_obs::counter!("het_lat.label_cap_aborts").inc();
                return LabelDpOutcome::Overflow;
            }
        }
        // Boundary i is complete: record its live states and least latency
        // for the rows that start here.
        let live_i = &mut live[i];
        for (s, labels) in row_i.iter().enumerate() {
            if let Some(first) = labels.first() {
                live_i.push(s as u32);
                least_lat[i] = least_lat[i].min(first.lat);
            }
        }
    }

    rpo_obs::counter!("het_lat.labels").add(labels_inserted);
    rpo_obs::counter!("het_lat.labels_cut.floor").add(labels_cut_floor);

    // Merge the final boundary's per-state Pareto label lists into one
    // latency–reliability front: each list is already non-dominated within
    // its budget state; the cross-state merge sorts by (latency asc,
    // reliability desc) and keeps the strictly-improving reliabilities.
    let mut finals: Vec<(usize, usize, f64, f64)> = Vec::new(); // (s, idx, lat, rel)
    for s in 0..num_states {
        for (idx, label) in states[n * num_states + s].iter().enumerate() {
            finals.push((s, idx, label.lat, label.rel));
        }
    }
    if finals.is_empty() {
        return LabelDpOutcome::Solved(None);
    }
    finals.sort_by(|a, b| {
        a.2.partial_cmp(&b.2)
            .expect("finite label latencies")
            .then(b.3.partial_cmp(&a.3).expect("finite label reliabilities"))
    });
    let mut merged: Vec<(usize, usize)> = Vec::new();
    let mut best_rel = f64::NEG_INFINITY;
    for &(s, idx, _lat, rel) in &finals {
        if rel > best_rel {
            best_rel = rel;
            merged.push((s, idx));
        }
    }

    // Traceback a final label through its predecessors, then lower. Every
    // merged front point gets its own mapping; the last one (max DP
    // reliability) is the returned optimum.
    let states = &*states;
    let traceback = |(mut s, mut label_idx): (usize, usize)| -> Mapping {
        let mut segments: Segments = Vec::new();
        let mut i = n;
        while i > 0 {
            let label = states[i * num_states + s][label_idx];
            let pattern = &patterns[label.pattern as usize];
            let j = label.j as usize;
            segments.push((j, i - 1, pattern.counts.clone()));
            s += pattern.offset;
            label_idx = label.pred_label as usize;
            i = j;
        }
        segments.reverse();
        let (partition, assignment) =
            assignment_from_segments(&segments, n).expect("DP segments form a valid partition");
        assignment
            .lower(oracle.class_view(), &partition, chain, platform)
            .expect("DP respects every class budget")
    };
    // Exact re-score: Eq. 9 reliability of every lowered mapping (the DP
    // maximized factored values that can differ by an ulp; the latency is
    // bit-identical by construction but re-read from the evaluator anyway).
    let front: Vec<HetLatFrontPoint> = merged
        .into_iter()
        .map(|ids| {
            let mapping = traceback(ids);
            let reliability = oracle.mapping_reliability(&mapping);
            let worst_case_latency = oracle.evaluate(&mapping).worst_case_latency;
            HetLatFrontPoint {
                mapping,
                reliability,
                worst_case_latency,
            }
        })
        .collect();
    rpo_obs::counter!("het_lat.front_points").add(front.len() as u64);
    let best = front.last().expect("the merged front is non-empty");
    let optimum = OptimalMapping {
        mapping: best.mapping.clone(),
        reliability: best.reliability,
    };
    LabelDpOutcome::Solved(Some((optimum, front)))
}

/// One scalar penalized class DP: maximizes `Π rel · e^{−μ·lat}` over the
/// `(boundary, budgets)` states and returns the argmax mapping with its
/// exact reliability and worst-case latency (or `None` when nothing fits the
/// period bound).
///
/// Scores are carried in **log space** (`Σ ln rel − μ·lat`): with the
/// penalty in the exponent, a product-space score would underflow to 0 once
/// `μ·lat` passes ~745 and every candidate would tie at 0 — turning the
/// most latency-averse probes of the doubling search into arbitrary
/// first-visited mappings. Additive log scores stay finite and ordered for
/// any `μ` the sweep can reach.
///
/// The loop structure (admissibility prelude, block-row gather, packed
/// traceback) deliberately mirrors `algo_het::class_dp` and `label_dp` —
/// the three DPs differ in their value type (product / penalized log /
/// label list), so a fix to the shared shape must be applied to all three.
#[allow(clippy::too_many_arguments)]
fn penalized_dp(
    oracle: &IntervalOracle,
    chain: &TaskChain,
    platform: &Platform,
    bound: f64,
    mu: f64,
    num_states: usize,
    patterns: &[Pattern],
) -> Option<(Mapping, f64, f64)> {
    rpo_obs::counter!("het_lat.mu_iterations").inc();
    let n = oracle.len();
    let view = oracle.class_view();
    let kc = view.len();
    let k_max = oracle.max_replication().min(oracle.num_processors());
    let work_prefix = oracle.work_prefix();
    let max_speed = view.max_speed();
    let in_ok: Vec<bool> = (0..n).map(|j| oracle.input_comm_time(j) <= bound).collect();

    const NO_CHOICE: u64 = u64::MAX;
    let full = num_states - 1;
    let mut f = vec![f64::NEG_INFINITY; (n + 1) * num_states];
    let mut choice = vec![NO_CHOICE; (n + 1) * num_states];
    f[full] = 0.0; // log-space: ln(1) = 0

    let mut rows: Vec<Vec<f64>> = vec![Vec::new(); kc];
    let mut powers: Vec<Vec<f64>> = vec![vec![1.0; k_max + 1]; kc];

    for i in 1..=n {
        if oracle.output_comm_time(i - 1) > bound {
            continue;
        }
        let j_lo = if bound.is_finite() {
            work_prefix[..i]
                .partition_point(|&w| w < work_prefix[i] - bound * max_speed)
                .saturating_sub(1)
        } else {
            0
        };
        for (c, row) in rows.iter_mut().enumerate() {
            oracle.fill_class_block_row(c, i - 1, j_lo, row);
        }
        let (done, rest) = f.split_at_mut(i * num_states);
        let row_i = &mut rest[..num_states];
        let choice_base = i * num_states;
        for j in (j_lo..i).rev() {
            if !in_ok[j] {
                continue;
            }
            let work = work_prefix[i] - work_prefix[j];
            if work / max_speed > bound {
                continue;
            }
            for (c, row) in rows.iter().enumerate() {
                let all_fail = 1.0 - row[j - j_lo];
                let pow = &mut powers[c];
                for q in 1..=k_max {
                    pow[q] = pow[q - 1] * all_fail;
                }
            }
            let row_j = &done[j * num_states..(j + 1) * num_states];
            for (pattern_index, pattern) in patterns.iter().enumerate() {
                if work / pattern.min_speed > bound {
                    continue;
                }
                // The factored (boundary-indexed grid) latency term: the
                // penalized score tolerates an ulp — the argmax mapping is
                // re-scored through the exact evaluator below.
                let lat_term =
                    oracle.class_latency_term_factored(pattern.min_speed_class, j, i - 1);
                let survive: f64 = pattern
                    .counts
                    .iter()
                    .enumerate()
                    .map(|(c, &qc)| powers[c][qc])
                    .product();
                // `ln rel − μ·lat`; `ln(0) = −∞` cleanly marks a
                // zero-reliability pattern as never-chosen.
                let factor = (1.0 - survive).ln() - mu * lat_term;
                let packed = (j as u64) << 32 | pattern_index as u64;
                for &s in &pattern.valid_predecessors {
                    let s = s as usize;
                    let prev = row_j[s];
                    if prev.is_finite() {
                        let cand = prev + factor;
                        let target = s - pattern.offset;
                        if cand > row_i[target] {
                            row_i[target] = cand;
                            choice[choice_base + target] = packed;
                        }
                    }
                }
            }
        }
    }

    let row_n = &f[n * num_states..];
    let (best_state, best_score) = row_n
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("totally ordered scores"))
        .map(|(s, &r)| (s, r))?;
    if !best_score.is_finite() {
        return None;
    }

    let mut segments: Segments = Vec::new();
    let (mut i, mut s) = (n, best_state);
    while i > 0 {
        let packed = choice[i * num_states + s];
        debug_assert!(packed != NO_CHOICE, "reachable state has a recorded choice");
        let j = (packed >> 32) as usize;
        let pattern = &patterns[(packed & 0xFFFF_FFFF) as usize];
        segments.push((j, i - 1, pattern.counts.clone()));
        s += pattern.offset;
        i = j;
    }
    segments.reverse();
    let (partition, assignment) =
        assignment_from_segments(&segments, n).expect("DP segments form a valid partition");
    let mapping = assignment
        .lower(oracle.class_view(), &partition, chain, platform)
        .expect("DP respects every class budget");
    let evaluation = oracle.evaluate(&mapping);
    Some((
        mapping,
        evaluation.reliability,
        evaluation.worst_case_latency,
    ))
}

/// The Lagrangian / parametric fallback: bisect the latency penalty `μ`,
/// keep the best feasible incumbent. Returns `None` when even the most
/// latency-averse penalized solve stays infeasible.
fn lagrangian_sweep(
    oracle: &IntervalOracle,
    chain: &TaskChain,
    platform: &Platform,
    period_bound: Option<f64>,
    latency_bound: f64,
    patterns: &[Pattern],
) -> Option<OptimalMapping> {
    let bound = period_bound.unwrap_or(f64::INFINITY);
    let num_states = budget_states(oracle.class_view());

    /// Keeps `(mapping, reliability)` as the incumbent when its latency is
    /// feasible and its exact reliability improves on the current best;
    /// returns whether it was feasible.
    fn keep(
        best: &mut Option<OptimalMapping>,
        latency_bound: f64,
        (mapping, reliability, latency): (Mapping, f64, f64),
    ) -> bool {
        let feasible = latency <= latency_bound;
        if feasible && best.as_ref().is_none_or(|b| reliability > b.reliability) {
            *best = Some(OptimalMapping {
                mapping,
                reliability,
            });
        }
        feasible
    }

    let mut best: Option<OptimalMapping> = None;

    // μ = 0 is the latency-unconstrained reliability optimum under the
    // period bound: if it is feasible, it is the true constrained optimum
    // and the sweep is exact.
    let unpenalized = penalized_dp(oracle, chain, platform, bound, 0.0, num_states, patterns)?;
    if keep(&mut best, latency_bound, unpenalized) {
        return best;
    }

    // Doubling search for a feasible penalty. Scale the initial penalty to
    // the instance: e^{−μ·L_bound} ≈ e^{−1} at the first probe.
    let mut mu_lo = 0.0;
    let mut mu_hi = 1.0 / latency_bound;
    let mut feasible_hi = false;
    for _ in 0..60 {
        if let Some(solution) =
            penalized_dp(oracle, chain, platform, bound, mu_hi, num_states, patterns)
        {
            if keep(&mut best, latency_bound, solution) {
                feasible_hi = true;
                break;
            }
        }
        mu_lo = mu_hi;
        mu_hi *= 2.0;
    }
    if !feasible_hi {
        return best; // even the most latency-averse solve stays infeasible
    }

    // Bisect towards the smallest feasible penalty (smaller μ → more
    // reliability, more latency), keeping every feasible incumbent.
    for _ in 0..LAGRANGIAN_STEPS {
        let mu = 0.5 * (mu_lo + mu_hi);
        let solution = penalized_dp(oracle, chain, platform, bound, mu, num_states, patterns);
        if solution.is_some_and(|solution| keep(&mut best, latency_bound, solution)) {
            mu_hi = mu;
        } else {
            mu_lo = mu;
        }
    }
    best
}

/// Latency-aware reference brute force: enumerates every interval partition
/// and per-interval class pattern under the shared class budgets, and
/// returns the most reliable mapping fitting **both** bounds. Latency is
/// accumulated from the same [`IntervalOracle::class_latency_term`] grid as
/// the DP, so the two agree bit-for-bit on feasibility. Exponential — only
/// for validating [`SolveCtx::algo_het_lat`] on tiny instances.
///
/// # Errors
///
/// Same as [`SolveCtx::algo_het_lat`].
///
/// # Panics
///
/// Panics if the chain exceeds [`MAX_EXHAUSTIVE_HET_TASKS`] tasks.
pub fn exhaustive_het_lat(
    chain: &TaskChain,
    platform: &Platform,
    period_bound: Option<f64>,
    latency_bound: f64,
) -> Result<OptimalMapping> {
    let bound = validate_period_bound(period_bound)?;
    let latency_bound = validate_latency_bound(latency_bound)?;
    let n = chain.len();
    assert!(
        n <= MAX_EXHAUSTIVE_HET_TASKS,
        "exhaustive het solver limited to {MAX_EXHAUSTIVE_HET_TASKS} tasks, chain has {n}"
    );
    let oracle = IntervalOracle::new(chain, platform);
    let view = oracle.class_view();
    let k_max = oracle.max_replication().min(oracle.num_processors());
    let patterns = enumerate_patterns(view, k_max);

    #[allow(clippy::too_many_arguments)]
    fn recurse(
        oracle: &IntervalOracle,
        patterns: &[Pattern],
        bound: f64,
        latency_bound: f64,
        start: usize,
        budgets: &mut [usize],
        segments: &mut Segments,
        reliability: f64,
        latency: f64,
        best: &mut Option<(f64, Segments)>,
    ) {
        let n = oracle.len();
        if start == n {
            if best.as_ref().is_none_or(|(b, _)| reliability > *b) {
                *best = Some((reliability, segments.clone()));
            }
            return;
        }
        if oracle.input_comm_time(start) > bound {
            return;
        }
        for last in start..n {
            if oracle.output_comm_time(last) > bound {
                continue;
            }
            let work = oracle.work(start, last);
            for pattern in patterns {
                if work / pattern.min_speed > bound {
                    continue;
                }
                let lat = latency + oracle.class_latency_term(pattern.min_speed_class, start, last);
                if lat > latency_bound {
                    continue;
                }
                if pattern
                    .counts
                    .iter()
                    .zip(budgets.iter())
                    .any(|(&q, &b)| q > b)
                {
                    continue;
                }
                let mut survive = 1.0;
                for (c, &q) in pattern.counts.iter().enumerate() {
                    let block = oracle.class_block_reliability(c, start, last);
                    for _ in 0..q {
                        survive *= 1.0 - block;
                    }
                }
                for (b, &q) in budgets.iter_mut().zip(&pattern.counts) {
                    *b -= q;
                }
                segments.push((start, last, pattern.counts.clone()));
                recurse(
                    oracle,
                    patterns,
                    bound,
                    latency_bound,
                    last + 1,
                    budgets,
                    segments,
                    reliability * (1.0 - survive),
                    lat,
                    best,
                );
                segments.pop();
                for (b, &q) in budgets.iter_mut().zip(&pattern.counts) {
                    *b += q;
                }
            }
        }
    }

    let mut budgets: Vec<usize> = view.classes().iter().map(|c| c.members).collect();
    let mut best = None;
    recurse(
        &oracle,
        &patterns,
        bound,
        latency_bound,
        0,
        &mut budgets,
        &mut Vec::new(),
        1.0,
        0.0,
        &mut best,
    );
    let (_, segments) = best.ok_or(AlgoError::NoFeasibleMapping)?;
    let (partition, assignment) = assignment_from_segments(&segments, n)?;
    let mapping = assignment.lower(view, &partition, chain, platform)?;
    let reliability = oracle.mapping_reliability(&mapping);
    Ok(OptimalMapping {
        mapping,
        reliability,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpo_model::{MappingEvaluation, PlatformBuilder};

    fn chain() -> TaskChain {
        TaskChain::from_pairs(&[(30.0, 2.0), (10.0, 8.0), (25.0, 1.0), (40.0, 3.0)]).unwrap()
    }

    /// Two classes: three fast-but-flaky processors, three slow-but-reliable.
    fn class_platform() -> Platform {
        PlatformBuilder::new()
            .processor(4.0, 1e-3)
            .processor(4.0, 1e-3)
            .processor(4.0, 1e-3)
            .processor(1.0, 1e-4)
            .processor(1.0, 1e-4)
            .processor(1.0, 1e-4)
            .bandwidth(1.0)
            .link_failure_rate(1e-5)
            .max_replication(3)
            .build()
            .unwrap()
    }

    #[test]
    fn lat_dp_is_exact_on_the_class_fixture() {
        let c = chain();
        let p = class_platform();
        for period in [None, Some(30.0), Some(110.0)] {
            for latency in [30.0, 40.0, 60.0, 120.0] {
                let dp = algo_het_lat(&c, &p, period, latency);
                let brute = exhaustive_het_lat(&c, &p, period, latency);
                match (dp, brute) {
                    (Ok(dp), Ok(brute)) => assert!(
                        (dp.reliability - brute.reliability).abs()
                            <= 1e-12 * brute.reliability.max(dp.reliability),
                        "({period:?}, {latency}): dp {} vs exhaustive {}",
                        dp.reliability,
                        brute.reliability
                    ),
                    (Err(a), Err(b)) => assert_eq!(a, b),
                    (dp, brute) => panic!(
                        "feasibility mismatch under ({period:?}, {latency}): dp {} vs brute {}",
                        dp.is_ok(),
                        brute.is_ok()
                    ),
                }
            }
        }
    }

    #[test]
    fn the_label_dp_surfaces_a_consistent_pareto_front() {
        let c = chain();
        let p = class_platform();
        let mut saw_multi_point_front = false;
        for latency in [35.0, 45.0, 60.0, 120.0] {
            let Ok(sol) = algo_het_lat(&c, &p, None, latency) else {
                continue;
            };
            assert!(!sol.front.is_empty(), "latency {latency}: empty front");
            // The chosen mapping is always on the surfaced front.
            assert!(
                sol.front.iter().any(|point| point.mapping == sol.mapping),
                "latency {latency}: chosen mapping missing from the front"
            );
            saw_multi_point_front |= sol.front.len() > 1;
            for point in &sol.front {
                // Every point respects the latency bound and its metrics
                // are the oracle's exact re-evaluation.
                assert!(point.worst_case_latency <= latency);
                let eval = MappingEvaluation::evaluate(&c, &p, &point.mapping);
                assert_eq!(point.reliability, eval.reliability);
                assert_eq!(point.worst_case_latency, eval.worst_case_latency);
            }
            // No point dominates another (strictly better in one criterion,
            // no worse in the other) by the DP's own label values; exact
            // re-scoring can perturb by ulps, so allow equality.
            for a in &sol.front {
                for b in &sol.front {
                    if std::ptr::eq(a, b) {
                        continue;
                    }
                    assert!(
                        !(a.reliability >= b.reliability
                            && a.worst_case_latency < b.worst_case_latency
                            && a.reliability > b.reliability * (1.0 + 1e-12)),
                        "latency {latency}: front point strictly dominated"
                    );
                }
            }
        }
        assert!(
            saw_multi_point_front,
            "the relaxed bounds must surface a real latency–reliability trade-off"
        );
    }

    #[test]
    fn returned_mapping_respects_both_bounds_exactly() {
        let c = chain();
        let p = class_platform();
        for (period, latency) in [(Some(30.0), 50.0), (Some(110.0), 40.0), (None, 33.0)] {
            let Ok(sol) = algo_het_lat(&c, &p, period, latency) else {
                continue;
            };
            let eval = MappingEvaluation::evaluate(&c, &p, &sol.mapping);
            assert!(eval.worst_case_latency <= latency);
            if let Some(period) = period {
                assert!(eval.worst_case_period <= period);
            }
            assert_eq!(sol.reliability, eval.reliability);
            assert_eq!(sol.worst_case_latency, eval.worst_case_latency);
        }
    }

    #[test]
    fn never_below_the_latency_aware_greedy() {
        let c = chain();
        let p = class_platform();
        let oracle = IntervalOracle::new(&c, &p);
        let mut scratch = crate::DpScratch::new();
        let mut ctx = SolveCtx::new(&c, &p, &oracle, &mut scratch);
        for latency in [28.0, 40.0, 60.0, 200.0] {
            let dp = ctx.algo_het_lat(Some(40.0), latency);
            let greedy = ctx.greedy_het_lat(Some(40.0), latency);
            if let Ok(greedy) = greedy {
                let dp = dp.expect("greedy feasible implies algo_het_lat feasible");
                assert!(
                    dp.reliability >= greedy.reliability,
                    "latency {latency}: dp {} below greedy {}",
                    dp.reliability,
                    greedy.reliability
                );
                assert_eq!(dp.greedy_reliability, Some(greedy.reliability));
            }
        }
    }

    #[test]
    fn bound_at_the_floor_is_feasible_and_below_is_infeasible() {
        let c = chain();
        let p = class_platform();
        let oracle = IntervalOracle::new(&c, &p);
        let floor = oracle.latency_floor();
        // Exactly at the floor: the single fast-class interval fits
        // bit-for-bit.
        let at = algo_het_lat(&c, &p, None, floor).unwrap();
        assert_eq!(at.worst_case_latency, floor);
        // Strictly below: clean infeasibility, no panic.
        assert_eq!(
            algo_het_lat(&c, &p, None, floor * 0.999).unwrap_err(),
            AlgoError::NoFeasibleMapping
        );
        assert_eq!(
            exhaustive_het_lat(&c, &p, None, floor * 0.999).unwrap_err(),
            AlgoError::NoFeasibleMapping
        );
    }

    #[test]
    fn invalid_latency_bounds_are_rejected() {
        let c = chain();
        let p = class_platform();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                algo_het_lat(&c, &p, None, bad).unwrap_err(),
                AlgoError::InvalidBound("latency bound")
            );
            assert_eq!(
                exhaustive_het_lat(&c, &p, None, bad).unwrap_err(),
                AlgoError::InvalidBound("latency bound")
            );
        }
        assert_eq!(
            algo_het_lat(&c, &p, Some(f64::NAN), 100.0).unwrap_err(),
            AlgoError::InvalidBound("period bound")
        );
    }

    #[test]
    fn loose_latency_bound_recovers_algo_het() {
        let c = chain();
        let p = class_platform();
        let oracle = IntervalOracle::new(&c, &p);
        let mut scratch = crate::DpScratch::new();
        let mut ctx = SolveCtx::new(&c, &p, &oracle, &mut scratch);
        for period in [Some(30.0), Some(110.0), None] {
            let lat = ctx.algo_het_lat(period, 1e9).unwrap();
            let het = ctx.algo_het(period).unwrap();
            assert!(
                (lat.reliability - het.reliability).abs() <= 1e-12 * het.reliability,
                "period {period:?}: {} vs {}",
                lat.reliability,
                het.reliability
            );
        }
    }

    #[test]
    fn many_classes_fall_back_to_the_latency_aware_greedy() {
        let c = chain();
        let mut builder = PlatformBuilder::new()
            .bandwidth(1.0)
            .link_failure_rate(1e-5)
            .max_replication(2);
        for u in 0..5 {
            builder = builder.processor(1.0 + u as f64 * 0.5, 1e-4);
        }
        let p = builder.build().unwrap();
        let oracle = IntervalOracle::new(&c, &p);
        assert!(!het_dp_applicable(&oracle));
        let mut scratch = crate::DpScratch::new();
        let mut ctx = SolveCtx::new(&c, &p, &oracle, &mut scratch);
        let sol = ctx.algo_het_lat(Some(100.0), 100.0).unwrap();
        assert_eq!(sol.method, HetLatMethod::Greedy);
        let greedy = ctx.greedy_het_lat(Some(100.0), 100.0).unwrap();
        assert_eq!(sol.reliability, greedy.reliability);
        assert!(sol.worst_case_latency <= 100.0);
    }

    #[test]
    fn lagrangian_sweep_finds_a_feasible_incumbent() {
        // Drive the fallback directly (the label cap is far too high to
        // trigger on the fixture): it must return a feasible mapping no
        // more reliable than the exact DP's.
        let c = chain();
        let p = class_platform();
        let oracle = IntervalOracle::new(&c, &p);
        let exact = algo_het_lat(&c, &p, Some(40.0), 45.0).unwrap();
        let k_max = oracle.max_replication().min(oracle.num_processors());
        let patterns = enumerate_patterns(oracle.class_view(), k_max);
        let swept = lagrangian_sweep(&oracle, &c, &p, Some(40.0), 45.0, &patterns).unwrap();
        let eval = oracle.evaluate(&swept.mapping);
        assert!(eval.worst_case_latency <= 45.0);
        assert!(swept.reliability <= exact.reliability + 1e-15);
        // On this fixture the constrained optimum lies on the hull: the
        // sweep recovers it exactly.
        assert!(
            (swept.reliability - exact.reliability).abs() <= 1e-9 * exact.reliability,
            "lagrangian {} vs exact {}",
            swept.reliability,
            exact.reliability
        );
    }

    #[test]
    fn penalized_dp_stays_ordered_at_extreme_penalties() {
        // In product space a penalty of μ = 1e9 would underflow every score
        // to 0 and the argmax would be an arbitrary first-visited mapping;
        // in log space the most latency-averse probe must return the
        // minimal-latency mapping (the single fast-class interval at the
        // floor).
        let c = chain();
        let p = class_platform();
        let oracle = IntervalOracle::new(&c, &p);
        let view = oracle.class_view();
        let k_max = oracle.max_replication().min(oracle.num_processors());
        let num_states = budget_states(view);
        let patterns = enumerate_patterns(view, k_max);
        let (_, _, latency) =
            penalized_dp(&oracle, &c, &p, f64::INFINITY, 1e9, num_states, &patterns)
                .expect("unbounded-period penalized solve always finds a mapping");
        assert_eq!(latency, oracle.latency_floor());
        // And μ = 0 recovers the latency-unconstrained reliability optimum.
        let (_, reliability, _) =
            penalized_dp(&oracle, &c, &p, f64::INFINITY, 0.0, num_states, &patterns).unwrap();
        let het = crate::algo_het(&c, &p, None).unwrap();
        assert!((reliability - het.reliability).abs() <= 1e-12 * het.reliability);
    }

    /// Every complete class-level mapping that passes the DP's period
    /// checks and the latency bound, as `(latency, reliability, mapping)`:
    /// latency summed left to right from the DP's own terms, reliability the
    /// exact Eq. 9 value of the lowered mapping.
    fn every_mapping(
        oracle: &IntervalOracle,
        chain: &TaskChain,
        platform: &Platform,
        bound: f64,
        latency_bound: f64,
    ) -> Vec<(f64, f64, Mapping)> {
        #[allow(clippy::too_many_arguments)]
        fn recurse(
            oracle: &IntervalOracle,
            patterns: &[Pattern],
            bound: f64,
            latency_bound: f64,
            start: usize,
            latency: f64,
            budgets: &mut [usize],
            segments: &mut Segments,
            out: &mut Vec<(f64, Segments)>,
        ) {
            let n = oracle.len();
            if start == n {
                out.push((latency, segments.clone()));
                return;
            }
            if oracle.input_comm_time(start) > bound {
                return;
            }
            for last in start..n {
                if oracle.output_comm_time(last) > bound {
                    continue;
                }
                let work = oracle.work(start, last);
                for pattern in patterns {
                    let lat =
                        latency + oracle.class_latency_term(pattern.min_speed_class, start, last);
                    if work / pattern.min_speed > bound
                        || lat > latency_bound
                        || pattern.counts.iter().zip(&*budgets).any(|(&q, &b)| q > b)
                    {
                        continue;
                    }
                    for (b, &q) in budgets.iter_mut().zip(&pattern.counts) {
                        *b -= q;
                    }
                    segments.push((start, last, pattern.counts.clone()));
                    recurse(
                        oracle,
                        patterns,
                        bound,
                        latency_bound,
                        last + 1,
                        lat,
                        budgets,
                        segments,
                        out,
                    );
                    segments.pop();
                    for (b, &q) in budgets.iter_mut().zip(&pattern.counts) {
                        *b += q;
                    }
                }
            }
        }
        let view = oracle.class_view();
        let k_max = oracle.max_replication().min(oracle.num_processors());
        let patterns = enumerate_patterns(view, k_max);
        let mut budgets: Vec<usize> = view.classes().iter().map(|c| c.members).collect();
        let mut complete = Vec::new();
        recurse(
            oracle,
            &patterns,
            bound,
            latency_bound,
            0,
            0.0,
            &mut budgets,
            &mut Vec::new(),
            &mut complete,
        );
        complete
            .into_iter()
            .map(|(latency, segments)| {
                let (partition, assignment) =
                    assignment_from_segments(&segments, oracle.len()).unwrap();
                let mapping = assignment.lower(view, &partition, chain, platform).unwrap();
                (latency, oracle.mapping_reliability(&mapping), mapping)
            })
            .collect()
    }

    #[test]
    fn the_label_dp_front_is_the_brute_force_front() {
        // Tiny instances: the fixture plus a few generated ones (3–5 tasks,
        // 2–3 classes), each under several period and latency bounds.
        let mut instances = vec![(chain(), class_platform())];
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut draw = |lo: f64, hi: f64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            lo + (hi - lo) * (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for case in 0..6 {
            let tasks: Vec<(f64, f64)> = (0..3 + case % 3)
                .map(|_| (draw(1.0, 60.0), draw(0.0, 8.0)))
                .collect();
            let mut builder = PlatformBuilder::new()
                .bandwidth(draw(0.5, 3.0))
                .link_failure_rate(1e-5)
                .max_replication(2 + case % 2);
            for class in 0..2 + case % 2 {
                let (speed, rate) = (draw(1.0, 6.0), 10f64.powf(draw(-5.0, -2.0)));
                for _ in 0..1 + (case + class) % 3 {
                    builder = builder.processor(speed, rate);
                }
            }
            instances.push((
                TaskChain::from_pairs(&tasks).unwrap(),
                builder.build().unwrap(),
            ));
        }

        let mut compared_points = 0;
        for (c, p) in &instances {
            let oracle = IntervalOracle::new(c, p);
            let floor = oracle.latency_floor();
            let k_max = oracle.max_replication().min(oracle.num_processors());
            let patterns = enumerate_patterns(oracle.class_view(), k_max);
            for period in [None, Some(0.8 * floor)] {
                let bound = period.unwrap_or(f64::INFINITY);
                for slack in [1.0, 1.15, 1.5, 3.0] {
                    let latency = slack * floor;
                    let mut scratch = crate::DpScratch::new();
                    let ctx = SolveCtx::new(c, p, &oracle, &mut scratch);
                    let incumbent = ctx
                        .greedy_het_lat(period, latency)
                        .map_or(0.0, |g| g.reliability);
                    let mut arenas = HetLatArenas::default();
                    let LabelDpOutcome::Solved(solved) = label_dp(
                        &oracle,
                        c,
                        p,
                        period,
                        latency,
                        incumbent,
                        &patterns,
                        &mut arenas,
                    ) else {
                        panic!("tiny instances never overflow the label cap");
                    };
                    let dp_front = solved.map(|(_, front)| front).unwrap_or_default();

                    // The brute-force front: every complete mapping above the
                    // DP's incumbent cut, merged the way the DP merges its
                    // final labels (latency ascending, strictly improving
                    // reliability).
                    let prune_below = incumbent * (1.0 - 1e-9);
                    let mut all: Vec<(f64, f64, Mapping)> =
                        every_mapping(&oracle, c, p, bound, latency)
                            .into_iter()
                            .filter(|&(_, rel, _)| rel >= prune_below)
                            .collect();
                    all.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.total_cmp(&a.1)));
                    let mut brute: Vec<&(f64, f64, Mapping)> = Vec::new();
                    for point in &all {
                        if brute.last().is_none_or(|best| point.1 > best.1) {
                            brute.push(point);
                        }
                    }

                    let case = format!("({period:?}, {latency})");
                    assert_eq!(dp_front.len(), brute.len(), "{case}: front sizes");
                    for (dp, &(lat, rel, _)) in dp_front.iter().zip(&brute) {
                        assert_eq!(dp.worst_case_latency, *lat, "{case}: latency");
                        assert!(
                            (dp.reliability - rel).abs() <= 1e-12 * rel,
                            "{case}: reliability {} vs {rel}",
                            dp.reliability
                        );
                        // Up to exact ties: the DP's mapping is one of the
                        // brute-force mappings at this front point.
                        assert!(
                            all.iter().any(|(l, r, m)| l == lat
                                && (r - rel).abs() <= 1e-12 * rel
                                && *m == dp.mapping),
                            "{case}: the DP's mapping is not a brute-force mapping of its point"
                        );
                    }
                    compared_points += dp_front.len();
                }
            }
        }
        assert!(
            compared_points >= 60,
            "only {compared_points} front points compared"
        );
    }

    #[test]
    fn solving_twice_is_deterministic() {
        let c = chain();
        let p = class_platform();
        let a = algo_het_lat(&c, &p, Some(30.0), 60.0).unwrap();
        let b = algo_het_lat(&c, &p, Some(30.0), 60.0).unwrap();
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.method, HetLatMethod::LatDp);
    }
}
