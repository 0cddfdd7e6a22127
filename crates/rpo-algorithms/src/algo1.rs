//! Algorithms 1 and 2: optimal reliability on fully homogeneous platforms,
//! without (Algorithm 1) or under (Algorithm 2) a worst-case period bound.
//!
//! `F(i, k)` is the optimal reliability when mapping the first `i` tasks onto
//! exactly `k` processors; the recurrence tries every possible last interval
//! and every possible replication level `q ≤ min(K, k)` for it:
//!
//! `F(i, k) = max_{j < i, 1 ≤ q ≤ min(K,k)} F(j, k−q) · (1 − (1 − r_comm,j · Π r_l · r_comm,i)^q)`
//!
//! Algorithm 2 is the same recurrence restricted to the intervals that fit
//! the period bound, so both run through one entry point,
//! [`SolveCtx::reliability_dp`]: `None` is Algorithm 1, `Some(bound)` is
//! Algorithm 2. The paper only returns the optimal reliability value; this
//! implementation additionally reconstructs an actual [`Mapping`] achieving
//! it.
//!
//! # Kernel structure
//!
//! The dynamic program runs as a **lane-chunked kernel**: for each row `i`,
//! the per-`j` factored replica-block reliabilities are gathered into one
//! contiguous scratch buffer ([`IntervalOracle::fill_class_block_row`] —
//! pure multiplications over the oracle's `exp(−ρW_i)·exp(ρW_j)` prefixes),
//! and the `(q, k)` max-update then runs **value-only** as branch-light
//! fixed-width chunks of [`LANES`] plain `f64` arrays whose multiply-and-max
//! bodies LLVM auto-vectorizes — no `unsafe`, no nightly intrinsics, no
//! traceback bookkeeping in the hot loop (winning `(j, q)` choices are
//! recovered afterwards along the optimal path only, by bit-exact candidate
//! re-scan). The pre-chunking scalar sweep lives on as
//! [`crate::reference::reliability_dp`]; the workspace property tests assert
//! both agree within `1e-12` — and reconstruct identical mappings — on
//! hundreds of seeded instances, and `BENCH_kernel.json` tracks their
//! relative speed.
//!
//! All interval metrics come from the [`IntervalOracle`]; the DP tables are
//! flat arenas indexed by `i·(p+1) + k` held in a reusable [`DpScratch`], so
//! repeated runs (the period minimizer's binary search) reuse allocations and
//! warm-start the per-row admissibility cuts. The recurrence maximizes over
//! factored (ulp-accurate) values; the *reported* reliability of the
//! reconstructed mapping is then recomputed exactly through the oracle's
//! Eq. 9 path, so it always agrees bit-for-bit with
//! [`rpo_model::MappingEvaluation`].

use rpo_model::{Interval, IntervalOracle, MappedInterval, Mapping, Platform, TaskChain};
use serde::{Deserialize, Serialize};

use crate::{validate_period_bound, AlgoError, Result, SolveCtx};

/// A mapping together with the reliability the dynamic program computed for it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimalMapping {
    /// The reconstructed mapping.
    pub mapping: Mapping,
    /// Its reliability (Eq. 9), as computed by the dynamic program.
    pub reliability: f64,
}

/// Chunk width of the lane-chunked max-update: eight `f64`s, i.e. two AVX2
/// vectors or one AVX-512 vector — LLVM splits the fixed-size-array loops
/// into whatever width the target supports.
pub const LANES: usize = 8;

/// Reusable state of the dynamic program: the flat value arena, the per-row
/// block-reliability gather buffer, and the admissibility data (`in_ok`
/// boundary flags and per-row work-prefix cuts) that the period minimizer
/// warm-starts across its binary-search probes.
#[derive(Debug, Default)]
pub struct DpScratch {
    /// `f[i·stride + k]`: best reliability for the first `i` tasks on `k`
    /// processors (−∞ = unreachable).
    f: Vec<f64>,
    /// Per-row gather buffer of factored replica-block reliabilities.
    blocks: Vec<f64>,
    /// Per-row compacted admissible interval starts, descending.
    adm: Vec<u32>,
    /// Replicated reliabilities `1 − (1 − block)^q`, `q = 1..=K`, for each
    /// admissible start (parallel to `adm`, `K` entries per start).
    rels: Vec<f64>,
    /// Incoming-communication admissibility per interval start.
    in_ok: Vec<bool>,
    /// Per-row work-prefix partition points from the most recent bounded
    /// run: `pp[i]` = first index with `work_prefix ≥ work_prefix[i] − P·s`.
    /// Carried across period probes so the next run starts its cut walk
    /// from the previous answer instead of a fresh binary search.
    pp: Vec<usize>,
    /// The period bound `pp` was last derived for (`NAN` = never).
    prev_bound: f64,
    /// Shape of the last completed fill of `f`: number of rows (`n + 1`) and
    /// row stride (`p + 1`). Zero until the first sweep. The repair entry
    /// point checks this before reusing the grid — a scratch whose shape does
    /// not match the pre-delta instance silently falls back to a full solve.
    dp_rows: usize,
    dp_stride: usize,
    /// Pooled label arenas of the latency-bounded heterogeneous DP
    /// (`algo_het_lat`), so a scratch shared by the portfolio backends also
    /// amortizes the per-state label vectors across latency-bounded solves.
    pub(crate) het_lat: crate::algo_het_lat::HetLatArenas,
    /// Replica patterns of the last class shape the class DPs ran on. Kept
    /// by [`DpScratch::reset`]: the table depends only on the class member
    /// counts and the replication bound, and its per-solve speed fields are
    /// rewritten before every use.
    pub(crate) patterns: crate::algo_het::PatternTable,
}

impl DpScratch {
    /// Fresh scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        DpScratch {
            prev_bound: f64::NAN,
            ..DpScratch::default()
        }
    }

    /// Clears every instance-specific datum (admissibility flags, work-prefix
    /// cuts, warm-start bound) while **keeping the allocated capacity** of
    /// all arenas. This is what makes the scratch safe to pool across
    /// *different* instances of a batch: only the allocations are reused,
    /// never another instance's admissibility data.
    pub fn reset(&mut self) {
        self.f.clear();
        self.blocks.clear();
        self.adm.clear();
        self.rels.clear();
        self.in_ok.clear();
        self.pp.clear();
        self.prev_bound = f64::NAN;
        self.dp_rows = 0;
        self.dp_stride = 0;
        self.het_lat.reset();
    }
}

/// How a repair DP call obtained its answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmPath {
    /// The prior boundary grid was reused: re-picked directly after a
    /// platform shrink, or re-swept only above the first affected row after
    /// a work revision.
    ReusedGrid,
    /// The warm preconditions did not hold; a full cold sweep ran instead.
    Resolved,
}

impl SolveCtx<'_> {
    /// Algorithms 1 and 2: a mapping of maximal reliability on a fully
    /// homogeneous platform, in time `O(n² p K)` — among all mappings
    /// (`period_bound: None`, Algorithm 1), or among those whose worst-case
    /// period does not exceed the bound (`Some(bound)`, Algorithm 2).
    ///
    /// Runs in the context's scratch: repeated runs (a bound sweep, the
    /// period minimizer's probes) reuse the DP arenas and warm-start the
    /// admissible-interval cuts from the previous bounded run.
    ///
    /// # Errors
    ///
    /// * [`AlgoError::HeterogeneousPlatform`] if the platform is not
    ///   homogeneous (the dynamic program is only optimal in that case);
    /// * [`AlgoError::InvalidBound`] if the bound is not a positive finite
    ///   number;
    /// * [`AlgoError::NoFeasibleMapping`] if no partition of the chain
    ///   respects the period bound.
    pub fn reliability_dp(&mut self, period_bound: Option<f64>) -> Result<OptimalMapping> {
        let oracle = self.oracle();
        if !oracle.is_homogeneous() {
            return Err(AlgoError::HeterogeneousPlatform);
        }
        let bound = validate_period_bound(period_bound)?;
        let n = oracle.len();
        let p = oracle.num_processors();
        let _span = rpo_obs::span!("dp.kernel", rows = n, procs = p);
        rpo_obs::counter!("dp.kernel.row_sweeps").add(n as u64);
        let scratch = &mut *self.scratch;
        let stride = p + 1;
        scratch.f.clear();
        scratch.f.resize((n + 1) * stride, f64::NEG_INFINITY);
        scratch.f[0] = 1.0;
        scratch.dp_rows = n + 1;
        scratch.dp_stride = stride;
        chunked_sweep(oracle, bound, scratch, 1);
        self.traceback(bound, stride)
            .ok_or(AlgoError::NoFeasibleMapping)
    }

    /// Warm-started **repair** run of [`SolveCtx::reliability_dp`] after a
    /// [`rpo_model::PlatformDelta`], reusing the unchanged prefix of the
    /// boundary grid the pre-delta solve left in the context's scratch.
    ///
    /// `keep_rows` is the number of leading boundary rows of the prior grid
    /// known to be bit-valid for the post-delta instance — the
    /// `first_affected_task` of [`rpo_model::AppliedDelta`]:
    ///
    /// * **Platform shrink** (a processor failed on a homogeneous platform,
    ///   `keep_rows = n`): every row survives. `f[i][k]` — the best
    ///   reliability of the first `i` tasks on `k` processors — never depends
    ///   on how many processors exist beyond `k`, so the whole grid remains
    ///   exact for the smaller platform; the repair just re-picks the best
    ///   final state over `k ≤ p_new` and retraces through the old
    ///   (wider-stride) grid.
    /// * **Work revision of task `t`** (`keep_rows = t`): row `i` only reads
    ///   block reliabilities of intervals ending at task `i − 1`, which
    ///   involve only works of tasks `< i` — so rows `≤ t` are bit-identical
    ///   and only rows `t + 1 ..= n` are wiped and re-swept (same kernel,
    ///   same evaluation order, hence bit-identical to a cold solve).
    ///
    /// Falls back to a full cold solve — reported as [`WarmPath::Resolved`]
    /// — whenever the preconditions do not hold: scratch shape mismatch
    /// (never filled, or filled for a different `n`/`p`), or a platform
    /// shrink combined with row invalidation. **The caller must pass the
    /// same `period_bound` the scratch was filled under and must not reuse a
    /// grid across a factored-path flip** (see
    /// `AppliedDelta::factored_changed`) — the repair ladder in `rpo-repair`
    /// enforces both.
    ///
    /// # Errors
    ///
    /// Same as [`SolveCtx::reliability_dp`]; [`AlgoError::NoFeasibleMapping`]
    /// when every final state of the post-delta platform is unreachable.
    pub fn repair_reliability_dp(
        &mut self,
        period_bound: Option<f64>,
        keep_rows: usize,
    ) -> Result<(OptimalMapping, WarmPath)> {
        let oracle = self.oracle();
        let n = oracle.len();
        let p = oracle.num_processors();
        let scratch = &mut *self.scratch;
        let stride_prev = scratch.dp_stride;
        let shape_ok = scratch.dp_rows == n + 1
            && stride_prev > p
            && scratch.f.len() == scratch.dp_rows * stride_prev;
        if !shape_ok || (stride_prev > p + 1 && keep_rows < n) {
            return self
                .reliability_dp(period_bound)
                .map(|solution| (solution, WarmPath::Resolved));
        }
        let bound = validate_period_bound(period_bound)?;

        let _span = rpo_obs::span!("dp.repair", rows = n - keep_rows.min(n), procs = p);
        if stride_prev == p + 1 && keep_rows < n {
            // Wipe only the invalidated suffix of the grid and resweep it; the
            // kept rows are never touched, so they stay bit-identical.
            let row_lo = keep_rows + 1;
            for value in &mut scratch.f[row_lo * stride_prev..] {
                *value = f64::NEG_INFINITY;
            }
            rpo_obs::counter!("dp.kernel.row_sweeps").add((n - keep_rows) as u64);
            chunked_sweep(oracle, bound, scratch, row_lo);
        }

        // The traceback needs current admissibility flags (the scratch may hold
        // another probe's, and a shrink repair skips the sweep that would
        // rebuild them). Communication times are delta-invariant, so these are
        // the same comparisons the original sweep made.
        scratch.in_ok.clear();
        scratch
            .in_ok
            .extend((0..n).map(|j| oracle.input_comm_time(j) <= bound));
        self.traceback(bound, stride_prev)
            .map(|solution| (solution, WarmPath::ReusedGrid))
            .ok_or(AlgoError::NoFeasibleMapping)
    }

    /// Picks the best final state of the filled grid (row stride `stride`)
    /// and rebuilds its mapping by post-hoc candidate re-scan; `None` when
    /// every final state is unreachable.
    fn traceback(&mut self, bound: f64, stride: usize) -> Option<OptimalMapping> {
        let oracle = self.oracle();
        let n = oracle.len();
        let p = oracle.num_processors();
        let scratch = &mut *self.scratch;
        let best_k = best_final_state(&scratch.f[n * stride..], p)?;
        let mut segments: Vec<(usize, usize, usize)> = Vec::new(); // (first, last, replicas)
        let (mut i, mut k) = (n, best_k);
        while i > 0 {
            let (j, q) = recover_choice(oracle, bound, scratch, stride, i, k);
            segments.push((j, i - 1, q));
            i = j;
            k -= q;
        }
        Some(mapping_from_segments(
            segments,
            oracle,
            self.chain(),
            self.platform(),
        ))
    }
}

/// The best final state `k ∈ 1..=p` of a DP grid's last row, or `None` when
/// every final state is unreachable.
pub(crate) fn best_final_state(row_n: &[f64], p: usize) -> Option<usize> {
    let (best_k, best_rel) = (1..=p).map(|k| (k, row_n[k])).max_by(|a, b| {
        a.1.partial_cmp(&b.1)
            .expect("totally ordered reliabilities")
    })?;
    best_rel.is_finite().then_some(best_k)
}

/// Lowers traced-back `(first, last, replicas)` segments (collected from the
/// end of the chain) into a mapping, assigning processor identifiers in
/// order — the platform is homogeneous, so which processors are picked does
/// not matter — and reports the mapping's exact Eq. 9 reliability: the DP
/// maximized over factored values that can differ by an ulp, so the reported
/// value always matches the evaluator and can be fed back as a reliability
/// bound without borderline misses.
pub(crate) fn mapping_from_segments(
    mut segments: Vec<(usize, usize, usize)>,
    oracle: &IntervalOracle,
    chain: &TaskChain,
    platform: &Platform,
) -> OptimalMapping {
    segments.reverse();
    let mut next_processor = 0;
    let mapped = segments
        .into_iter()
        .map(|(first, last, q)| {
            let processors: Vec<usize> = (next_processor..next_processor + q).collect();
            next_processor += q;
            MappedInterval::new(Interval { first, last }, processors)
        })
        .collect();
    let mapping = Mapping::new(mapped, chain, platform)
        .expect("dynamic program only builds structurally valid mappings");
    let reliability = oracle.mapping_reliability(&mapping);
    OptimalMapping {
        mapping,
        reliability,
    }
}

/// The lane-chunked DP sweep. Per row `i`: derive the admissible start range
/// (warm-started work-prefix cut), gather the factored block reliabilities
/// of every candidate interval into `scratch.blocks`, compact the admissible
/// starts with their replication-level reliabilities, then run the `(q, k)`
/// max-update through the value-only [`lane_max_update`] kernel (traceback
/// winners are recovered on demand by [`recover_choice`]).
/// `row_lo` is the first row to (re)compute — 1 for a full sweep; the warm
/// repair path passes `keep_rows + 1` to resweep only the rows invalidated
/// by a task-work revision (rows below it keep their bit-identical values).
fn chunked_sweep(oracle: &IntervalOracle, bound: f64, scratch: &mut DpScratch, row_lo: usize) {
    let n = oracle.len();
    let p = oracle.num_processors();
    let k_max = oracle.max_replication().min(p);
    let speed = oracle.classes()[0].speed;
    let stride = p + 1;
    let work_prefix = oracle.work_prefix();
    let DpScratch {
        f,
        blocks,
        adm,
        rels,
        in_ok,
        pp,
        prev_bound,
        ..
    } = scratch;

    // Incoming-communication admissibility per interval start: exactly the
    // comparisons period_requirement makes (the boundary exponentials were
    // already hoisted into the oracle, so this is n comparisons).
    in_ok.clear();
    in_ok.extend((0..n).map(|j| oracle.input_comm_time(j) <= bound));
    // Warm-start the per-row work-prefix cuts from the previous bounded run
    // when its data is compatible; any stale cut is still a valid walk start,
    // so warmth affects speed only, never the result.
    let warm = prev_bound.is_finite() && pp.len() == n + 1;
    if !warm {
        pp.clear();
        pp.resize(n + 1, 0);
    }

    for i in row_lo..=n {
        if oracle.output_comm_time(i - 1) > bound {
            continue; // no interval ending at task i−1 fits the period
        }
        // Conservative first admissible start: the work prefix is strictly
        // increasing, so intervals starting before this point are too big.
        // The exact per-j division below keeps the semantics identical.
        let j_lo = if bound.is_finite() {
            let target = work_prefix[i] - bound * speed;
            let mut point = if warm {
                // Walk the previous probe's cut to the new target (the
                // neighbouring binary-search bound moved it only slightly).
                let mut point = pp[i].min(i);
                while point < i && work_prefix[point] < target {
                    point += 1;
                }
                while point > 0 && work_prefix[point - 1] >= target {
                    point -= 1;
                }
                point
            } else {
                work_prefix[..i].partition_point(|&w| w < target)
            };
            debug_assert_eq!(point, work_prefix[..i].partition_point(|&w| w < target));
            pp[i] = point;
            point = point.saturating_sub(1);
            point
        } else {
            0
        };
        // Gather phase: contiguous factored block reliabilities of every
        // interval `j ..= i−1` with `j ≥ j_lo` (pure multiplications over
        // the oracle's exponent prefixes — no transcendentals in the row),
        // then compact the admissible starts with their per-level replicated
        // reliabilities `1 − (1 − block)^q` (accumulated across q instead of
        // recomputing the power). Descending j: short last intervals (high
        // block reliability) come first, so most later candidates lose the
        // max immediately.
        oracle.fill_class_block_row(0, i - 1, j_lo, blocks);
        adm.clear();
        rels.clear();
        if bound.is_finite() {
            for j in (j_lo..i).rev() {
                if !in_ok[j] || oracle.work(j, i - 1) / speed > bound {
                    continue;
                }
                let block = blocks[j - j_lo];
                adm.push(j as u32);
                let mut all_fail = 1.0;
                for _ in 0..k_max {
                    all_fail *= 1.0 - block;
                    rels.push(1.0 - all_fail);
                }
            }
        } else {
            // Unbounded sweep (Algorithm 1): every interval is admissible —
            // no per-j comparisons or divisions in the gather at all.
            for j in (0..i).rev() {
                let block = blocks[j];
                adm.push(j as u32);
                let mut all_fail = 1.0;
                for _ in 0..k_max {
                    all_fail *= 1.0 - block;
                    rels.push(1.0 - all_fail);
                }
            }
        }
        if adm.is_empty() {
            continue;
        }
        // Split the arena so the target row and the predecessor rows can be
        // iterated as plain slices (j < i, so every predecessor is in `done`).
        let (done, rest) = f.split_at_mut(i * stride);
        let row_i = &mut rest[..stride];
        for (&j, jrels) in adm.iter().zip(rels.chunks_exact(k_max)) {
            let j = j as usize;
            let row_j = &done[j * stride..(j + 1) * stride];
            // Only k = q + prev with prev ∈ [min_prev, max_prev] can
            // improve: j tasks occupy between 1 (j > 0) and min(p, j·K)
            // processors. Inside that window the kernel relies on the −∞
            // sentinels of unreachable predecessor states instead of
            // per-level range checks.
            let min_prev = usize::from(j > 0);
            let max_prev = (j * k_max).min(p);
            lane_max_update(row_j, row_i, min_prev + 1, (max_prev + k_max).min(p), jrels);
        }
    }
    if bound.is_finite() {
        *prev_bound = bound;
    }
}

/// Branch-light chunked max-update over one predecessor boundary `j`: for
/// every state `k \u{2208} [k_lo, k_hi]` and replication level `q`,
/// `row_i[k] = max(row_i[k], row_j[k \u{2212} q]\u{b7}rels[q\u{2212}1])`.
///
/// The hot loop is **value-only** \u{2014} no traceback bookkeeping: winners are
/// recovered after the sweep by [`recover_choice`], so each lane costs one
/// multiply and one max (`vmulpd` + `vmaxpd` once vectorized) instead of a
/// compare plus two selects. The `q` levels are fused into one pass over
/// `k`: each chunk loads a fixed-width `[f64; LANES]` window of the target
/// row once, folds every replication level into it (contiguous shifted loads
/// from `row_j`, no data-dependent branches), and stores it once \u{2014} the
/// shape LLVM auto-vectorizes. Out-of-window `(k, q)` combinations read `\u{2212}\u{221e}`
/// predecessor sentinels and lose every comparison, so no per-`q` range
/// logic survives in the hot loop. The final chunk **overlaps backward**
/// instead of falling off to a scalar tail: re-folding an already-folded
/// state is a no-op under `max`, so overlap changes nothing but keeps every
/// state on the vector path.
#[inline]
fn lane_max_update(row_j: &[f64], row_i: &mut [f64], k_lo: usize, k_hi: usize, rels: &[f64]) {
    let k_max = rels.len();
    if k_lo > k_hi {
        return;
    }
    let mut k = k_lo;
    // Scalar prefix: states where some level would index before the row
    // start (replication capped at q \u{2264} k instead).
    while k <= k_hi && k < k_max {
        update_state(row_j, row_i, k, &rels[..k]);
        k += 1;
    }
    if k > k_hi {
        return;
    }
    if k_hi + 1 - k < LANES {
        // The remaining window is narrower than one lane: finish scalar.
        while k <= k_hi {
            update_state(row_j, row_i, k, rels);
            k += 1;
        }
        return;
    }
    loop {
        // Advance in full lanes; the final chunk is clamped to end exactly
        // at k_hi, overlapping states the previous chunk already folded.
        let start = k.min(k_hi + 1 - LANES);
        let mut val: [f64; LANES] = row_i[start..start + LANES]
            .try_into()
            .expect("lane-width chunk");
        for (level, &rel) in rels.iter().enumerate() {
            let lo = start - (level + 1);
            let src: [f64; LANES] = row_j[lo..lo + LANES].try_into().expect("lane-width chunk");
            for l in 0..LANES {
                let cand = src[l] * rel;
                val[l] = if cand > val[l] { cand } else { val[l] };
            }
        }
        row_i[start..start + LANES].copy_from_slice(&val);
        if start + LANES > k_hi {
            return;
        }
        k = start + LANES;
    }
}

/// One state's value-only fold across the given replication levels.
#[inline]
fn update_state(row_j: &[f64], row_i: &mut [f64], k: usize, rels: &[f64]) {
    let mut val = row_i[k];
    for (level, &rel) in rels.iter().enumerate() {
        let cand = row_j[k - (level + 1)] * rel;
        if cand > val {
            val = cand;
        }
    }
    row_i[k] = val;
}

/// Recovers the winning `(j, q)` choice of the reachable state `(i, k)` by
/// re-scanning the row's candidates **in sweep order** (descending `j`,
/// ascending `q`) for the first one equal to `f[i][k]`.
///
/// The sweep's `max` keeps the first candidate (in evaluation order)
/// attaining the maximum, and the candidate values recomputed here go
/// through the same gather (`fill_class_block_row`) and the same
/// `(1 \u{2212} block)^q` accumulation, so the comparison is bit-exact and the
/// recovered winner is identical to what an in-loop traceback record \u{2014} or
/// the scalar reference sweep \u{2014} would produce. Cost: `O(i\u{b7}K)` per segment
/// of the reconstructed mapping, paid only along the optimal path instead
/// of bookkeeping every state of the `O(n\u{b2} p K)` sweep.
///
/// `stride` is the row stride of `scratch.f` — `p + 1` on the normal path,
/// but the **pre-delta** `p_old + 1` when the shrunken-platform repair path
/// tracebacks through a grid filled before a processor failure (the grid
/// rows stay valid for any `k ≤ p_new`; only their layout remembers the old
/// platform width).
fn recover_choice(
    oracle: &IntervalOracle,
    bound: f64,
    scratch: &mut DpScratch,
    stride: usize,
    i: usize,
    k: usize,
) -> (usize, usize) {
    let p = oracle.num_processors();
    let k_max = oracle.max_replication().min(p);
    let speed = oracle.classes()[0].speed;
    let work_prefix = oracle.work_prefix();
    let j_lo = if bound.is_finite() {
        work_prefix[..i]
            .partition_point(|&w| w < work_prefix[i] - bound * speed)
            .saturating_sub(1)
    } else {
        0
    };
    oracle.fill_class_block_row(0, i - 1, j_lo, &mut scratch.blocks);
    let target = scratch.f[i * stride + k];
    for j in (j_lo..i).rev() {
        if bound.is_finite() && (!scratch.in_ok[j] || oracle.work(j, i - 1) / speed > bound) {
            continue;
        }
        let block = scratch.blocks[j - j_lo];
        let row_j = &scratch.f[j * stride..(j + 1) * stride];
        let mut all_fail = 1.0;
        for q in 1..=k_max.min(k) {
            all_fail *= 1.0 - block;
            if row_j[k - q] * (1.0 - all_fail) == target {
                return (j, q);
            }
        }
    }
    unreachable!("every reachable DP state has a winning candidate")
}

/// Algorithm 1: computes a mapping of maximal reliability on a fully
/// homogeneous platform, in time `O(n² p K)`. A shim over
/// [`SolveCtx::reliability_dp`] with a fresh context.
///
/// # Errors
///
/// Returns [`AlgoError::HeterogeneousPlatform`] if the platform is not
/// homogeneous (the dynamic program is only optimal in the homogeneous case).
pub fn optimize_reliability_homogeneous(
    chain: &TaskChain,
    platform: &Platform,
) -> Result<OptimalMapping> {
    SolveCtx::fresh(chain, platform, |ctx| ctx.reliability_dp(None))
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn rejects_heterogeneous_platform() {
        let c = chain();
        let p = PlatformBuilder::new()
            .processor(1.0, 1e-3)
            .processor(2.0, 1e-3)
            .max_replication(2)
            .build()
            .unwrap();
        assert_eq!(
            optimize_reliability_homogeneous(&c, &p).unwrap_err(),
            AlgoError::HeterogeneousPlatform
        );
    }

    #[test]
    fn reported_reliability_matches_evaluation_of_returned_mapping() {
        let c = chain();
        let p = platform(6, 3);
        let sol = optimize_reliability_homogeneous(&c, &p).unwrap();
        let eval = MappingEvaluation::evaluate(&c, &p, &sol.mapping);
        assert!((sol.reliability - eval.reliability).abs() < 1e-12);
    }

    #[test]
    fn single_processor_forces_single_unreplicated_interval() {
        let c = chain();
        let p = platform(1, 3);
        let sol = optimize_reliability_homogeneous(&c, &p).unwrap();
        assert_eq!(sol.mapping.num_intervals(), 1);
        assert_eq!(sol.mapping.processors_used(), 1);
    }

    #[test]
    fn plenty_of_processors_replicates_every_interval_k_times() {
        let c = chain();
        let p = platform(12, 3);
        let sol = optimize_reliability_homogeneous(&c, &p).unwrap();
        for mi in sol.mapping.intervals() {
            assert_eq!(mi.replication(), 3);
        }
    }

    #[test]
    fn optimum_matches_brute_force_on_small_instance() {
        let c = TaskChain::from_pairs(&[(30.0, 2.0), (10.0, 8.0), (25.0, 1.0)]).unwrap();
        let p = platform(4, 2);
        let sol = optimize_reliability_homogeneous(&c, &p).unwrap();
        let brute = crate::exact::brute_force(&c, &p, f64::INFINITY, f64::INFINITY).unwrap();
        assert!((sol.reliability - brute.reliability).abs() < 1e-12);
    }

    #[test]
    fn more_processors_never_hurt_reliability() {
        let c = chain();
        let mut previous = 0.0;
        for p_count in 1..=8 {
            let p = platform(p_count, 3);
            let sol = optimize_reliability_homogeneous(&c, &p).unwrap();
            assert!(sol.reliability >= previous - 1e-15);
            previous = sol.reliability;
        }
    }

    #[test]
    fn context_entry_point_matches_the_wrapper() {
        let c = chain();
        let p = platform(6, 3);
        let oracle = IntervalOracle::new(&c, &p);
        let mut scratch = DpScratch::new();
        let direct = optimize_reliability_homogeneous(&c, &p).unwrap();
        let via_ctx = SolveCtx::new(&c, &p, &oracle, &mut scratch)
            .reliability_dp(None)
            .unwrap();
        assert_eq!(direct.reliability, via_ctx.reliability);
        assert_eq!(direct.mapping, via_ctx.mapping);
    }

    #[test]
    fn chunked_and_scalar_kernels_agree_on_fixture() {
        let c = chain();
        for p_count in 1..=8 {
            for k in 1..=3 {
                let p = platform(p_count, k);
                let oracle = IntervalOracle::new(&c, &p);
                let mut scratch = DpScratch::new();
                let mut ctx = SolveCtx::new(&c, &p, &oracle, &mut scratch);
                for bound in [None, Some(40.0), Some(45.0), Some(70.0), Some(1e6)] {
                    let chunked = ctx.reliability_dp(bound).ok();
                    let scalar = crate::reference::reliability_dp(&ctx, bound);
                    match (chunked, scalar) {
                        (Some(a), Some(b)) => {
                            assert!((a.reliability - b.reliability).abs() < 1e-12);
                            assert_eq!(a.mapping, b.mapping, "kernels picked different mappings");
                        }
                        (None, None) => {}
                        (a, b) => panic!(
                            "kernel feasibility mismatch at p={p_count} k={k} bound={bound:?}: \
                             chunked={} scalar={}",
                            a.is_some(),
                            b.is_some()
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_across_bounds_matches_fresh_runs() {
        let c = chain();
        let p = platform(6, 3);
        let oracle = IntervalOracle::new(&c, &p);
        let mut scratch = DpScratch::new();
        let mut warm_ctx = SolveCtx::new(&c, &p, &oracle, &mut scratch);
        // Bounds in binary-search-like (non-monotone) order.
        for bound in [105.0, 45.0, 70.0, 40.0, 1e9, 41.0] {
            let warm = warm_ctx.reliability_dp(Some(bound));
            let fresh = SolveCtx::fresh(&c, &p, |ctx| ctx.reliability_dp(Some(bound)));
            assert_eq!(
                warm.map(|s| (s.reliability, s.mapping)),
                fresh.map(|s| (s.reliability, s.mapping)),
                "warm scratch diverged at bound {bound}"
            );
        }
    }

    #[test]
    fn oracle_replicated_reliability_includes_communications() {
        let c = chain();
        let p = platform(4, 3);
        let oracle = IntervalOracle::new(&c, &p);
        let r1 = oracle.replicated_reliability(1, 2, 1);
        // Manual: in-comm o_0 = 2, W = 35, out-comm o_2 = 1.
        let expected = (-1e-4f64 * 2.0).exp() * (-1e-3f64 * 35.0).exp() * (-1e-4f64 * 1.0).exp();
        assert!((r1 - expected).abs() < 1e-12);
        let r2 = oracle.replicated_reliability(1, 2, 2);
        assert!((r2 - (1.0 - (1.0 - expected).powi(2))).abs() < 1e-12);
        assert!(r2 > r1);
    }
}
