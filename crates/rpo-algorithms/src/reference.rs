//! Scalar reference implementations of the crate's dynamic programs: the
//! pre-chunking Algorithm 1/2 sweep and the original per-state class DP of
//! `algo_het`, each recording explicit traceback choices inline.
//!
//! Production never calls these. They exist so the equivalence tests and
//! the kernel benchmark can compare the lane-chunked kernels
//! ([`SolveCtx::reliability_dp`], [`SolveCtx::class_dp`]) against the
//! straightforward formulation they replaced: both sides maximize over
//! bit-identical candidate values and recover bit-identical traceback
//! choices, so they must return equal mappings.

use rpo_model::{assignment_from_segments, IntervalOracle};

use crate::algo1::{best_final_state, mapping_from_segments, OptimalMapping};
use crate::algo_het::{budget_states, enumerate_patterns};
use crate::SolveCtx;

/// Sentinel for "no recorded choice" in the flat traceback arena of
/// [`reliability_dp`]. The arena stores packed `(j, q)` choices as `f64`
/// (exact: they fit in 32 bits, far below 2^53) so the sweep's
/// compare-and-select lanes are homogeneous `f64` operations.
const NO_CHOICE: f64 = u32::MAX as f64;

/// No recorded choice sentinel of [`class_dp`]'s packed `(j, pattern)`
/// traceback.
const NO_CLASS_CHOICE: u64 = u64::MAX;

/// The scalar Algorithm 1/2 dynamic program (`period_bound: None` is
/// Algorithm 1): per-row factored exponent products computed inline, a
/// branchy per-`k` max-update, and an explicit traceback arena. Returns
/// `None` when no mapping fits the bound. The platform must be homogeneous
/// and the bound `None` or positive (not re-checked here).
pub fn reliability_dp(ctx: &SolveCtx<'_>, period_bound: Option<f64>) -> Option<OptimalMapping> {
    let oracle = ctx.oracle();
    let n = oracle.len();
    let p = oracle.num_processors();
    assert!(
        oracle.max_replication().min(p) <= 0xFF && n < (1 << 24),
        "packed traceback supports K ≤ 255 and n < 2^24"
    );
    let bound = period_bound.unwrap_or(f64::INFINITY);
    let stride = p + 1;
    let mut f = vec![f64::NEG_INFINITY; (n + 1) * stride];
    f[0] = 1.0;
    let mut choice = vec![NO_CHOICE; (n + 1) * stride];
    scalar_sweep(oracle, bound, &mut f, &mut choice);

    let best_k = best_final_state(&f[n * stride..], p)?;
    let mut segments: Vec<(usize, usize, usize)> = Vec::new(); // (first, last, replicas)
    let (mut i, mut k) = (n, best_k);
    while i > 0 {
        let packed_f = choice[i * stride + k];
        debug_assert!(
            packed_f != NO_CHOICE,
            "reachable state has a recorded choice"
        );
        let packed = packed_f as u32; // exact: integral and < 2^32
        let (j, q) = ((packed >> 8) as usize, (packed & 0xFF) as usize);
        segments.push((j, i - 1, q));
        i = j;
        k -= q;
    }
    Some(mapping_from_segments(
        segments,
        oracle,
        ctx.chain(),
        ctx.platform(),
    ))
}

/// The scalar class-level dynamic program of `algo_het` (the original
/// per-state list walk with inline choice recording): same contract as
/// [`SolveCtx::class_dp`] — `None` when nothing feasible under the bound
/// survives the greedy `incumbent` cut (pass `0.0` to disable pruning).
///
/// The admissibility prelude and block-row gather are mirrored by
/// `algo_het_lat`'s `label_dp` and `penalized_dp`, and by the chunked
/// kernel in [`crate::het_kernel`] — the DPs differ in their value type,
/// so a fix to the shared shape must land in all of them.
pub fn class_dp(
    ctx: &SolveCtx<'_>,
    period_bound: Option<f64>,
    incumbent: f64,
) -> Option<OptimalMapping> {
    let (oracle, chain, platform) = (ctx.oracle(), ctx.chain(), ctx.platform());
    let n = oracle.len();
    let view = oracle.class_view();
    let kc = view.len();
    let k_max = oracle.max_replication().min(oracle.num_processors());

    let num_states = budget_states(view);
    let patterns = enumerate_patterns(view, k_max);
    assert!(
        patterns.len() < (1 << 32) && n < (1 << 24),
        "packed het traceback supports < 2^32 patterns and n < 2^24"
    );

    let bound = period_bound.unwrap_or(f64::INFINITY);
    // Any DP prefix strictly below the incumbent can never catch up (every
    // later factor is ≤ 1); a hair of slack keeps factored-vs-exact ulp
    // differences from over-pruning.
    let prune_below = incumbent * (1.0 - 1e-9);
    let work_prefix = oracle.work_prefix();
    let max_speed = view.max_speed();
    let in_ok: Vec<bool> = (0..n).map(|j| oracle.input_comm_time(j) <= bound).collect();

    let full = num_states - 1; // every budget digit at its maximum m_c
    let mut f = vec![f64::NEG_INFINITY; (n + 1) * num_states];
    let mut choice = vec![NO_CLASS_CHOICE; (n + 1) * num_states];
    f[full] = 1.0;

    // Per-class block-row gather buffers and per-class failure powers
    // (1 − block)^q, reused across rows.
    let mut rows: Vec<Vec<f64>> = vec![Vec::new(); kc];
    let mut powers: Vec<Vec<f64>> = vec![vec![1.0; k_max + 1]; kc];

    for i in 1..=n {
        if oracle.output_comm_time(i - 1) > bound {
            continue; // no interval ending at task i−1 fits the period
        }
        // Conservative first admissible start: even the fastest class cannot
        // fit longer intervals within the bound.
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
                continue; // admissible for no pattern at all
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
                let survive: f64 = pattern
                    .counts
                    .iter()
                    .enumerate()
                    .map(|(c, &qc)| powers[c][qc])
                    .product();
                let rel = 1.0 - survive;
                let packed = (j as u64) << 32 | pattern_index as u64;
                for &s in &pattern.valid_predecessors {
                    let s = s as usize;
                    let prev = row_j[s];
                    if prev.is_finite() {
                        let cand = prev * rel;
                        let target = s - pattern.offset;
                        if cand > row_i[target] && cand >= prune_below {
                            row_i[target] = cand;
                            choice[choice_base + target] = packed;
                        }
                    }
                }
            }
        }
    }

    // Best over every remaining-budget state at the final boundary.
    let row_n = &f[n * num_states..];
    let (best_state, best_rel) = row_n
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("totally ordered reliabilities"))
        .map(|(s, &r)| (s, r))?;
    if !best_rel.is_finite() {
        return None;
    }

    // Traceback into class-level segments, then lower deterministically.
    let mut segments: Vec<(usize, usize, Vec<usize>)> = Vec::new();
    let (mut i, mut s) = (n, best_state);
    while i > 0 {
        let packed = choice[i * num_states + s];
        debug_assert!(
            packed != NO_CLASS_CHOICE,
            "reachable state has a recorded choice"
        );
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
        .lower(view, &partition, chain, platform)
        .expect("DP respects every class budget");
    // Report the exact Eq. 9 reliability of the lowered mapping (the DP
    // maximized over factored values that can differ by an ulp).
    let reliability = oracle.mapping_reliability(&mapping);
    Some(OptimalMapping {
        mapping,
        reliability,
    })
}

/// The scalar sweep behind [`reliability_dp`].
fn scalar_sweep(oracle: &IntervalOracle, bound: f64, f: &mut [f64], choice: &mut [f64]) {
    let n = oracle.len();
    let p = oracle.num_processors();
    let k_max = oracle.max_replication().min(p);
    let speed = oracle.classes()[0].speed;
    let stride = p + 1;
    // Incoming-communication admissibility per interval start, shared by
    // every row (these are exactly the comparisons period_requirement makes).
    let in_ok: Vec<bool> = (0..n).map(|j| oracle.input_comm_time(j) <= bound).collect();
    let work_prefix = oracle.work_prefix();

    // Factored interval reliability: exp(−ρ(W_i − W_j)) = exp(−ρW_i)·exp(ρW_j)
    // over the log-reliability exponent prefix, turning the n²/2 per-interval
    // `exp`s into 2(n+1). Only safe while the exponents stay small (they are
    // for any instance whose reliabilities are not denormal-degenerate);
    // otherwise fall back to one exact `exp` per admissible interval.
    let class = oracle.classes()[0];
    let rho = class.failure_rate / class.speed;
    let factored = rho * oracle.total_work() <= 40.0;
    let (e_minus, e_plus): (Vec<f64>, Vec<f64>) = if factored {
        (
            work_prefix.iter().map(|&w| (-rho * w).exp()).collect(),
            work_prefix.iter().map(|&w| (rho * w).exp()).collect(),
        )
    } else {
        (Vec::new(), Vec::new())
    };

    for i in 1..=n {
        if oracle.output_comm_time(i - 1) > bound {
            continue; // no interval ending at task i−1 fits the period
        }
        let out_rel = oracle.output_comm_reliability(i - 1);
        let j_lo = if bound.is_finite() {
            work_prefix[..i]
                .partition_point(|&w| w < work_prefix[i] - bound * speed)
                .saturating_sub(1)
        } else {
            0
        };
        let (done, rest) = f.split_at_mut(i * stride);
        let row_i = &mut rest[..stride];
        let choices = i * stride;
        for j in (j_lo..i).rev() {
            if !in_ok[j] || oracle.work(j, i - 1) / speed > bound {
                continue;
            }
            let block = if factored {
                oracle.input_comm_reliability(j) * (e_minus[i] * e_plus[j]) * out_rel
            } else {
                oracle.class_block_reliability(0, j, i - 1)
            };
            let row_j = &done[j * stride..(j + 1) * stride];
            let min_prev = usize::from(j > 0);
            let max_prev = (j * k_max).min(p);
            let mut all_fail = 1.0;
            for q in 1..=k_max {
                all_fail *= 1.0 - block;
                let rel_interval = 1.0 - all_fail;
                let hi = max_prev.min(p - q);
                if min_prev > hi {
                    continue;
                }
                let base = q + min_prev;
                let packed = ((j as u32) << 8 | q as u32) as f64;
                for (offset, &prev) in row_j[min_prev..=hi].iter().enumerate() {
                    let rel = prev * rel_interval;
                    let k = base + offset;
                    if rel > row_i[k] {
                        row_i[k] = rel;
                        choice[choices + k] = packed;
                    }
                }
            }
        }
    }
}
