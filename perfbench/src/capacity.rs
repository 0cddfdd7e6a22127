//! Capacity search: the highest offered rate at which the tail latency
//! stays within the limit, errors stay rare and the backlog does not grow.
//!
//! The ladder of rates is fixed (a function of the frozen `heavy` rate
//! only), so every commit climbs the same rungs; the search stops at the
//! first rung that fails and interpolates inside the last bracket on the
//! tail latency. A rung fails only when [`ATTEMPTS`] attempts in a row at
//! the same rate fail, so one stall of a shared host does not end the
//! search.

/// The outcome of one rung.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// Offered rate, per second.
    pub rate: f64,
    /// Tail latency of the rung, in ms (failed requests count as missing
    /// the limit).
    pub tail_ms: f64,
    /// Whether the rung met every condition.
    pub passed: bool,
}

/// The rungs climbed and the capacity they imply.
#[derive(Debug, Clone, PartialEq)]
pub struct Search {
    /// Every rung run, in order; only the last one can have failed.
    pub steps: Vec<Step>,
    /// Estimated capacity, per second (never zero).
    pub capacity: f64,
}

/// The fixed ladder: `start + step·k` for `k = 0..=extra`.
pub fn ladder(start: f64, step: f64, extra: usize) -> Vec<f64> {
    (0..=extra).map(|k| start + step * k as f64).collect()
}

/// Whether the queue grew over a rung: the median latency of its last
/// quarter of requests (in schedule order) is over the limit. A queue that
/// keeps growing delays the latest requests most; one stall does not move
/// the median of a quarter.
pub fn backlog_grows(in_order: &[f64], limit_ms: f64) -> bool {
    let last = &in_order[in_order.len() * 3 / 4..];
    !last.is_empty() && crate::stats::median(last) > limit_ms
}

/// Attempts at a rung before it counts as failed.
pub const ATTEMPTS: usize = 3;

/// Climbs `rates` in order, running `step(index, rate, attempt)` for each
/// rung, and stops at the first rung whose attempts all fail (the failed
/// rung keeps the best of its tails).
pub fn search(
    rates: &[f64],
    limit_ms: f64,
    mut step: impl FnMut(usize, f64, usize) -> Step,
) -> Search {
    let mut steps = Vec::new();
    for (index, &rate) in rates.iter().enumerate() {
        let mut outcome = step(index, rate, 0);
        for attempt in 1..ATTEMPTS {
            if outcome.passed {
                break;
            }
            let again = step(index, rate, attempt);
            outcome = Step {
                tail_ms: outcome.tail_ms.min(again.tail_ms),
                ..again
            };
        }
        steps.push(outcome);
        if !outcome.passed {
            break;
        }
    }
    let capacity = estimate(&steps, limit_ms);
    Search { steps, capacity }
}

/// Capacity from the rungs run: inside the bracket of the last passing and
/// the first failing rung, linear in the tail latency (a failing tail is
/// capped at four limits, so one pathological rung cannot pin the estimate
/// to the bracket's floor). With no failing rung the top rung is reported;
/// with a failing first rung, its rate scaled down by how far its tail
/// overshot the limit.
pub fn estimate(steps: &[Step], limit_ms: f64) -> f64 {
    match steps.iter().position(|s| !s.passed) {
        None => steps.last().map_or(0.0, |s| s.rate),
        Some(0) => steps[0].rate * (limit_ms / steps[0].tail_ms.max(limit_ms)),
        Some(i) => {
            let (pass, fail) = (steps[i - 1], steps[i]);
            let fail_tail = fail.tail_ms.min(4.0 * limit_ms);
            let span = fail_tail - pass.tail_ms;
            let fraction = if span > 0.0 {
                ((limit_ms - pass.tail_ms) / span).clamp(0.0, 1.0)
            } else {
                0.0
            };
            pass.rate + (fail.rate - pass.rate) * fraction
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake system whose tail latency grows with load and fails above
    /// `saturation`.
    fn fake(saturation: f64) -> impl FnMut(usize, f64, usize) -> Step {
        move |_, rate, _| {
            let tail_ms = 25.0 * rate / saturation;
            Step {
                rate,
                tail_ms,
                passed: rate <= saturation,
            }
        }
    }

    #[test]
    fn a_growing_queue_is_told_from_a_stall() {
        let stall: Vec<f64> = (0..400)
            .map(|i| if i == 350 { 900.0 } else { 2.0 })
            .collect();
        assert!(!backlog_grows(&stall, 25.0));
        let growing: Vec<f64> = (0..400).map(|i| i as f64 / 10.0).collect();
        assert!(backlog_grows(&growing, 25.0));
        assert!(!backlog_grows(&[], 25.0));
    }

    #[test]
    fn ladder_is_fixed_by_the_heavy_rate() {
        let rates = ladder(300.0, 30.0, 3);
        let expected = [300.0, 330.0, 360.0, 390.0];
        assert_eq!(rates.len(), expected.len());
        for (rate, want) in rates.iter().zip(expected) {
            assert!((rate - want).abs() < 1e-9, "{rate} != {want}");
        }
    }

    #[test]
    fn search_stops_at_the_first_failing_step() {
        let rates = ladder(300.0, 30.0, 10);
        let mut calls = Vec::new();
        let mut system = fake(345.0);
        let result = search(&rates, 25.0, |index, rate, attempt| {
            calls.push((index, attempt));
            system(index, rate, attempt)
        });
        // 300 and 330 pass; 360 fails every attempt and is the last rung.
        assert_eq!(calls, vec![(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)]);
        assert_eq!(result.steps.len(), 3);
        assert!(result.steps[..2].iter().all(|s| s.passed));
        assert!(!result.steps[2].passed);
        assert!(result.capacity >= 330.0 && result.capacity <= 360.0);
    }

    #[test]
    fn a_rung_that_passes_on_its_second_attempt_does_not_end_the_search() {
        let rates = ladder(300.0, 30.0, 3);
        // One stall: the first attempt at 330 fails.
        let result = search(&rates, 25.0, |index, rate, attempt| Step {
            rate,
            tail_ms: 10.0,
            passed: !(index == 1 && attempt == 0) && rate < 380.0,
        });
        assert_eq!(result.steps.len(), 4);
        assert!(result.steps[1].passed);
        assert!(!result.steps[3].passed);
    }

    #[test]
    fn a_failing_first_rung_still_reports_a_positive_capacity() {
        let result = search(&[100.0, 200.0], 25.0, |_, rate, _| Step {
            rate,
            tail_ms: 100.0,
            passed: false,
        });
        assert_eq!(result.steps.len(), 1);
        assert_eq!(result.capacity, 25.0);
    }

    #[test]
    fn an_exhausted_ladder_reports_its_top_rung() {
        let rates = ladder(20.0, 10.0, 2);
        let result = search(&rates, 25.0, fake(1e9));
        assert_eq!(result.steps.len(), 3);
        assert_eq!(result.capacity, 40.0);
    }
}
