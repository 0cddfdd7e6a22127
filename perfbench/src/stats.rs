//! Sample statistics: nearest-rank percentiles that refuse to report a
//! percentile the sample cannot support, plus small numeric helpers.

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it; otherwise it is a single outlier, not a tail.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile (`0 < q < 1`) of an ascending slice, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond the selected rank.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The highest quantile at most `q` that the sample supports: `q` itself
/// when [`percentile`] can report it, else the quantile that leaves exactly
/// [`MIN_BEYOND`] samples beyond it (never below the median). `None` only
/// for samples too small to support a median.
pub fn supported_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    percentile(sorted, q).or_else(|| {
        let n = sorted.len();
        let rank = n.checked_sub(MIN_BEYOND)?;
        (rank >= n.div_ceil(2) && rank >= 1).then(|| sorted[rank - 1])
    })
}

/// Samples per window of [`windowed_tail`]: exactly ten lie beyond each
/// window's p99.
pub const TAIL_WINDOW: usize = 1000;

/// The p99 of a sample kept in arrival order, made robust to one stall:
/// the median, over consecutive windows of [`TAIL_WINDOW`] samples, of each
/// window's p99 (a trailing partial window is dropped). A sample shorter
/// than one window gets its deepest supported percentile instead. Returns
/// `(value, quantile, windows)`.
pub fn windowed_tail(in_order: &[f64]) -> Option<(f64, f64, usize)> {
    let windows = in_order.len() / TAIL_WINDOW;
    if windows == 0 {
        let sorted = sorted(in_order);
        let value = supported_percentile(&sorted, 0.99)?;
        let level = sorted.len().saturating_sub(MIN_BEYOND) as f64 / sorted.len() as f64;
        return Some((value, level.min(0.99), 0));
    }
    let tails: Vec<f64> = in_order
        .chunks_exact(TAIL_WINDOW)
        .map(|window| percentile(&sorted(window), 0.99).expect("a full window supports p99"))
        .collect();
    Some((median(&tails), 0.99, windows))
}

/// Median of an unsorted sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// Arithmetic mean (`0` for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// An ascending copy of `values` (NaNs sort last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// `numerator / denominator`, or `0` when the denominator is zero.
pub fn share(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, ten samples (991..=1000) beyond.
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        // 999 samples: rank 990 leaves only nine beyond.
        assert_eq!(percentile(&ramp(999), 0.99), None);
        // 2000 samples: rank 1980, twenty beyond.
        assert_eq!(percentile(&ramp(2000), 0.99), Some(1980.0));
    }

    #[test]
    fn median_rank_is_nearest_rank() {
        assert_eq!(percentile(&ramp(100), 0.5), Some(50.0));
        assert_eq!(percentile(&ramp(21), 0.5), Some(11.0));
        // 19 samples: rank 10 leaves nine beyond.
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn supported_percentile_falls_back_to_the_deepest_supported_rank() {
        // 500 samples cannot support p99; the deepest supported rank leaves
        // exactly ten beyond it.
        assert_eq!(supported_percentile(&ramp(500), 0.99), Some(490.0));
        assert_eq!(supported_percentile(&ramp(5000), 0.99), Some(4950.0));
        // Too small to support anything at or above the median.
        assert_eq!(supported_percentile(&ramp(12), 0.99), None);
    }

    #[test]
    fn windowed_tail_ignores_a_stall_in_one_window() {
        // Three windows of 1000; the middle one holds a 50-sample stall.
        let mut samples: Vec<f64> = (0..3000).map(|i| (i % 1000) as f64 / 100.0).collect();
        for sample in &mut samples[1200..1250] {
            *sample = 500.0;
        }
        let (value, level, windows) = windowed_tail(&samples).unwrap();
        assert_eq!((level, windows), (0.99, 3));
        assert_eq!(value, 9.89);
        // The pooled p99 is pulled up by the stall.
        assert_eq!(percentile(&sorted(&samples), 0.99), Some(500.0));
    }

    #[test]
    fn windowed_tail_falls_back_below_one_window() {
        let (value, level, windows) = windowed_tail(&ramp(500)).unwrap();
        assert_eq!((value, windows), (490.0, 0));
        assert!((level - 0.98).abs() < 1e-12);
        assert_eq!(windowed_tail(&ramp(15)), None);
    }

    #[test]
    fn medians_and_means() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(share(1.0, 0.0), 0.0);
    }
}
