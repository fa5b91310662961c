//! Summary statistics for timing samples.
//!
//! A timing is reported as its median plus the *tail*: the highest
//! percentile of a fixed ladder that still has at least ten samples beyond
//! it, together with the sample count, so a p99.9 is never quoted from a
//! few hundred samples.

/// Percentile ladder searched for the reportable tail, highest last.
const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie strictly beyond a quoted percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (0–100) among `n > 0` samples:
/// `⌈p·n/100⌉`, clamped to `1..=n`. The small slack keeps exact products
/// such as 99.9 % of 10000 from rounding up past 9990.
fn nearest_rank(n: usize, p: f64) -> usize {
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    rank.clamp(1, n)
}

/// Nearest-rank percentile `p` (0–100) of `sorted` (ascending).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Number of samples strictly beyond the nearest-rank percentile `p`.
fn beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| n > 0 && beyond(n, p) >= TAIL_MIN_BEYOND)
}

/// Median, reportable tail and count of one sample set.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Median (nearest rank).
    pub median: f64,
    /// `(percentile, value)` of the reportable tail, if any.
    pub tail: Option<(f64, f64)>,
    /// Number of samples.
    pub count: usize,
}

/// Summarises `samples` (any order); `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail = tail_percentile(sorted.len()).map(|p| (p, percentile(&sorted, p)));
    Some(Summary {
        median: percentile(&sorted, 50.0),
        tail,
        count: sorted.len(),
    })
}

/// Nearest-rank percentile `p` (0–100) of `samples` (any order), `0.0`
/// when empty.
pub fn percentile_of(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        0.0
    } else {
        percentile(&sorted, p)
    }
}

/// Median of `samples`, `0.0` when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile_of(samples, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // Fewer than 20 samples: not even the median has 10 beyond it.
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        // p90 needs n - ceil(0.9 n) >= 10, i.e. n >= 100.
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        // p99 from 1000 samples, p99.9 from 10000, p99.99 from 100000.
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        let s = summarize(&v).expect("samples");
        assert_eq!(s.count, 1000);
        assert_eq!(s.median, 500.0);
        // Exactly ten samples (991..=1000) lie beyond the quoted p99.
        assert_eq!(s.tail, Some((99.0, 990.0)));
        assert_eq!(v.iter().filter(|&&x| x > 990.0).count(), TAIL_MIN_BEYOND);
    }

    #[test]
    fn summary_ignores_input_order() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(summarize(&v).expect("samples").median, 3.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(percentile_of(&v, 75.0), 4.0);
        assert_eq!(percentile_of(&v, 25.0), 2.0);
    }
}
