//! Sample statistics shared by every report: quartiles, and the tail rule
//! (report the highest percentile that still has at least ten samples
//! beyond it, together with the sample count).

/// Percentiles the tail rule may pick, highest first.
const TAIL_LADDER: [f64; 7] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Summary of one metric's samples within a run.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// `(percentile, value)` by the tail rule; `None` when fewer than
    /// `2 * MIN_BEYOND` samples leave no percentile eligible.
    pub tail: Option<(f64, f64)>,
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `sorted` samples.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The highest percentile of [`TAIL_LADDER`] with at least [`MIN_BEYOND`]
/// of `n` samples strictly beyond its nearest-rank position.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n - nearest_rank(n, p) >= MIN_BEYOND)
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    // basis points keep the product exact for every ladder entry
    let bp = (p * 100.0).round() as usize;
    (n * bp).div_ceil(10_000).max(1)
}

/// Summarises `samples` (any order). Returns `None` for no samples.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let tail = tail_percentile(n).map(|p| (p, sorted[nearest_rank(n, p) - 1]));
    Some(Summary {
        n,
        median: quantile(&sorted, 0.5),
        q1: quantile(&sorted, 0.25),
        q3: quantile(&sorted, 0.75),
        tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 20..3000 {
            let p = tail_percentile(n).expect("eligible");
            assert!(n - nearest_rank(n, p) >= MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn summary_reports_count_quartiles_and_tail_value() {
        // 1..=1000 in scrambled order
        let samples: Vec<f64> = (0..1000).map(|i| ((i * 389) % 1000 + 1) as f64).collect();
        let s = summarize(&samples).expect("samples");
        assert_eq!(s.n, 1000);
        assert_eq!(s.median, 500.5);
        assert_eq!(s.q1, 250.75);
        assert_eq!(s.q3, 750.25);
        // p99 by nearest rank is the 990th value: exactly ten lie beyond
        assert_eq!(s.tail, Some((99.0, 990.0)));
    }

    #[test]
    fn small_samples_have_no_tail() {
        let s = summarize(&[3.0, 1.0, 2.0]).expect("samples");
        assert_eq!((s.n, s.median, s.tail), (3, 2.0, None));
        assert_eq!(summarize(&[]), None);
    }
}
