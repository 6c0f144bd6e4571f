//! Order statistics over measured samples.

/// Median of `xs` (mean of the two middle values for even counts);
/// NaN when empty.
pub fn median(xs: &[f64]) -> f64 {
    let sorted = sorted(xs);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// Arithmetic mean; NaN when empty.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// A tail latency chosen by the benchmark's rule: the highest
/// percentile that still has at least [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// Which percentile it is (share of samples at or below, in %).
    pub percentile: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail by the rule above, or `None` when fewer than
/// `TAIL_BEYOND + 1` samples exist (no percentile qualifies).
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let sorted = sorted(xs);
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let index = n - 1 - TAIL_BEYOND;
    Some(Tail {
        value: sorted[index],
        percentile: 100.0 * (index + 1) as f64 / n as f64,
        samples: n,
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let xs: Vec<f64> = (0..100).rev().map(f64::from).collect();
        let t = tail(&xs).expect("100 samples support a tail");
        assert_eq!(t.value, 89.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        let beyond = xs.iter().filter(|&&x| x > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&eleven).expect("11 samples support a tail");
        assert_eq!(t.value, 0.0);
        assert_eq!(t.samples, 11);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn tail_of_a_thousand_is_the_99th_percentile() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs).expect("tail");
        assert_eq!(t.value, 990.0);
        assert_eq!(t.percentile, 99.0);
    }
}
