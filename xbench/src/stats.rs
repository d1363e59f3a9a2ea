//! Sample statistics: medians, quartiles and percentiles. Every number the
//! benchmark reports is one of these over a stated sample — never a mean.

/// Sorts a sample in place (all values are finite by construction).
fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are finite"));
}

/// The `p`-th percentile (0–100) by linear interpolation between order
/// statistics. Panics on an empty sample: every caller measures first.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Sample count, quartiles and extremes of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
    /// them (the exclusive method), because that is how the acceptance
    /// check measures spread. A single sample is its own quartiles.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of an empty sample");
        let mut sorted = values.to_vec();
        sort(&mut sorted);
        let n = sorted.len();
        let exclusive = |k: usize| {
            if n == 1 {
                return sorted[0];
            }
            // Position k(n+1)/4 among the 1-based order statistics.
            let j = (k * (n + 1) / 4).clamp(1, n - 1);
            let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
            sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
        };
        Summary {
            n,
            min: sorted[0],
            q1: exclusive(1),
            median: exclusive(2),
            q3: exclusive(3),
            max: sorted[n - 1],
        }
    }

    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        let hundred: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 99.0), 100.0);
        assert_eq!(percentile(&hundred, 95.0), 96.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
        assert_eq!(s.spread(), 1.0);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let s = Summary::of(&[5.0]);
        assert_eq!((s.q1, s.median, s.q3, s.spread()), (5.0, 5.0, 5.0, 0.0));
    }
}
