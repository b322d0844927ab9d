//! The one percentile helper every workload and layer probe uses:
//! exact sort, nearest rank, and a sample-count rule for tails.

/// Percentiles tried, highest first, when the wanted one has too few
/// samples beyond it.
const LADDER: [f64; 6] = [0.99, 0.98, 0.95, 0.90, 0.75, 0.50];

/// A tail needs this many samples strictly beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Timing samples, sorted once on construction.
#[derive(Debug, Clone)]
pub struct Samples {
    sorted: Vec<f64>,
}

/// A reported percentile: the one asked for, the one the sample count
/// supports, and its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub wanted: f64,
    pub used: f64,
    pub value: f64,
    pub n: usize,
}

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.retain(|v| v.is_finite());
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile `p ∈ [0, 1]`: the smallest sample with at
    /// least `p·n` samples at or below it. NaN when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        match self.rank(p) {
            Some(rank) => self.sorted[rank - 1],
            None => f64::NAN,
        }
    }

    pub fn median(&self) -> f64 {
        self.percentile(0.5)
    }

    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(f64::NAN)
    }

    /// The percentile `wanted` if at least [`MIN_BEYOND`] samples lie
    /// beyond its rank, else the highest rung of the ladder that has
    /// them (the median when nothing else does). `Tail::used` names the
    /// percentile actually reported.
    pub fn tail(&self, wanted: f64) -> Tail {
        let n = self.n();
        let supported = |p: f64| self.rank(p).is_some_and(|rank| n - rank >= MIN_BEYOND);
        let used = std::iter::once(wanted)
            .chain(LADDER.into_iter().filter(|&p| p < wanted))
            .find(|&p| supported(p))
            .unwrap_or(0.5);
        Tail {
            wanted,
            used,
            value: self.percentile(used),
            n,
        }
    }

    /// 1-based nearest rank of `p`.
    fn rank(&self, p: f64) -> Option<usize> {
        let n = self.sorted.len();
        (n > 0).then(|| ((p.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n))
    }
}

/// Median of a handful of repeat measurements.
pub fn median(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).median()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_samples() {
        let s = Samples::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.percentile(0.99), 99.0);
        assert_eq!(s.percentile(1.0), 100.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert!(Samples::new(vec![]).median().is_nan());
    }

    #[test]
    fn tail_refuses_unsupported_percentiles_and_names_the_fallback() {
        // n = 1000: rank(0.99) = 990, exactly 10 beyond.
        let s = Samples::new((0..1000).map(f64::from).collect());
        assert_eq!(s.tail(0.99).used, 0.99);
        // n = 999: only 9 beyond p99, falls to p98.
        let s = Samples::new((0..999).map(f64::from).collect());
        let t = s.tail(0.99);
        assert_eq!((t.used, t.n), (0.98, 999));
        // n = 30: p50 has 15 beyond; p75 has 7.
        assert_eq!(
            Samples::new((0..30).map(f64::from).collect())
                .tail(0.99)
                .used,
            0.5
        );
        // Tiny samples still answer (with the median).
        assert_eq!(Samples::new(vec![3.0, 1.0, 2.0]).tail(0.99).value, 2.0);
    }
}
