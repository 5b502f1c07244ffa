//! Stretch and space statistics used by tests and by the experiment harness.

use serde::{Deserialize, Serialize};

/// Aggregated multiplicative/affine stretch over a collection of routed
/// pairs.
///
/// Each sample is a pair `(routed, exact)` of path weights. The paper's
/// guarantees are of the form `(α, β)`: every routed path has weight at most
/// `α · d + β`. [`StretchStats::check_affine_bound`] verifies exactly that,
/// and [`StretchStats::max_multiplicative`] / [`StretchStats::mean_multiplicative`]
/// summarise the usual multiplicative stretch.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StretchStats {
    samples: Vec<(u64, u64)>,
}

impl StretchStats {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one routed pair: the routed path weight and the exact
    /// distance. Pairs with `exact == 0` (source equals destination) are
    /// ignored.
    pub fn record(&mut self, routed: u64, exact: u64) {
        if exact > 0 {
            self.samples.push((routed, exact));
        }
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The largest multiplicative stretch `routed / exact`, or `None` if no
    /// samples were recorded.
    pub fn max_multiplicative(&self) -> Option<f64> {
        self.samples
            .iter()
            .map(|&(r, e)| r as f64 / e as f64)
            .fold(None, |acc, s| Some(acc.map_or(s, |a: f64| a.max(s))))
    }

    /// The mean multiplicative stretch, or `None` if no samples were
    /// recorded.
    pub fn mean_multiplicative(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let sum: f64 = self.samples.iter().map(|&(r, e)| r as f64 / e as f64).sum();
        Some(sum / self.samples.len() as f64)
    }

    /// The `p`-th percentile (0..=100) of the multiplicative stretch.
    pub fn percentile_multiplicative(&self, p: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut v: Vec<f64> = self.samples.iter().map(|&(r, e)| r as f64 / e as f64).collect();
        v.sort_by(f64::total_cmp);
        let idx = ((p / 100.0) * (v.len() - 1) as f64).round() as usize;
        Some(v[idx.min(v.len() - 1)])
    }

    /// Checks the paper-style affine bound: every sample satisfies
    /// `routed <= alpha * exact + beta` (up to floating-point slack of 1e-9).
    pub fn check_affine_bound(&self, alpha: f64, beta: f64) -> bool {
        self.worst_affine_excess(alpha, beta) <= 1e-9
    }

    /// The largest violation of `routed <= alpha * exact + beta` across all
    /// samples (0.0 when the bound holds everywhere).
    pub fn worst_affine_excess(&self, alpha: f64, beta: f64) -> f64 {
        self.samples
            .iter()
            .map(|&(r, e)| r as f64 - (alpha * e as f64 + beta))
            .fold(0.0_f64, f64::max)
    }

    /// Fraction of samples routed on an exactly shortest path.
    pub fn fraction_exact(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let exact = self.samples.iter().filter(|&&(r, e)| r == e).count();
        Some(exact as f64 / self.samples.len() as f64)
    }

    /// Merges another collection of samples into this one.
    pub fn merge(&mut self, other: &StretchStats) {
        self.samples.extend_from_slice(&other.samples);
    }
}

/// Aggregated per-vertex space usage in `O(log n)`-bit words.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SpaceStats {
    per_vertex: Vec<usize>,
}

impl SpaceStats {
    /// Builds the statistics from per-vertex word counts.
    pub fn from_per_vertex(per_vertex: Vec<usize>) -> Self {
        SpaceStats { per_vertex }
    }

    /// Number of vertices accounted.
    pub fn len(&self) -> usize {
        self.per_vertex.len()
    }

    /// True if no vertices were accounted.
    pub fn is_empty(&self) -> bool {
        self.per_vertex.is_empty()
    }

    /// The largest per-vertex table, in words.
    pub fn max(&self) -> usize {
        self.per_vertex.iter().copied().max().unwrap_or(0)
    }

    /// The mean per-vertex table size, in words.
    pub fn mean(&self) -> f64 {
        if self.per_vertex.is_empty() {
            return 0.0;
        }
        self.per_vertex.iter().sum::<usize>() as f64 / self.per_vertex.len() as f64
    }

    /// Total space across all vertices, in words.
    pub fn total(&self) -> usize {
        self.per_vertex.iter().sum()
    }

    /// `max() / n^exponent` — the normalized table size the harness prints so
    /// the paper's `Õ(n^exponent)` shape can be read off directly.
    pub fn normalized_max(&self, exponent: f64) -> f64 {
        if self.per_vertex.is_empty() {
            return 0.0;
        }
        self.max() as f64 / (self.per_vertex.len() as f64).powf(exponent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stretch_basic_aggregates() {
        let mut s = StretchStats::new();
        s.record(10, 10);
        s.record(15, 10);
        s.record(30, 10);
        s.record(0, 0); // ignored
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.max_multiplicative(), Some(3.0));
        assert!((s.mean_multiplicative().unwrap() - 1.8333333).abs() < 1e-6);
        assert_eq!(s.fraction_exact(), Some(1.0 / 3.0));
    }

    #[test]
    fn stretch_empty() {
        let s = StretchStats::new();
        assert!(s.is_empty());
        assert_eq!(s.max_multiplicative(), None);
        assert_eq!(s.mean_multiplicative(), None);
        assert_eq!(s.percentile_multiplicative(50.0), None);
        assert_eq!(s.fraction_exact(), None);
        assert!(s.check_affine_bound(1.0, 0.0));
    }

    #[test]
    fn affine_bound_checks() {
        let mut s = StretchStats::new();
        // d=4 routed 9 -> 2d+1 holds exactly; d=5 routed 11 -> 2d+1 holds.
        s.record(9, 4);
        s.record(11, 5);
        assert!(s.check_affine_bound(2.0, 1.0));
        assert!(!s.check_affine_bound(2.0, 0.0));
        assert!(s.worst_affine_excess(2.0, 0.0) > 0.0);
        assert_eq!(s.worst_affine_excess(3.0, 0.0), 0.0);
    }

    #[test]
    fn percentiles_are_ordered() {
        let mut s = StretchStats::new();
        for i in 1..=100u64 {
            s.record(i, 1);
        }
        let p50 = s.percentile_multiplicative(50.0).unwrap();
        let p95 = s.percentile_multiplicative(95.0).unwrap();
        let p100 = s.percentile_multiplicative(100.0).unwrap();
        assert!(p50 <= p95 && p95 <= p100);
        assert_eq!(p100, 100.0);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = StretchStats::new();
        a.record(2, 1);
        let mut b = StretchStats::new();
        b.record(3, 1);
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.max_multiplicative(), Some(3.0));
    }

    #[test]
    fn space_aggregates() {
        let s = SpaceStats::from_per_vertex(vec![10, 20, 30, 40]);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert_eq!(s.max(), 40);
        assert_eq!(s.total(), 100);
        assert_eq!(s.mean(), 25.0);
        // n = 4, exponent 0.5 -> normalization by 2.
        assert_eq!(s.normalized_max(0.5), 20.0);
    }

    #[test]
    fn space_empty() {
        let s = SpaceStats::from_per_vertex(vec![]);
        assert!(s.is_empty());
        assert_eq!(s.max(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.normalized_max(0.5), 0.0);
    }
}
