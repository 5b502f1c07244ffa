//! Slice statistics: every reported timing is a median over many short
//! slices (or repetitions), with the quartiles alongside, never one
//! `Instant` pair.

/// Five-number summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// `(q3 - q1) / median`: the relative spread the bounds are judged by.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }
}

/// Summarizes `values` (quartiles by linear interpolation between order
/// statistics). An empty sample summarizes to all zeros.
pub fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| -> f64 {
        let Some(&last) = sorted.last() else {
            return 0.0;
        };
        let pos = q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = sorted.get(lo + 1).copied().unwrap_or(last);
        sorted[lo] + (hi - sorted[lo]) * (pos - lo as f64)
    };
    Summary {
        count: sorted.len(),
        min: at(0.0),
        q1: at(0.25),
        median: at(0.5),
        q3: at(0.75),
        max: at(1.0),
    }
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least `q` of the sample at or below it.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// What one slice of individually timed driver calls reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SliceStats {
    /// Queries per second of time spent inside driver calls.
    pub qps: f64,
    /// Median driver-call latency, microseconds.
    pub p50_us: f64,
    /// 95th-percentile driver-call latency, microseconds.
    pub p95_us: f64,
}

/// Reduces the per-call latencies of one slice (sorted in place).
pub fn slice_stats(lat_ns: &mut [u64], queries_per_call: usize) -> SliceStats {
    lat_ns.sort_unstable();
    let busy_ns: u64 = lat_ns.iter().sum();
    let queries = (lat_ns.len() * queries_per_call) as f64;
    SliceStats {
        qps: queries / (busy_ns.max(1) as f64 / 1e9),
        p50_us: nearest_rank(lat_ns, 0.5) as f64 / 1e3,
        p95_us: nearest_rank(lat_ns, 0.95) as f64 / 1e3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_vectors() {
        let s = summarize(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.count, s.min, s.q1, s.median, s.q3, s.max), (5, 1.0, 2.0, 3.0, 4.0, 5.0));
        assert!((s.spread() - 2.0 / 3.0).abs() < 1e-12);
        // Even length: median and quartiles interpolate.
        let s = summarize(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.75, 2.5, 3.25));
        assert_eq!(summarize(&[7.0]).median, 7.0);
        assert_eq!(summarize(&[]).count, 0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 0.5), 50);
        assert_eq!(nearest_rank(&v, 0.99), 99);
        assert_eq!(nearest_rank(&v, 1.0), 100);
        assert_eq!(nearest_rank(&v, 0.0), 1);
        assert_eq!(nearest_rank(&[], 0.5), 0);
    }

    #[test]
    fn slice_of_known_latencies() {
        // 100 calls of 64 queries: 95 take 1 us, five take 21 us => 200 us busy.
        let mut lat = vec![1_000u64; 95];
        for at in [3, 40, 41, 77, 90] {
            lat.insert(at, 21_000);
        }
        let s = slice_stats(&mut lat, 64);
        assert_eq!(s.p50_us, 1.0);
        assert_eq!(s.p95_us, 1.0);
        assert!((s.qps - 6400.0 / 200e-6).abs() < 1e-3);
        // A sixth slow call pushes the slow tail into p95.
        let mut lat = vec![1_000u64; 94];
        lat.extend([21_000; 6]);
        assert_eq!(slice_stats(&mut lat, 1).p95_us, 21.0);
    }
}
