//! Fixed-bucket log2 histograms.
//!
//! Bucket 0 holds the value 0; bucket `i` (1..=64) holds values in
//! `[2^(i-1), 2^i)`. Recording is a handful of integer ops with no
//! allocation, so histograms can live on the hot path next to the
//! counters in `EngineStats`.

/// Number of buckets: one for zero plus one per bit of a `u64`.
pub const LOG2_BUCKETS: usize = 65;

/// A log2 histogram with exact count/sum/min/max sidecars.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; LOG2_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            buckets: [0; LOG2_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// Bucket index for a value: 0 for 0, else `ilog2(v) + 1`.
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// What was recorded after `prev`, an earlier snapshot of this
    /// histogram. Buckets, count and sum are exact; the samples are gone,
    /// so min and max are the bounds of the lowest and highest bucket
    /// that grew (max clamped to this histogram's): a quantile of the
    /// delta reads its bucket's upper bound.
    pub fn since(&self, prev: &Log2Histogram) -> Log2Histogram {
        let mut d = Log2Histogram::new();
        for (i, (now, then)) in self.buckets.iter().zip(&prev.buckets).enumerate() {
            d.buckets[i] = now.saturating_sub(*then);
        }
        d.count = self.count.saturating_sub(prev.count);
        d.sum = self.sum.saturating_sub(prev.sum);
        let grew = |&i: &usize| d.buckets[i] > 0;
        let (lo, hi) = (
            (0..LOG2_BUCKETS).find(grew),
            (0..LOG2_BUCKETS).rev().find(grew),
        );
        if let (Some(lo), Some(hi)) = (lo, hi) {
            d.min = Log2Histogram::bucket_bounds(lo).0;
            d.max = Log2Histogram::bucket_bounds(hi).1.min(self.max);
        }
        d
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest sample, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of all samples, if any.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Inclusive value range covered by bucket `i`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        if i == 0 {
            (0, 0)
        } else if i >= 64 {
            (1 << 63, u64::MAX)
        } else {
            (1 << (i - 1), (1 << i) - 1)
        }
    }

    /// Upper bound of the bucket holding the q-quantile (q in 0..=1),
    /// clamped to the observed max. `None` when empty.
    pub fn approx_quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Log2Histogram::bucket_bounds(i).1.min(self.max));
            }
        }
        Some(self.max)
    }

    /// Compact one-line rendering, e.g. for `nmad metrics`.
    pub fn render(&self) -> String {
        match (self.min(), self.max(), self.mean()) {
            (Some(min), Some(max), Some(mean)) => format!(
                "n={} min={} mean={:.0} p50<={} p99<={} max={}",
                self.count,
                min,
                mean,
                self.approx_quantile(0.50).unwrap_or(0),
                self.approx_quantile(0.99).unwrap_or(0),
                max
            ),
            _ => "n=0".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn buckets_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 0..LOG2_BUCKETS {
            let (lo, hi) = Log2Histogram::bucket_bounds(i);
            assert_eq!(bucket_of(lo), i);
            assert_eq!(bucket_of(hi), i);
        }
    }

    #[test]
    fn stats_track_samples() {
        let mut h = Log2Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.approx_quantile(0.5), None);
        for v in [1u64, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100));
        assert_eq!(h.mean(), Some(26.5));
        // p50 falls in bucket_of(2) == bucket_of(3) == 2, upper bound 3.
        assert_eq!(h.approx_quantile(0.5), Some(3));
        assert_eq!(h.approx_quantile(1.0), Some(100));
    }

    fn from_samples(samples: &[u64]) -> Log2Histogram {
        let mut h = Log2Histogram::new();
        for &v in samples {
            h.record(v);
        }
        h
    }

    proptest! {
        /// A snapshot taken after `a` and the histogram after `a ++ b`:
        /// the delta holds exactly `b`'s buckets, count and sum, and its
        /// min/max bound `b`'s.
        #[test]
        fn since_holds_what_came_after_the_snapshot(
            a in prop::collection::vec(any::<u32>(), 0..32),
            b in prop::collection::vec(any::<u32>(), 0..32),
        ) {
            let (a, b): (Vec<u64>, Vec<u64>) =
                (a.into_iter().map(u64::from).collect(), b.into_iter().map(u64::from).collect());
            let snap = from_samples(&a);
            let mut all = snap;
            for &v in &b {
                all.record(v);
            }
            let d = all.since(&snap);
            let want = from_samples(&b);
            prop_assert_eq!(d.count(), want.count());
            prop_assert_eq!(d.sum(), want.sum());
            prop_assert_eq!(d.buckets, want.buckets);
            if let (Some(lo), Some(hi)) = (want.min(), want.max()) {
                prop_assert!(d.min().unwrap() <= lo && d.max().unwrap() >= hi);
                prop_assert!(d.max().unwrap() <= all.max().unwrap());
            } else {
                prop_assert!(d.is_empty());
            }
        }
    }
}
