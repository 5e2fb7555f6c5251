//! Streaming statistics for latency and utilization reporting.
//!
//! The experiment harness reports average network latency (the paper's
//! primary metric) plus dispersion measures the paper does not show but that
//! are useful when validating the simulator: variance, min/max, and
//! percentiles estimated from a bounded-memory histogram.

use std::fmt;

/// Single-pass mean/variance accumulator (Welford's algorithm).
///
/// Numerically stable for the long runs the paper performs (hundreds of
/// thousands of samples) and O(1) memory.
///
/// # Example
///
/// ```
/// use lapses_sim::stats::RunningStats;
///
/// let mut s = RunningStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.record(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert_eq!(s.population_variance(), 4.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean of the samples; zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (divides by `n`); zero for fewer than two samples.
    pub fn population_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance (divides by `n - 1`); zero for fewer than two samples.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Smallest sample recorded, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample recorded, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Resets the accumulator to the empty state.
    pub fn clear(&mut self) {
        *self = RunningStats::new();
    }
}

impl fmt::Display for RunningStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.2} sd={:.2} min={:.1} max={:.1}",
            self.count,
            self.mean(),
            self.std_dev(),
            self.min().unwrap_or(f64::NAN),
            self.max().unwrap_or(f64::NAN)
        )
    }
}

impl Extend<f64> for RunningStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.record(x);
        }
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = RunningStats::new();
        s.extend(iter);
        s
    }
}

/// Fixed-width histogram over `[0, bucket_width * buckets)` with an overflow
/// bucket, supporting percentile estimation in bounded memory.
///
/// Latencies in the study span roughly 40–1500 cycles, so the default used by
/// the network layer (width 4, 2048 buckets) resolves the full range to
/// within one flit time while staying small enough to keep per-configuration.
///
/// # Example
///
/// ```
/// use lapses_sim::stats::Histogram;
///
/// let mut h = Histogram::new(1.0, 100);
/// for x in 1..=100 {
///     h.record(x as f64);
/// }
/// assert_eq!(h.count(), 100);
/// let median = h.percentile(50.0).unwrap();
/// assert!((median - 50.0).abs() <= 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bucket_width: f64,
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `buckets` bins of `bucket_width` each.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width` is not strictly positive or `buckets` is 0.
    pub fn new(bucket_width: f64, buckets: usize) -> Self {
        assert!(
            bucket_width > 0.0,
            "histogram bucket width must be positive"
        );
        assert!(buckets > 0, "histogram needs at least one bucket");
        Histogram {
            bucket_width,
            counts: vec![0; buckets],
            overflow: 0,
            total: 0,
        }
    }

    /// Records one sample. Negative samples clamp into the first bucket.
    pub fn record(&mut self, x: f64) {
        self.total += 1;
        let idx = (x.max(0.0) / self.bucket_width) as usize;
        if idx < self.counts.len() {
            self.counts[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Total samples recorded, including overflow.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Number of samples that fell beyond the last bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Estimates the `p`-th percentile (0 < p ≤ 100) by linear interpolation
    /// within the containing bucket. Returns `None` when empty or when the
    /// percentile falls in the overflow region.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        assert!(p > 0.0 && p <= 100.0, "percentile must be in (0, 100]");
        if self.total == 0 {
            return None;
        }
        let rank = (p / 100.0 * self.total as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let within = (rank - seen) as f64 / c as f64;
                return Some((i as f64 + within) * self.bucket_width);
            }
            seen += c;
        }
        None // percentile lies in the overflow bucket
    }

    /// Merges another histogram with identical geometry.
    ///
    /// # Panics
    ///
    /// Panics if the bucket widths or counts differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bucket_width, other.bucket_width,
            "histogram geometry mismatch"
        );
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "histogram geometry mismatch"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.total += other.total;
    }

    /// Iterates over `(bucket_lower_bound, count)` pairs for non-empty buckets.
    pub fn iter(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(move |(i, &c)| (i as f64 * self.bucket_width, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass_results() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let s: RunningStats = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.population_variance() - var).abs() < 1e-12);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn empty_stats_are_well_defined() {
        let s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn merge_equals_sequential_recording() {
        let xs = [1.0, 2.0, 3.0, 10.0, 20.0];
        let ys = [5.0, 6.0, 7.0];
        let mut a: RunningStats = xs.iter().copied().collect();
        let b: RunningStats = ys.iter().copied().collect();
        a.merge(&b);
        let all: RunningStats = xs.iter().chain(&ys).copied().collect();
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert!((a.population_variance() - all.population_variance()).abs() < 1e-12);
        assert_eq!(a.count(), all.count());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a: RunningStats = [1.0, 2.0].into_iter().collect();
        let before = a.clone();
        a.merge(&RunningStats::new());
        assert_eq!(a, before);

        let mut e = RunningStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn sample_variance_uses_n_minus_one() {
        let s: RunningStats = [1.0, 3.0].into_iter().collect();
        assert_eq!(s.population_variance(), 1.0);
        assert_eq!(s.sample_variance(), 2.0);
    }

    #[test]
    fn histogram_percentiles_interpolate() {
        let mut h = Histogram::new(10.0, 10);
        for _ in 0..90 {
            h.record(5.0);
        }
        for _ in 0..10 {
            h.record(95.0);
        }
        // p90 falls exactly at the end of the first bucket.
        let p90 = h.percentile(90.0).unwrap();
        assert!(p90 <= 10.0, "p90 was {p90}");
        let p99 = h.percentile(99.0).unwrap();
        assert!((90.0..=100.0).contains(&p99), "p99 was {p99}");
    }

    #[test]
    fn histogram_overflow_is_tracked() {
        let mut h = Histogram::new(1.0, 4);
        h.record(100.0);
        h.record(2.0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.overflow(), 1);
        // The 99th percentile is in the overflow region.
        assert_eq!(h.percentile(99.0), None);
        // The median is resolvable.
        assert!(h.percentile(50.0).is_some());
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = Histogram::new(1.0, 8);
        let mut b = Histogram::new(1.0, 8);
        a.record(1.0);
        b.record(1.0);
        b.record(7.5);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        let buckets: Vec<_> = a.iter().collect();
        assert_eq!(buckets, vec![(1.0, 2), (7.0, 1)]);
    }

    #[test]
    #[should_panic(expected = "geometry mismatch")]
    fn histogram_merge_rejects_mismatched_geometry() {
        let mut a = Histogram::new(1.0, 8);
        let b = Histogram::new(2.0, 8);
        a.merge(&b);
    }

    #[test]
    fn negative_samples_clamp_into_first_bucket() {
        let mut h = Histogram::new(1.0, 4);
        h.record(-3.0);
        assert_eq!(h.iter().next(), Some((0.0, 1)));
    }
}
