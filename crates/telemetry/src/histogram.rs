//! Lock-free log-bucketed latency histogram.


// ordering: Relaxed throughout — the histogram is monotone statistics shared
// with detached observers; counts may arrive late or torn across buckets, and
// a snapshot that mixes adjacent recordings is still a valid histogram.
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of sub-bucket bits: each power-of-two octave is split into
/// `2^SUB_BITS` linear sub-buckets, bounding the relative bucket width (and
/// hence the percentile error) by `1 / 2^SUB_BITS` = 6.25%.
const SUB_BITS: u32 = 4;
const SUB_COUNT: u64 = 1 << SUB_BITS;
const SUB_MASK: u64 = SUB_COUNT - 1;

/// Total bucket count: values `< 16` get exact unit buckets (indices
/// `0..16`), and each of the 60 remaining octaves (`2^4 ..= 2^63`)
/// contributes 16 sub-buckets.
const NUM_BUCKETS: usize = (61 << SUB_BITS) as usize; // 976

/// A lock-free latency histogram with logarithmic buckets (HDR-style).
///
/// Values are `u64`s — by convention **microseconds** throughout this
/// workspace. Recording is a single relaxed atomic increment (plus a
/// saturating sum add and a `fetch_max`), so a histogram can be shared
/// freely across worker threads without contention on distinct buckets.
///
/// Buckets below 16 are exact; above that each power-of-two range is split
/// into 16 linear sub-buckets, so any reported percentile is within 6.25%
/// (one sub-bucket width) of the true sample at that rank — always rounding
/// **up** to the bucket's upper edge, never under-reporting a latency.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Maps a value to its bucket index. Monotone in `value`; exact below 16.
    pub(crate) fn bucket_index(value: u64) -> usize {
        if value < SUB_COUNT {
            value as usize
        } else {
            let msb = 63 - value.leading_zeros(); // 4..=63
            let octave = (msb - SUB_BITS + 1) as u64; // 1..=60
            let mantissa = (value >> (msb - SUB_BITS)) & SUB_MASK;
            ((octave << SUB_BITS) | mantissa) as usize
        }
    }

    /// The smallest value mapping to bucket `index`.
    pub(crate) fn bucket_low(index: usize) -> u64 {
        let index = index as u64;
        if index < SUB_COUNT {
            index
        } else {
            let octave = index >> SUB_BITS;
            let mantissa = index & SUB_MASK;
            (SUB_COUNT + mantissa) << (octave - 1)
        }
    }

    /// The largest value mapping to bucket `index`.
    pub(crate) fn bucket_high(index: usize) -> u64 {
        if index + 1 >= NUM_BUCKETS {
            u64::MAX
        } else {
            Self::bucket_low(index + 1) - 1
        }
    }

    /// Records one value (microseconds by convention). Lock-free.
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturate the running sum rather than wrapping on pathological input.
        let mut sum = self.sum.load(Ordering::Relaxed);
        loop {
            let next = sum.saturating_add(value);
            match self
                .sum
                .compare_exchange_weak(sum, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(actual) => sum = actual,
            }
        }
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] as whole microseconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Saturating sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded value (0 when empty).
    pub fn max_us(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// The value at quantile `p` in `[0, 1]` (nearest-rank, reported as the
    /// containing bucket's upper edge — within 6.25% above the true sample).
    /// Returns 0 for an empty histogram. The reported value is additionally
    /// clamped to [`Histogram::max_us`], so `percentile(1.0)` equals the
    /// exact maximum.
    pub fn percentile(&self, p: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 1.0);
        let target = ((p * count as f64).ceil() as u64).clamp(1, count);
        let mut cumulative = 0u64;
        for (index, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            if cumulative >= target {
                return Self::bucket_high(index).min(self.max_us());
            }
        }
        self.max_us()
    }

    /// [`Histogram::percentile`] converted to milliseconds as `f64`.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        self.percentile(p) as f64 / 1000.0
    }

    /// Arithmetic mean of recorded values in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    /// Approximate number of samples `<= bound`: counts every bucket whose
    /// entire range lies at or below `bound` (an under-estimate by at most
    /// one bucket's population). Used for Prometheus cumulative buckets.
    pub(crate) fn count_at_most(&self, bound: u64) -> u64 {
        let mut total = 0u64;
        for (index, bucket) in self.buckets.iter().enumerate() {
            if Self::bucket_high(index) > bound {
                break;
            }
            total += bucket.load(Ordering::Relaxed);
        }
        total
    }

    /// Resets every bucket and counter to zero. Not atomic with respect to
    /// concurrent recorders (a racing `record` may survive); intended for
    /// tests and bench-harness reuse.
    pub fn reset(&self) {
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_buckets_are_exact_below_sixteen() {
        for v in 0..16u64 {
            assert_eq!(Histogram::bucket_index(v), v as usize);
            assert_eq!(Histogram::bucket_low(v as usize), v);
            assert_eq!(Histogram::bucket_high(v as usize), v);
        }
    }

    #[test]
    fn bucket_index_is_monotone_and_consistent_with_edges() {
        let probes: Vec<u64> = (0..200)
            .map(|i| i * 7)
            .chain((0..63).flat_map(|s| {
                let base = 1u64 << s;
                [base - 1, base, base + 1, base + base / 3]
            }))
            .chain([u64::MAX - 1, u64::MAX])
            .collect();
        let mut sorted = probes.clone();
        sorted.sort_unstable();
        let mut last_index = 0usize;
        for v in sorted {
            let index = Histogram::bucket_index(v);
            assert!(index >= last_index, "index not monotone at {v}");
            assert!(index < NUM_BUCKETS);
            assert!(
                Histogram::bucket_low(index) <= v && v <= Histogram::bucket_high(index),
                "value {v} outside bucket {index} [{}, {}]",
                Histogram::bucket_low(index),
                Histogram::bucket_high(index)
            );
            last_index = index;
        }
    }

    #[test]
    fn bucket_edges_tile_the_u64_range() {
        for index in 0..NUM_BUCKETS - 1 {
            assert_eq!(
                Histogram::bucket_high(index) + 1,
                Histogram::bucket_low(index + 1),
                "gap or overlap after bucket {index}"
            );
        }
        assert_eq!(Histogram::bucket_high(NUM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn relative_bucket_width_is_bounded() {
        for index in (SUB_COUNT as usize)..NUM_BUCKETS - 1 {
            let low = Histogram::bucket_low(index) as f64;
            let high = Histogram::bucket_high(index) as f64;
            assert!(
                (high - low) / low <= 1.0 / SUB_COUNT as f64 + 1e-12,
                "bucket {index} wider than 1/{SUB_COUNT}: [{low}, {high}]"
            );
        }
    }

    /// Nearest-rank percentile over a sorted slice: the oracle the histogram
    /// approximates.
    fn oracle(sorted: &[u64], p: f64) -> u64 {
        let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn percentiles_match_sorted_vec_oracle_on_randomized_samples() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x7e1e_6e7e);
        for round in 0..20 {
            let hist = Histogram::new();
            let n = 100 + (round * 137) % 900;
            let mut samples = Vec::with_capacity(n);
            for _ in 0..n {
                // Mix scales: sub-microsecond ticks through multi-second outliers.
                let v = match rng.gen_range(0u32..4) {
                    0 => rng.gen_range(0u64..16),
                    1 => rng.gen_range(16u64..2_000),
                    2 => rng.gen_range(2_000u64..500_000),
                    _ => rng.gen_range(500_000u64..30_000_000),
                };
                samples.push(v);
                hist.record(v);
            }
            samples.sort_unstable();
            assert_eq!(hist.count(), n as u64);
            assert_eq!(hist.max_us(), *samples.last().unwrap());
            for &p in &[0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
                let truth = oracle(&samples, p);
                let estimate = hist.percentile(p);
                assert!(
                    estimate >= truth,
                    "round {round} p{p}: estimate {estimate} under-reports {truth}"
                );
                // Upper edge of the bucket containing the true value: within
                // one sub-bucket width (6.25%) + 1 for integer rounding.
                let bound = truth + truth / SUB_COUNT + 1;
                assert!(
                    estimate <= bound,
                    "round {round} p{p}: estimate {estimate} exceeds bound {bound} (truth {truth})"
                );
            }
        }
    }

    #[test]
    fn percentiles_are_monotone_in_p() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        let hist = Histogram::new();
        for _ in 0..1000 {
            hist.record(rng.gen_range(0u64..1_000_000));
        }
        let mut last = 0u64;
        for i in 0..=100 {
            let v = hist.percentile(i as f64 / 100.0);
            assert!(v >= last, "percentile not monotone at p={}", i as f64 / 100.0);
            last = v;
        }
        assert_eq!(hist.percentile(1.0), hist.max_us());
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let hist = Histogram::new();
        assert!(hist.is_empty());
        assert_eq!(hist.percentile(0.99), 0);
        assert_eq!(hist.max_us(), 0);
        assert_eq!(hist.mean_us(), 0.0);
        assert_eq!(hist.count_at_most(u64::MAX), 0);
    }

    #[test]
    fn count_at_most_is_cumulative_and_bounded() {
        let hist = Histogram::new();
        for v in [1u64, 10, 100, 1_000, 10_000, 100_000] {
            hist.record(v);
        }
        assert_eq!(hist.count_at_most(0), 0);
        assert!(hist.count_at_most(150) >= 2); // 1 and 10 certainly counted
        assert_eq!(hist.count_at_most(u64::MAX - 1), 6);
        let mut last = 0;
        for bound in [0u64, 10, 1_000, 100_000, u64::MAX] {
            let c = hist.count_at_most(bound);
            assert!(c >= last);
            last = c;
        }
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        use std::sync::Arc;
        let hist = Arc::new(Histogram::new());
        let threads = 4;
        let per_thread = 10_000u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let hist = Arc::clone(&hist);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        hist.record(t * 1_000 + i % 997);
                    }
                });
            }
        });
        assert_eq!(hist.count(), threads * per_thread);
    }
}
