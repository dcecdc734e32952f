//! Log-bucketed latency histograms (HDR-style): mergeable, lock-free to
//! record, with percentile extraction from cumulative bucket counts.
//!
//! Values (nanoseconds in practice, but the histogram is unit-agnostic)
//! are binned into `2^SUB_BITS` linear sub-buckets per power-of-two
//! magnitude, which bounds the relative quantization error of any
//! reported percentile at `1 / 2^SUB_BITS` (6.25% with the default 4
//! sub-bucket bits) across the whole trackable range. Values beyond the
//! trackable maximum saturate into the top bucket — counted, never
//! dropped — so `count` and `sum` stay exact even when outliers blow the
//! range.
//!
//! Recording is a single relaxed `fetch_add` on an atomic bucket; taking a
//! [`HistSnapshot`] reads the buckets without stopping writers, so a
//! snapshot taken during a run is a consistent-enough view (each bucket is
//! exact; cross-bucket skew is bounded by what arrived during the read).

use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-bucket bits per power-of-two magnitude (precision knob).
const SUB_BITS: u32 = 4;
/// Sub-buckets per magnitude.
const SUBS: usize = 1 << SUB_BITS;
/// Number of power-of-two magnitudes tracked above the linear range.
/// Magnitude 0 covers values `0 .. 2*SUBS` linearly; magnitude `m > 0`
/// covers `SUBS << m .. SUBS << (m + 1)`. With 47 magnitudes the top of
/// the range is `16 << 48` — over three days in nanoseconds.
const MAGNITUDES: usize = 47;
/// Total bucket count.
pub(crate) const BUCKETS: usize = SUBS * (MAGNITUDES + 2);

/// Largest value that lands in a non-saturated bucket.
pub const MAX_TRACKABLE: u64 = ((SUBS as u64) << (MAGNITUDES + 1)) - 1;

/// Index of the bucket `value` falls into.
fn bucket_index(value: u64) -> usize {
    if value < (2 * SUBS) as u64 {
        // The two lowest magnitudes are one exact linear range.
        return value as usize;
    }
    let magnitude = (63 - value.leading_zeros()) as usize - SUB_BITS as usize;
    let sub = (value >> magnitude) as usize - SUBS;
    let idx = (magnitude + 1) * SUBS + sub;
    idx.min(BUCKETS - 1)
}

/// Upper bound (inclusive) of the values bucket `idx` holds.
fn bucket_top(idx: usize) -> u64 {
    if idx < 2 * SUBS {
        return idx as u64;
    }
    let magnitude = idx / SUBS - 1;
    let sub = (idx % SUBS) as u64;
    ((SUBS as u64 + sub + 1) << magnitude) - 1
}

/// A concurrently recordable histogram. Create through
/// [`crate::registry::Registry::histogram`] or [`Hist::new`].
#[derive(Debug)]
pub struct Hist {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Hist {
    fn default() -> Self {
        Self::new()
    }
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Hist {
        Hist {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// An immutable copy of the current state.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable histogram state: mergeable, queryable for percentiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    buckets: Vec<u64>,
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values (exact, not quantized).
    pub sum: u64,
    /// Largest recorded value (exact).
    pub max: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistSnapshot {
    /// A snapshot with nothing recorded.
    pub fn empty() -> HistSnapshot {
        HistSnapshot {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Fold another snapshot into this one (per-node histograms merge into
    /// cluster-wide ones without losing percentile fidelity).
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The value at quantile `q` in `[0, 1]`: an upper bound of the bucket
    /// containing the `ceil(q * count)`-th smallest recorded value (within
    /// the quantization error of the bucket layout). 0 when empty.
    pub fn value_at(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // The top bucket may hold saturated outliers; the exact
                // max is a tighter bound there.
                return bucket_top(idx).min(self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.value_at(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.value_at(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.value_at(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.value_at(0.999)
    }

    /// Arithmetic mean of the recorded values (exact). 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_monotone_and_covering() {
        // Every bucket's range starts right after the previous one's top.
        let mut prev_top = None;
        for idx in 0..BUCKETS - 1 {
            let top = bucket_top(idx);
            if let Some(p) = prev_top {
                assert!(top > p, "bucket {idx}: top {top} <= previous {p}");
            }
            prev_top = Some(top);
        }
        // Values map into buckets whose range contains them.
        for value in [0, 1, 15, 16, 31, 32, 33, 1000, 123_456_789, MAX_TRACKABLE] {
            let idx = bucket_index(value);
            assert!(
                value <= bucket_top(idx),
                "value {value} above its bucket top {}",
                bucket_top(idx)
            );
            if idx > 0 {
                assert!(
                    value > bucket_top(idx - 1),
                    "value {value} within previous bucket (top {})",
                    bucket_top(idx - 1)
                );
            }
        }
    }

    #[test]
    fn saturation_still_counts() {
        let h = Hist::new();
        h.record(u64::MAX);
        h.record(MAX_TRACKABLE.saturating_add(12345));
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.max, u64::MAX);
        // Both values saturated into the top bucket, whose reported value
        // is capped at the trackable range (the exact max stays exact).
        assert_eq!(snap.p99(), MAX_TRACKABLE);
        assert_eq!(snap.sum, u64::MAX.wrapping_add(MAX_TRACKABLE + 12345));
    }

    #[test]
    fn percentiles_of_uniform_ramp_are_close() {
        let h = Hist::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 10_000);
        // Relative quantization error bounded by 1/SUBS.
        for (q, expect) in [(0.50, 5_000.0), (0.90, 9_000.0), (0.99, 9_900.0)] {
            let got = snap.value_at(q) as f64;
            assert!(
                (got - expect).abs() / expect <= 1.0 / SUBS as f64 + 0.01,
                "q {q}: got {got}, want ~{expect}"
            );
            assert!(got >= expect * 0.999, "q {q}: got {got} below rank value");
        }
        assert_eq!(snap.max, 10_000);
        assert!((snap.mean() - 5000.5).abs() < 0.001);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let a = Hist::new();
        let b = Hist::new();
        let both = Hist::new();
        for v in 0..1000u64 {
            let scaled = v * v % 77_777;
            if v % 2 == 0 {
                a.record(scaled);
            } else {
                b.record(scaled);
            }
            both.record(scaled);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, both.snapshot());
    }

    #[test]
    fn empty_histogram_is_defined_everywhere() {
        let snap = Hist::new().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.p50(), 0);
        assert_eq!(snap.p999(), 0);
        assert_eq!(snap.mean(), 0.0);
    }
}
