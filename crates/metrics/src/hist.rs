//! Log-bucketed latency histograms with mergeable shards.
//!
//! A [`Histogram`] is a fixed array of atomic bucket counters indexed by a
//! base-2 logarithmic scheme with [`SUBS`] linear sub-buckets per octave,
//! so any recorded value lands in a bucket whose width is at most 25% of
//! its lower bound. Recording is a handful of relaxed atomic adds — no
//! locks, no allocation — which is what lets every serving worker write
//! into one shared histogram (or into a private shard merged later; the
//! two are observationally identical, see the merge property tests).
//!
//! Quantile extraction walks the bucket prefix sums, so a reported
//! p50/p90/p99 identifies the *exact* bucket containing the rank-ordered
//! observation — the only error is the bucket's width, which the property
//! tests bound against a sorted-vector oracle. `min`/`max` are tracked
//! exactly, so `quantile(0.0)` and `quantile(1.0)` have no error at all.

use serde_json::{Map, Value as Json};
use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-buckets per power of two. 4 keeps relative bucket width
/// at most 25% while the whole bucket array stays 257 words.
pub const SUBS: usize = 4;
/// Octaves covered (every `u64` value has a bucket).
const OCTAVES: usize = 64;
/// Total bucket count: one zero bucket plus `SUBS` per octave.
pub const NBUCKETS: usize = 1 + OCTAVES * SUBS;

/// The bucket index a value lands in. Zero gets its own bucket; a value
/// `v >= 1` in octave `k` (i.e. `2^k <= v < 2^(k+1)`) is split linearly
/// into `SUBS` sub-buckets.
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        return 0;
    }
    let octave = 63 - v.leading_zeros() as usize;
    let base = 1u64 << octave;
    let sub = (((v - base) as u128 * SUBS as u128) / base as u128) as usize;
    1 + octave * SUBS + sub
}

/// Inclusive `[lo, hi]` value range of a bucket — the exact inverse image
/// of [`bucket_index`]. Octaves narrower than `SUBS` leave some
/// sub-buckets empty; their range clamps to `lo`.
pub fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx == 0 {
        return (0, 0);
    }
    let octave = (idx - 1) / SUBS;
    let sub = ((idx - 1) % SUBS) as u128;
    let base = 1u128 << octave;
    let subs = SUBS as u128;
    // bucket_index floors (v - base) * SUBS / base, so sub-bucket `s`
    // covers v in [base + ceil(s*base/SUBS), base + ceil((s+1)*base/SUBS) - 1].
    let lo = base + (sub * base).div_ceil(subs);
    let hi = (base + ((sub + 1) * base).div_ceil(subs) - 1).min(2 * base - 1);
    let lo = (lo.min(u64::MAX as u128)) as u64;
    let hi = (hi.min(u64::MAX as u128)) as u64;
    (lo, hi.max(lo))
}

/// A lock-free log-bucketed histogram. All writes are relaxed atomic adds;
/// reads take a [`snapshot`](Histogram::snapshot) and work on plain
/// integers.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            buckets: (0..NBUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one observation. Lock-free: four relaxed atomic RMWs.
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A consistent-enough point-in-time copy (bucket totals may trail
    /// `count` by in-flight writers; quiescent reads are exact).
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An owned, mergeable histogram state: what one worker shard observed,
/// or the merge of any number of shards. Merging is associative and
/// commutative (property-tested), so shards can fold in any order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: u64,
    /// `u64::MAX` when empty.
    pub min: u64,
    pub max: u64,
}

impl Default for HistSnapshot {
    fn default() -> HistSnapshot {
        HistSnapshot {
            buckets: vec![0; NBUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl HistSnapshot {
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Merge another shard in. Elementwise adds plus min/max folds.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// `merge` as an expression, for fold chains.
    pub fn merged(mut self, other: &HistSnapshot) -> HistSnapshot {
        self.merge(other);
        self
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The rank a quantile maps to, 0-based — the same nearest-rank
    /// convention the sorted-vector oracle uses:
    /// `round((count - 1) * q)`.
    fn rank_of(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let r = ((self.count - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
        r.min(self.count - 1)
    }

    /// Quantile estimate: locate the bucket holding the rank-`q`
    /// observation by prefix sum and report its upper bound, clamped into
    /// the exact observed `[min, max]`. The estimate therefore lies in the
    /// *same bucket* as the true order statistic; `q = 0.0` / `1.0` are
    /// exact.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = self.rank_of(q);
        if rank == 0 {
            return self.min;
        }
        if rank == self.count - 1 {
            return self.max;
        }
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum > rank {
                let (_, hi) = bucket_bounds(i);
                return hi.clamp(self.min, self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Exact observed maximum (0 when empty).
    pub fn max_exact(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Exact observed minimum (0 when empty).
    pub fn min_exact(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Non-empty buckets as `(lo, hi, count)` triples, ascending.
    pub fn nonempty(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = bucket_bounds(i);
                (lo, hi, c)
            })
            .collect()
    }

    /// The JSON form used by the versioned metrics snapshot.
    pub fn to_json(&self) -> Json {
        let mut m = Map::new();
        m.insert("count".into(), Json::from(self.count));
        m.insert("sum".into(), Json::from(self.sum));
        m.insert("min".into(), Json::from(self.min_exact()));
        m.insert("max".into(), Json::from(self.max_exact()));
        m.insert("mean".into(), Json::from(self.mean()));
        m.insert("p50".into(), Json::from(self.p50()));
        m.insert("p90".into(), Json::from(self.p90()));
        m.insert("p99".into(), Json::from(self.p99()));
        let buckets: Vec<Json> = self
            .nonempty()
            .into_iter()
            .map(|(lo, hi, c)| Json::Array(vec![Json::from(lo), Json::from(hi), Json::from(c)]))
            .collect();
        m.insert("buckets".into(), Json::Array(buckets));
        Json::Object(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_scheme_is_total_and_monotone() {
        let samples = [
            0u64,
            1,
            2,
            3,
            4,
            5,
            7,
            8,
            100,
            1023,
            1024,
            1025,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut last = None;
        for &v in &samples {
            let i = bucket_index(v);
            assert!(i < NBUCKETS, "index {i} out of range for {v}");
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "{v} outside [{lo},{hi}] of bucket {i}");
            if let Some(prev) = last {
                assert!(i >= prev, "bucket index not monotone at {v}");
            }
            last = Some(i);
        }
    }

    #[test]
    fn bucket_width_is_at_most_a_quarter() {
        for v in [4u64, 5, 100, 1000, 123_456, 1 << 40] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(
                (hi - lo) as f64 <= lo as f64 * 0.25 + 1.0,
                "bucket [{lo},{hi}] too wide for {v}"
            );
        }
    }

    #[test]
    fn quantiles_of_a_known_series() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.min_exact(), 1);
        assert_eq!(s.max_exact(), 100);
        assert_eq!(s.quantile(1.0), 100, "max is exact");
        assert_eq!(s.quantile(0.0), 1, "min is exact");
        // p50: oracle is 50 (rank 50 of 0..=99 -> value 51? rank convention:
        // round(99*0.5)=50, 0-based -> value 51). Same bucket as the estimate.
        let oracle = 51u64;
        assert_eq!(bucket_index(s.p50()), bucket_index(oracle));
        assert!((s.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let s = Histogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.min_exact(), 0);
        assert_eq!(s.max_exact(), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn merge_combines_counts_and_extrema() {
        let a = Histogram::new();
        a.observe(10);
        a.observe(20);
        let b = Histogram::new();
        b.observe(5);
        b.observe(1000);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 4);
        assert_eq!(m.sum, 1035);
        assert_eq!(m.min_exact(), 5);
        assert_eq!(m.max_exact(), 1000);
    }

    #[test]
    fn json_form_carries_quantiles_and_buckets() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 1000] {
            h.observe(v);
        }
        let j = h.snapshot().to_json();
        assert_eq!(j.get("count").and_then(|v| v.as_u64()), Some(4));
        assert_eq!(j.get("max").and_then(|v| v.as_u64()), Some(1000));
        let buckets = j.get("buckets").and_then(|v| v.as_array()).unwrap();
        assert!(!buckets.is_empty());
    }
}
