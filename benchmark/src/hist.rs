//! Fixed-size log-linear latency histograms.
//!
//! Values are nanoseconds. Every power-of-two range is split into
//! `2^SUB_BITS` equal buckets, so a bucket is at most `2^-SUB_BITS`
//! (0.8 %) of its lower bound wide. The bucket array is allocated once,
//! before the measured phase; recording is an index computation and an
//! increment. Percentiles interpolate linearly inside the bucket that
//! holds the wanted rank, so they read as measured values rather than
//! bucket edges.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Values at or above `2^MAX_BITS` ns (about 18 minutes) share the last bucket.
const MAX_BITS: u32 = 40;
const BUCKETS: usize = ((MAX_BITS - SUB_BITS + 1) as usize) * SUB as usize;

/// A latency histogram over nanosecond values.
#[derive(Clone)]
pub struct Hist {
    counts: Box<[u64]>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

fn bucket_of(ns: u64) -> usize {
    let v = ns.min((1 << MAX_BITS) - 1);
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let shift = exp - SUB_BITS;
    (u64::from(shift + 1) * SUB + ((v >> shift) - SUB)) as usize
}

/// Lower bound and width of bucket `idx`.
fn bucket_range(idx: usize) -> (u64, u64) {
    let idx = idx as u64;
    if idx < SUB {
        return (idx, 1);
    }
    let shift = idx / SUB - 1;
    ((SUB + idx % SUB) << shift, 1 << shift)
}

impl Hist {
    /// An empty histogram with all its buckets allocated.
    #[must_use]
    pub fn new() -> Self {
        Hist {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Adds every value of `other`.
    pub fn merge(&mut self, other: &Hist) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// The `q`-quantile (`0 < q < 1`) in nanoseconds, or `None` when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = q * self.total as f64;
        let mut before = 0u64;
        for (idx, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if (before + count) as f64 >= rank {
                let (lo, width) = bucket_range(idx);
                let inside = ((rank - before as f64) / count as f64).clamp(0.0, 1.0);
                return Some(lo as f64 + width as f64 * inside);
            }
            before += count;
        }
        unreachable!("rank {rank} lies within the {} recorded values", self.total)
    }
}

/// The median of `values`, or `None` when empty.
#[must_use]
pub fn median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    Some(if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range_without_gaps() {
        let mut next = 0u64;
        for idx in 0..BUCKETS {
            let (lo, width) = bucket_range(idx);
            assert_eq!(lo, next, "bucket {idx} starts where the last ended");
            assert_eq!(bucket_of(lo), idx);
            assert_eq!(bucket_of(lo + width - 1), idx);
            assert!(lo < SUB || width as f64 / lo as f64 <= 1.0 / SUB as f64);
            next = lo + width;
        }
        assert_eq!(next, 1 << MAX_BITS);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_stay_within_one_percent_of_the_exact_value() {
        let mut h = Hist::new();
        let values: Vec<u64> = (1..=100_000u64).map(|i| i * 37).collect();
        for &v in &values {
            h.record(v);
        }
        for q in [0.5, 0.99, 0.999] {
            let exact = values[(q * values.len() as f64) as usize - 1] as f64;
            let got = h.quantile(q).unwrap();
            assert!((got - exact).abs() / exact < 0.01, "q{q}: {got} vs {exact}");
        }
        assert!(Hist::new().quantile(0.5).is_none());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&mut []), None);
    }
}
