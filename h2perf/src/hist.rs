//! Nanosecond latency histogram.
//!
//! The program's own `h2util::metrics::Histogram` buckets whole
//! microseconds with 12.5 % relative error, which cannot resolve the 1–2 µs
//! operations of a cache-hit resolve. This one is log-linear over
//! nanoseconds: values below [`SUB`] ns get a bucket each, and every octave
//! above is split into [`SUB`] equal buckets, so a bucket is at most 1/128
//! (0.8 %) of its value wide.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// Fewest samples that must lie above a percentile before it is reported.
pub const MIN_TAIL_SAMPLES: u64 = 10;

#[derive(Clone)]
pub struct Hist {
    buckets: Vec<u64>,
    count: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: vec![0; BUCKETS],
            count: 0,
        }
    }
}

fn index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros();
    let sub = (v >> (octave - SUB_BITS)) - SUB;
    ((octave - SUB_BITS + 1) as u64 * SUB + sub) as usize
}

/// `[lo, hi)` of bucket `i`, in ns.
fn bounds(i: usize) -> (f64, f64) {
    let i = i as u64;
    if i < SUB {
        return (i as f64, (i + 1) as f64);
    }
    let octave = (i / SUB - 1) as u32 + SUB_BITS;
    let width = 1u64 << (octave - SUB_BITS);
    let lo = (1u64 << octave) + (i % SUB) * width;
    (lo as f64, lo as f64 + width as f64)
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        self.buckets[index(ns)] += 1;
        self.count += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Non-empty buckets as `(index, count)`, for shipping a histogram to
    /// another process.
    pub fn buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Add `count` samples to bucket `i` of [`Hist::buckets`]; `None` when
    /// there is no such bucket.
    pub fn add_bucket(&mut self, i: usize, count: u64) -> Option<()> {
        *self.buckets.get_mut(i)? += count;
        self.count += count;
        Some(())
    }

    /// The `q`-quantile in ns, interpolated linearly by rank inside its
    /// bucket. `None` when fewer than [`MIN_TAIL_SAMPLES`] samples lie above
    /// it, so a tail figure is never read off a handful of samples.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let rank = q * self.count as f64;
        if (self.count as f64 - rank) < MIN_TAIL_SAMPLES as f64 {
            return None;
        }
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 && (seen + c) as f64 >= rank {
                let (lo, hi) = bounds(i);
                let frac = ((rank - seen as f64) / c as f64).clamp(0.0, 1.0);
                return Some(lo + frac * (hi - lo));
            }
            seen += c;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range_and_stay_narrow() {
        let mut prev_hi = 0.0;
        for i in 0..BUCKETS {
            let (lo, hi) = bounds(i);
            assert_eq!(lo, prev_hi, "bucket {i} leaves a gap");
            assert!(hi - lo <= (lo / SUB as f64).max(1.0), "bucket {i} too wide");
            prev_hi = hi;
            if hi >= u64::MAX as f64 / 2.0 {
                break;
            }
        }
        for v in [
            0u64,
            1,
            127,
            128,
            129,
            1_000,
            1_999,
            123_456_789,
            u64::MAX / 3,
        ] {
            let (lo, hi) = bounds(index(v));
            assert!(lo <= v as f64 && (v as f64) < hi, "{v} outside its bucket");
        }
    }

    #[test]
    fn quantiles_need_a_tail() {
        let mut h = Hist::default();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        let p50 = h.quantile(0.5).expect("500 samples above p50");
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.01, "p50 {p50}");
        let p99 = h.quantile(0.99).expect("10 samples above p99");
        assert!((p99 - 990_000.0).abs() / 990_000.0 < 0.01, "p99 {p99}");
        assert!(h.quantile(0.999).is_none(), "1 sample above p99.9");
    }
}
