//! Log-bucketed latency histogram (HDR-style).
//!
//! Values below 32 cycles land in exact unit-width buckets; larger
//! values share an octave split into 16 log-linear sub-buckets, so the
//! relative quantization error is bounded by 1/16 at every magnitude.
//! Bucket occupancy lives in a sparse `BTreeMap` keyed by bucket index,
//! which keeps serialization deterministic (a requirement for the
//! byte-identical Naive/EventDriven profile-report contract) and the
//! memory footprint proportional to the number of distinct magnitudes
//! actually observed.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::counters::write_prometheus_family;

/// log2 of the number of sub-buckets per octave.
const SUB_BITS: u32 = 4;
/// Sub-buckets per octave; also the mantissa precision of a bucket.
const SUB: u64 = 1 << SUB_BITS;

/// Index of the bucket containing `v`.
fn bucket_index(v: u64) -> u32 {
    if v < 2 * SUB {
        // 0..=31: exact unit buckets.
        v as u32
    } else {
        let exp = 63 - v.leading_zeros();
        let mantissa = ((v >> (exp - SUB_BITS)) & (SUB - 1)) as u32;
        ((exp - SUB_BITS) << SUB_BITS) + SUB as u32 + mantissa
    }
}

/// Smallest value that maps to bucket `idx`.
fn bucket_low(idx: u32) -> u64 {
    if idx < 2 * SUB as u32 {
        u64::from(idx)
    } else {
        let b = idx - SUB as u32;
        let exp = (b >> SUB_BITS) + SUB_BITS;
        let mant = u64::from(b & (SUB as u32 - 1));
        (1u64 << exp) + (mant << (exp - SUB_BITS))
    }
}

/// Largest value that maps to bucket `idx`.
fn bucket_high(idx: u32) -> u64 {
    if idx < 2 * SUB as u32 {
        u64::from(idx)
    } else {
        bucket_low(idx + 1) - 1
    }
}

/// A log-bucketed histogram of cycle counts with exact count/sum/min/max.
///
/// Quantiles are resolved by walking the sparse bucket table to the
/// requested rank and reporting the bucket's upper bound (clamped to the
/// exact maximum), so the reported quantile always falls in the same
/// bucket as the true order statistic.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    /// Sparse bucket occupancy, keyed by bucket index.
    buckets: BTreeMap<u32, u64>,
    /// Exact number of recorded samples.
    count: u64,
    /// Exact sum of all recorded samples.
    sum: u64,
    /// Exact minimum, `None` until a sample is recorded.
    min: Option<u64>,
    /// Exact maximum (0 until a sample is recorded).
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        *self.buckets.entry(bucket_index(v)).or_insert(0) += 1;
        self.count += 1;
        self.sum += v;
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact minimum sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        self.min.unwrap_or(0)
    }

    /// Exact maximum sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the samples, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// holding the sample of rank `ceil(q * count)`, clamped to the exact
    /// maximum. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (&idx, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_high(idx).min(self.max);
            }
        }
        self.max
    }

    /// Folds every sample of `other` into `self`, as if both streams had
    /// been recorded into one histogram.
    pub fn merge(&mut self, other: &Histogram) {
        for (&idx, &n) in &other.buckets {
            *self.buckets.entry(idx).or_insert(0) += n;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = self.max.max(other.max);
    }

    /// Cumulative bucket counts as `(upper_bound, cumulative_count)`
    /// pairs, one per occupied bucket, in ascending bound order — the
    /// shape a Prometheus histogram's `_bucket{le=…}` series wants.
    /// Every pair's count includes all samples at or below the bound,
    /// so the sequence is non-decreasing and the last entry equals
    /// [`Histogram::count`].
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(self.buckets.len());
        let mut cumulative = 0u64;
        for (&idx, &n) in &self.buckets {
            cumulative += n;
            out.push((bucket_high(idx), cumulative));
        }
        out
    }

    /// Renders the histogram in the Prometheus text exposition format:
    /// `# HELP`/`# TYPE histogram` headers, one cumulative
    /// `_bucket{le="…"}` sample per occupied bucket plus the mandatory
    /// `le="+Inf"` bucket, then the exact `_sum` and `_count`. `name`
    /// must already be a valid Prometheus metric name (see
    /// [`prometheus_name`](crate::prometheus_name)).
    pub fn render_prometheus(&self, name: &str, help: &str) -> String {
        let buckets = self
            .cumulative_buckets()
            .into_iter()
            .map(|(bound, cumulative)| (format!("_bucket{{le=\"{bound}\"}}"), cumulative));
        let tail = [
            ("_bucket{le=\"+Inf\"}".to_string(), self.count),
            ("_sum".to_string(), self.sum),
            ("_count".to_string(), self.count),
        ];
        let mut out = String::new();
        write_prometheus_family(&mut out, name, "histogram", help, buckets.chain(tail));
        out
    }

    /// One-line summary: `count=… mean=… p50=… p90=… p99=… max=…`.
    pub fn summary(&self) -> String {
        format!(
            "count={} mean={:.1} p50={} p90={} p99={} max={}",
            self.count,
            self.mean(),
            self.quantile(0.50),
            self.quantile(0.90),
            self.quantile(0.99),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn from_samples(samples: &[u64]) -> Histogram {
        let mut h = Histogram::new();
        for &s in samples {
            h.record(s);
        }
        h
    }

    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn unit_buckets_are_exact() {
        for v in 0..32u64 {
            assert_eq!(bucket_index(v), v as u32);
            assert_eq!(bucket_low(v as u32), v);
            assert_eq!(bucket_high(v as u32), v);
        }
    }

    #[test]
    fn bucket_bounds_are_consistent() {
        for idx in 0..400u32 {
            let lo = bucket_low(idx);
            let hi = bucket_high(idx);
            assert!(lo <= hi);
            assert_eq!(bucket_index(lo), idx);
            assert_eq!(bucket_index(hi), idx);
            if idx > 0 {
                assert_eq!(bucket_low(idx), bucket_high(idx - 1) + 1, "idx={idx}");
            }
        }
    }

    #[test]
    fn relative_error_bounded() {
        for &v in &[32u64, 100, 999, 78_000_000, u64::from(u32::MAX)] {
            let idx = bucket_index(v);
            let width = bucket_high(idx) - bucket_low(idx) + 1;
            assert!(width as f64 <= v as f64 / (SUB as f64 - 1.0) + 1.0, "v={v}");
        }
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn single_sample_quantiles() {
        let h = from_samples(&[1000]);
        assert_eq!(h.quantile(0.0), h.quantile(1.0));
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(h.min(), 1000);
        assert_eq!(h.max(), 1000);
    }

    #[test]
    fn cumulative_buckets_are_monotone_and_total() {
        let h = from_samples(&[1, 1, 5, 900, 900, 900, 70_000]);
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets.last().map(|&(_, c)| c), Some(h.count()));
        for pair in buckets.windows(2) {
            assert!(pair[0].0 < pair[1].0, "bounds ascend");
            assert!(pair[0].1 <= pair[1].1, "counts are cumulative");
        }
        // Each cumulative count is exactly the samples <= the bound.
        for &(bound, cumulative) in &buckets {
            let exact = [1u64, 1, 5, 900, 900, 900, 70_000]
                .iter()
                .filter(|&&s| s <= bound)
                .count() as u64;
            assert_eq!(cumulative, exact, "bound {bound}");
        }
    }

    #[test]
    fn prometheus_rendering_has_cumulative_buckets_and_exact_sum() {
        let h = from_samples(&[2, 2, 7]);
        let text = h.render_prometheus("job_run_ms", "Job run duration.");
        assert_eq!(
            text,
            "# HELP job_run_ms Job run duration.\n\
             # TYPE job_run_ms histogram\n\
             job_run_ms_bucket{le=\"2\"} 2\n\
             job_run_ms_bucket{le=\"7\"} 3\n\
             job_run_ms_bucket{le=\"+Inf\"} 3\n\
             job_run_ms_sum 11\n\
             job_run_ms_count 3\n"
        );
        let empty = Histogram::new().render_prometheus("x", "Empty.");
        assert!(empty.contains("x_bucket{le=\"+Inf\"} 0\n"));
        assert!(empty.contains("x_count 0\n"));
    }

    #[test]
    fn summary_mentions_quantiles() {
        let h = from_samples(&[1, 2, 3]);
        assert!(h.summary().contains("count=3"));
        assert!(h.summary().contains("max=3"));
    }

    proptest! {
        /// Satellite: bucketed quantiles land within one bucket of the
        /// exact order statistic.
        #[test]
        fn quantiles_within_one_bucket(
            samples in proptest::collection::vec(0u64..2_000_000, 1..200),
            q_pct in 0u64..=100,
        ) {
            let h = from_samples(&samples);
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for q in [q_pct as f64 / 100.0, 0.5, 0.99] {
                let approx = h.quantile(q);
                let exact = exact_quantile(&sorted, q);
                let delta =
                    i64::from(bucket_index(approx)) - i64::from(bucket_index(exact));
                prop_assert!(delta.abs() <= 1, "q={q} approx={approx} exact={exact}");
                // The approximation never under-reports below the exact
                // bucket's lower bound or over-reports past the max.
                prop_assert!(approx <= h.max());
            }
        }

        /// Satellite: merge(h1, h2) equals the histogram of the
        /// concatenated sample streams.
        #[test]
        fn merge_equals_concatenation(
            a in proptest::collection::vec(0u64..2_000_000, 0..100),
            b in proptest::collection::vec(0u64..2_000_000, 0..100),
        ) {
            let mut merged = from_samples(&a);
            merged.merge(&from_samples(&b));
            let concat: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
            prop_assert_eq!(merged, from_samples(&concat));
        }
    }
}
