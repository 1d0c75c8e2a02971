//! Percentile interpolation over the telemetry log2 histograms, which the
//! E13 open-loop records publish and `experiments e13 --gate` bounds.
//!
//! The telemetry layer records latencies into 65 log2 buckets
//! ([`skyline_core::telemetry::bucket_index`]): cheap on the hot path,
//! but a bucket only bounds a value to a power-of-two range. This module
//! recovers interpolated percentiles from those counts: find the bucket
//! holding the nearest-rank target, then linearly interpolate inside its
//! `[lower, upper)` range by rank position. The result is guaranteed to
//! land within one bucket boundary of the exact sample quantile — tight
//! enough to gate a p99 against a bound orders of magnitude away, which
//! is the only honest way to gate a tail on shared CI hardware.

use skyline_core::telemetry::bucket_lower_bound;

/// The percentile set the open-loop reports and E13 records publish, as
/// `(metric label, percentile)` pairs.
pub const PERCENTILE_LABELS: [(&str, f64); 4] =
    [("p50", 50.0), ("p95", 95.0), ("p99", 99.0), ("p999", 99.9)];

/// The 1-based nearest-rank target for percentile `p` over `total`
/// samples: the smallest rank whose cumulative fraction reaches `p`.
fn target_rank(total: u64, p: f64) -> u64 {
    let raw = ((p / 100.0) * total as f64).ceil();
    (raw as u64).clamp(1, total)
}

/// Interpolated percentile from dense log2 bucket counts (`buckets[i]` =
/// number of samples whose [`bucket_index`] is `i`, as kept by
/// `skyline_serve::LatencyHistogram`).
///
/// Finds the bucket containing the nearest-rank target and interpolates
/// linearly by rank within the bucket's value range, so the result lies
/// in `[bucket_lower_bound(i), bucket_lower_bound(i + 1)]` — within one
/// bucket boundary of the exact sample quantile. Returns 0 for an empty
/// histogram.
///
/// [`bucket_index`]: skyline_core::telemetry::bucket_index
pub fn percentile(buckets: &[u64], p: f64) -> u64 {
    assert!(
        (0.0..=100.0).contains(&p),
        "percentile must lie within [0, 100]"
    );
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let target = target_rank(total, p);
    let mut cum = 0u64;
    for (i, &count) in buckets.iter().enumerate() {
        if count == 0 {
            continue;
        }
        if cum + count >= target {
            let lower = bucket_lower_bound(i);
            let upper = bucket_lower_bound(i + 1);
            // Rank position inside this bucket, in (0, 1].
            let into = (target - cum) as f64 / count as f64;
            let offset = (into * (upper - lower) as f64) as u64;
            return lower.saturating_add(offset).min(upper);
        }
        cum += count;
    }
    // total > 0 guarantees the loop returned; keep the checker happy.
    bucket_lower_bound(buckets.len())
}

/// [`percentile`] over the sparse `(bucket index, count)` pairs a
/// [`skyline_core::telemetry::HistogramSnapshot`] carries.
pub fn percentile_sparse(pairs: &[(usize, u64)], p: f64) -> u64 {
    let len = pairs.iter().map(|&(i, _)| i + 1).max().unwrap_or(0);
    let mut dense = vec![0u64; len];
    for &(i, count) in pairs {
        dense[i] += count;
    }
    percentile(&dense, p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyline_core::telemetry::{bucket_index, HISTOGRAM_BUCKETS};

    fn splitmix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Builds the dense bucket counts for a raw sample set.
    fn histogram_of(samples: &[u64]) -> Vec<u64> {
        let mut buckets = vec![0u64; HISTOGRAM_BUCKETS];
        for &s in samples {
            buckets[bucket_index(s)] += 1;
        }
        buckets
    }

    /// The exact nearest-rank quantile, same rank convention as
    /// [`percentile`].
    fn exact_quantile(sorted: &[u64], p: f64) -> u64 {
        let target = target_rank(sorted.len() as u64, p);
        sorted[(target - 1) as usize]
    }

    /// The property the module promises: the interpolated percentile is
    /// within one bucket boundary of the exact sample quantile.
    fn assert_within_one_bucket(samples: &mut [u64], p: f64, ctx: &str) {
        samples.sort_unstable();
        let exact = exact_quantile(samples, p);
        let approx = percentile(&histogram_of(samples), p);
        let b = bucket_index(exact);
        let lo = bucket_lower_bound(b);
        let hi = bucket_lower_bound(b + 1);
        assert!(
            approx >= lo && approx <= hi,
            "{ctx}: p{p} approx {approx} outside [{lo}, {hi}] around exact {exact}"
        );
    }

    #[test]
    fn interpolated_percentiles_stay_within_one_bucket_of_exact() {
        // Property test over deterministic pseudo-random sample sets:
        // uniform, log-uniform (exercises every bucket width), and
        // heavily tied distributions.
        for seed in 0..40u64 {
            let n = 1 + (splitmix(seed ^ 0xa11ce) % 400) as usize;
            let mut uniform: Vec<u64> = (0..n)
                .map(|i| splitmix(seed ^ (i as u64) << 1) % 1_000_000)
                .collect();
            let mut loguni: Vec<u64> = (0..n)
                .map(|i| {
                    let r = splitmix(seed.wrapping_mul(31) ^ i as u64);
                    let shift = r % 63;
                    (1u64 << shift) | (splitmix(r) & ((1 << shift) - 1).max(1))
                })
                .collect();
            let mut tied: Vec<u64> = (0..n)
                .map(|i| [0, 1, 7, 4096][(splitmix(seed ^ i as u64) % 4) as usize])
                .collect();
            for (label, p) in PERCENTILE_LABELS {
                assert_within_one_bucket(&mut uniform, p, &format!("uniform/{seed}/{label}"));
                assert_within_one_bucket(&mut loguni, p, &format!("loguni/{seed}/{label}"));
                assert_within_one_bucket(&mut tied, p, &format!("tied/{seed}/{label}"));
            }
        }
    }

    #[test]
    fn overflow_bucket_stays_bounded() {
        // Samples landing in the 65th (overflow) bucket [2^63, u64::MAX]:
        // interpolation must neither wrap nor leave the bucket.
        let mut samples: Vec<u64> = (0..50)
            .map(|i| (1u64 << 63) | splitmix(i))
            .chain(std::iter::repeat(u64::MAX).take(10))
            .collect();
        for (label, p) in PERCENTILE_LABELS {
            assert_within_one_bucket(&mut samples, p, &format!("overflow/{label}"));
        }
        // All-overflow histogram: every percentile lands in bucket 64.
        let all_max = vec![u64::MAX; 8];
        let v = percentile(&histogram_of(&all_max), 50.0);
        assert!(
            v >= 1u64 << 63,
            "p50 of all-MAX samples left the top bucket"
        );
    }

    #[test]
    fn empty_and_zero_histograms_report_zero() {
        assert_eq!(percentile(&[], 99.0), 0);
        assert_eq!(percentile(&vec![0u64; HISTOGRAM_BUCKETS], 50.0), 0);
        assert_eq!(percentile(&histogram_of(&[0, 0, 0]), 99.9), 0);
        assert_eq!(percentile_sparse(&[], 99.0), 0);
    }

    #[test]
    fn sparse_and_dense_agree() {
        let samples: Vec<u64> = (0..200).map(|i| splitmix(i) % 50_000).collect();
        let dense = histogram_of(&samples);
        let sparse: Vec<(usize, u64)> = dense
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect();
        for (_, p) in PERCENTILE_LABELS {
            assert_eq!(percentile(&dense, p), percentile_sparse(&sparse, p));
        }
    }

    #[test]
    fn percentiles_are_monotone_in_p() {
        let samples: Vec<u64> = (0..500).map(|i| splitmix(i ^ 0xfeed) % 1_000_000).collect();
        let buckets = histogram_of(&samples);
        let values: Vec<u64> = PERCENTILE_LABELS
            .iter()
            .map(|&(_, p)| percentile(&buckets, p))
            .collect();
        for w in values.windows(2) {
            assert!(w[0] <= w[1], "percentiles must be monotone: {values:?}");
        }
    }
}
