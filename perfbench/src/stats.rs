//! Exact order statistics over stored samples.
//!
//! The serving crate's `LatencyHistogram` buckets latencies by powers of
//! two, so a 1.5–1.9 µs median falls inside one `[1024, 2048)` ns bucket
//! and can only be interpolated. The benchmark keeps every raw sample
//! instead and reads percentiles off the sorted values by nearest rank.

/// The 1-based nearest-rank index of percentile `p` among `len` samples:
/// the smallest rank whose cumulative share reaches `p`.
fn nearest_rank(len: usize, p: f64) -> usize {
    assert!(
        (0.0..=100.0).contains(&p),
        "percentile must lie in [0, 100]"
    );
    let rank = (p / 100.0 * len as f64).ceil() as usize;
    rank.clamp(1, len)
}

/// Exact nearest-rank percentile `p` of `samples`, reordering them in
/// place. `None` when there are no samples.
pub fn percentile<T: Copy + Ord>(samples: &mut [T], p: f64) -> Option<T> {
    if samples.is_empty() {
        return None;
    }
    let rank = nearest_rank(samples.len(), p);
    Some(*samples.select_nth_unstable(rank - 1).1)
}

/// Median of measured values (nearest rank, so always a measured value).
/// `None` when there are none.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[nearest_rank(sorted.len(), 50.0) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_vectors() {
        let mut v = [15u32, 20, 35, 40, 50];
        assert_eq!(percentile(&mut v, 5.0), Some(15));
        assert_eq!(percentile(&mut v, 30.0), Some(20));
        assert_eq!(percentile(&mut v, 40.0), Some(20));
        assert_eq!(percentile(&mut v, 50.0), Some(35));
        assert_eq!(percentile(&mut v, 100.0), Some(50));
        let mut w = [3u32, 6, 7, 8, 8, 10, 13, 15, 16, 20];
        assert_eq!(percentile(&mut w, 25.0), Some(7));
        assert_eq!(percentile(&mut w, 50.0), Some(8));
        assert_eq!(percentile(&mut w, 75.0), Some(15));
        assert_eq!(percentile(&mut w, 0.0), Some(3));
    }

    #[test]
    fn a_median_inside_one_log2_bucket_is_exact() {
        // Every sample lies in [1024, 2048) ns: one log2 bucket, which a
        // bucketed histogram could only interpolate.
        let mut v = [1900u32, 1100, 1650, 1030, 2000, 1500, 1860];
        assert_eq!(percentile(&mut v, 50.0), Some(1650));
        assert_eq!(percentile(&mut v, 99.0), Some(2000));
        assert_eq!(percentile(&mut v, 1.0), Some(1030));
    }

    #[test]
    fn percentile_is_order_independent_and_empty_safe() {
        let mut a = [9u64, 1, 5, 3, 7];
        let mut b = [1u64, 3, 5, 7, 9];
        assert_eq!(percentile(&mut a, 60.0), percentile(&mut b, 60.0));
        assert_eq!(percentile::<u64>(&mut [], 50.0), None);
    }

    #[test]
    fn median_picks_a_measured_value() {
        assert_eq!(median(&[2.5, 0.5, 1.5, 9.0]), Some(1.5));
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[]), None);
    }
}
