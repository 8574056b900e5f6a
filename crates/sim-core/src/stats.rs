//! Order statistics shared by every crate that summarises latencies.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// sample with at least `p`% of the sample set at or below it; 0 on an
/// empty sample.
///
/// `p` is a whole percent. The rank is `ceil(p * n / 100)` in integer
/// arithmetic, so it is exact where a float rank can round up past an
/// integer.
///
/// ```
/// let sorted: Vec<u64> = (1..=100).collect();
/// assert_eq!(sim_core::stats::nearest_rank(&sorted, 50), 50);
/// assert_eq!(sim_core::stats::nearest_rank(&sorted, 99), 99);
/// assert_eq!(sim_core::stats::nearest_rank(&[], 50), 0);
/// ```
pub fn nearest_rank(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as u64).div_ceil(100) as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}
