//! Order statistics over the benchmark's samples.

/// Samples that must lie beyond a percentile before it may be reported as a
/// tail: fewer, and one stray sample moves it.
pub const MIN_BEYOND: usize = 20;

/// Percentiles a tail may be reported at, highest first.
const TAIL_PERCENTILES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond percentile `p` of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Value at percentile `p` (0–100) of ascending `sorted`, by nearest rank.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "a percentile needs at least one sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// Percentile `p` of unsorted `values`, or 0 when there are none.
pub fn percentile_or_zero(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        percentile(&sorted(values), p)
    }
}

/// Ascending copy of `values` (infinities last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Median of `values`, by nearest rank.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// The highest percentile at or below `preferred` with at least
/// [`MIN_BEYOND`] of `n` samples beyond it, or `None` when even the lowest
/// candidate has too few.
pub fn tail_percentile(n: usize, preferred: f64) -> Option<f64> {
    TAIL_PERCENTILES
        .into_iter()
        .filter(|&p| p <= preferred)
        .find(|&p| n > 0 && samples_beyond(n, p) >= MIN_BEYOND)
}

/// SplitMix64: the seeded generator of every workload draw.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Geometric mean of positive ratios; 1 for an empty set.
pub fn geomean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 1.0;
    }
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&values, 99.0), 99.0);
        assert_eq!(percentile(&values, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_twenty_samples_beyond_it() {
        // 3000 requests: p99 has 30 beyond it, p99.9 only 3.
        assert_eq!(tail_percentile(3000, 99.9), Some(99.0));
        assert_eq!(samples_beyond(3000, 99.0), 30);
        // Exactly 20 beyond is enough; 19 is not.
        assert_eq!(tail_percentile(2000, 99.0), Some(99.0));
        assert_eq!(tail_percentile(1999, 99.0), Some(95.0));
        assert_eq!(tail_percentile(400, 95.0), Some(95.0));
        assert_eq!(tail_percentile(399, 95.0), Some(90.0));
        // A preferred percentile caps the choice even when a higher one
        // has enough samples.
        assert_eq!(tail_percentile(100_000, 95.0), Some(95.0));
        // About 30 sweep points leave no tail at all.
        assert_eq!(tail_percentile(30, 99.0), None);
        assert_eq!(tail_percentile(0, 99.0), None);
    }

    #[test]
    fn unsolved_samples_sort_last_and_own_the_tail() {
        let mut latencies = vec![1.0; 97];
        latencies.extend([f64::INFINITY; 3]);
        let sorted = sorted(&latencies);
        assert_eq!(percentile(&sorted, 50.0), 1.0);
        assert_eq!(percentile(&sorted, 99.0), f64::INFINITY);
    }

    #[test]
    fn draws_repeat_for_a_seed() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            let mut items: Vec<usize> = (0..10).collect();
            rng.shuffle(&mut items);
            items
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let mut sorted = draw(7);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn geomean_of_ratios() {
        assert_eq!(geomean(&[]), 1.0);
        assert!((geomean(&[2.0, 0.5]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[4.0, 1.0]) - 2.0).abs() < 1e-12);
    }
}
