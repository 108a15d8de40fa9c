//! Exact order statistics over recorded samples, and a small seeded RNG.
//!
//! Percentiles are taken from the sorted samples themselves (nearest
//! rank), never from histogram buckets: a bucketed quantile snaps to the
//! bucket edges and can report a value above the largest observation.

/// Nearest-rank percentile of `sorted` (ascending) for `q` in `[0, 1]`:
/// the smallest sample with at least `q` of the samples at or below it.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A latency summary: exact p50/p99 and the sample count behind them.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    pub p99: f64,
    pub mean: f64,
    pub max: f64,
}

impl Summary {
    /// Summarize unsorted samples; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            count: sorted.len(),
            p50: percentile(&sorted, 0.50),
            p99: percentile(&sorted, 0.99),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            max: sorted[sorted.len() - 1],
        })
    }

    pub fn to_json(self) -> serde_json::Value {
        crate::obj([
            ("count", self.count.into()),
            ("p50", self.p50.into()),
            ("p99", self.p99.into()),
            ("mean", self.mean.into()),
            ("max", self.max.into()),
        ])
    }
}

/// Median of unsorted samples (the mean of the middle pair for an even
/// count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// SplitMix64: a tiny, fully specified generator, so the request stream
/// depends on the seed alone and not on any library's version.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_on_a_known_distribution() {
        // 1..=1000 shuffled: nearest rank gives exactly 500 and 990.
        let mut rng = Rng::new(3);
        let mut samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        for i in (1..samples.len()).rev() {
            samples.swap(i, rng.below(i + 1));
        }
        let s = Summary::of(&samples).unwrap();
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.p99, 990.0);
        assert_eq!(s.max, 1000.0);
        // A percentile is always an observed sample, never above the max.
        let skewed = [0.1, 0.2, 0.3, 40.0];
        let s = Summary::of(&skewed).unwrap();
        assert_eq!(s.p99, 40.0);
        assert_eq!(s.p50, 0.2);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(1);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(2);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
