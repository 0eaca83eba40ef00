//! Zipf-distributed sampling for skewed access patterns.
//!
//! File accesses on personal devices are heavily skewed: a small set of
//! hot files (recent photos, active app databases) absorbs most traffic.
//! The classic Zipf(s) distribution over ranks models this.

use rand::Rng;

/// A Zipf sampler over ranks `0..n`.
///
/// Sampling uses the inverse-CDF over precomputed cumulative weights:
/// O(log n) per sample, exact for any exponent.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Creates a sampler over `n` ranks with exponent `s` (`s = 0` is
    /// uniform; `s ~ 1` is classic web/file-access skew).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `s` is negative.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(s >= 0.0, "exponent must be non-negative");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cumulative.push(total);
        }
        Zipf { cumulative }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Whether the sampler is empty (never true — `new` requires n > 0).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Samples a rank in `0..n` (0 is the hottest).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        // sos-lint: allow(panic-path, "Zipf::new asserts n > 0, so the cumulative table always has a last element")
        let total = *self.cumulative.last().expect("non-empty");
        let u = rng.gen_range(0.0..total);
        self.cumulative.partition_point(|&c| c <= u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn samples_are_in_range() {
        let z = Zipf::new(10, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 10);
        }
    }

    #[test]
    fn rank_zero_dominates_with_high_skew() {
        let z = Zipf::new(100, 1.2);
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = vec![0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[90]);
        // Top 10 ranks should take a large share under s=1.2.
        let top: usize = counts[..10].iter().sum();
        assert!(top > 10_000, "top-10 share {top}/20000");
    }

    #[test]
    fn zero_exponent_is_roughly_uniform() {
        let z = Zipf::new(4, 0.0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "count {c}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn empty_panics() {
        let _ = Zipf::new(0, 1.0);
    }
}
