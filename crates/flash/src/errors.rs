//! Bit-error sampling: how many bits of a page read flip, and which.
//!
//! [`CellModel`](crate::cell::CellModel) gives a raw bit error rate;
//! these free functions turn it into concrete flipped bits on reads.
//! The per-block sampler ([`batch`](crate::batch)) calls
//! [`sample_error_count`] outside its batch envelope and shares the one
//! inverse-CDF Poisson walk ([`poisson_walk`]) for its batch and
//! top-up draws; the device then flips the drawn count of bits with
//! [`inject_errors`].

use rand::Rng;

/// Samples the number of bit errors in `nbits` independent bits each
/// flipping with probability `p`.
///
/// Uses the exact-ish regime split standard for simulators: inverse
/// CDF Poisson sampling for small means, a normal approximation for
/// large ones. Both are accurate for the `p <= 1e-2` regime flash
/// operates in. Saturated probabilities (`p > 0.5`, which the RBER
/// clamp produces at deep end of life) sample the *complement* —
/// `nbits` minus a single draw at `1 - p` — so every regime costs one
/// draw instead of `nbits` per-bit coin flips.
pub(crate) fn sample_error_count<R: Rng + ?Sized>(rng: &mut R, nbits: usize, p: f64) -> usize {
    if p <= 0.0 || nbits == 0 {
        return 0;
    }
    if p >= 1.0 {
        return nbits;
    }
    if p > 0.5 {
        // Binomial symmetry: errors = nbits - successes(1 - p). The
        // complement probability is < 0.5, landing in the Poisson /
        // normal machinery below with a single draw.
        return nbits - sample_error_count(rng, nbits, 1.0 - p);
    }
    let lambda = nbits as f64 * p;
    if lambda < 50.0 {
        sample_poisson(rng, lambda).min(nbits)
    } else {
        // Normal approximation to Binomial(n, p).
        let sigma = (lambda * (1.0 - p)).sqrt();
        let z = sample_standard_normal(rng);
        ((lambda + sigma * z).round().max(0.0) as usize).min(nbits)
    }
}

/// Inverse-CDF Poisson draw (one uniform), for means comfortably below
/// the exp(-λ) underflow region.
pub(crate) fn sample_poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    poisson_walk(rng.gen(), lambda)
}

/// The inverse-CDF walk every Poisson draw shares: the smallest `k`
/// whose `Poisson(lambda)` CDF reaches the uniform `u`, stopping early
/// once the terms underflow.
pub(crate) fn poisson_walk(u: f64, lambda: f64) -> usize {
    let mut cumulative = (-lambda).exp();
    let mut term = cumulative;
    let mut k = 0usize;
    while u > cumulative {
        k += 1;
        term *= lambda / k as f64;
        cumulative += term;
        if term < 1e-300 {
            break;
        }
    }
    k
}

/// Samples `count` distinct bit positions in `[0, nbits)`.
fn sample_error_positions<R: Rng + ?Sized>(rng: &mut R, nbits: usize, count: usize) -> Vec<usize> {
    let count = count.min(nbits);
    if count == 0 {
        return Vec::new();
    }
    // Rejection sampling is fast because error counts are tiny
    // relative to page size in every non-degenerate regime.
    if count * 4 < nbits {
        let mut seen = std::collections::HashSet::with_capacity(count);
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let pos = rng.gen_range(0..nbits);
            if seen.insert(pos) {
                out.push(pos);
            }
        }
        out
    } else {
        // Dense regime: partial Fisher-Yates over all positions.
        let mut all: Vec<usize> = (0..nbits).collect();
        for i in 0..count {
            let j = rng.gen_range(i..nbits);
            all.swap(i, j);
        }
        all.truncate(count);
        all
    }
}

/// Flips `count` random distinct bits of `data` in place and returns
/// the flipped bit positions.
pub(crate) fn inject_errors<R: Rng + ?Sized>(
    rng: &mut R,
    data: &mut [u8],
    count: usize,
) -> Vec<usize> {
    let nbits = data.len() * 8;
    let positions = sample_error_positions(rng, nbits, count);
    for &pos in &positions {
        if let Some(byte) = data.get_mut(pos / 8) {
            *byte ^= 1 << (pos % 8);
        }
    }
    positions
}

/// Samples a standard normal variate via Box–Muller.
fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sample_count_mean_tracks_lambda() {
        let mut rng = StdRng::seed_from_u64(7);
        let nbits = 16 * 1024 * 8;
        let p = 1e-3;
        let trials = 2000;
        let total: usize = (0..trials)
            .map(|_| sample_error_count(&mut rng, nbits, p))
            .sum();
        let mean = total as f64 / trials as f64;
        let expect = nbits as f64 * p;
        assert!(
            (mean / expect - 1.0).abs() < 0.05,
            "mean {mean} vs expected {expect}"
        );
    }

    #[test]
    fn sample_count_zero_for_zero_p() {
        let mut rng = StdRng::seed_from_u64(7);
        assert_eq!(sample_error_count(&mut rng, 4096, 0.0), 0);
        assert_eq!(sample_error_count(&mut rng, 0, 0.5), 0);
    }

    #[test]
    fn sample_count_large_lambda_uses_normal_path() {
        let mut rng = StdRng::seed_from_u64(9);
        let nbits = 1 << 20;
        let p = 1e-3; // lambda ~ 1049 -> normal path
        let trials = 500;
        let total: usize = (0..trials)
            .map(|_| sample_error_count(&mut rng, nbits, p))
            .sum();
        let mean = total as f64 / trials as f64;
        let expect = nbits as f64 * p;
        assert!((mean / expect - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn sample_count_saturated_p_uses_single_complement_draw() {
        let nbits = 16 * 1024 * 8;
        // The saturated regime must track its mean without per-bit draws:
        // a full page at p = 0.9 consumed ~131k gen_bool calls before,
        // one normal draw now. Mean check over many trials.
        let mut rng = StdRng::seed_from_u64(23);
        for &p in &[0.5, 0.6, 0.9, 0.99] {
            let trials = 300;
            let total: usize = (0..trials)
                .map(|_| sample_error_count(&mut rng, nbits, p))
                .sum();
            let mean = total as f64 / trials as f64;
            let expect = nbits as f64 * p;
            assert!(
                (mean / expect - 1.0).abs() < 0.05,
                "p={p}: mean {mean} vs expected {expect}"
            );
        }
        // Certainty is exact, with no randomness consumed.
        let mut a = StdRng::seed_from_u64(5);
        assert_eq!(sample_error_count(&mut a, 4096, 1.0), 4096);
        assert_eq!(sample_error_count(&mut a, 4096, 2.0), 4096);
    }

    #[test]
    fn sample_count_is_deterministic_per_seed() {
        for &p in &[1e-4, 0.3, 0.5, 0.8] {
            let mut a = StdRng::seed_from_u64(99);
            let mut b = StdRng::seed_from_u64(99);
            for _ in 0..50 {
                assert_eq!(
                    sample_error_count(&mut a, 17408, p),
                    sample_error_count(&mut b, 17408, p),
                );
            }
        }
    }

    #[test]
    fn positions_are_distinct_and_in_range() {
        let mut rng = StdRng::seed_from_u64(11);
        for &count in &[0usize, 1, 17, 900, 4096] {
            let pos = sample_error_positions(&mut rng, 4096, count);
            assert_eq!(pos.len(), count.min(4096));
            let set: std::collections::HashSet<_> = pos.iter().collect();
            assert_eq!(set.len(), pos.len(), "duplicates at count {count}");
            assert!(pos.iter().all(|&p| p < 4096));
        }
    }

    #[test]
    fn inject_flips_exactly_count_bits() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut data = vec![0u8; 512];
        let flipped = inject_errors(&mut rng, &mut data, 33);
        assert_eq!(flipped.len(), 33);
        let ones: u32 = data.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 33);
    }

    #[test]
    fn inject_is_involutive() {
        let mut rng = StdRng::seed_from_u64(17);
        let original: Vec<u8> = (0..256).map(|i| (i * 31 % 251) as u8).collect();
        let mut data = original.clone();
        let flipped = inject_errors(&mut rng, &mut data, 40);
        // Flipping the same positions again restores the data.
        for pos in flipped {
            data[pos / 8] ^= 1 << (pos % 8);
        }
        assert_eq!(data, original);
    }
}
