//! Block-batched error-count sampling.
//!
//! The naive read path draws one error count per page read —
//! [`ErrorModel::sample_error_count`](crate::errors::ErrorModel::sample_error_count)
//! costs an `exp` and an inverse-CDF walk per draw. In the regime flash
//! actually operates in (small per-page mean error counts, Poisson
//! sampling), the draws for consecutive reads of a block share the same
//! static RBER — exactly the `(mode, pec, retention, page type)` key the
//! per-block [`RberCache`](crate::rbercache::RberCache) memoizes.
//!
//! [`ErrorBatcher`] exploits a classical identity: a Poisson process
//! split uniformly over `P` cells yields `P` *independent* Poisson
//! variables of the per-cell mean. One draw of
//! `K ~ Poisson(P · nbits · p₀)` partitioned multinomially over `P`
//! slots therefore gives a queue of per-read error counts whose joint
//! distribution is identical to `P` independent per-read draws — one
//! `exp` and one inverse-CDF walk amortized over `P` reads.
//!
//! Read disturb grows the per-read probability slightly between reads
//! (`p_i = p₀ · m_i / m₀`, `m` the disturb multiplier, monotone in the
//! read count). Poisson superposition keeps the batch exact: each read
//! adds an independent `Poisson(nbits · base · (m_i − m₀))` *top-up*
//! whose mean is the disturb growth since the batch was drawn, so
//! `slot + top-up ~ Poisson(nbits · base · m_i)` — the same
//! distribution the per-page path samples. The top-up draw costs one
//! uniform in the common case: `u ≤ 1 − λ` proves the count is zero
//! without evaluating `exp(−λ)`, because `1 − λ ≤ exp(−λ)`.
//!
//! The batcher is the device's only sampler; the per-page draw runs
//! only as its fallback outside the envelope below. Batching consumes
//! the RNG stream differently from one draw per read, so no second
//! sampler can serve as a draw-by-draw oracle. Instead the device-level
//! test `batched_error_counts_match_the_analytic_mean` checks the
//! injected total on a fixed seed grid against its exact mean
//! `Σ nbits · rber`, summed from each read's reported RBER.

use crate::density::ProgramMode;
use rand::Rng;

/// Reads covered by one batch draw.
pub(crate) const BATCH_SLOTS: usize = 32;

/// Largest per-read mean error count the batcher accepts; beyond this
/// the per-page draw is no cheaper than the batch bookkeeping.
const MAX_LAMBDA: f64 = 2.0;

/// Largest per-bit probability the batcher accepts: keeps the batch far
/// from the `rber ≤ 0.5` clamp so the Poisson split stays exact.
const MAX_P: f64 = 0.25;

/// Upper bound on concurrent batches per block (distinct retention ages
/// × page types); reached only by pathological retention patterns, in
/// which case the batcher resets and re-fills.
const MAX_ENTRIES: usize = 16;

/// One batch: a queue of pre-partitioned error counts for upcoming
/// reads sharing a static RBER.
#[derive(Debug, Clone)]
struct BatchEntry {
    /// Bit pattern of the static RBER product (retention age and page
    /// type are folded into this value by construction).
    key: u64,
    /// `nbits × static product` — scales disturb top-ups.
    scale: f64,
    /// Disturb multiplier when the batch was drawn.
    m0: f64,
    /// Block read count when the batch was drawn; a program resets the
    /// count, which invalidates the batch (its `m0` would overshoot).
    base_reads: u64,
    /// Next slot to consume.
    next: usize,
    /// Pre-partitioned per-read error counts.
    counts: [u16; BATCH_SLOTS],
}

/// Per-block batched error-count sampler.
#[derive(Debug, Clone, Default)]
pub(crate) struct ErrorBatcher {
    epoch: Option<(ProgramMode, u32)>,
    entries: Vec<BatchEntry>,
}

impl ErrorBatcher {
    /// Samples this read's error count from the block batch, or returns
    /// `None` when the regime is out of the batcher's envelope (caller
    /// falls back to the per-page draw).
    ///
    /// `base` is the static RBER product (wear, retention, page type),
    /// `m` the disturb multiplier of *this* read, `reads` the block's
    /// read count.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn sample<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        mode: ProgramMode,
        pec: u32,
        base: f64,
        m: f64,
        reads: u64,
        nbits: usize,
    ) -> Option<usize> {
        let p = base * m;
        let lambda = nbits as f64 * p;
        if !(p > 0.0 && p < MAX_P) || lambda > MAX_LAMBDA {
            return None;
        }
        if self.epoch != Some((mode, pec)) {
            self.entries.clear();
            self.epoch = Some((mode, pec));
        }
        let key = base.to_bits();
        let slot = match self.entry_index(key, reads) {
            Some(at) => at,
            None => self.refill(rng, key, base, m, reads, nbits),
        };
        // sos-lint: allow(panic-path, "entry_index/refill return an index into the live entries vector")
        let entry = &mut self.entries[slot];
        // sos-lint: allow(panic-path, "entry_index only returns entries with next < BATCH_SLOTS and refill hands back a fresh entry with next = 0; counts is a BATCH_SLOTS-sized array")
        let count = entry.counts[entry.next] as usize;
        entry.next += 1;
        // Disturb top-up: the reads consumed since the batch was drawn
        // raised this read's mean by `scale × (m − m0)`.
        let extra_lambda = entry.scale * (m - entry.m0);
        let extra = sample_topup(rng, extra_lambda);
        Some(count + extra)
    }

    /// Position of a live entry for `key`, if one has unconsumed slots
    /// and was drawn at or below the current read count.
    fn entry_index(&self, key: u64, reads: u64) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| e.key == key && e.next < BATCH_SLOTS && e.base_reads <= reads)
    }

    /// Draws a fresh batch for `key`, replacing a stale entry for the
    /// same key if present.
    // sos-lint: allow(panic-path, "the written index is either a live position or the freshly pushed tail")
    fn refill<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        key: u64,
        base: f64,
        m: f64,
        reads: u64,
        nbits: usize,
    ) -> usize {
        let lambda0 = nbits as f64 * base * m;
        // One Poisson draw for all slots, split multinomially: each slot
        // is then an independent Poisson(lambda0).
        let total = sample_poisson(rng, lambda0 * BATCH_SLOTS as f64);
        let mut counts = [0u16; BATCH_SLOTS];
        for _ in 0..total {
            let slot = rng.gen_range(0..BATCH_SLOTS);
            counts[slot] = counts[slot].saturating_add(1);
        }
        let entry = BatchEntry {
            key,
            scale: nbits as f64 * base,
            m0: m,
            base_reads: reads,
            next: 0,
            counts,
        };
        if let Some(at) = self.entries.iter().position(|e| e.key == key) {
            self.entries[at] = entry;
            return at;
        }
        if self.entries.len() >= MAX_ENTRIES {
            self.entries.clear();
        }
        self.entries.push(entry);
        self.entries.len() - 1
    }
}

/// Inverse-CDF Poisson draw (one uniform), for means comfortably below
/// the exp(-λ) underflow region.
fn sample_poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    let u: f64 = rng.gen();
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

/// Poisson draw specialised for tiny means (disturb top-ups): one
/// uniform and a comparison in the overwhelmingly common zero case,
/// exact inverse-CDF in the rare remainder.
fn sample_topup<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    let u: f64 = rng.gen();
    // 1 - λ ≤ exp(-λ): u at or below the cheap bound proves k = 0
    // without evaluating the exponential.
    if u <= 1.0 - lambda {
        return 0;
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::density::CellDensity;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn native_plc() -> ProgramMode {
        ProgramMode::native(CellDensity::Plc)
    }

    #[test]
    fn out_of_envelope_regimes_decline() {
        let mut batcher = ErrorBatcher::default();
        let mut rng = StdRng::seed_from_u64(1);
        let mode = native_plc();
        // p too large.
        assert_eq!(batcher.sample(&mut rng, mode, 0, 0.3, 1.0, 1, 17408), None);
        // lambda too large.
        assert_eq!(batcher.sample(&mut rng, mode, 0, 1e-3, 1.0, 1, 17408), None);
        // Zero probability.
        assert_eq!(batcher.sample(&mut rng, mode, 0, 0.0, 1.0, 1, 17408), None);
    }

    #[test]
    fn batched_mean_matches_poisson_mean() {
        let mut batcher = ErrorBatcher::default();
        let mut rng = StdRng::seed_from_u64(2);
        let mode = native_plc();
        let base = 2e-5;
        let nbits = 17408;
        let trials = 40_000usize;
        let mut total = 0usize;
        for i in 0..trials {
            let reads = i as u64 + 1;
            let m = 1.0 + reads as f64 * 1e-8;
            total += batcher
                .sample(&mut rng, mode, 3, base, m, reads, nbits)
                .expect("in envelope");
        }
        let mean = total as f64 / trials as f64;
        let expect = nbits as f64 * base; // disturb drift is negligible here
        assert!(
            (mean / expect - 1.0).abs() < 0.05,
            "mean {mean} vs {expect}"
        );
    }

    #[test]
    fn epoch_change_and_read_reset_invalidate() {
        let mut batcher = ErrorBatcher::default();
        let mut rng = StdRng::seed_from_u64(3);
        let mode = native_plc();
        batcher
            .sample(&mut rng, mode, 1, 1e-5, 1.0, 100, 17408)
            .unwrap();
        assert_eq!(batcher.entries.len(), 1);
        // New pec epoch clears the batches.
        batcher
            .sample(&mut rng, mode, 2, 1e-5, 1.0, 1, 17408)
            .unwrap();
        assert_eq!(batcher.entries.len(), 1);
        assert_eq!(batcher.entries[0].base_reads, 1);
        // A read-count reset (program) forces a redraw for the key.
        let before = batcher.entries[0].next;
        assert!(before > 0);
        batcher
            .sample(&mut rng, mode, 2, 1e-5, 1.0, 0, 17408)
            .unwrap();
        assert_eq!(batcher.entries[0].base_reads, 0);
        assert_eq!(batcher.entries[0].next, 1);
    }

    #[test]
    fn exhausted_batches_redraw() {
        let mut batcher = ErrorBatcher::default();
        let mut rng = StdRng::seed_from_u64(4);
        let mode = native_plc();
        for i in 0..(BATCH_SLOTS * 3) {
            batcher
                .sample(&mut rng, mode, 1, 1e-5, 1.0, i as u64, 17408)
                .unwrap();
        }
        assert_eq!(batcher.entries.len(), 1);
        assert_eq!(batcher.entries[0].next, BATCH_SLOTS);
    }

    #[test]
    fn capacity_reset_keeps_sampling() {
        let mut batcher = ErrorBatcher::default();
        let mut rng = StdRng::seed_from_u64(5);
        let mode = native_plc();
        for i in 0..(MAX_ENTRIES * 2) {
            let base = 1e-6 * (i + 1) as f64;
            batcher
                .sample(&mut rng, mode, 1, base, 1.0, 1, 17408)
                .unwrap();
        }
        assert!(batcher.entries.len() <= MAX_ENTRIES);
    }

    #[test]
    fn topup_distribution_is_poisson() {
        let mut rng = StdRng::seed_from_u64(6);
        let lambda = 0.05;
        let trials = 200_000;
        let total: usize = (0..trials).map(|_| sample_topup(&mut rng, lambda)).sum();
        let mean = total as f64 / trials as f64;
        assert!((mean / lambda - 1.0).abs() < 0.05, "mean {mean}");
        assert_eq!(sample_topup(&mut rng, 0.0), 0);
    }

    #[test]
    fn poisson_draw_tracks_mean_across_regimes() {
        let mut rng = StdRng::seed_from_u64(7);
        for &lambda in &[0.1, 1.0, 8.0, 64.0] {
            let trials = 20_000;
            let total: usize = (0..trials).map(|_| sample_poisson(&mut rng, lambda)).sum();
            let mean = total as f64 / trials as f64;
            assert!(
                (mean / lambda - 1.0).abs() < 0.08,
                "lambda {lambda}: mean {mean}"
            );
        }
    }
}
