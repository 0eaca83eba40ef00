//! The per-block error sampler: one memo of the static RBER term and
//! one block-batched error-count draw, under one `(mode, pec)` epoch.
//!
//! Every page read goes through [`ErrorBatcher::sample`], which returns
//! the read's error count, its RBER and whether the static RBER term
//! was a memo hit. It does three things.
//!
//! **Memoizes the static RBER term.**
//! [`CellModel::rber`](crate::cell::CellModel::rber) splits into an
//! expensive static part (`powf`, `ln`, and a Q-function over wear and
//! retention) and a one-multiply read-disturb factor. The static part's
//! inputs — program mode, program/erase count and the retention age of
//! the data — change only on program, erase, mode change or an
//! `advance_days` clock tick. The memo is keyed **exactly** (no
//! quantisation) on the full bit pattern of `retention_days` plus the
//! page type, and the cached value is the very
//! `rber_static × page_type_factor` expression the naive formula
//! evaluates, so a hit is bit-identical to recomputing from scratch —
//! `tests/proptest_rber.rs` pins this with `f64::to_bits` equality
//! against [`CellModel::page_rber`](crate::cell::CellModel::page_rber).
//!
//! **Batches the error-count draw.** In the regime flash actually
//! operates in (small per-page mean error counts, Poisson sampling),
//! consecutive reads of a block share the same static RBER. A Poisson
//! process split uniformly over `P` cells yields `P` *independent*
//! Poisson variables of the per-cell mean. One draw of
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
//! **Falls back to the per-page draw** ([`sample_error_count`]) outside
//! the batch envelope below.
//!
//! One epoch serves the memo and the batches because a block's
//! `(mode, pec)` never comes back between two reads: a mode change
//! needs an empty block, and an empty block is read again only after a
//! program, which an erase (bumping `pec`) precedes. A new epoch clears
//! both tables. Clock advances and re-programs need no invalidation:
//! they change the retention age, which is part of the memo key, and a
//! program resets the read count, which retires the block's batches.
//!
//! Batching consumes the RNG stream differently from one draw per read,
//! so the per-page draw cannot serve as a draw-by-draw oracle. The
//! device-level test `batched_error_counts_match_the_analytic_mean`
//! checks the injected total on a fixed seed grid against its exact
//! mean `Σ nbits · rber`, summed from each read's reported RBER. The
//! test module below keeps the earlier three-part composition (separate
//! memo, batcher and per-page draw) as a draw-for-draw oracle.

use crate::cell::CellModel;
use crate::density::ProgramMode;
use crate::errors::{poisson_walk, sample_error_count, sample_poisson};
use rand::Rng;
use std::collections::HashMap;

/// Reads covered by one batch draw.
pub(crate) const BATCH_SLOTS: usize = 32;

/// Largest per-read mean error count the batcher accepts; beyond this
/// the per-page draw is no cheaper than the batch bookkeeping.
const MAX_LAMBDA: f64 = 2.0;

/// Largest per-bit probability the batcher accepts: keeps the batch far
/// from the `rber ≤ 0.5` clamp so the Poisson split stays exact.
const MAX_P: f64 = 0.25;

/// Upper bound on memoized static RBER values per block; reached only
/// by pathological retention patterns (a block holding pages programmed
/// on hundreds of distinct days), in which case the memo resets and
/// re-fills — a correctness no-op, since values are recomputed on
/// demand.
const MAX_MEMO_ENTRIES: usize = 512;

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

/// What one read drew.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Draw {
    /// Bit errors to inject, at most the page's bit count.
    pub(crate) count: usize,
    /// The raw bit error rate the model assigned to this read.
    pub(crate) rber: f64,
    /// Whether the static RBER term came from the memo.
    pub(crate) memo_hit: bool,
}

/// Per-block error sampler: the static RBER memo and the batched
/// error-count draw, invalidated together by the `(mode, pec)` epoch.
#[derive(Debug, Clone, Default)]
pub(crate) struct ErrorBatcher {
    epoch: Option<(ProgramMode, u32)>,
    /// `rber_static × page_type_factor`, keyed by the retention age's
    /// bits and the page type.
    memo: HashMap<(u64, u32), f64>,
    entries: Vec<BatchEntry>,
}

impl ErrorBatcher {
    /// Samples one page read: the error count to inject into its
    /// `nbits` bits, its RBER and whether the static term was a memo
    /// hit. `reads` is the block's read count including this read.
    ///
    /// # Panics
    ///
    /// Panics if `mode.physical` differs from the model's density (the
    /// same documented contract as [`CellModel::rber_static`]).
    #[expect(
        clippy::too_many_arguments,
        reason = "one argument per input of the read's error draw, all hot-path scalars"
    )]
    pub(crate) fn sample<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        model: &CellModel,
        mode: ProgramMode,
        pec: u32,
        retention_days: f64,
        page_type: u32,
        reads: u64,
        nbits: usize,
    ) -> Draw {
        let (base, memo_hit) = self.static_rber(model, mode, pec, retention_days, page_type);
        let m = model.disturb_multiplier(reads);
        let rber = (base * m).min(0.5);
        let count = match self.batched(rng, base, m, reads, nbits) {
            Some(count) => count.min(nbits),
            None => sample_error_count(rng, nbits, rber),
        };
        Draw {
            count,
            rber,
            memo_hit,
        }
    }

    /// `rber_static × page_type_factor` for one page read, memoized;
    /// the flag reports a memo hit. Entering a new `(mode, pec)` epoch
    /// clears the memo and the batches.
    fn static_rber(
        &mut self,
        model: &CellModel,
        mode: ProgramMode,
        pec: u32,
        retention_days: f64,
        page_type: u32,
    ) -> (f64, bool) {
        if self.epoch != Some((mode, pec)) {
            self.memo.clear();
            self.entries.clear();
            self.epoch = Some((mode, pec));
        }
        if self.memo.len() >= MAX_MEMO_ENTRIES {
            self.memo.clear();
        }
        let key = (retention_days.to_bits(), page_type);
        if let Some(&value) = self.memo.get(&key) {
            return (value, true);
        }
        let value = model.rber_static(mode, pec, retention_days)
            * CellModel::page_type_factor(mode, page_type);
        self.memo.insert(key, value);
        (value, false)
    }

    /// This read's error count from the block batch, or `None` when the
    /// regime is out of the batcher's envelope (the caller then takes
    /// the per-page draw).
    ///
    /// `base` is the static RBER product (wear, retention, page type),
    /// `m` the disturb multiplier of *this* read, `reads` the block's
    /// read count.
    fn batched<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
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

/// Poisson draw specialised for tiny means (disturb top-ups): one
/// uniform and a comparison in the overwhelmingly common zero case,
/// the shared inverse-CDF walk in the rare remainder.
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
    poisson_walk(u, lambda)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellState;
    use crate::density::CellDensity;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn native_plc() -> ProgramMode {
        ProgramMode::native(CellDensity::Plc)
    }

    fn oracle(model: &CellModel, mode: ProgramMode, pec: u32, days: f64, page_type: u32) -> f64 {
        model.rber_static(mode, pec, days) * CellModel::page_type_factor(mode, page_type)
    }

    #[test]
    fn out_of_envelope_regimes_decline() {
        let mut batcher = ErrorBatcher::default();
        let mut rng = StdRng::seed_from_u64(1);
        // p too large.
        assert_eq!(batcher.batched(&mut rng, 0.3, 1.0, 1, 17408), None);
        // lambda too large.
        assert_eq!(batcher.batched(&mut rng, 1e-3, 1.0, 1, 17408), None);
        // Zero probability.
        assert_eq!(batcher.batched(&mut rng, 0.0, 1.0, 1, 17408), None);
    }

    #[test]
    fn batched_mean_matches_poisson_mean() {
        let mut batcher = ErrorBatcher::default();
        let mut rng = StdRng::seed_from_u64(2);
        let base = 2e-5;
        let nbits = 17408;
        let trials = 40_000usize;
        let mut total = 0usize;
        for i in 0..trials {
            let reads = i as u64 + 1;
            let m = 1.0 + reads as f64 * 1e-8;
            total += batcher
                .batched(&mut rng, base, m, reads, nbits)
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
        let model = CellModel::for_density(CellDensity::Plc);
        let mut batcher = ErrorBatcher::default();
        let mut rng = StdRng::seed_from_u64(3);
        let mode = native_plc();
        batcher.sample(&mut rng, &model, mode, 1, 0.0, 0, 100, 17408);
        assert_eq!(batcher.entries.len(), 1);
        // New pec epoch clears the batches.
        batcher.sample(&mut rng, &model, mode, 2, 0.0, 0, 1, 17408);
        assert_eq!(batcher.entries.len(), 1);
        assert_eq!(batcher.entries[0].base_reads, 1);
        // A read-count reset (program) forces a redraw for the key.
        let before = batcher.entries[0].next;
        assert!(before > 0);
        batcher.sample(&mut rng, &model, mode, 2, 0.0, 0, 0, 17408);
        assert_eq!(batcher.entries[0].base_reads, 0);
        assert_eq!(batcher.entries[0].next, 1);
    }

    #[test]
    fn exhausted_batches_redraw() {
        let mut batcher = ErrorBatcher::default();
        let mut rng = StdRng::seed_from_u64(4);
        for i in 0..(BATCH_SLOTS * 3) {
            batcher
                .batched(&mut rng, 1e-5, 1.0, i as u64, 17408)
                .unwrap();
        }
        assert_eq!(batcher.entries.len(), 1);
        assert_eq!(batcher.entries[0].next, BATCH_SLOTS);
    }

    #[test]
    fn capacity_reset_keeps_sampling() {
        let mut batcher = ErrorBatcher::default();
        let mut rng = StdRng::seed_from_u64(5);
        for i in 0..(MAX_ENTRIES * 2) {
            let base = 1e-6 * (i + 1) as f64;
            batcher.batched(&mut rng, base, 1.0, 1, 17408).unwrap();
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

    #[test]
    fn hit_after_miss_is_bit_identical() {
        let model = CellModel::for_density(CellDensity::Plc);
        let mode = native_plc();
        let mut sampler = ErrorBatcher::default();
        let (first, hit0) = sampler.static_rber(&model, mode, 120, 33.25, 2);
        let (second, hit1) = sampler.static_rber(&model, mode, 120, 33.25, 2);
        assert!(!hit0 && hit1);
        assert_eq!(first.to_bits(), second.to_bits());
        assert_eq!(
            first.to_bits(),
            oracle(&model, mode, 120, 33.25, 2).to_bits()
        );
    }

    #[test]
    fn erase_epoch_invalidates() {
        let model = CellModel::for_density(CellDensity::Qlc);
        let mode = ProgramMode::native(CellDensity::Qlc);
        let mut sampler = ErrorBatcher::default();
        sampler.static_rber(&model, mode, 5, 10.0, 0);
        assert_eq!(sampler.memo.len(), 1);
        // Same retention key, new pec: must recompute, not reuse.
        let (value, hit) = sampler.static_rber(&model, mode, 6, 10.0, 0);
        assert!(!hit);
        assert_eq!(sampler.memo.len(), 1);
        assert_eq!(value.to_bits(), oracle(&model, mode, 6, 10.0, 0).to_bits());
    }

    #[test]
    fn mode_change_invalidates() {
        let model = CellModel::for_density(CellDensity::Plc);
        let native = native_plc();
        let pseudo = ProgramMode::pseudo(CellDensity::Plc, CellDensity::Qlc);
        let mut sampler = ErrorBatcher::default();
        sampler.static_rber(&model, native, 0, 0.0, 0);
        let (value, hit) = sampler.static_rber(&model, pseudo, 0, 0.0, 0);
        assert!(!hit);
        assert_eq!(value.to_bits(), oracle(&model, pseudo, 0, 0.0, 0).to_bits());
    }

    #[test]
    fn distinct_retention_ages_coexist() {
        let model = CellModel::for_density(CellDensity::Tlc);
        let mode = ProgramMode::native(CellDensity::Tlc);
        let mut sampler = ErrorBatcher::default();
        for day in 0..40 {
            sampler.static_rber(&model, mode, 9, day as f64 * 0.5, 1);
        }
        assert_eq!(sampler.memo.len(), 40);
        // All 40 still hit.
        for day in 0..40 {
            let (_, hit) = sampler.static_rber(&model, mode, 9, day as f64 * 0.5, 1);
            assert!(hit, "day {day} evicted unexpectedly");
        }
    }

    #[test]
    fn capacity_reset_stays_correct() {
        let model = CellModel::for_density(CellDensity::Tlc);
        let mode = ProgramMode::native(CellDensity::Tlc);
        let mut sampler = ErrorBatcher::default();
        for i in 0..(MAX_MEMO_ENTRIES * 2 + 7) {
            let days = i as f64 * 0.125;
            let (value, _) = sampler.static_rber(&model, mode, 3, days, 0);
            assert_eq!(value.to_bits(), oracle(&model, mode, 3, days, 0).to_bits());
        }
        assert!(sampler.memo.len() <= MAX_MEMO_ENTRIES);
    }

    #[test]
    fn matches_full_page_rber_with_disturb_applied() {
        let model = CellModel::for_density(CellDensity::Plc);
        let mode = ProgramMode::pseudo(CellDensity::Plc, CellDensity::Qlc);
        let mut sampler = ErrorBatcher::default();
        let mut rng = StdRng::seed_from_u64(8);
        let state = CellState {
            pec: 301,
            retention_days: 77.5,
            reads_since_program: 123_456,
        };
        let draw = sampler.sample(
            &mut rng,
            &model,
            mode,
            state.pec,
            state.retention_days,
            3,
            state.reads_since_program,
            17408,
        );
        let naive = model.page_rber(mode, state, 3);
        assert_eq!(draw.rber.to_bits(), naive.to_bits());
    }

    /// The sampler as it stood before the memo and the batcher shared
    /// one epoch: a separate memo, a separate batcher and the per-page
    /// draw with its own Poisson loops, composed as the device's read
    /// path composed them. The draw-for-draw oracle of [`ErrorBatcher`].
    mod legacy {
        use crate::cell::CellModel;
        use crate::density::ProgramMode;
        use rand::Rng;
        use std::collections::HashMap;

        const MAX_ENTRIES: usize = 512;

        #[derive(Debug, Clone, Default)]
        pub struct RberCache {
            epoch: Option<(ProgramMode, u32)>,
            entries: HashMap<(u64, u32), f64>,
        }

        impl RberCache {
            pub fn lookup(
                &mut self,
                model: &CellModel,
                mode: ProgramMode,
                pec: u32,
                retention_days: f64,
                page_type: u32,
            ) -> (f64, bool) {
                if self.epoch != Some((mode, pec)) {
                    self.entries.clear();
                    self.epoch = Some((mode, pec));
                }
                if self.entries.len() >= MAX_ENTRIES {
                    self.entries.clear();
                }
                let key = (retention_days.to_bits(), page_type);
                if let Some(&value) = self.entries.get(&key) {
                    return (value, true);
                }
                let value = model.rber_static(mode, pec, retention_days)
                    * CellModel::page_type_factor(mode, page_type);
                self.entries.insert(key, value);
                (value, false)
            }
        }

        const BATCH_SLOTS: usize = 32;
        const MAX_LAMBDA: f64 = 2.0;
        const MAX_P: f64 = 0.25;
        const MAX_BATCHES: usize = 16;

        #[derive(Debug, Clone)]
        struct BatchEntry {
            key: u64,
            scale: f64,
            m0: f64,
            base_reads: u64,
            next: usize,
            counts: [u16; BATCH_SLOTS],
        }

        #[derive(Debug, Clone, Default)]
        pub struct ErrorBatcher {
            epoch: Option<(ProgramMode, u32)>,
            entries: Vec<BatchEntry>,
        }

        impl ErrorBatcher {
            #[expect(
                clippy::too_many_arguments,
                reason = "a verbatim copy of the old sampler's signature"
            )]
            pub fn sample<R: Rng + ?Sized>(
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
                let entry = &mut self.entries[slot];
                let count = entry.counts[entry.next] as usize;
                entry.next += 1;
                let extra_lambda = entry.scale * (m - entry.m0);
                let extra = sample_topup(rng, extra_lambda);
                Some(count + extra)
            }

            fn entry_index(&self, key: u64, reads: u64) -> Option<usize> {
                self.entries
                    .iter()
                    .position(|e| e.key == key && e.next < BATCH_SLOTS && e.base_reads <= reads)
            }

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
                if self.entries.len() >= MAX_BATCHES {
                    self.entries.clear();
                }
                self.entries.push(entry);
                self.entries.len() - 1
            }
        }

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

        fn sample_topup<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> usize {
            if lambda <= 0.0 {
                return 0;
            }
            let u: f64 = rng.gen();
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

        pub fn sample_error_count<R: Rng + ?Sized>(rng: &mut R, nbits: usize, p: f64) -> usize {
            if p <= 0.0 || nbits == 0 {
                return 0;
            }
            if p >= 1.0 {
                return nbits;
            }
            if p > 0.5 {
                return nbits - sample_error_count(rng, nbits, 1.0 - p);
            }
            let lambda = nbits as f64 * p;
            if lambda < 50.0 {
                let u: f64 = rng.gen();
                let mut cumulative = (-lambda).exp();
                let mut term = cumulative;
                let mut k = 0usize;
                while u > cumulative && k < nbits {
                    k += 1;
                    term *= lambda / k as f64;
                    cumulative += term;
                    if term < 1e-300 {
                        break;
                    }
                }
                k.min(nbits)
            } else {
                let sigma = (lambda * (1.0 - p)).sqrt();
                let z = sample_standard_normal(rng);
                ((lambda + sigma * z).round().max(0.0) as usize).min(nbits)
            }
        }

        fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
            let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.gen();
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        }

        /// One block's two memos, as `BlockState` held them.
        #[derive(Debug, Clone, Default)]
        pub struct Block {
            pub rber_cache: RberCache,
            pub batcher: ErrorBatcher,
        }

        /// The read path's sampling steps: `(count, rber, memo hit)`.
        #[expect(
            clippy::too_many_arguments,
            reason = "mirrors the old read path's inputs one for one"
        )]
        pub fn read<R: Rng + ?Sized>(
            block: &mut Block,
            rng: &mut R,
            model: &CellModel,
            mode: ProgramMode,
            pec: u32,
            retention_days: f64,
            page_type: u32,
            reads: u64,
            nbits: usize,
        ) -> (usize, f64, bool) {
            let (static_rber, cache_hit) =
                block
                    .rber_cache
                    .lookup(model, mode, pec, retention_days, page_type);
            let multiplier = model.disturb_multiplier(reads);
            let rber = (static_rber * multiplier).min(0.5);
            let batched =
                block
                    .batcher
                    .sample(rng, mode, pec, static_rber, multiplier, reads, nbits);
            let count = match batched {
                Some(c) => c.min(nbits),
                None => sample_error_count(rng, nbits, rber),
            };
            (count, rber, cache_hit)
        }
    }

    /// One simulated block driven the way `FlashDevice` drives it: pages
    /// programmed in order at the current day, erases that bump `pec`
    /// (by a random step, to reach the worn regimes outside the batch
    /// envelope quickly), mode changes only on an empty block, and a
    /// read count that a program resets.
    struct Shadow {
        mode: ProgramMode,
        pec: u32,
        now: f64,
        reads: u64,
        programmed_day: Vec<f64>,
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// After every read the merged sampler returns the legacy
        /// composition's count, RBER bits and memo-hit flag, and leaves
        /// the RNG where the legacy composition leaves it. A `quiet`
        /// case never erases, so one epoch lives long enough to fill
        /// both tables to their caps; `start_pec` places it anywhere
        /// from fresh to worn past the batch envelope.
        #[test]
        fn merged_sampler_matches_the_legacy_composition_draw_for_draw(
            seed in any::<u64>(),
            page_bytes in prop_oneof![Just(64usize), Just(2176usize), Just(16_896usize)],
            quiet in any::<bool>(),
            start_pec in 0u32..600,
            ops in proptest::collection::vec(any::<u32>(), 50..2000),
        ) {
            let model = CellModel::for_density(CellDensity::Plc);
            let nbits = page_bytes * 8;
            let mut merged = ErrorBatcher::default();
            let mut old = legacy::Block::default();
            let mut rng_merged = StdRng::seed_from_u64(seed);
            let mut rng_old = StdRng::seed_from_u64(seed);
            let mut shadow = Shadow {
                mode: native_plc(),
                pec: start_pec,
                now: 0.0,
                reads: 0,
                programmed_day: Vec::new(),
            };
            let mut reads_checked = 0u32;
            for op in ops {
                let arg = op >> 5;
                match op % 32 {
                    // Program the next page.
                    0..=3 => {
                        if shadow.programmed_day.len() < 40 {
                            shadow.programmed_day.push(shadow.now);
                            shadow.reads = 0;
                        }
                    }
                    // Erase: a new pec epoch.
                    4 => {
                        if !quiet {
                            shadow.pec += 1 + arg % 100;
                            shadow.programmed_day.clear();
                            shadow.reads = 0;
                        }
                    }
                    // Mode change, only on an empty block.
                    5 => {
                        if shadow.programmed_day.is_empty() {
                            let logical = [CellDensity::Plc, CellDensity::Qlc, CellDensity::Tlc]
                                [(arg % 3) as usize];
                            shadow.mode = if logical == CellDensity::Plc {
                                native_plc()
                            } else {
                                ProgramMode::pseudo(CellDensity::Plc, logical)
                            };
                        }
                    }
                    // Advance the clock: small steps, or up to a year.
                    6..=8 => shadow.now += f64::from(arg % 8) / 64.0,
                    9 => shadow.now += f64::from(arg % 365),
                    // A burst of read disturb (reads of unprogrammed
                    // pages count on the device too).
                    10 => shadow.reads += u64::from(arg % 200_000),
                    // Read a programmed page.
                    _ => {
                        if shadow.programmed_day.is_empty() {
                            continue;
                        }
                        shadow.reads += 1;
                        let page = arg as usize % shadow.programmed_day.len();
                        let retention_days = (shadow.now - shadow.programmed_day[page]).max(0.0);
                        let page_type = page as u32 % shadow.mode.logical.bits_per_cell();
                        let draw = merged.sample(
                            &mut rng_merged,
                            &model,
                            shadow.mode,
                            shadow.pec,
                            retention_days,
                            page_type,
                            shadow.reads,
                            nbits,
                        );
                        let (count, rber, hit) = legacy::read(
                            &mut old,
                            &mut rng_old,
                            &model,
                            shadow.mode,
                            shadow.pec,
                            retention_days,
                            page_type,
                            shadow.reads,
                            nbits,
                        );
                        prop_assert_eq!(draw.count, count, "count at read {}", reads_checked);
                        prop_assert_eq!(draw.rber.to_bits(), rber.to_bits());
                        prop_assert_eq!(draw.memo_hit, hit);
                        prop_assert_eq!(
                            rng_merged.clone().gen::<u64>(),
                            rng_old.clone().gen::<u64>(),
                            "RNG state after read {}",
                            reads_checked
                        );
                        reads_checked += 1;
                    }
                }
            }
        }
    }
}
