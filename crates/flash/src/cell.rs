//! Threshold-voltage cell model.
//!
//! Flash stores bits as analog charge: a cell programmed to one of `L`
//! voltage levels is read back by comparing its threshold voltage against
//! `L-1` read references (§2.1). Real cells are noisy — the threshold is a
//! random variable whose spread grows with program/erase wear, retention
//! time and read disturb. When adjacent level distributions overlap, reads
//! misclassify levels and bits flip.
//!
//! This module derives the raw bit error rate (RBER) from that overlap:
//! the level spacing is set by the *programmed* density while the noise is
//! set by the *physical* cell and its stress history. Pseudo-modes (wider
//! spacing on the same silicon) therefore get lower error rates and higher
//! effective endurance without any special-casing.
//!
//! [`CellModel::rber`] is `rber_static × disturb_multiplier`: the static
//! term (wear, retention, Q-function) changes only on program, erase,
//! mode change or a clock tick, and the device's per-block error sampler
//! memoizes it per page type; only the one-multiply disturb term is
//! evaluated on every read. [`CellModel::page_rber`] is the unmemoized
//! reference the sampler is tested against.

use crate::density::{CellDensity, ProgramMode};
use serde::{Deserialize, Serialize};

/// Gaussian tail function `Q(x) = P(N(0,1) > x)`.
///
/// Uses an Abramowitz–Stegun rational approximation in the bulk and the
/// asymptotic expansion in the tail, giving good *relative* accuracy out
/// to the `1e-12` probabilities the error model needs.
pub fn q_function(x: f64) -> f64 {
    if x < 0.0 {
        return 1.0 - q_function(-x);
    }
    if x > 3.0 {
        // Asymptotic expansion: phi(x)/x * (1 - 1/x^2 + 3/x^4 - 15/x^6).
        let phi = (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt();
        let x2 = x * x;
        return (phi / x) * (1.0 - 1.0 / x2 + 3.0 / (x2 * x2) - 15.0 / (x2 * x2 * x2));
    }
    // Q(x) = erfc(x / sqrt(2)) / 2 with A&S 7.1.26 for erf.
    let z = x / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.327_591_1 * z);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    0.5 * poly * (-z * z).exp()
}

/// Inverse of [`q_function`] on `(0, 0.5)`: returns `x` with `Q(x) = p`.
///
/// # Panics
///
/// Panics if `p` is outside `(0, 0.5)`.
pub fn q_inverse(p: f64) -> f64 {
    // sos-lint: allow(panic-path, "documented domain contract; callers pass fixed RBER design targets inside (0, 0.5)")
    assert!(p > 0.0 && p < 0.5, "q_inverse domain is (0, 0.5), got {p}");
    let (mut lo, mut hi) = (0.0_f64, 40.0_f64);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if q_function(mid) > p {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Stress history of a block of cells.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CellState {
    /// Program/erase cycles endured so far.
    pub pec: u32,
    /// Days elapsed since the data now resident was programmed.
    pub retention_days: f64,
    /// Reads issued to the block since it was last programmed.
    pub reads_since_program: u64,
}

/// Noise model of one physical cell technology.
///
/// Calibrated so that a fresh cell read immediately after programming at
/// native density exhibits the `base_rber` typical for its generation, and
/// so that wear/retention growth reproduces the published endurance ladder
/// (see [`CellDensity::rated_endurance`]). Only the density and the
/// beginning-of-life sigma derived from it vary between models; the
/// stress coefficients are shared constants.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CellModel {
    /// Physical cell density this model describes.
    physical: CellDensity,
    /// Threshold-voltage standard deviation at beginning of life, in
    /// units of the (normalised) voltage window.
    sigma0: f64,
}

/// Wear coefficient: fractional sigma growth at rated endurance.
const WEAR_COEF: f64 = 0.85;
/// Wear exponent (super-linearity of wear damage).
const WEAR_EXP: f64 = 1.1;
/// Retention coefficient: sigma growth per `ln(1 + days)` at full wear.
const RETENTION_COEF: f64 = 0.10;
/// Read-disturb coefficient: sigma growth per million reads.
const READ_DISTURB_COEF: f64 = 0.03;

/// Beginning-of-life RBER targets per density, from published
/// characterisation studies (Grupp FAST'12, Zambelli IMW'19 and the PLC
/// projections in Chatzieleftheriou HotStorage'20).
fn base_rber(density: CellDensity) -> f64 {
    match density {
        CellDensity::Slc => 1e-10,
        CellDensity::Mlc => 1e-9,
        CellDensity::Tlc => 5e-8,
        CellDensity::Qlc => 2e-6,
        // Calibrated so measured cycles-to-ECC-limit lands in the
        // paper's endurance-ratio bands (TLC/PLC 6-10, QLC/PLC ~2);
        // see experiment E3.
        CellDensity::Plc => 1e-5,
    }
}

impl CellModel {
    /// Builds the calibrated model for a physical density.
    ///
    /// `sigma0` is derived from the density's beginning-of-life RBER
    /// target so that [`CellModel::rber`] at zero stress and native
    /// programming reproduces it exactly.
    pub fn for_density(physical: CellDensity) -> Self {
        let levels = physical.levels() as f64;
        let bits = physical.bits_per_cell() as f64;
        let spacing = 1.0 / (levels - 1.0);
        // Per-bit RBER `r` corresponds to a per-cell level error of
        // `r * bits`, which is `2 (L-1)/L * Q(d / 2 sigma)`.
        let level_err = base_rber(physical) * bits;
        let q_target = level_err * levels / (2.0 * (levels - 1.0));
        let x0 = q_inverse(q_target);
        CellModel {
            physical,
            sigma0: spacing / (2.0 * x0),
        }
    }

    /// Physical cell density this model describes.
    pub fn physical(&self) -> CellDensity {
        self.physical
    }

    /// The slow-changing part of the threshold-voltage standard
    /// deviation: beginning-of-life sigma widened by wear (oxide damage)
    /// and retention (charge leakage over time, faster on worn cells).
    ///
    /// Both inputs change only on program, erase, or an `advance_days`
    /// clock tick — never on a read — which is what makes the result
    /// memoizable per block (the device's per-block error sampler). The
    /// transcendental work (`powf`, `ln`) all lives here.
    pub fn sigma_static(&self, pec: u32, retention_days: f64) -> f64 {
        let rated = self.physical.rated_endurance() as f64;
        let wear_frac = pec as f64 / rated;
        let wear = 1.0 + WEAR_COEF * wear_frac.powf(WEAR_EXP);
        let retention =
            1.0 + RETENTION_COEF * (1.0 + retention_days).ln() * (0.3 + 0.7 * wear_frac.min(2.0));
        self.sigma0 * wear * retention
    }

    /// Linear read-disturb multiplier: each read adds a fixed sliver of
    /// noise energy, so the first-order effect on the error rate is a
    /// factor linear in the read count. This is the only stress term
    /// that changes on the per-read hot path, and it costs one multiply.
    pub fn disturb_multiplier(&self, reads_since_program: u64) -> f64 {
        1.0 + READ_DISTURB_COEF * (reads_since_program as f64 / 1e6)
    }

    /// Raw bit error rate at zero read disturb: the memoizable part of
    /// [`CellModel::rber`]. The level spacing comes from the *logical*
    /// (programmed) density, the noise from the physical cell — this is
    /// what makes pseudo-modes more reliable on the same silicon.
    ///
    /// The Q-function evaluation (an `exp` plus a rational polynomial)
    /// lives here, on the memoizable side of the split: its inputs
    /// (`mode`, `pec`, `retention_days`) change only on program, erase,
    /// or `advance_days`, never on a read.
    ///
    /// # Panics
    ///
    /// Panics if `mode.physical` differs from the model's density.
    pub fn rber_static(&self, mode: ProgramMode, pec: u32, retention_days: f64) -> f64 {
        // sos-lint: allow(panic-path, "documented contract: the program mode must match the model's silicon; a mismatch is a configuration bug")
        assert_eq!(
            mode.physical, self.physical,
            "program mode physical density must match the cell model"
        );
        let levels = mode.logical.levels() as f64;
        let bits = mode.logical.bits_per_cell() as f64;
        let spacing = 1.0 / (levels - 1.0);
        let sigma = self.sigma_static(pec, retention_days);
        // Per-cell level error rate, spread across the logical bits.
        2.0 * (levels - 1.0) / levels * q_function(spacing / (2.0 * sigma)) / bits
    }

    /// Raw bit error rate for data programmed in `mode` under `state`.
    ///
    /// Structured as `rber_static × disturb_multiplier`, clamped to the
    /// coin-flip ceiling: the expensive wear/retention/Q-function work
    /// depends only on inputs that change at program/erase/clock-tick
    /// granularity, and read disturb enters as a linear multiplier on
    /// the error rate (the first-order expansion of its effect through
    /// the Q-function, exact at zero reads and within the model's
    /// calibration error for the <1% sigma shifts real read counts
    /// produce). That split is what lets the device memoize everything
    /// but one multiply off the per-read path.
    ///
    /// # Panics
    ///
    /// Panics if `mode.physical` differs from the model's density.
    pub fn rber(&self, mode: ProgramMode, state: CellState) -> f64 {
        (self.rber_static(mode, state.pec, state.retention_days)
            * self.disturb_multiplier(state.reads_since_program))
        .min(0.5)
    }

    /// Per-page raw bit error rate: [`CellModel::rber`] with the
    /// page-type asymmetry factor applied, computed naively with no
    /// caching. This is the reference oracle the memoized read path
    /// (the device's per-block error sampler) must reproduce
    /// **bit-identically**; the property test in `tests/proptest_rber.rs`
    /// pins that equivalence across program/erase/advance_days
    /// invalidations.
    ///
    /// # Panics
    ///
    /// Panics if `mode.physical` differs from the model's density.
    pub fn page_rber(&self, mode: ProgramMode, state: CellState, page_type: u32) -> f64 {
        (self.rber_static(mode, state.pec, state.retention_days)
            * Self::page_type_factor(mode, page_type)
            * self.disturb_multiplier(state.reads_since_program))
        .min(0.5)
    }

    /// Relative RBER multiplier for one *page type* of a multi-bit cell.
    ///
    /// A wordline of `b`-bit cells stores `b` pages (lower/middle/upper
    /// ...). Lower pages resolve coarse voltage splits and see fewer
    /// error-prone transitions; upper pages resolve the finest splits.
    /// The factors form a geometric ladder normalised to mean 1, so
    /// block-average models are unchanged while per-page reads show the
    /// published LSB-vs-MSB asymmetry.
    pub fn page_type_factor(mode: ProgramMode, page_type: u32) -> f64 {
        let bits = mode.logical.bits_per_cell();
        debug_assert!(page_type < bits, "page type beyond cell bits");
        if bits == 1 {
            return 1.0;
        }
        // Geometric spread of ~2x per level, normalised to mean 1.
        let spread: f64 = 1.9;
        let mean: f64 = (0..bits).map(|t| spread.powi(t as i32)).sum::<f64>() / bits as f64;
        spread.powi(page_type as i32) / mean // sos-lint: allow(panic-path, "f64 division: spread and mean are floats")
    }

    /// Program/erase cycles until the RBER under `mode` first exceeds
    /// `rber_limit`, assuming `retention_days` of retention at end of
    /// life. Returns `None` if the limit is never exceeded within
    /// `20x` rated endurance (effectively unlimited).
    pub fn cycles_to_rber(
        &self,
        mode: ProgramMode,
        rber_limit: f64,
        retention_days: f64,
    ) -> Option<u32> {
        let cap = self.physical.rated_endurance().saturating_mul(20);
        // RBER is monotonic in PEC; binary search for the crossing.
        let exceeds = |pec: u32| {
            self.rber(
                mode,
                CellState {
                    pec,
                    retention_days,
                    reads_since_program: 0,
                },
            ) > rber_limit
        };
        if !exceeds(cap) {
            return None;
        }
        if exceeds(0) {
            return Some(0);
        }
        let (mut lo, mut hi) = (0u32, cap);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if exceeds(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_function_known_values() {
        // Q(0) = 0.5, Q(1.2816) ~ 0.1, Q(3.09) ~ 1e-3.
        assert!((q_function(0.0) - 0.5).abs() < 1e-6);
        assert!((q_function(1.2816) - 0.1).abs() < 1e-3);
        assert!((q_function(3.09) - 1e-3).abs() < 1e-4);
    }

    #[test]
    fn q_function_tail_is_positive_and_decreasing() {
        let mut prev = 1.0;
        for i in 0..80 {
            let x = i as f64 * 0.25;
            let q = q_function(x);
            assert!(q > 0.0, "Q({x}) = {q}");
            assert!(q <= prev + 1e-12, "Q not decreasing at {x}");
            prev = q;
        }
    }

    #[test]
    fn q_inverse_roundtrip() {
        for &p in &[0.4, 0.1, 1e-3, 1e-6, 1e-9, 1e-12] {
            let x = q_inverse(p);
            let back = q_function(x);
            assert!(
                (back / p - 1.0).abs() < 1e-3,
                "roundtrip p={p}: x={x} back={back}"
            );
        }
    }

    #[test]
    fn fresh_rber_matches_calibration_target() {
        for d in CellDensity::ALL {
            let m = CellModel::for_density(d);
            let r = m.rber(ProgramMode::native(d), CellState::default());
            let target = base_rber(d);
            assert!(
                (r / target - 1.0).abs() < 0.05,
                "{d}: rber {r} vs target {target}"
            );
        }
    }

    #[test]
    fn rber_increases_with_wear_retention_and_reads() {
        let m = CellModel::for_density(CellDensity::Plc);
        let mode = ProgramMode::native(CellDensity::Plc);
        let base = m.rber(mode, CellState::default());
        let worn = m.rber(
            mode,
            CellState {
                pec: 400,
                retention_days: 0.0,
                reads_since_program: 0,
            },
        );
        let aged = m.rber(
            mode,
            CellState {
                pec: 400,
                retention_days: 365.0,
                reads_since_program: 0,
            },
        );
        let read_hammered = m.rber(
            mode,
            CellState {
                pec: 400,
                retention_days: 365.0,
                reads_since_program: 5_000_000,
            },
        );
        assert!(base < worn && worn < aged && aged < read_hammered);
    }

    #[test]
    fn pseudo_mode_has_lower_rber_than_native() {
        let m = CellModel::for_density(CellDensity::Plc);
        let state = CellState {
            pec: 300,
            retention_days: 90.0,
            reads_since_program: 0,
        };
        let native = m.rber(ProgramMode::native(CellDensity::Plc), state);
        let pqlc = m.rber(
            ProgramMode::pseudo(CellDensity::Plc, CellDensity::Qlc),
            state,
        );
        let ptlc = m.rber(
            ProgramMode::pseudo(CellDensity::Plc, CellDensity::Tlc),
            state,
        );
        assert!(pqlc < native / 10.0, "pseudo-QLC {pqlc} vs native {native}");
        assert!(ptlc < pqlc, "pseudo-TLC {ptlc} vs pseudo-QLC {pqlc}");
    }

    #[test]
    fn denser_cells_fail_sooner_at_fixed_ecc_budget() {
        // With a typical mobile ECC budget, cycles-to-failure must follow
        // the endurance ladder ordering.
        let limit = 3e-3;
        let mut prev = u32::MAX;
        for d in CellDensity::ALL {
            let m = CellModel::for_density(d);
            let c = m
                .cycles_to_rber(ProgramMode::native(d), limit, 365.0)
                .unwrap_or(u32::MAX);
            assert!(c < prev, "{d}: {c} cycles not below previous {prev}");
            prev = c;
        }
    }

    #[test]
    fn cycles_to_rber_is_consistent_with_rber() {
        let m = CellModel::for_density(CellDensity::Qlc);
        let mode = ProgramMode::native(CellDensity::Qlc);
        let limit = 1e-3;
        let c = m.cycles_to_rber(mode, limit, 180.0).expect("finite life");
        let before = m.rber(
            mode,
            CellState {
                pec: c - 1,
                retention_days: 180.0,
                reads_since_program: 0,
            },
        );
        let after = m.rber(
            mode,
            CellState {
                pec: c,
                retention_days: 180.0,
                reads_since_program: 0,
            },
        );
        assert!(
            before <= limit && after > limit,
            "before={before} after={after}"
        );
    }

    #[test]
    fn pseudo_qlc_in_plc_extends_cycle_life() {
        let m = CellModel::for_density(CellDensity::Plc);
        let limit = 3e-3;
        let native = m
            .cycles_to_rber(ProgramMode::native(CellDensity::Plc), limit, 365.0)
            .expect("PLC native life is finite");
        let pseudo = m
            .cycles_to_rber(
                ProgramMode::pseudo(CellDensity::Plc, CellDensity::Qlc),
                limit,
                365.0,
            )
            .unwrap_or(u32::MAX);
        assert!(
            pseudo as f64 >= 2.0 * native as f64,
            "pseudo-QLC life {pseudo} vs native {native}"
        );
    }

    #[test]
    fn page_type_factors_are_normalised_and_monotone() {
        for density in CellDensity::ALL {
            let mode = ProgramMode::native(density);
            let bits = density.bits_per_cell();
            let factors: Vec<f64> = (0..bits)
                .map(|t| CellModel::page_type_factor(mode, t))
                .collect();
            let mean: f64 = factors.iter().sum::<f64>() / bits as f64;
            assert!((mean - 1.0).abs() < 1e-9, "{density}: mean {mean}");
            for pair in factors.windows(2) {
                assert!(pair[1] > pair[0], "{density}: not monotone {factors:?}");
            }
        }
        // SLC has a single page type with factor exactly 1.
        assert_eq!(
            CellModel::page_type_factor(ProgramMode::native(CellDensity::Slc), 0),
            1.0
        );
    }

    #[test]
    #[should_panic(expected = "physical density must match")]
    fn mode_mismatch_panics() {
        let m = CellModel::for_density(CellDensity::Tlc);
        let _ = m.rber(ProgramMode::native(CellDensity::Qlc), CellState::default());
    }
}
