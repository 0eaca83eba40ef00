//! Property-based tests for the flash device simulator, plus the
//! fixed-seed check that injected error counts have the mean the error
//! model assigns.

use proptest::prelude::*;
use sos_flash::{CellDensity, DeviceConfig, FlashDevice, OobMeta, ProgramMode};

fn addr(device: &FlashDevice, block: u64, page: u32) -> u64 {
    block * device.geometry().pages_per_block as u64 + page as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Fresh TLC roundtrips bit-exactly (error injection is negligible
    /// at BOL rates for a single page).
    #[test]
    fn fresh_tlc_roundtrip(byte in any::<u8>(), block in 0u64..64, seed in any::<u64>()) {
        let mut device = FlashDevice::new(&DeviceConfig::tiny(CellDensity::Tlc).with_seed(seed));
        let data = vec![byte; device.page_total_bytes()];
        device.program(addr(&device, block, 0), &data, OobMeta::data(0, 1, 0)).expect("program");
        let out = device.read(addr(&device, block, 0)).expect("read");
        prop_assert_eq!(out.data, data);
    }

    /// RBER is monotone in wear for every mode on PLC silicon.
    #[test]
    fn rber_monotone_in_wear(pec_low in 0u32..400, delta in 1u32..400) {
        use sos_flash::cell::{CellModel, CellState};
        let model = CellModel::for_density(CellDensity::Plc);
        for logical in [CellDensity::Slc, CellDensity::Tlc, CellDensity::Qlc, CellDensity::Plc] {
            let mode = if logical == CellDensity::Plc {
                ProgramMode::native(CellDensity::Plc)
            } else {
                ProgramMode::pseudo(CellDensity::Plc, logical)
            };
            let state = |pec| CellState { pec, retention_days: 30.0, reads_since_program: 0 };
            let low = model.rber(mode, state(pec_low));
            let high = model.rber(mode, state(pec_low + delta));
            prop_assert!(high >= low, "{mode}: {high} < {low}");
        }
    }

    /// Erase counts accumulate exactly once per erase, independent of
    /// interleaving with programs.
    #[test]
    fn pec_accounting(erases in 1u32..30, seed in any::<u64>()) {
        let mut device = FlashDevice::new(&DeviceConfig::tiny(CellDensity::Tlc).with_seed(seed));
        let data = vec![7u8; device.page_total_bytes()];
        for cycle in 0..erases {
            device.program(addr(&device, 2, 0), &data, OobMeta::data(0, 1, 0)).expect("program");
            device.erase(2).expect("erase");
            prop_assert_eq!(device.block_pec(2).expect("pec"), cycle + 1);
        }
    }

    /// Pseudo-mode usable pages scale by the bits ratio and never exceed
    /// the native page count.
    #[test]
    fn pseudo_usable_pages(seed in any::<u64>()) {
        let mut device = FlashDevice::new(&DeviceConfig::tiny(CellDensity::Plc).with_seed(seed));
        let native = device.usable_pages(0).expect("native");
        for logical in [CellDensity::Slc, CellDensity::Mlc, CellDensity::Tlc, CellDensity::Qlc] {
            device
                .set_block_mode(0, ProgramMode::pseudo(CellDensity::Plc, logical))
                .expect("erased block accepts mode");
            let usable = device.usable_pages(0).expect("usable");
            let expected = native as u64 * logical.bits_per_cell() as u64 / 5;
            prop_assert_eq!(usable as u64, expected);
        }
    }
}

/// Batched error injection against the analytic mean: on an aged, worn
/// block every read reports the RBER it was sampled at, so the exact
/// expected error count is `Σ nbits · rber` over the reads. Seeds are a
/// fixed grid (not proptest-drawn) so the 3% tolerance is checked
/// against one deterministic sample forever, and a pass can never flake.
#[test]
fn batched_error_counts_match_the_analytic_mean() {
    const SEEDS: u64 = 24;
    const READS_PER_SEED: u32 = 2_000;
    let mut injected = 0u64;
    let mut expected = 0.0f64;
    let mut reads = 0u64;
    for seed in 0..SEEDS {
        let config = DeviceConfig::tiny(CellDensity::Plc).with_seed(seed * 7919 + 13);
        let mut device = FlashDevice::new(&config);
        let data = vec![0x5Au8; device.page_total_bytes()];
        let nbits = (data.len() * 8) as f64;
        // Wear the block so the RBER (and thus the expected error
        // count) is well off zero, then age the data.
        for _ in 0..40 {
            device
                .program(addr(&device, 0, 0), &data, OobMeta::data(0, 1, 0))
                .expect("program");
            device.erase(0).expect("erase");
        }
        let pages = device.usable_pages(0).expect("usable");
        for page in 0..pages {
            device
                .program(addr(&device, 0, page), &data, OobMeta::data(0, 1, 0))
                .expect("program");
        }
        device.advance_days(90.0);
        for i in 0..READS_PER_SEED {
            let outcome = device.read(addr(&device, 0, i % pages)).expect("read");
            expected += nbits * outcome.rber;
        }
        injected += device.stats().bit_errors_injected;
        reads += u64::from(READS_PER_SEED);
    }
    let analytic_mean = expected / reads as f64;
    let batched_mean = injected as f64 / reads as f64;
    assert!(
        analytic_mean > 0.5,
        "workload too clean to compare distributions (mean {analytic_mean})"
    );
    let ratio = batched_mean / analytic_mean;
    assert!(
        (0.97..=1.03).contains(&ratio),
        "batched mean {batched_mean:.4} vs analytic mean {analytic_mean:.4} (ratio {ratio:.4})"
    );
}
