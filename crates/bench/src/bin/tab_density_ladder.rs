//! E2: the density ladder (§2.2, §4.1) — bits/cell, endurance, density
//! gains, pseudo-mode trades and the split-device arithmetic.

use sos_flash::density::split_device_bits_per_cell;
use sos_flash::timing::latencies;
use sos_flash::{CellDensity, ProgramMode};

fn main() {
    println!("# E2 — density ladder and pseudo-mode trades");
    println!(
        "{:<22} {:>5} {:>7} {:>10} {:>11} {:>10} {:>10}",
        "mode", "bits", "levels", "endurance", "gain vs TLC", "tR (us)", "tPROG (us)"
    );
    for density in CellDensity::ALL {
        let mode = ProgramMode::native(density);
        let latency = latencies(mode);
        println!(
            "{:<22} {:>5} {:>7} {:>10} {:>10.1}% {:>10.0} {:>10.0}",
            mode.to_string(),
            mode.bits_per_cell(),
            density.levels(),
            mode.effective_endurance(),
            density.density_gain_over(CellDensity::Tlc) * 100.0,
            latency.read_us,
            latency.program_us,
        );
    }
    for (physical, logical) in [
        (CellDensity::Plc, CellDensity::Qlc),
        (CellDensity::Plc, CellDensity::Tlc),
        (CellDensity::Plc, CellDensity::Slc),
        (CellDensity::Qlc, CellDensity::Tlc),
    ] {
        let mode = ProgramMode::pseudo(physical, logical);
        let latency = latencies(mode);
        println!(
            "{:<22} {:>5} {:>7} {:>10} {:>10.1}% {:>10.0} {:>10.0}",
            mode.to_string(),
            mode.bits_per_cell(),
            mode.logical.levels(),
            mode.effective_endurance(),
            (mode.bits_per_cell() as f64 / 3.0 - 1.0) * 100.0,
            latency.read_us,
            latency.program_us,
        );
    }
    println!();
    let spare = ProgramMode::native(CellDensity::Plc);
    let sys = ProgramMode::pseudo(CellDensity::Plc, CellDensity::Qlc);
    for split in [0.3, 0.5, 0.7] {
        let bits = split_device_bits_per_cell(split, spare, sys);
        println!(
            "split {:>3.0}% SPARE: {:.2} bits/cell = {:+.1}% vs TLC, {:+.1}% vs QLC",
            split * 100.0,
            bits,
            (bits / 3.0 - 1.0) * 100.0,
            (bits / 4.0 - 1.0) * 100.0
        );
    }
    println!("\npaper: QLC +33%, PLC +66%, 50/50 split +50% vs TLC, ~+10% vs QLC");
}
