//! E4: the lifetime gap (§2.3.2) — run typical phone workloads against
//! the FTL for a simulated device life and measure what fraction of the
//! flash's endurance is actually consumed.
//!
//! Paper claim: "users only wear out a fraction (e.g., 5%) of the total
//! wear phones can endure during their warranty period" and flash
//! outlasts the device "by an order of magnitude".
//!
//! Usage: `exp_lifetime_gap [days]` (default 900).

use sos_analyze::arg_or_exit;
use sos_core::{BaselineDevice, ObjectStore, Partition};
use sos_workload::{DeviceLife, TraceOp, UsageProfile, WorkloadConfig};

fn run(profile: UsageProfile, days: u32) -> (f64, f64) {
    let mut device = BaselineDevice::tlc_small(11);
    let capacity = device.capacity_bytes();
    let mut life = DeviceLife::new(WorkloadConfig::phone(capacity, profile, 11));
    for _ in 0..days {
        let trace = life.next_day();
        for op in trace.ops {
            match op {
                TraceOp::Create { file, bytes, .. } => {
                    let data = vec![0x33u8; bytes.min(1 << 20) as usize];
                    if device.put(file, &data, Partition::Sys).is_err() {
                        let _ = life.force_delete(file);
                    }
                }
                TraceOp::Update { file, bytes } => {
                    let data = vec![0x44u8; bytes.clamp(4096, 1 << 20) as usize];
                    let _ = device.update(file, &data);
                }
                TraceOp::Read { .. } => {} // reads do not wear flash
                TraceOp::Delete { file } => {
                    let _ = device.delete(file);
                }
            }
        }
        device.advance_days(1.0);
    }
    let wear = device.partition().ftl.wear_summary();
    let rated = sos_flash::CellDensity::Tlc.rated_endurance() as f64;
    let wear_fraction = wear.mean_pec / rated;
    // Extrapolate: how many device lifetimes until the flash wears out?
    let lifetimes = if wear_fraction > 0.0 {
        1.0 / wear_fraction
    } else {
        f64::INFINITY
    };
    (wear_fraction, lifetimes)
}

fn main() {
    let days = arg_or_exit(1, "days", "exp_lifetime_gap [days]").unwrap_or(900u32);
    println!("# E4 — endurance consumed over a {days}-day device life (TLC)");
    println!(
        "{:<10} {:>14} {:>22}",
        "profile", "wear consumed", "flash/device lifetime"
    );
    for profile in [
        UsageProfile::Light,
        UsageProfile::Typical,
        UsageProfile::Heavy,
        UsageProfile::Gamer,
    ] {
        let (fraction, lifetimes) = run(profile, days);
        println!(
            "{:<10} {:>13.1}% {:>21.1}x",
            format!("{profile:?}"),
            fraction * 100.0,
            lifetimes
        );
    }
    println!("\npaper: typical ~5% consumed => flash outlasts device ~10-20x;");
    println!("write-intensive outliers (Gamer) are the §4.5 risk case.");
}
