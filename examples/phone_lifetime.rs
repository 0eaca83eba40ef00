//! Simulates a full phone life (default 900 days ≈ the 2-3 year use
//! life of §2.3.2) on all three designs and prints the comparison —
//! experiment E11 as a runnable example.
//!
//! Run with: `cargo run --release -p sos-examples --bin phone_lifetime [days]`

use sos_core::{compare, format_comparison, SimConfig};
use sos_workload::UsageProfile;

fn main() {
    let days: u32 = std::env::args()
        .nth(1)
        .and_then(|arg| arg.parse().ok())
        .unwrap_or(900);
    println!("== Simulating a {days}-day phone life on three designs ==");
    println!("workload: Typical user profile, media-heavy, 70% fill\n");
    let config = SimConfig {
        days,
        profile: UsageProfile::Typical,
        seed: 2024,
        workload_bytes: 0,
    };
    let results = compare(&config);
    println!("{}", format_comparison(&results));
    let sos = results.last().expect("three results");
    println!(
        "SOS summary: {} demotions, {} auto-deletes, {} rejected creates",
        sos.stats.demotions, sos.stats.autodeletes, sos.stats.rejected_creates
    );
    println!(
        "carbon verdict: SOS at {:.1}% of TLC embodied carbon per exported GB",
        sos.carbon_vs_tlc * 100.0
    );
}
