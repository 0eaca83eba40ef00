//! E17: the datacenter flash cache — identical Zipf cache traffic
//! against three data-placement policies (no hints, legacy magic
//! streams, FDP-style typed tags), comparing write amplification and
//! what the delta buys in device lifetime and amortized embodied
//! carbon.
//!
//! Usage: `exp_flash_cache [days] [gets_per_day]`
//!
//! The three arms run in parallel on the deterministic runner with a
//! shared workload seed, so stdout is byte-identical for any
//! `SOS_THREADS`. Set `SOS_SEED` to replay a logged run. Exits non-zero
//! if FDP placement fails to beat the no-hint baseline on write-amp,
//! and with status 2 on a malformed argument or `SOS_SEED`.

use sos_analyze::{arg_or_exit, seed_from_env};
use sos_bench::{flash_cache_report, thread_count, FlashCacheOptions};

const USAGE: &str = "exp_flash_cache [days] [gets_per_day]";

fn main() {
    let mut options = FlashCacheOptions::default();
    if let Some(days) = arg_or_exit(1, "days", USAGE) {
        options.days = days;
    }
    if let Some(gets) = arg_or_exit(2, "gets_per_day", USAGE) {
        options.gets_per_day = gets;
    }
    options.base_seed = seed_from_env(options.base_seed);
    let output = flash_cache_report(&options, thread_count());
    print!("{}", output.report);
    eprint!("{}", output.diagnostics);
    if output.failed {
        std::process::exit(1);
    }
}
