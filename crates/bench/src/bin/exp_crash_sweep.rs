//! The crash sweep: power cuts at scheduled device operations
//! over simulated device lives, each followed by an OOB recovery scan
//! and a parity-repairing remount, with every invariant auditor re-run
//! after every crash.
//!
//! Usage: `exp_crash_sweep [days] [checkpoint_interval_days] [shards]`
//!
//! The sweep is sharded into independent device lives (`days` total,
//! divided across shards) that run in parallel on the deterministic
//! runner; shard `i` is seeded `task_seed(SOS_SEED, i)`, so the merged
//! stdout report is byte-identical for any `SOS_THREADS`. Set
//! `SOS_SEED` to replay a logged sweep. A malformed argument or
//! `SOS_SEED` exits with status 2.

use sos_analyze::{arg_or_exit, seed_from_env};
use sos_bench::{crash_sweep_report, thread_count, CrashSweepOptions};

const USAGE: &str = "exp_crash_sweep [days] [checkpoint_interval_days] [shards]";

fn main() {
    let mut options = CrashSweepOptions::default();
    if let Some(days) = arg_or_exit(1, "days", USAGE) {
        options.days = days;
    }
    if let Some(interval) = arg_or_exit(2, "checkpoint_interval_days", USAGE) {
        options.checkpoint_interval = interval;
    }
    if let Some(shards) = arg_or_exit(3, "shards", USAGE) {
        options.shards = shards;
    }
    options.base_seed = seed_from_env(options.base_seed);
    let output = crash_sweep_report(&options, thread_count());
    print!("{}", output.report);
    eprint!("{}", output.diagnostics);
    if output.failed {
        std::process::exit(1);
    }
}
