//! E11: the end-to-end device-life comparison — TLC vs QLC vs SOS over a
//! simulated phone life: carbon, loss, quality, latency.
//!
//! Usage: `exp_end_to_end [days] [heavy] [replicas]`
//!
//! Every (profile × replica × design) arm runs as an independent task
//! on the deterministic parallel runner; `SOS_THREADS` sets the worker
//! count and the stdout report is byte-identical whatever it is.
//! Timing diagnostics go to stderr. A malformed argument exits with
//! status 2.

use sos_analyze::arg_or_exit;
use sos_bench::{end_to_end_report, thread_count, EndToEndOptions};

const USAGE: &str = "exp_end_to_end [days] [heavy] [replicas]";

fn main() {
    let mut options = EndToEndOptions::default();
    if let Some(days) = arg_or_exit(1, "days", USAGE) {
        options.days = days;
    }
    // Heavy usage takes ~3x longer to simulate; opt in with a second arg.
    options.heavy = std::env::args().nth(2).as_deref() == Some("heavy");
    if let Some(replicas) = arg_or_exit(3, "replicas", USAGE) {
        options.replicas = replicas;
    }
    let output = end_to_end_report(&options, thread_count());
    print!("{}", output.report);
    eprint!("{}", output.diagnostics);
}
