//! Steady-state device-life benchmark for the SOS simulator.
//!
//! Three single-threaded, closed-loop workloads, each driven by one
//! caller that issues the next operation only after the last returned:
//!
//! * `phone_typical_steady` — controller, classifier, SOS device, FTL,
//!   ECC and media on an aged phone ([`phone`]);
//! * `flash_cache_fdp` — FTL writes and GC under FDP placement tags
//!   ([`cache`]);
//! * `aged_readback` — remount, error injection and ECC decode on a
//!   year-old device ([`readback`]).
//!
//! End-to-end metrics come from a run with the bare simulator types.
//! A traced run swaps in the timing wrappers of [`wrap`] and reports the
//! per-layer split. Both runs of one seed simulate exactly the same
//! thing, which the run digest checks.

pub mod cache;
pub mod phone;
pub mod readback;
pub mod report;
pub mod stats;
pub mod trace;
pub mod wrap;

use report::{per_layer_metrics, Metric, Record, RunResult};
use sos_analyze::{AuditFinding, CoreAuditorSet, FtlAuditorSet, StateAuditor, Violation};
use sos_core::SosDevice;
use sos_ftl::Ftl;
use trace::{TraceHandle, Tracer};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PhoneTypicalSteady,
    FlashCacheFdp,
    AgedReadback,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PhoneTypicalSteady,
        Workload::FlashCacheFdp,
        Workload::AgedReadback,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PhoneTypicalSteady => "phone_typical_steady",
            Workload::FlashCacheFdp => "flash_cache_fdp",
            Workload::AgedReadback => "aged_readback",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Share of a traced run's timed wall its top-level spans must cover.
const MIN_TRACE_COVERAGE: f64 = 0.95;

/// One run's settings, as given on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Options {
    pub seed: u64,
    /// Intended length of the timed part, in host seconds. It sets how
    /// much work is done; the work never depends on the clock.
    pub seconds: u64,
    pub trace: bool,
    /// Unit-test sizes: seconds of work become a fraction of a second.
    pub toy: bool,
}

/// Runs one workload. A traced run also fills `per_layer` and writes
/// its spans to `spans_path`, if given.
pub fn run(
    workload: Workload,
    options: &Options,
    spans_path: Option<&std::path::Path>,
) -> RunResult {
    let tracer = options.trace.then(Tracer::handle);
    let seconds = options.seconds.max(1);
    let mut result = match workload {
        Workload::PhoneTypicalSteady => {
            let params = if options.toy {
                phone::PhoneParams {
                    replicas: 1,
                    age_days: 24,
                    window_days: 8,
                    tiny: true,
                }
            } else {
                phone::PhoneParams {
                    replicas: 6,
                    age_days: 60,
                    // Days 61–120 at 10 s; never shorter than one
                    // 30-day quality cycle.
                    window_days: (6 * seconds as u32).max(30),
                    tiny: false,
                }
            };
            phone::run(options.seed, &params, tracer.clone())
        }
        Workload::FlashCacheFdp => {
            let params = if options.toy {
                cache::CacheParams {
                    replicas: 1,
                    window_days: 2,
                    gets_per_day: 3000,
                }
            } else {
                // Set-up is one warm-up day, so many short replicas give
                // its median as many samples as the timed days get.
                cache::CacheParams {
                    replicas: 11,
                    window_days: (seconds as u32 / 2).max(1),
                    gets_per_day: 0,
                }
            };
            cache::run(options.seed, &params, tracer.clone())
        }
        Workload::AgedReadback => {
            let params = if options.toy {
                readback::ReadbackParams {
                    replicas: 1,
                    rounds: 2,
                    tiny: true,
                }
            } else {
                readback::ReadbackParams {
                    replicas: 5,
                    rounds: 4 * seconds as u32,
                    tiny: false,
                }
            };
            readback::run(options.seed, &params, tracer.clone())
        }
    };
    if let Some(tracer) = tracer {
        let tracer = tracer.borrow();
        let spans = tracer.summarize();
        let cost = trace::span_cost_ns();
        result.per_layer =
            per_layer_metrics(&spans, tracer.spans().len() as u64, cost, &result.facts);
        let layer = |name: &str| {
            result
                .per_layer
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value)
        };
        let (coverage, maintains) = (layer("trace_coverage"), layer("device.maintain.calls"));
        if coverage < MIN_TRACE_COVERAGE {
            result.fail(format!(
                "top-level spans cover {coverage:.3} of the timed wall, below {MIN_TRACE_COVERAGE}"
            ));
        }
        if workload == Workload::PhoneTypicalSteady && maintains == 0.0 {
            result.fail("window has no maintain call".into());
        }
        if let Some(path) = spans_path {
            if let Err(error) = tracer.write_spans(path) {
                eprintln!("perfbench: cannot write {}: {error}", path.display());
            }
        }
    }
    result
        .end_to_end
        .push(Metric::new("peak_rss_mib", peak_rss_mib(), "MiB"));
    result
}

/// Turns span recording on or off around a timed window.
pub fn set_recording(tracer: Option<&TraceHandle>, on: bool) {
    if let Some(tracer) = tracer {
        tracer.borrow_mut().set_recording(on);
    }
}

/// Every invariant finding on a whole SOS device.
pub fn audit_device(device: &SosDevice) -> Vec<AuditFinding> {
    CoreAuditorSet::new().audit(&device.audit_snapshot())
}

/// Every invariant violation on a bare FTL.
pub fn audit_ftl(ftl: &Ftl) -> Vec<Violation> {
    FtlAuditorSet::new().audit(&ftl.audit_snapshot())
}

/// Peak resident set of this process, MiB (`VmHWM`; 0 where the kernel
/// does not report it).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The provenance line printed before each result.
pub fn record(workload: &str, options: &Options, digest: u64) -> Record {
    Record {
        workload: workload.to_string(),
        seed: options.seed,
        seconds: options.seconds,
        trace: options.trace,
        sim_digest: digest,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        rustc: env!("PERFBENCH_RUSTC").to_string(),
        profile: env!("PERFBENCH_PROFILE").to_string(),
    }
}
