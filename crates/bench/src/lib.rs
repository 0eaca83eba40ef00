//! Experiment harness library for the SOS reproduction.
//!
//! * [`runner`] — the deterministic parallel task runner (`SOS_THREADS`
//!   workers, task-order merge, per-task seed derivation).
//! * [`experiments`] — the `exp_*` experiment implementations as pure
//!   option → report functions, parallelized on the runner.

pub mod experiments;
pub mod runner;

pub use experiments::{
    capacity_variance_report, crash_sweep_report, end_to_end_report, flash_cache_report,
    wl_ablation_report, CachePlacement, CrashSweepOptions, EndToEndOptions, ExperimentOutput,
    FlashCacheOptions, FtlCacheBackend,
};
pub use runner::{run_tasks, task_seed, thread_count, RunnerReport};
