//! Pins the harness's core guarantee: experiment stdout is
//! byte-identical whatever `SOS_THREADS` says.
//!
//! The heavyweight experiments (E11 end-to-end and the crash sweep) carry
//! their own thread-invariance tests next to their implementations;
//! here the remaining ported experiments get the same treatment,
//! including the exact 1/2/8 thread ladder the harness documents, plus
//! the stdout/stderr split that keeps wall-clock noise out of reports.
//! E17 (flash cache) landed after the original pair and is diffed on
//! the same ladder so a placement-experiment regression cannot hide
//! behind its in-crate self-gate.

use sos_bench::{
    capacity_variance_report, end_to_end_report, flash_cache_report, wl_ablation_report,
    EndToEndOptions, FlashCacheOptions,
};

/// Non-deterministic wall-clock text must never leak into the report
/// half of an experiment's output. The markers match the runner's
/// stderr diagnostic line ("… s wall, … s busy, …% worker
/// utilization"); bare "utilization" would false-positive on E17's
/// deterministic cache-utilization header.
fn assert_report_is_clock_free(report: &str) {
    for marker in ["worker utilization", "s wall", "s busy"] {
        assert!(
            !report.contains(marker),
            "timing text {marker:?} leaked into deterministic stdout:\n{report}"
        );
    }
}

#[test]
fn wl_ablation_is_identical_across_threads_1_2_8() {
    let rounds = 120;
    let baseline = wl_ablation_report(rounds, 1);
    assert!(baseline.report.contains("E10"), "{}", baseline.report);
    assert!(!baseline.failed);
    assert_report_is_clock_free(&baseline.report);
    assert!(
        baseline.diagnostics.contains("utilization"),
        "runner diagnostics missing from stderr text:\n{}",
        baseline.diagnostics
    );
    for threads in [2, 8] {
        let parallel = wl_ablation_report(rounds, threads);
        assert_eq!(
            baseline.report, parallel.report,
            "E10 stdout diverged between 1 and {threads} thread(s)"
        );
    }
}

#[test]
fn flash_cache_is_identical_across_threads_1_2_8() {
    let options = FlashCacheOptions {
        days: 4,
        base_seed: 5,
        gets_per_day: 1200,
    };
    let baseline = flash_cache_report(&options, 1);
    assert!(baseline.report.contains("E17"), "{}", baseline.report);
    assert!(!baseline.failed);
    assert_report_is_clock_free(&baseline.report);
    for threads in [2, 8] {
        let parallel = flash_cache_report(&options, threads);
        assert_eq!(
            baseline.report, parallel.report,
            "E17 stdout diverged between 1 and {threads} thread(s)"
        );
    }
}

/// E11 on the full 1/2/8 ladder with a deliberately tiny configuration:
/// the end-to-end experiment is the heaviest consumer of the batched
/// error sampler, the SoA device state and the classifier cache, so its
/// stdout is the broadest single witness that none of them leak
/// scheduling order.
#[test]
fn end_to_end_is_identical_across_threads_1_2_8() {
    let options = EndToEndOptions {
        days: 2,
        heavy: false,
        replicas: 2,
        base_seed: 77,
        workload_bytes: 16 << 20,
    };
    let baseline = end_to_end_report(&options, 1);
    assert!(baseline.report.contains("E11"), "{}", baseline.report);
    assert!(!baseline.failed);
    assert_report_is_clock_free(&baseline.report);
    for threads in [2, 8] {
        let parallel = end_to_end_report(&options, threads);
        assert_eq!(
            baseline.report, parallel.report,
            "E11 stdout diverged between 1 and {threads} thread(s)"
        );
    }
}

#[test]
fn capacity_variance_is_identical_across_threads() {
    let serial = capacity_variance_report(1);
    let parallel = capacity_variance_report(2);
    assert!(serial.report.contains("E9"), "{}", serial.report);
    assert!(!serial.failed);
    assert_report_is_clock_free(&serial.report);
    assert_eq!(
        serial.report, parallel.report,
        "E9 stdout diverged between 1 and 2 thread(s)"
    );
}
