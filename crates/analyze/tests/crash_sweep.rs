//! Crash-sweep acceptance: power cuts at scheduled operations across a
//! simulated device life, each followed by a remount with a second cut
//! armed inside it (the remount is retried when that cut fires), with
//! every auditor re-run after every crash.
//!
//! Day cuts land 1..=101 operations into a day, alternating partitions;
//! what the tests check is what `CrashSweepReport` counts: crashes,
//! cuts inside recovery, checkpoints taken, and zero findings.

use sos_analyze::harness::{run_crashy_days, seed_from_env};
use sos_classify::{multi_user_corpus, Classifier, FeatureExtractor, LogisticRegression};
use sos_core::{CloudConfig, ControllerConfig, ObjectStore, SosConfig, SosController, SosDevice};
use sos_workload::{DeviceLife, UsageProfile, WorkloadConfig};

/// Days of the acceptance sweep's one device life.
const DAYS: u64 = 800;

fn controller(seed: u64) -> SosController<SosDevice, LogisticRegression> {
    let extractor = FeatureExtractor::default();
    let corpus = multi_user_corpus(&extractor, 1, 3);
    let mut model = LogisticRegression::default();
    model.train(&corpus.features, &corpus.labels);
    let device = SosDevice::new(&SosConfig::tiny(seed));
    let capacity = device.capacity_bytes();
    let life = DeviceLife::new(WorkloadConfig::phone(capacity, UsageProfile::Typical, seed));
    SosController::new(
        device,
        model,
        extractor,
        life,
        CloudConfig::none(),
        ControllerConfig::default(),
    )
}

#[test]
fn crash_sweep_remounts_cleanly() {
    let seed = seed_from_env(11);
    let mut c = controller(seed);
    let report = run_crashy_days(&mut c, 60, 5, seed).expect("recovery must not error");
    assert!(report.crashes >= 40, "too few crashes: {}", report.crashes);
    assert_eq!(
        report.findings,
        vec![],
        "auditor violations after remount (seed {seed})"
    );
    assert!(report.checkpoints > 0, "no checkpoints taken");
    // The device keeps working after the sweep.
    c.run_day();
    assert!(!c.crashed(), "device crashed with no fault armed");
}

/// The full acceptance sweep, one device life: >= 500 crash points
/// and >= 100 cuts inside recovery, zero violations, zero unreported
/// SYS loss, torn pages never resurfacing. Run by the CI crash-sweep
/// job (`cargo test --release -- --include-ignored`).
#[test]
#[ignore = "long sweep; run explicitly or via the CI crash-sweep job"]
fn crash_sweep_500_points() {
    let seed = seed_from_env(11);
    let mut c = controller(seed);
    let total = run_crashy_days(&mut c, DAYS, 5, seed).expect("recovery");
    assert!(total.crashes >= 500, "crashes: {}", total.crashes);
    assert!(
        total.recovery_cuts >= 100,
        "cuts inside recovery: {}",
        total.recovery_cuts
    );
    assert_eq!(
        total.findings,
        vec![],
        "auditor violations across {} crashes (seed {seed})",
        total.crashes
    );
    println!(
        "crash sweep: {} days, {} crashes, {} cuts inside recovery, {} checkpoints, {} torn, {} repaired, {} sys lost (declared), {} spare lost (declared), {} resurrected trims",
        total.days,
        total.crashes,
        total.recovery_cuts,
        total.checkpoints,
        total.torn_pages,
        total.sys_repaired,
        total.sys_lost,
        total.spare_lost,
        total.resurrected_trimmed
    );
}
