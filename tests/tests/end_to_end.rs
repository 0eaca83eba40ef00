//! Cross-crate integration: the full SOS stack — workload → classifier →
//! device → media quality — exercised end to end.

use sos_classify::{
    multi_user_corpus, Classifier, Daemon, DaemonConfig, FeatureExtractor, LogisticRegression,
};
use sos_core::{
    CloudConfig, ControllerConfig, ObjectStore, Partition, SosConfig, SosController, SosDevice,
};
use sos_media::{decode, psnr, synthetic_photo, ImageCodec};
use sos_workload::{DeviceLife, UsageProfile, WorkloadConfig};

fn trained() -> (LogisticRegression, FeatureExtractor) {
    let extractor = FeatureExtractor::default();
    let corpus = multi_user_corpus(&extractor, 2, 99);
    let mut model = LogisticRegression::default();
    model.train(&corpus.features, &corpus.labels);
    (model, extractor)
}

#[test]
fn classifier_daemon_demotes_media_on_the_sos_device() {
    let (model, extractor) = trained();
    let daemon = Daemon::new(model, extractor, DaemonConfig::default());
    let mut device = SosDevice::new(&SosConfig::tiny(3));

    // Build a small file population straight from the workload model.
    let mut life = DeviceLife::new(WorkloadConfig::phone(2 << 20, UsageProfile::Typical, 17));
    for _ in 0..12 {
        life.next_day();
    }
    let now = life.day() as f64 + 10.0;
    let mut stored = 0;
    for meta in life.files().take(40) {
        let content = vec![(meta.id % 251) as u8; (meta.size as usize).clamp(512, 16 << 10)];
        if device.put(meta.id, &content, Partition::Sys).is_ok() {
            stored += 1;
        }
    }
    assert!(stored >= 20, "only stored {stored}");

    // Review and demote.
    let files: Vec<_> = life.files().cloned().collect();
    let mut demoted = 0;
    let mut daemon = daemon;
    for decision in daemon.review(files.iter(), now) {
        if device.placement(decision.file) == Some(Partition::Sys)
            && device.migrate(decision.file, Partition::Spare).is_ok()
        {
            demoted += 1;
        }
    }
    assert!(demoted > 0, "daemon demoted nothing");
    // Demoted objects are readable (possibly degraded, not lost).
    let (sys_bytes, spare_bytes) = device.partition_bytes();
    assert!(spare_bytes > 0, "SPARE empty after demotions");
    assert!(sys_bytes > 0, "critical data must remain on SYS");
}

#[test]
fn thirty_day_controller_run_keeps_sys_data_safe() {
    let (model, extractor) = trained();
    let device = SosDevice::new(&SosConfig::small(5));
    let capacity = device.capacity_bytes();
    let life = DeviceLife::new(WorkloadConfig::phone(capacity, UsageProfile::Typical, 5));
    let mut controller = SosController::new(
        device,
        model,
        extractor,
        life,
        CloudConfig::none(),
        ControllerConfig::default(),
    );
    controller.run_days(30);
    assert!(controller.stats.creates > 100, "workload too small");
    assert!(controller.stats.reads > 100);
    // A benign 30-day run must not lose anything.
    assert_eq!(controller.stats.lost_reads, 0, "data lost in benign run");
    assert_eq!(controller.stats.rejected_creates, 0);
    // The daemon must have found low-priority data to demote.
    assert!(controller.stats.demotions > 0, "no demotions in 30 days");
    // Latency was recorded.
    assert!(controller.read_latency.summary().is_some());
}

#[test]
fn media_survives_a_device_year_above_quality_floor() {
    let (model, extractor) = trained();
    let device = SosDevice::new(&SosConfig::small(7));
    let capacity = device.capacity_bytes();
    let life = DeviceLife::new(WorkloadConfig::phone(capacity, UsageProfile::Typical, 7));
    let mut controller = SosController::new(
        device,
        model,
        extractor,
        life,
        CloudConfig::none(),
        ControllerConfig::default(),
    );
    controller.run_days(60);
    let psnrs = controller.measure_quality();
    assert!(!psnrs.is_empty(), "no sampled media survived");
    let median = {
        let mut sorted = psnrs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        sorted[sorted.len() / 2]
    };
    assert!(median > 25.0, "median media PSNR {median} below floor");
}

#[test]
fn cloud_backup_repairs_over_degraded_media() {
    // Store a photo on SPARE, batter it with retention, and verify the
    // cloud path restores quality.
    let image = synthetic_photo(96, 96, 31);
    let codec = ImageCodec::default_photo();
    let encoded = codec.encode(&image).expect("encodes");
    let mut device = SosDevice::new(&SosConfig::tiny(31));
    device
        .put(1, &encoded.bytes, Partition::Spare)
        .expect("space");
    // Age dramatically so SPARE accumulates errors.
    device.advance_days(1500.0);
    let degraded = device.get(1).expect("readable");
    let q_degraded = match decode(&degraded.bytes) {
        Ok(img) => psnr(&image, &img),
        Err(_) => 0.0,
    };
    // Cloud repair: overwrite with the golden copy.
    device.update(1, &encoded.bytes).expect("repair");
    let repaired = device.get(1).expect("readable");
    let q_repaired = match decode(&repaired.bytes) {
        Ok(img) => psnr(&image, &img),
        Err(_) => 0.0,
    };
    // Both reads are stochastic (errors inject on every read of the worn
    // medium), so allow ~1 dB of sampling noise in the comparison.
    assert!(
        q_repaired >= q_degraded - 1.0,
        "repair must not lower quality ({q_repaired} vs {q_degraded})"
    );
    assert!(q_repaired > 30.0, "repaired quality {q_repaired}");
}

#[test]
fn carbon_claims_hold_against_the_constructed_device() {
    // The analytic claim table and the constructed simulator device must
    // agree in shape: SOS below QLC below TLC per exported GB.
    use sos_carbon::EmbodiedModel;
    use sos_core::sim::carbon_per_exported_gb;
    use sos_core::BaselineDevice;
    use sos_flash::CellDensity;

    let model = EmbodiedModel::default();
    let tlc = BaselineDevice::tlc_small(1);
    let raw = tlc.partition().ftl.device().geometry().raw_bytes();
    let tlc_kg = carbon_per_exported_gb(&model, CellDensity::Tlc, raw, tlc.capacity_bytes());
    let qlc = BaselineDevice::qlc_small(1);
    let qlc_kg = carbon_per_exported_gb(&model, CellDensity::Qlc, raw, qlc.capacity_bytes());
    let config = SosConfig::small(1);
    let sos = SosDevice::new(&config);
    let sos_kg = carbon_per_exported_gb(
        &model,
        CellDensity::Plc,
        config.base.geometry.raw_bytes(),
        sos.capacity_bytes(),
    );
    assert!(sos_kg < qlc_kg, "SOS {sos_kg} vs QLC {qlc_kg}");
    assert!(qlc_kg < tlc_kg, "QLC {qlc_kg} vs TLC {tlc_kg}");
    // Within 10% of the paper's 2/3 headline.
    let ratio = sos_kg / tlc_kg;
    assert!(
        (ratio - 2.0 / 3.0).abs() < 0.1,
        "SOS/TLC carbon ratio {ratio}"
    );
}
