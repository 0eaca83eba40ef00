//! The SOS host-side controller: workload → classifier → device.
//!
//! Drives a simulated device through day-by-day personal usage
//! (`sos-workload`), running the §4.4 classification daemon (new data
//! lands on SYS, low-priority files are demoted to SPARE), §4.5's
//! auto-delete fallback under space pressure, and §4.3's opportunistic
//! cloud repair of over-degraded media. The same controller drives the
//! baseline devices with classification disabled, so comparisons share
//! every other code path.

use crate::cloud::{CloudBackup, CloudConfig};
use crate::metrics::{LatencyRecorder, QualityTimeline};
use crate::object::{ObjectError, ObjectId, ObjectStatus, ObjectStore, Partition};
use serde::{Deserialize, Serialize};
use sos_classify::{Classifier, Daemon, DaemonConfig, FeatureExtractor, Placement};
use sos_media::{decode, psnr, synthetic_photo, Image, ImageCodec};
use sos_workload::{DeviceLife, FileClass, TraceOp};
use std::collections::BTreeMap;

/// Controller policy.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Whether the classification daemon runs (false for baselines).
    pub classify: bool,
    /// Run device maintenance (scrub) every this many days.
    pub maintain_period_days: u32,
    /// Classification-daemon policy (age gate).
    pub daemon: DaemonConfig,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            classify: true,
            maintain_period_days: 7,
            daemon: DaemonConfig::default(),
        }
    }
}

/// Fraction of capacity the auto-delete fallback frees when space
/// pressure is signalled (the paper's "e.g. 3% of capacity").
const AUTODELETE_FRACTION: f64 = 0.03;
/// Measure media quality every this many days.
const QUALITY_PERIOD_DAYS: u32 = 30;
/// Every `MEDIA_SAMPLE_RATE`-th media file carries a real encoded image
/// whose PSNR is tracked end-to-end.
const MEDIA_SAMPLE_RATE: u64 = 10;
/// Attempt cloud repair when sampled media degrades below this PSNR.
const REPAIR_PSNR_FLOOR: f64 = 25.0;

/// Cumulative controller statistics.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ControllerStats {
    /// Files created on the device.
    pub creates: u64,
    /// Creates rejected for lack of space (after fallback attempts).
    pub rejected_creates: u64,
    /// In-place updates applied.
    pub updates: u64,
    /// Read operations served.
    pub reads: u64,
    /// Reads that returned detectably degraded data.
    pub degraded_reads: u64,
    /// Reads that returned partially lost data.
    pub lost_reads: u64,
    /// Files demoted to SPARE by the daemon.
    pub demotions: u64,
    /// Files deleted by the auto-delete fallback.
    pub autodeletes: u64,
    /// Cloud repairs applied.
    pub cloud_repairs: u64,
}

/// The controller, generic over the device flavour.
pub struct SosController<D: ObjectStore, C: Classifier> {
    /// The device under management.
    pub device: D,
    daemon: Daemon<C>,
    cloud: CloudBackup,
    /// The workload generator (public for inspection by harnesses).
    pub life: DeviceLife,
    config: ControllerConfig,
    /// Original images of sampled media objects, for PSNR measurement.
    originals: BTreeMap<ObjectId, Image>,
    codec: ImageCodec,
    /// Read-latency samples.
    pub read_latency: LatencyRecorder,
    /// Media-quality timeline.
    pub quality: QualityTimeline,
    /// Cumulative statistics.
    pub stats: ControllerStats,
    /// Why the current day stopped early: a power loss (the device
    /// awaits remount) or a storage failure. While set, every further
    /// day is a no-op until the host clears it (`clear_crashed`).
    halt: Option<ObjectError>,
}

impl<D: ObjectStore, C: Classifier> SosController<D, C> {
    /// Builds a controller around a device, a *trained* classifier and a
    /// workload.
    pub fn new(
        device: D,
        classifier: C,
        extractor: FeatureExtractor,
        life: DeviceLife,
        cloud: CloudConfig,
        config: ControllerConfig,
    ) -> Self {
        SosController {
            device,
            daemon: Daemon::new(classifier, extractor, config.daemon),
            cloud: CloudBackup::new(cloud),
            life,
            config,
            originals: BTreeMap::new(),
            codec: ImageCodec::default_photo(),
            read_latency: LatencyRecorder::new(),
            quality: QualityTimeline::default(),
            stats: ControllerStats::default(),
            halt: None,
        }
    }

    /// Access to the cloud backup (reports).
    pub fn cloud(&self) -> &CloudBackup {
        &self.cloud
    }

    /// Whether the last day halted, on a power loss (the device awaits
    /// remount) or a storage failure; see [`Self::halt`].
    pub fn crashed(&self) -> bool {
        self.halt.is_some()
    }

    /// The error that halted the last day, if one did.
    pub fn halt(&self) -> Option<&ObjectError> {
        self.halt.as_ref()
    }

    /// Acknowledges a completed remount: the harness recovers the
    /// device (e.g. [`crate::SosDevice::recover_in_place`]) and then
    /// clears the halt so simulation can resume.
    pub fn clear_crashed(&mut self) {
        self.halt = None;
    }

    /// Records a failed step's error as the halt that ends the day: the
    /// one place the halt is set.
    fn settle(&mut self, step: Result<(), ObjectError>) {
        if let Err(error) = step {
            self.halt = Some(error);
        }
    }

    /// Generates content bytes for a new file. Sampled media files get a
    /// real encoded photo (so degradation is measurable); everything
    /// else gets sized pseudo-random bytes.
    fn content_for(&mut self, id: ObjectId, class: FileClass, bytes: u64) -> Vec<u8> {
        let is_photo = matches!(class, FileClass::PhotoCasual | FileClass::PhotoPersonal);
        if is_photo && id.is_multiple_of(MEDIA_SAMPLE_RATE) {
            let image = synthetic_photo(96, 96, id ^ 0xFACE);
            // Encoding a 96x96 synthetic photo cannot fail; if it somehow
            // does, fall through to filler bytes instead of panicking.
            if let Ok(encoded) = self.codec.encode(&image) {
                self.originals.insert(id, image);
                return encoded.bytes;
            }
        }
        // Deterministic filler of the nominal size (capped to keep
        // simulations affordable; capacity accounting uses this length).
        let len = bytes.min(1 << 20) as usize;
        let mut data = vec![0u8; len];
        let mut state = id.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        for chunk in data.chunks_mut(8) {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let bytes = state.to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&bytes[..n]);
        }
        data
    }

    /// Creates a file. A create that fails never reached the directory,
    /// so it is dropped from the workload too; one that finds no space
    /// anywhere is counted as rejected rather than halting the day.
    fn handle_create(
        &mut self,
        id: ObjectId,
        class: FileClass,
        bytes: u64,
    ) -> Result<(), ObjectError> {
        let content = self.content_for(id, class, bytes);
        let placed = self.place_new(id, &content);
        match placed {
            Ok(true) => {
                self.stats.creates += 1;
                self.cloud.maybe_backup(id, &content);
                return Ok(());
            }
            Ok(false) => self.stats.rejected_creates += 1,
            Err(_) => {}
        }
        self.originals.remove(&id);
        let _ = self.life.force_delete(id);
        placed.map(|_| ())
    }

    /// Puts a new object, returning whether it was placed.
    ///
    /// §4.4: "new file data will first be written to high-endurance
    /// pseudo-QLC memory"; the daemon demotes later. Under SYS-side
    /// space pressure new data spills directly to SPARE (it would be
    /// demoted there shortly anyway); only when the whole device is
    /// short does the §4.5 auto-delete fallback fire, before one final
    /// try on SPARE whose failure, short of a power loss, rejects the
    /// create.
    fn place_new(&mut self, id: ObjectId, content: &[u8]) -> Result<bool, ObjectError> {
        for partition in [Partition::Sys, Partition::Spare] {
            match self.device.put(id, content, partition) {
                Ok(()) => return Ok(true),
                Err(ObjectError::NoSpace) => {}
                Err(error) => return Err(error),
            }
        }
        self.autodelete()?;
        match self.device.put(id, content, Partition::Spare) {
            Ok(()) => Ok(true),
            Err(ObjectError::PowerLoss) => Err(ObjectError::PowerLoss),
            Err(_) => Ok(false),
        }
    }

    fn handle_update(&mut self, id: ObjectId, bytes: u64) -> Result<(), ObjectError> {
        if self.device.placement(id).is_none() {
            return Ok(()); // create was rejected earlier
        }
        let Some(meta) = self.life.file(id) else {
            return Ok(());
        };
        let class = meta.class;
        let content = self.content_for(id, class, bytes.max(4096));
        match self.device.update(id, &content) {
            Ok(()) => {
                self.stats.updates += 1;
                self.cloud.refresh(id, &content);
                Ok(())
            }
            Err(ObjectError::NoSpace) => self.autodelete(),
            Err(ObjectError::NotFound(_)) => Ok(()),
            Err(error) => Err(error),
        }
    }

    fn handle_read(&mut self, id: ObjectId) -> Result<(), ObjectError> {
        match self.device.get(id) {
            Ok(data) => {
                self.stats.reads += 1;
                self.read_latency.record(data.latency_us);
                match data.status {
                    ObjectStatus::Degraded => self.stats.degraded_reads += 1,
                    ObjectStatus::PartiallyLost => self.stats.lost_reads += 1,
                    ObjectStatus::Intact => {}
                }
            }
            Err(ObjectError::NotFound(_)) => {}
            Err(ObjectError::PowerLoss) => return Err(ObjectError::PowerLoss),
            Err(_) => self.stats.lost_reads += 1,
        }
        Ok(())
    }

    /// Deletes a file from the device and forgets it everywhere else.
    /// Only a power loss fails it: the entry may already be gone from
    /// the directory, and any half-freed pages are swept up by the
    /// remount re-trim.
    fn handle_delete(&mut self, id: ObjectId) -> Result<(), ObjectError> {
        let deleted = self.device.delete(id);
        self.cloud.forget(id);
        self.originals.remove(&id);
        match deleted {
            Err(ObjectError::PowerLoss) => Err(ObjectError::PowerLoss),
            _ => Ok(()),
        }
    }

    /// The §4.5 auto-delete fallback: delete daemon-recommended
    /// expendable files until `AUTODELETE_FRACTION` of capacity is
    /// freed.
    fn autodelete(&mut self) -> Result<(), ObjectError> {
        let target = (self.device.capacity_bytes() as f64 * AUTODELETE_FRACTION) as u64;
        let now = self.life.day() as f64;
        let recommendations = self.daemon.deletion_recommendations(self.life.files(), now);
        let mut freed = 0u64;
        for (id, _score) in recommendations {
            if freed >= target {
                break;
            }
            if let Some(size) = self.life.force_delete(id) {
                freed += size;
                self.stats.autodeletes += 1;
                self.handle_delete(id)?;
            }
        }
        Ok(())
    }

    /// Measures PSNR of all sampled media still alive; repairs from the
    /// cloud when quality fell through the floor. A power loss halts
    /// the day and ends the pass with what it measured so far.
    pub fn measure_quality(&mut self) -> Vec<f64> {
        let mut psnrs = Vec::new();
        let pass = self.sample_quality(&mut psnrs);
        self.settle(pass);
        psnrs
    }

    fn sample_quality(&mut self, psnrs: &mut Vec<f64>) -> Result<(), ObjectError> {
        // Measure in id order: each `get` disturbs device state
        // (read-disturb counters, error-sampling RNG draws), so the walk
        // order must be stable run to run — the BTreeMap guarantees it.
        let ids: Vec<ObjectId> = self.originals.keys().copied().collect();
        psnrs.reserve(ids.len());
        for id in ids {
            let data = match self.device.get(id) {
                Ok(data) => data,
                Err(ObjectError::PowerLoss) => return Err(ObjectError::PowerLoss),
                Err(_) => continue,
            };
            let Some(original) = self.originals.get(&id) else {
                continue;
            };
            let quality = match decode(&data.bytes) {
                Ok(decoded) => psnr(original, &decoded),
                // Header destroyed: the image is unviewable.
                Err(_) => 0.0,
            };
            if quality < REPAIR_PSNR_FLOOR {
                if let Some(golden) = self.cloud.fetch(id) {
                    match self.device.update(id, &golden) {
                        Ok(()) => {
                            self.stats.cloud_repairs += 1;
                            // Re-measure after repair.
                            if let Ok(repaired) = self.device.get(id) {
                                if let Ok(decoded) = decode(&repaired.bytes) {
                                    psnrs.push(psnr(original, &decoded));
                                    continue;
                                }
                            }
                        }
                        Err(ObjectError::PowerLoss) => return Err(ObjectError::PowerLoss),
                        Err(_) => {}
                    }
                }
            }
            psnrs.push(quality);
        }
        Ok(())
    }

    /// Runs one simulated day end to end. A power loss or storage
    /// failure mid-day halts it: the rest of the day is abandoned (for
    /// a power loss, the machine is off), and the caller remounts via
    /// the device's recovery path and `clear_crashed`.
    pub fn run_day(&mut self) {
        if self.halt.is_none() {
            let day = self.day();
            self.settle(day);
        }
    }

    /// One day's steps, stopping at the first that fails.
    fn day(&mut self) -> Result<(), ObjectError> {
        for op in self.life.next_day().ops {
            match op {
                TraceOp::Create { file, class, bytes } => self.handle_create(file, class, bytes)?,
                TraceOp::Update { file, bytes } => self.handle_update(file, bytes)?,
                TraceOp::Read { file, .. } => self.handle_read(file)?,
                TraceOp::Delete { file } => self.handle_delete(file)?,
            }
        }
        self.device.advance_days(1.0);
        let now = self.life.day() as f64;

        // Daily classification review (§4.4).
        if self.config.classify && self.daemon.review_due(now) {
            let decisions = self.daemon.review(self.life.files(), now);
            for decision in decisions {
                debug_assert_eq!(decision.placement, Placement::Spare);
                if self.device.placement(decision.file) == Some(Partition::Sys) {
                    match self.device.migrate(decision.file, Partition::Spare) {
                        Ok(()) => self.stats.demotions += 1,
                        Err(ObjectError::NoSpace) | Err(ObjectError::NotFound(_)) => {}
                        Err(error) => return Err(error),
                    }
                }
            }
        }

        // Periodic maintenance and the §4.5 pressure fallback.
        if self
            .life
            .day()
            .is_multiple_of(self.config.maintain_period_days.max(1))
        {
            let pressure = match self.device.maintain() {
                Ok(pressure) => pressure,
                Err(ObjectError::PowerLoss) => return Err(ObjectError::PowerLoss),
                Err(_) => true,
            };
            if pressure {
                self.autodelete()?;
            }
        }

        // Periodic quality measurement, last: a power loss inside it
        // halts the day from within `measure_quality`.
        if self.life.day().is_multiple_of(QUALITY_PERIOD_DAYS) {
            let psnrs = self.measure_quality();
            self.quality.record(now, psnrs);
        }
        Ok(())
    }

    /// Runs `days` simulated days; once one halts, the rest are no-ops.
    pub fn run_days(&mut self, days: u32) {
        for _ in 0..days {
            self.run_day();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{SosConfig, SosDevice};
    use crate::object::{DeviceCounters, ObjectData};
    use sos_classify::{multi_user_corpus, LogisticRegression};
    use sos_workload::{UsageProfile, WorkloadConfig};

    fn controller(
        profile: UsageProfile,
        cloud: CloudConfig,
        config: ControllerConfig,
    ) -> SosController<SosDevice, LogisticRegression> {
        controller_on(SosDevice::new(&SosConfig::tiny(11)), profile, cloud, config)
    }

    fn controller_on<D: ObjectStore>(
        device: D,
        profile: UsageProfile,
        cloud: CloudConfig,
        config: ControllerConfig,
    ) -> SosController<D, LogisticRegression> {
        let extractor = FeatureExtractor::default();
        let corpus = multi_user_corpus(&extractor, 1, 42);
        let mut model = LogisticRegression::default();
        model.train(&corpus.features, &corpus.labels);
        let capacity = device.capacity_bytes();
        let life = DeviceLife::new(WorkloadConfig::phone(capacity, profile, 11));
        SosController::new(device, model, extractor, life, cloud, config)
    }

    /// A store whose every `put` fails with a storage error and which
    /// holds nothing.
    struct BrokenStore;

    impl ObjectStore for BrokenStore {
        fn put(&mut self, _: ObjectId, _: &[u8], _: Partition) -> Result<(), ObjectError> {
            Err(ObjectError::Storage("program failed".into()))
        }
        fn get(&mut self, id: ObjectId) -> Result<ObjectData, ObjectError> {
            Err(ObjectError::NotFound(id))
        }
        fn update(&mut self, id: ObjectId, _: &[u8]) -> Result<(), ObjectError> {
            Err(ObjectError::NotFound(id))
        }
        fn delete(&mut self, id: ObjectId) -> Result<(), ObjectError> {
            Err(ObjectError::NotFound(id))
        }
        fn migrate(&mut self, id: ObjectId, _: Partition) -> Result<(), ObjectError> {
            Err(ObjectError::NotFound(id))
        }
        fn placement(&self, _: ObjectId) -> Option<Partition> {
            None
        }
        fn advance_days(&mut self, _: f64) {}
        fn maintain(&mut self) -> Result<bool, ObjectError> {
            Ok(false)
        }
        fn capacity_bytes(&self) -> u64 {
            1 << 30
        }
        fn counters(&self) -> DeviceCounters {
            DeviceCounters::default()
        }
    }

    #[test]
    fn a_storage_failure_halts_the_day_without_a_panic() {
        let mut c = controller_on(
            BrokenStore,
            UsageProfile::Typical,
            CloudConfig::none(),
            ControllerConfig::default(),
        );
        c.run_day();
        assert!(c.crashed());
        assert_eq!(
            c.halt(),
            Some(&ObjectError::Storage("program failed".into()))
        );
        assert_eq!(c.stats.creates, 0);
        // A halted controller runs no day until the halt is cleared.
        c.run_days(3);
        assert_eq!(c.life.day(), 1);
        c.clear_crashed();
        c.run_day();
        assert_eq!(c.life.day(), 2);
    }

    #[test]
    fn a_quiet_week_creates_and_reads_without_loss() {
        let mut c = controller(
            UsageProfile::Light,
            CloudConfig::none(),
            ControllerConfig::default(),
        );
        c.run_days(7);
        assert!(c.stats.creates > 0);
        assert_eq!(c.stats.rejected_creates, 0);
        assert_eq!(c.stats.lost_reads, 0);
    }

    #[test]
    fn sampled_media_is_tracked_and_measurable() {
        let mut c = controller(
            UsageProfile::Typical,
            CloudConfig::none(),
            ControllerConfig::default(),
        );
        c.run_days(10);
        let psnrs = c.measure_quality();
        assert!(!psnrs.is_empty(), "no sampled media after 10 days");
        // Fresh device: quality is effectively codec-roundtrip quality.
        assert!(psnrs.iter().all(|&q| q > 25.0), "{psnrs:?}");
    }

    #[test]
    fn demotions_happen_with_classification_on_but_not_off() {
        let run = |classify: bool| {
            let mut c = controller(
                UsageProfile::Typical,
                CloudConfig::none(),
                ControllerConfig {
                    classify,
                    ..ControllerConfig::default()
                },
            );
            c.run_days(12);
            c.stats.demotions
        };
        assert!(run(true) > 0, "classification on must demote");
        assert_eq!(run(false), 0, "classification off must not demote");
    }

    #[test]
    fn autodelete_frees_recommended_files() {
        let mut c = controller(
            UsageProfile::Typical,
            CloudConfig::none(),
            ControllerConfig::default(),
        );
        c.run_days(10);
        let files_before = c.life.file_count();
        c.autodelete().unwrap();
        // Something expendable existed after 10 days of media-heavy use.
        assert!(c.stats.autodeletes > 0, "nothing deleted");
        assert!(c.life.file_count() < files_before);
    }

    #[test]
    fn cloud_backup_records_created_objects() {
        let mut c = controller(
            UsageProfile::Typical,
            CloudConfig {
                coverage: 1.0,
                availability: 1.0,
                seed: 3,
            },
            ControllerConfig::default(),
        );
        c.run_days(5);
        assert!(
            c.cloud().object_count() > 0,
            "full-coverage cloud saw no objects"
        );
    }
}
