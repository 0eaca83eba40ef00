//! Multi-year personal-device workload generation.
//!
//! Generates a day-by-day operation stream with the statistics the paper
//! relies on (§2.3.2, citing Zhang et al. MobiSys '19): modest daily
//! write volume dominated by app state and newly-captured media, heavily
//! read-skewed access to recent files, media rarely updated, and churn
//! (cache turnover, casual-media deletion) that holds the device at a
//! target fill level.

use crate::filetypes::{byte_share, FileClass, FileMeta};
use crate::hash::FastMap;
use crate::trace::{DayTrace, TraceOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// How intensively the device is used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UsageProfile {
    /// Light user: ~2% of capacity written per day.
    Light,
    /// Typical user (the paper's common case): ~5% per day.
    Typical,
    /// Heavy user: ~15% per day.
    Heavy,
    /// Worst-case write-intensive apps (the paper's "playing Final
    /// Fantasy for 9 hours daily"): ~40% per day.
    Gamer,
}

impl UsageProfile {
    /// Daily host-write volume as a fraction of device capacity
    /// (drive-writes-per-day).
    pub fn daily_write_fraction(self) -> f64 {
        match self {
            UsageProfile::Light => 0.02,
            UsageProfile::Typical => 0.05,
            UsageProfile::Heavy => 0.15,
            UsageProfile::Gamer => 0.40,
        }
    }
}

/// Workload configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Device capacity the workload targets, in bytes.
    pub capacity_bytes: u64,
    /// Average bytes written per day (creates + updates).
    pub daily_write_bytes: u64,
    /// Average bytes read per day.
    pub daily_read_bytes: u64,
    /// Fraction of daily writes that are in-place updates to app state.
    pub update_fraction: f64,
    /// Steady-state fill level the user maintains (fraction of
    /// capacity); excess casual media/cache is deleted.
    pub target_fill: f64,
    /// Scale factor applied to sampled file sizes. Simulated devices are
    /// scaled-down stand-ins (e.g. 512 MiB representing 512 GB), so file
    /// sizes scale by the same factor to keep file *counts* realistic.
    pub size_scale: f64,
    /// RNG seed.
    pub seed: u64,
}

impl WorkloadConfig {
    /// A phone-like workload at the given capacity and usage intensity.
    pub fn phone(capacity_bytes: u64, profile: UsageProfile, seed: u64) -> Self {
        let daily_write_bytes = (capacity_bytes as f64 * profile.daily_write_fraction()) as u64;
        WorkloadConfig {
            capacity_bytes,
            daily_write_bytes,
            daily_read_bytes: daily_write_bytes * 6,
            update_fraction: 0.35,
            target_fill: 0.70,
            size_scale: capacity_bytes as f64 / (512u64 << 30) as f64,
            seed,
        }
    }
}

/// Stateful generator: call [`DeviceLife::next_day`] repeatedly.
#[derive(Debug)]
pub struct DeviceLife {
    config: WorkloadConfig,
    rng: StdRng,
    files: FastMap<u64, FileMeta>,
    /// Live file ids in creation order (hot = recent). Ids are assigned
    /// sequentially and removals preserve order, so this stays sorted
    /// ascending — lookups may binary-search it.
    live: Vec<u64>,
    next_id: u64,
    fill_bytes: u64,
    day: u32,
    /// Unspent (or overshot, if negative) create budget carried across
    /// days, so bursty large files average out to the configured rate.
    create_debt: f64,
    /// Resident bytes per class, for fill-aware class sampling.
    resident: FastMap<FileClass, u64>,
}

/// Builds `"<class dir>/f<id padded to 6 digits>.<ext>"` without going
/// through the `format!` machinery — file creation is hot enough in
/// corpus generation that formatter dispatch shows up in profiles.
fn file_path(class: FileClass, id: u64) -> String {
    let dir = class.typical_path();
    let ext = class.typical_extension();
    let mut digits = [b'0'; 20];
    let mut index = digits.len();
    let mut rest = id;
    loop {
        index -= 1;
        digits[index] = b'0' + u8::try_from(rest % 10).unwrap_or(0);
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    // Match `{:06}`: at least six digits, zero-padded.
    index = index.min(digits.len() - 6);
    let digits = std::str::from_utf8(&digits[index..]).unwrap_or("000000");
    let mut path = String::with_capacity(dir.len() + ext.len() + digits.len() + 3);
    path.push_str(dir);
    path.push_str("/f");
    path.push_str(digits);
    path.push('.');
    path.push_str(ext);
    path
}

impl DeviceLife {
    /// Creates a generator for the given configuration.
    pub fn new(config: WorkloadConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        DeviceLife {
            config,
            rng,
            files: FastMap::default(),
            live: Vec::new(),
            next_id: 0,
            fill_bytes: 0,
            day: 0,
            create_debt: 0.0,
            resident: FastMap::default(),
        }
    }

    /// Bytes currently live on the device.
    pub fn fill_bytes(&self) -> u64 {
        self.fill_bytes
    }

    /// Number of live files.
    pub fn file_count(&self) -> usize {
        self.live.len()
    }

    /// Metadata of a live file.
    pub fn file(&self, id: u64) -> Option<&FileMeta> {
        self.files.get(&id)
    }

    /// Iterates over all live files.
    pub fn files(&self) -> impl Iterator<Item = &FileMeta> {
        self.live.iter().filter_map(|id| self.files.get(id))
    }

    /// The current simulated day.
    pub fn day(&self) -> u32 {
        self.day
    }

    fn sample_class_raw(&mut self) -> FileClass {
        let u: f64 = self.rng.gen();
        let mut acc = 0.0;
        for class in FileClass::ALL {
            acc += byte_share(class);
            if u < acc {
                return class;
            }
        }
        FileClass::Audio
    }

    /// Samples a class for a new file, steering persistent classes (OS,
    /// apps, documents) away once they reach their steady-state share —
    /// real devices do not install the OS forever, but users do keep
    /// shooting photos (old expendable ones get churned instead).
    fn sample_class(&mut self) -> FileClass {
        let cap_base = self.config.capacity_bytes as f64 * self.config.target_fill;
        for _ in 0..10 {
            let class = self.sample_class_raw();
            let expendable = matches!(
                class,
                FileClass::Cache
                    | FileClass::PhotoCasual
                    | FileClass::VideoCasual
                    | FileClass::Audio
            );
            let cap = (byte_share(class) * cap_base) as u64;
            if expendable || *self.resident.get(&class).unwrap_or(&0) < cap {
                return class;
            }
        }
        FileClass::PhotoCasual
    }

    /// Creates one file of the given class; returns its size in bytes.
    fn create_file(&mut self, class: FileClass, ops: &mut Vec<TraceOp>) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let size =
            ((class.sample_size(&mut self.rng) as f64 * self.config.size_scale) as u64).max(4096);
        // Per-file significance: class mean plus noise, clamped.
        let noise: f64 = self.rng.gen_range(-0.18..0.18);
        let significance = (class.significance_mean() + noise).clamp(0.0, 1.0);
        let path = file_path(class, id);
        self.files.insert(
            id,
            FileMeta {
                id,
                class,
                size,
                created_day: self.day as f64,
                last_access_day: self.day as f64,
                access_count: 0,
                update_count: 0,
                significance,
                path,
            },
        );
        self.live.push(id);
        self.fill_bytes += size;
        *self.resident.entry(class).or_insert(0) += size;
        ops.push(TraceOp::Create {
            file: id,
            class,
            bytes: size,
        });
        size
    }

    /// Samples a live file with recency skew (recent files are hot).
    fn sample_hot_file(&mut self) -> Option<u64> {
        if self.live.is_empty() {
            return None;
        }
        let n = self.live.len() as f64;
        // Log-uniform rank: approximates Zipf(1) with O(1) sampling under
        // a growing population.
        let u: f64 = self.rng.gen();
        let rank = n.powf(u) as usize;
        let index = self.live.len().saturating_sub(rank.max(1));
        Some(self.live[index.min(self.live.len() - 1)])
    }

    /// Deletes a file outside the normal trace flow (host-initiated,
    /// e.g. the SOS auto-delete fallback). Returns the freed bytes.
    pub fn force_delete(&mut self, id: u64) -> Option<u64> {
        let meta = self.files.remove(&id)?;
        self.fill_bytes = self.fill_bytes.saturating_sub(meta.size);
        if let Some(bytes) = self.resident.get_mut(&meta.class) {
            *bytes = bytes.saturating_sub(meta.size);
        }
        // `live` is sorted ascending (sequential ids, order-preserving
        // removals), so the position lookup can binary-search.
        if let Ok(position) = self.live.binary_search(&id) {
            self.live.remove(position);
        }
        Some(meta.size)
    }

    /// Generates one day of operations.
    pub fn next_day(&mut self) -> DayTrace {
        self.day += 1;
        let mut ops = Vec::new();

        // 1. Creates: new media, documents, app installs. Budget debt
        // carries across days so an occasional large video does not
        // inflate the long-run write rate.
        let mut budget = self.config.daily_write_bytes as f64 * (1.0 - self.config.update_fraction)
            + self.create_debt;
        while budget > 0.0 {
            let class = self.sample_class();
            budget -= self.create_file(class, &mut ops) as f64;
        }
        self.create_debt = budget;

        // 2. In-place updates: app databases, caches, documents.
        let update_budget =
            (self.config.daily_write_bytes as f64 * self.config.update_fraction) as u64;
        let mut updated = 0u64;
        let mut attempts = 0;
        while updated < update_budget && attempts < 10_000 {
            attempts += 1;
            let Some(id) = self.sample_hot_file() else {
                break;
            };
            let meta = self.files.get_mut(&id).expect("live file");
            // Only write-hot classes update in place; media never does.
            if !matches!(
                meta.class,
                FileClass::AppData | FileClass::Cache | FileClass::Document
            ) {
                continue;
            }
            let bytes = (meta.size / 4).max(4096);
            meta.update_count += 1;
            meta.last_access_day = self.day as f64;
            updated += bytes;
            ops.push(TraceOp::Update { file: id, bytes });
        }

        // 3. Reads: recency-skewed, media-heavy.
        let mut read = 0u64;
        let mut attempts = 0;
        while read < self.config.daily_read_bytes && attempts < 100_000 {
            attempts += 1;
            let Some(id) = self.sample_hot_file() else {
                break;
            };
            let meta = self.files.get_mut(&id).expect("live file");
            let bytes = meta.size.clamp(4096, 8 << 20);
            meta.access_count += 1;
            meta.last_access_day = self.day as f64;
            read += bytes;
            ops.push(TraceOp::Read { file: id, bytes });
        }

        // 4. Churn: keep fill at the target by deleting expendable files
        // oldest-first (cache first, then casual media).
        let target = (self.config.capacity_bytes as f64 * self.config.target_fill) as u64;
        if self.fill_bytes > target {
            let mut candidates: Vec<u64> = self
                .live
                .iter()
                .copied()
                .filter(|id| {
                    let class = self.files[id].class;
                    matches!(
                        class,
                        FileClass::Cache
                            | FileClass::PhotoCasual
                            | FileClass::VideoCasual
                            | FileClass::Audio
                    )
                })
                .collect();
            // Oldest first (live is in creation order already). Deletes
            // are batched: bookkeeping per file, then one ordered sweep
            // over `live` instead of an O(live) splice per delete.
            candidates.reverse();
            let mut removed: Vec<u64> = Vec::new();
            while self.fill_bytes > target {
                let Some(id) = candidates.pop() else { break };
                let Some(meta) = self.files.remove(&id) else {
                    continue;
                };
                self.fill_bytes = self.fill_bytes.saturating_sub(meta.size);
                if let Some(bytes) = self.resident.get_mut(&meta.class) {
                    *bytes = bytes.saturating_sub(meta.size);
                }
                removed.push(id);
                ops.push(TraceOp::Delete { file: id });
            }
            // `removed` pops candidates in ascending-id order, matching
            // the sort order of `live`, so one merge pass drops them all.
            let mut cursor = 0;
            self.live.retain(|&id| {
                if cursor < removed.len() && removed[cursor] == id {
                    cursor += 1;
                    false
                } else {
                    true
                }
            });
        }

        DayTrace { day: self.day, ops }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: u64 = 1 << 20;

    fn run_days(profile: UsageProfile, days: u32) -> (DeviceLife, Vec<DayTrace>) {
        let config = WorkloadConfig::phone(512 * MIB, profile, 42);
        let mut life = DeviceLife::new(config);
        let traces = (0..days).map(|_| life.next_day()).collect();
        (life, traces)
    }

    #[test]
    fn file_path_matches_format_reference() {
        for class in FileClass::ALL {
            for id in [0u64, 7, 999_999, 1_000_000, 123_456_789, u64::MAX] {
                let expected = format!(
                    "{}/f{:06}.{}",
                    class.typical_path(),
                    id,
                    class.typical_extension()
                );
                assert_eq!(file_path(class, id), expected, "class {class:?} id {id}");
            }
        }
    }

    #[test]
    fn daily_write_volume_tracks_profile() {
        let (_, traces) = run_days(UsageProfile::Typical, 30);
        let mean: f64 =
            traces.iter().map(|t| t.write_bytes() as f64).sum::<f64>() / traces.len() as f64;
        let expected = 0.05 * 512.0 * MIB as f64;
        assert!(
            (mean / expected - 1.0).abs() < 0.5,
            "mean daily writes {mean} vs expected {expected}"
        );
    }

    #[test]
    fn fill_stabilises_at_target() {
        let (life, _) = run_days(UsageProfile::Heavy, 60);
        let fill_fraction = life.fill_bytes() as f64 / (512.0 * MIB as f64);
        assert!(
            (0.5..0.8).contains(&fill_fraction),
            "fill fraction {fill_fraction}"
        );
    }

    #[test]
    fn media_dominates_resident_bytes() {
        let (life, _) = run_days(UsageProfile::Typical, 60);
        let media: u64 = life
            .files()
            .filter(|f| f.class.is_media())
            .map(|f| f.size)
            .sum();
        let share = media as f64 / life.fill_bytes() as f64;
        assert!(share > 0.45, "media share {share}");
    }

    #[test]
    fn media_files_are_never_updated_in_place() {
        let (life, traces) = run_days(UsageProfile::Typical, 20);
        for trace in &traces {
            for op in &trace.ops {
                if let TraceOp::Update { file, .. } = op {
                    if let Some(meta) = life.file(*file) {
                        assert!(!meta.class.is_media(), "media file {file} updated");
                    }
                }
            }
        }
    }

    #[test]
    fn reads_exceed_writes() {
        let (_, traces) = run_days(UsageProfile::Typical, 15);
        let reads: u64 = traces.iter().map(DayTrace::read_bytes).sum();
        let writes: u64 = traces.iter().map(DayTrace::write_bytes).sum();
        assert!(reads > 2 * writes, "reads {reads} vs writes {writes}");
    }

    #[test]
    fn generation_is_deterministic() {
        let config = WorkloadConfig::phone(64 * MIB, UsageProfile::Typical, 7);
        let mut a = DeviceLife::new(config.clone());
        let mut b = DeviceLife::new(config);
        for _ in 0..5 {
            assert_eq!(a.next_day(), b.next_day());
        }
    }

    #[test]
    fn profiles_order_by_intensity() {
        let mut previous = 0u64;
        for profile in [
            UsageProfile::Light,
            UsageProfile::Typical,
            UsageProfile::Heavy,
            UsageProfile::Gamer,
        ] {
            let (_, traces) = run_days(profile, 10);
            let writes: u64 = traces.iter().map(DayTrace::write_bytes).sum();
            assert!(writes > previous, "{profile:?} wrote {writes}");
            previous = writes;
        }
    }
}
