//! Experiment implementations behind the `exp_*` binaries.
//!
//! Each experiment is a pure function from options to an
//! [`ExperimentOutput`]: a deterministic `report` string (what the
//! binary prints on stdout) plus a timing `diagnostics` string (what it
//! prints on stderr). Independent arms run on the deterministic
//! parallel runner ([`crate::runner`]); because every arm derives its
//! own RNG stream and results are merged in task order, the `report`
//! string is byte-identical whatever `SOS_THREADS` says — the property
//! `tests/runner_determinism.rs` pins.

use crate::runner::{run_tasks, task_seed, RunnerReport};
use sos_analyze::{run_crashy_days, CrashSweepReport};
use sos_carbon::EmbodiedModel;
use sos_classify::{multi_user_corpus, Classifier, FeatureExtractor, LogisticRegression};
use sos_core::{
    format_comparison, run_design, CloudConfig, ControllerConfig, DesignKind, ObjectError,
    ObjectStore, SimConfig, SimResult, SosConfig, SosController, SosDevice,
};
use sos_ecc::PageStatus;
use sos_flash::{CellDensity, DeviceConfig, DeviceStats, ProgramMode};
use sos_ftl::{
    DataClass, DataTag, Ftl, FtlConfig, FtlError, GcPolicy, PlacementHandle, PlacementStats,
    ResuscitationPolicy, Temperature, WearLevelingConfig,
};
use sos_workload::{
    CacheBackend, CacheBackendError, CacheClass, CacheDayReport, CacheReadback, CacheTemp,
    DeviceLife, FlashCache, FlashCacheConfig, ObjectMeta, UsageProfile, WorkloadConfig,
};
use std::fmt::Write as _;

/// What one experiment run produced.
#[derive(Debug, Clone, Default)]
pub struct ExperimentOutput {
    /// Deterministic result text — print on **stdout**. Byte-identical
    /// for a given config regardless of thread count.
    pub report: String,
    /// Wall-clock / utilization diagnostics — print on **stderr** only;
    /// varies run to run.
    pub diagnostics: String,
    /// Whether the experiment found violations (non-zero exit).
    pub failed: bool,
}

/// The runner's wall-time summary, plus flash page rates over that wall
/// time when the experiment reports its `flash` counters.
fn runner_diagnostics(label: &str, runner: &RunnerReport, flash: Option<&DeviceStats>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "[{label}] {}", runner.summary());
    if let Some(flash) = flash.filter(|flash| flash.reads + flash.programs > 0) {
        let _ = writeln!(
            out,
            "[{label}] {:.0} pages read/s, {:.0} programmed/s of wall time",
            flash.reads as f64 / runner.wall_seconds.max(1e-9),
            flash.programs as f64 / runner.wall_seconds.max(1e-9),
        );
    }
    out
}

/// The deterministic `perf:` stdout line of E11 and E17: RBER-memo hit
/// rate and flash page totals (with, for E11, how many of the pages
/// programmed were SYS stripe parity), then reclaim-unit lifecycle and
/// placement mix.
fn perf_line(flash: &DeviceStats, placement: &PlacementStats, parity: Option<u64>) -> String {
    let lookups = flash.rber_cache_hits + flash.rber_cache_misses;
    let hit_rate = if lookups == 0 {
        0.0
    } else {
        flash.rber_cache_hits as f64 / lookups as f64
    };
    let parity = parity.map_or_else(String::new, |pages| format!(" ({pages} parity)"));
    format!(
        "perf: rber-cache {} hits / {} misses ({:.1}% hit), {} pages read, {} programmed{}; \
         reclaim units {} opened / {} filled / {} erased ({:.1} pages/erase, \
         {:.1}% host-placed)",
        flash.rber_cache_hits,
        flash.rber_cache_misses,
        hit_rate * 100.0,
        flash.reads,
        flash.programs,
        parity,
        placement.units_opened,
        placement.units_filled,
        placement.units_erased,
        placement.pages_per_unit_erase(),
        placement.host_fraction() * 100.0
    )
}

// ---------------------------------------------------------------------------
// E11: end-to-end device life
// ---------------------------------------------------------------------------

/// Options for [`end_to_end_report`] (experiment E11).
#[derive(Debug, Clone)]
pub struct EndToEndOptions {
    /// Simulated days per device life.
    pub days: u32,
    /// Also run the Heavy usage profile (~3x slower).
    pub heavy: bool,
    /// Independent replicas per profile. Replica 0 uses `base_seed`
    /// directly (so its table matches the historical single-seed run);
    /// replica `r > 0` uses `task_seed(base_seed, r)`.
    pub replicas: usize,
    /// Base RNG seed.
    pub base_seed: u64,
    /// Workload target bytes shared by every arm; 0 sizes it to the
    /// SOS device's exported capacity (the [`sos_core::compare`] rule). Tests
    /// set this small to keep runs fast.
    pub workload_bytes: u64,
}

impl Default for EndToEndOptions {
    fn default() -> Self {
        EndToEndOptions {
            days: 360,
            heavy: false,
            replicas: 4,
            base_seed: 77,
            workload_bytes: 0,
        }
    }
}

fn replica_seed(base_seed: u64, replica: usize) -> u64 {
    if replica == 0 {
        base_seed
    } else {
        task_seed(base_seed, replica)
    }
}

/// Runs E11: TLC vs QLC vs SOS device lives, `replicas` seeds per
/// profile, every (profile × replica × design) arm an independent
/// parallel task. Carbon is normalized to the TLC baseline *of the same
/// replica*, mirroring the serial [`sos_core::compare`] semantics.
pub fn end_to_end_report(options: &EndToEndOptions, threads: usize) -> ExperimentOutput {
    let profiles: &[UsageProfile] = if options.heavy {
        &[UsageProfile::Typical, UsageProfile::Heavy]
    } else {
        &[UsageProfile::Typical]
    };
    let replicas = options.replicas.max(1);
    // Size the workload to the smallest device (SOS) so every design
    // sees identical traffic — same rule as `compare`.
    let workload_bytes = if options.workload_bytes > 0 {
        options.workload_bytes
    } else {
        SosDevice::new(&SosConfig::small(options.base_seed)).capacity_bytes()
    };

    let mut arms: Vec<(UsageProfile, usize, DesignKind)> = Vec::new();
    for &profile in profiles {
        for replica in 0..replicas {
            for kind in DesignKind::ALL {
                arms.push((profile, replica, kind));
            }
        }
    }
    let days = options.days;
    let base_seed = options.base_seed;
    let (results, runner) = run_tasks(&arms, threads, |_, &(profile, replica, kind)| {
        let config = SimConfig {
            days,
            profile,
            seed: replica_seed(base_seed, replica),
            workload_bytes,
        };
        run_design(kind, &config)
    });

    // Group back into (profile, replica) triples, in task order.
    let mut output = ExperimentOutput::default();
    let mut flash = DeviceStats::default();
    let mut placement = PlacementStats::default();
    let mut parity = 0;
    for result in &results {
        flash.absorb(&result.flash);
        placement.absorb(&result.placement);
        parity += result.parity_programs;
    }
    let designs = DesignKind::ALL.len();
    for (profile_index, &profile) in profiles.iter().enumerate() {
        let profile_base = profile_index * replicas * designs;
        let _ = writeln!(
            output.report,
            "# E11 — {days}-day device life, {profile:?} usage, {replicas} replica(s)\n"
        );
        let mut replica_rows: Vec<(u64, Vec<SimResult>)> = Vec::new();
        for replica in 0..replicas {
            let start = profile_base + replica * designs;
            let mut triple: Vec<SimResult> =
                results.iter().skip(start).take(designs).cloned().collect();
            if let Some(tlc_kg) = triple.first().map(|r| r.kg_per_exported_gb) {
                for row in triple.iter_mut() {
                    row.carbon_vs_tlc = row.kg_per_exported_gb / tlc_kg;
                }
            }
            replica_rows.push((replica_seed(base_seed, replica), triple));
        }
        if let Some((_, primary)) = replica_rows.first() {
            output.report.push_str(&format_comparison(primary));
            if let Some(sos) = primary.last() {
                let _ = writeln!(
                    output.report,
                    "SOS internals: {} demotions, {} auto-deletes, {} degraded reads, {} repairs",
                    sos.stats.demotions,
                    sos.stats.autodeletes,
                    sos.stats.degraded_reads,
                    sos.stats.cloud_repairs
                );
            }
        }
        if replicas > 1 {
            let _ = writeln!(output.report, "\n## Replica variance (SOS arm)");
            let _ = writeln!(
                output.report,
                "{:<8} {:>20} {:>8} {:>9} {:>9}",
                "replica", "seed", "vsTLC", "lostRds", "medPSNR"
            );
            let mut ratios: Vec<f64> = Vec::new();
            for (replica, (seed, triple)) in replica_rows.iter().enumerate() {
                if let Some(sos) = triple.last() {
                    ratios.push(sos.carbon_vs_tlc);
                    let _ = writeln!(
                        output.report,
                        "{:<8} {:>20} {:>8.3} {:>9} {:>9.1}",
                        replica,
                        seed,
                        sos.carbon_vs_tlc,
                        sos.stats.lost_reads,
                        sos.final_median_psnr.unwrap_or(f64::NAN)
                    );
                }
            }
            if !ratios.is_empty() {
                let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
                let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
                let max = ratios.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let _ = writeln!(
                    output.report,
                    "SOS carbon vsTLC across replicas: mean {mean:.3}, min {min:.3}, max {max:.3}"
                );
            }
        }
        output.report.push('\n');
    }
    let _ = writeln!(
        output.report,
        "{}",
        perf_line(&flash, &placement, Some(parity))
    );
    output
        .report
        .push_str("expected shape: SOS ~2/3 of TLC carbon; zero SYS loss; SPARE media\n");
    output
        .report
        .push_str("PSNR above the quality floor over the device life; p99 reads higher\n");
    output.report.push_str("on PLC but adequate (§4.5).\n");
    output.diagnostics = runner_diagnostics("E11", &runner, Some(&flash));
    output
}

// ---------------------------------------------------------------------------
// Crash sweep
// ---------------------------------------------------------------------------

/// Options for [`crash_sweep_report`].
#[derive(Debug, Clone)]
pub struct CrashSweepOptions {
    /// Total simulated days, divided across shards.
    pub days: u64,
    /// Checkpoint interval in days.
    pub checkpoint_interval: u64,
    /// Independent device lives run in parallel; shard `i` is seeded
    /// `task_seed(base_seed, i)`.
    pub shards: u64,
    /// Base RNG seed (`SOS_SEED` in the binary).
    pub base_seed: u64,
}

impl Default for CrashSweepOptions {
    fn default() -> Self {
        CrashSweepOptions {
            days: 120,
            checkpoint_interval: 5,
            shards: 8,
            base_seed: 11,
        }
    }
}

fn run_crash_shard(
    shard_days: u64,
    checkpoint_interval: u64,
    seed: u64,
) -> Result<CrashSweepReport, ObjectError> {
    let extractor = FeatureExtractor::default();
    let corpus = multi_user_corpus(&extractor, 1, 3);
    let mut model = LogisticRegression::default();
    model.train(&corpus.features, &corpus.labels);
    let device = SosDevice::new(&SosConfig::tiny(seed));
    let capacity = device.capacity_bytes();
    let life = DeviceLife::new(WorkloadConfig::phone(capacity, UsageProfile::Typical, seed));
    let mut controller = SosController::new(
        device,
        model,
        extractor,
        life,
        CloudConfig::none(),
        ControllerConfig::default(),
    );
    run_crashy_days(&mut controller, shard_days, checkpoint_interval, seed)
}

/// Runs the crash sweep: `shards` independent crashy device lives in
/// parallel, each with its own seed, device, workload, and crash
/// schedule; results are summed and findings concatenated in shard
/// order.
pub fn crash_sweep_report(options: &CrashSweepOptions, threads: usize) -> ExperimentOutput {
    let shards = options.shards.max(1);
    let shard_days = options.days.div_ceil(shards).max(1);
    let checkpoint_interval = options.checkpoint_interval.max(1);
    let tasks: Vec<u64> = (0..shards).collect();
    let base_seed = options.base_seed;
    let (outcomes, runner) = run_tasks(&tasks, threads, |index, _| {
        run_crash_shard(shard_days, checkpoint_interval, task_seed(base_seed, index))
    });

    let mut output = ExperimentOutput::default();
    let _ = writeln!(
        output.report,
        "# crash sweep: {shards} shard(s) x {shard_days} days, checkpoint every {checkpoint_interval} days, SOS_SEED={base_seed}\n"
    );
    let mut total = CrashSweepReport::default();
    let mut findings = Vec::new();
    for (shard, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Ok(report) => {
                findings.extend(
                    report
                        .findings
                        .iter()
                        .map(|finding| format!("shard {shard}: {finding}")),
                );
                total.absorb(report);
            }
            Err(error) => findings.push(format!("shard {shard}: UNRECOVERABLE — {error}")),
        }
    }
    let counts = [
        ("days simulated", total.days, ""),
        ("power cuts fired", total.crashes, ""),
        ("cuts inside recovery", total.recovery_cuts, ""),
        ("checkpoints taken", total.checkpoints, ""),
        ("torn pages found", total.torn_pages, ""),
        ("SYS pages repaired", total.sys_repaired, ""),
        ("SYS pages lost", total.sys_lost, " (declared)"),
        ("SPARE pages lost", total.spare_lost, " (declared)"),
        ("resurrected trims", total.resurrected_trimmed, ""),
        ("auditor findings", findings.len() as u64, ""),
    ];
    for (label, count, note) in counts {
        let _ = writeln!(output.report, "{label:<22}{count}{note}");
    }
    for finding in &findings {
        let _ = writeln!(output.report, "  {finding}");
    }
    if findings.is_empty() {
        output
            .report
            .push_str("\ncrash consistency holds: every remount rebuilt the pre-crash\n");
        output
            .report
            .push_str("state minus the declared crash window (repair-or-declare, torn\n");
        output
            .report
            .push_str("pages never resurfacing, directory byte-stable).\n");
    } else {
        output
            .report
            .push_str("\nVIOLATIONS FOUND — crash consistency is broken.\n");
        output.failed = true;
    }
    output.diagnostics = runner_diagnostics("crash-sweep", &runner, None);
    output
}

// ---------------------------------------------------------------------------
// E10: wear-leveling ablation
// ---------------------------------------------------------------------------

struct AblationOutcome {
    flash_writes: u64,
    erases: u64,
    spread: u32,
    max_pec: u32,
}

fn ablation_arm(wear_leveling: WearLevelingConfig, rounds: u64) -> AblationOutcome {
    let mut config = FtlConfig::conventional(ProgramMode::native(CellDensity::Plc));
    config.ecc = sos_ecc::EccScheme::DetectOnly;
    config.wear_leveling = wear_leveling;
    config.gc_policy = GcPolicy::Greedy;
    let mut ftl = Ftl::new(&DeviceConfig::tiny(CellDensity::Plc).with_seed(21), config);
    let cap = ftl.logical_pages();
    let page = vec![0xABu8; ftl.page_bytes()];
    for lpn in 0..cap {
        ftl.write(lpn, &page).expect("fill");
    }
    // Hot/cold skew: 90% of writes to 10% of the space.
    let hot = (cap / 10).max(1);
    let mut x = 5u64;
    for i in 0..rounds * cap {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        let lpn = if i % 10 != 0 {
            x % hot
        } else {
            hot + x % (cap - hot)
        };
        ftl.write(lpn, &page).expect("write");
    }
    let wear = ftl.wear_summary();
    let stats = ftl.stats();
    AblationOutcome {
        flash_writes: stats.flash_writes,
        erases: ftl.device().stats().erases,
        spread: wear.max_pec - wear.min_pec,
        max_pec: wear.max_pec,
    }
}

/// Runs E10: wear leveling ON vs OFF on identical skewed workloads, the
/// two arms in parallel.
pub fn wl_ablation_report(rounds: u64, threads: usize) -> ExperimentOutput {
    let arms = [
        ("wear leveling OFF", WearLevelingConfig::disabled()),
        ("wear leveling ON", WearLevelingConfig::enabled(16)),
    ];
    let (outcomes, runner) = run_tasks(&arms, threads, |_, (_, config)| {
        ablation_arm(*config, rounds)
    });

    let mut output = ExperimentOutput::default();
    output
        .report
        .push_str("# E10 — wear-leveling ablation on PLC (hot/cold skewed writes)\n");
    let _ = writeln!(
        output.report,
        "{:<22} {:>13} {:>9} {:>9} {:>9}",
        "config", "flash writes", "erases", "spread", "max PEC"
    );
    for ((name, _), outcome) in arms.iter().zip(&outcomes) {
        let _ = writeln!(
            output.report,
            "{:<22} {:>13} {:>9} {:>9} {:>9}",
            name, outcome.flash_writes, outcome.erases, outcome.spread, outcome.max_pec
        );
    }
    if let [without, with] = &outcomes[..] {
        let overhead = (with.flash_writes as f64 / without.flash_writes as f64 - 1.0) * 100.0;
        let _ = writeln!(
            output.report,
            "\nwear leveling narrowed the PEC spread {}x (={} vs {}) but cost {:.1}% extra",
            if with.spread > 0 {
                without.spread / with.spread.max(1)
            } else {
                without.spread
            },
            with.spread,
            without.spread,
            overhead
        );
        output
            .report
            .push_str("flash writes — the Jiao-et-al. trade the paper's SPARE partition avoids\n");
        output
            .report
            .push_str("by *disabling* preemptive leveling (§4.3).\n");
    }
    output.diagnostics = runner_diagnostics("E10", &runner, None);
    output
}

// ---------------------------------------------------------------------------
// E9: capacity variance
// ---------------------------------------------------------------------------

fn variance_wear_cycle(ftl: &mut Ftl, rounds: u64, seed: &mut u64) {
    let cap = ftl.logical_pages();
    // Capacity variance: when the device can no longer hold the full
    // logical set, the host deletes (trims) the excess before writing —
    // the paper's auto-delete behaviour.
    let sustainable = ftl.sustainable_pages();
    if sustainable < cap {
        for lpn in sustainable..cap {
            let _ = ftl.trim(lpn);
        }
    }
    let live = sustainable.min(cap).max(1);
    let page = vec![0x77u8; ftl.page_bytes()];
    for _ in 0..rounds * live {
        *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let lpn = *seed % live;
        // Ignore NoSpace near end of life: the device is dying, which is
        // the point of the experiment.
        let _ = ftl.write(lpn, &page);
    }
}

fn variance_policy_section(policy: ResuscitationPolicy, label: &str) -> String {
    let mut config = FtlConfig::sos_spare();
    config.ecc = sos_ecc::EccScheme::DetectOnly;
    config.resuscitation = policy;
    let mut ftl = Ftl::new(&DeviceConfig::tiny(CellDensity::Plc).with_seed(17), config);
    let cap = ftl.logical_pages();
    let page = vec![0x11u8; ftl.page_bytes()];
    for lpn in 0..cap {
        ftl.write(lpn, &page).expect("fill");
    }
    let mut section = String::new();
    let _ = writeln!(section, "\n## {label}");
    let _ = writeln!(
        section,
        "{:<8} {:>10} {:>12} {:>9} {:>8} {:>13}",
        "epoch", "mean PEC", "sustainable", "retired", "resusc", "pseudo-TLC blks"
    );
    let mut seed = 1u64;
    for epoch in 0..8 {
        variance_wear_cycle(&mut ftl, 12, &mut seed);
        ftl.advance_days(90.0);
        let _ = ftl.scrub();
        let wear = ftl.wear_summary();
        let geometry = *ftl.device().geometry();
        let mut pseudo = 0;
        for block in 0..geometry.total_blocks() {
            if let Ok(mode) = ftl.device().block_mode(block) {
                if mode == ProgramMode::pseudo(CellDensity::Plc, CellDensity::Tlc) {
                    pseudo += 1;
                }
            }
        }
        let _ = writeln!(
            section,
            "{:<8} {:>10.0} {:>12} {:>9} {:>8} {:>13}",
            epoch,
            wear.mean_pec,
            ftl.sustainable_pages(),
            ftl.stats().blocks_retired,
            ftl.stats().blocks_resuscitated,
            pseudo
        );
    }
    section
}

fn hostfs_shrink_section() -> String {
    use sos_core::FtlPageStore;
    use sos_hostfs::HostFs;

    let mut section = String::new();
    section.push_str("\n## Host FS shrink (CPR-style relocation over a live FTL)\n");
    // Full-strength ECC for this demo: it is about relocation mechanics,
    // not approximation.
    let ftl = Ftl::new(
        &DeviceConfig::tiny(CellDensity::Plc).with_seed(3),
        FtlConfig::conventional(ProgramMode::native(CellDensity::Plc)),
    );
    let mut fs = HostFs::format(FtlPageStore::new(ftl));
    let page = fs.page_bytes();
    for index in 0..8 {
        let id = fs
            .create(&format!("/media/clip{index}.mp4"), 2)
            .expect("create");
        fs.write(id, 0, &vec![index as u8; page * 40])
            .expect("write");
    }
    fs.delete("/media/clip0.mp4").expect("delete");
    fs.delete("/media/clip1.mp4").expect("delete");
    let before = fs.capacity_pages();
    // Shrink hard enough that surviving extents must relocate into the
    // holes the deletions left.
    let target = fs.used_pages() + 20;
    let moved = fs.shrink(target).expect("shrink fits");
    let _ = writeln!(
        section,
        "capacity {before} -> {target} pages; {moved} pages relocated by the FS"
    );
    // All files still intact.
    for index in 2..8 {
        let id = fs
            .lookup(&format!("/media/clip{index}.mp4"))
            .expect("exists");
        let data = fs.read(id, 0, page * 40).expect("read");
        assert!(
            data.iter().all(|&b| b == index as u8),
            "clip{index} corrupted"
        );
    }
    section.push_str("all surviving files verified intact after relocation\n");
    section
}

/// Runs E9: the two resuscitation-policy arms in parallel, then the
/// serial host-FS shrink demo.
pub fn capacity_variance_report(threads: usize) -> ExperimentOutput {
    let arms = [
        ("retire-only policy", ResuscitationPolicy::retire_only()),
        (
            "resuscitation ladder (pseudo-TLC, then pseudo-SLC)",
            ResuscitationPolicy::plc_default(),
        ),
    ];
    let (sections, runner) = run_tasks(&arms, threads, |_, (label, policy)| {
        variance_policy_section(policy.clone(), label)
    });
    let mut output = ExperimentOutput::default();
    output
        .report
        .push_str("# E9 — capacity variance under wear\n");
    for section in &sections {
        output.report.push_str(section);
    }
    output.report.push_str(&hostfs_shrink_section());
    output
        .report
        .push_str("\npaper shape: capacity shrinks gradually; resuscitation converts\n");
    output
        .report
        .push_str("worn PLC blocks to pseudo-TLC instead of losing them outright.\n");
    output.diagnostics = runner_diagnostics("E9", &runner, None);
    output
}

// ---------------------------------------------------------------------------
// E17: datacenter flash cache (FDP placement vs legacy streams vs no hints)
// ---------------------------------------------------------------------------

/// Placement policy an [`FtlCacheBackend`] applies to cache traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePlacement {
    /// Every write lands on the default stream — the no-FDP baseline.
    NoHints,
    /// Two fixed streams, pre-tag style: metadata on the default
    /// handle, every object on one undifferentiated cold handle.
    LegacyStreams,
    /// Typed [`DataTag`]s: metadata as SYS/hot, objects as SPARE with
    /// popularity-derived temperature.
    Fdp,
}

impl CachePlacement {
    /// All arms, in report order (baseline first).
    pub const ALL: [CachePlacement; 3] = [
        CachePlacement::NoHints,
        CachePlacement::LegacyStreams,
        CachePlacement::Fdp,
    ];

    /// Human-readable arm label.
    pub fn label(self) -> &'static str {
        match self {
            CachePlacement::NoHints => "no hints",
            CachePlacement::LegacyStreams => "legacy streams",
            CachePlacement::Fdp => "FDP tags",
        }
    }
}

fn map_cache_error(error: FtlError) -> CacheBackendError {
    match error {
        FtlError::NoSpace => CacheBackendError::NoSpace,
        other => CacheBackendError::Device(other.to_string()),
    }
}

/// A [`CacheBackend`] over a real simulated FTL: slot `s` occupies
/// logical pages `s * slot_pages ..`, and each write is placed per the
/// configured [`CachePlacement`] policy. Objects are SPARE-class: they
/// are never scrub-refreshed, so a read may come back decayed — the
/// cache treats that as a miss and refetches from origin.
pub struct FtlCacheBackend {
    ftl: Ftl,
    policy: CachePlacement,
    slot_pages: u64,
    payload: Vec<u8>,
}

impl FtlCacheBackend {
    /// Wraps `ftl`, placing writes according to `policy`.
    pub fn new(ftl: Ftl, policy: CachePlacement, slot_pages: u64) -> Self {
        let payload = vec![0x5A; ftl.page_bytes()];
        FtlCacheBackend {
            ftl,
            policy,
            slot_pages,
            payload,
        }
    }

    /// The wrapped FTL (for stats readout).
    pub fn ftl(&self) -> &Ftl {
        &self.ftl
    }

    /// Ends a simulated day: advances device time so retention decay
    /// accrues. Deliberately does **not** scrub — cached objects are
    /// degradable and are allowed to decay instead of being rewritten.
    pub fn end_of_day(&mut self) {
        self.ftl.advance_days(1.0);
    }

    fn lpn(&self, slot: u64, page: u64) -> u64 {
        slot * self.slot_pages + page
    }
}

impl CacheBackend for FtlCacheBackend {
    fn put(&mut self, slot: u64, pages: u64, meta: ObjectMeta) -> Result<(), CacheBackendError> {
        for page in 0..pages {
            let lpn = self.lpn(slot, page);
            let result = match self.policy {
                CachePlacement::NoHints => self.ftl.write(lpn, &self.payload),
                CachePlacement::LegacyStreams => {
                    let handle = match meta.class {
                        CacheClass::Metadata => PlacementHandle::DEFAULT,
                        CacheClass::Object => PlacementHandle::COLD,
                    };
                    self.ftl.write_placed(lpn, &self.payload, handle)
                }
                CachePlacement::Fdp => {
                    let tag = match meta.class {
                        CacheClass::Metadata => DataTag::sys_hot(),
                        CacheClass::Object => {
                            let temp = match meta.temp {
                                CacheTemp::Hot => Temperature::Hot,
                                CacheTemp::Cold => Temperature::Cold,
                            };
                            DataTag::new(DataClass::Spare, temp)
                        }
                    };
                    self.ftl.write_placed(lpn, &self.payload, tag.handle())
                }
            };
            result.map_err(map_cache_error)?;
        }
        Ok(())
    }

    fn get(&mut self, slot: u64, pages: u64) -> Result<CacheReadback, CacheBackendError> {
        let mut decayed = false;
        for page in 0..pages {
            match self.ftl.read(self.lpn(slot, page)) {
                Ok(result) => {
                    if result.status == PageStatus::DegradedDetected {
                        decayed = true;
                    }
                }
                Err(FtlError::DataLost(_)) | Err(FtlError::NotWritten(_)) => {
                    return Ok(CacheReadback::Gone);
                }
                Err(other) => return Err(map_cache_error(other)),
            }
        }
        if decayed {
            Ok(CacheReadback::Decayed)
        } else {
            Ok(CacheReadback::Fresh)
        }
    }

    fn evict(&mut self, slot: u64, pages: u64) -> Result<(), CacheBackendError> {
        for page in 0..pages {
            match self.ftl.trim(self.lpn(slot, page)) {
                Ok(()) | Err(FtlError::NotWritten(_)) => {}
                Err(other) => return Err(map_cache_error(other)),
            }
        }
        Ok(())
    }
}

/// Options for [`flash_cache_report`] (experiment E17).
#[derive(Debug, Clone)]
pub struct FlashCacheOptions {
    /// Simulated days of cache traffic.
    pub days: u32,
    /// Workload RNG seed (identical across arms, so every policy sees
    /// byte-identical traffic).
    pub base_seed: u64,
    /// GET operations per day; 0 uses the cache-server default rate.
    pub gets_per_day: u64,
}

impl Default for FlashCacheOptions {
    fn default() -> Self {
        FlashCacheOptions {
            days: 12,
            base_seed: 5,
            gets_per_day: 0,
        }
    }
}

/// Fraction of the FTL's logical space the cache occupies. High
/// utilization is what makes placement matter: the tighter the device,
/// the more GC has to relocate mixed-up data.
const CACHE_UTILIZATION: f64 = 0.88;

/// One placement arm's outcome.
struct CacheArmOutcome {
    policy: CachePlacement,
    traffic: CacheDayReport,
    stats: sos_ftl::FtlStats,
    placement: PlacementStats,
    flash: DeviceStats,
    mean_pec: f64,
}

fn run_cache_arm(policy: CachePlacement, options: &FlashCacheOptions) -> CacheArmOutcome {
    let mode = ProgramMode::native(CellDensity::Tlc);
    let ftl = Ftl::new(
        &DeviceConfig::tiny(CellDensity::Tlc),
        FtlConfig::conventional(mode),
    );
    let mut config = cache_config(&ftl, options);
    if options.gets_per_day > 0 {
        config.gets_per_day = options.gets_per_day;
    }
    let slot_pages = config.object_pages;
    let mut cache = FlashCache::new(config);
    let mut backend = FtlCacheBackend::new(ftl, policy, slot_pages);
    let mut traffic = CacheDayReport::default();
    for day in 0..options.days {
        match cache.run_day(&mut backend) {
            Ok(report) => traffic.absorb(&report),
            Err(error) => panic!("cache arm {} failed on day {day}: {error}", policy.label()),
        }
        backend.end_of_day();
    }
    let ftl = backend.ftl();
    CacheArmOutcome {
        policy,
        traffic,
        stats: *ftl.stats(),
        placement: ftl.placement_stats(),
        flash: ftl.device().stats(),
        mean_pec: ftl.wear_summary().mean_pec,
    }
}

/// Sizes the cache to `CACHE_UTILIZATION` of the FTL's exported space:
/// object slots plus one metadata slot, at the server config's 2
/// pages/object.
fn cache_config(ftl: &Ftl, options: &FlashCacheOptions) -> FlashCacheConfig {
    let template = FlashCacheConfig::server(1, options.base_seed);
    let usable = (ftl.logical_pages() as f64 * CACHE_UTILIZATION) as u64;
    let slots = (usable / template.object_pages).saturating_sub(1).max(4);
    FlashCacheConfig::server(slots as usize, options.base_seed)
}

/// Runs E17: the same Zipf flash-cache traffic against three
/// placement policies (no hints, legacy streams, FDP tags), one arm per
/// parallel task. Reports write amplification, reclaim-unit telemetry,
/// and what the write-amp delta buys in device lifetime and amortized
/// embodied carbon. Fails (non-zero exit) if FDP placement does not
/// beat the no-hint baseline on write-amp.
pub fn flash_cache_report(options: &FlashCacheOptions, threads: usize) -> ExperimentOutput {
    let (outcomes, runner) = run_tasks(&CachePlacement::ALL, threads, |_, &policy| {
        run_cache_arm(policy, options)
    });

    let mut output = ExperimentOutput::default();
    let days = options.days;
    let _ = writeln!(
        output.report,
        "# E17 — datacenter flash cache: {days} day(s), utilization {:.0}%, seed {}\n",
        CACHE_UTILIZATION * 100.0,
        options.base_seed
    );
    if let Some(first) = outcomes.first() {
        let _ = writeln!(
            output.report,
            "traffic per arm: {} GETs, {} admissions, {} updates, {} evictions, {:.1}% hit",
            first.traffic.gets,
            first.traffic.admitted,
            first.traffic.updated,
            first.traffic.evicted,
            first.traffic.hit_ratio() * 100.0
        );
    }
    let _ = writeln!(
        output.report,
        "\n{:<16} {:>6} {:>10} {:>9} {:>8} {:>12} {:>11}",
        "policy", "WA", "flash wr", "GC moves", "decayed", "pages/erase", "host-placed"
    );
    for outcome in &outcomes {
        let _ = writeln!(
            output.report,
            "{:<16} {:>6.3} {:>10} {:>9} {:>8} {:>12.1} {:>10.1}%",
            outcome.policy.label(),
            outcome.stats.write_amplification(),
            outcome.stats.flash_writes,
            outcome.stats.gc_page_moves,
            outcome.traffic.decayed,
            outcome.placement.pages_per_unit_erase(),
            outcome.placement.host_fraction() * 100.0
        );
    }

    // What the write-amp delta buys: device lifetime scales inversely
    // with wear rate, and embodied carbon amortizes over that lifetime.
    let embodied = EmbodiedModel::default();
    let kg_per_gb = embodied.kg_per_gb_at_reference(ProgramMode::native(CellDensity::Tlc));
    let endurance = CellDensity::Tlc.rated_endurance() as f64;
    let _ = writeln!(
        output.report,
        "\n## Device lifetime and embodied-carbon amortization\n\
         {:<16} {:>9} {:>10} {:>15}",
        "policy", "mean PEC", "life (yr)", "kgCO2e/GB-year"
    );
    let mut lifetimes: Vec<f64> = Vec::new();
    for outcome in &outcomes {
        let pec_per_year = (outcome.mean_pec / days.max(1) as f64) * 365.25;
        let life_years = if pec_per_year > 0.0 {
            endurance / pec_per_year
        } else {
            f64::INFINITY
        };
        lifetimes.push(life_years);
        let _ = writeln!(
            output.report,
            "{:<16} {:>9.1} {:>10.2} {:>15.4}",
            outcome.policy.label(),
            outcome.mean_pec,
            life_years,
            kg_per_gb / life_years
        );
    }
    if let (Some(baseline), Some(fdp)) = (outcomes.first(), outcomes.last()) {
        let wa_base = baseline.stats.write_amplification();
        let wa_fdp = fdp.stats.write_amplification();
        let life_gain = match (lifetimes.first(), lifetimes.last()) {
            (Some(&base), Some(&with_fdp)) if base > 0.0 => with_fdp / base,
            _ => 1.0,
        };
        let _ = writeln!(
            output.report,
            "\nFDP vs no hints: write-amp {:+.1}%, lifetime x{:.2}, embodied carbon/GB-year {:+.1}%",
            (wa_fdp / wa_base - 1.0) * 100.0,
            life_gain,
            (1.0 / life_gain - 1.0) * 100.0
        );
        if wa_fdp >= wa_base {
            output
                .report
                .push_str("VIOLATION: FDP placement did not reduce write amplification.\n");
            output.failed = true;
        } else {
            output.report.push_str(
                "placement pays: hot and cold objects (tagged by Zipf rank) and the metadata\n\
                 journal each fill their own reclaim units, so GC reclaims whole units instead\n\
                 of relocating live pages, and the avoided wear defers device replacement —\n\
                 embodied carbon amortizes over more GB-years (§5).\n",
            );
        }
    }
    let mut flash = DeviceStats::default();
    let mut placement = PlacementStats::default();
    for outcome in &outcomes {
        flash.absorb(&outcome.flash);
        placement.absorb(&outcome.placement);
    }
    let _ = writeln!(output.report, "{}", perf_line(&flash, &placement, None));
    output.diagnostics = runner_diagnostics("E17", &runner, Some(&flash));
    output
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_tiny_run_is_thread_invariant() {
        let options = EndToEndOptions {
            days: 4,
            heavy: false,
            replicas: 2,
            base_seed: 77,
            workload_bytes: 8 << 20,
        };
        let serial = end_to_end_report(&options, 1);
        let parallel = end_to_end_report(&options, 4);
        assert_eq!(serial.report, parallel.report);
        assert!(serial.report.contains("Replica variance"));
        assert!(serial.report.contains("rber-cache"));
        assert!(!serial.failed);
    }

    #[test]
    fn flash_cache_tiny_run_is_thread_invariant_and_fdp_wins() {
        let options = FlashCacheOptions {
            days: 4,
            base_seed: 5,
            gets_per_day: 1200,
        };
        let serial = flash_cache_report(&options, 1);
        let parallel = flash_cache_report(&options, 4);
        assert_eq!(serial.report, parallel.report);
        assert!(
            !serial.failed,
            "FDP must beat the no-hint baseline:\n{}",
            serial.report
        );
        assert!(serial.report.contains("reclaim units"));
        assert!(serial.report.contains("FDP vs no hints"));
    }

    #[test]
    fn crash_sweep_tiny_run_is_thread_invariant() {
        let options = CrashSweepOptions {
            days: 6,
            checkpoint_interval: 2,
            shards: 3,
            base_seed: 11,
        };
        let serial = crash_sweep_report(&options, 1);
        let parallel = crash_sweep_report(&options, 4);
        assert_eq!(serial.report, parallel.report);
        assert!(!serial.failed, "violations:\n{}", serial.report);
    }

    #[test]
    fn perf_line_formats_rates() {
        let flash = DeviceStats {
            reads: 200,
            programs: 50,
            rber_cache_hits: 30,
            rber_cache_misses: 10,
            ..DeviceStats::default()
        };
        let placement = PlacementStats {
            units_opened: 5,
            units_filled: 4,
            units_erased: 4,
            host_pages: 48,
            reloc_pages: 12,
        };
        assert_eq!(
            perf_line(&flash, &placement, None),
            "perf: rber-cache 30 hits / 10 misses (75.0% hit), 200 pages read, 50 programmed; \
             reclaim units 5 opened / 4 filled / 4 erased (15.0 pages/erase, 80.0% host-placed)"
        );
        assert_eq!(
            perf_line(&flash, &placement, Some(12)),
            "perf: rber-cache 30 hits / 10 misses (75.0% hit), 200 pages read, 50 programmed \
             (12 parity); reclaim units 5 opened / 4 filled / 4 erased (15.0 pages/erase, \
             80.0% host-placed)"
        );
    }

    #[test]
    fn perf_line_zero_guards() {
        // No reads: 0% hit. No erases: the raw append total per erase.
        let unerased = PlacementStats {
            units_opened: 1,
            host_pages: 7,
            reloc_pages: 2,
            ..PlacementStats::default()
        };
        assert_eq!(
            perf_line(&DeviceStats::default(), &unerased, None),
            "perf: rber-cache 0 hits / 0 misses (0.0% hit), 0 pages read, 0 programmed; \
             reclaim units 1 opened / 0 filled / 0 erased (9.0 pages/erase, 77.8% host-placed)"
        );
        // Nothing appended: 100% host-placed.
        assert_eq!(
            perf_line(&DeviceStats::default(), &PlacementStats::default(), None),
            "perf: rber-cache 0 hits / 0 misses (0.0% hit), 0 pages read, 0 programmed; \
             reclaim units 0 opened / 0 filled / 0 erased (0.0 pages/erase, 100.0% host-placed)"
        );
    }
}
