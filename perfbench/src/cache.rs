//! `flash_cache_fdp`: E17's FDP arm at 88% utilisation. The cache is
//! warmed until evictions run, then days of Zipf GETs are timed. It
//! bypasses the controller, the classifier, the SOS device and media.

use crate::report::{Metric, RunResult, WindowFacts};
use crate::stats::{median, ratio, Counts, Digest, Role};
use crate::trace::{timed, TraceHandle};
use crate::wrap::{HasFtl, TracedCache};
use crate::{audit_ftl, set_recording};
use sos_bench::experiments::{CachePlacement, FtlCacheBackend};
use sos_bench::task_seed;
use sos_flash::{CellDensity, DeviceConfig, ProgramMode};
use sos_ftl::{Ftl, FtlConfig};
use sos_workload::{CacheDayReport, FlashCache, FlashCacheConfig};
use std::time::Instant;

/// Share of the FTL's logical space the cache occupies (E17's default).
const UTILIZATION: f64 = 0.88;

/// Warm-up days allowed before a cache that never evicts fails.
const MAX_WARM_DAYS: u32 = 30;

/// Sizing of one run.
#[derive(Debug, Clone, Copy)]
pub struct CacheParams {
    /// Independent caches, each warmed and timed once.
    pub replicas: usize,
    /// Timed days per replica.
    pub window_days: u32,
    /// GETs per day; 0 keeps the cache-server rate.
    pub gets_per_day: u64,
}

pub fn run(seed: u64, params: &CacheParams, tracer: Option<TraceHandle>) -> RunResult {
    match tracer {
        None => run_with(seed, params, None, |b| b),
        Some(t) => run_with(seed, params, Some(&t), |b| TracedCache::new(b, t.clone())),
    }
}

fn run_with<B: HasFtl>(
    seed: u64,
    params: &CacheParams,
    tracer: Option<&TraceHandle>,
    wrap: impl Fn(FtlCacheBackend) -> B,
) -> RunResult {
    let mut result = RunResult {
        workload: "flash_cache_fdp",
        ..RunResult::default()
    };
    let mut digest = Digest::default();
    let mut facts = WindowFacts::default();
    let mut setup_s = Vec::new();
    let mut days_per_s = Vec::new();
    let mut gets_per_s = Vec::new();
    let mut lifetime = Counts::default();
    let mut traffic = CacheDayReport::default();

    for replica in 0..params.replicas {
        let replica_seed = task_seed(seed, replica);
        let started = Instant::now();
        let mode = ProgramMode::native(CellDensity::Tlc);
        let ftl = Ftl::new(
            &DeviceConfig::tiny(CellDensity::Tlc).with_seed(replica_seed),
            FtlConfig::conventional(mode),
        );
        let template = FlashCacheConfig::server(1, replica_seed);
        let usable = (ftl.logical_pages() as f64 * UTILIZATION) as u64;
        let slots = (usable / template.object_pages).saturating_sub(1).max(4);
        let mut config = FlashCacheConfig::server(slots as usize, replica_seed);
        if params.gets_per_day > 0 {
            config.gets_per_day = params.gets_per_day;
        }
        let slot_pages = config.object_pages;
        let mut cache = FlashCache::new(config);
        let mut backend = wrap(FtlCacheBackend::new(ftl, CachePlacement::Fdp, slot_pages));

        // Warm until evictions run: the clock starts on a full cache.
        let mut evicting = false;
        for _ in 0..MAX_WARM_DAYS {
            match cache.run_day(&mut backend) {
                Ok(report) => evicting = report.evicted > 0,
                Err(error) => result.fail(format!("replica {replica}: warm-up: {error}")),
            }
            backend.backend_mut().end_of_day();
            if evicting {
                break;
            }
        }
        if !evicting {
            result.fail(format!(
                "replica {replica}: no evictions within {MAX_WARM_DAYS} warm-up days"
            ));
        }
        setup_s.push(started.elapsed().as_secs_f64());

        let before = Counts::of_ftl(backend.ftl(), Role::Plain);
        let mut window = CacheDayReport::default();
        set_recording(tracer, true);
        let started = Instant::now();
        for _ in 0..params.window_days {
            let day_started = Instant::now();
            let day = timed(tracer, "cache.run_day", || {
                let day = cache.run_day(&mut backend);
                backend.backend_mut().end_of_day();
                day
            });
            let seconds = day_started.elapsed().as_secs_f64();
            match day {
                Ok(report) => {
                    window.absorb(&report);
                    days_per_s.push(1.0 / seconds);
                    gets_per_s.push(report.gets as f64 / seconds);
                }
                Err(error) => result.fail(format!("replica {replica}: {error}")),
            }
        }
        let wall = started.elapsed();
        set_recording(tracer, false);
        let after = Counts::of_ftl(backend.ftl(), Role::Plain);
        facts.wall_ns += wall.as_nanos() as u64;
        eprintln!(
            "perfbench: replica {replica} (seed {replica_seed}): set-up {:.3} s, window {:.3} s",
            setup_s[replica],
            wall.as_secs_f64()
        );
        facts.counts = facts.counts.plus(&after.minus(&before));
        lifetime = lifetime.plus(&after);
        traffic.absorb(&window);
        result.attempted += window.gets;

        // Correctness gate: the FTL's invariants hold after the window.
        for violation in audit_ftl(backend.ftl()) {
            result.fail(format!("replica {replica}: audit {violation}"));
        }
        digest.feed(&window);
        digest.feed(&after);
        digest.feed(&before);
        digest.feed(&backend.ftl().placement_stats());
    }

    facts.cache_hit_ratio = ratio(traffic.hits, traffic.gets, 0.0);
    result.digest = digest.value();
    result.end_to_end = vec![
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new("sim_days_per_s", median(&days_per_s), "1/s"),
        Metric::new("gets_per_s", median(&gets_per_s), "1/s"),
        Metric::new("write_amp", lifetime.write_amp(), "ratio"),
    ];
    result.facts = facts;
    result
}
