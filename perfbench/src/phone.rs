//! `phone_typical_steady`: an SOS phone on the Typical profile, aged
//! untimed past its empty phase, then timed over a window that holds
//! weekly maintenance, a 30-day quality pass, daemon demotions and SYS
//! GC. The only workload that runs the controller and the classifier.

use crate::report::{Metric, RunResult, WindowFacts};
use crate::stats::{median, Counts, Digest};
use crate::trace::{timed, TraceHandle};
use crate::wrap::{HasDevice, TracedClassifier, TracedStore};
use crate::{audit_device, set_recording};
use sos_bench::task_seed;
use sos_classify::{multi_user_corpus, Classifier, FeatureExtractor, LogisticRegression};
use sos_core::{CloudConfig, ControllerConfig, Partition, SosConfig, SosController, SosDevice};
use sos_workload::{DeviceLife, UsageProfile, WorkloadConfig};
use std::time::Instant;

/// Throughput is the median over chunks of this many timed days, so a
/// burst of host noise moves one chunk, not the result.
const CHUNK_DAYS: u32 = 10;

/// Sizing of one run.
#[derive(Debug, Clone, Copy)]
pub struct PhoneParams {
    /// Independent devices, each aged and timed once (set-up is
    /// reported as their median).
    pub replicas: usize,
    /// Untimed days before the window.
    pub age_days: u32,
    /// Timed days per replica.
    pub window_days: u32,
    /// Unit-test device instead of the paper's small one.
    pub tiny: bool,
}

pub fn run(seed: u64, params: &PhoneParams, tracer: Option<TraceHandle>) -> RunResult {
    match tracer {
        None => run_with(seed, params, None, |d| d, |m| m),
        Some(t) => run_with(
            seed,
            params,
            Some(&t),
            |d| TracedStore::new(d, t.clone()),
            |m| TracedClassifier::new(m, t.clone()),
        ),
    }
}

fn run_with<D: HasDevice, C: Classifier>(
    seed: u64,
    params: &PhoneParams,
    tracer: Option<&TraceHandle>,
    wrap_device: impl Fn(SosDevice) -> D,
    wrap_model: impl Fn(LogisticRegression) -> C,
) -> RunResult {
    let mut result = RunResult {
        workload: "phone_typical_steady",
        ..RunResult::default()
    };
    let mut digest = Digest::default();
    let mut facts = WindowFacts::default();
    let mut setup_s = Vec::new();
    let mut days_per_s = Vec::new();
    let mut gets_per_s = Vec::new();
    let mut lifetime = Counts::default();
    let mut halves = (Counts::default(), Counts::default());
    let mut psnrs = Vec::new();

    for replica in 0..params.replicas {
        let replica_seed = task_seed(seed, replica);
        let started = Instant::now();
        let config = if params.tiny {
            SosConfig::tiny(replica_seed)
        } else {
            SosConfig::small(replica_seed)
        };
        let device = wrap_device(SosDevice::new(&config));
        let extractor = FeatureExtractor::default();
        let corpus = multi_user_corpus(&extractor, 2, replica_seed);
        let mut model = LogisticRegression::default();
        model.train(&corpus.features, &corpus.labels);
        let capacity = device.capacity_bytes();
        let life = DeviceLife::new(WorkloadConfig::phone(
            capacity,
            UsageProfile::Typical,
            replica_seed,
        ));
        let policy = ControllerConfig::default();
        let mut controller = SosController::new(
            device,
            wrap_model(model),
            extractor,
            life,
            CloudConfig::none(),
            policy,
        );
        controller.run_days(params.age_days);
        setup_s.push(started.elapsed().as_secs_f64());

        let before = Counts::of_device(controller.device.sos());
        let sys_gc_before = sys_gc_moves(controller.device.sos());
        let stats_before = controller.stats.clone();
        let passes_before = controller.quality.points.len();
        let half_day = params.window_days / 2;
        let mut middle = before;
        set_recording(tracer, true);
        let started = Instant::now();
        let (mut chunk_started, mut chunk_reads, mut chunk_day) = (started, stats_before.reads, 0);
        let mut maintain_days = 0u32;
        for day in 1..=params.window_days {
            timed(tracer, "controller.run_day", || controller.run_day());
            // The day the controller just ran is one it maintains on.
            if controller
                .life
                .day()
                .is_multiple_of(policy.maintain_period_days.max(1))
            {
                maintain_days += 1;
            }
            if day == half_day {
                middle = Counts::of_device(controller.device.sos());
            }
            if day % CHUNK_DAYS == 0 || day == params.window_days {
                let seconds = chunk_started.elapsed().as_secs_f64();
                days_per_s.push(f64::from(day - chunk_day) / seconds);
                gets_per_s.push((controller.stats.reads - chunk_reads) as f64 / seconds);
                (chunk_started, chunk_reads, chunk_day) =
                    (Instant::now(), controller.stats.reads, day);
            }
        }
        let wall = started.elapsed();
        set_recording(tracer, false);
        let after = Counts::of_device(controller.device.sos());
        facts.wall_ns += wall.as_nanos() as u64;
        eprintln!(
            "perfbench: replica {replica} (seed {replica_seed}): set-up {:.3} s, window {:.3} s",
            setup_s[replica],
            wall.as_secs_f64()
        );
        facts.counts = facts.counts.plus(&after.minus(&before));
        halves.0 = halves.0.plus(&middle.minus(&before));
        halves.1 = halves.1.plus(&after.minus(&middle));
        lifetime = lifetime.plus(&after);

        let stats = &controller.stats;
        result.attempted += (stats.creates + stats.rejected_creates + stats.updates + stats.reads)
            - (stats_before.creates
                + stats_before.rejected_creates
                + stats_before.updates
                + stats_before.reads)
            + (stats.demotions - stats_before.demotions)
            + (stats.autodeletes - stats_before.autodeletes);

        // Correctness gate: no rejected create, zero lost reads, no
        // crash, clean audit.
        let rejected = stats.rejected_creates - stats_before.rejected_creates;
        if rejected > 0 {
            result.failed += rejected;
            result
                .failures
                .push(format!("replica {replica}: {rejected} creates rejected"));
        }
        if stats.lost_reads > 0 {
            result.fail(format!(
                "replica {replica}: {} lost reads",
                stats.lost_reads
            ));
        }
        if controller.crashed() {
            result.fail(format!("replica {replica}: controller crashed"));
        }
        for finding in audit_device(controller.device.sos()) {
            result.fail(format!("replica {replica}: audit {finding}"));
        }

        // Coverage: the window must be the steady state it claims. A
        // traced run also checks that `maintain` was really called.
        let coverage = [
            (maintain_days > 0, "no maintain call"),
            (
                controller.quality.points.len() > passes_before,
                "no quality pass",
            ),
            (stats.demotions > stats_before.demotions, "no demotion"),
            (
                sys_gc_moves(controller.device.sos()) > sys_gc_before,
                "no SYS GC page moves",
            ),
        ];
        for (held, what) in coverage {
            if !held {
                result.fail(format!("replica {replica}: window has {what}"));
            }
        }

        if let Some(psnr) = controller.quality.final_median() {
            psnrs.push(psnr);
        }
        digest.feed(&controller.stats);
        digest.feed(&controller.quality.points);
        digest.feed(&controller.device.counters());
        digest.feed(&after);
        digest.feed(&middle);
        digest.feed(&before);
    }

    facts.sys_write_amp_halves = (halves.0.sys_write_amp(), halves.1.sys_write_amp());
    facts.median_psnr_db = median(&psnrs);
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

fn sys_gc_moves(device: &SosDevice) -> u64 {
    device.partition(Partition::Sys).ftl.stats().gc_page_moves
}
