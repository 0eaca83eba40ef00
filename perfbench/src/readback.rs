//! `aged_readback`: an SOS device filled untimed with encoded photos on
//! SPARE and files on SYS, then left a year without maintenance. Timed:
//! a remount, daily read rounds over every object, and one PSNR pass.
//! Read-only, so error injection and ECC decode dominate; there is no
//! encode, no GC and no classifier in the window.

use crate::report::{Metric, RunResult, WindowFacts};
use crate::stats::{median, Counts, Digest};
use crate::trace::{timed, TraceHandle};
use crate::wrap::{HasDevice, TracedStore};
use crate::{audit_device, set_recording};
use sos_bench::task_seed;
use sos_core::{ObjectId, ObjectStatus, Partition, SosConfig, SosDevice};
use sos_media::{decode, psnr, synthetic_photo, Image, ImageCodec};
use std::time::Instant;

/// Retention age of the filled device when the clock starts, days.
const AGE_DAYS: f64 = 365.0;

/// Share of each partition's capacity the fill targets.
const FILL: f64 = 0.5;

/// Sizing of one run.
#[derive(Debug, Clone, Copy)]
pub struct ReadbackParams {
    /// Independent devices, each filled, aged and timed once.
    pub replicas: usize,
    /// Read rounds over every object, one simulated day apart.
    pub rounds: u32,
    /// Unit-test device instead of the paper's small one.
    pub tiny: bool,
}

/// What the fill wrote, kept to check the read-back against.
struct Written {
    /// Every object in id order, with the exact bytes of SYS files.
    objects: Vec<(ObjectId, Option<Vec<u8>>)>,
    /// SPARE photos, with the image each encodes.
    photos: Vec<(ObjectId, Image)>,
}

/// Deterministic SYS file contents: 1–4 pages of xorshift bytes.
fn file_bytes(seed: u64, id: ObjectId) -> Vec<u8> {
    let mut state = (seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
    let len = 4096 * (1 + (state % 4) as usize) - (id % 97) as usize;
    let mut bytes = Vec::with_capacity(len + 8);
    while bytes.len() < len {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        bytes.extend_from_slice(&state.to_le_bytes());
    }
    bytes.truncate(len);
    bytes
}

/// Fills both partitions to [`FILL`] of their capacity, alternating one
/// photo on SPARE with one file on SYS until each is full enough.
fn fill_device(device: &mut impl HasDevice, seed: u64) -> Written {
    let codec = ImageCodec::default_photo();
    let target =
        |partition| (device.sos().partition(partition).capacity_bytes() as f64 * FILL) as u64;
    let (sys_target, spare_target) = (target(Partition::Sys), target(Partition::Spare));
    let mut written = Written {
        objects: Vec::new(),
        photos: Vec::new(),
    };
    let (mut sys_bytes, mut spare_bytes) = (0u64, 0u64);
    let mut next_id: ObjectId = 1;
    while sys_bytes < sys_target || spare_bytes < spare_target {
        if spare_bytes < spare_target {
            let id = next_id;
            next_id += 1;
            let image = synthetic_photo(96, 96, seed ^ id);
            let encoded = codec.encode(&image).expect("a 96x96 photo encodes");
            device
                .put(id, &encoded.bytes, Partition::Spare)
                .expect("SPARE has room below the fill target");
            spare_bytes += encoded.bytes.len() as u64;
            written.photos.push((id, image));
            written.objects.push((id, None));
        }
        if sys_bytes < sys_target {
            let id = next_id;
            next_id += 1;
            let bytes = file_bytes(seed, id);
            device
                .put(id, &bytes, Partition::Sys)
                .expect("SYS has room below the fill target");
            sys_bytes += bytes.len() as u64;
            written.objects.push((id, Some(bytes)));
        }
    }
    // Rewrite every SYS file once, as app data is, so the device has
    // garbage-collected before it ages.
    for (id, bytes) in &written.objects {
        if let Some(bytes) = bytes {
            device
                .update(*id, bytes)
                .expect("an update in place fits below the fill target");
        }
    }
    written
}

pub fn run(seed: u64, params: &ReadbackParams, tracer: Option<TraceHandle>) -> RunResult {
    match tracer {
        None => run_with(seed, params, None, |d| d),
        Some(t) => run_with(seed, params, Some(&t), |d| TracedStore::new(d, t.clone())),
    }
}

fn run_with<D: HasDevice>(
    seed: u64,
    params: &ReadbackParams,
    tracer: Option<&TraceHandle>,
    wrap: impl Fn(SosDevice) -> D,
) -> RunResult {
    let mut result = RunResult {
        workload: "aged_readback",
        ..RunResult::default()
    };
    let mut digest = Digest::default();
    let mut facts = WindowFacts::default();
    let mut setup_s = Vec::new();
    let mut days_per_s = Vec::new();
    let mut gets_per_s = Vec::new();
    let mut lifetime = Counts::default();
    let mut psnrs = Vec::new();

    for replica in 0..params.replicas {
        let replica_seed = task_seed(seed, replica);
        let started = Instant::now();
        let config = if params.tiny {
            SosConfig::tiny(replica_seed)
        } else {
            SosConfig::small(replica_seed)
        };
        let mut device = wrap(SosDevice::new(&config));
        let written = fill_device(&mut device, replica_seed);
        device.advance_days(AGE_DAYS);
        setup_s.push(started.elapsed().as_secs_f64());

        let before = Counts::of_device(device.sos());
        let mut reads = 0u64;
        let mut mismatches = 0u64;
        let mut read_errors = 0u64;
        let mut decoded = 0u64;
        let mut replica_psnrs = Vec::with_capacity(written.photos.len());
        set_recording(tracer, true);
        let started = Instant::now();
        let remount = timed(tracer, "recovery.remount", || {
            device.sos_mut().recover_in_place()
        });
        for _ in 0..params.rounds {
            let round_started = Instant::now();
            timed(tracer, "readback.round", || {
                for (id, original) in &written.objects {
                    reads += 1;
                    match device.get(*id) {
                        Ok(data) => {
                            if let Some(original) = original {
                                if data.status != ObjectStatus::Intact || data.bytes != *original {
                                    mismatches += 1;
                                }
                            }
                        }
                        Err(_) => read_errors += 1,
                    }
                }
                device.advance_days(1.0);
            });
            let seconds = round_started.elapsed().as_secs_f64();
            days_per_s.push(1.0 / seconds);
            gets_per_s.push(written.objects.len() as f64 / seconds);
        }
        timed(tracer, "media.quality_pass", || {
            for (id, original) in &written.photos {
                reads += 1;
                let quality = match device.get(*id) {
                    Ok(data) => match timed(tracer, "media.decode", || decode(&data.bytes)) {
                        Ok(image) => {
                            decoded += 1;
                            timed(tracer, "media.psnr", || psnr(original, &image))
                        }
                        // Header destroyed: the photo is unviewable.
                        Err(_) => 0.0,
                    },
                    Err(_) => {
                        read_errors += 1;
                        0.0
                    }
                };
                replica_psnrs.push(quality.min(99.0));
            }
        });
        let wall = started.elapsed();
        set_recording(tracer, false);
        let after = Counts::of_device(device.sos());
        facts.wall_ns += wall.as_nanos() as u64;
        eprintln!(
            "perfbench: replica {replica} (seed {replica_seed}): set-up {:.3} s, window {:.3} s",
            setup_s[replica],
            wall.as_secs_f64()
        );
        facts.counts = facts.counts.plus(&after.minus(&before));
        facts.photos_decoded += decoded;
        lifetime = lifetime.plus(&after);
        result.attempted += reads + 1;

        // Correctness gate: a clean remount, every SYS object intact and
        // byte-identical on every round, no read errors, clean audit.
        match &remount {
            Ok(report) => {
                facts.parity_refreshed += report.parity_refreshed;
                if !report.sys_lost.is_empty() {
                    result.fail(format!(
                        "replica {replica}: remount lost {} SYS pages",
                        report.sys_lost.len()
                    ));
                }
                digest.feed(&(report.parity_refreshed, report.sys_repaired));
                digest.feed(&(report.spare_lost.len(), report.resurrected_trimmed));
            }
            Err(error) => result.fail(format!("replica {replica}: remount failed: {error}")),
        }
        if mismatches > 0 {
            result.failed += mismatches;
            result.failures.push(format!(
                "replica {replica}: {mismatches} SYS reads not intact or not byte-identical"
            ));
        }
        if read_errors > 0 {
            result.failed += read_errors;
            result
                .failures
                .push(format!("replica {replica}: {read_errors} read errors"));
        }
        for finding in audit_device(device.sos()) {
            result.fail(format!("replica {replica}: audit {finding}"));
        }
        psnrs.push(median(&replica_psnrs));
        digest.feed(&replica_psnrs);
        digest.feed(&(written.objects.len(), written.photos.len(), reads));
        digest.feed(&after);
        digest.feed(&before);
        digest.feed(&device.counters());
    }

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
