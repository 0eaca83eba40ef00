//! Metric assembly and the result lines a run prints.

use crate::stats::{ratio, Counts};
use crate::trace::{supported_tail, SpanStats};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Everything one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate and coverage failures, one line each.
    pub failures: Vec<String>,
    /// Host-time and simulated outcomes a user of the simulator sees.
    pub end_to_end: Vec<Metric>,
    /// Layer attribution; filled by a traced run only.
    pub per_layer: Vec<Metric>,
    /// What the timed windows did, for the per-layer metrics.
    pub facts: WindowFacts,
    /// Hash of every deterministic counter the run produced.
    pub digest: u64,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Records a gate failure as a failed operation.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        self.failures.push(message);
    }
}

/// What a workload's timed windows did, beyond the spans themselves.
#[derive(Debug, Clone, Default)]
pub struct WindowFacts {
    /// Timed wall time summed over replicas, ns.
    pub wall_ns: u64,
    /// Counter deltas over the timed windows, summed over replicas.
    pub counts: Counts,
    /// SYS write-amp over the first and second half of the window.
    pub sys_write_amp_halves: (f64, f64),
    pub cache_hit_ratio: f64,
    pub parity_refreshed: u64,
    pub photos_decoded: u64,
    pub median_psnr_db: f64,
}

const DEVICE_OPS: [&str; 6] = ["put", "update", "migrate", "delete", "maintain", "get"];
const CACHE_OPS: [&str; 3] = ["cache_put", "cache_get", "cache_evict"];

/// Calls, p50, tail percentile and share of one span name. The tail is
/// p99 from 1,000 samples up; below that `tail_pct` names the highest
/// percentile that still has ten samples beyond it. With ten samples or
/// fewer no tail is supported and both read 0.
fn op_metrics(out: &mut Vec<Metric>, prefix: &str, stats: Option<&SpanStats>, wall_ns: u64) {
    let empty = SpanStats::default();
    let stats = stats.unwrap_or(&empty);
    let tail = supported_tail(stats.calls());
    out.push(Metric::new(
        format!("{prefix}.calls"),
        stats.calls() as f64,
        "count",
    ));
    out.push(Metric::new(
        format!("{prefix}.p50_us"),
        stats.quantile_ns(0.5) as f64 / 1e3,
        "us",
    ));
    let tail_ns = if tail > 0.0 {
        stats.quantile_ns(tail)
    } else {
        0
    };
    out.push(Metric::new(
        format!("{prefix}.p99_us"),
        tail_ns as f64 / 1e3,
        "us",
    ));
    out.push(Metric::new(format!("{prefix}.tail_pct"), tail * 100.0, "%"));
    out.push(Metric::new(
        format!("{prefix}.share"),
        ratio(stats.total_ns, wall_ns, 0.0),
        "share",
    ));
}

/// Every per-layer metric, in a fixed order. Layers a workload bypasses
/// read zero.
pub fn per_layer_metrics(
    spans: &BTreeMap<&'static str, SpanStats>,
    span_count: u64,
    span_cost_ns: f64,
    facts: &WindowFacts,
) -> Vec<Metric> {
    let wall = facts.wall_ns;
    let share = |ns: u64| ratio(ns, wall, 0.0);
    let empty = SpanStats::default();
    let get = |name: &str| spans.get(name).unwrap_or(&empty);
    let mut out = Vec::new();

    let day = get("controller.run_day");
    out.push(Metric::new("controller.days", day.calls() as f64, "count"));
    out.push(Metric::new(
        "controller.day_ms_p50",
        day.quantile_ns(0.5) as f64 / 1e6,
        "ms",
    ));
    out.push(Metric::new(
        "controller.day_ms_p90",
        day.quantile_ns(0.9) as f64 / 1e6,
        "ms",
    ));
    out.push(Metric::new(
        "controller.self_share",
        share(day.self_ns),
        "share",
    ));
    let predict = get("classify.predict");
    out.push(Metric::new(
        "classify.predict_calls",
        predict.calls() as f64,
        "count",
    ));
    out.push(Metric::new(
        "classify.share",
        share(predict.total_ns),
        "share",
    ));
    for op in DEVICE_OPS {
        op_metrics(
            &mut out,
            &format!("device.{op}"),
            spans.get(format!("device.{op}").as_str()),
            wall,
        );
    }
    for op in CACHE_OPS {
        op_metrics(
            &mut out,
            &format!("ftl.{op}"),
            spans.get(format!("ftl.{op}").as_str()),
            wall,
        );
    }
    out.push(Metric::new(
        "workload.cache_self_share",
        share(get("cache.run_day").self_ns),
        "share",
    ));
    out.push(Metric::new(
        "recovery.remount_ms",
        get("recovery.remount").quantile_ns(0.5) as f64 / 1e6,
        "ms",
    ));
    out.push(Metric::new(
        "recovery.parity_refreshed",
        facts.parity_refreshed as f64,
        "count",
    ));
    out.push(Metric::new(
        "media.quality_pass_ms",
        get("media.quality_pass").quantile_ns(0.5) as f64 / 1e6,
        "ms",
    ));
    out.push(Metric::new(
        "media.photos_decoded",
        facts.photos_decoded as f64,
        "count",
    ));
    out.push(Metric::new(
        "media.median_psnr_db",
        facts.median_psnr_db,
        "dB",
    ));

    let c = &facts.counts;
    let counts: [(&str, u64); 12] = [
        ("ftl.host_writes", c.host_writes),
        ("ftl.flash_writes", c.flash_writes),
        ("ftl.gc_page_moves", c.gc_page_moves),
        ("ftl.refresh_page_moves", c.refresh_page_moves),
        ("ftl.units_erased", c.units_erased),
        ("ftl.corrected_bits", c.corrected_bits),
        ("ftl.degraded_reads", c.degraded_reads),
        ("ftl.uncorrectable_reads", c.uncorrectable_reads),
        ("flash.pages_programmed", c.pages_programmed),
        ("flash.pages_read", c.pages_read),
        ("flash.erases", c.erases),
        ("flash.bit_errors_injected", c.bit_errors_injected),
    ];
    for (name, value) in counts {
        out.push(Metric::new(name, value as f64, "count"));
    }
    out.push(Metric::new("ftl.write_amp", c.write_amp(), "ratio"));
    out.push(Metric::new("ftl.sys.write_amp", c.sys_write_amp(), "ratio"));
    out.push(Metric::new(
        "ftl.spare.write_amp",
        c.spare_write_amp(),
        "ratio",
    ));
    out.push(Metric::new(
        "ftl.sys.write_amp_first_half",
        facts.sys_write_amp_halves.0,
        "ratio",
    ));
    out.push(Metric::new(
        "ftl.sys.write_amp_second_half",
        facts.sys_write_amp_halves.1,
        "ratio",
    ));
    out.push(Metric::new(
        "ftl.host_placed_share",
        ratio(c.host_pages, c.host_pages + c.reloc_pages, 0.0),
        "share",
    ));
    out.push(Metric::new(
        "flash.rber_cache_hit_ratio",
        ratio(
            c.rber_cache_hits,
            c.rber_cache_hits + c.rber_cache_misses,
            0.0,
        ),
        "share",
    ));
    out.push(Metric::new(
        "ecc.corrected_bits_per_page_read",
        ratio(c.corrected_bits, c.pages_read, 0.0),
        "bits/page",
    ));
    out.push(Metric::new(
        "workload.cache_hit_ratio",
        facts.cache_hit_ratio,
        "share",
    ));
    let top_level: u64 = spans.values().map(|s| s.top_level_ns).sum();
    out.push(Metric::new("trace_coverage", share(top_level), "share"));
    out.push(Metric::new(
        "trace_overhead_share",
        span_count as f64 * span_cost_ns / wall.max(1) as f64,
        "share",
    ));
    out
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".into()
    }
}

fn quote(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                number(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Host fingerprint and provenance printed with every result. The seed
/// is written as the exact decimal `u64`, never through `f64`.
#[derive(Debug, Clone)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub sim_digest: u64,
    pub nproc: usize,
    pub rustc: String,
    pub profile: String,
}

impl Record {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"record\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"sim_digest\": \"{:016x}\", \"nproc\": {}, \"rustc\": {}, \"profile\": {}}}}}",
            quote(&self.workload),
            self.seed,
            self.seconds,
            u8::from(self.trace),
            self.sim_digest,
            self.nproc,
            quote(&self.rustc),
            quote(&self.profile)
        )
    }
}
