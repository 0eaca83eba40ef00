//! `perfbench --workload <name|all> --seed <u64> --seconds <n> --trace <0|1> [--toy]`
//!
//! Prints a provenance record line, then as its last line one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`. A traced run writes its spans to
//! `perfbench/out/spans-<workload>.bin`. Exits 1 when a correctness
//! gate fails, 2 on a usage error.

use sos_perfbench::report::{result_line, Metric};
use sos_perfbench::{record, run, Options, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_args() -> Result<(Vec<Workload>, Options), String> {
    let mut workloads = None;
    let mut options = Options {
        seed: 1,
        seconds: 10,
        trace: false,
        toy: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} expects a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workloads = Some(if name == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?]
                });
            }
            "--seed" => {
                let text = value()?;
                options.seed = text
                    .parse()
                    .map_err(|_| format!("--seed expects a u64, got `{text}`"))?;
            }
            "--seconds" => {
                let text = value()?;
                options.seconds = match text.parse() {
                    Ok(seconds) if (1..=3600).contains(&seconds) => seconds,
                    _ => return Err(format!("--seconds expects 1..=3600, got `{text}`")),
                };
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
                };
            }
            "--toy" => options.toy = true,
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let workloads = workloads.ok_or("--workload is required")?;
    Ok((workloads, options))
}

fn main() -> ExitCode {
    let (workloads, options) = match parse_args() {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <u64> --seconds <n> --trace <0|1> [--toy]",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let single = workloads.len() == 1;
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut combined: Vec<Metric> = Vec::new();
    for workload in workloads {
        let spans = PathBuf::from(format!("perfbench/out/spans-{}.bin", workload.name()));
        let result = run(workload, &options, Some(&spans));
        for failure in &result.failures {
            eprintln!("perfbench: {}: FAILED {failure}", result.workload);
        }
        let metrics = if options.trace {
            &result.per_layer
        } else {
            &result.end_to_end
        };
        for metric in metrics {
            eprintln!(
                "perfbench: {:<22} {:<40} {:>16.6} {}",
                result.workload, metric.name, metric.value, metric.unit
            );
        }
        println!(
            "{}",
            record(result.workload, &options, result.digest).to_json()
        );
        correct &= result.correct();
        attempted += result.attempted;
        failed += result.failed;
        if single {
            combined = metrics.clone();
        } else {
            combined.extend(
                metrics.iter().map(|m| {
                    Metric::new(format!("{}.{}", result.workload, m.name), m.value, m.unit)
                }),
            );
        }
    }
    println!("{}", result_line(correct, attempted, failed, &combined));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
