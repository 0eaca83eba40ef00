//! The benchmark's own contract: the run digest pins the simulated
//! statistics, every metric `BENCHMARK.json` names is printed with its
//! unit, and seeds round-trip exactly.

use sos_perfbench::{record, run, Options, Workload};
use std::path::Path;
use std::process::Command;

fn toy(seed: u64, trace: bool) -> Options {
    Options {
        seed,
        seconds: 1,
        trace,
        toy: true,
    }
}

/// Reads an unsigned integer field of a JSON line digit by digit, so
/// values above 2^53 come back exact.
fn record_u64(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\": ");
    let start = line.find(&needle)? + needle.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Reads the first string field `key` of a JSON line.
fn record_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\": \"");
    let start = line.find(&needle)? + needle.len();
    let end = line[start..].find('"')?;
    Some(&line[start..start + end])
}

fn digest(workload: Workload, options: &Options) -> u64 {
    let result = run(workload, options, None);
    assert!(
        result.correct(),
        "{} failed its gates: {:?}",
        workload.name(),
        result.failures
    );
    result.digest
}

#[test]
fn wrappers_repeats_and_seeds_pin_the_digest() {
    for workload in Workload::ALL {
        let bare = digest(workload, &toy(7, false));
        assert_eq!(
            bare,
            digest(workload, &toy(7, true)),
            "{}: the timing wrappers changed a simulated statistic",
            workload.name()
        );
        assert_eq!(
            bare,
            digest(workload, &toy(7, false)),
            "{}: a repeat run of one seed diverged",
            workload.name()
        );
        assert_ne!(
            bare,
            digest(workload, &toy(8, false)),
            "{}: another seed simulated the same thing",
            workload.name()
        );
    }
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`,
/// which keeps one metric object per line.
fn contract_metrics(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{list}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{list}` list"));
    let end = start + text[start..].find(']').expect("the list is closed");
    text[start..end]
        .lines()
        .filter_map(|line| {
            let name = record_str(line, "name")?;
            let unit = record_str(line, "unit")?;
            Some((name.to_string(), unit.to_string()))
        })
        .collect()
}

fn run_binary(args: &[&str]) -> (bool, Vec<String>) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join(".."))
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    (
        out.status.success(),
        stdout.lines().map(str::to_string).collect(),
    )
}

#[test]
fn every_named_metric_is_printed_with_its_unit() {
    for (list, trace) in [("end_to_end", "0"), ("per_layer", "1")] {
        let expected = contract_metrics(list);
        assert!(!expected.is_empty(), "`{list}` names no metric");
        for workload in Workload::ALL {
            let (ok, lines) = run_binary(&[
                "--workload",
                workload.name(),
                "--seed",
                "3",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--toy",
            ]);
            assert!(ok, "{} --trace {trace} exited non-zero", workload.name());
            let last = lines.last().expect("a result line");
            assert!(last.starts_with("{\"correct\": true, "), "{last}");
            for (name, unit) in &expected {
                let entry = format!("\"{name}\": {{\"value\": ");
                let at = last
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{}: `{name}` missing", workload.name()));
                assert_eq!(
                    record_str(&last[at..], "unit"),
                    Some(unit.as_str()),
                    "{}: `{name}` has the wrong unit",
                    workload.name()
                );
            }
            let printed = last.matches("\"unit\": ").count();
            assert_eq!(
                printed,
                expected.len(),
                "{}: extra metrics",
                workload.name()
            );
        }
    }
}

#[test]
fn seeds_above_2_pow_53_round_trip_exactly() {
    let seed = (1u64 << 53) + 1;
    assert_ne!(seed as f64 as u64, seed, "the seed must not survive f64");
    let line = record("flash_cache_fdp", &toy(seed, false), 0).to_json();
    assert_eq!(record_u64(&line, "seed"), Some(seed));

    let seed = u64::MAX - 58;
    let (ok, lines) = run_binary(&[
        "--workload",
        "flash_cache_fdp",
        "--seed",
        &seed.to_string(),
        "--seconds",
        "1",
        "--trace",
        "0",
        "--toy",
    ]);
    assert!(ok);
    let record_line = &lines[lines.len() - 2];
    assert_eq!(record_u64(record_line, "seed"), Some(seed), "{record_line}");
    assert_eq!(record_u64(record_line, "nproc").map(|n| n > 0), Some(true));
    assert!(record_str(record_line, "rustc").is_some_and(|v| v.starts_with("rustc ")));
    assert!(record_str(record_line, "profile").is_some());
}
