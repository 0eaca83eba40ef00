//! Repo-specific lint runner: `cargo run -p sos-analyze --bin sos-lint`.
//!
//! Runs [`sos_analyze::analyze`] — the token-stream lint rules, the
//! panic-freedom pass and the determinism pass — over the workspace
//! sources, prints the report, and exits non-zero when any finding
//! survives or a configured entry point no longer resolves (a rename
//! hazard), so CI and `scripts/check.sh` can gate on it.
//!
//! Usage:
//!
//! ```text
//! sos-lint [ROOT] [--format text|json]
//! ```
//!
//! `--format json` prints the machine-readable report
//! ([`sos_analyze::report::JsonReport`]) on stdout; the exit code
//! still reflects the gate.

use sos_analyze::{analyze, Workspace};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: sos-lint [ROOT] [--format text|json]";

/// Parses `[ROOT] [--format text|json]` into the root and whether to
/// print JSON.
fn parse_args() -> Result<(PathBuf, bool), String> {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => match args.next().as_deref() {
                Some("json") => json = true,
                Some("text") => json = false,
                other => return Err(format!("--format expects text|json, got {other:?}")),
            },
            "--help" | "-h" => return Err(USAGE.into()),
            _ if root.is_none() && !arg.starts_with('-') => root = Some(PathBuf::from(arg)),
            other => return Err(format!("unexpected argument `{other}`\n{USAGE}")),
        }
    }
    Ok((root.unwrap_or_else(default_root), json))
}

fn default_root() -> PathBuf {
    // The binary lives in crates/analyze; the workspace root is two up.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn main() -> ExitCode {
    let (root, json) = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let report = analyze(&Workspace::load(&root));
    let summary = &report.summary;
    let clean = report.findings.is_empty() && summary.missing_entry_points.is_empty();
    if json {
        print!("{}", report.to_json());
    } else {
        for finding in &report.findings {
            println!("{finding}");
        }
        for entry in &summary.missing_entry_points {
            println!("sos-lint: entry point `{entry}` matches no function (renamed?)");
        }
        if clean {
            println!(
                "sos-lint: clean ({}) — {} panic-path fns / {} determinism fns reachable from {} entry points, {} suppression(s), {} allowlisted, {} unresolved call(s)",
                root.display(),
                summary.reachable_fns,
                summary.determinism_reachable_fns,
                summary.entry_points.len(),
                summary.suppressed,
                summary.allowlisted,
                summary.unresolved_calls,
            );
        } else {
            println!(
                "sos-lint: {} finding(s), {} missing entry point(s)",
                report.findings.len(),
                summary.missing_entry_points.len()
            );
        }
    }
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
