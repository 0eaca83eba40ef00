//! Self-application: the analyzer must handle its own workspace.
//!
//! Two gates ride on this:
//!
//! * the lexer round-trips every `.rs` file in `crates/*/src` — exact
//!   byte spans, whitespace-only gaps, correct line bookkeeping — so
//!   span-based rules can trust token positions anywhere in the tree;
//! * the tree itself is the zero-finding baseline the CI job enforces:
//!   no unsuppressed lint, panic-path, or nondeterminism findings, and
//!   every configured entry point resolves.

use sos_analyze::{
    deterministic_entry_points, device_hot_entry_points, harness_entry_points,
    recovery_entry_points, run_determinism, run_lints_on, run_panic_path, Workspace,
};
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .expect("crates/analyze has a workspace root two levels up")
}

#[test]
fn every_workspace_file_lexes_with_exact_spans() {
    let workspace = Workspace::load(&workspace_root());
    assert!(
        workspace.files.len() >= 50,
        "workspace unexpectedly small ({} files) — wrong root?",
        workspace.files.len()
    );
    for file in &workspace.files {
        let source = &file.source;
        let mut previous_end = 0usize;
        for token in &file.tokens {
            assert!(
                token.start >= previous_end && token.end <= source.len(),
                "{}: token span {}..{} escapes [{previous_end}, {}]",
                file.path.display(),
                token.start,
                token.end,
                source.len()
            );
            let gap = &source[previous_end..token.start];
            assert!(
                gap.chars().all(char::is_whitespace),
                "{}: untokenised non-whitespace before byte {}: {gap:?}",
                file.path.display(),
                token.start
            );
            let expected_line = 1 + source[..token.start].matches('\n').count();
            assert_eq!(
                token.line,
                expected_line,
                "{}: token at byte {} carries line {} but sits on line {expected_line}",
                file.path.display(),
                token.start,
                token.line
            );
            previous_end = token.end;
        }
        let tail = &source[previous_end..];
        assert!(
            tail.chars().all(char::is_whitespace),
            "{}: untokenised trailing bytes: {tail:?}",
            file.path.display()
        );
    }
}

#[test]
fn workspace_is_the_zero_finding_baseline() {
    let workspace = Workspace::load(&workspace_root());
    let lint = run_lints_on(&workspace);
    assert!(
        lint.findings.is_empty(),
        "lint findings in the tree:\n{}",
        lint.findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    let mut entry_points = recovery_entry_points();
    entry_points.extend(harness_entry_points());
    entry_points.extend(device_hot_entry_points());
    let report = run_panic_path(&workspace, &entry_points);
    assert!(
        report.missing_entry_points.is_empty(),
        "entry points no longer resolve (renamed?): {:?}",
        report.missing_entry_points
    );
    assert!(
        report.findings.is_empty(),
        "panic-path findings in the tree:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.reachable_fns >= 100,
        "suspiciously small recovery surface: {} fns",
        report.reachable_fns
    );
}

#[test]
fn workspace_has_zero_nondeterminism_findings() {
    let workspace = Workspace::load(&workspace_root());
    let report = run_determinism(&workspace, &deterministic_entry_points());
    assert!(
        report.missing_entry_points.is_empty(),
        "determinism entry points no longer resolve (renamed?): {:?}",
        report.missing_entry_points
    );
    assert!(
        report.findings.is_empty(),
        "nondeterminism findings in the tree:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.reachable_fns >= 100,
        "suspiciously small deterministic-output surface: {} fns",
        report.reachable_fns
    );
    // The runner times itself on purpose: two `Instant::now` reads and
    // one `Mutex<f64>` busy-time lock in `run_tasks`. An exact pin
    // fails both on a stray new clock read in the runner and on a
    // broken allowlist match.
    assert_eq!(
        report.allowlisted, 3,
        "stderr-timing allowlist hits changed: {} hit(s)",
        report.allowlisted
    );
}
