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

use sos_analyze::{analyze, Finding, JsonReport, Rule, Workspace};
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

/// The report `sos-lint` gates on, for the tree itself.
fn tree_report() -> JsonReport {
    analyze(&Workspace::load(&workspace_root()))
}

fn listing<'a>(findings: impl Iterator<Item = &'a Finding>) -> String {
    findings
        .map(|f| f.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn workspace_is_the_zero_finding_baseline() {
    let report = tree_report();
    assert!(
        report.summary.missing_entry_points.is_empty(),
        "entry points no longer resolve (renamed?): {:?}",
        report.summary.missing_entry_points
    );
    assert!(
        report.findings.is_empty(),
        "findings in the tree:\n{}",
        listing(report.findings.iter())
    );
    assert!(
        report.summary.reachable_fns >= 100,
        "suspiciously small recovery surface: {} fns",
        report.summary.reachable_fns
    );
}

#[test]
fn workspace_has_zero_nondeterminism_findings() {
    let report = tree_report();
    let mut nondeterministic = report
        .findings
        .iter()
        .filter(|f| matches!(f.rule, Rule::Nondeterminism(_)))
        .peekable();
    assert!(
        nondeterministic.peek().is_none(),
        "nondeterminism findings in the tree:\n{}",
        listing(nondeterministic)
    );
    assert!(
        report.summary.determinism_reachable_fns >= 100,
        "suspiciously small deterministic-output surface: {} fns",
        report.summary.determinism_reachable_fns
    );
    // The runner times itself on purpose: two `Instant::now` reads and
    // one `Mutex<f64>` busy-time lock in `run_tasks`. An exact pin
    // fails both on a stray new clock read in the runner and on a
    // broken allowlist match.
    assert_eq!(
        report.summary.allowlisted, 3,
        "stderr-timing allowlist hits changed: {} hit(s)",
        report.summary.allowlisted
    );
}
