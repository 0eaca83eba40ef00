//! Golden test for the determinism pass: a vendored fixture crate
//! (`tests/fixtures/nondet`) seeds one known-bad example per
//! nondeterminism source kind, and this test pins the exact findings —
//! kind, line ownership, and full call chain — plus the suppression
//! accounting. If a detector regresses (a kind stops firing, a chain
//! goes missing, a suppression stops counting) this fails loudly with
//! the diff.

use sos_analyze::{
    run_determinism, CallGraph, EntryPoint, JsonReport, NondetSource, Rule, Workspace,
};
use std::path::PathBuf;

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("nondet")
}

fn run(workspace: &Workspace, entries: &[EntryPoint]) -> JsonReport {
    let mut report = JsonReport::default();
    run_determinism(
        workspace,
        &CallGraph::build(workspace),
        entries,
        &mut report,
    );
    report
}

#[test]
fn fixture_detects_every_seeded_source_kind_with_chains() {
    let workspace = Workspace::load(&fixture_root());
    assert_eq!(
        workspace.files.len(),
        1,
        "fixture layout changed — expected exactly crates/badcrate/src/lib.rs"
    );
    let entries = vec![
        EntryPoint::function("cache_report"),
        EntryPoint::function("diagnostics"),
    ];
    let report = run(&workspace, &entries);

    assert!(
        report.summary.missing_entry_points.is_empty(),
        "fixture entry points no longer resolve: {:?}",
        report.summary.missing_entry_points
    );

    // (kind, containing fn at the end of the chain) for every finding,
    // in the pass's deterministic file/line order.
    let got: Vec<(Rule, Vec<String>)> = report
        .findings
        .iter()
        .map(|f| (f.rule, f.chain.clone()))
        .collect();
    let chain = |tail: &str| -> Vec<String> {
        vec![
            "cache_report".to_string(),
            "summarize".to_string(),
            tail.to_string(),
        ]
    };
    let expected = vec![
        (
            Rule::Nondeterminism(NondetSource::MapIteration),
            chain("Registry::tally"),
        ),
        (
            Rule::Nondeterminism(NondetSource::WallClock),
            chain("stamp"),
        ),
        (
            Rule::Nondeterminism(NondetSource::UnseededRng),
            chain("pick_seed"),
        ),
        (
            Rule::Nondeterminism(NondetSource::EnvRead),
            chain("ambient_noise"),
        ),
        (
            Rule::Nondeterminism(NondetSource::ThreadIdentity),
            chain("worker_tag"),
        ),
        (
            Rule::Nondeterminism(NondetSource::FloatReduction),
            chain("shared_total"),
        ),
    ];
    assert_eq!(
        got,
        expected,
        "fixture findings drifted:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );

    // The justified clock read behind `diagnostics` is suppressed, and
    // nothing in the fixture hits the stderr-timing allowlist.
    assert_eq!(report.summary.suppressed, 1);
    assert_eq!(report.summary.allowlisted, 0);
}

#[test]
fn fixture_findings_carry_real_lines_and_messages() {
    let workspace = Workspace::load(&fixture_root());
    let report = run(&workspace, &[EntryPoint::function("cache_report")]);
    let source = &workspace.files[0].source;
    for finding in &report.findings {
        let line_text = source
            .lines()
            .nth(finding.line - 1)
            .unwrap_or_else(|| panic!("finding line {} out of range", finding.line));
        assert!(
            !line_text.trim().is_empty(),
            "finding points at a blank line: {finding}"
        );
        assert!(
            !finding.message.is_empty() && !finding.chain.is_empty(),
            "finding missing message or chain: {finding}"
        );
    }
    let env_finding = report
        .findings
        .iter()
        .find(|f| f.rule == Rule::Nondeterminism(NondetSource::EnvRead))
        .expect("env-read finding present");
    assert!(
        env_finding.message.contains("NODE_NAME"),
        "env-read message should name the variable: {}",
        env_finding.message
    );
}
