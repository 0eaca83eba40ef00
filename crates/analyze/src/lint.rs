//! The token-stream lint rules: what the workspace gates on that
//! neither rustc nor clippy can express exactly.
//!
//! The rules run on the spanned token stream from [`crate::parse`]:
//! string literals and comments are distinct token kinds (so text inside
//! them cannot trip a rule), and `cfg(test)` regions come from the item
//! extractor (including `cfg(any(test, …))` / `cfg(all(test, …))`
//! forms).
//!
//! Rules:
//!
//! * **no-lossy-cast** — `as u8` / `as u16` / `as u32` are banned in
//!   non-test `sos-flash` and `sos-ftl` code: a truncating cast on an
//!   address or count silently corrupts the mapping tables that
//!   recovery rebuilds from OOB metadata. Use `u32::try_from(x)` (or a
//!   suppression arguing the value's range) instead.
//! * **bad-suppression** — a `// sos-lint: allow(…)` comment that does
//!   not parse, lacks a justification or names a rule sos-lint does not
//!   run is itself a finding.
//!
//! `no-lossy-cast` honours inline suppressions ([`crate::suppress`]):
//! `// sos-lint: allow(no-lossy-cast, "<why>")`. Undocumented public
//! items, `.unwrap()` in the storage stack, `f32`, `std::thread::sleep`
//! and `todo!()`-style macros are clippy's and rustc's to catch: see
//! the lint table in the workspace `Cargo.toml` and `clippy.toml`.

use crate::parse::lexer::TokenKind;
use crate::parse::{SourceFile, Workspace};
use crate::report::{Finding, JsonReport, Rule};
use crate::suppress::SuppressionSet;

/// The rule that bans truncating `as` casts.
pub(crate) const NO_LOSSY_CAST_RULE: &str = "no-lossy-cast";
/// Crates whose non-test code must not use truncating `as` casts.
const NO_LOSSY_CAST_CRATES: &[&str] = &["flash", "ftl"];
/// The truncating cast targets the no-lossy-cast rule bans.
const LOSSY_CAST_TARGETS: &[&str] = &["u8", "u16", "u32"];

/// Runs every lint rule over an already-parsed workspace, adding the
/// findings (sorted by file and line) and the suppression count to
/// `report`.
pub(crate) fn run_lints_on(workspace: &Workspace, report: &mut JsonReport) {
    let first = report.findings.len();
    for file in &workspace.files {
        lint_file(file, report);
    }
    report.sort_from(first);
}

/// Runs all rules over one parsed file.
fn lint_file(file: &SourceFile, report: &mut JsonReport) {
    let finding = |line, rule, message| Finding {
        rule: Rule::Lint(rule),
        file: file.path.clone(),
        line,
        message,
        chain: Vec::new(),
    };
    let suppressions = SuppressionSet::collect(file);
    for (line, problem) in &suppressions.malformed {
        // Deliberately not suppressible: a broken suppression must be
        // fixed, not allowed away.
        report
            .findings
            .push(finding(*line, "bad-suppression", problem.clone()));
    }

    if !NO_LOSSY_CAST_CRATES.contains(&file.crate_name.as_str()) {
        return;
    }
    let code = file.code();
    for (k, token) in code.tokens.iter().enumerate() {
        if token.kind != TokenKind::Ident
            || token.text(code.source) != "as"
            || file.items.line_in_test(token.line)
        {
            continue;
        }
        if let Some(target) = code.text(k + 1).filter(|n| LOSSY_CAST_TARGETS.contains(n)) {
            let message =
                format!("lossy `as {target}` cast in storage-stack code (use {target}::try_from)");
            report.admit(
                &suppressions,
                finding(token.line, NO_LOSSY_CAST_RULE, message),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::Workspace;

    fn lint(crate_name: &str, src: &str) -> JsonReport {
        let path = format!("crates/{crate_name}/src/x.rs");
        let mut report = JsonReport::default();
        run_lints_on(
            &Workspace::from_sources(&[(crate_name, &path, src)]),
            &mut report,
        );
        report
    }

    fn rules(outcome: &JsonReport, rule: &'static str) -> Vec<usize> {
        outcome
            .findings
            .iter()
            .filter(|f| f.rule == Rule::Lint(rule))
            .map(|f| f.line)
            .collect()
    }

    #[test]
    fn strings_and_comments_cannot_trip_rules() {
        let out = lint(
            "ftl",
            "fn f() {\n    let s = \"x as u32\"; // x as u32\n    let _ = s;\n}\n",
        );
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn any_and_all_cfg_test_regions_are_recognized() {
        for gate in [
            "#[cfg(test)]",
            "#[cfg(any(test, feature = \"x\"))]",
            "#[cfg(all(test, unix))]",
        ] {
            let src =
                format!("{gate}\nmod helpers {{\n    fn t(y: u64) -> u32 {{ y as u32 }}\n}}\n");
            let out = lint("ftl", &src);
            assert!(out.findings.is_empty(), "{gate}: {:?}", out.findings);
        }
        // …but cfg(not(test)) code is live.
        let src = "#[cfg(not(test))]\nmod live {\n    fn f(y: u64) -> u32 { y as u32 }\n}\n";
        let out = lint("ftl", src);
        assert_eq!(rules(&out, "no-lossy-cast"), vec![3]);
    }

    #[test]
    fn lossy_casts_banned_in_flash_and_ftl_only() {
        let src = "fn f(x: u64) -> u32 { x as u32 }\nfn g(x: u64) -> u64 { x as u64 }\nfn h(x: u32) -> u8 { (x & 0xff) as u8 }\n";
        let out = lint("ftl", src);
        assert_eq!(rules(&out, "no-lossy-cast"), vec![1, 3]);
        let out2 = lint("carbon", src);
        assert!(rules(&out2, "no-lossy-cast").is_empty());
    }

    #[test]
    fn lossy_cast_suppression_needs_justification() {
        let src = "fn f(x: u64) -> u32 {\n    x as u32 // sos-lint: allow(no-lossy-cast, \"x is a block index < 2^20\")\n}\n";
        let out = lint("ftl", src);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert_eq!(out.summary.suppressed, 1);
        let bad = "fn f(x: u64) -> u32 {\n    x as u32 // sos-lint: allow(no-lossy-cast)\n}\n";
        let out2 = lint("ftl", bad);
        assert_eq!(rules(&out2, "bad-suppression"), vec![2]);
        assert_eq!(rules(&out2, "no-lossy-cast"), vec![2]);
    }
}
