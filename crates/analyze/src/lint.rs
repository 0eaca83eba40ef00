//! A repo-specific lint runner over the workspace sources.
//!
//! Since PR 3 the rules run on the spanned token stream from
//! [`crate::parse`] instead of blanked source lines: string literals
//! and comments are distinct token kinds (so text inside them cannot
//! trip a rule), `cfg(test)` regions come from the item extractor
//! (including `cfg(any(test, …))` / `cfg(all(test, …))` forms), and
//! constructs split across lines by rustfmt — `.unwrap()` with the dot
//! on the previous line — are matched on adjacent tokens, not on line
//! text.
//!
//! Rules:
//!
//! * **no-unwrap** — `.unwrap()` / `.expect(` are banned in non-test
//!   code of the storage stack (`sos-flash`, `sos-ftl`, `sos-core`,
//!   `sos-hostfs`): the simulator must degrade, not abort.
//! * **no-f32** — carbon accounting (`sos-carbon`) must stay in `f64`;
//!   embodied-carbon sums are small differences of large numbers.
//! * **pub-docs** — every `pub` item in `sos-core` and `sos-ftl`
//!   carries a doc comment.
//! * **no-sleep** — simulated time is advanced explicitly
//!   (`advance_days`); `std::thread::sleep` never belongs in simulation
//!   code.
//! * **no-debug-macros** — `todo!()`, `unimplemented!()` and `dbg!()`
//!   are banned in non-test code across every crate: stubs must be
//!   gated or completed before merging, and debug prints never ship.
//! * **no-lossy-cast** — `as u8` / `as u16` / `as u32` are banned in
//!   non-test `sos-flash` and `sos-ftl` code: a truncating cast on an
//!   address or count silently corrupts the mapping tables that
//!   recovery rebuilds from OOB metadata. Use `u32::try_from(x)` (or a
//!   suppression arguing the value's range) instead.
//! * **bad-suppression** — a `// sos-lint: allow(…)` comment that does
//!   not parse, or lacks a justification, is itself a finding.
//!
//! All rules except `bad-suppression` honour inline suppressions
//! ([`crate::suppress`]): `// sos-lint: allow(<rule>, "<why>")`.

use crate::parse::lexer::TokenKind;
use crate::parse::{Code, SourceFile, Workspace};
use crate::report::{Finding, JsonReport, Rule};
use crate::suppress::SuppressionSet;

/// Crates whose non-test code must be free of `.unwrap()` / `.expect(`.
const NO_UNWRAP_CRATES: &[&str] = &["flash", "ftl", "core", "hostfs"];
/// Crates whose accounting paths must not use `f32`.
const NO_F32_CRATES: &[&str] = &["carbon"];
/// Crates whose public API must be fully documented.
const DOC_CRATES: &[&str] = &["core", "ftl"];
/// Crates whose non-test code must not use truncating `as` casts.
const NO_LOSSY_CAST_CRATES: &[&str] = &["flash", "ftl"];
/// The truncating cast targets the no-lossy-cast rule bans.
const LOSSY_CAST_TARGETS: &[&str] = &["u8", "u16", "u32"];
/// Macros banned outside test code in every crate.
const BANNED_MACROS: &[&str] = &["todo", "unimplemented", "dbg"];

/// Runs every lint rule over an already-parsed workspace, adding the
/// findings (sorted by file and line) and the suppression count to
/// `report`.
pub fn run_lints_on(workspace: &Workspace, report: &mut JsonReport) {
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

    let crate_name = file.crate_name.as_str();
    let check_unwrap = NO_UNWRAP_CRATES.contains(&crate_name);
    let check_f32 = NO_F32_CRATES.contains(&crate_name);
    let check_docs = DOC_CRATES.contains(&crate_name);
    let check_casts = NO_LOSSY_CAST_CRATES.contains(&crate_name);

    let raw_lines: Vec<&str> = file.source.lines().collect();
    let code = file.code();
    let mut emit = |line, rule, message| report.admit(&suppressions, finding(line, rule, message));

    for (k, token) in code.tokens.iter().enumerate() {
        if token.kind != TokenKind::Ident || file.items.line_in_test(token.line) {
            continue;
        }
        let text = token.text(code.source);
        let (prev, next) = (code.text_back(k, 1), code.text(k + 1));

        if check_unwrap
            && matches!(text, "unwrap" | "expect")
            && prev == Some(".")
            && next == Some("(")
        {
            emit(
                token.line,
                "no-unwrap",
                format!(".{text}() in non-test storage-stack code"),
            );
        }
        if check_f32 && text == "f32" {
            emit(
                token.line,
                "no-f32",
                "f32 in carbon accounting (use f64)".to_string(),
            );
        }
        if text == "sleep" && prev == Some("::") && code.text_back(k, 2) == Some("thread") {
            emit(
                token.line,
                "no-sleep",
                "std::thread::sleep in simulation code".to_string(),
            );
        }
        if BANNED_MACROS.contains(&text)
            && next == Some("!")
            && matches!(code.text(k + 2), Some("(" | "[" | "{"))
        {
            emit(
                token.line,
                "no-debug-macros",
                format!("{text}!() in non-test code"),
            );
        }
        if check_casts && text == "as" {
            if let Some(target) = next.filter(|n| LOSSY_CAST_TARGETS.contains(n)) {
                emit(
                    token.line,
                    "no-lossy-cast",
                    format!(
                        "lossy `as {target}` cast in storage-stack code (use {target}::try_from)"
                    ),
                );
            }
        }
        if check_docs
            && text == "pub"
            // …as the first token on its line.
            && k.checked_sub(1)
                .is_none_or(|p| code.tokens[p].line != token.line)
            && documentable_item(&code, k)
            && !has_doc_comment(&raw_lines, token.line)
        {
            emit(
                token.line,
                "pub-docs",
                format!(
                    "undocumented public item: {}",
                    item_signature(file, token.line)
                ),
            );
        }
    }
}

/// Does `pub` at position `k` introduce an item the pub-docs rule
/// covers? Matches the documentable set: `pub [async|unsafe|const] fn`,
/// `pub struct/enum/trait/mod/const/static/type/union` — and skips
/// `pub mod name;` (an external module documented by `//!` in its own
/// file).
fn documentable_item(code: &Code<'_>, k: usize) -> bool {
    match code.text(k + 1) {
        Some("fn" | "struct" | "enum" | "trait" | "const" | "static" | "type" | "union") => true,
        Some("async" | "unsafe") => code.text(k + 2) == Some("fn"),
        // `pub mod name;` → external file, skip; `pub mod name {` →
        // inline, documentable.
        Some("mod") => code.text(k + 3) != Some(";"),
        _ => false,
    }
}

/// Is the item on 1-based `line` preceded by a doc comment, allowing
/// attribute lines (and multi-line attribute tails) in between?
fn has_doc_comment(raw_lines: &[&str], line: usize) -> bool {
    let mut i = line.saturating_sub(1); // index of the item line
    while i > 0 {
        i -= 1;
        let trimmed = raw_lines[i].trim();
        if trimmed.starts_with("#[") || trimmed.starts_with(')') || trimmed.starts_with(']') {
            continue;
        }
        return trimmed.starts_with("///") || trimmed.starts_with("//!");
    }
    false
}

/// The item signature for a pub-docs message: the raw line with
/// string/char literals and comments blanked, cut at the opening brace.
fn item_signature(file: &SourceFile, line: usize) -> String {
    let text = file.line_text(line);
    // Byte offset where this line starts in the file.
    let line_start = file
        .source
        .lines()
        .take(line.saturating_sub(1))
        .map(|l| l.len() + 1)
        .sum::<usize>();
    let line_end = line_start + text.len();
    let mut cleaned: Vec<char> = text.chars().collect();
    for token in &file.tokens {
        let blank = matches!(token.kind, TokenKind::Str | TokenKind::Char) || token.is_comment();
        if !blank || token.end <= line_start || token.start >= line_end {
            continue;
        }
        let from = token.start.max(line_start) - line_start;
        let to = token.end.min(line_end) - line_start;
        // Byte offsets equal char offsets only for ASCII; walk chars.
        let mut byte = 0usize;
        for slot in cleaned.iter_mut() {
            if byte >= from && byte < to {
                *slot = ' ';
            }
            byte += slot.len_utf8();
        }
    }
    let cleaned: String = cleaned.into_iter().collect();
    cleaned
        .trim_start()
        .split('{')
        .next()
        .unwrap_or("")
        .trim()
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::Workspace;

    fn lint_sources(sources: &[(&str, &str, &str)]) -> JsonReport {
        let mut report = JsonReport::default();
        run_lints_on(&Workspace::from_sources(sources), &mut report);
        report
    }

    fn lint(crate_name: &str, src: &str) -> JsonReport {
        let path = format!("crates/{crate_name}/src/x.rs");
        lint_sources(&[(crate_name, &path, src)])
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
            "fn f() {\n    let s = \".unwrap()\"; // .unwrap()\n    let _ = s;\n}\n",
        );
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn unwrap_rule_fires_outside_tests_only() {
        let src =
            "fn live(x: Option<u32>) { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t(y: Option<u32>) { y.unwrap(); }\n}\n";
        let out = lint("ftl", src);
        assert_eq!(rules(&out, "no-unwrap"), vec![1]);
    }

    #[test]
    fn multi_line_unwrap_is_caught() {
        // rustfmt splits long chains; the dot lands on the line before.
        let src = "fn live(x: Option<u32>) -> u32 {\n    x.map(|v| v + 1)\n        .unwrap()\n}\n";
        let out = lint("flash", src);
        assert_eq!(rules(&out, "no-unwrap"), vec![3]);
        let src2 =
            "fn live(x: Option<u32>) -> u32 {\n    x.expect(\n        \"present\",\n    )\n}\n";
        let out2 = lint("flash", src2);
        assert_eq!(rules(&out2, "no-unwrap"), vec![2]);
    }

    #[test]
    fn any_and_all_cfg_test_regions_are_recognized() {
        for gate in [
            "#[cfg(test)]",
            "#[cfg(any(test, feature = \"x\"))]",
            "#[cfg(all(test, unix))]",
        ] {
            let src =
                format!("{gate}\nmod helpers {{\n    fn t(y: Option<u32>) {{ y.unwrap(); }}\n}}\n");
            let out = lint("ftl", &src);
            assert!(out.findings.is_empty(), "{gate}: {:?}", out.findings);
        }
        // …but cfg(not(test)) code is live.
        let src = "#[cfg(not(test))]\nmod live {\n    fn f(y: Option<u32>) { y.unwrap(); }\n}\n";
        let out = lint("ftl", src);
        assert_eq!(rules(&out, "no-unwrap"), vec![3]);
    }

    #[test]
    fn debug_macros_banned_outside_tests_in_any_crate() {
        let src = "fn live() { todo!(); }\nfn log(x: u32) { dbg!(x); }\nfn soon() { unimplemented!(\"later\") }\nfn fine() { my_todo!(); idbg!(1); }\n#[cfg(test)]\nmod tests {\n    fn t() { todo!() }\n}\n";
        let out = lint("workload", src);
        assert_eq!(rules(&out, "no-debug-macros"), vec![1, 2, 3]);
    }

    #[test]
    fn sleep_rule_covers_the_bench_runner() {
        // The parallel experiment runner must never sleep-wait for
        // workers: determinism and the honesty of its wall-clock
        // diagnostics both depend on it, so bench gets no exemption.
        let path = "crates/bench/src/runner.rs";
        let src = "pub fn run_tasks() { std::thread::sleep(d); }\n";
        let out = lint_sources(&[("bench", path, src)]);
        assert_eq!(rules(&out, "no-sleep"), vec![1]);
    }

    #[test]
    fn sleep_rule_requires_exact_path_tokens() {
        let out = lint("workload", "fn f() { std::thread::sleep(d); }\n");
        assert_eq!(rules(&out, "no-sleep"), vec![1]);
        // Exact token match: `my_thread::sleep` is not std's sleep.
        let out2 = lint("workload", "fn f() { my_thread::sleep(d); }\n");
        assert!(rules(&out2, "no-sleep").is_empty());
    }

    #[test]
    fn f32_rule_is_exact_and_carbon_only() {
        let out = lint("carbon", "fn f(x: f32) -> f64 { my_f32_thing(x) as f64 }\n");
        assert_eq!(rules(&out, "no-f32"), vec![1]);
        let out2 = lint("ftl", "fn f(x: f32) {}\n");
        assert!(rules(&out2, "no-f32").is_empty());
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

    #[test]
    fn pub_docs_rule_requires_doc_comment() {
        let src = "/// documented\npub fn good() {}\npub fn bad() {}\n";
        let out = lint("core", src);
        let docs: Vec<&Finding> = out
            .findings
            .iter()
            .filter(|f| f.rule == Rule::Lint("pub-docs"))
            .collect();
        assert_eq!(docs.len(), 1);
        assert_eq!(docs[0].line, 3);
        assert_eq!(docs[0].message, "undocumented public item: pub fn bad()");
    }

    #[test]
    fn attributes_between_doc_and_item_are_allowed() {
        let src = "/// documented\n#[derive(Debug)]\npub struct S;\n";
        let out = lint("core", src);
        assert!(rules(&out, "pub-docs").is_empty());
    }

    #[test]
    fn external_pub_mod_declaration_needs_no_doc() {
        let out = lint(
            "core",
            "pub mod device;\n/// inline\npub mod helpers { }\npub mod bare { }\n",
        );
        assert_eq!(rules(&out, "pub-docs"), vec![4]);
    }
}
