//! The panic-freedom pass: prove that no function reachable from the
//! crash-recovery entry points can abort the process.
//!
//! PR 2 made remount-after-power-cut the correctness backbone of the
//! simulator; a panic anywhere on those paths converts a survivable
//! power cut into data loss (the exact failure §4.3's "degrade, don't
//! abort" discipline exists to prevent). This pass walks the
//! [`CallGraph`] from the configured entry points — `Ftl::recover`,
//! the GC and scrub entries, and the host remount paths — and flags
//! every panicking construct in the reachable, non-test function set:
//!
//! * `panic!` / `assert!` / `assert_eq!` / `assert_ne!` /
//!   `unreachable!` / `todo!` / `unimplemented!` invocations
//!   (`debug_assert*` is exempt: it compiles out of release builds,
//!   which is what production recovery runs);
//! * `.unwrap()` / `.expect(…)` (and the `_err` variants);
//! * slice/array/map indexing `x[i]` (including range indexing);
//! * bare `/` and `%` whose divisor is not a non-zero literal and with
//!   no float evidence nearby — integer division by zero panics.
//!
//! Every finding carries the **call chain** from an entry point to the
//! offending function, so the report reads as "a power cut during GC
//! can reach this line". Findings are filtered through the inline
//! suppression mechanism ([`crate::suppress`]); a suppression requires
//! a written justification, so each accepted residual risk is an
//! argued, reviewable decision.

use crate::callgraph::{CallGraph, EntryPoint};
use crate::parse::lexer::{int_value, TokenKind};
use crate::parse::{Code, Workspace};
use crate::report::{JsonReport, Rule};
use std::fmt;

/// The suppression rule name for this pass.
pub const PANIC_PATH_RULE: &str = "panic-path";

/// Macros that unconditionally (or on failure) abort.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "unreachable",
    "todo",
    "unimplemented",
];

/// Method names that panic on `None`/`Err`.
const UNWRAP_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];

/// The entry set, in three groups:
///
/// * everything that runs during or immediately after a crash remount,
///   plus the background paths (GC, scrub) whose abort would take down
///   a device mid-service. `StreamPlacement`'s reclaim-unit bookkeeping
///   is included explicitly: it runs inside the write, GC, and retire
///   paths, where a panic is a device abort. So are the SYS store's
///   object write and free and the parity flush: the RAM parity they
///   keep is what a media loss before the next flush is rebuilt from;
/// * the experiment harness's parallel runner: a worker panic poisons
///   the shared result mutex and aborts the whole experiment, so its
///   fan-out, seeding, and thread-count paths get the same audit;
/// * the device simulator's per-page service path: the read/program
///   loop (including the block-batched error sampler it calls) executes
///   millions of times per simulated day, long before any FTL is
///   attached, so a reachable panic there is a device abort in every
///   experiment.
pub const PANIC_PATH_ENTRY_POINTS: &[EntryPoint] = &[
    EntryPoint::method("Ftl", "recover"),
    EntryPoint::method("Ftl", "ensure_free_space"),
    EntryPoint::method("Ftl", "gc_once"),
    EntryPoint::method("Ftl", "scrub"),
    EntryPoint::method("Ftl", "write_placed"),
    EntryPoint::method("StreamPlacement", "open_unit"),
    EntryPoint::method("StreamPlacement", "unit_for"),
    EntryPoint::method("StreamPlacement", "note_append"),
    EntryPoint::method("StreamPlacement", "close_unit"),
    EntryPoint::method("StreamPlacement", "evict_block"),
    EntryPoint::method("StreamPlacement", "note_erase"),
    EntryPoint::method("StreamPlacement", "open_units"),
    EntryPoint::method("SosDevice", "recover_in_place"),
    EntryPoint::method("StripeManager", "scrub_parity"),
    EntryPoint::method("StripeManager", "flush"),
    EntryPoint::method("PartitionStore", "write_object"),
    EntryPoint::method("PartitionStore", "free_object"),
    EntryPoint::method("HostFs", "remount"),
    EntryPoint::function("run_tasks"),
    EntryPoint::function("task_seed"),
    EntryPoint::function("thread_count"),
    EntryPoint::method("FlashDevice", "read"),
    EntryPoint::method("FlashDevice", "program"),
    EntryPoint::method("ErrorBatcher", "sample"),
];

/// The category of panicking construct a finding flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicConstruct {
    /// A `panic!`-family macro invocation.
    PanicMacro,
    /// `.unwrap()` / `.expect(…)`.
    Unwrap,
    /// `x[i]` indexing.
    Indexing,
    /// `/` or `%` with a possibly-zero integer divisor.
    IntDivision,
}

impl fmt::Display for PanicConstruct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            PanicConstruct::PanicMacro => "panic-macro",
            PanicConstruct::Unwrap => "unwrap",
            PanicConstruct::Indexing => "indexing",
            PanicConstruct::IntDivision => "int-division",
        };
        f.write_str(name)
    }
}

/// Runs the pass from `entries`, adding its findings and counters
/// (`reachable_fns` among them) to `report`. Returns the reachable
/// functions' ids.
pub fn run_panic_path(
    workspace: &Workspace,
    graph: &CallGraph,
    entries: &[EntryPoint],
    report: &mut JsonReport,
) -> Vec<usize> {
    let reached = graph.scan_reachable(workspace, entries, report, |_, _, code| {
        scan_constructs(&code)
    });
    report.summary.reachable_fns = reached.len();
    reached
}

/// Scans one function body for panicking constructs.
fn scan_constructs(code: &Code<'_>) -> Vec<(usize, Rule, String)> {
    let mut found = Vec::new();
    let mut hit =
        |line, construct, message| found.push((line, Rule::PanicPath(construct), message));
    for (k, token) in code.tokens.iter().enumerate() {
        let text = token.text(code.source);
        let prev = k
            .checked_sub(1)
            .and_then(|p| code.kind(p))
            .zip(code.text_back(k, 1));
        match token.kind {
            TokenKind::Ident => {
                // Macro invocations: `name!(…)`, `name![…]`, `name!{…}`.
                if PANIC_MACROS.contains(&text)
                    && code.text(k + 1) == Some("!")
                    && matches!(code.text(k + 2), Some("(" | "[" | "{"))
                {
                    hit(
                        token.line,
                        PanicConstruct::PanicMacro,
                        format!("{text}! on a recovery-reachable path"),
                    );
                }
                // `.unwrap()` / `.expect(…)` and friends.
                if UNWRAP_METHODS.contains(&text)
                    && code.text_back(k, 1) == Some(".")
                    && code.text(k + 1) == Some("(")
                {
                    hit(
                        token.line,
                        PanicConstruct::Unwrap,
                        format!(".{text}() on a recovery-reachable path"),
                    );
                }
            }
            TokenKind::Punct => match (text, prev) {
                ("[", Some((kind, base))) if is_index_base(kind, base) => {
                    hit(
                        token.line,
                        PanicConstruct::Indexing,
                        format!("indexing `{base}[…]` may panic out of bounds"),
                    );
                }
                ("/" | "%", Some((kind, value)))
                    if is_value_end(kind, value)
                        && !has_float_evidence(code, k)
                        && !divisor_is_nonzero_literal(code, k) =>
                {
                    let op = if text == "/" { "division" } else { "remainder" };
                    hit(
                        token.line,
                        PanicConstruct::IntDivision,
                        format!("integer {op} `{text}` with a non-literal divisor may panic"),
                    );
                }
                _ => {}
            },
            _ => {}
        }
    }
    found
}

/// Can the previous token end an indexable expression?
fn is_index_base(kind: TokenKind, text: &str) -> bool {
    match kind {
        TokenKind::Ident => !crate::callgraph::is_expression_keyword(text),
        TokenKind::Punct => matches!(text, ")" | "]" | "?"),
        TokenKind::Str => true, // "literal"[i] — pathological but panics
        _ => false,
    }
}

/// Can the previous token end a value (making `/` binary, not part of
/// some other construct)?
fn is_value_end(kind: TokenKind, text: &str) -> bool {
    match kind {
        TokenKind::Ident => !crate::callgraph::is_expression_keyword(text),
        TokenKind::Int | TokenKind::Float => true,
        TokenKind::Punct => matches!(text, ")" | "]" | "?"),
        _ => false,
    }
}

/// Looks for evidence that a `/` or `%` at position `k` operates on
/// floats: a float literal or an `f32`/`f64` token on the operator's
/// line, or inside the immediately-adjacent parenthesized operands.
/// (Type inference is out of scope; a line mixing genuine integer
/// division with float arithmetic is exceedingly rare in this tree,
/// and the cost of a miss is a suppressed-with-justification line,
/// not a missed abort.)
fn has_float_evidence(code: &Code<'_>, k: usize) -> bool {
    let tokens = &code.tokens;
    let Some(line) = tokens.get(k).map(|token| token.line) else {
        return false;
    };
    // Anything float-ish on the same line.
    let on_line = |&j: &usize| tokens[j].line == line;
    let is_float = |j| is_float_token(code, j);
    (0..k).rev().take_while(on_line).any(is_float)
        || (k + 1..tokens.len()).take_while(on_line).any(is_float)
        // `(… 1.0 …) / x` — the parenthesized group ending just left.
        || (code.text_back(k, 1) == Some(")") && group_has_float(code, (0..k).rev(), ")"))
        // `x / (… as f64 …)` — the group starting just right.
        || (code.text(k + 1) == Some("(") && group_has_float(code, k + 1..tokens.len(), "("))
}

/// Is token `j` a float literal or an `f32`/`f64` type name?
fn is_float_token(code: &Code<'_>, j: usize) -> bool {
    match code.kind(j) {
        Some(TokenKind::Float) => true,
        Some(TokenKind::Ident) => matches!(code.text(j), Some("f32" | "f64")),
        _ => false,
    }
}

/// Walks `positions` from a parenthesis `open` to its partner: does the
/// group hold a float token?
fn group_has_float(code: &Code<'_>, positions: impl Iterator<Item = usize>, open: &str) -> bool {
    let mut depth = 0i32;
    for j in positions {
        match code.text(j) {
            Some(text) if text == open => depth += 1,
            Some("(" | ")") => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            _ if is_float_token(code, j) => return true,
            _ => {}
        }
    }
    false
}

/// Is the divisor a non-zero integer literal (`x / 2` cannot panic)?
fn divisor_is_nonzero_literal(code: &Code<'_>, k: usize) -> bool {
    // Skip the `=` of a compound `/=` so `x /= 4` sees the `4`.
    let next = if code.text(k + 1) == Some("=") {
        k + 2
    } else {
        k + 1
    };
    // The literal must be the whole divisor: `x / 2` is safe, but in
    // `x / 2 - y` the divisor is still just `2`, also safe. Precedence
    // means a trailing `+`/`-`/`*` never changes the divisor.
    code.kind(next) == Some(TokenKind::Int)
        && matches!(code.text(next).and_then(int_value), Some(v) if v != 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::Workspace;

    fn run(src: &str, entries: &[EntryPoint]) -> JsonReport {
        let ws = Workspace::from_sources(&[("ftl", "crates/ftl/src/lib.rs", src)]);
        let mut report = JsonReport::default();
        run_panic_path(&ws, &CallGraph::build(&ws), entries, &mut report);
        report
    }

    fn entry(owner: &'static str, name: &'static str) -> Vec<EntryPoint> {
        vec![EntryPoint::method(owner, name)]
    }

    #[test]
    fn reachable_panics_are_found_with_chains() {
        let src = "impl Ftl {\n    pub fn recover(&mut self) { self.step(); }\n    fn step(&mut self) { self.deep(); }\n    fn deep(&mut self) { panic!(\"boom\"); }\n    fn unrelated(&mut self) { panic!(\"not reachable\"); }\n}\n";
        let report = run(src, &entry("Ftl", "recover"));
        assert_eq!(report.findings.len(), 1);
        let finding = &report.findings[0];
        assert_eq!(finding.line, 4);
        assert_eq!(finding.rule, Rule::PanicPath(PanicConstruct::PanicMacro));
        assert_eq!(
            finding.chain,
            vec!["Ftl::recover", "Ftl::step", "Ftl::deep"]
        );
        assert_eq!(report.summary.reachable_fns, 3);
    }

    #[test]
    fn all_construct_kinds_fire() {
        let src = "impl Ftl {\n    pub fn recover(&mut self, v: Vec<u64>, n: u64) -> u64 {\n        let a = v[0];\n        let b = v.first().unwrap();\n        assert!(n > 0);\n        a / n + *b % n\n    }\n}\n";
        let report = run(src, &entry("Ftl", "recover"));
        let kinds: Vec<Rule> = report.findings.iter().map(|f| f.rule).collect();
        assert!(kinds.contains(&Rule::PanicPath(PanicConstruct::Indexing)));
        assert!(kinds.contains(&Rule::PanicPath(PanicConstruct::Unwrap)));
        assert!(kinds.contains(&Rule::PanicPath(PanicConstruct::PanicMacro)));
        assert_eq!(
            kinds
                .iter()
                .filter(|k| **k == Rule::PanicPath(PanicConstruct::IntDivision))
                .count(),
            2
        );
    }

    #[test]
    fn float_division_and_literal_divisors_are_exempt() {
        let src = "impl Ftl {\n    pub fn recover(&self, x: u64, r: f64) -> u64 {\n        let _a = r / 3.5;\n        let _b = (1.0 - r) / (1.0 + r);\n        let _c = x as f64 / 2.0;\n        let half = x / 2;\n        let _d = x as f64 / r;\n        half / 4\n    }\n}\n";
        let report = run(src, &entry("Ftl", "recover"));
        assert!(
            report.findings.is_empty(),
            "unexpected: {:?}",
            report.findings
        );
    }

    #[test]
    fn debug_assert_and_test_fns_are_exempt() {
        let src = "impl Ftl {\n    pub fn recover(&self, x: u64) {\n        debug_assert!(x > 0);\n        debug_assert_eq!(x, x);\n    }\n}\n#[cfg(test)]\nmod tests {\n    fn recover_helper() { panic!(\"test only\"); }\n}\n";
        let report = run(src, &entry("Ftl", "recover"));
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn suppressions_silence_and_count() {
        let src = "impl Ftl {\n    pub fn recover(&self, v: &[u8]) -> u8 {\n        // sos-lint: allow(panic-path, \"index bounded by phase-1 probe\")\n        v[0]\n    }\n}\n";
        let report = run(src, &entry("Ftl", "recover"));
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.summary.suppressed, 1);
    }

    #[test]
    fn missing_entry_points_are_reported() {
        let report = run(
            "impl Ftl { pub fn recover(&self) {} }",
            &[
                EntryPoint::method("Ftl", "recover"),
                EntryPoint::method("Ftl", "gone_fn"),
            ],
        );
        assert_eq!(report.summary.entry_points, vec!["Ftl::recover"]);
        assert_eq!(report.summary.missing_entry_points, vec!["Ftl::gone_fn"]);
    }

    #[test]
    fn vec_macro_and_attributes_are_not_indexing() {
        let src = "impl Ftl {\n    pub fn recover(&self) {\n        let _v: Vec<u8> = vec![0; 4];\n        let _a = [0u8; 8];\n        #[allow(unused)]\n        let _b: [u8; 2] = [1, 2];\n    }\n}\n";
        let report = run(src, &entry("Ftl", "recover"));
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn free_function_entry_points_resolve_and_traverse() {
        let src = "pub fn run_tasks(n: u64) -> u64 { helper(n) }\nfn helper(n: u64) -> u64 { let v = vec![1u64]; v[0] + n }\n";
        let report = run(src, &[EntryPoint::function("run_tasks")]);
        assert_eq!(report.summary.entry_points, vec!["run_tasks"]);
        assert!(report.summary.missing_entry_points.is_empty());
        assert_eq!(report.findings.len(), 1);
        assert_eq!(
            report.findings[0].rule,
            Rule::PanicPath(PanicConstruct::Indexing)
        );
        assert_eq!(report.findings[0].chain, vec!["run_tasks", "helper"]);
    }

    #[test]
    fn unresolved_calls_are_counted() {
        let src = "impl Ftl {\n    pub fn recover(&self, v: Vec<u8>) { v.contains(&1); }\n}\n";
        let ws = Workspace::from_sources(&[("ftl", "crates/ftl/src/lib.rs", src)]);
        let graph = CallGraph::build(&ws);
        let entries = entry("Ftl", "recover");
        let reached = run_panic_path(&ws, &graph, &entries, &mut JsonReport::default());
        assert_eq!(graph.unresolved_total(reached), 1);
    }
}
