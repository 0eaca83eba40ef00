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

use crate::callgraph::CallGraph;
use crate::parse::lexer::{int_value, TokenKind};
use crate::parse::{SourceFile, Workspace};
use crate::suppress::SuppressionSet;
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;

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

/// A configured root of the reachability walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryPoint {
    /// The impl type the function is defined on, if any.
    pub owner: Option<String>,
    /// The function name.
    pub name: String,
}

impl EntryPoint {
    /// Convenience constructor for a method entry point.
    pub fn method(owner: &str, name: &str) -> EntryPoint {
        EntryPoint {
            owner: Some(owner.to_string()),
            name: name.to_string(),
        }
    }

    /// Convenience constructor for a free-function entry point.
    pub fn function(name: &str) -> EntryPoint {
        EntryPoint {
            owner: None,
            name: name.to_string(),
        }
    }

    /// Human-readable `Owner::name` form.
    pub fn label(&self) -> String {
        match &self.owner {
            Some(owner) => format!("{owner}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The default entry set: everything that runs during or immediately
/// after a crash remount, plus the background paths (GC, scrub) whose
/// abort would take down a device mid-service. `StreamPlacement`'s
/// reclaim-unit bookkeeping is included explicitly: it runs inside the
/// write, GC, and retire paths, where a panic is a device abort.
pub fn recovery_entry_points() -> Vec<EntryPoint> {
    [
        ("Ftl", "recover"),
        ("Ftl", "ensure_free_space"),
        ("Ftl", "gc_once"),
        ("Ftl", "scrub"),
        ("Ftl", "write_placed"),
        ("StreamPlacement", "open_unit"),
        ("StreamPlacement", "unit_for"),
        ("StreamPlacement", "note_append"),
        ("StreamPlacement", "close_unit"),
        ("StreamPlacement", "evict_block"),
        ("StreamPlacement", "note_erase"),
        ("StreamPlacement", "open_units"),
        ("SosDevice", "recover_in_place"),
        ("StripeManager", "scrub_parity"),
        ("HostFs", "remount"),
    ]
    .iter()
    .map(|(owner, name)| EntryPoint::method(owner, name))
    .collect()
}

/// Entry points for the experiment harness's parallel runner: the
/// scoped-worker fan-out in `sos-bench` must never panic mid-scope (a
/// worker panic poisons the shared result mutex and aborts the whole
/// experiment), so its fan-out, seeding, and thread-count paths get the
/// same reachability audit as the recovery paths.
pub fn harness_entry_points() -> Vec<EntryPoint> {
    ["run_tasks", "task_seed", "thread_count"]
        .iter()
        .map(|name| EntryPoint::function(name))
        .collect()
}

/// Entry points for the device simulator's per-page service path: the
/// read/program loop (including the block-batched error sampler it
/// calls) executes millions of times per simulated day, so a reachable
/// panic there is a device abort in every experiment. Audited as its
/// own root set because these run far more often than the recovery
/// paths and long before any FTL is attached.
pub fn device_hot_entry_points() -> Vec<EntryPoint> {
    [
        ("FlashDevice", "read"),
        ("FlashDevice", "program"),
        ("ErrorBatcher", "sample"),
    ]
    .iter()
    .map(|(owner, name)| EntryPoint::method(owner, name))
    .collect()
}

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

/// One panicking construct reachable from an entry point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicFinding {
    /// File, relative to the workspace root.
    pub file: PathBuf,
    /// 1-based line of the construct.
    pub line: usize,
    /// The construct category.
    pub construct: PanicConstruct,
    /// Human-readable description.
    pub message: String,
    /// Call chain from an entry point to the containing function,
    /// as qualified names (`Ftl::recover` → … → containing fn).
    pub chain: Vec<String>,
}

impl fmt::Display for PanicFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [panic-path/{}] {} (via {})",
            self.file.display(),
            self.line,
            self.construct,
            self.message,
            self.chain.join(" -> ")
        )
    }
}

/// The outcome of one panic-freedom pass.
#[derive(Debug, Clone, Default)]
pub struct PanicPathReport {
    /// Entry points that resolved to at least one definition.
    pub entry_points: Vec<String>,
    /// Configured entry points with **no** matching definition — a
    /// rename hazard, treated as a gate failure by `sos-lint`.
    pub missing_entry_points: Vec<String>,
    /// Number of reachable non-test functions scanned.
    pub reachable_fns: usize,
    /// Unsuppressed findings.
    pub findings: Vec<PanicFinding>,
    /// Findings silenced by a justified inline suppression.
    pub suppressed: usize,
    /// Call sites (across reachable functions) that resolved to no
    /// workspace definition — recorded, never silently dropped.
    pub unresolved_calls: usize,
}

/// Runs the pass over a parsed workspace with the given entry points.
pub fn run_panic_path(workspace: &Workspace, entries: &[EntryPoint]) -> PanicPathReport {
    let graph = CallGraph::build(workspace);
    let reach = graph.reach(entries);
    let mut report = PanicPathReport {
        reachable_fns: reach.nodes.len(),
        entry_points: reach.entry_points.clone(),
        missing_entry_points: reach.missing_entry_points.clone(),
        ..PanicPathReport::default()
    };

    // Per-file suppression sets, built lazily.
    let mut suppressions: HashMap<usize, SuppressionSet> = HashMap::new();

    for &node_id in &reach.nodes {
        let node = &graph.nodes[node_id];
        report.unresolved_calls += graph.unresolved[node_id].len();
        let file = &workspace.files[node.file_index];
        let Some((start, end)) = file.items.fns[node.item_index].body else {
            continue;
        };
        let chain = reach.chain_to(&graph, node_id);
        let set = suppressions
            .entry(node.file_index)
            .or_insert_with(|| SuppressionSet::collect(file));
        for (line, construct, message) in scan_constructs(file, start, end) {
            if set.allows(PANIC_PATH_RULE, line) {
                report.suppressed += 1;
            } else {
                report.findings.push(PanicFinding {
                    file: file.path.clone(),
                    line,
                    construct,
                    message,
                    chain: chain.clone(),
                });
            }
        }
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report
}

/// Scans one function body for panicking constructs.
fn scan_constructs(
    file: &SourceFile,
    start: usize,
    end: usize,
) -> Vec<(usize, PanicConstruct, String)> {
    let source = &file.source;
    let tokens = &file.tokens;
    let idx: Vec<usize> = (start..=end.min(tokens.len().saturating_sub(1)))
        .filter(|&i| !tokens[i].is_comment())
        .collect();
    let text_at = |k: usize| tokens[idx[k]].text(source);
    let kind_at = |k: usize| tokens[idx[k]].kind;
    let mut found = Vec::new();
    for k in 0..idx.len() {
        let token = &tokens[idx[k]];
        let text = token.text(source);
        match token.kind {
            TokenKind::Ident => {
                // Macro invocations: `name!(…)`, `name![…]`, `name!{…}`.
                if PANIC_MACROS.contains(&text)
                    && idx.get(k + 1).is_some_and(|_| text_at(k + 1) == "!")
                    && idx
                        .get(k + 2)
                        .is_some_and(|_| matches!(text_at(k + 2), "(" | "[" | "{"))
                {
                    found.push((
                        token.line,
                        PanicConstruct::PanicMacro,
                        format!("{text}! on a recovery-reachable path"),
                    ));
                }
                // `.unwrap()` / `.expect(…)` and friends.
                if UNWRAP_METHODS.contains(&text)
                    && k > 0
                    && text_at(k - 1) == "."
                    && idx.get(k + 1).is_some_and(|_| text_at(k + 1) == "(")
                {
                    found.push((
                        token.line,
                        PanicConstruct::Unwrap,
                        format!(".{text}() on a recovery-reachable path"),
                    ));
                }
            }
            TokenKind::Punct => match text {
                "[" if k > 0 && is_index_base(kind_at(k - 1), text_at(k - 1)) => {
                    found.push((
                        token.line,
                        PanicConstruct::Indexing,
                        format!("indexing `{}[…]` may panic out of bounds", text_at(k - 1)),
                    ));
                }
                "/" | "%"
                    if k > 0
                        && is_value_end(kind_at(k - 1), text_at(k - 1))
                        && !has_float_evidence(source, tokens, &idx, k)
                        && !divisor_is_nonzero_literal(source, tokens, &idx, k) =>
                {
                    let op = if text == "/" { "division" } else { "remainder" };
                    found.push((
                        token.line,
                        PanicConstruct::IntDivision,
                        format!("integer {op} `{text}` with a non-literal divisor may panic"),
                    ));
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
fn has_float_evidence(
    source: &str,
    tokens: &[crate::parse::lexer::Token],
    idx: &[usize],
    k: usize,
) -> bool {
    let is_float_token = |i: usize| -> bool {
        let token = &tokens[idx[i]];
        match token.kind {
            TokenKind::Float => true,
            TokenKind::Ident => matches!(token.text(source), "f32" | "f64"),
            _ => false,
        }
    };
    // Anything float-ish on the same line.
    let line = tokens[idx[k]].line;
    for j in (0..k).rev() {
        if tokens[idx[j]].line != line {
            break;
        }
        if is_float_token(j) {
            return true;
        }
    }
    for j in k + 1..idx.len() {
        if tokens[idx[j]].line != line {
            break;
        }
        if is_float_token(j) {
            return true;
        }
    }
    // `(… 1.0 …) / x` — scan the parenthesized group ending just left.
    if k > 0 && tokens[idx[k - 1]].text(source) == ")" {
        let mut depth = 0i32;
        for j in (0..k).rev() {
            match tokens[idx[j]].text(source) {
                ")" => depth += 1,
                "(" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {
                    if is_float_token(j) {
                        return true;
                    }
                }
            }
        }
    }
    // `x / (… as f64 …)` — scan the group starting just right.
    if k + 1 < idx.len() && tokens[idx[k + 1]].text(source) == "(" {
        let mut depth = 0i32;
        for (j, _) in idx.iter().enumerate().skip(k + 1) {
            match tokens[idx[j]].text(source) {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {
                    if is_float_token(j) {
                        return true;
                    }
                }
            }
        }
    }
    false
}

/// Is the divisor a non-zero integer literal (`x / 2` cannot panic)?
fn divisor_is_nonzero_literal(
    source: &str,
    tokens: &[crate::parse::lexer::Token],
    idx: &[usize],
    k: usize,
) -> bool {
    // Skip the `=` of a compound `/=` so `x /= 4` sees the `4`.
    let mut next = k + 1;
    if next < idx.len() && tokens[idx[next]].text(source) == "=" {
        next += 1;
    }
    let Some(&token_index) = idx.get(next) else {
        return false;
    };
    let token = &tokens[token_index];
    if token.kind != TokenKind::Int {
        return false;
    }
    // The literal must be the whole divisor: `x / 2` is safe, but in
    // `x / 2 - y` the divisor is still just `2`, also safe. Precedence
    // means a trailing `+`/`-`/`*` never changes the divisor.
    matches!(int_value(token.text(source)), Some(v) if v != 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::Workspace;

    fn run(src: &str, entries: &[EntryPoint]) -> PanicPathReport {
        let ws = Workspace::from_sources(&[("ftl", "crates/ftl/src/lib.rs", src)]);
        run_panic_path(&ws, entries)
    }

    fn entry(owner: &str, name: &str) -> Vec<EntryPoint> {
        vec![EntryPoint::method(owner, name)]
    }

    #[test]
    fn reachable_panics_are_found_with_chains() {
        let src = "impl Ftl {\n    pub fn recover(&mut self) { self.step(); }\n    fn step(&mut self) { self.deep(); }\n    fn deep(&mut self) { panic!(\"boom\"); }\n    fn unrelated(&mut self) { panic!(\"not reachable\"); }\n}\n";
        let report = run(src, &entry("Ftl", "recover"));
        assert_eq!(report.findings.len(), 1);
        let finding = &report.findings[0];
        assert_eq!(finding.line, 4);
        assert_eq!(finding.construct, PanicConstruct::PanicMacro);
        assert_eq!(
            finding.chain,
            vec!["Ftl::recover", "Ftl::step", "Ftl::deep"]
        );
        assert_eq!(report.reachable_fns, 3);
    }

    #[test]
    fn all_construct_kinds_fire() {
        let src = "impl Ftl {\n    pub fn recover(&mut self, v: Vec<u64>, n: u64) -> u64 {\n        let a = v[0];\n        let b = v.first().unwrap();\n        assert!(n > 0);\n        a / n + *b % n\n    }\n}\n";
        let report = run(src, &entry("Ftl", "recover"));
        let kinds: Vec<PanicConstruct> = report.findings.iter().map(|f| f.construct).collect();
        assert!(kinds.contains(&PanicConstruct::Indexing));
        assert!(kinds.contains(&PanicConstruct::Unwrap));
        assert!(kinds.contains(&PanicConstruct::PanicMacro));
        assert_eq!(
            kinds
                .iter()
                .filter(|k| **k == PanicConstruct::IntDivision)
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
        assert_eq!(report.suppressed, 1);
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
        assert_eq!(report.entry_points, vec!["Ftl::recover"]);
        assert_eq!(report.missing_entry_points, vec!["Ftl::gone_fn"]);
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
        assert_eq!(report.entry_points, vec!["run_tasks"]);
        assert!(report.missing_entry_points.is_empty());
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].construct, PanicConstruct::Indexing);
        assert_eq!(report.findings[0].chain, vec!["run_tasks", "helper"]);
    }

    #[test]
    fn unresolved_calls_are_counted() {
        let src = "impl Ftl {\n    pub fn recover(&self, v: Vec<u8>) { v.contains(&1); }\n}\n";
        let report = run(src, &entry("Ftl", "recover"));
        assert_eq!(report.unresolved_calls, 1);
    }
}
