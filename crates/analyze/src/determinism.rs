//! The determinism pass: prove that experiment output is thread-count-
//! and process-invariant.
//!
//! The paper's population-scale claims need fleet runs of 10⁴–10⁶
//! device-lifetimes on the parallel runner, and those runs are only
//! comparable across `SOS_THREADS` settings and process invocations if
//! every byte of experiment stdout is a pure function of the options
//! and the base seed. PR 4 found two real nondeterminism bugs (HashMap
//! iteration order leaking into E11 medPSNR; seed-stream divergence in
//! the error sampler) — but only *dynamically*, by diffing stdout at
//! different thread counts. This pass makes the property static: it
//! walks the [`CallGraph`] from the deterministic-output entry points
//! (the experiment report functions and the runner fan-out) and flags
//! every **nondeterminism source** in
//! the reachable, non-test function set:
//!
//! * iteration over `HashMap`/`HashSet` (`.iter()`, `.keys()`,
//!   `.values()`, `.drain()`, …, or a `for` loop over a map-typed
//!   binding) — iteration order is randomized per process;
//! * `Instant::now()` / `SystemTime::now()` outside the stderr-timing
//!   allowlist — wall-clock values must never reach stdout;
//! * `std::env::var` outside the declared set (`SOS_THREADS`,
//!   `SOS_SEED`) — reading any other variable makes output depend on
//!   ambient process state;
//! * `thread::current()` / thread-id inspection — worker identity must
//!   not influence results;
//! * entropy-seeded RNG construction (`thread_rng`, `from_entropy`,
//!   `OsRng`) — every RNG must derive from `task_seed`;
//! * `.lock()` on a `Mutex<f64>`/`Mutex<f32>` — the unordered
//!   floating-point reduction shape, where `a + b + c` depends on
//!   worker completion order.
//!
//! Receiver typing is a deliberately simple per-file **name-based
//! tiebreak**: a binding, field, or parameter declared in non-test code
//! with a `HashMap`/`HashSet` type (or bound to `HashMap::new()`) marks
//! that identifier as map-typed for the whole file. Declarations in test
//! code are skipped: no entry point reaches test code, so a test-only
//! map must not type a same-named slice that reachable code iterates.
//! This over-approximates (a same-named `Vec` in the same file's
//! non-test code is also flagged) and can miss re-borrowed aliases; both
//! directions are acceptable for a lint whose misses are caught by the
//! dynamic `runner_determinism` diff tests and whose false positives
//! cost one justified suppression line.
//!
//! Every finding carries the call chain from an entry point, uses the
//! `nondeterminism` rule family in the inline suppression system
//! ([`crate::suppress`]), and lands in the `--format json` report. The
//! workspace is pinned to a zero-finding baseline by the analyzer
//! self-test.

use crate::callgraph::{is_expression_keyword, CallGraph, EntryPoint};
use crate::parse::lexer::TokenKind;
use crate::parse::{Code, SourceFile, Workspace};
use crate::report::{JsonReport, Rule};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// The suppression rule name for this pass.
pub const NONDETERMINISM_RULE: &str = "nondeterminism";

/// Environment variables experiment code is allowed to read: the
/// runner's worker count and the base-seed override. Anything else
/// makes output depend on ambient process state.
pub const ALLOWED_ENV_VARS: &[&str] = &["SOS_THREADS", "SOS_SEED"];

/// Free functions whose *job* is timing and whose clock readings are
/// confined to stderr: the runner fan-out, which reports through
/// `RunnerReport`. Wall-clock and float-reduction hits inside these
/// bodies are counted as `allowlisted`, not reported. Map iteration and
/// the other source kinds are still enforced even here.
pub const STDERR_TIMING_ALLOWLIST: &[&str] = &["run_tasks"];

/// Map methods whose result depends on iteration order.
const MAP_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
];

/// Container wrappers skipped when walking left from `HashMap` to the
/// declared identifier (`files: Vec<HashMap<…>>` still marks `files`).
const TYPE_WRAPPERS: &[&str] = &["Vec", "VecDeque", "Option", "Box", "Arc", "Rc", "RefCell"];

/// The entry set: every function whose output must be byte-identical
/// across `SOS_THREADS` settings and process invocations — the five
/// experiment report functions (E11, E10, E9, E17 and the crash sweep)
/// and the parallel runner's fan-out/seed/thread paths.
pub const DETERMINISTIC_ENTRY_POINTS: &[EntryPoint] = &[
    EntryPoint::function("end_to_end_report"),
    EntryPoint::function("crash_sweep_report"),
    EntryPoint::function("wl_ablation_report"),
    EntryPoint::function("capacity_variance_report"),
    EntryPoint::function("flash_cache_report"),
    EntryPoint::function("run_tasks"),
    EntryPoint::function("task_seed"),
    EntryPoint::function("thread_count"),
];

/// The category of nondeterminism source a finding flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NondetSource {
    /// Iteration over a `HashMap`/`HashSet`-typed binding.
    MapIteration,
    /// `Instant::now()` / `SystemTime::now()` outside the allowlist.
    WallClock,
    /// `std::env::var` outside the declared variable set.
    EnvRead,
    /// `thread::current()` / thread-id inspection.
    ThreadIdentity,
    /// RNG construction from entropy instead of `task_seed`.
    UnseededRng,
    /// `.lock()` on a `Mutex<f64>` — unordered float accumulation.
    FloatReduction,
}

impl NondetSource {
    /// Is this source kind eligible for the stderr-timing allowlist?
    fn allowlist_eligible(self) -> bool {
        matches!(self, NondetSource::WallClock | NondetSource::FloatReduction)
    }
}

impl fmt::Display for NondetSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            NondetSource::MapIteration => "map-iteration",
            NondetSource::WallClock => "wall-clock",
            NondetSource::EnvRead => "env-read",
            NondetSource::ThreadIdentity => "thread-identity",
            NondetSource::UnseededRng => "unseeded-rng",
            NondetSource::FloatReduction => "float-reduction",
        };
        f.write_str(name)
    }
}

/// Runs the pass from `entries`, adding its findings and counters
/// (`determinism_reachable_fns` and `allowlisted` among them) to
/// `report`. Returns the reachable functions' ids.
pub fn run_determinism(
    workspace: &Workspace,
    graph: &CallGraph,
    entries: &[EntryPoint],
    report: &mut JsonReport,
) -> Vec<usize> {
    // Per-file receiver-type tables, built lazily.
    let mut type_tables: HashMap<usize, FileTypes> = HashMap::new();
    let mut allowlisted = 0;
    let reached = graph.scan_reachable(workspace, entries, report, |node, file, code| {
        let types = type_tables
            .entry(node.file_index)
            .or_insert_with(|| FileTypes::collect(file));
        let allowlisted_fn =
            node.owner.is_none() && STDERR_TIMING_ALLOWLIST.contains(&node.name.as_str());
        let mut hits = Vec::new();
        for (line, source, message) in scan_sources(&code, types) {
            if allowlisted_fn && source.allowlist_eligible() {
                allowlisted += 1;
            } else {
                hits.push((line, Rule::Nondeterminism(source), message));
            }
        }
        hits
    });
    report.summary.determinism_reachable_fns = reached.len();
    report.summary.allowlisted += allowlisted;
    reached
}

/// Per-file receiver-type table: identifiers declared (anywhere in the
/// file's non-test code) with a map type or a float-mutex type.
struct FileTypes {
    map_idents: HashSet<String>,
    float_mutex_idents: HashSet<String>,
}

impl FileTypes {
    /// Scans a file's non-test tokens for `name: HashMap<…>`-shaped
    /// declarations (fields, params, lets) and `name = HashMap::new()`
    /// inferred bindings, for both map types and `Mutex<f64>`/`f32`.
    fn collect(file: &SourceFile) -> FileTypes {
        let code = file.code();
        let mut map_idents = HashSet::new();
        let mut float_mutex_idents = HashSet::new();
        for (k, token) in code.tokens.iter().enumerate() {
            if token.kind != TokenKind::Ident || file.items.line_in_test(token.line) {
                continue;
            }
            match token.text(code.source) {
                "HashMap" | "HashSet" => {
                    if let Some(name) = declared_ident(&code, k) {
                        map_idents.insert(name);
                    }
                }
                "Mutex" => {
                    let float_param = code.text(k + 1) == Some("<")
                        && matches!(code.text(k + 2), Some("f64" | "f32"));
                    if float_param {
                        if let Some(name) = declared_ident(&code, k) {
                            float_mutex_idents.insert(name);
                        }
                    }
                }
                _ => {}
            }
        }
        FileTypes {
            map_idents,
            float_mutex_idents,
        }
    }
}

/// Walks left from a type name at position `k` to the identifier it is
/// declared for: skips path segments (`std::collections::`), wrapper
/// types (`Vec<…>`), `&`/`mut`, then expects `name :` (ascription) or
/// `name =` (inferred constructor binding).
fn declared_ident(code: &Code<'_>, k: usize) -> Option<String> {
    let mut j = k;
    loop {
        let p = j.checked_sub(1)?;
        let text = code.text(p)?;
        match text {
            // `std :: collections :: HashMap` — skip `::` and its
            // qualifying segment in one step.
            "::" => j = p.checked_sub(1)?,
            "<" | "&" | "mut" => j = p,
            _ if code.kind(p) == Some(TokenKind::Ident) && TYPE_WRAPPERS.contains(&text) => j = p,
            _ => break,
        }
    }
    let sep = j.checked_sub(1)?;
    if !matches!(code.text(sep), Some(":" | "=")) {
        return None;
    }
    let name_pos = sep.checked_sub(1)?;
    let text = code.text(name_pos)?;
    (code.kind(name_pos) == Some(TokenKind::Ident) && !is_expression_keyword(text))
        .then(|| text.to_string())
}

/// Scans one function body for nondeterminism sources.
fn scan_sources(code: &Code<'_>, types: &FileTypes) -> Vec<(usize, NondetSource, String)> {
    let mut found = Vec::new();
    for (k, token) in code.tokens.iter().enumerate() {
        if token.kind != TokenKind::Ident {
            continue;
        }
        let text = token.text(code.source);
        let (prev, prev2, next) = (code.text_back(k, 1), code.text_back(k, 2), code.text(k + 1));
        // The identifier receiving a `.method(…)` call at `k`, when
        // `idents` types it (`self.field.iter()` included — the field
        // identifier sits at k-2).
        let receiver = |idents: &HashSet<String>| {
            k.checked_sub(2)
                .filter(|&j| code.kind(j) == Some(TokenKind::Ident))
                .and_then(|j| code.text(j))
                .filter(|recv| idents.contains(*recv))
        };
        match text {
            // `recv.iter()` / `recv.keys()` / … where `recv` is
            // map-typed.
            _ if MAP_ITER_METHODS.contains(&text) && prev == Some(".") && next == Some("(") => {
                if let Some(recv) = receiver(&types.map_idents) {
                    found.push((
                        token.line,
                        NondetSource::MapIteration,
                        format!(
                            "`{recv}.{text}()` iterates a HashMap/HashSet in nondeterministic order"
                        ),
                    ));
                }
            }
            // `for x in &map { … }` — a map-typed identifier in the
            // iterator expression. Identifiers followed by `.` are
            // left to the method rule above (avoids double-reporting
            // `for k in map.keys()`).
            "for" => {
                if let Some((line, name)) = for_loop_over_map(code, k, types) {
                    found.push((
                        line,
                        NondetSource::MapIteration,
                        format!("`for` over map-typed `{name}` has nondeterministic order"),
                    ));
                }
            }
            "now" if prev == Some("::") => {
                if matches!(prev2, Some("Instant") | Some("SystemTime")) {
                    found.push((
                        token.line,
                        NondetSource::WallClock,
                        format!(
                            "{}::now() on a deterministic-output path",
                            prev2.unwrap_or_default()
                        ),
                    ));
                }
            }
            "var" | "var_os" if prev == Some("::") && prev2 == Some("env") => {
                match code.kind(k + 2).zip(code.text(k + 2)) {
                    Some((TokenKind::Str, literal)) if next == Some("(") => {
                        let name = literal.trim_matches('"');
                        if !ALLOWED_ENV_VARS.contains(&name) {
                            found.push((
                                token.line,
                                NondetSource::EnvRead,
                                format!(
                                    "env::{text}(\"{name}\") is outside the declared set {ALLOWED_ENV_VARS:?}"
                                ),
                            ));
                        }
                    }
                    _ => {
                        found.push((
                            token.line,
                            NondetSource::EnvRead,
                            format!("env::{text} with a non-literal variable name"),
                        ));
                    }
                }
            }
            "current" if prev == Some("::") && prev2 == Some("thread") => {
                found.push((
                    token.line,
                    NondetSource::ThreadIdentity,
                    "thread::current() — worker identity must not influence results".to_string(),
                ));
            }
            "thread_rng" if next == Some("(") => {
                found.push((
                    token.line,
                    NondetSource::UnseededRng,
                    "thread_rng() is entropy-seeded; derive the RNG from task_seed".to_string(),
                ));
            }
            "from_entropy" if matches!(prev, Some("::") | Some(".")) && next == Some("(") => {
                found.push((
                    token.line,
                    NondetSource::UnseededRng,
                    "from_entropy() is entropy-seeded; derive the RNG from task_seed".to_string(),
                ));
            }
            "OsRng" => {
                found.push((
                    token.line,
                    NondetSource::UnseededRng,
                    "OsRng draws from the OS entropy pool; derive the RNG from task_seed"
                        .to_string(),
                ));
            }
            "lock" if prev == Some(".") && next == Some("(") => {
                if let Some(recv) = receiver(&types.float_mutex_idents) {
                    found.push((
                        token.line,
                        NondetSource::FloatReduction,
                        format!(
                            "`{recv}` accumulates floats across workers; `a + b + c` depends on completion order"
                        ),
                    ));
                }
            }
            _ => {}
        }
    }
    found
}

/// For a `for` keyword at position `k`, finds the iterator expression
/// (between the depth-0 `in` and the loop body `{`) and returns the
/// first map-typed identifier in it that is not a method receiver.
fn for_loop_over_map(code: &Code<'_>, k: usize, types: &FileTypes) -> Option<(usize, String)> {
    // Locate the `in` that ends the pattern (depth-0: tuple patterns
    // like `for (k, v) in …` contain parens).
    let mut depth = 0i32;
    let mut in_pos = None;
    for (j, token) in code.tokens.iter().enumerate().skip(k + 1) {
        match token.text(code.source) {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "in" if depth == 0 && token.kind == TokenKind::Ident => {
                in_pos = Some(j);
                break;
            }
            "{" if depth == 0 => return None,
            _ => {}
        }
    }
    for (j, token) in code.tokens.iter().enumerate().skip(in_pos? + 1) {
        let text = token.text(code.source);
        if text == "{" {
            return None;
        }
        if token.kind == TokenKind::Ident
            && types.map_idents.contains(text)
            && code.text(j + 1) != Some(".")
        {
            return Some((token.line, text.to_string()));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::Workspace;

    fn run(src: &str, entries: &[EntryPoint]) -> JsonReport {
        let ws = Workspace::from_sources(&[("bench", "crates/bench/src/lib.rs", src)]);
        let mut report = JsonReport::default();
        run_determinism(&ws, &CallGraph::build(&ws), entries, &mut report);
        report
    }

    fn entry(name: &'static str) -> Vec<EntryPoint> {
        vec![EntryPoint::function(name)]
    }

    #[test]
    fn map_iteration_is_found_with_chains() {
        let src = "struct S { objects: std::collections::HashMap<u64, u64> }\nimpl S {\n    fn tally(&self) -> u64 { self.objects.values().sum() }\n}\npub fn report(s: &S) -> u64 { helper(s) }\nfn helper(s: &S) -> u64 { s.tally() }\n";
        let report = run(src, &entry("report"));
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        let finding = &report.findings[0];
        assert_eq!(
            finding.rule,
            Rule::Nondeterminism(NondetSource::MapIteration)
        );
        assert_eq!(finding.line, 3);
        assert_eq!(finding.chain, vec!["report", "helper", "S::tally"]);
    }

    #[test]
    fn btreemap_and_get_only_hashmap_are_clean() {
        let src = "struct S { sorted: std::collections::BTreeMap<u64, u64>, raw: std::collections::HashMap<u64, u64> }\nimpl S {\n    fn sum(&self) -> u64 { self.sorted.values().sum::<u64>() + self.raw.get(&1).copied().unwrap_or(0) }\n}\npub fn report(s: &S) -> u64 { s.sum() }\n";
        let report = run(src, &entry("report"));
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn for_loop_over_map_is_found() {
        let src = "pub fn report() -> u64 {\n    let mut seen = std::collections::HashSet::new();\n    seen.insert(3u64);\n    let mut total = 0;\n    for value in &seen {\n        total += value;\n    }\n    total\n}\n";
        let report = run(src, &entry("report"));
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert_eq!(
            report.findings[0].rule,
            Rule::Nondeterminism(NondetSource::MapIteration)
        );
        assert_eq!(report.findings[0].line, 5);
    }

    #[test]
    fn for_loop_over_vec_and_range_are_clean() {
        let src = "pub fn report(items: Vec<u64>) -> u64 {\n    let mut total = 0;\n    for item in &items {\n        total += item;\n    }\n    for i in 0..4u64 {\n        total += i;\n    }\n    total\n}\n";
        let report = run(src, &entry("report"));
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn inferred_map_binding_is_typed() {
        let src = "pub fn report() -> usize {\n    let mut counts = std::collections::HashMap::new();\n    counts.insert(1u64, 2u64);\n    counts.keys().count()\n}\n";
        let report = run(src, &entry("report"));
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert_eq!(
            report.findings[0].rule,
            Rule::Nondeterminism(NondetSource::MapIteration)
        );
    }

    #[test]
    fn wall_clock_is_found_and_allowlisted_in_timing_fns() {
        let src = "use std::time::Instant;\npub fn report() -> f64 { helper() }\nfn helper() -> f64 { Instant::now().elapsed().as_secs_f64() }\npub fn run_tasks() -> f64 { Instant::now().elapsed().as_secs_f64() }\n";
        let report = run(
            src,
            &[
                EntryPoint::function("report"),
                EntryPoint::function("run_tasks"),
            ],
        );
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert_eq!(
            report.findings[0].rule,
            Rule::Nondeterminism(NondetSource::WallClock)
        );
        assert_eq!(report.findings[0].chain, vec!["report", "helper"]);
        assert_eq!(report.summary.allowlisted, 1);
    }

    #[test]
    fn env_reads_outside_the_declared_set_are_found() {
        let src = "pub fn report(name: &str) -> bool {\n    let _ok = std::env::var(\"SOS_THREADS\").is_ok();\n    let _also = std::env::var(\"SOS_SEED\").is_ok();\n    let _bad = std::env::var(\"HOME\").is_ok();\n    std::env::var(name).is_ok()\n}\n";
        let report = run(src, &entry("report"));
        assert_eq!(report.findings.len(), 2, "{:?}", report.findings);
        assert!(report.findings[0].message.contains("HOME"));
        assert!(report.findings[1].message.contains("non-literal"));
    }

    #[test]
    fn thread_identity_and_entropy_rngs_are_found() {
        let src = "pub fn report() {\n    let _who = std::thread::current();\n    let _rng = StdRng::from_entropy();\n    let _tr = thread_rng();\n    let _os = OsRng;\n}\n";
        let report = run(src, &entry("report"));
        let sources: Vec<Rule> = report.findings.iter().map(|f| f.rule).collect();
        assert_eq!(
            sources,
            vec![
                Rule::Nondeterminism(NondetSource::ThreadIdentity),
                Rule::Nondeterminism(NondetSource::UnseededRng),
                Rule::Nondeterminism(NondetSource::UnseededRng),
                Rule::Nondeterminism(NondetSource::UnseededRng),
            ]
        );
    }

    #[test]
    fn seeded_rng_is_clean() {
        let src = "pub fn report(seed: u64) -> u64 {\n    let mut rng = StdRng::seed_from_u64(seed);\n    rng.next_u64()\n}\n";
        let report = run(src, &entry("report"));
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn float_mutex_lock_is_found_and_int_mutex_is_clean() {
        let src = "pub fn report() -> f64 {\n    let busy: std::sync::Mutex<f64> = std::sync::Mutex::new(0.0);\n    let hits: std::sync::Mutex<u64> = std::sync::Mutex::new(0);\n    *hits.lock().unwrap() += 1;\n    *busy.lock().unwrap()\n}\npub fn run_tasks() -> f64 {\n    let busy: std::sync::Mutex<f64> = std::sync::Mutex::new(0.0);\n    *busy.lock().unwrap()\n}\n";
        let report = run(
            src,
            &[
                EntryPoint::function("report"),
                EntryPoint::function("run_tasks"),
            ],
        );
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert_eq!(
            report.findings[0].rule,
            Rule::Nondeterminism(NondetSource::FloatReduction)
        );
        assert_eq!(report.summary.allowlisted, 1);
    }

    #[test]
    fn suppressions_silence_and_count() {
        let src = "pub fn report() -> f64 {\n    // sos-lint: allow(nondeterminism, \"diagnostic timing, stderr only\")\n    let t = std::time::Instant::now();\n    t.elapsed().as_secs_f64()\n}\n";
        let report = run(src, &entry("report"));
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.summary.suppressed, 1);
    }

    #[test]
    fn test_functions_are_not_scanned() {
        let src = "pub fn report() -> u64 { 3 }\n#[cfg(test)]\nmod tests {\n    fn helper() { let m = std::collections::HashMap::new(); let _ = m.keys(); }\n}\n";
        let report = run(src, &entry("report"));
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn test_only_map_bindings_do_not_type_reachable_names() {
        let src = "pub fn report(positions: &[u64]) -> u64 {\n    let mut total = 0;\n    for pos in positions {\n        total += pos;\n    }\n    total\n}\n#[cfg(test)]\nmod tests {\n    fn helper() -> usize { let mut positions = std::collections::HashSet::new(); positions.insert(1u64); positions.len() }\n}\n";
        let report = run(src, &entry("report"));
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn missing_entry_points_are_reported() {
        let report = run(
            "pub fn report() {}\n",
            &[EntryPoint::function("report"), EntryPoint::function("gone")],
        );
        assert_eq!(report.summary.entry_points, vec!["report"]);
        assert_eq!(report.summary.missing_entry_points, vec!["gone"]);
    }

    #[test]
    fn default_entry_points_cover_experiments_runner_and_kernels() {
        let labels: Vec<String> = DETERMINISTIC_ENTRY_POINTS
            .iter()
            .map(|e| e.label())
            .collect();
        assert_eq!(
            labels,
            [
                "end_to_end_report",
                "crash_sweep_report",
                "wl_ablation_report",
                "capacity_variance_report",
                "flash_cache_report",
                "run_tasks",
                "task_seed",
                "thread_count",
            ]
        );
    }
}
