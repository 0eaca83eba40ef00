//! The analysis report: every finding of the three passes and the
//! run's counters, printed by `sos-lint` as text or, with
//! `--format json`, as machine-readable JSON.
//!
//! [`analyze`] runs the lint rules ([`crate::lint`]), the panic-freedom
//! pass ([`crate::panicpath`]) and the determinism pass
//! ([`crate::determinism`]) over one shared [`CallGraph`]; each pass
//! adds its [`Finding`]s and counters to the one [`JsonReport`].
//!
//! The vendored `serde` is marker-traits only (the workspace has no
//! registry access), so the report types derive those markers for API
//! compatibility but carry their own JSON writer; unit tests pin its
//! output byte for byte.

use crate::callgraph::CallGraph;
use crate::determinism::{
    run_determinism, NondetSource, DETERMINISTIC_ENTRY_POINTS, NONDETERMINISM_RULE,
};
use crate::lint::run_lints_on;
use crate::panicpath::{run_panic_path, PanicConstruct, PANIC_PATH_ENTRY_POINTS, PANIC_PATH_RULE};
use crate::parse::Workspace;
use crate::suppress::SuppressionSet;
use serde::{Deserialize, Serialize};
use std::fmt::{self, Write as _};
use std::path::PathBuf;

/// Report format version, bumped on breaking shape changes.
/// Version 2 added the determinism-pass counters
/// (`determinism_reachable_fns`, `allowlisted`).
pub const REPORT_VERSION: u32 = 2;

/// The rule a finding breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// A token-stream lint rule (`no-lossy-cast`, `bad-suppression`).
    Lint(&'static str),
    /// A panicking construct reachable from a panic-path entry point.
    PanicPath(PanicConstruct),
    /// A nondeterminism source reachable from a determinism entry point.
    Nondeterminism(NondetSource),
}

impl Rule {
    /// The name an inline suppression uses for this rule: a lint rule's
    /// own name, or its pass's family (`panic-path`, `nondeterminism`).
    pub(crate) fn family(self) -> &'static str {
        match self {
            Rule::Lint(name) => name,
            Rule::PanicPath(_) => PANIC_PATH_RULE,
            Rule::Nondeterminism(_) => NONDETERMINISM_RULE,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rule::Lint(name) => f.write_str(name),
            Rule::PanicPath(construct) => write!(f, "{PANIC_PATH_RULE}/{construct}"),
            Rule::Nondeterminism(source) => write!(f, "{NONDETERMINISM_RULE}/{source}"),
        }
    }
}

/// One finding of any pass: a lint-rule hit, a panic-path construct or
/// a nondeterminism source.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Finding {
    /// The rule that fired.
    pub rule: Rule,
    /// File path relative to the workspace root.
    pub file: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
    /// Call chain from an entry point to the containing function
    /// (empty for plain lint findings).
    pub chain: Vec<String>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )?;
        if !self.chain.is_empty() {
            write!(f, " (via {})", self.chain.join(" -> "))?;
        }
        Ok(())
    }
}

/// Aggregate counters for the run.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ReportSummary {
    /// Non-test functions reachable from the panic-path entry points.
    pub reachable_fns: usize,
    /// Non-test functions reachable from the determinism entry points.
    pub determinism_reachable_fns: usize,
    /// Call sites in reachable functions that resolved to no workspace
    /// definition — recorded, never silently dropped. A function either
    /// reachability pass reaches is counted once, however many reach it.
    pub unresolved_calls: usize,
    /// Findings silenced by justified suppressions.
    pub suppressed: usize,
    /// Clock/float-reduction hits inside the stderr-timing allowlist.
    pub allowlisted: usize,
    /// Entry points that resolved to a definition.
    pub entry_points: Vec<String>,
    /// Configured entry points with no matching definition — a rename
    /// hazard, treated as a gate failure by `sos-lint`.
    pub missing_entry_points: Vec<String>,
}

/// The whole report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JsonReport {
    /// Format version ([`REPORT_VERSION`]).
    pub version: u32,
    /// All findings: lint rules, then panic-path, then nondeterminism,
    /// each pass's sorted by file and line.
    pub findings: Vec<Finding>,
    /// Run counters.
    pub summary: ReportSummary,
}

impl Default for JsonReport {
    fn default() -> Self {
        JsonReport {
            version: REPORT_VERSION,
            findings: Vec::new(),
            summary: ReportSummary::default(),
        }
    }
}

/// Runs every pass over `workspace` — the lint rules, then the
/// panic-freedom and determinism passes over one call graph — and
/// returns the report `sos-lint` prints and gates on.
pub fn analyze(workspace: &Workspace) -> JsonReport {
    let graph = CallGraph::build(workspace);
    let mut report = JsonReport::default();
    run_lints_on(workspace, &mut report);
    let panic_path = run_panic_path(workspace, &graph, PANIC_PATH_ENTRY_POINTS, &mut report);
    let determinism = run_determinism(workspace, &graph, DETERMINISTIC_ENTRY_POINTS, &mut report);
    report.summary.unresolved_calls =
        graph.unresolved_total(panic_path.into_iter().chain(determinism));
    let summary = &mut report.summary;
    for labels in [&mut summary.entry_points, &mut summary.missing_entry_points] {
        labels.sort();
        labels.dedup();
    }
    report
}

impl JsonReport {
    /// Records `finding`, or counts it as suppressed when `suppressions`
    /// allow its rule on its line.
    pub(crate) fn admit(&mut self, suppressions: &SuppressionSet, finding: Finding) {
        if suppressions.allows(finding.rule.family(), finding.line) {
            self.summary.suppressed += 1;
        } else {
            self.findings.push(finding);
        }
    }

    /// Sorts the findings from index `first` on (one pass's) by file
    /// and line, keeping emission order within a line.
    pub(crate) fn sort_from(&mut self, first: usize) {
        if let Some(findings) = self.findings.get_mut(first..) {
            findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        }
    }

    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"version\": {},", self.version);
        out.push_str("  \"findings\": [");
        for (i, finding) in self.findings.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"rule\": {},", quote(&finding.rule.to_string()));
            let _ = writeln!(
                out,
                "      \"file\": {},",
                quote(&finding.file.display().to_string())
            );
            let _ = writeln!(out, "      \"line\": {},", finding.line);
            let _ = writeln!(out, "      \"message\": {},", quote(&finding.message));
            let _ = writeln!(out, "      \"chain\": {}", string_array(&finding.chain));
            out.push_str("    }");
        }
        out.push_str(if self.findings.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"summary\": {\n");
        let s = &self.summary;
        let _ = writeln!(out, "    \"reachable_fns\": {},", s.reachable_fns);
        let _ = writeln!(
            out,
            "    \"determinism_reachable_fns\": {},",
            s.determinism_reachable_fns
        );
        let _ = writeln!(out, "    \"unresolved_calls\": {},", s.unresolved_calls);
        let _ = writeln!(out, "    \"suppressed\": {},", s.suppressed);
        let _ = writeln!(out, "    \"allowlisted\": {},", s.allowlisted);
        let _ = writeln!(
            out,
            "    \"entry_points\": {},",
            string_array(&s.entry_points)
        );
        let _ = writeln!(
            out,
            "    \"missing_entry_points\": {}",
            string_array(&s.missing_entry_points)
        );
        out.push_str("  }\n}\n");
        out
    }
}

/// JSON string literal with escaping.
fn quote(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `["a", "b"]` on one line.
fn string_array(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| quote(s)).collect();
    format!("[{}]", quoted.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JsonReport {
        JsonReport {
            version: REPORT_VERSION,
            findings: vec![
                Finding {
                    rule: Rule::PanicPath(PanicConstruct::Indexing),
                    file: PathBuf::from("crates/ftl/src/gc.rs"),
                    line: 42,
                    message: "indexing `blocks[…]` may panic \"out of bounds\"".to_string(),
                    chain: vec![
                        "Ftl::gc_once".to_string(),
                        "Ftl::relocate_valid".to_string(),
                    ],
                },
                Finding {
                    rule: Rule::Lint("no-lossy-cast"),
                    file: PathBuf::from("crates/flash/src/device.rs"),
                    line: 7,
                    message: "lossy `as u32` cast in storage-stack code (use u32::try_from)"
                        .to_string(),
                    chain: Vec::new(),
                },
            ],
            summary: ReportSummary {
                reachable_fns: 31,
                determinism_reachable_fns: 57,
                unresolved_calls: 120,
                suppressed: 9,
                allowlisted: 7,
                entry_points: vec!["Ftl::recover".to_string(), "HostFs::remount".to_string()],
                missing_entry_points: vec!["Ftl::gone".to_string()],
            },
        }
    }

    const SAMPLE_JSON: &str = r#"{
  "version": 2,
  "findings": [
    {
      "rule": "panic-path/indexing",
      "file": "crates/ftl/src/gc.rs",
      "line": 42,
      "message": "indexing `blocks[…]` may panic \"out of bounds\"",
      "chain": ["Ftl::gc_once", "Ftl::relocate_valid"]
    },
    {
      "rule": "no-lossy-cast",
      "file": "crates/flash/src/device.rs",
      "line": 7,
      "message": "lossy `as u32` cast in storage-stack code (use u32::try_from)",
      "chain": []
    }
  ],
  "summary": {
    "reachable_fns": 31,
    "determinism_reachable_fns": 57,
    "unresolved_calls": 120,
    "suppressed": 9,
    "allowlisted": 7,
    "entry_points": ["Ftl::recover", "HostFs::remount"],
    "missing_entry_points": ["Ftl::gone"]
  }
}
"#;

    #[test]
    fn sample_report_matches_golden_json() {
        assert_eq!(sample().to_json(), SAMPLE_JSON);
    }

    #[test]
    fn empty_report_matches_golden_json() {
        let report = JsonReport {
            version: REPORT_VERSION,
            findings: Vec::new(),
            summary: ReportSummary::default(),
        };
        let golden = r#"{
  "version": 2,
  "findings": [],
  "summary": {
    "reachable_fns": 0,
    "determinism_reachable_fns": 0,
    "unresolved_calls": 0,
    "suppressed": 0,
    "allowlisted": 0,
    "entry_points": [],
    "missing_entry_points": []
  }
}
"#;
        assert_eq!(report.to_json(), golden);
    }

    #[test]
    fn a_function_both_passes_reach_counts_its_unresolved_calls_once() {
        let src = "pub fn run_tasks() { external(); }\n";
        let ws = Workspace::from_sources(&[("bench", "crates/bench/src/runner.rs", src)]);
        let report = analyze(&ws);
        assert!(report.summary.reachable_fns > 0 && report.summary.determinism_reachable_fns > 0);
        assert!(report.to_json().contains("\"unresolved_calls\": 1,"));
    }

    #[test]
    fn escapes_survive() {
        let mut report = sample();
        report.findings[0].message = "tab\there \"quoted\" back\\slash\nnewline\u{1}".to_string();
        let golden = SAMPLE_JSON.replace(
            r#""indexing `blocks[…]` may panic \"out of bounds\"""#,
            r#""tab\there \"quoted\" back\\slash\nnewline\u0001""#,
        );
        assert_ne!(golden, SAMPLE_JSON);
        assert_eq!(report.to_json(), golden);
    }
}
