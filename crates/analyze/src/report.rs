//! Machine-readable lint/panic-path report: `sos-lint --format json`.
//!
//! The vendored `serde` is marker-traits only (the workspace has no
//! registry access), so the report types derive those markers for API
//! compatibility but carry their own JSON writer; unit tests pin its
//! output byte for byte.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Report format version, bumped on breaking shape changes.
/// Version 2 added the determinism-pass counters
/// (`determinism_reachable_fns`, `allowlisted`).
pub const REPORT_VERSION: u32 = 2;

/// One finding in the JSON report — a lint-rule hit, a panic-path
/// construct, or a nondeterminism source.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReportFinding {
    /// Rule name (`no-unwrap`, `panic-path`, …).
    pub rule: String,
    /// File path relative to the workspace root.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
    /// Call chain from an entry point (empty for plain lint findings).
    pub chain: Vec<String>,
}

/// Aggregate counters for the run.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ReportSummary {
    /// Non-test functions reachable from the panic-path entry points.
    pub reachable_fns: usize,
    /// Non-test functions reachable from the determinism entry points.
    pub determinism_reachable_fns: usize,
    /// Call sites that resolved to no workspace definition.
    pub unresolved_calls: usize,
    /// Findings silenced by justified suppressions.
    pub suppressed: usize,
    /// Clock/float-reduction hits inside the stderr-timing allowlist.
    pub allowlisted: usize,
    /// Entry points that resolved to a definition.
    pub entry_points: Vec<String>,
    /// Configured entry points with no matching definition.
    pub missing_entry_points: Vec<String>,
}

/// The whole report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JsonReport {
    /// Format version ([`REPORT_VERSION`]).
    pub version: u32,
    /// All findings, lint rules first, then panic-path.
    pub findings: Vec<ReportFinding>,
    /// Run counters.
    pub summary: ReportSummary,
}

impl JsonReport {
    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"version\": {},", self.version);
        out.push_str("  \"findings\": [");
        for (i, finding) in self.findings.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"rule\": {},", quote(&finding.rule));
            let _ = writeln!(out, "      \"file\": {},", quote(&finding.file));
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
                ReportFinding {
                    rule: "panic-path".to_string(),
                    file: "crates/ftl/src/gc.rs".to_string(),
                    line: 42,
                    message: "indexing `blocks[…]` may panic \"out of bounds\"".to_string(),
                    chain: vec![
                        "Ftl::gc_once".to_string(),
                        "Ftl::relocate_valid".to_string(),
                    ],
                },
                ReportFinding {
                    rule: "no-unwrap".to_string(),
                    file: "crates/flash/src/device.rs".to_string(),
                    line: 7,
                    message: ".unwrap() in non-test code".to_string(),
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
      "rule": "panic-path",
      "file": "crates/ftl/src/gc.rs",
      "line": 42,
      "message": "indexing `blocks[…]` may panic \"out of bounds\"",
      "chain": ["Ftl::gc_once", "Ftl::relocate_valid"]
    },
    {
      "rule": "no-unwrap",
      "file": "crates/flash/src/device.rs",
      "line": 7,
      "message": ".unwrap() in non-test code",
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
