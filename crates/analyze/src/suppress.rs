//! Inline lint suppressions with mandatory justifications.
//!
//! Syntax, in a line comment:
//!
//! ```text
//! // sos-lint: allow(<rule>, "<justification>")
//! ```
//!
//! A suppression with no justification string is itself a finding
//! (`bad-suppression`) — the whole point of the mechanism is that every
//! accepted risk carries a written argument for why it is safe. So is
//! one naming a rule outside [`SUPPRESSIBLE_RULES`]: a suppression that
//! can never match a finding would otherwise sit in the tree unnoticed.
//!
//! Attachment rules:
//!
//! * A **trailing** comment (code earlier on the same line) suppresses
//!   findings of that rule on its own line.
//! * A **standalone** comment line suppresses the next line that holds
//!   code.
//! * When the suppressed line is a function signature (`fn` keyword
//!   line), the suppression covers the **whole function body** — this
//!   is the form used for invariant-dense code (ECC math, the recovery
//!   scan) where per-line annotations would drown the code.

use crate::determinism::NONDETERMINISM_RULE;
use crate::lint::NO_LOSSY_CAST_RULE;
use crate::panicpath::PANIC_PATH_RULE;
use crate::parse::lexer::TokenKind;
use crate::parse::SourceFile;

/// The rules a suppression may name: every rule sos-lint runs except
/// `bad-suppression`, which is deliberately not suppressible.
pub const SUPPRESSIBLE_RULES: &[&str] = &[PANIC_PATH_RULE, NONDETERMINISM_RULE, NO_LOSSY_CAST_RULE];

/// One parsed suppression and the line range it covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// The rule being allowed (e.g. `panic-path`, `no-lossy-cast`).
    pub rule: String,
    /// The mandatory human-written justification.
    pub justification: String,
    /// Line the comment itself is on.
    pub comment_line: usize,
    /// Inclusive line range the suppression covers.
    pub lines: (usize, usize),
}

/// Every suppression in one file, plus the malformed ones.
#[derive(Debug, Clone, Default)]
pub struct SuppressionSet {
    /// Well-formed suppressions.
    pub entries: Vec<Suppression>,
    /// `(line, problem)` for comments that look like suppressions but
    /// do not parse — each becomes a `bad-suppression` finding.
    pub malformed: Vec<(usize, String)>,
}

impl SuppressionSet {
    /// Does this set allow `rule` findings on `line`?
    pub fn allows(&self, rule: &str, line: usize) -> bool {
        self.entries
            .iter()
            .any(|s| s.rule == rule && line >= s.lines.0 && line <= s.lines.1)
    }

    /// Collects suppressions from a parsed file's comment tokens.
    pub fn collect(file: &SourceFile) -> SuppressionSet {
        let mut set = SuppressionSet::default();
        for (index, token) in file.tokens.iter().enumerate() {
            if token.kind != TokenKind::LineComment {
                continue;
            }
            let text = token.text(&file.source);
            let Some(at) = text.find("sos-lint:") else {
                continue;
            };
            let directive = text[at + "sos-lint:".len()..].trim();
            match parse_allow(directive) {
                Ok((rule, justification)) => {
                    let target = target_line(file, index, token.line);
                    let lines = expand_fn_scope(file, target);
                    set.entries.push(Suppression {
                        rule,
                        justification,
                        comment_line: token.line,
                        lines,
                    });
                }
                Err(problem) => set.malformed.push((token.line, problem)),
            }
        }
        set
    }
}

/// Parses `allow(<rule>, "<justification>")`.
fn parse_allow(directive: &str) -> Result<(String, String), String> {
    let Some(rest) = directive.strip_prefix("allow") else {
        return Err(format!("expected `allow(...)`, found `{directive}`"));
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return Err("expected `(` after `allow`".to_string());
    };
    let Some(comma) = rest.find(',') else {
        return Err("missing justification: use allow(<rule>, \"<why>\")".to_string());
    };
    let rule = rest[..comma].trim().to_string();
    if rule.is_empty()
        || !rule
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
    {
        return Err(format!("bad rule name `{rule}`"));
    }
    if !SUPPRESSIBLE_RULES.contains(&rule.as_str()) {
        return Err(format!(
            "`{rule}` is not a rule sos-lint can suppress ({})",
            SUPPRESSIBLE_RULES.join(", ")
        ));
    }
    let tail = rest[comma + 1..].trim();
    let Some(tail) = tail.strip_prefix('"') else {
        return Err("justification must be a quoted string".to_string());
    };
    let Some(close) = tail.find('"') else {
        return Err("unterminated justification string".to_string());
    };
    let justification = tail[..close].trim().to_string();
    if justification.is_empty() {
        return Err("justification must not be empty".to_string());
    }
    let after = tail[close + 1..].trim_start();
    if !after.starts_with(')') {
        return Err("expected `)` after justification".to_string());
    }
    Ok((rule, justification))
}

/// The code line a suppression comment attaches to: its own line when
/// code precedes the comment on it, otherwise the next line with a
/// non-comment token.
fn target_line(file: &SourceFile, comment_index: usize, comment_line: usize) -> usize {
    let trailing = file.tokens[..comment_index]
        .iter()
        .rev()
        .take_while(|t| t.line == comment_line)
        .any(|t| !t.is_comment());
    if trailing {
        return comment_line;
    }
    file.tokens[comment_index + 1..]
        .iter()
        .find(|t| !t.is_comment())
        .map(|t| t.line)
        .unwrap_or(comment_line)
}

/// Expands a target line to the whole function when it is a signature
/// line; otherwise covers just that line.
fn expand_fn_scope(file: &SourceFile, target: usize) -> (usize, usize) {
    for item in &file.items.fns {
        if item.line == target {
            return (item.line, item.end_line);
        }
    }
    (target, target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::SourceFile;
    use std::path::PathBuf;

    fn parse(source: &str) -> SourceFile {
        SourceFile::parse(
            PathBuf::from("crates/x/src/lib.rs"),
            "x".into(),
            source.into(),
        )
    }

    #[test]
    fn trailing_suppression_covers_its_line() {
        let file = parse(
            "fn f(x: &[u8]) -> u8 {\n    x[0] // sos-lint: allow(panic-path, \"caller checks len\")\n}\n",
        );
        let set = SuppressionSet::collect(&file);
        assert_eq!(set.entries.len(), 1);
        assert!(set.allows("panic-path", 2));
        assert!(!set.allows("panic-path", 1));
        assert!(!set.allows("no-unwrap", 2));
        assert_eq!(set.entries[0].justification, "caller checks len");
    }

    #[test]
    fn standalone_suppression_covers_next_code_line() {
        let file = parse(
            "fn f(x: &[u8]) -> u8 {\n    // sos-lint: allow(panic-path, \"bounds checked above\")\n    x[0]\n}\n",
        );
        let set = SuppressionSet::collect(&file);
        assert!(set.allows("panic-path", 3));
        assert!(!set.allows("panic-path", 2));
    }

    #[test]
    fn fn_signature_suppression_covers_the_body() {
        let file = parse(
            "// sos-lint: allow(panic-path, \"GF tables cover the full index domain\")\nfn gf_mul(a: u32, b: u32) -> u32 {\n    let x = TABLE[a as usize];\n    TABLE[(x + b) as usize]\n}\nfn after() {}\n",
        );
        let set = SuppressionSet::collect(&file);
        assert!(set.allows("panic-path", 2));
        assert!(set.allows("panic-path", 3));
        assert!(set.allows("panic-path", 4));
        assert!(set.allows("panic-path", 5));
        assert!(!set.allows("panic-path", 6));
    }

    #[test]
    fn missing_justification_is_malformed() {
        for bad in [
            "// sos-lint: allow(panic-path)",
            "// sos-lint: allow(panic-path, )",
            "// sos-lint: allow(panic-path, \"\")",
            "// sos-lint: allow(panic-path, \"unterminated)",
            "// sos-lint: deny(panic-path, \"x\")",
            "// sos-lint: allow(Panic Path, \"x\")",
        ] {
            let file = parse(&format!("{bad}\nfn f() {{}}\n"));
            let set = SuppressionSet::collect(&file);
            assert!(set.entries.is_empty(), "{bad} parsed");
            assert_eq!(set.malformed.len(), 1, "{bad} not reported");
        }
    }

    #[test]
    fn suppression_naming_a_rule_sos_lint_does_not_run_is_malformed() {
        for rule in ["no-unwrap", "pub-docs", "bad-suppression", "no-such-rule"] {
            let file = parse(&format!("// sos-lint: allow({rule}, \"x\")\nfn f() {{}}\n"));
            let set = SuppressionSet::collect(&file);
            assert!(set.entries.is_empty(), "{rule} parsed");
            assert_eq!(set.malformed.len(), 1, "{rule} not reported");
            assert!(set.malformed[0].1.contains(rule), "{:?}", set.malformed);
        }
        for rule in SUPPRESSIBLE_RULES {
            let file = parse(&format!("// sos-lint: allow({rule}, \"x\")\nfn f() {{}}\n"));
            let set = SuppressionSet::collect(&file);
            assert_eq!(set.entries.len(), 1, "{rule} rejected: {:?}", set.malformed);
        }
    }

    #[test]
    fn suppression_inside_string_literal_is_ignored() {
        let file = parse(
            "fn f() {\n    let s = \"// sos-lint: allow(no-unwrap, \\\"fake\\\")\";\n    let _ = s;\n}\n",
        );
        let set = SuppressionSet::collect(&file);
        assert!(set.entries.is_empty());
        assert!(set.malformed.is_empty());
    }
}
