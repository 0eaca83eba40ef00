//! Golden test for the token-stream lint port (PR 3).
//!
//! The five original rules (no-unwrap, no-f32, pub-docs, no-sleep,
//! no-debug-macros) were rewritten from a line-blanking scanner onto
//! the spanned token stream. This test vendors the *legacy* scanner
//! verbatim as an oracle and asserts both implementations produce
//! identical `(file, line, rule, message)` findings over a fixture set
//! that exercises every rule, comment/string shadowing, and
//! `#[cfg(test)]` regions.
//!
//! The fixtures deliberately avoid the three intentional behaviour
//! changes of the port, which are covered by their own unit tests:
//!
//! * `#[cfg(any(test, …))]` regions (legacy missed them),
//! * `.unwrap()` split across lines by rustfmt (legacy missed it),
//! * `my_thread::sleep` (legacy substring match fired on it).

use sos_analyze::{run_lints_on, JsonReport, Rule, Workspace};
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------
// Vendored legacy implementation (pre-PR-3 `lint.rs`), trimmed to what
// the five ported rules need. Do not "improve" this code: it is the
// oracle.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
struct LegacyFinding {
    file: PathBuf,
    line: usize,
    rule: &'static str,
    message: String,
}

struct PreparedFile {
    raw: Vec<String>,
    cleaned: Vec<String>,
    in_test: Vec<bool>,
}

#[derive(Clone, Copy, PartialEq)]
enum ScanState {
    Normal,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    Char,
}

fn clean_source(source: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut state = ScanState::Normal;
    for line in source.lines() {
        let chars: Vec<char> = line.chars().collect();
        let mut cleaned = String::with_capacity(chars.len());
        let mut i = 0usize;
        if state == ScanState::LineComment {
            state = ScanState::Normal;
        }
        while i < chars.len() {
            let c = chars[i];
            let next = chars.get(i + 1).copied();
            match state {
                ScanState::Normal => match c {
                    '/' if next == Some('/') => {
                        let third = chars.get(i + 2).copied();
                        if third == Some('/') || third == Some('!') {
                            cleaned.push_str("//");
                            cleaned.push(third.unwrap_or('/'));
                        }
                        state = ScanState::LineComment;
                        i = chars.len();
                        continue;
                    }
                    '/' if next == Some('*') => {
                        state = ScanState::BlockComment(1);
                        cleaned.push(' ');
                        i += 2;
                        continue;
                    }
                    '"' => {
                        state = ScanState::Str;
                        cleaned.push(' ');
                    }
                    'r' | 'b' if is_raw_string_start(&chars, i) => {
                        let (hashes, consumed) = raw_string_open(&chars, i);
                        state = ScanState::RawStr(hashes);
                        for _ in 0..consumed {
                            cleaned.push(' ');
                        }
                        i += consumed;
                        continue;
                    }
                    '\'' => {
                        if is_char_literal(&chars, i) {
                            state = ScanState::Char;
                        }
                        cleaned.push(if is_char_literal(&chars, i) {
                            ' '
                        } else {
                            '\''
                        });
                    }
                    _ => cleaned.push(c),
                },
                ScanState::LineComment => {
                    i = chars.len();
                    continue;
                }
                ScanState::BlockComment(depth) => {
                    if c == '*' && next == Some('/') {
                        state = if depth == 1 {
                            ScanState::Normal
                        } else {
                            ScanState::BlockComment(depth - 1)
                        };
                        cleaned.push(' ');
                        i += 2;
                        continue;
                    }
                    if c == '/' && next == Some('*') {
                        state = ScanState::BlockComment(depth + 1);
                        cleaned.push(' ');
                        i += 2;
                        continue;
                    }
                    cleaned.push(' ');
                }
                ScanState::Str => {
                    if c == '\\' {
                        cleaned.push(' ');
                        i += 2;
                        continue;
                    }
                    if c == '"' {
                        state = ScanState::Normal;
                    }
                    cleaned.push(' ');
                }
                ScanState::RawStr(hashes) => {
                    if c == '"' && closes_raw_string(&chars, i, hashes) {
                        state = ScanState::Normal;
                        for _ in 0..=hashes as usize {
                            cleaned.push(' ');
                        }
                        i += 1 + hashes as usize;
                        continue;
                    }
                    cleaned.push(' ');
                }
                ScanState::Char => {
                    if c == '\\' {
                        cleaned.push(' ');
                        i += 2;
                        continue;
                    }
                    if c == '\'' {
                        state = ScanState::Normal;
                    }
                    cleaned.push(' ');
                }
            }
            i += 1;
        }
        out.push(cleaned);
    }
    out
}

fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
        if chars.get(j) != Some(&'r') {
            return false;
        }
    }
    if chars.get(j) != Some(&'r') {
        return false;
    }
    j += 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"') && (i == 0 || !is_ident_char(chars[i - 1]))
}

fn raw_string_open(chars: &[char], i: usize) -> (u32, usize) {
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
    }
    j += 1;
    let mut hashes = 0u32;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    j += 1;
    (hashes, j - i)
}

fn closes_raw_string(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

fn is_char_literal(chars: &[char], i: usize) -> bool {
    match chars.get(i + 1) {
        Some('\\') => true,
        Some(_) => chars.get(i + 2) == Some(&'\''),
        None => false,
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn mark_test_regions(cleaned: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; cleaned.len()];
    let mut depth: i64 = 0;
    let mut pending = false;
    let mut region: Option<(i64, bool)> = None;
    for (idx, line) in cleaned.iter().enumerate() {
        let trimmed = line.trim();
        if region.is_none() {
            if trimmed.starts_with("#[cfg(test)]") {
                pending = true;
                in_test[idx] = true;
            } else if pending {
                in_test[idx] = true;
                if trimmed.starts_with("#[") {
                    // Further attributes between cfg(test) and the item.
                } else if !trimmed.is_empty() {
                    if line.contains('{') {
                        region = Some((depth, false));
                        pending = false;
                    } else if trimmed.ends_with(';') {
                        pending = false;
                    }
                }
            }
        } else {
            in_test[idx] = true;
        }
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if let Some((_, opened)) = region.as_mut() {
                        *opened = true;
                    }
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        if let Some((return_depth, opened)) = region {
            in_test[idx] = true;
            if opened && depth <= return_depth {
                region = None;
            }
        }
    }
    in_test
}

fn prepare(source: &str) -> PreparedFile {
    let raw: Vec<String> = source.lines().map(str::to_string).collect();
    let cleaned = clean_source(source);
    let in_test = mark_test_regions(&cleaned);
    PreparedFile {
        raw,
        cleaned,
        in_test,
    }
}

fn has_token(haystack: &str, needle: &str) -> bool {
    let bytes = haystack.as_bytes();
    let mut start = 0usize;
    while let Some(pos) = haystack[start..].find(needle) {
        let begin = start + pos;
        let end = begin + needle.len();
        let before_ok = begin == 0 || !is_ident_char(bytes[begin - 1] as char);
        let after_ok = end >= bytes.len() || !is_ident_char(bytes[end] as char);
        if before_ok && after_ok {
            return true;
        }
        start = end;
    }
    false
}

fn has_macro(line: &str, name: &str) -> bool {
    let bytes = line.as_bytes();
    let mut start = 0usize;
    while let Some(pos) = line[start..].find(name) {
        let begin = start + pos;
        let end = begin + name.len();
        let before_ok = begin == 0 || !is_ident_char(bytes[begin - 1] as char);
        let bang = bytes.get(end) == Some(&b'!');
        let opener = matches!(bytes.get(end + 1), Some(b'(' | b'[' | b'{'));
        if before_ok && bang && opener {
            return true;
        }
        start = end;
    }
    false
}

const NO_UNWRAP_CRATES: &[&str] = &["flash", "ftl", "core", "hostfs"];
const NO_F32_CRATES: &[&str] = &["carbon"];
const DOC_CRATES: &[&str] = &["core", "ftl"];
const BANNED_MACROS: &[&str] = &["todo", "unimplemented", "dbg"];
const PUB_ITEM_STARTS: &[&str] = &[
    "pub fn ",
    "pub async fn ",
    "pub unsafe fn ",
    "pub const fn ",
    "pub struct ",
    "pub enum ",
    "pub trait ",
    "pub mod ",
    "pub const ",
    "pub static ",
    "pub type ",
    "pub union ",
];

fn has_doc_comment(raw: &[String], idx: usize) -> bool {
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let trimmed = raw[i].trim();
        if trimmed.starts_with("#[") || trimmed.starts_with(')') || trimmed.starts_with(']') {
            continue;
        }
        return trimmed.starts_with("///") || trimmed.starts_with("//!");
    }
    false
}

fn legacy_lint_file(relative: &Path, prepared: &PreparedFile, findings: &mut Vec<LegacyFinding>) {
    let crate_name = relative
        .components()
        .nth(1)
        .map(|c| c.as_os_str().to_string_lossy().to_string())
        .unwrap_or_default();
    let check_unwrap = NO_UNWRAP_CRATES.contains(&crate_name.as_str());
    let check_f32 = NO_F32_CRATES.contains(&crate_name.as_str());
    let check_docs = DOC_CRATES.contains(&crate_name.as_str());
    for (idx, line) in prepared.cleaned.iter().enumerate() {
        if prepared.in_test[idx] {
            continue;
        }
        let number = idx + 1;
        if check_unwrap {
            if line.contains(".unwrap()") {
                findings.push(LegacyFinding {
                    file: relative.to_path_buf(),
                    line: number,
                    rule: "no-unwrap",
                    message: ".unwrap() in non-test storage-stack code".to_string(),
                });
            }
            if line.contains(".expect(") {
                findings.push(LegacyFinding {
                    file: relative.to_path_buf(),
                    line: number,
                    rule: "no-unwrap",
                    message: ".expect() in non-test storage-stack code".to_string(),
                });
            }
        }
        if check_f32 && has_token(line, "f32") {
            findings.push(LegacyFinding {
                file: relative.to_path_buf(),
                line: number,
                rule: "no-f32",
                message: "f32 in carbon accounting (use f64)".to_string(),
            });
        }
        if line.contains("thread::sleep") {
            findings.push(LegacyFinding {
                file: relative.to_path_buf(),
                line: number,
                rule: "no-sleep",
                message: "std::thread::sleep in simulation code".to_string(),
            });
        }
        for name in BANNED_MACROS {
            if has_macro(line, name) {
                findings.push(LegacyFinding {
                    file: relative.to_path_buf(),
                    line: number,
                    rule: "no-debug-macros",
                    message: format!("{name}!() in non-test code"),
                });
            }
        }
        if check_docs {
            let trimmed = line.trim_start();
            let is_pub_item = PUB_ITEM_STARTS
                .iter()
                .any(|start| trimmed.starts_with(start));
            let external_mod = trimmed.starts_with("pub mod ") && trimmed.trim_end().ends_with(';');
            if is_pub_item && !external_mod && !has_doc_comment(&prepared.raw, idx) {
                findings.push(LegacyFinding {
                    file: relative.to_path_buf(),
                    line: number,
                    rule: "pub-docs",
                    message: format!(
                        "undocumented public item: {}",
                        trimmed.split('{').next().unwrap_or(trimmed).trim()
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// The comparison itself.
// ---------------------------------------------------------------------

/// The five rules the port must reproduce exactly.
const GOLDEN_RULES: &[&str] = &[
    "no-unwrap",
    "no-f32",
    "pub-docs",
    "no-sleep",
    "no-debug-macros",
];

/// Fixture sources: `(crate, path, source)` triples covering every
/// golden rule plus the shadowing cases (strings, comments, raw
/// strings, char literals, `#[cfg(test)]` regions).
fn fixtures() -> Vec<(&'static str, &'static str, &'static str)> {
    vec![
        (
            "ftl",
            "crates/ftl/src/fixture.rs",
            r##"fn live(x: Option<u8>) -> u8 {
    x.unwrap()
}

fn message(y: Result<u8, ()>) -> u8 {
    y.expect("boom")
}

fn shadowed() -> &'static str {
    // a comment saying .unwrap() does not count
    /* nor does .expect( in a block comment */
    let s = "string .unwrap() text";
    let r = r#"raw .expect( text"#;
    let _c = '"';
    let _after = s.len() + r.len(); // '"' above must not open a string
    s
}

#[cfg(test)]
mod tests {
    #[test]
    fn inside() {
        Some(1).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}
"##,
        ),
        (
            "carbon",
            "crates/carbon/src/fixture.rs",
            r##"pub fn footprint(grams: f32) -> f64 {
    let not_f32_ident = grams as f64;
    not_f32_ident
}

fn fine(x: f64) -> f64 {
    x
}
"##,
        ),
        (
            "core",
            "crates/core/src/fixture.rs",
            r##"/// Documented: no finding.
pub fn documented() {}

pub fn undocumented() {}

/// Documented struct with a derive between doc and item.
#[derive(Debug)]
pub struct WithAttr;

pub struct Bare {
    field: u32,
}

pub mod external;

pub mod inline {
    fn helper() {}
}

/// Constants too.
pub const DOCUMENTED: u32 = 1;

pub static UNDOCUMENTED_STATIC: u32 = 2;

pub(crate) fn crate_visible_is_exempt() {}

impl Bare {
    /// Uses the field.
    pub fn field(&self) -> u32 {
        self.field
    }
}
"##,
        ),
        (
            "sim",
            "crates/sim/src/fixture.rs",
            r##"fn waits() {
    std::thread::sleep(std::time::Duration::from_millis(5));
}

fn stubbed() {
    todo!("later")
}

fn probed(x: u32) -> u32 {
    dbg!(x)
}

fn unfinished() {
    unimplemented!()
}

fn todo_mentions_are_fine() {
    // todo!() in a comment
    let _s = "unimplemented!()";
    let todo_count = 3; // ident containing the word
    let _ = todo_count;
}

#[cfg(test)]
mod tests {
    fn gated() {
        todo!()
    }
}
"##,
        ),
    ]
}

fn legacy_findings(sources: &[(&str, &str, &str)]) -> Vec<(String, usize, String, String)> {
    let mut findings = Vec::new();
    for (_, path, source) in sources {
        let prepared = prepare(source);
        legacy_lint_file(Path::new(path), &prepared, &mut findings);
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    findings
        .into_iter()
        .map(|f| {
            (
                f.file.display().to_string(),
                f.line,
                f.rule.to_string(),
                f.message,
            )
        })
        .collect()
}

fn ported_findings(sources: &[(&str, &str, &str)]) -> Vec<(String, usize, String, String)> {
    let workspace = Workspace::from_sources(sources);
    let mut report = JsonReport::default();
    run_lints_on(&workspace, &mut report);
    report
        .findings
        .into_iter()
        .filter(|f| matches!(f.rule, Rule::Lint(rule) if GOLDEN_RULES.contains(&rule)))
        .map(|f| {
            (
                f.file.display().to_string(),
                f.line,
                f.rule.to_string(),
                f.message,
            )
        })
        .collect()
}

#[test]
fn token_stream_port_matches_legacy_scanner() {
    let sources = fixtures();
    let legacy = legacy_findings(&sources);
    let ported = ported_findings(&sources);
    assert_eq!(
        legacy, ported,
        "token-stream port diverged from the legacy line scanner"
    );
}

#[test]
fn golden_fixtures_exercise_every_rule() {
    let sources = fixtures();
    let legacy = legacy_findings(&sources);
    for rule in GOLDEN_RULES {
        assert!(
            legacy.iter().any(|(_, _, r, _)| r == rule),
            "fixture set never fires `{rule}` — the golden comparison would be vacuous for it"
        );
    }
    // And the shadowing fixtures must not fire: a finding inside a
    // string/comment region would show both implementations share a
    // blind spot rather than proving equivalence.
    assert!(
        !legacy
            .iter()
            .any(|(file, line, _, _)| file.ends_with("ftl/src/fixture.rs")
                && *line >= 9
                && *line <= 17),
        "shadowed region fired a finding"
    );
}
