//! A spanned Rust lexer for the workspace's own sources.
//!
//! The build environment has no registry access, so instead of `syn` or
//! `proc-macro2` the analyzer carries its own lexer. It produces a flat
//! token stream in which **every byte of the input is accounted for**:
//! each token records its byte span, line and column, comments are
//! tokens (the suppression parser needs them), and
//! string/char literals are single tokens, so no downstream pass ever
//! has to reason about quoting or escaping again. This replaces the old
//! line-oriented `clean_source` blanking pass: string/comment handling
//! now lives in exactly one place.
//!
//! The lexer is deliberately permissive: on malformed input (an
//! unterminated string, a stray byte) it still terminates and spans
//! every byte, because the linter must never panic on the tree it is
//! auditing. It handles the full token surface the workspace uses:
//! nested block comments, doc comments (`///`, `//!`, `/**`, `/*!`),
//! raw strings with hashes (`r#"…"#`), byte strings, char literals vs.
//! lifetimes, numeric literals with underscores / base prefixes /
//! exponents / type suffixes, raw identifiers (`r#fn`), and the
//! multi-character operators path analysis cares about (`::`, `->`,
//! `=>`, `..`, `..=`).

use std::fmt;

/// What kind of lexeme a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (including raw identifiers like `r#fn`).
    Ident,
    /// A lifetime or loop label (`'a`, `'static`, `'outer`).
    Lifetime,
    /// An integer literal (any base, with suffix and underscores).
    Int,
    /// A floating-point literal.
    Float,
    /// A string literal: plain, raw, byte or byte-raw. One token even
    /// when it spans multiple lines.
    Str,
    /// A character or byte literal (`'x'`, `b'\n'`).
    Char,
    /// A non-doc line comment (`// …`).
    LineComment,
    /// A doc comment: `/// …`, `//! …`, `/** … */` or `/*! … */`.
    DocComment,
    /// A non-doc block comment (`/* … */`, possibly nested).
    BlockComment,
    /// Punctuation. Single characters, except the combined operators
    /// `::`, `->`, `=>`, `..`, `..=` and `...`.
    Punct,
}

/// One lexeme with its exact location in the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The lexeme kind.
    pub kind: TokenKind,
    /// Byte offset of the first byte, inclusive.
    pub start: usize,
    /// Byte offset past the last byte, exclusive.
    pub end: usize,
    /// 1-based line of the token's first byte.
    pub line: usize,
    /// 1-based column (in characters) of the token's first byte.
    pub col: usize,
}

impl Token {
    /// The token's text within its source.
    pub fn text<'s>(&self, source: &'s str) -> &'s str {
        &source[self.start..self.end]
    }

    /// Is this token a comment of any kind?
    pub fn is_comment(&self) -> bool {
        matches!(
            self.kind,
            TokenKind::LineComment | TokenKind::DocComment | TokenKind::BlockComment
        )
    }
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            TokenKind::Ident => "ident",
            TokenKind::Lifetime => "lifetime",
            TokenKind::Int => "int",
            TokenKind::Float => "float",
            TokenKind::Str => "str",
            TokenKind::Char => "char",
            TokenKind::LineComment => "line-comment",
            TokenKind::DocComment => "doc-comment",
            TokenKind::BlockComment => "block-comment",
            TokenKind::Punct => "punct",
        };
        f.write_str(name)
    }
}

/// Is `c` a character that can continue an identifier?
pub fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

/// The cursor the lexer walks: decoded characters with byte offsets.
struct Cursor {
    chars: Vec<(usize, char)>,
    /// Index into `chars`.
    pos: usize,
    /// Total byte length of the source.
    len: usize,
    line: usize,
    col: usize,
}

impl Cursor {
    fn new(source: &str) -> Self {
        Cursor {
            chars: source.char_indices().collect(),
            pos: 0,
            len: source.len(),
            line: 1,
            col: 1,
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).map(|&(_, c)| c)
    }

    fn byte_at(&self, index: usize) -> usize {
        self.chars.get(index).map_or(self.len, |&(b, _)| b)
    }

    fn offset(&self) -> usize {
        self.byte_at(self.pos)
    }

    fn bump(&mut self) -> Option<char> {
        let &(_, c) = self.chars.get(self.pos)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

/// Lexes `source` into a complete token stream.
///
/// Guarantees, verified by the workspace self-test:
/// * tokens are in source order and never overlap;
/// * `token.text(source)` is exactly the spanned bytes;
/// * `token.line` equals `1 +` the number of newlines before the span.
pub fn lex(source: &str) -> Vec<Token> {
    let mut cursor = Cursor::new(source);
    let mut tokens = Vec::new();
    while let Some(c) = cursor.peek(0) {
        let start = cursor.offset();
        let line = cursor.line;
        let col = cursor.col;
        let kind = scan_token(&mut cursor, c);
        let Some(kind) = kind else { continue };
        tokens.push(Token {
            kind,
            start,
            end: cursor.offset(),
            line,
            col,
        });
    }
    tokens
}

/// Scans one token starting at `c`; returns `None` for whitespace.
fn scan_token(cursor: &mut Cursor, c: char) -> Option<TokenKind> {
    if c.is_whitespace() {
        cursor.bump();
        return None;
    }
    if c == '/' {
        match cursor.peek(1) {
            Some('/') => return Some(scan_line_comment(cursor)),
            Some('*') => return Some(scan_block_comment(cursor)),
            _ => {}
        }
    }
    if c == 'r' || c == 'b' {
        if let Some(kind) = scan_prefixed_literal(cursor) {
            return Some(kind);
        }
    }
    if is_ident_start(c) {
        cursor.bump();
        while cursor.peek(0).is_some_and(is_ident_continue) {
            cursor.bump();
        }
        return Some(TokenKind::Ident);
    }
    if c.is_ascii_digit() {
        return Some(scan_number(cursor));
    }
    match c {
        '"' => Some(scan_string(cursor)),
        '\'' => Some(scan_quote(cursor)),
        _ => Some(scan_punct(cursor, c)),
    }
}

fn scan_line_comment(cursor: &mut Cursor) -> TokenKind {
    // `///` is an outer doc comment, `//!` an inner one; `////…` is a
    // plain comment (rustdoc's rule).
    let third = cursor.peek(2);
    let fourth = cursor.peek(3);
    let doc = third == Some('!') || (third == Some('/') && fourth != Some('/'));
    while cursor.peek(0).is_some_and(|c| c != '\n') {
        cursor.bump();
    }
    if doc {
        TokenKind::DocComment
    } else {
        TokenKind::LineComment
    }
}

fn scan_block_comment(cursor: &mut Cursor) -> TokenKind {
    // `/**` outer doc, `/*!` inner doc — but `/**/` is empty non-doc
    // and `/***/`-style starts are non-doc too.
    let third = cursor.peek(2);
    let fourth = cursor.peek(3);
    let doc = third == Some('!') || (third == Some('*') && fourth != Some('/') && fourth.is_some());
    cursor.bump();
    cursor.bump();
    let mut depth = 1u32;
    while depth > 0 {
        match (cursor.peek(0), cursor.peek(1)) {
            (Some('*'), Some('/')) => {
                depth -= 1;
                cursor.bump();
                cursor.bump();
            }
            (Some('/'), Some('*')) => {
                depth += 1;
                cursor.bump();
                cursor.bump();
            }
            (Some(_), _) => {
                cursor.bump();
            }
            (None, _) => break, // unterminated: tolerate
        }
    }
    if doc {
        TokenKind::DocComment
    } else {
        TokenKind::BlockComment
    }
}

/// Handles tokens beginning `r` or `b`: raw strings (`r"…"`, `r#"…"#`),
/// byte strings (`b"…"`), byte-raw strings (`br#"…"#`), byte chars
/// (`b'x'`) and raw identifiers (`r#ident`). Returns `None` when the
/// prefix is just the start of a plain identifier.
fn scan_prefixed_literal(cursor: &mut Cursor) -> Option<TokenKind> {
    let first = cursor.peek(0)?;
    let mut ahead = 1usize;
    if first == 'b' && cursor.peek(ahead) == Some('r') {
        ahead += 1;
    }
    if first == 'b' && cursor.peek(1) == Some('\'') {
        // Byte char literal b'…'.
        cursor.bump();
        cursor.bump();
        scan_char_body(cursor);
        return Some(TokenKind::Char);
    }
    if first == 'b' && cursor.peek(1) == Some('"') {
        cursor.bump();
        return Some(scan_string(cursor));
    }
    // Raw forms: count hashes after the `r`.
    if (first == 'r' && ahead == 1) || (first == 'b' && ahead == 2) {
        let mut hashes = 0usize;
        while cursor.peek(ahead + hashes) == Some('#') {
            hashes += 1;
        }
        match cursor.peek(ahead + hashes) {
            Some('"') => {
                for _ in 0..ahead + hashes + 1 {
                    cursor.bump();
                }
                scan_raw_string_body(cursor, hashes);
                return Some(TokenKind::Str);
            }
            Some(c) if first == 'r' && hashes == 1 && is_ident_start(c) => {
                // Raw identifier r#ident.
                cursor.bump();
                cursor.bump();
                while cursor.peek(0).is_some_and(is_ident_continue) {
                    cursor.bump();
                }
                return Some(TokenKind::Ident);
            }
            _ => {}
        }
    }
    None
}

fn scan_raw_string_body(cursor: &mut Cursor, hashes: usize) {
    while let Some(c) = cursor.bump() {
        if c == '"' {
            let mut matched = 0usize;
            while matched < hashes && cursor.peek(0) == Some('#') {
                cursor.bump();
                matched += 1;
            }
            if matched == hashes {
                return;
            }
        }
    }
}

/// Scans a plain (escaped) string starting at the opening quote.
fn scan_string(cursor: &mut Cursor) -> TokenKind {
    cursor.bump(); // opening quote
    while let Some(c) = cursor.bump() {
        match c {
            '\\' => {
                cursor.bump();
            }
            '"' => break,
            _ => {}
        }
    }
    TokenKind::Str
}

/// Scans a char-literal body after the opening `'` has been consumed.
fn scan_char_body(cursor: &mut Cursor) {
    match cursor.bump() {
        Some('\\') => {
            cursor.bump();
            // Multi-char escapes (\x7f, \u{…}) run to the closing quote.
            while cursor.peek(0).is_some_and(|c| c != '\'' && c != '\n') {
                cursor.bump();
            }
        }
        Some(_) => {}
        None => return,
    }
    if cursor.peek(0) == Some('\'') {
        cursor.bump();
    }
}

/// Disambiguates `'` between a char literal and a lifetime/label.
fn scan_quote(cursor: &mut Cursor) -> TokenKind {
    let next = cursor.peek(1);
    let after = cursor.peek(2);
    let lifetime = match (next, after) {
        (Some('\\'), _) => false,
        (Some(n), Some('\'')) if n != '\'' => false, // 'x'
        (Some(n), _) if is_ident_start(n) => true,
        _ => false,
    };
    cursor.bump(); // the quote
    if lifetime {
        while cursor.peek(0).is_some_and(is_ident_continue) {
            cursor.bump();
        }
        TokenKind::Lifetime
    } else {
        scan_char_body(cursor);
        TokenKind::Char
    }
}

fn scan_number(cursor: &mut Cursor) -> TokenKind {
    let mut float = false;
    if cursor.peek(0) == Some('0') && matches!(cursor.peek(1), Some('x' | 'o' | 'b')) {
        cursor.bump();
        cursor.bump();
        while cursor
            .peek(0)
            .is_some_and(|c| c.is_ascii_hexdigit() || c == '_')
        {
            cursor.bump();
        }
    } else {
        while cursor
            .peek(0)
            .is_some_and(|c| c.is_ascii_digit() || c == '_')
        {
            cursor.bump();
        }
        // A `.` continues the number only for `1.5` or a trailing `1.`
        // — not `1..2` (range) and not `1.max(…)` (method call).
        if cursor.peek(0) == Some('.') {
            let after = cursor.peek(1);
            let part_of_float = match after {
                Some(c) if c.is_ascii_digit() => true,
                Some('.') => false,
                Some(c) if is_ident_start(c) => false,
                _ => true,
            };
            if part_of_float {
                float = true;
                cursor.bump();
                while cursor
                    .peek(0)
                    .is_some_and(|c| c.is_ascii_digit() || c == '_')
                {
                    cursor.bump();
                }
            }
        }
        if matches!(cursor.peek(0), Some('e' | 'E')) {
            // Exponent only when digits (or sign+digits) follow;
            // otherwise `e` starts a suffix/identifier.
            let (sign, digit) = (cursor.peek(1), cursor.peek(2));
            let exponent = match sign {
                Some(c) if c.is_ascii_digit() => true,
                Some('+' | '-') => digit.is_some_and(|c| c.is_ascii_digit()),
                _ => false,
            };
            if exponent {
                float = true;
                cursor.bump();
                if matches!(cursor.peek(0), Some('+' | '-')) {
                    cursor.bump();
                }
                while cursor
                    .peek(0)
                    .is_some_and(|c| c.is_ascii_digit() || c == '_')
                {
                    cursor.bump();
                }
            }
        }
    }
    // Type suffix (`u8`, `f64`, `usize`…) merges into the literal.
    let mut suffix = String::new();
    while cursor.peek(0).is_some_and(is_ident_continue) {
        suffix.push(cursor.peek(0).unwrap_or(' '));
        cursor.bump();
    }
    if suffix.starts_with('f') {
        float = true;
    }
    if float {
        TokenKind::Float
    } else {
        TokenKind::Int
    }
}

fn scan_punct(cursor: &mut Cursor, c: char) -> TokenKind {
    cursor.bump();
    let next = cursor.peek(0);
    match (c, next) {
        (':', Some(':')) | ('-', Some('>')) | ('=', Some('>')) => {
            cursor.bump();
        }
        ('.', Some('.')) => {
            cursor.bump();
            if matches!(cursor.peek(0), Some('=' | '.')) {
                cursor.bump();
            }
        }
        _ => {}
    }
    TokenKind::Punct
}

/// Parses the numeric value of an [`TokenKind::Int`] token's text,
/// ignoring underscores, base prefixes and type suffixes. Returns
/// `None` for values beyond `u128`.
pub fn int_value(text: &str) -> Option<u128> {
    let cleaned: String = text.chars().filter(|&c| c != '_').collect();
    let (digits, radix) = if let Some(hex) = cleaned.strip_prefix("0x") {
        (hex, 16)
    } else if let Some(oct) = cleaned.strip_prefix("0o") {
        (oct, 8)
    } else if let Some(bin) = cleaned.strip_prefix("0b") {
        (bin, 2)
    } else {
        (cleaned.as_str(), 10)
    };
    let end = digits
        .find(|c: char| !c.is_digit(radix))
        .unwrap_or(digits.len());
    u128::from_str_radix(&digits[..end], radix).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(source: &str) -> Vec<(TokenKind, String)> {
        lex(source)
            .into_iter()
            .map(|t| (t.kind, t.text(source).to_string()))
            .collect()
    }

    #[test]
    fn idents_keywords_and_puncts() {
        let got = texts("pub fn f(x: u32) -> u32 { x }");
        let kinds: Vec<&str> = got.iter().map(|(_, t)| t.as_str()).collect();
        assert_eq!(
            kinds,
            vec!["pub", "fn", "f", "(", "x", ":", "u32", ")", "->", "u32", "{", "x", "}"]
        );
    }

    #[test]
    fn strings_are_single_tokens() {
        let got = texts("let s = \"a // not a comment [0] .unwrap()\";");
        assert!(got
            .iter()
            .any(|(k, t)| *k == TokenKind::Str && t.contains("not a comment")));
        assert_eq!(got.iter().filter(|(k, _)| *k == TokenKind::Str).count(), 1);
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = r##"let s = r#"quote " inside"#; let t = 1;"##;
        let got = texts(src);
        assert!(got
            .iter()
            .any(|(k, t)| *k == TokenKind::Str && t.contains("quote")));
        assert!(got.iter().any(|(_, t)| t == "1"));
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let got = texts("let a = b\"bytes\"; let b = b'\\n'; let c = b'x';");
        assert_eq!(got.iter().filter(|(k, _)| *k == TokenKind::Str).count(), 1);
        assert_eq!(got.iter().filter(|(k, _)| *k == TokenKind::Char).count(), 2);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let got = texts("fn f<'a>(x: &'a str) { let c = 'x'; let d = '\\u{1F600}'; }");
        assert_eq!(
            got.iter()
                .filter(|(k, _)| *k == TokenKind::Lifetime)
                .count(),
            2
        );
        assert_eq!(got.iter().filter(|(k, _)| *k == TokenKind::Char).count(), 2);
    }

    #[test]
    fn comments_keep_their_kinds() {
        let src = "/// doc\n//! inner\n// plain\n/* block */\n/*! inner block */\nfn f() {}\n";
        let got = texts(src);
        assert_eq!(
            got.iter()
                .filter(|(k, _)| *k == TokenKind::DocComment)
                .count(),
            3
        );
        assert_eq!(
            got.iter()
                .filter(|(k, _)| *k == TokenKind::LineComment)
                .count(),
            1
        );
        assert_eq!(
            got.iter()
                .filter(|(k, _)| *k == TokenKind::BlockComment)
                .count(),
            1
        );
    }

    #[test]
    fn nested_block_comments_terminate() {
        let got = texts("/* outer /* inner */ still outer */ fn f() {}");
        assert_eq!(
            got.iter()
                .filter(|(k, _)| *k == TokenKind::BlockComment)
                .count(),
            1
        );
        assert!(got.iter().any(|(_, t)| t == "fn"));
    }

    #[test]
    fn numbers_classify_and_parse() {
        let got = texts("let a = 0xFF_u32; let b = 1_000; let c = 1.5e-3; let d = 2f64; let e = 1..4; let f = 3.max(4);");
        let ints: Vec<&str> = got
            .iter()
            .filter(|(k, _)| *k == TokenKind::Int)
            .map(|(_, t)| t.as_str())
            .collect();
        let floats: Vec<&str> = got
            .iter()
            .filter(|(k, _)| *k == TokenKind::Float)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(ints, vec!["0xFF_u32", "1_000", "1", "4", "3", "4"]);
        assert_eq!(floats, vec!["1.5e-3", "2f64"]);
        assert_eq!(int_value("0xFF_u32"), Some(255));
        assert_eq!(int_value("1_000"), Some(1000));
        assert_eq!(int_value("0b101"), Some(5));
        assert_eq!(int_value("0o17"), Some(15));
    }

    #[test]
    fn combined_puncts() {
        let got = texts("a::b -> c => d ..= e .. f");
        let puncts: Vec<&str> = got
            .iter()
            .filter(|(k, _)| *k == TokenKind::Punct)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(puncts, vec!["::", "->", "=>", "..=", ".."]);
    }

    #[test]
    fn raw_identifiers() {
        let got = texts("let r#fn = 1;");
        assert!(got
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "r#fn"));
    }

    #[test]
    fn spans_and_lines_are_exact() {
        let src = "fn a() {\n    let s = \"two\nlines\";\n}\n";
        let tokens = lex(src);
        for token in &tokens {
            let newlines_before = src[..token.start].matches('\n').count();
            assert_eq!(token.line, newlines_before + 1, "{token:?}");
        }
        let mut last_end = 0usize;
        for token in &tokens {
            assert!(token.start >= last_end, "overlap at {token:?}");
            last_end = token.end;
        }
    }

    #[test]
    fn unterminated_input_still_lexes() {
        for src in ["let s = \"unterminated", "/* open", "let c = '"] {
            let tokens = lex(src);
            assert!(!tokens.is_empty());
        }
    }
}
