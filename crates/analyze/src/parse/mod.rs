//! Source parsing for the static-analysis pipeline: a spanned Rust
//! [`lexer`], an [`items`] extractor (functions, impl blocks, test
//! regions), and the [`Workspace`] loader that applies both to every
//! crate source in the repository.
//!
//! Everything downstream — the lint rules, the call graph and the
//! reachability passes — consumes [`SourceFile`]s from here, and scans
//! them through one `Code` view, so string, comment and `cfg(test)`
//! handling exists in exactly one place.

pub mod items;
pub mod lexer;

use items::FileItems;
use lexer::{Token, TokenKind};
use std::fs;
use std::path::{Path, PathBuf};

/// One parsed source file: text, tokens and structural items.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path relative to the workspace root (e.g. `crates/ftl/src/gc.rs`).
    pub path: PathBuf,
    /// The short crate directory name (`ftl`, `flash`, …).
    pub crate_name: String,
    /// The file's full text.
    pub source: String,
    /// The complete token stream.
    pub tokens: Vec<Token>,
    /// Extracted functions and test regions.
    pub items: FileItems,
}

impl SourceFile {
    /// Lexes and structures one source text.
    pub fn parse(path: PathBuf, crate_name: String, source: String) -> Self {
        let tokens = lexer::lex(&source);
        let items = items::extract(&source, &tokens);
        SourceFile {
            path,
            crate_name,
            source,
            tokens,
            items,
        }
    }

    /// The file's non-comment tokens.
    pub(crate) fn code(&self) -> Code<'_> {
        self.code_in(0, usize::MAX)
    }

    /// The non-comment tokens among tokens `start..=end` (a function
    /// body's span).
    pub(crate) fn code_in(&self, start: usize, end: usize) -> Code<'_> {
        let tokens = self.tokens.iter().take(end.saturating_add(1)).skip(start);
        Code {
            source: &self.source,
            tokens: tokens.filter(|token| !token.is_comment()).collect(),
        }
    }
}

/// A run of non-comment tokens, addressed by position: the view every
/// rule and the call-graph extractor scan, so a comment between two
/// tokens never hides a construct split across them. Out-of-range
/// positions read as `None`.
#[derive(Debug, Clone)]
pub(crate) struct Code<'a> {
    /// The text the tokens index into.
    pub(crate) source: &'a str,
    /// The non-comment tokens, in source order.
    pub(crate) tokens: Vec<&'a Token>,
}

impl<'a> Code<'a> {
    /// The text of token `k`.
    pub(crate) fn text(&self, k: usize) -> Option<&'a str> {
        self.tokens.get(k).map(|token| token.text(self.source))
    }

    /// The text of the token `back` positions before token `k`.
    pub(crate) fn text_back(&self, k: usize, back: usize) -> Option<&'a str> {
        self.text(k.checked_sub(back)?)
    }

    /// The kind of token `k`.
    pub(crate) fn kind(&self, k: usize) -> Option<TokenKind> {
        self.tokens.get(k).map(|token| token.kind)
    }
}

/// Every parsed source file under `crates/*/src`, the unit the lint
/// rules and the call graph operate on.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// Parsed files, sorted by path.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Loads and parses every `.rs` file under `root/crates/*/src`.
    /// Unreadable files are skipped (the tree may be mid-edit); the
    /// tier-1 build catches anything truly broken.
    pub fn load(root: &Path) -> Workspace {
        let mut files = Vec::new();
        let crates_dir = root.join("crates");
        let Ok(entries) = fs::read_dir(&crates_dir) else {
            return Workspace { files };
        };
        let mut crate_dirs: Vec<PathBuf> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for crate_dir in crate_dirs {
            let crate_name = crate_dir
                .file_name()
                .map(|n| n.to_string_lossy().to_string())
                .unwrap_or_default();
            let mut paths = Vec::new();
            collect_rust_files(&crate_dir.join("src"), &mut paths);
            for path in paths {
                let Ok(source) = fs::read_to_string(&path) else {
                    continue;
                };
                let relative = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
                files.push(SourceFile::parse(relative, crate_name.clone(), source));
            }
        }
        Workspace { files }
    }

    /// Builds a workspace from in-memory sources — the unit-test entry
    /// point. Each element is `(crate_name, relative_path, source)`.
    pub fn from_sources(sources: &[(&str, &str, &str)]) -> Workspace {
        let files = sources
            .iter()
            .map(|(crate_name, path, source)| {
                SourceFile::parse(
                    PathBuf::from(path),
                    crate_name.to_string(),
                    source.to_string(),
                )
            })
            .collect();
        Workspace { files }
    }
}

/// Recursively collects `.rs` files under `dir`, sorted for
/// deterministic output.
pub fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}
