//! A workspace-wide call graph over the parsed sources.
//!
//! Nodes are the function definitions the item extractor found; edges
//! come from scanning each body's token stream for call expressions:
//!
//! * `name(…)` — free-function calls,
//! * `path::name(…)` — path calls, with the segment before the name
//!   kept as a disambiguating qualifier (`Ftl::recover`, `Self::…`,
//!   `sos_flash::…`),
//! * `recv.name(…)` — method calls, with `self.name(…)` preferring the
//!   surrounding `impl`'s own method.
//!
//! Resolution is by identifier with qualifier/crate disambiguation, and
//! is deliberately an **over-approximation**: a method call whose
//! receiver type is unknown resolves to *every* workspace method of
//! that name. For the panic-freedom pass this is the sound direction —
//! a function is only proven panic-free if every function it *may*
//! call is. Calls that resolve to nothing inside the workspace (std,
//! vendored crates, enum constructors) are recorded per-node in
//! [`CallGraph::unresolved`] — explicitly kept, never silently dropped
//! — so a report can always say how much of the surface was beyond
//! static resolution.
//!
//! `CallGraph::scan_reachable` is the one driver both reachability
//! passes (panic freedom, determinism) run on: it walks the graph from
//! a set of [`EntryPoint`]s and hands every reachable body to a
//! pass-specific scanner.

use crate::parse::lexer::TokenKind;
use crate::parse::{Code, SourceFile, Workspace};
use crate::report::{Finding, JsonReport, Rule};
use crate::suppress::SuppressionSet;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::path::PathBuf;

/// A configured root of the reachability walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryPoint {
    /// The impl type the function is defined on, if any.
    pub owner: Option<&'static str>,
    /// The function name.
    pub name: &'static str,
}

impl EntryPoint {
    /// A method entry point.
    pub const fn method(owner: &'static str, name: &'static str) -> EntryPoint {
        EntryPoint {
            owner: Some(owner),
            name,
        }
    }

    /// A free-function entry point.
    pub const fn function(name: &'static str) -> EntryPoint {
        EntryPoint { owner: None, name }
    }

    /// Human-readable `Owner::name` form.
    pub fn label(&self) -> String {
        match self.owner {
            Some(owner) => format!("{owner}::{}", self.name),
            None => self.name.to_string(),
        }
    }
}

/// How a call site was written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `recv.name(…)`; `on_self` when the receiver is literally `self`.
    Method {
        /// The receiver token was `self`.
        on_self: bool,
    },
    /// `path::name(…)`.
    Path,
    /// Bare `name(…)`.
    Free,
}

/// One call expression found in a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// The called identifier.
    pub name: String,
    /// The path segment immediately before the name (`Ftl` in
    /// `Ftl::recover`), when present.
    pub qualifier: Option<String>,
    /// The call's syntactic shape.
    pub kind: CallKind,
    /// 1-based line of the called identifier.
    pub line: usize,
}

/// One function definition in the graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Node id — index into [`CallGraph::nodes`].
    pub id: usize,
    /// File the definition lives in, relative to the workspace root.
    pub file: PathBuf,
    /// The crate directory name.
    pub crate_name: String,
    /// Function name.
    pub name: String,
    /// The impl/trait type owning the function, if any.
    pub owner: Option<String>,
    /// 1-based signature line.
    pub line: usize,
    /// Test-only function.
    pub is_test: bool,
    /// Has a `self` receiver (callable with method syntax).
    pub has_self: bool,
    /// Index of the file in the workspace and of the item in the file.
    pub file_index: usize,
    /// Index of the item within the file's item list.
    pub item_index: usize,
}

impl FnNode {
    /// `Owner::name` or bare `name`.
    pub fn qualified_name(&self) -> String {
        match &self.owner {
            Some(owner) => format!("{owner}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The workspace call graph.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// All function definitions.
    pub nodes: Vec<FnNode>,
    /// Resolved callee node ids per node (deduplicated, sorted).
    pub edges: Vec<Vec<usize>>,
    /// Call sites that matched no workspace definition, per node.
    pub unresolved: Vec<Vec<CallSite>>,
}

/// Identifiers that look like calls syntactically but are control flow
/// or bindings.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "ref", "break",
    "continue", "else", "let", "mut", "where", "unsafe", "use", "pub", "impl", "fn", "dyn",
    "await", "yield", "box",
];

/// Is `text` a keyword that can directly precede `[`, `(`, `/` inside
/// an expression (so the previous "value" is not actually a value)?
pub(crate) fn is_expression_keyword(text: &str) -> bool {
    CALL_KEYWORDS.contains(&text) || matches!(text, "self" | "Self" | "super" | "crate")
}

/// Primitive type qualifiers: `u32::from(…)` and friends are std calls,
/// never workspace methods, so they must not fall back to name-only
/// resolution (which would fabricate edges into every `From` impl).
const PRIMITIVE_QUALIFIERS: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64", "bool", "char", "str",
];

impl CallGraph {
    /// Builds the graph for a parsed workspace.
    pub fn build(workspace: &Workspace) -> CallGraph {
        let mut nodes = Vec::new();
        for (file_index, file) in workspace.files.iter().enumerate() {
            for (item_index, item) in file.items.fns.iter().enumerate() {
                nodes.push(FnNode {
                    id: nodes.len(),
                    file: file.path.clone(),
                    crate_name: file.crate_name.clone(),
                    name: item.name.clone(),
                    owner: item.owner.clone(),
                    line: item.line,
                    is_test: item.is_test,
                    has_self: item.has_self,
                    file_index,
                    item_index,
                });
            }
        }

        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut by_owner_name: HashMap<(&str, &str), Vec<usize>> = HashMap::new();
        let mut methods_by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        for node in &nodes {
            by_name.entry(&node.name).or_default().push(node.id);
            if let Some(owner) = &node.owner {
                by_owner_name
                    .entry((owner.as_str(), node.name.as_str()))
                    .or_default()
                    .push(node.id);
                // Only fns with a `self` receiver can be the target of
                // an unknown-receiver method call.
                if node.has_self {
                    methods_by_name.entry(&node.name).or_default().push(node.id);
                }
            }
        }

        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        let mut unresolved: Vec<Vec<CallSite>> = vec![Vec::new(); nodes.len()];
        for node in 0..nodes.len() {
            let file = &workspace.files[nodes[node].file_index];
            let Some((body_start, body_end)) = file.items.fns[nodes[node].item_index].body else {
                continue;
            };
            let calls = extract_calls(&file.code_in(body_start, body_end));
            let mut resolved: BTreeSet<usize> = BTreeSet::new();
            for call in calls {
                let candidates = resolve(
                    &call,
                    &nodes[node],
                    &nodes,
                    &by_name,
                    &by_owner_name,
                    &methods_by_name,
                );
                // A non-test function must be provable without assuming
                // its callees are test helpers.
                let live: Vec<usize> = candidates
                    .into_iter()
                    .filter(|&candidate| nodes[node].is_test || !nodes[candidate].is_test)
                    .collect();
                if live.is_empty() {
                    unresolved[node].push(call);
                } else {
                    resolved.extend(live);
                }
            }
            edges[node] = resolved.into_iter().collect();
        }
        CallGraph {
            nodes,
            edges,
            unresolved,
        }
    }

    /// Finds node ids by optional owner and name.
    pub fn find(&self, owner: Option<&str>, name: &str) -> Vec<usize> {
        self.nodes
            .iter()
            .filter(|n| n.name == name && (owner.is_none() || n.owner.as_deref() == owner))
            .map(|n| n.id)
            .collect()
    }

    /// Unresolved call sites in the functions `nodes`, each function
    /// counted once however often it is listed.
    pub fn unresolved_total(&self, nodes: impl IntoIterator<Item = usize>) -> usize {
        let nodes: BTreeSet<usize> = nodes.into_iter().collect();
        let count = |node: usize| self.unresolved.get(node).map_or(0, Vec::len);
        nodes.into_iter().map(count).sum()
    }

    /// Resolves `entries` to their non-test definitions and walks the
    /// graph breadth-first from them, skipping test functions. Parent
    /// pointers let [`Reachability::chain_to`] report a shortest call
    /// chain back to an entry point.
    pub fn reach(&self, entries: &[EntryPoint]) -> Reachability {
        let mut reach = Reachability::default();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for entry in entries {
            let live: Vec<usize> = self
                .find(entry.owner, entry.name)
                .into_iter()
                .filter(|&id| !self.nodes[id].is_test)
                .collect();
            if live.is_empty() {
                reach.missing_entry_points.push(entry.label());
                continue;
            }
            reach.entry_points.push(entry.label());
            for id in live {
                if let Entry::Vacant(slot) = reach.parent.entry(id) {
                    slot.insert(None);
                    queue.push_back(id);
                }
            }
        }
        reach.entry_points.sort();
        while let Some(node) = queue.pop_front() {
            reach.nodes.push(node);
            for &callee in &self.edges[node] {
                if self.nodes[callee].is_test {
                    continue;
                }
                reach.parent.entry(callee).or_insert_with(|| {
                    queue.push_back(callee);
                    Some(node)
                });
            }
        }
        reach
    }

    /// The reachability driver: walks the graph from `entries` and runs
    /// `scan` over the body of every reachable function, in
    /// breadth-first order. Each `(line, rule, message)` hit becomes a
    /// [`Finding`] carrying the shortest call chain from an entry point,
    /// unless an inline suppression of the rule's family covers its
    /// line. Adds the findings (sorted by file and line), suppression
    /// and entry-point counts to `report`, and returns the reachable
    /// functions' ids.
    pub(crate) fn scan_reachable(
        &self,
        workspace: &Workspace,
        entries: &[EntryPoint],
        report: &mut JsonReport,
        mut scan: impl FnMut(&FnNode, &SourceFile, Code<'_>) -> Vec<(usize, Rule, String)>,
    ) -> Vec<usize> {
        let reach = self.reach(entries);
        let summary = &mut report.summary;
        summary
            .entry_points
            .extend(reach.entry_points.iter().cloned());
        summary
            .missing_entry_points
            .extend(reach.missing_entry_points.iter().cloned());
        let first = report.findings.len();
        let mut suppressions: HashMap<usize, SuppressionSet> = HashMap::new();
        for &node_id in &reach.nodes {
            let node = &self.nodes[node_id];
            let file = &workspace.files[node.file_index];
            let Some((start, end)) = file.items.fns[node.item_index].body else {
                continue;
            };
            let chain = reach.chain_to(self, node_id);
            let set = suppressions
                .entry(node.file_index)
                .or_insert_with(|| SuppressionSet::collect(file));
            for (line, rule, message) in scan(node, file, file.code_in(start, end)) {
                report.admit(
                    set,
                    Finding {
                        rule,
                        file: file.path.clone(),
                        line,
                        message,
                        chain: chain.clone(),
                    },
                );
            }
        }
        report.sort_from(first);
        reach.nodes
    }
}

/// The non-test functions reachable from a set of entry points.
#[derive(Debug, Clone, Default)]
pub struct Reachability {
    /// Entry points that resolved to at least one definition, sorted.
    pub entry_points: Vec<String>,
    /// Configured entry points with no matching definition, in
    /// configuration order.
    pub missing_entry_points: Vec<String>,
    /// Reachable node ids in breadth-first order.
    pub nodes: Vec<usize>,
    /// Each reached node's BFS parent (`None` for an entry point).
    parent: HashMap<usize, Option<usize>>,
}

impl Reachability {
    /// The qualified-name chain entry → … → `node`.
    pub fn chain_to(&self, graph: &CallGraph, node: usize) -> Vec<String> {
        let mut chain = Vec::new();
        let mut cursor = Some(node);
        while let Some(id) = cursor {
            chain.push(graph.nodes[id].qualified_name());
            cursor = self.parent.get(&id).copied().flatten();
        }
        chain.reverse();
        chain
    }
}

/// Scans a body token range for call expressions.
fn extract_calls(code: &Code<'_>) -> Vec<CallSite> {
    let mut calls = Vec::new();
    for (k, token) in code.tokens.iter().enumerate() {
        if token.kind != TokenKind::Ident {
            continue;
        }
        let name = token.text(code.source);
        if CALL_KEYWORDS.contains(&name)
            || code.kind(k + 1) != Some(TokenKind::Punct)
            || code.text(k + 1) != Some("(")
        {
            continue;
        }
        // `name!(…)` is a macro; `fn name(…)` is a definition.
        let prev = code.text_back(k, 1);
        if prev == Some("fn") || prev == Some("!") {
            continue;
        }
        let (kind, qualifier) = match prev {
            Some(".") => (
                CallKind::Method {
                    on_self: code.text_back(k, 2) == Some("self"),
                },
                None,
            ),
            Some("::") => {
                let qualifier = k
                    .checked_sub(2)
                    .filter(|&q| code.kind(q) == Some(TokenKind::Ident))
                    .and_then(|q| code.text(q))
                    .map(str::to_string);
                (CallKind::Path, qualifier)
            }
            _ => (CallKind::Free, None),
        };
        calls.push(CallSite {
            name: name.to_string(),
            qualifier,
            kind,
            line: token.line,
        });
    }
    calls
}

/// Resolves a call site to candidate node ids (empty = unresolved).
fn resolve(
    call: &CallSite,
    caller: &FnNode,
    nodes: &[FnNode],
    by_name: &HashMap<&str, Vec<usize>>,
    by_owner_name: &HashMap<(&str, &str), Vec<usize>>,
    methods_by_name: &HashMap<&str, Vec<usize>>,
) -> Vec<usize> {
    let name = call.name.as_str();
    match call.kind {
        CallKind::Method { on_self } => {
            if on_self {
                if let Some(owner) = &caller.owner {
                    if let Some(ids) = by_owner_name.get(&(owner.as_str(), name)) {
                        return ids.clone();
                    }
                }
            }
            methods_by_name.get(name).cloned().unwrap_or_default()
        }
        CallKind::Path => {
            let Some(q) = call.qualifier.as_deref() else {
                // No usable qualifier segment (e.g. `<T as Trait>::f`):
                // over-approximate by name.
                return by_name.get(name).cloned().unwrap_or_default();
            };
            if PRIMITIVE_QUALIFIERS.contains(&q) {
                return Vec::new(); // std primitive method, external
            }
            let owner = if q == "Self" {
                caller.owner.as_deref()
            } else {
                Some(q)
            };
            if let Some(owner) = owner {
                if let Some(ids) = by_owner_name.get(&(owner, name)) {
                    return ids.clone();
                }
            }
            // `sos_flash::foo(…)` → definitions within that crate.
            if let Some(crate_name) = q.strip_prefix("sos_") {
                let scoped: Vec<usize> = by_name
                    .get(name)
                    .into_iter()
                    .flatten()
                    .copied()
                    .filter(|&id| nodes[id].crate_name == crate_name)
                    .collect();
                if !scoped.is_empty() {
                    return scoped;
                }
            }
            if q.starts_with(|c: char| c.is_ascii_uppercase()) {
                // `VecDeque::new(…)` — a type with no workspace method
                // of that name is external. Falling back to name-only
                // here would fabricate an edge into every workspace
                // `new`, making everything reachable from everything.
                return Vec::new();
            }
            // `module::helper(…)` — a lowercase path segment qualifies
            // a free function; match workspace free fns by name.
            by_name
                .get(name)
                .into_iter()
                .flatten()
                .copied()
                .filter(|&id| nodes[id].owner.is_none())
                .collect()
        }
        CallKind::Free => {
            // Prefer same-crate definitions — `use`-imported free fns
            // from other crates still resolve via the fallback.
            let all = by_name.get(name).cloned().unwrap_or_default();
            let local: Vec<usize> = all
                .iter()
                .copied()
                .filter(|&id| nodes[id].crate_name == caller.crate_name)
                .collect();
            if local.is_empty() {
                all
            } else {
                local
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::Workspace;

    fn graph(sources: &[(&str, &str, &str)]) -> CallGraph {
        CallGraph::build(&Workspace::from_sources(sources))
    }

    fn edge_names(g: &CallGraph, owner: Option<&str>, name: &str) -> Vec<String> {
        let ids = g.find(owner, name);
        assert_eq!(ids.len(), 1, "{owner:?}::{name} not unique");
        g.edges[ids[0]]
            .iter()
            .map(|&id| g.nodes[id].qualified_name())
            .collect()
    }

    #[test]
    fn self_method_calls_resolve_within_the_impl() {
        let g = graph(&[(
            "ftl",
            "crates/ftl/src/lib.rs",
            "struct Ftl;\nimpl Ftl {\n    fn recover(&mut self) { self.rebuild(); }\n    fn rebuild(&mut self) {}\n}\n",
        )]);
        assert_eq!(edge_names(&g, Some("Ftl"), "recover"), vec!["Ftl::rebuild"]);
    }

    #[test]
    fn edges_cross_impl_blocks_and_files() {
        // `recover` lives in one impl block (recovery.rs), `recycle` in
        // another (gc.rs) — the same-type call must still resolve.
        let g = graph(&[
            (
                "ftl",
                "crates/ftl/src/recovery.rs",
                "impl Ftl {\n    fn recover(&mut self) { self.recycle(3); }\n}\n",
            ),
            (
                "ftl",
                "crates/ftl/src/gc.rs",
                "impl Ftl {\n    fn recycle(&mut self, b: u64) { let _ = b; }\n}\n",
            ),
        ]);
        assert_eq!(edge_names(&g, Some("Ftl"), "recover"), vec!["Ftl::recycle"]);
    }

    #[test]
    fn unknown_receiver_over_approximates() {
        let g = graph(&[(
            "core",
            "crates/core/src/lib.rs",
            "impl A {\n    fn go(&self, d: D) { d.step(); }\n    fn step(&self) {}\n}\nimpl B {\n    fn step(&self) {}\n}\n",
        )]);
        let mut got = edge_names(&g, Some("A"), "go");
        got.sort();
        assert_eq!(got, vec!["A::step", "B::step"]);
    }

    #[test]
    fn path_qualifier_disambiguates() {
        let g = graph(&[(
            "ftl",
            "crates/ftl/src/lib.rs",
            "impl Ftl {\n    fn top() { Ftl::inner(); Other::inner(); }\n    fn inner() {}\n}\nimpl Other {\n    fn inner() {}\n}\n",
        )]);
        let mut got = edge_names(&g, None, "top");
        got.sort();
        assert_eq!(got, vec!["Ftl::inner", "Other::inner"]);
    }

    #[test]
    fn unresolved_calls_are_recorded_not_dropped() {
        let g = graph(&[(
            "ftl",
            "crates/ftl/src/lib.rs",
            "fn f(v: Vec<u64>) { v.push(1); external(); let _ = Some(3); }\n",
        )]);
        let ids = g.find(None, "f");
        let unresolved: Vec<&str> = g.unresolved[ids[0]]
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(unresolved, vec!["push", "external", "Some"]);
        assert_eq!(g.unresolved_total(ids), 3);
    }

    #[test]
    fn macros_and_nested_fn_defs_are_not_calls() {
        let g = graph(&[(
            "ftl",
            "crates/ftl/src/lib.rs",
            "fn f() {\n    println!(\"x\");\n    fn nested() {}\n    nested();\n}\n",
        )]);
        let ids = g.find(None, "f");
        assert_eq!(
            g.edges[ids[0]]
                .iter()
                .map(|&id| g.nodes[id].name.clone())
                .collect::<Vec<_>>(),
            vec!["nested"]
        );
        assert!(g.unresolved[ids[0]].is_empty());
    }

    #[test]
    fn non_test_callers_skip_test_helpers() {
        let g = graph(&[(
            "ftl",
            "crates/ftl/src/lib.rs",
            "fn live() { helper(); }\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n    fn t() { helper(); }\n}\n",
        )]);
        let live = g.find(None, "live");
        assert!(g.edges[live[0]].is_empty());
        assert_eq!(g.unresolved[live[0]].len(), 1);
        let t = g.find(None, "t");
        assert_eq!(g.edges[t[0]].len(), 1);
    }

    #[test]
    fn primitive_qualifiers_never_fabricate_edges() {
        let g = graph(&[(
            "flash",
            "crates/flash/src/lib.rs",
            "impl Oob {\n    fn from(x: u8) -> Oob { Oob }\n}\nfn f(b: u8) -> u32 { u32::from(b) }\n",
        )]);
        let ids = g.find(None, "f");
        assert!(g.edges[ids[0]].is_empty(), "u32::from must stay external");
        assert_eq!(g.unresolved[ids[0]].len(), 1);
    }
}
