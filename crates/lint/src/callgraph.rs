//! Name-resolved call graph over the item graph.
//!
//! Call sites are token shapes (`name(…)`, `a::b::name(…)`, `.method(…)`)
//! found inside `fn` bodies and attributed to the innermost enclosing
//! `fn`. Resolution is conservative and deterministic:
//!
//! * qualified calls resolve to every workspace `fn` whose qualified
//!   segment list (`crate`, modules…, `impl` type, name) contains the
//!   call's qualifiers as a subsequence;
//! * unqualified calls resolve through the file's `use` imports, then to
//!   same-crate `fn`s of that name;
//! * method calls resolve to every `impl` method of that name anywhere in
//!   the workspace.
//!
//! Over-approximation is deliberate: the taint pass built on top treats
//! "might call" as "calls", so a spurious edge can at worst surface a
//! finding for a human to sever with an annotation — never hide one.
//! Calls that resolve to nothing (std, vendored crates) produce no edge.

use crate::items::{FnItem, ItemGraph};
use crate::lexer::Lexed;
use std::collections::{BTreeMap, BTreeSet};

/// One resolved call edge.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Calling `fn` (id into [`ItemGraph::fns`]).
    pub caller: usize,
    /// Called `fn`.
    pub callee: usize,
    /// File of the call site.
    pub file: String,
    /// Line of the call site.
    pub line: u32,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All resolved edges, sorted by (caller, callee, file, line).
    pub edges: Vec<Edge>,
    /// Caller fn id → indexes into [`CallGraph::edges`].
    pub out: BTreeMap<usize, Vec<usize>>,
}

/// Keywords that read like calls (`return (a, b)`, `match (x) {…}`).
const NOT_CALLS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "fn", "let", "else",
    "impl", "dyn", "where", "unsafe", "break",
];

/// Per-token innermost-fn owner map for one file.
pub fn owner_map(graph: &ItemGraph, file: &str, n_toks: usize) -> Vec<Option<usize>> {
    let mut owner = vec![None; n_toks];
    let Some(items) = graph.files.get(file) else {
        return owner;
    };
    // Fill larger spans first so inner (smaller) fns overwrite.
    let mut ids: Vec<usize> = items
        .fn_ids
        .iter()
        .copied()
        .filter(|&id| graph.fns[id].body.is_some())
        .collect();
    ids.sort_by_key(|&id| {
        let (open, close) = graph.fns[id].body.expect("filtered to Some");
        std::cmp::Reverse(close.saturating_sub(open))
    });
    for id in ids {
        let (open, close) = graph.fns[id].body.expect("filtered to Some");
        for o in owner.iter_mut().take(close.min(n_toks.saturating_sub(1)) + 1).skip(open) {
            *o = Some(id);
        }
    }
    owner
}

/// A call shape found in a body, before resolution.
struct RawCall {
    caller: usize,
    line: u32,
    /// Path qualifiers before the final name (empty for plain calls);
    /// `None` name means a `.method(` call.
    quals: Vec<String>,
    name: String,
    method: bool,
}

/// Build the call graph across every parsed file. `lexed` maps the same
/// keys as [`ItemGraph::files`] to their token streams.
pub fn build(graph: &ItemGraph, lexed: &BTreeMap<String, Lexed>) -> CallGraph {
    // Resolution indexes.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for f in &graph.fns {
        if f.body.is_none() {
            continue;
        }
        by_name.entry(&f.name).or_default().push(f.id);
        if f.self_ty.is_some() {
            methods.entry(&f.name).or_default().push(f.id);
        }
    }

    let mut edges: Vec<Edge> = Vec::new();
    for (file, lex) in lexed {
        let owner = owner_map(graph, file, lex.toks.len());
        let imports = graph
            .files
            .get(file)
            .map(|fi| &fi.imports)
            .cloned()
            .unwrap_or_default();
        for raw in extract_calls(lex, &owner) {
            let caller = &graph.fns[raw.caller];
            let candidates = if raw.method {
                methods.get(raw.name.as_str()).cloned().unwrap_or_default()
            } else {
                resolve_plain(graph, &by_name, &imports, caller, &raw)
            };
            for callee in candidates {
                if callee == raw.caller {
                    continue; // self-recursion adds nothing to reachability
                }
                edges.push(Edge {
                    caller: raw.caller,
                    callee,
                    file: file.clone(),
                    line: raw.line,
                });
            }
        }
    }
    edges.sort_by(|a, b| {
        (a.caller, a.callee, &a.file, a.line).cmp(&(b.caller, b.callee, &b.file, b.line))
    });
    edges.dedup_by(|a, b| a.caller == b.caller && a.callee == b.callee && a.line == b.line);
    let mut out: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, e) in edges.iter().enumerate() {
        out.entry(e.caller).or_default().push(i);
    }
    CallGraph { edges, out }
}

/// Resolve a plain or path-qualified call to candidate fn ids.
fn resolve_plain(
    graph: &ItemGraph,
    by_name: &BTreeMap<&str, Vec<usize>>,
    imports: &BTreeMap<String, Vec<String>>,
    caller: &FnItem,
    raw: &RawCall,
) -> Vec<usize> {
    let Some(cands) = by_name.get(raw.name.as_str()) else {
        return Vec::new();
    };
    // Expand the leading qualifier (or the bare name) through imports.
    let mut quals: Vec<String> = Vec::new();
    if raw.quals.is_empty() {
        if let Some(path) = imports.get(&raw.name) {
            quals = path[..path.len().saturating_sub(1)].to_vec();
        }
    } else {
        if let Some(path) = imports.get(&raw.quals[0]) {
            quals.extend(path.iter().cloned());
        } else {
            quals.push(raw.quals[0].clone());
        }
        quals.extend(raw.quals[1..].iter().cloned());
    }
    // Normalize: drop `crate`/`self`/`super` (they pin the caller's own
    // crate, enforced below), strip the `gaugenn_` dependency prefix.
    let own_crate = quals.iter().any(|q| q == "crate" || q == "self" || q == "super");
    let quals: Vec<String> = quals
        .into_iter()
        .filter(|q| !matches!(q.as_str(), "crate" | "self" | "super" | "std" | "core" | "alloc"))
        .map(|q| q.strip_prefix("gaugenn_").unwrap_or(&q).to_string())
        .collect();

    if quals.is_empty() && !own_crate {
        // Unqualified, unimported: same module first, then same crate.
        let same_module: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&id| {
                let f = &graph.fns[id];
                f.crate_key == caller.crate_key && f.module == caller.module && f.self_ty.is_none()
            })
            .collect();
        if !same_module.is_empty() {
            return same_module;
        }
        return cands
            .iter()
            .copied()
            .filter(|&id| {
                let f = &graph.fns[id];
                f.crate_key == caller.crate_key && f.self_ty.is_none()
            })
            .collect();
    }

    cands
        .iter()
        .copied()
        .filter(|&id| {
            let f = &graph.fns[id];
            if own_crate && f.crate_key != caller.crate_key {
                return false;
            }
            // The call's qualifiers must appear, in order, inside the
            // fn's own qualified segment list.
            let mut segs: Vec<&str> = vec![f.crate_key.as_str()];
            segs.extend(f.module.iter().map(String::as_str));
            if let Some(ty) = &f.self_ty {
                segs.push(ty);
            }
            is_subsequence(&quals, &segs)
        })
        .collect()
}

fn is_subsequence(needle: &[String], hay: &[&str]) -> bool {
    let mut it = hay.iter();
    needle.iter().all(|n| it.any(|h| h == n))
}

/// Extract raw call shapes from one token stream, attributing each to the
/// innermost enclosing fn.
fn extract_calls(lex: &Lexed, owner: &[Option<usize>]) -> Vec<RawCall> {
    let n = lex.toks.len();
    let mut out = Vec::new();
    for i in 0..n {
        let Some(caller) = owner.get(i).copied().flatten() else {
            continue;
        };
        // Method call: `. name [::<…>] (`.
        if lex.punct(i) == Some('.') {
            if let Some(name) = lex.ident(i + 1) {
                if let Some(open) = after_turbofish(lex, i + 2) {
                    if lex.punct(open) == Some('(') {
                        out.push(RawCall {
                            caller,
                            line: lex.line(i + 1),
                            quals: Vec::new(),
                            name: name.to_string(),
                            method: true,
                        });
                    }
                }
            }
            continue;
        }
        // Plain / path call: `name [::<…>] (` not preceded by `.` or `fn`
        // and not a macro (`name!`).
        let Some(name) = lex.ident(i) else { continue };
        if NOT_CALLS.contains(&name) {
            continue;
        }
        if matches!(lex.punct(i.wrapping_sub(1)), Some('.') | Some('!'))
            || lex.ident(i.wrapping_sub(1)) == Some("fn")
        {
            continue;
        }
        // Skip path *middles*: `a::name::b(…)` — name is a qualifier here.
        if lex.punct(i + 1) == Some(':') && lex.punct(i + 2) == Some(':') {
            continue;
        }
        if lex.punct(i + 1) == Some('!') {
            continue; // macro
        }
        let Some(open) = after_turbofish(lex, i + 1) else {
            continue;
        };
        if lex.punct(open) != Some('(') {
            continue;
        }
        // Walk back over `seg ::` qualifiers.
        let mut quals: Vec<String> = Vec::new();
        let mut b = i;
        while b >= 2
            && lex.punct(b - 1) == Some(':')
            && lex.punct(b - 2) == Some(':')
            && b >= 3
            && lex.ident(b - 3).is_some()
        {
            quals.insert(0, lex.ident(b - 3).expect("checked").to_string());
            b -= 3;
        }
        out.push(RawCall {
            caller,
            line: lex.line(i),
            quals,
            name: name.to_string(),
            method: false,
        });
    }
    out
}

/// Skip a `::<…>` turbofish starting at `i`; returns the index of the
/// token after it (or `i` unchanged when there is none).
fn after_turbofish(lex: &Lexed, i: usize) -> Option<usize> {
    if lex.punct(i) == Some(':') && lex.punct(i + 1) == Some(':') && lex.punct(i + 2) == Some('<') {
        let mut depth = 0i32;
        let mut j = i + 2;
        while j < lex.toks.len() {
            match lex.punct(j) {
                Some('<') => depth += 1,
                Some('>') => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(j + 1);
                    }
                }
                _ => {}
            }
            j += 1;
        }
        return None;
    }
    Some(i)
}

/// Transitive closure helper: every fn reachable from `roots` following
/// out-edges, with `blocked` edges excluded. Returns the visit set plus a
/// BFS parent map (edge index used to reach each fn) for chain rendering.
pub fn reachable(
    cg: &CallGraph,
    roots: &[usize],
    blocked: &BTreeSet<usize>,
) -> (BTreeSet<usize>, BTreeMap<usize, usize>) {
    let mut seen: BTreeSet<usize> = roots.iter().copied().collect();
    let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
    let mut queue: std::collections::VecDeque<usize> = roots.iter().copied().collect();
    while let Some(f) = queue.pop_front() {
        if let Some(out) = cg.out.get(&f) {
            for &ei in out {
                if blocked.contains(&ei) {
                    continue;
                }
                let e = &cg.edges[ei];
                if seen.insert(e.callee) {
                    parent.insert(e.callee, ei);
                    queue.push_back(e.callee);
                }
            }
        }
    }
    (seen, parent)
}
