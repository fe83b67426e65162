//! The item graph: a lightweight parse of every workspace file into the
//! items the semantic passes need — module paths, `fn` definitions with
//! body spans, `impl` blocks, and `use` imports.
//!
//! This is deliberately *not* a Rust parser. It walks the token stream
//! from [`crate::lexer`] tracking brace depth, records where each `fn`
//! body starts and ends, and derives qualified paths
//! (`crate::module::Type::name`) good enough for the conservative name
//! resolution in [`crate::callgraph`]. Anything it cannot classify it
//! skips — the passes built on top over-approximate reachability, so a
//! missed item can hide a finding but never invent one.

use crate::lexer::Lexed;
use std::collections::BTreeMap;

/// One `fn` definition.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Index of this item in [`ItemGraph::fns`].
    pub id: usize,
    /// Normalized crate key (`core`, `harness`, `tests`, fixture names —
    /// the `gaugenn-` prefix is stripped).
    pub crate_key: String,
    /// Module path inside the crate (file-derived plus inline `mod`s).
    pub module: Vec<String>,
    /// `impl` self type when this is a method.
    pub self_ty: Option<String>,
    /// Bare function name.
    pub name: String,
    /// File the definition is in (repo-relative, forward slashes).
    pub file: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Token index range of the body, `[open_brace, close_brace]`
    /// inclusive; `None` for bodyless trait declarations.
    pub body: Option<(usize, usize)>,
    /// Entirely inside test code (`#[cfg(test)]` / `tests/` file)?
    pub is_test: bool,
}

impl FnItem {
    /// Rendered qualified path: `crate::module::Type::name`.
    pub fn path(&self) -> String {
        let mut parts: Vec<&str> = vec![self.crate_key.as_str()];
        parts.extend(self.module.iter().map(String::as_str));
        if let Some(ty) = &self.self_ty {
            parts.push(ty);
        }
        parts.push(&self.name);
        parts.join("::")
    }
}

/// Items extracted from one file.
#[derive(Debug, Default)]
pub struct FileItems {
    /// `fn` definitions in source order (ids index [`ItemGraph::fns`]).
    pub fn_ids: Vec<usize>,
    /// `use` imports: simple (possibly renamed) name → full path segments.
    pub imports: BTreeMap<String, Vec<String>>,
}

/// The whole-workspace item inventory.
#[derive(Debug, Default)]
pub struct ItemGraph {
    /// Every `fn` in the workspace, in (file, source) order.
    pub fns: Vec<FnItem>,
    /// Per-file items, keyed by normalized path.
    pub files: BTreeMap<String, FileItems>,
}

/// Normalized crate key for a repo-relative path: the component after the
/// *last* `crates/` (so fixture trees nested under `crates/lint/tests/…`
/// resolve to the fixture's own crate), `tests` for root integration
/// tests, `gaugenn` for the root `src/` crate.
pub fn crate_key_for_path(path: &str) -> String {
    let comps: Vec<&str> = path.split('/').collect();
    for i in (0..comps.len().saturating_sub(1)).rev() {
        if comps[i] == "crates" {
            return comps[i + 1].to_string();
        }
    }
    if comps.first() == Some(&"tests") || comps.contains(&"tests") {
        return "tests".to_string();
    }
    "gaugenn".to_string()
}

/// File-derived module path: components between `src/` (or `tests/`) and
/// the file stem; `lib`/`main`/`mod` stems contribute nothing, `tests/`
/// file stems become a `tests::<stem>` module so integration-test fns
/// never collide with library paths.
fn module_for_path(path: &str) -> (Vec<String>, bool) {
    let comps: Vec<&str> = path.split('/').collect();
    // Find the anchor: the last `src` or `tests` component.
    let mut anchor = None;
    for i in (0..comps.len()).rev() {
        if comps[i] == "src" || comps[i] == "tests" {
            anchor = Some(i);
            break;
        }
    }
    let Some(a) = anchor else {
        return (Vec::new(), false);
    };
    let in_tests = comps[a] == "tests";
    let mut module: Vec<String> = Vec::new();
    if in_tests {
        module.push("tests".to_string());
    }
    for c in &comps[a + 1..comps.len().saturating_sub(1)] {
        module.push((*c).to_string());
    }
    if let Some(fname) = comps.last() {
        let stem = fname.strip_suffix(".rs").unwrap_or(fname);
        if !matches!(stem, "lib" | "main" | "mod") {
            module.push(stem.to_string());
        }
    }
    (module, in_tests)
}

/// Parse one lexed file into the graph. `test_mask` is the per-token
/// test flag from the rules pass (same convention: whole integration-test
/// files are fully masked).
pub fn parse_file(graph: &mut ItemGraph, path: &str, lex: &Lexed, test_mask: &[bool]) {
    let crate_key_raw = crate_key_for_path(path);
    let crate_key = crate_key_raw
        .strip_prefix("gaugenn-")
        .unwrap_or(&crate_key_raw)
        .replace('-', "_");
    let (file_module, _in_tests) = module_for_path(path);

    let mut items = FileItems::default();
    collect_imports(lex, &mut items.imports);

    let n = lex.toks.len();
    // Scope stack: (depth at open, kind). Kind: inline module name or
    // impl self type. Anonymous braces push `None`.
    enum Scope {
        Module(String),
        Impl(String),
        Other,
    }
    let mut stack: Vec<Scope> = Vec::new();
    let mut i = 0usize;
    while i < n {
        match lex.punct(i) {
            Some('{') => {
                // Classified opens are handled where the keyword is seen;
                // this is an anonymous block.
                stack.push(Scope::Other);
                i += 1;
                continue;
            }
            Some('}') => {
                stack.pop();
                i += 1;
                continue;
            }
            _ => {}
        }
        match lex.ident(i) {
            Some("mod") => {
                if let Some(name) = lex.ident(i + 1) {
                    if lex.punct(i + 2) == Some('{') {
                        stack.push(Scope::Module(name.to_string()));
                        i += 3;
                        continue;
                    }
                }
                i += 1;
            }
            Some("impl") => {
                // Scan to the block's `{`; the self type is the first
                // type ident after `for` if present, else the first type
                // ident after `impl` (skipping `<…>` generics).
                let mut j = i + 1;
                let mut angle = 0i32;
                let mut ty: Option<String> = None;
                let mut after_for = false;
                while j < n {
                    match lex.punct(j) {
                        Some('<') => angle += 1,
                        // `>` closes a generic list unless it is the tail
                        // of a `->` / `=>` arrow.
                        Some('>') if !matches!(lex.punct(j.wrapping_sub(1)), Some('-') | Some('=')) => {
                            angle -= 1
                        }
                        Some('{') if angle <= 0 => break,
                        Some(';') => break,
                        _ => {}
                    }
                    if angle == 0 {
                        if lex.ident(j) == Some("for") {
                            after_for = true;
                            ty = None;
                        } else if ty.is_none() {
                            if let Some(id) = lex.ident(j) {
                                if id != "dyn" && id != "for" {
                                    // `a::b::Type` — keep the last path seg.
                                    let mut k = j;
                                    while lex.punct(k + 1) == Some(':')
                                        && lex.punct(k + 2) == Some(':')
                                        && lex.ident(k + 3).is_some()
                                    {
                                        k += 3;
                                    }
                                    ty = lex.ident(k).map(str::to_string);
                                    j = k;
                                }
                            }
                        }
                    }
                    j += 1;
                }
                let _ = after_for;
                if j < n && lex.punct(j) == Some('{') {
                    stack.push(Scope::Impl(ty.unwrap_or_default()));
                    i = j + 1;
                } else {
                    i = j.max(i + 1);
                }
            }
            Some("fn") => {
                let Some(name) = lex.ident(i + 1) else {
                    i += 1;
                    continue;
                };
                // Signature runs to the body `{` or a `;` (no body).
                // Angle depth guards `->` arrows inside generics; brace
                // depth never opens before the body in the shapes this
                // repo uses.
                let mut j = i + 2;
                let mut angle = 0i32;
                let mut body = None;
                while j < n {
                    match lex.punct(j) {
                        Some('<') => angle += 1,
                        Some('>') if !matches!(lex.punct(j.wrapping_sub(1)), Some('-') | Some('=')) => {
                            angle -= 1
                        }
                        Some(';') if angle <= 0 => break,
                        Some('{') if angle <= 0 => {
                            // Find the matching close.
                            let mut depth = 0i32;
                            let mut m = j;
                            while m < n {
                                match lex.punct(m) {
                                    Some('{') => depth += 1,
                                    Some('}') => {
                                        depth -= 1;
                                        if depth == 0 {
                                            break;
                                        }
                                    }
                                    _ => {}
                                }
                                m += 1;
                            }
                            body = Some((j, m.min(n.saturating_sub(1))));
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                let mut module = file_module.clone();
                let mut self_ty = None;
                for s in &stack {
                    match s {
                        Scope::Module(m) => module.push(m.clone()),
                        Scope::Impl(t) if !t.is_empty() => self_ty = Some(t.clone()),
                        _ => {}
                    }
                }
                let id = graph.fns.len();
                graph.fns.push(FnItem {
                    id,
                    crate_key: crate_key.clone(),
                    module,
                    self_ty,
                    name: name.to_string(),
                    file: path.to_string(),
                    line: lex.line(i),
                    body,
                    is_test: test_mask.get(i).copied().unwrap_or(false),
                });
                items.fn_ids.push(id);
                // Continue *inside* the body so nested fns are found.
                i += 2;
            }
            _ => i += 1,
        }
    }
    graph.files.insert(path.to_string(), items);
}

/// Collect `use` imports: `use a::b::c;`, `use a::{b, c as d};`,
/// `use a::b as c;`. Globs and nested groups beyond one level are
/// ignored (the call resolver falls back to same-crate matching).
fn collect_imports(lex: &Lexed, out: &mut BTreeMap<String, Vec<String>>) {
    let n = lex.toks.len();
    let mut i = 0usize;
    while i < n {
        if lex.ident(i) != Some("use") {
            i += 1;
            continue;
        }
        // Gather the statement's tokens up to `;`.
        let start = i + 1;
        let mut end = start;
        while end < n && lex.punct(end) != Some(';') {
            end += 1;
        }
        parse_use_tree(lex, start, end, &mut Vec::new(), out);
        i = end + 1;
    }
}

/// Recursive descent over one `use` tree between token indexes
/// `[i, end)`, with `prefix` holding the path segments accumulated so
/// far.
fn parse_use_tree(
    lex: &Lexed,
    mut i: usize,
    end: usize,
    prefix: &mut Vec<String>,
    out: &mut BTreeMap<String, Vec<String>>,
) {
    let base_len = prefix.len();
    let mut last: Option<String> = None;
    while i < end {
        if let Some(id) = lex.ident(i) {
            if id == "as" {
                // `path as alias` — the alias is the visible name.
                if let (Some(alias), Some(target)) = (lex.ident(i + 1), last.take()) {
                    let mut full = prefix.clone();
                    full.push(target);
                    out.insert(alias.to_string(), full);
                }
                i += 2;
                continue;
            }
            if let Some(prev) = last.take() {
                // Two idents: the previous one was a path segment… only
                // reachable through `::`, handled below; treat defensively.
                prefix.push(prev);
            }
            last = Some(id.to_string());
            i += 1;
            continue;
        }
        match lex.punct(i) {
            Some(':') if lex.punct(i + 1) == Some(':') => {
                if let Some(seg) = last.take() {
                    prefix.push(seg);
                }
                i += 2;
            }
            Some('{') => {
                // Group: split members on top-level commas.
                let mut depth = 1i32;
                let mut j = i + 1;
                let mut member_start = j;
                while j < end && depth > 0 {
                    match lex.punct(j) {
                        Some('{') => depth += 1,
                        Some('}') => {
                            depth -= 1;
                            if depth == 0 {
                                parse_use_tree(lex, member_start, j, prefix, out);
                            }
                        }
                        Some(',') if depth == 1 => {
                            parse_use_tree(lex, member_start, j, prefix, out);
                            member_start = j + 1;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                prefix.truncate(base_len);
                return;
            }
            Some(',') => {
                // Top-level comma inside a group member — flush.
                break;
            }
            Some('*') => {
                // Glob import: unresolvable, ignore.
                last = None;
                i += 1;
            }
            _ => i += 1,
        }
    }
    if let Some(name) = last {
        if name != "self" {
            let mut full = prefix.clone();
            full.push(name.clone());
            out.insert(name, full);
        } else if let Some(seg) = prefix.last().cloned() {
            // `use a::b::{self}` — binds `b`.
            out.insert(seg, prefix.clone());
        }
    }
    prefix.truncate(base_len);
}
