//! gaugelint — the repo's in-tree invariant checker.
//!
//! The determinism contract (DESIGN.md §10) says the merged
//! `PipelineReport` is byte-identical at any crawl/analysis worker count
//! and that chaos faults surface as typed errors, never panics. The three
//! classic ways that contract rots are (a) iterating a `HashMap` into
//! rendered output, (b) reading the wall clock on a control path, and
//! (c) `unwrap()` on a path a fault schedule can reach. gaugelint is two
//! passes over the same token stream, zero dependencies:
//!
//! * a **lexical pass** — per-line token-shape rules ([`lint_source`]);
//! * a **semantic pass** ([`lint_workspace`], DESIGN.md §15) — an item
//!   graph and name-resolved call graph over every workspace file, on
//!   which determinism *taint* propagates transitively from known sinks
//!   ([`taint`]).
//!
//! # Suppressions
//!
//! A finding is silenced by a plain line comment on the same line or the
//! line above. One clause per comment:
//!
//! ```text
//! // gaugelint: allow(wall-clock) — reason for the exception
//! // gaugelint: deterministic-via(clock) — reason the source is injected
//! ```
//!
//! `deterministic-via(clock|seed)` both severs the taint edge/sink on
//! its line *and* suppresses the matching lexical rule (`wall-clock` /
//! `seed-from-entropy`), so one annotation documents one injection
//! point. Unknown rule names and malformed directives are themselves
//! findings (`bad-suppression`), and `bad-suppression` cannot be
//! suppressed — a typo'd allow can never silently disable a rule.

pub mod callgraph;
pub mod items;
pub mod lexer;
mod rules;
pub mod taint;

use std::collections::{BTreeMap, BTreeSet};

/// Every rule gaugelint knows, in documentation order.
/// `nondeterministic-reach` is the semantic (workspace-pass) rule;
/// `bad-suppression` is the meta-rule for broken `allow(...)` directives.
pub const RULES: &[&str] = &[
    "hashmap-iter-order",
    "wall-clock",
    "unwrap-in-fault-path",
    "deprecated-api",
    "lock-across-send",
    "nested-lock",
    "seed-from-entropy",
    "float-accum-order",
    "relaxed-ordering-in-report",
    "todo-unimplemented",
    "literal-duration-in-retry",
    "blocking-call-in-reactor",
    "nondeterministic-reach",
    "bad-suppression",
];

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule name (an entry of [`RULES`]).
    pub rule: &'static str,
    /// File the finding is in (as passed to [`lint_source`]).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Trimmed source line, truncated to ~120 chars.
    pub snippet: String,
    /// Semantic-pass detail (the taint call chain).
    pub detail: Option<String>,
}

/// Result of linting one file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Unsuppressed findings, ordered by (line, rule).
    pub findings: Vec<Finding>,
    /// Findings silenced by a valid `allow(...)` directive.
    pub suppressed: usize,
}

/// Result of the whole-workspace pass.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    /// Unsuppressed findings (lexical + semantic), ordered by
    /// (file, line, rule).
    pub findings: Vec<Finding>,
    /// Findings silenced by a valid directive, same order.
    pub suppressed_findings: Vec<Finding>,
    /// Number of files linted.
    pub files: usize,
}

/// Per-file pass internals shared by [`lint_source`] and
/// [`lint_workspace`].
struct FilePass {
    report: FileReport,
    /// The suppressed findings, itemized (the report only counts them).
    suppressed_findings: Vec<Finding>,
    /// line → rule names allowed there (after `deterministic-via`
    /// translation).
    allow: BTreeMap<u32, BTreeSet<String>>,
}

fn snippet_of(lines: &[&str], line: u32) -> String {
    let Some(l) = lines.get(line.saturating_sub(1) as usize) else {
        return String::new();
    };
    let t = l.trim();
    if t.chars().count() > 120 {
        let cut: String = t.chars().take(117).collect();
        format!("{cut}...")
    } else {
        t.to_string()
    }
}

fn allowed(allow: &BTreeMap<u32, BTreeSet<String>>, line: u32, rule: &str) -> bool {
    let hit = |l: u32| allow.get(&l).is_some_and(|s| s.contains(rule));
    hit(line) || (line > 1 && hit(line - 1))
}

fn file_pass(path: &str, src: &str, lex: &lexer::Lexed) -> FilePass {
    let lines: Vec<&str> = src.lines().collect();
    let mut findings: Vec<Finding> = Vec::new();
    let mut allow: BTreeMap<u32, BTreeSet<String>> = BTreeMap::new();
    let bad = |line: u32, findings: &mut Vec<Finding>| {
        findings.push(Finding {
            rule: "bad-suppression",
            file: path.to_string(),
            line,
            snippet: snippet_of(&lines, line),
            detail: None,
        })
    };
    for d in &lex.directives {
        match d {
            lexer::Directive::Malformed { line } => bad(*line, &mut findings),
            lexer::Directive::Allow { line, rules } => {
                for r in rules {
                    if r != "bad-suppression" && RULES.contains(&r.as_str()) {
                        allow.entry(*line).or_default().insert(r.clone());
                    } else {
                        bad(*line, &mut findings);
                    }
                }
            }
            lexer::Directive::DeterministicVia { line, kinds } => {
                // One annotation covers both the lexical sink rule and
                // the taint edge (severed in the taint pass itself).
                for k in kinds {
                    let rule = match k.as_str() {
                        "clock" => "wall-clock",
                        _ => "seed-from-entropy",
                    };
                    allow.entry(*line).or_default().insert(rule.to_string());
                }
            }
        }
    }

    let ctx = rules::Ctx::new(path, lex);
    let mut suppressed_findings: Vec<Finding> = Vec::new();
    for (rule, line) in rules::run_all(&ctx) {
        let f = Finding {
            rule,
            file: path.to_string(),
            line,
            snippet: snippet_of(&lines, line),
            detail: None,
        };
        if allowed(&allow, line, rule) {
            suppressed_findings.push(f);
        } else {
            findings.push(f);
        }
    }
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    FilePass {
        report: FileReport {
            findings,
            suppressed: suppressed_findings.len(),
        },
        suppressed_findings,
        allow,
    }
}

/// Lint one source file (lexical rules only). `path` drives the
/// path-scoped rules (`unwrap-in-fault-path`, `float-accum-order`,
/// bench/test exemptions), so callers must pass repo-relative paths like
/// `crates/playstore/src/crawler.rs`.
pub fn lint_source(path: &str, src: &str) -> FileReport {
    let lex = lexer::lex(src);
    file_pass(path, src, &lex).report
}

/// Lint the whole workspace: the lexical pass over every file plus the
/// semantic pass (item graph → call graph → taint) across all
/// of them. `files` are `(repo-relative path, source)` pairs.
pub fn lint_workspace(files: &[(String, String)]) -> WorkspaceReport {
    let mut out = WorkspaceReport {
        files: files.len(),
        ..WorkspaceReport::default()
    };

    let mut lexed: BTreeMap<String, lexer::Lexed> = BTreeMap::new();
    let mut sources: BTreeMap<&str, &str> = BTreeMap::new();
    for (path, src) in files {
        lexed.insert(path.clone(), lexer::lex(src));
        sources.insert(path, src);
    }

    // Per-file lexical pass; keep the allow maps for semantic findings.
    let mut allows: BTreeMap<&str, BTreeMap<u32, BTreeSet<String>>> = BTreeMap::new();
    for (path, src) in files {
        let pass = file_pass(path, src, &lexed[path]);
        out.findings.extend(pass.report.findings);
        out.suppressed_findings.extend(pass.suppressed_findings);
        allows.insert(path, pass.allow);
    }

    // Item graph + call graph.
    let mut graph = items::ItemGraph::default();
    let mut test_masks: BTreeMap<String, Vec<bool>> = BTreeMap::new();
    for (path, lex) in &lexed {
        let mask = rules::test_mask_for(path, lex);
        items::parse_file(&mut graph, path, lex, &mask);
        test_masks.insert(path.clone(), mask);
    }
    let cg = callgraph::build(&graph, &lexed);

    // Determinism taint.
    let severed: BTreeMap<String, BTreeMap<u32, BTreeSet<taint::Cat>>> = lexed
        .iter()
        .map(|(p, lex)| (p.clone(), taint::severed_lines(lex)))
        .collect();
    let sinks = taint::find_sinks(&graph, &lexed, &test_masks, &severed);
    for t in taint::run(&graph, &cg, &sinks, &severed) {
        let snippet = sources
            .get(t.file.as_str())
            .map(|src| snippet_of(&src.lines().collect::<Vec<_>>(), t.line))
            .unwrap_or_default();
        let f = Finding {
            rule: taint::RULE,
            file: t.file.clone(),
            line: t.line,
            snippet,
            detail: Some(t.chain),
        };
        if allows
            .get(t.file.as_str())
            .is_some_and(|a| allowed(a, t.line, taint::RULE))
        {
            out.suppressed_findings.push(f);
        } else {
            out.findings.push(f);
        }
    }

    out.findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out.suppressed_findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out
}

/// Escape a string for the JSON emitters in this crate and the CLI.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
