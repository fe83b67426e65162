//! gaugelint CLI: `cargo run -p lint -- [flags] crates tests`.
//!
//! Walks the given roots (default `crates tests`) for `.rs` files —
//! skipping `target/`, `vendor/`, `fixtures/`, and `.git/` — runs the
//! whole-workspace pass (lexical rules + item-graph taint), prints
//! findings, and exits non-zero if anything unsuppressed (and not
//! baselined) was found.
//!
//! Flags:
//!
//! * `--format human|json` — output format (default `human`). The JSON
//!   schema is stable: one finding object per line with `rule`, `path`,
//!   `line`, `snippet`, `suppressed`, and optional `detail` keys, then a
//!   `summary` object.
//! * `--baseline <file>` — a previous `--format json` run; only findings
//!   *beyond* the baseline (per `rule|path|snippet` key count) fail the
//!   run.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut format = "human".to_string();
    let mut baseline: Option<String> = None;
    let mut roots: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--format" => match args.next() {
                Some(v) if v == "human" || v == "json" => format = v,
                _ => {
                    eprintln!("gaugelint: --format takes `human` or `json`");
                    return ExitCode::from(2);
                }
            },
            "--baseline" => match args.next() {
                Some(v) => baseline = Some(v),
                None => {
                    eprintln!("gaugelint: --baseline needs a file");
                    return ExitCode::from(2);
                }
            },
            _ => roots.push(a),
        }
    }
    if roots.is_empty() {
        roots = vec!["crates".to_string(), "tests".to_string()];
    }

    let mut files: Vec<PathBuf> = Vec::new();
    for root in &roots {
        let p = Path::new(root);
        if !p.exists() {
            eprintln!("gaugelint: no such path: {root}");
            return ExitCode::from(2);
        }
        collect(p, &mut files);
    }
    files.sort();
    files.dedup();

    let mut sources: Vec<(String, String)> = Vec::new();
    for f in &files {
        let Ok(src) = std::fs::read_to_string(f) else {
            eprintln!("gaugelint: skipping unreadable file {}", f.display());
            continue;
        };
        sources.push((f.to_string_lossy().replace('\\', "/"), src));
    }

    let report = lint::lint_workspace(&sources);

    // Baseline filter: a finding fails the run only when its
    // `rule|path|snippet` key occurs more often than in the baseline.
    let baseline_counts: BTreeMap<String, usize> = match &baseline {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => baseline_keys(&text),
            Err(e) => {
                eprintln!("gaugelint: cannot read baseline {path}: {e}");
                return ExitCode::from(2);
            }
        },
        None => BTreeMap::new(),
    };
    let mut seen: BTreeMap<String, usize> = BTreeMap::new();
    let mut failing = 0usize;
    let mut baselined = 0usize;
    for f in &report.findings {
        let key = finding_key(f.rule, &f.file, &f.snippet);
        let n = seen.entry(key.clone()).or_insert(0);
        *n += 1;
        if *n <= baseline_counts.get(&key).copied().unwrap_or(0) {
            baselined += 1;
        } else {
            failing += 1;
        }
    }

    match format.as_str() {
        "json" => print_json(&report),
        _ => print_human(&report, baselined),
    }

    if failing > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn print_human(report: &lint::WorkspaceReport, baselined: usize) {
    for fd in &report.findings {
        println!("gaugelint[{}] {}:{}: {}", fd.rule, fd.file, fd.line, fd.snippet);
        if let Some(d) = &fd.detail {
            println!("    chain: {d}");
        }
    }
    let mut per_rule: BTreeMap<&'static str, usize> = BTreeMap::new();
    for fd in &report.findings {
        *per_rule.entry(fd.rule).or_insert(0) += 1;
    }
    // Machine-readable trailer (stable key order; no JSON library needed).
    let per_rule_json = per_rule
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "gaugelint-summary {{\"files\":{},\"findings\":{},\"suppressed\":{},\"baselined\":{},\"per_rule\":{{{}}}}}",
        report.files,
        report.findings.len(),
        report.suppressed_findings.len(),
        baselined,
        per_rule_json
    );
}

fn print_json(report: &lint::WorkspaceReport) {
    println!("{{");
    println!("  \"version\": 1,");
    println!("  \"findings\": [");
    let all: Vec<(&lint::Finding, bool)> = report
        .findings
        .iter()
        .map(|f| (f, false))
        .chain(report.suppressed_findings.iter().map(|f| (f, true)))
        .collect();
    for (i, (f, sup)) in all.iter().enumerate() {
        let detail = f
            .detail
            .as_ref()
            .map(|d| format!(", \"detail\": \"{}\"", lint::json_escape(d)))
            .unwrap_or_default();
        println!(
            "    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"snippet\": \"{}\", \"suppressed\": {}{}}}{}",
            f.rule,
            lint::json_escape(&f.file),
            f.line,
            lint::json_escape(&f.snippet),
            sup,
            detail,
            if i + 1 < all.len() { "," } else { "" }
        );
    }
    println!("  ],");
    println!(
        "  \"summary\": {{\"files\": {}, \"findings\": {}, \"suppressed\": {}}}",
        report.files,
        report.findings.len(),
        report.suppressed_findings.len()
    );
    println!("}}");
}

fn finding_key(rule: &str, path: &str, snippet: &str) -> String {
    format!(
        "{rule}|{}|{}",
        lint::json_escape(path),
        lint::json_escape(snippet)
    )
}

/// Parse a baseline file (the JSON output of a previous run) into
/// `rule|path|snippet` → count. One finding object per line, so a line
/// scan with quoted-field extraction is enough — and unsuppressed
/// findings only (a suppression in the tree shouldn't hide a new
/// identical finding elsewhere).
fn baseline_keys(text: &str) -> BTreeMap<String, usize> {
    let mut out: BTreeMap<String, usize> = BTreeMap::new();
    for line in text.lines() {
        let Some(rule) = json_field(line, "rule") else {
            continue;
        };
        let (Some(path), Some(snippet)) = (json_field(line, "path"), json_field(line, "snippet"))
        else {
            continue;
        };
        if line.contains("\"suppressed\": true") {
            continue;
        }
        *out.entry(format!("{rule}|{path}|{snippet}")).or_insert(0) += 1;
    }
    out
}

/// Extract the raw (still-escaped) value of `"key": "value"` from a
/// single-line JSON object.
fn json_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => {
                out.push('\\');
                if let Some(n) = chars.next() {
                    out.push(n);
                }
            }
            '"' => return Some(out),
            c => out.push(c),
        }
    }
    None
}

/// Recursively gather `.rs` files, skipping build output, vendored code,
/// and binary fixtures.
fn collect(p: &Path, out: &mut Vec<PathBuf>) {
    if p.is_dir() {
        let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if matches!(name, "target" | "vendor" | "fixtures" | ".git") {
            return;
        }
        let Ok(rd) = std::fs::read_dir(p) else { return };
        let mut entries: Vec<PathBuf> = rd.flatten().map(|e| e.path()).collect();
        entries.sort();
        for e in entries {
            collect(&e, out);
        }
    } else if p.extension().and_then(|e| e.to_str()) == Some("rs") {
        out.push(p.to_path_buf());
    }
}
