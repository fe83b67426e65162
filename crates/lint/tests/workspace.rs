//! Fixture tests for the whole-workspace semantic pass: determinism
//! taint over the call graph. Fixtures are in-memory `(path, source)`
//! pairs — the paths matter (crate keys, module paths, and test masking
//! all derive from them), the disk does not.

use lint::{lint_workspace, WorkspaceReport};

fn ws(files: &[(&str, &str)]) -> WorkspaceReport {
    let files: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    lint_workspace(&files)
}

fn rules_of(r: &WorkspaceReport) -> Vec<&'static str> {
    r.findings.iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------------------- taint

/// The acceptance-criteria scenario: a `SystemTime::now` laundered
/// through a 3-deep call chain, reached from the render path. Every
/// lexical rule misses it (the sink's own line is in a helper the
/// `wall-clock` context rules don't cover by path); the taint pass must
/// report it at the sink with the full chain.
#[test]
fn three_deep_laundered_clock_reaching_render_is_found_with_chain() {
    let r = ws(&[(
        "crates/app/src/lib.rs",
        r#"
pub fn render_report() -> u64 { step_one() }
fn step_one() -> u64 { step_two() }
fn step_two() -> u64 { stamp() }
fn stamp() -> u64 {
    std::time::SystemTime::now().elapsed().map(|d| d.as_secs()).unwrap_or(0)
}
"#,
    )]);
    let taint: Vec<_> = r
        .findings
        .iter()
        .filter(|f| f.rule == "nondeterministic-reach")
        .collect();
    assert_eq!(taint.len(), 1, "findings: {:?}", r.findings);
    let f = taint[0];
    assert_eq!(f.line, 6);
    let chain = f.detail.as_deref().expect("taint findings carry the chain");
    assert_eq!(
        chain,
        "app::render_report → app::step_one → app::step_two → app::stamp → SystemTime::now (clock)"
    );
}

/// A sink reached across a crate boundary: the edge is a cross-crate
/// call resolved through a `use` import.
#[test]
fn cross_crate_edge_propagates_taint() {
    let r = ws(&[
        (
            "crates/app/src/lib.rs",
            "use gaugenn_helper::tick;\npub fn render_frame() -> u64 { tick() }\n",
        ),
        (
            "crates/helper/src/lib.rs",
            "pub fn tick() -> u64 {\n    let t = std::time::Instant::now();\n    t.elapsed().as_secs()\n}\n",
        ),
    ]);
    let taint: Vec<_> = r
        .findings
        .iter()
        .filter(|f| f.rule == "nondeterministic-reach")
        .collect();
    assert_eq!(taint.len(), 1, "findings: {:?}", r.findings);
    assert_eq!(taint[0].file, "crates/helper/src/lib.rs");
    assert_eq!(
        taint[0].detail.as_deref().unwrap(),
        "app::render_frame → helper::tick → Instant::now (clock)"
    );
}

/// `deterministic-via(clock)` at the call edge severs propagation: the
/// annotated hop declares the clock is injected, so nothing upstream of
/// it taints.
#[test]
fn deterministic_via_at_the_call_edge_severs_the_chain() {
    let r = ws(&[(
        "crates/app/src/lib.rs",
        r#"
pub fn render_report() -> u64 {
    // gaugelint: deterministic-via(clock) — stamp() reads an injected Clock in production wiring
    stamp()
}
fn stamp() -> u64 { std::time::SystemTime::now().elapsed().map(|d| d.as_secs()).unwrap_or(0) }
"#,
    )]);
    assert!(
        !rules_of(&r).contains(&"nondeterministic-reach"),
        "severed edge must not taint: {:?}",
        r.findings
    );
}

/// `deterministic-via(clock)` at the sink itself also suppresses the
/// lexical `wall-clock` rule — one annotation per injection point.
#[test]
fn deterministic_via_at_the_sink_covers_lexical_and_taint() {
    let src = "pub fn render_x() -> u64 { stamp() }\n\
               fn stamp() -> u64 {\n\
               // gaugelint: deterministic-via(clock) — injected\n\
               std::time::SystemTime::now().elapsed().map(|d| d.as_secs()).unwrap_or(0)\n\
               }\n";
    let r = ws(&[("crates/core/src/x.rs", src)]);
    assert!(
        r.findings.is_empty(),
        "both the lexical and taint findings must be covered: {:?}",
        r.findings
    );
    // The lexical wall-clock hit is itemized as suppressed, not gone.
    assert!(r.suppressed_findings.iter().any(|f| f.rule == "wall-clock"));
}

/// `allow(nondeterministic-reach)` at the sink suppresses the taint
/// finding through the ordinary allow machinery.
#[test]
fn allow_directive_suppresses_taint_finding() {
    let r = ws(&[(
        "crates/app/src/lib.rs",
        r#"
pub fn render_report() -> u64 { stamp() }
fn stamp() -> u64 {
    // gaugelint: allow(nondeterministic-reach) — demo exception
    std::time::SystemTime::now().elapsed().map(|d| d.as_secs()).unwrap_or(0)
}
"#,
    )]);
    assert!(!rules_of(&r).contains(&"nondeterministic-reach"));
    assert!(r
        .suppressed_findings
        .iter()
        .any(|f| f.rule == "nondeterministic-reach"));
}

/// Dead-code false-positive guard: a sink in a function no root can
/// reach is not a finding.
#[test]
fn unreachable_sink_is_not_a_finding() {
    let r = ws(&[(
        "crates/app/src/lib.rs",
        r#"
pub fn render_report() -> u64 { 7 }
pub fn forgotten_helper() -> u64 {
    std::time::SystemTime::now().elapsed().map(|d| d.as_secs()).unwrap_or(0)
}
"#,
    )]);
    assert!(
        !rules_of(&r).contains(&"nondeterministic-reach"),
        "dead code must not taint: {:?}",
        r.findings
    );
}

/// Sinks inside `#[cfg(test)]` code are exempt — tests may read clocks.
#[test]
fn test_code_sinks_are_exempt() {
    let r = ws(&[(
        "crates/app/src/lib.rs",
        r#"
pub fn render_report() -> u64 { 7 }
#[cfg(test)]
mod tests {
    #[test]
    fn timing() {
        let _ = std::time::Instant::now();
        let _ = super::render_report();
    }
}
"#,
    )]);
    assert!(!rules_of(&r).contains(&"nondeterministic-reach"));
}

/// Seed-category sinks (entropy) propagate independently of clock.
#[test]
fn entropy_seeding_taints_the_analysis_crate() {
    let r = ws(&[(
        "crates/analysis/src/temporal.rs",
        "pub fn bucketise() -> u64 { jitter() }\nfn jitter() -> u64 { thread_rng() }\nfn thread_rng() -> u64 { 4 }\n",
    )]);
    // `thread_rng` identifier is itself the sink token — the fixture's
    // local fn of that name is also a call target, but the sink fires at
    // the identifier inside `jitter` (category seed).
    let taint: Vec<_> = r
        .findings
        .iter()
        .filter(|f| f.rule == "nondeterministic-reach")
        .collect();
    assert!(
        !taint.is_empty(),
        "analysis-crate fns are roots; entropy must taint: {:?}",
        r.findings
    );
    assert!(taint[0].detail.as_deref().unwrap().contains("(seed)"));
}

/// Two identical runs emit byte-identical findings.
#[test]
fn workspace_pass_is_deterministic() {
    let files = [(
        "crates/app/src/lib.rs",
        "pub fn render_a() -> u64 { h() }\nfn h() -> u64 { std::time::SystemTime::now().elapsed().map(|d| d.as_secs()).unwrap_or(0) }\n",
    )];
    let a = ws(&files);
    let b = ws(&files);
    assert_eq!(a.findings, b.findings);
}

// ------------------------------------------------------------ self-lint

/// gaugelint passes its own semantic pass: lint every source file of the
/// lint crate itself (read from disk) and expect zero findings.
#[test]
fn lint_lints_itself_clean() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files: Vec<(String, String)> = Vec::new();
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("lint src dir")
        .flatten()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.extension().and_then(|e| e.to_str()) == Some("rs") {
            let rel = format!(
                "crates/lint/src/{}",
                p.file_name().expect("file").to_string_lossy()
            );
            files.push((rel, std::fs::read_to_string(&p).expect("readable")));
        }
    }
    assert!(files.len() >= 7, "expected the full module set, got {files:?}");
    let r = lint_workspace(&files);
    assert!(r.findings.is_empty(), "self-lint: {:?}", r.findings);
}
