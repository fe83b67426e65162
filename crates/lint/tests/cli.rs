//! End-to-end acceptance test for the gaugelint binary: build a fixture
//! workspace on disk (in a temp dir whose path has no `tests` component,
//! so nothing is test-masked), run the real CLI against it, and check
//! the exit codes and output formats the verify gate depends on.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixture_root(tag: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("gaugelint-cli-{tag}"));
    if root.exists() {
        fs::remove_dir_all(&root).expect("clean fixture root");
    }
    // The 3-call-deep laundered SystemTime::now from the acceptance
    // criteria, reaching the render path across a module boundary.
    let src = root.join("crates/app/src");
    fs::create_dir_all(&src).expect("mkdir fixture");
    fs::write(
        src.join("lib.rs"),
        "pub mod clockmod;\n\
         pub fn render_report() -> u64 { crate::clockmod::step_one() }\n",
    )
    .expect("write lib.rs");
    fs::write(
        src.join("clockmod.rs"),
        "pub fn step_one() -> u64 { step_two() }\n\
         fn step_two() -> u64 { stamp() }\n\
         fn stamp() -> u64 {\n\
         \x20   std::time::SystemTime::now().elapsed().map(|d| d.as_secs()).unwrap_or(0)\n\
         }\n",
    )
    .expect("write clockmod.rs");
    root
}

fn run_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lint"))
        .args(args)
        .output()
        .expect("run gaugelint")
}

#[test]
fn laundered_clock_fails_with_the_full_chain_printed() {
    let root = fixture_root("chain");
    let app = root.join("crates/app");
    let out = run_lint(&[app.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(1),
        "a reachable sink must fail the lint\nstdout:\n{stdout}"
    );
    assert!(stdout.contains("nondeterministic-reach"), "{stdout}");
    // The full call chain, root to sink, on the chain detail line.
    assert!(
        stdout.contains(
            "app::render_report → app::clockmod::step_one → app::clockmod::step_two \
             → app::clockmod::stamp → SystemTime::now (clock)"
        ),
        "full chain printed:\n{stdout}"
    );
}

#[test]
fn json_format_is_stable_across_runs_and_baseline_waives_known_findings() {
    let root = fixture_root("baseline");
    let app = root.join("crates/app");
    let app_s = app.to_str().unwrap();

    let a = run_lint(&["--format", "json", app_s]);
    let b = run_lint(&["--format", "json", app_s]);
    assert_eq!(a.status.code(), Some(1));
    assert_eq!(a.stdout, b.stdout, "JSON findings must be byte-identical");
    let json = String::from_utf8_lossy(&a.stdout);
    assert!(json.contains("\"rule\": \"nondeterministic-reach\""), "{json}");
    assert!(json.contains("\"suppressed\": false"), "{json}");

    // Accepting today's findings as the baseline turns the run green...
    let baseline = root.join("baseline.json");
    fs::write(&baseline, a.stdout).expect("write baseline");
    let waived = run_lint(&["--baseline", baseline.to_str().unwrap(), app_s]);
    let waived_out = String::from_utf8_lossy(&waived.stdout);
    assert_eq!(
        waived.status.code(),
        Some(0),
        "baselined findings must not fail\n{waived_out}"
    );
    // Two findings waived: the taint chain and the lexical wall-clock
    // hit on the sink line itself.
    assert!(waived_out.contains("\"baselined\":2"), "{waived_out}");

    // ...but a *new* finding beyond the baseline still fails.
    fs::write(
        app.join("src/extra.rs"),
        "pub fn render_more() -> u64 { std::time::SystemTime::now().elapsed().map(|d| d.as_secs()).unwrap_or(0) }\n",
    )
    .expect("write extra.rs");
    fs::write(
        app.join("src/lib.rs"),
        "pub mod clockmod;\npub mod extra;\n\
         pub fn render_report() -> u64 { crate::clockmod::step_one() }\n",
    )
    .expect("rewrite lib.rs");
    let regressed = run_lint(&["--baseline", baseline.to_str().unwrap(), app_s]);
    assert_eq!(
        regressed.status.code(),
        Some(1),
        "a finding beyond the baseline must fail\n{}",
        String::from_utf8_lossy(&regressed.stdout)
    );
}

#[test]
fn malformed_flags_exit_2() {
    let out = run_lint(&["--format", "yaml"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run_lint(&["--baseline"]);
    assert_eq!(out.status.code(), Some(2));
}
