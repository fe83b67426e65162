//! Crash-fault injection matrix: really SIGKILL a child run at each
//! registered crash point, resume it, and demand **byte-identical**
//! stdout — at several crawl × analysis worker-count combinations.
//!
//! The child is this same test binary re-invoked with
//! `GAUGENN_CRASH_CHILD` set, which turns the otherwise-inert
//! [`crash_child_runner`] test into the workload: a journaled,
//! persistently-cached tiny pipeline (or a journaled campaign) whose
//! crash point is armed through the `GAUGENN_CRASH` environment the
//! [`gaugenn_core::crashpoint`] layer reads. A fired point delivers a
//! genuine `SIGKILL` — no destructors, no flushing — so everything the
//! journal and cache store claim about torn tails is exercised against
//! the real failure mode.
//!
//! A pipeline child reports what `repro` prints of a snapshot: the
//! rendered report and the crawl and admission counters behind its
//! `crawl:` line, so a resume that replays or re-crawls with different
//! counters diverges here too.

use gaugenn_core::pipeline::{Pipeline, PipelineConfig, PipelineReport};
use gaugenn_playstore::corpus::Snapshot;
use std::collections::BTreeSet;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

const SEED: u64 = 7;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gaugenn-failure-injection-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The child workload. Inert under `cargo test`; becomes the pipeline
/// (or campaign) under test when the parent re-invokes this binary with
/// `GAUGENN_CRASH_CHILD` set. The armed `GAUGENN_CRASH` point kills the
/// process mid-run; without one the run completes and writes its
/// rendered report (or commit ledger) for the parent to compare.
#[test]
fn crash_child_runner() {
    let Ok(mode) = std::env::var("GAUGENN_CRASH_CHILD") else {
        return;
    };
    match mode.as_str() {
        "pipeline" => pipeline_child(),
        "campaign" => campaign_child(),
        other => panic!("unknown child mode {other}"),
    }
}

fn pipeline_child() {
    let dir = PathBuf::from(std::env::var("GAUGENN_CHILD_DIR").expect("child dir"));
    let mut cfg = PipelineConfig::tiny(Snapshot::Y2021, SEED);
    cfg.workers = env_usize("GAUGENN_CHILD_WORKERS", 1);
    cfg.analysis_workers = env_usize("GAUGENN_CHILD_ANALYSIS_WORKERS", 1);
    cfg.journal_dir = Some(dir.join("journal"));
    cfg.analysis_cache_dir = Some(dir.join("cache"));
    cfg.resume = std::env::var("GAUGENN_CHILD_RESUME").is_ok();
    let report = Pipeline::new(cfg).run().expect("child pipeline");
    fs::write(dir.join("report.txt"), child_report(&report)).expect("write report");
}

/// The render plus the counters the `crawl:` summary prints.
fn child_report(report: &PipelineReport) -> String {
    format!(
        "{}{:?}\n{:?}\n",
        report.render_text(),
        report.crawl_stats,
        report.admission
    )
}

/// Spawn the child runner with the given extra env; returns its exit
/// status.
fn spawn_child(mode: &str, dir: &Path, envs: &[(&str, String)]) -> std::process::ExitStatus {
    let exe = std::env::current_exe().expect("test binary path");
    let mut cmd = Command::new(exe);
    cmd.args(["crash_child_runner", "--exact", "--nocapture"])
        .env_remove("GAUGENN_CRASH")
        .env("GAUGENN_CRASH_CHILD", mode)
        .env("GAUGENN_CHILD_DIR", dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.status().expect("spawn child")
}

fn killed_by_sigkill(status: std::process::ExitStatus) -> bool {
    use std::os::unix::process::ExitStatusExt;
    status.signal() == Some(9)
}

/// What the uninterrupted single-worker run reports; every resumed
/// child must match it.
fn baseline() -> String {
    let report = Pipeline::new(PipelineConfig::tiny(Snapshot::Y2021, SEED))
        .run()
        .expect("baseline");
    child_report(&report)
}

/// The tentpole matrix: SIGKILL at four registered points, at three
/// (crawl workers, analysis workers) shapes, resume each, and diff
/// stdout bytes. The crawl streams into extraction, so `app-extract` and
/// `model-analysis` kill the run mid-crawl and `post-crawl` may kill it
/// mid-analysis.
#[test]
fn sigkill_matrix_resume_is_byte_identical() {
    // render_text and the calm crawl and admission counters are
    // worker-invariant by contract, so one reference serves the whole
    // matrix (other tests pin the contract).
    let reference = baseline();
    let combos: [(usize, usize); 3] = [(1, 1), (4, 2), (2, 4)];
    let points: [(&str, u64); 4] = [
        ("post-crawl", 1),
        ("app-extract", 3),
        ("model-analysis", 2),
        ("cache-append", 2),
    ];
    for (workers, analysis_workers) in combos {
        for (point, nth) in points {
            let dir = scratch(&format!("matrix-{workers}-{analysis_workers}-{point}"));
            fs::create_dir_all(&dir).unwrap();
            let shape = [
                ("GAUGENN_CHILD_WORKERS", workers.to_string()),
                ("GAUGENN_CHILD_ANALYSIS_WORKERS", analysis_workers.to_string()),
            ];
            let mut armed = shape.to_vec();
            armed.push(("GAUGENN_CRASH", format!("{point}:{nth}")));
            let status = spawn_child("pipeline", &dir, &armed);
            assert!(
                killed_by_sigkill(status),
                "{workers}w/{analysis_workers}a {point}:{nth}: child must die by SIGKILL, got {status:?}"
            );
            assert!(
                !dir.join("report.txt").exists(),
                "a killed child must not have reported"
            );

            let mut resume = shape.to_vec();
            resume.push(("GAUGENN_CHILD_RESUME", "1".to_string()));
            let status = spawn_child("pipeline", &dir, &resume);
            assert!(status.success(), "{workers}w/{analysis_workers}a {point}: resume failed");
            let resumed = fs::read_to_string(dir.join("report.txt")).expect("resumed report");
            assert_eq!(
                resumed, reference,
                "{workers}w/{analysis_workers}a {point}:{nth}: resumed stdout diverged"
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

/// Pipeline-level journal corruption: flip a bit in the journal a killed
/// run left behind — resume must degrade (replay stops at the last good
/// record, and a journal without its crawl-done record is crawled
/// again), never error, never diverge.
#[test]
fn corrupted_journal_never_errors_and_never_diverges() {
    let reference = baseline();
    let dir = scratch("corrupt");
    fs::create_dir_all(&dir).unwrap();
    let armed = [("GAUGENN_CRASH", "model-analysis:2".to_string())];
    let status = spawn_child("pipeline", &dir, &armed);
    assert!(killed_by_sigkill(status));

    let journal = dir.join("journal").join("run-Y2021.gnjl");
    let mut raw = fs::read(&journal).expect("journal survives the kill");
    assert!(raw.len() > 64, "journaled crawl should be substantial");
    // Flip one bit mid-file: replay must stop at the last good record.
    let at = raw.len() / 2;
    raw[at] ^= 0x10;
    fs::write(&journal, &raw).unwrap();

    let resume = [("GAUGENN_CHILD_RESUME", "1".to_string())];
    let status = spawn_child("pipeline", &dir, &resume);
    assert!(status.success(), "corruption must degrade, not error");
    let resumed = fs::read_to_string(dir.join("report.txt")).unwrap();
    assert_eq!(resumed, reference, "corruption must never diverge output");
    let _ = fs::remove_dir_all(&dir);
}

/// A journal from a different run configuration (stale generation) is
/// discarded wholesale: the resumed run recrawls everything and still
/// matches its own baseline.
#[test]
fn stale_generation_journal_is_discarded_not_replayed() {
    let dir = scratch("stale");
    let mut cfg = PipelineConfig::tiny(Snapshot::Y2021, SEED);
    cfg.journal_dir = Some(dir.join("journal"));
    Pipeline::new(cfg).run().expect("first run");

    let mut other = PipelineConfig::tiny(Snapshot::Y2021, SEED + 1);
    other.journal_dir = Some(dir.join("journal"));
    other.resume = true;
    let resumed = Pipeline::new(other).run().expect("stale journal must not error");
    assert!(!resumed.crawl_replayed, "stale journal must not replay");
    let fresh = Pipeline::new(PipelineConfig::tiny(Snapshot::Y2021, SEED + 1))
        .run()
        .unwrap();
    assert_eq!(child_report(&resumed), child_report(&fresh));
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Campaign: job-commit crash + resume via the commit hook seam.
// ---------------------------------------------------------------------

fn campaign_jobs() -> Vec<gaugenn_harness::campaign::Campaign> {
    use gaugenn_dnn::task::Task;
    use gaugenn_dnn::zoo::{build_for_task, SizeClass};
    use gaugenn_harness::job::JobSpec;
    use gaugenn_soc::sched::ThreadConfig;
    use gaugenn_soc::Backend;
    (1..=3u64)
        .map(|id| {
            let g = build_for_task(Task::MovementTracking, id, SizeClass::Small, true).graph;
            let files = gaugenn_modelfmt::encode(&g, gaugenn_modelfmt::Framework::TfLite)
                .expect("encode")
                .files;
            gaugenn_harness::campaign::Campaign {
                spec: JobSpec {
                    runs: 2,
                    warmups: 1,
                    ..JobSpec::new(id, files[0].0.clone(), Backend::Cpu(ThreadConfig::unpinned(2)))
                },
                files,
            }
        })
        .collect()
}

fn campaign_child() {
    use gaugenn_core::crashpoint::{self, CrashPoint};
    use gaugenn_harness::campaign::{run_campaign_with, CampaignConfig, CampaignResult};

    let dir = PathBuf::from(std::env::var("GAUGENN_CHILD_DIR").expect("child dir"));
    let ledger = dir.join("commits.log");
    let resume = std::env::var("GAUGENN_CHILD_RESUME").is_ok();
    let completed: BTreeSet<(String, u64)> = if resume {
        fs::read_to_string(&ledger)
            .unwrap_or_default()
            .lines()
            .filter_map(|l| {
                let (dev, id) = l.split_once(' ')?;
                Some((dev.to_string(), id.parse().ok()?))
            })
            .collect()
    } else {
        BTreeSet::new()
    };

    let ledger_path = ledger.clone();
    let config = CampaignConfig {
        // The commit hook is the journaling seam: make the pair durable
        // (append + flush), then cross the registered job-commit crash
        // point — the armed kill lands *after* the commit it saw.
        on_commit: Some(Arc::new(move |r: &CampaignResult| {
            let mut f = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&ledger_path)
                .expect("open ledger");
            writeln!(f, "{} {}", r.device, r.job_id).expect("append ledger");
            f.flush().expect("flush ledger");
            crashpoint::hit(CrashPoint::JobCommit);
        })),
        completed: (!completed.is_empty()).then(|| Arc::new(completed)),
        ..CampaignConfig::default()
    };
    let devices = vec![gaugenn_soc::spec::device("Q888").expect("device")];
    run_campaign_with(&devices, &campaign_jobs(), &config);
}

/// SIGKILL at the second job commit, then resume with the durable ledger
/// as the skip set: every (device, job) pair is committed exactly once
/// across the two attempts.
#[test]
fn sigkill_at_job_commit_then_resume_covers_each_pair_once() {
    let dir = scratch("job-commit");
    fs::create_dir_all(&dir).unwrap();
    let armed = [("GAUGENN_CRASH", "job-commit:2".to_string())];
    let status = spawn_child("campaign", &dir, &armed);
    assert!(killed_by_sigkill(status), "campaign child must die, got {status:?}");
    let ledger = dir.join("commits.log");
    let after_crash = fs::read_to_string(&ledger).expect("ledger survives");
    assert_eq!(
        after_crash.lines().count(),
        2,
        "both committed jobs were durable before the kill: {after_crash:?}"
    );

    let status = spawn_child(
        "campaign",
        &dir,
        &[("GAUGENN_CHILD_RESUME", "1".to_string())],
    );
    assert!(status.success(), "resume must complete");
    let full = fs::read_to_string(&ledger).unwrap();
    let mut pairs: Vec<&str> = full.lines().collect();
    pairs.sort_unstable();
    let distinct: BTreeSet<&str> = pairs.iter().copied().collect();
    assert_eq!(pairs.len(), 3, "each pair exactly once: {full:?}");
    assert_eq!(distinct.len(), 3, "no pair re-committed: {full:?}");
    let _ = fs::remove_dir_all(&dir);
}
