//! The `study` workload: the paper-scale Apr 2021 pipeline run plus
//! every single-snapshot artefact render, and the pipeline pieces the
//! other workloads and the traced run share.

use crate::stats::{median, quartile_spread};
use crate::sys::{self, json_num};
use crate::{Args, BoxError, Outcome};
use gaugenn_apk::crc32::crc32;
use gaugenn_core::experiments::{ablations, backends, cohab, offline, offload, runtime, whatif};
use gaugenn_core::pipeline::{Pipeline, PipelineConfig, PipelineConfigBuilder, PipelineReport};
use gaugenn_playstore::corpus::{generate, CorpusScale, Snapshot};
use gaugenn_soc::spec::all_devices;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Corpus scale of every workload.
pub const SCALE: CorpusScale = CorpusScale::Paper;
/// The snapshot the single-snapshot workloads crawl.
pub const SNAPSHOT: Snapshot = Snapshot::Y2021;
/// Crawl and analysis worker threads (the host budget: two cores).
pub const WORKERS: usize = 2;
/// Cheap setups repeat this many times; the median is reported.
pub const SETUP_REPEATS: usize = 3;
/// Experiment render groups, in `repro` order.
pub const GROUPS: [&str; 5] = ["offline", "runtime", "backends", "whatif", "extensions"];

/// Corpus seeds whose paper-scale Apr 2021 corpus carries 968 MB ± 4%
/// of model instances (the median over corpus seeds 1–199; the extremes
/// run from 684 MB to 1645 MB) and whose pool holds 297 ± 4% single-file
/// TFLite models of 174 MB ± 8%. Every input the benchmark generates
/// comes from `--seed`, but work per run is a stated size, so the spread
/// between seeds measures the system, not how large a corpus one seed
/// happened to draw.
pub const CORPUS_SEEDS: [u64; 34] = [
    3, 16, 22, 24, 29, 41, 43, 51, 60, 65, 73, 75, 79, 83, 87, 92, 96, 98, 99, 105, 106, 111, 117,
    120, 124, 126, 133, 136, 149, 150, 159, 164, 190, 199,
];

/// The corpus seed `--seed` selects.
pub fn corpus_seed(seed: u64) -> u64 {
    CORPUS_SEEDS[(seed % CORPUS_SEEDS.len() as u64) as usize]
}

/// The pipeline configuration every study-shaped run uses, over the
/// corpus of corpus seed `seed`.
pub fn builder(seed: u64) -> PipelineConfigBuilder {
    PipelineConfig::builder(SCALE, SNAPSHOT, seed)
        .workers(WORKERS)
        .analysis_workers(WORKERS)
}

/// Render one group of the single-snapshot artefacts `repro` prints.
pub fn render_group(r: &PipelineReport, group: &str) -> Result<String, BoxError> {
    let mut out = String::new();
    let mut push = |s: String| {
        out.push_str(&s);
        out.push('\n');
    };
    match group {
        "offline" => {
            push(offline::tab3(r).render());
            push(offline::fig4(r).render());
            push(offline::render_sec45(&offline::sec45(r)));
            push(offline::fig6(r).render());
            push(offline::fig7(r).render());
            push(offline::render_sec61(&offline::sec61(r)));
            push(offline::fig15(r).render());
        }
        "runtime" => {
            push(runtime::tab1());
            let sweep = runtime::latency_sweep(r, &all_devices());
            push(runtime::fig8(&sweep).render());
            push(runtime::fig9(&sweep).render());
            push(runtime::fig10(r)?.render());
            push(runtime::tab4(r)?.render());
        }
        "backends" => {
            push(backends::fig11(r).render());
            push(backends::fig12(r).render());
            push(
                backends::fig13(r)?.render("Fig 13: TFLite CPU runtimes (CPU vs XNNPACK vs NNAPI)"),
            );
            push(backends::fig14(r)?.render("Fig 14: SNPE hardware targets (TFLite + caffe)"));
        }
        "whatif" => push(whatif::whatif()?.render()),
        "extensions" => {
            push(cohab::cohab_study(r, 6)?.render());
            push(ablations::ablation_study(r).render());
            push(offload::offload_study(r)?.render());
        }
        other => return Err(format!("unknown render group {other}").into()),
    }
    Ok(out)
}

/// Every single-snapshot artefact.
pub fn render_all(r: &PipelineReport) -> Result<String, BoxError> {
    let mut out = String::new();
    for g in GROUPS {
        out.push_str(&render_group(r, g)?);
    }
    Ok(out)
}

/// Deterministic fingerprint of one run: the `render_text` and artefact
/// digests plus the exactly-repeatable counters (requests, cache hits
/// and misses, index rows). Equal across runs of one seed, across crawl
/// and analysis worker counts, and between the workloads that run it.
pub fn fingerprint(r: &PipelineReport, artefacts: &str) -> String {
    let s = &r.crawl_stats;
    let a = &r.analysis;
    format!(
        "render={:08x} artefacts={:08x} apps={} requests={} retries={} reconnects={} \
         instances={} cache_hits={} cache_misses={} unique={} index_models={} index_apps={}",
        crc32(r.render_text().as_bytes()),
        crc32(artefacts.as_bytes()),
        r.dataset.total_apps,
        s.requests,
        s.retries,
        s.reconnects,
        a.instances,
        a.cache_hits,
        a.cache_misses,
        a.unique_analysed,
        r.corpus_index.model_count(),
        r.corpus_index.app_count(),
    )
}

/// Operations failed in one report: drop-outs plus a failed probe.
pub fn failures(r: &PipelineReport) -> u64 {
    r.dropouts.len() as u64 + u64::from(r.dataset.device_profile_invariant != Some(true))
}

/// The report checks every study-shaped run must pass.
pub fn check_report(out: &mut Outcome, r: &PipelineReport, listed: usize) {
    let d = &r.dataset;
    out.check(d.total_apps == listed, || {
        format!("total_apps {} != {listed} listed", d.total_apps)
    });
    out.check(r.dropouts.is_empty(), || {
        format!("{} drop-outs", r.dropouts.len())
    });
    out.check(d.models_outside_apk == 0, || {
        format!("models_outside_apk = {}", d.models_outside_apk)
    });
    out.check(d.device_profile_invariant == Some(true), || {
        format!("device-profile probe: {:?}", d.device_profile_invariant)
    });
}

/// Compare `line` with the reference this build wrote for corpus seed
/// `seed`, or write it: whichever of `study`, the `query` setup and the
/// traced run runs first in a checkout pins the fingerprint the others
/// must reproduce.
pub fn check_reference(out: &mut Outcome, seed: u64, line: &str) {
    let path = sys::work_dir().join(format!("reference-{}-{seed}.txt", sys::build_id()));
    match std::fs::read_to_string(&path) {
        Ok(want) => out.check(want.trim() == line, || {
            format!(
                "fingerprint differs from the reference run:\n  got  {line}\n  want {}",
                want.trim()
            )
        }),
        Err(_) => {
            if let Err(e) = std::fs::write(&path, line) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            }
        }
    }
}

/// Directory the setup child persists the corpus index into.
fn index_dir(seed: u64) -> PathBuf {
    sys::work_dir().join(format!("index-{}-{seed}", sys::build_id()))
}

/// Child-process half of the `query` setup: one full study run that
/// persists its corpus index in [`index_dir`], plus its fingerprint in
/// `setup.txt`.
pub fn setup_child(seed: u64) -> Result<(), BoxError> {
    let dir = index_dir(seed);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    let report = Pipeline::new(builder(corpus_seed(seed)).index_dir(dir.clone()).build()).run()?;
    let artefacts = render_all(&report)?;
    std::fs::write(dir.join("setup.txt"), fingerprint(&report, &artefacts))?;
    Ok(())
}

/// Run [`setup_child`] in a fresh process (so its memory never shows in
/// this process's peaks) and return its fingerprint and directory.
pub fn run_setup_child(seed: u64) -> Result<(String, PathBuf), BoxError> {
    let status = Command::new(std::env::current_exe()?)
        .args(["--setup-index", "--seed", &seed.to_string()])
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(format!("index setup child failed: {status}").into());
    }
    let dir = index_dir(seed);
    let line = std::fs::read_to_string(dir.join("setup.txt"))?;
    Ok((line.trim().to_string(), dir))
}

/// `study`: fresh paper-scale runs until the run length is spent (at
/// least one), each checked, all with one fingerprint.
pub fn study(args: &Args) -> Result<Outcome, BoxError> {
    let mut out = Outcome::default();
    let seed = corpus_seed(args.seed);
    // Setup: generate the corpus the store will serve, for the listed
    // app count every report is checked against. Generation takes
    // milliseconds, so it repeats for half a second (at least three
    // times) before the median is taken.
    let mut setups = Vec::new();
    let mut listed = 0;
    let began = Instant::now();
    while setups.len() < SETUP_REPEATS || began.elapsed().as_secs_f64() < 0.5 {
        let t = Instant::now();
        listed = generate(SCALE, SNAPSHOT, seed).apps.len();
        setups.push(t.elapsed().as_secs_f64());
    }
    out.metric("setup_s", median(&setups), "s");
    eprintln!(
        "study: {listed} apps listed; measuring for {} s",
        args.seconds
    );

    sys::reset_peaks();
    let start = Instant::now();
    let (mut walls, mut rates) = (Vec::new(), Vec::new());
    let mut want: Option<String> = None;
    while walls.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        let report = Pipeline::new(builder(seed).build()).run()?;
        let artefacts = render_all(&report)?;
        let wall = t.elapsed().as_secs_f64();
        check_report(&mut out, &report, listed);
        let line = fingerprint(&report, &artefacts);
        let want = want.get_or_insert_with(|| line.clone());
        out.check(line == *want, || {
            format!("iteration {}: fingerprint {line} != {want}", walls.len())
        });
        out.attempted += listed as u64;
        out.failed += failures(&report);
        let rate = report.dataset.total_apps as f64 / wall;
        eprintln!("  iteration {}: {wall:.2} s, {rate:.0} apps/s", walls.len());
        rates.push(rate);
        walls.push(wall);
    }
    out.metric("ops_per_s", median(&rates), "1/s");
    sys::record_peaks(&mut out);
    check_reference(&mut out, seed, want.as_deref().unwrap_or_default());
    out.note("iterations", walls.len().to_string());
    out.note("report_wall_ms", json_num(median(&walls) * 1e3));
    out.note("spread_ops_per_s", json_num(quartile_spread(&rates)));
    out.note(
        "failed_frac",
        json_num(out.failed as f64 / out.attempted.max(1) as f64),
    );
    out.note(
        "workers",
        format!("{{\"crawl\": {WORKERS}, \"analysis\": {WORKERS}}}"),
    );
    Ok(out)
}

/// Total size of the files in `dir`, MiB.
pub fn dir_mb(dir: &Path) -> f64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len() as f64)
                .sum::<f64>()
                / (1024.0 * 1024.0)
        })
        .unwrap_or(0.0)
}
