//! The traced run: one sweep over every layer at paper scale with a span
//! around each call the benchmark makes into a layer's public function,
//! plus the tracing overhead of the named workload.
//!
//! The sweep does not call `Pipeline::run`; it makes the pipeline's
//! public calls one at a time (`generate`, `StoreServer::start_with`,
//! `CrawlPool::crawl_at`, the probe, `AnalysisPool::analyse`,
//! `indexer::ingest`, the experiment renders) so each gets its own span,
//! journals the crawl and replays it (the work of a resumed run's crawl
//! stage), then runs single-threaded
//! substrate passes (APK build, extract, md5, decode, trace, classify)
//! over the same corpus, the in-process index and one served phase of
//! the query stream, and one decomposed harness campaign. Every traced
//! run prints every per-layer metric, whichever workload it names; the
//! workload picks which untraced path the overhead is measured against.

use crate::campaign::{self, DEVICES};
use crate::query::{self, QueryRig, WINDOW};
use crate::stats::{median, percentile, sorted};
use crate::study::{self, SCALE, SNAPSHOT, WORKERS};
use crate::sys::{self, json_num};
use crate::trace::{self, SpanId, Tracer};
use crate::{Args, BoxError, Outcome};
use gaugenn_analysis::classify::classify_graph;
use gaugenn_analysis::md5::Md5;
use gaugenn_core::analyze::{AnalysisConfig, AnalysisOutput, AnalysisPool};
use gaugenn_core::extract::extract_app;
use gaugenn_core::indexer;
use gaugenn_core::journal::{self, RunJournal};
use gaugenn_core::pipeline::{DatasetSummary, Pipeline, PipelineReport};
use gaugenn_dnn::trace::trace_graph;
use gaugenn_harness::campaign::Campaign;
use gaugenn_harness::device::{DeviceAgent, MODEL_DIR};
use gaugenn_harness::master::Master;
use gaugenn_index::{wire, CorpusIndex};
use gaugenn_modelfmt::ModelArtifact;
use gaugenn_playstore::corpus::generate;
use gaugenn_playstore::crawler::{CrawledApp, Crawler, CrawlerConfig};
use gaugenn_playstore::pool::{CrawlPool, CrawlPoolConfig};
use gaugenn_playstore::route::Route;
use gaugenn_playstore::server::{ServerOptions, StoreServer};
use gaugenn_power::energy::measure_inference;
use gaugenn_power::monsoon::PowerMonitor;
use gaugenn_soc::latency::estimate_latency;
use gaugenn_soc::thermal::ThermalState;
use gaugenn_soc::DeviceSpec;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Every per-layer metric, in print order, with its unit — the
/// `per_layer` list of `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("corpus.build_apk_ms", "ms"),
    ("corpus.apk_mb", "MB"),
    ("pool.crawl_ms", "ms"),
    ("pool.requests", "count"),
    ("pool.mb", "MB"),
    ("pool.retries", "count"),
    ("pool.reconnects", "count"),
    ("pool.throttled", "count"),
    ("pool.peak_in_flight", "count"),
    ("crawler.probe_ms", "ms"),
    ("journal.replay_ms", "ms"),
    ("journal.mb", "MB"),
    ("journal.records", "count"),
    ("analyze.analyse_ms", "ms"),
    ("analyze.instances", "count"),
    ("analyze.cache_hits", "count"),
    ("analyze.cache_misses", "count"),
    ("analyze.hit_rate", "ratio"),
    ("analyze.unique_analysed", "count"),
    ("extract.ms", "ms"),
    ("extract.mb_per_s", "MB/s"),
    ("md5.ms", "ms"),
    ("md5.mb_per_s", "MB/s"),
    ("modelfmt.decode_ms", "ms"),
    ("trace.ms", "ms"),
    ("classify.ms", "ms"),
    ("indexer.ingest_ms", "ms"),
    ("experiments.render_offline_ms", "ms"),
    ("experiments.render_runtime_ms", "ms"),
    ("experiments.render_backends_ms", "ms"),
    ("experiments.render_whatif_ms", "ms"),
    ("experiments.render_extensions_ms", "ms"),
    ("index.query_models_p50_us", "us"),
    ("index.query_models_p99_us", "us"),
    ("index.query_apps_p50_us", "us"),
    ("index.query_apps_p99_us", "us"),
    ("index.stats_p50_us", "us"),
    ("index.stats_p99_us", "us"),
    ("index.rows", "count"),
    ("wire.render_p50_us", "us"),
    ("wire.render_p99_us", "us"),
    ("server.overhead_us", "us"),
    ("server.responses", "count"),
    ("server.mb", "MB"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.backlog_max", "count"),
    ("harness.run_job_ms", "ms"),
    ("harness.execute_ms", "ms"),
    ("harness.protocol_ms", "ms"),
    ("harness.retries", "count"),
    ("harness.jobs", "count"),
    ("soc.estimate_us", "us"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
];

/// Metrics whose value must repeat exactly across runs of one seed.
const COUNTERS: [&str; 14] = [
    "pool.requests",
    "pool.mb",
    "pool.retries",
    "pool.reconnects",
    "pool.throttled",
    "journal.records",
    "journal.mb",
    "analyze.instances",
    "analyze.cache_hits",
    "analyze.cache_misses",
    "analyze.unique_analysed",
    "index.rows",
    "server.responses",
    "harness.jobs",
];

const MB: f64 = 1024.0 * 1024.0;

/// The sweep's state: the tracer and the metrics gathered so far.
struct Sweep {
    tr: Tracer,
    /// Corpus seed (`study::corpus_seed` of the run's seed).
    seed: u64,
    values: RefCell<BTreeMap<&'static str, f64>>,
}

impl Sweep {
    fn set(&self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.values.borrow_mut().insert(name, value);
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.values.borrow().get(name).copied()
    }

    fn span_ms(&self, name: &str) -> f64 {
        self.tr.total_ms(name)
    }
}

/// What the pipeline-shaped part of the sweep produced.
struct Crawled {
    /// Apps the generated store lists.
    listed: usize,
    apps: Vec<CrawledApp>,
    report: PipelineReport,
    artefacts: String,
}

/// The study decomposition: the calls `Pipeline::run` makes, one span
/// each, then the artefact renders.
fn study_calls(sw: &Sweep, root: SpanId) -> Result<Crawled, BoxError> {
    let tr = &sw.tr;
    let seed = sw.seed;
    let corpus = tr.span(Some(root), "corpus.generate", |_| {
        generate(SCALE, SNAPSHOT, seed)
    });
    let listed = corpus.apps.len();
    let server = tr.span(Some(root), "server.start", |_| {
        StoreServer::start_with(corpus, ServerOptions::default())
    })?;
    let pooled = tr.span(Some(root), "pool.crawl", |_| {
        CrawlPool::new(CrawlPoolConfig {
            workers: WORKERS,
            sched_seed: seed,
            ..CrawlPoolConfig::default()
        })
        .crawl_at(&server.endpoint())
    })?;
    let apps = pooled.outcome.apps;
    let invariant = tr.span(Some(root), "crawler.probe", |_| -> Result<bool, BoxError> {
        // The pipeline's probe identity: a three-generations-older device.
        let old = CrawlerConfig {
            device_profile: "SM-G935F".into(),
            user_agent: "gaugeNN/1.0 (Android 8; SM-G935F)".into(),
            ..CrawlerConfig::default()
        };
        let mut crawler = Crawler::builder_at(server.endpoint())
            .config(old)
            .connection_id(u64::MAX)
            .build()?;
        for app in apps.iter().take(20) {
            if crawler.download_apk(&app.meta.package)? != app.apk {
                return Ok(false);
            }
        }
        Ok(true)
    })?;
    let analysed = tr.span(Some(root), "analyze.analyse", |_| {
        AnalysisPool::new(AnalysisConfig {
            workers: WORKERS,
            sched_seed: seed,
            ..AnalysisConfig::default()
        })
        .analyse(&apps)
    })?;
    let mut index = CorpusIndex::new();
    tr.span(Some(root), "indexer.ingest", |_| {
        indexer::ingest(
            &mut index,
            SNAPSHOT.label(),
            &analysed.models,
            &analysed.apps,
        )
    });
    let report = assemble(
        seed,
        analysed,
        pooled.outcome.dropouts,
        pooled.outcome.stats,
        Some(pooled.admission),
        invariant,
        index,
        server.reactor_digest(),
    );
    let mut artefacts = String::new();
    for (group, span, _) in RENDERS {
        artefacts.push_str(&tr.span(Some(root), span, |_| study::render_group(&report, group))?);
    }
    let s = &report.crawl_stats;
    sw.set("pool.requests", s.requests as f64);
    sw.set("pool.retries", s.retries as f64);
    sw.set("pool.reconnects", s.reconnects as f64);
    sw.set(
        "pool.throttled",
        report.admission.as_ref().map_or(0, |a| a.throttled) as f64,
    );
    sw.set("pool.peak_in_flight", pooled.peak_in_flight as f64);
    sw.set(
        "pool.mb",
        apps.iter().map(app_bytes).sum::<u64>() as f64 / MB,
    );
    Ok(Crawled {
        listed,
        apps,
        report,
        artefacts,
    })
}

/// The render groups in [`study::GROUPS`] order: group, span name and
/// the metric the span feeds.
const RENDERS: [(&str, &str, &str); 5] = [
    (
        "offline",
        "experiments.render_offline",
        "experiments.render_offline_ms",
    ),
    (
        "runtime",
        "experiments.render_runtime",
        "experiments.render_runtime_ms",
    ),
    (
        "backends",
        "experiments.render_backends",
        "experiments.render_backends_ms",
    ),
    (
        "whatif",
        "experiments.render_whatif",
        "experiments.render_whatif_ms",
    ),
    (
        "extensions",
        "experiments.render_extensions",
        "experiments.render_extensions_ms",
    ),
];

fn app_bytes(app: &CrawledApp) -> u64 {
    (app.apk.len()
        + app.obbs.iter().map(|(_, b)| b.len()).sum::<usize>()
        + app.bundle.as_ref().map_or(0, |b| b.len())) as u64
}

/// Assemble the report `Pipeline::run` would have returned from the
/// pieces the sweep computed call by call.
#[allow(clippy::too_many_arguments)]
fn assemble(
    seed: u64,
    analysed: AnalysisOutput,
    dropouts: Vec<gaugenn_playstore::crawler::DropOut>,
    crawl_stats: gaugenn_playstore::crawler::CrawlStats,
    admission: Option<gaugenn_playstore::admission::AdmissionStats>,
    invariant: bool,
    index: CorpusIndex,
    reactor_digest: Option<u64>,
) -> PipelineReport {
    let AnalysisOutput {
        apps,
        models,
        model_index,
        instances,
        index: meta_index,
        composition,
        failed_candidates,
        models_outside_apk,
        stats,
    } = analysed;
    let dataset = DatasetSummary {
        snapshot: SNAPSHOT.label(),
        total_apps: apps.len(),
        ml_apps: apps.iter().filter(|a| a.is_ml_app()).count(),
        benchmarkable_apps: apps.iter().filter(|a| !a.models.is_empty()).count(),
        total_models: instances.len(),
        unique_models: models.len(),
        failed_candidates,
        models_outside_apk,
        cloud_apps: apps.iter().filter(|a| !a.cloud.is_empty()).count(),
        nnapi_apps: apps.iter().filter(|a| a.uses_nnapi).count(),
        xnnpack_apps: apps.iter().filter(|a| a.uses_xnnpack).count(),
        snpe_apps: apps.iter().filter(|a| a.uses_snpe).count(),
        on_device_training_apps: apps.iter().filter(|a| a.uses_on_device_training).count(),
        download_dropouts: dropouts.len(),
        device_profile_invariant: Some(invariant),
    };
    PipelineReport {
        snapshot: SNAPSHOT,
        scale: SCALE,
        seed,
        dataset,
        models,
        model_index,
        instances,
        apps,
        index: meta_index,
        composition,
        dropouts,
        crawl_stats,
        admission,
        workers: WORKERS,
        crawl_replayed: false,
        analysis: stats,
        corpus_index: Arc::new(index),
        reactor_digest,
    }
}

/// The journal file `Pipeline::run` keeps for this configuration.
fn journal_file() -> String {
    format!("run-{SNAPSHOT:?}.gnjl")
}

fn journal_key(seed: u64) -> u64 {
    journal::run_key(&format!("{SCALE:?}"), SNAPSHOT.label(), seed)
}

/// Journal the crawl the way `Pipeline::run` does, into `dir`.
fn write_journal(dir: &Path, seed: u64, c: &Crawled) {
    let mut j = RunJournal::open(dir, &journal_file(), journal_key(seed), false);
    for (seq, app) in c.apps.iter().enumerate() {
        j.record_app(seq as u64, app);
    }
    j.record_crawl_done(&c.report.dropouts, &c.report.crawl_stats);
    j.record_probe(c.report.dataset.device_profile_invariant);
}

/// Single-threaded substrate passes over the crawled corpus.
fn substrate_passes(sw: &Sweep, root: SpanId, apps: &[CrawledApp]) -> Result<(), BoxError> {
    // Every APK built in-process, the way the store builds them on
    // demand (artifacts memoised, as the server memoises them).
    let corpus = generate(SCALE, SNAPSHOT, sw.seed);
    let mut artifacts: BTreeMap<usize, ModelArtifact> = BTreeMap::new();
    let apk_bytes = sw.tr.span(Some(root), "corpus.build_apk", |_| {
        let mut total = 0u64;
        for app in &corpus.apps {
            let apk = corpus.build_apk(app, &mut |id| {
                artifacts
                    .entry(id)
                    .or_insert_with(|| corpus.pool[id].artifact(&corpus.pool))
                    .clone()
            });
            total += apk.len() as u64;
        }
        total
    });
    drop(artifacts);
    sw.set("corpus.build_apk_ms", sw.span_ms("corpus.build_apk"));
    sw.set("corpus.apk_mb", apk_bytes as f64 / MB);

    let container_mb = apps.iter().map(app_bytes).sum::<u64>() as f64 / MB;
    let extractions = sw.tr.span(Some(root), "extract.app", |_| {
        apps.iter().map(extract_app).collect::<Result<Vec<_>, _>>()
    })?;
    let extract_ms = sw.span_ms("extract.app");
    sw.set("extract.ms", extract_ms);
    sw.set("extract.mb_per_s", container_mb / (extract_ms / 1e3));

    // md5 over every model instance's files, as the checksum funnel does.
    let models: Vec<_> = extractions.iter().flat_map(|e| e.models.iter()).collect();
    let model_mb = models
        .iter()
        .flat_map(|m| m.files.iter())
        .map(|(_, b)| b.len())
        .sum::<usize>() as f64
        / MB;
    let sums: Vec<String> = sw.tr.span(Some(root), "md5.digest", |_| {
        models
            .iter()
            .map(|m| {
                let mut h = Md5::new();
                for (_, bytes) in &m.files {
                    h.update(bytes);
                }
                h.finalize_hex()
            })
            .collect()
    });
    let md5_ms = sw.span_ms("md5.digest");
    sw.set("md5.ms", md5_ms);
    sw.set("md5.mb_per_s", model_mb / (md5_ms / 1e3));

    // Validate + decode, trace and classify every unique model once.
    let mut seen = BTreeSet::new();
    let unique: Vec<_> = models
        .iter()
        .zip(&sums)
        .filter(|(_, s)| seen.insert(s.as_str()))
        .map(|(m, _)| *m)
        .collect();
    let graphs = sw.tr.span(Some(root), "modelfmt.decode", |_| {
        unique
            .iter()
            .filter_map(|m| {
                let (name, bytes) = m.files.first()?;
                gaugenn_modelfmt::validate(name, bytes)?;
                gaugenn_modelfmt::decode(m.framework, &m.files).ok()
            })
            .collect::<Vec<_>>()
    });
    sw.set("modelfmt.decode_ms", sw.span_ms("modelfmt.decode"));
    sw.tr.span(Some(root), "trace.graph", |_| {
        graphs.iter().filter_map(|g| trace_graph(g).ok()).count()
    });
    sw.set("trace.ms", sw.span_ms("trace.graph"));
    sw.tr.span(Some(root), "classify.graph", |_| {
        graphs.iter().filter_map(classify_graph).count()
    });
    sw.set("classify.ms", sw.span_ms("classify.graph"));
    Ok(())
}

/// In-process index sweep over the query stream: per-route index time
/// and wire render time, µs, plus rows returned. With `tr`, every index
/// call and every render gets its own span.
fn index_sweep(
    index: &CorpusIndex,
    routes: &[Route],
    tr: Option<(&Tracer, SpanId)>,
) -> (BTreeMap<&'static str, Vec<f64>>, Vec<f64>, u64) {
    let timed = |name: &'static str, f: &mut dyn FnMut()| -> f64 {
        let t = Instant::now();
        match tr {
            Some((tr, parent)) => tr.span(Some(parent), name, |_| f()),
            None => f(),
        }
        t.elapsed().as_secs_f64() * 1e6
    };
    let mut by_kind: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut render, mut rows) = (Vec::new(), 0u64);
    for route in routes {
        let (kind, q_us) = match route {
            Route::QueryModels(q) => {
                let mut docs = Vec::new();
                let q_us = timed("index.query_models", &mut || docs = index.query_models(q));
                render.push(timed("wire.render_models", &mut || {
                    black_box(wire::render_models(&docs, q.snapshot.as_deref()));
                }));
                rows += docs.len() as u64;
                ("models", q_us)
            }
            Route::QueryApps(q) => {
                let mut docs = Vec::new();
                let q_us = timed("index.query_apps", &mut || docs = index.query_apps(q));
                render.push(timed("wire.render_apps", &mut || {
                    black_box(wire::render_apps(&docs, q.snapshot.as_deref()));
                }));
                rows += docs.len() as u64;
                ("apps", q_us)
            }
            _ => {
                rows += 1;
                (
                    "stats",
                    timed("index.stats", &mut || {
                        black_box(index.stats_text());
                    }),
                )
            }
        };
        by_kind.entry(kind).or_default().push(q_us);
    }
    (by_kind, render, rows)
}

/// Passes of the stream the index sweep makes, so even the rarest route
/// kind has a p99 with samples beyond it.
const INDEX_PASSES: usize = 3;

/// Query layers: the in-process index and renderer, then one served
/// phase at 2000 QPS through the store and its reactor.
fn query_layers(
    sw: &Sweep,
    root: SpanId,
    index: Arc<CorpusIndex>,
    stream_seed: u64,
    overhead: bool,
) -> Result<Option<f64>, BoxError> {
    let rig = QueryRig::new(index, sw.seed, stream_seed)?;
    let stream: Vec<Route> = (0..INDEX_PASSES)
        .flat_map(|_| rig.routes.iter().cloned())
        .collect();
    let untraced = overhead.then(|| {
        let t = Instant::now();
        index_sweep(&rig.index, &stream, None);
        t.elapsed().as_secs_f64()
    });
    let t = Instant::now();
    let (by_kind, render, _) = sw.tr.span(Some(root), "index.sweep", |id| {
        index_sweep(&rig.index, &stream, Some((&sw.tr, id)))
    });
    let traced = t.elapsed().as_secs_f64();
    let rows = index_sweep(&rig.index, &rig.routes, None).2;
    for (kind, p50, p99) in [
        (
            "models",
            "index.query_models_p50_us",
            "index.query_models_p99_us",
        ),
        ("apps", "index.query_apps_p50_us", "index.query_apps_p99_us"),
        ("stats", "index.stats_p50_us", "index.stats_p99_us"),
    ] {
        let v = sorted(by_kind.get(kind).cloned().unwrap_or_default());
        sw.set(p50, percentile(&v, 50.0));
        sw.set(p99, percentile(&v, 99.0));
    }
    let render = sorted(render);
    sw.set("wire.render_p50_us", percentile(&render, 50.0));
    sw.set("wire.render_p99_us", percentile(&render, 99.0));
    sw.set("index.rows", rows as f64);
    // In-process cost of one request of the stream, as the server pays it.
    let in_process: Vec<f64> = {
        let (k, r, _) = index_sweep(&rig.index, &rig.routes, None);
        let mut all: Vec<f64> = k.into_values().flatten().collect();
        all.extend(r);
        all
    };
    let mean_in_process = in_process.iter().sum::<f64>() / rig.routes.len() as f64;

    let mut conns = rig.connect()?;
    let rate = query::FIXED_RATES[0];
    let p = sw.tr.span(Some(root), "server.serve_phase", |_| {
        rig.drive(&mut conns, rate, 4 * WINDOW, 0)
    });
    let served = sorted(p.log.latencies_ms());
    sw.set(
        "server.overhead_us",
        median(&served) * 1e3 - mean_in_process,
    );
    sw.set("server.responses", served.len() as f64);
    sw.set("server.mb", p.bytes as f64 / MB);
    sw.set(
        "loadgen.lag_p99_ms",
        percentile(&sorted(p.log.lags_ms()), 99.0),
    );
    sw.set(
        "loadgen.backlog_max",
        p.log.backlog().iter().copied().max().unwrap_or(0) as f64,
    );
    if p.failed() + p.errors > 0 {
        return Err(format!("served phase: {} requests failed", p.failed() + p.errors).into());
    }
    Ok(untraced.map(|u| traced / u - 1.0))
}

/// One decomposed campaign pass: a thread per device, each driving its
/// jobs in order through `Master::run_job` (the full push / power-cut /
/// completion / pull protocol), or — with `device_side` — through
/// `DeviceAgent::execute` alone on a fresh agent with the model pushed.
/// Returns `(pairs, retries)`.
fn device_pass(
    tr: &Tracer,
    root: SpanId,
    devs: &[DeviceSpec],
    jobs: &[Campaign],
    device_side: bool,
) -> Result<(usize, u64), BoxError> {
    let per_device: Vec<Result<(usize, u64), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = devs
            .iter()
            .map(|spec| {
                s.spawn(move || -> Result<(usize, u64), String> {
                    let fail = |job: &Campaign, e: &dyn std::fmt::Display| {
                        format!("{} job {}: {e}", spec.name, job.spec.id)
                    };
                    let mut agent = DeviceAgent::new(spec.clone());
                    let mut retries = 0u64;
                    if device_side {
                        for job in jobs {
                            for (name, bytes) in &job.files {
                                agent
                                    .endpoint
                                    .write_local(&format!("{MODEL_DIR}/{name}"), bytes.clone());
                            }
                            tr.span(Some(root), "harness.execute", |_| agent.execute(&job.spec))
                                .map_err(|e| fail(job, &e))?;
                        }
                        return Ok((jobs.len(), 0));
                    }
                    let master = Master::new().map_err(|e| e.to_string())?;
                    for job in jobs {
                        let mut run = || {
                            tr.span(Some(root), "harness.run_job", |_| {
                                master.run_job(&mut agent, &job.spec, &job.files)
                            })
                        };
                        let mut result = run();
                        // The campaign's own policy: one retry on a transient error.
                        if matches!(&result, Err(e) if e.is_transient()) {
                            retries += 1;
                            result = run();
                        }
                        result.map_err(|e| fail(job, &e))?;
                    }
                    Ok((jobs.len(), retries))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("device thread panicked"))
            .collect()
    });
    let (mut pairs, mut retries) = (0, 0);
    for r in per_device {
        let (n, k) = r?;
        pairs += n;
        retries += k;
    }
    Ok((pairs, retries))
}

/// Harness layers: a decomposed campaign pass (master protocol), a
/// device-side pass, and the soc + power estimate per (device, model).
/// With `overhead`, an untraced `run_campaign` pass is the baseline.
fn harness_layers(sw: &Sweep, root: SpanId, overhead: bool) -> Result<Option<f64>, BoxError> {
    let devs = campaign::devices();
    let jobs = campaign::jobs(sw.seed);
    let untraced = overhead.then(|| campaign::timed_pass(&devs, &jobs).2);
    let t = Instant::now();
    let (pairs, retries) = device_pass(&sw.tr, root, &devs, &jobs, false)?;
    let traced = t.elapsed().as_secs_f64();
    device_pass(&sw.tr, root, &devs, &jobs, true)?;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let run_job = mean(&sw.tr.durations_ms("harness.run_job"));
    let execute = mean(&sw.tr.durations_ms("harness.execute"));
    sw.set("harness.run_job_ms", run_job);
    sw.set("harness.execute_ms", execute);
    sw.set("harness.protocol_ms", run_job - execute);
    sw.set("harness.retries", retries as f64);
    sw.set("harness.jobs", pairs as f64);

    // soc latency model + power model, per (device, model).
    let traces: Vec<_> = jobs
        .iter()
        .filter_map(|j| {
            let (name, bytes) = j.files.first()?;
            let v = gaugenn_modelfmt::validate(name, bytes)?;
            Some((
                j.spec.backend,
                trace_graph(&gaugenn_modelfmt::decode(v.framework, &j.files).ok()?).ok()?,
            ))
        })
        .collect();
    let estimated = sw.tr.span(Some(root), "soc.estimate", |_| {
        let cool = ThermalState::cool();
        let mut n = 0usize;
        for spec in &devs {
            for (i, (backend, trace)) in traces.iter().enumerate() {
                let lat = estimate_latency(spec, *backend, trace, &cool);
                let energy =
                    measure_inference(spec, *backend, trace, &cool, &PowerMonitor::new(i as u64));
                n += usize::from(lat.is_ok() && energy.is_ok());
            }
        }
        n
    });
    if estimated != traces.len() * devs.len() {
        return Err(format!(
            "soc/power estimates failed for {} pairs",
            traces.len() * devs.len() - estimated
        )
        .into());
    }
    sw.set(
        "soc.estimate_us",
        sw.span_ms("soc.estimate") * 1e3 / estimated.max(1) as f64,
    );
    Ok(untraced.map(|u| traced / u - 1.0))
}

/// Cost of recording one span, ns: the mean over 20,000 empty spans.
fn span_cost_ns() -> f64 {
    const N: usize = 20_000;
    let tr = Tracer::new(0);
    let t = Instant::now();
    tr.span(None, "calibrate.root", |root| {
        for _ in 0..N {
            tr.span(Some(root), "calibrate.span", |_| black_box(()));
        }
    });
    t.elapsed().as_nanos() as f64 / N as f64
}

/// Spans recorded under the top-level span named `stage`, and that
/// span's duration in ns.
fn stage_spans(spans: &[trace::Span], stage: &str) -> (usize, u64) {
    let Some(root) = spans
        .iter()
        .position(|s| s.name == stage && s.parent.is_none())
    else {
        return (0, 0);
    };
    let under = |mut i: usize| loop {
        match spans[i].parent {
            Some(p) if p == root => return true,
            Some(p) => i = p,
            None => return false,
        }
    };
    let n = (0..spans.len()).filter(|&i| under(i)).count();
    (n, spans[root].end - spans[root].start)
}

/// Time one untraced run of the named study-shaped path.
fn untraced_report(
    builder: gaugenn_core::pipeline::PipelineConfigBuilder,
) -> Result<f64, BoxError> {
    let t = Instant::now();
    let r = Pipeline::new(builder.build()).run()?;
    study::render_all(&r)?;
    Ok(t.elapsed().as_secs_f64())
}

/// The traced run.
pub fn traced(args: &Args) -> Result<Outcome, BoxError> {
    let mut out = Outcome::default();
    let seed = study::corpus_seed(args.seed);
    let workload = args.workload.as_str();
    let sw = Sweep {
        tr: Tracer::new(u64::from(std::process::id()) << 32 | (seed & 0xffff_ffff)),
        seed,
        values: RefCell::new(BTreeMap::new()),
    };
    let dir = sys::work_dir().join(format!("traced-{}-{seed}", sys::build_id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    let t_run = Instant::now();

    // Stage 1: the study decomposition, timed against an untraced
    // `Pipeline::run` when the workload is `study`.
    let study_base = (workload == "study")
        .then(|| untraced_report(study::builder(seed)))
        .transpose()?;
    let t = Instant::now();
    let crawled = sw
        .tr
        .span(None, "bench.study", |root| study_calls(&sw, root))?;
    let study_traced = t.elapsed().as_secs_f64();
    let r = &crawled.report;
    study::check_report(&mut out, r, crawled.listed);
    study::check_reference(&mut out, seed, &study::fingerprint(r, &crawled.artefacts));
    let a = &r.analysis;
    sw.set("analyze.analyse_ms", sw.span_ms("analyze.analyse"));
    sw.set("analyze.instances", a.instances as f64);
    sw.set("analyze.cache_hits", a.cache_hits as f64);
    sw.set("analyze.cache_misses", a.cache_misses as f64);
    sw.set("analyze.hit_rate", a.cache_hit_rate());
    sw.set("analyze.unique_analysed", a.unique_analysed as f64);
    sw.set("pool.crawl_ms", sw.span_ms("pool.crawl"));
    sw.set("crawler.probe_ms", sw.span_ms("crawler.probe"));
    sw.set("indexer.ingest_ms", sw.span_ms("indexer.ingest"));
    for (_, span, metric) in RENDERS {
        sw.set(metric, sw.span_ms(span));
    }
    let index = r.corpus_index.clone();

    // Stage 2: journal the crawl, then substrate passes over it.
    sw.tr
        .span(None, "bench.substrates", |root| -> Result<(), BoxError> {
            write_journal(&dir, seed, &crawled);
            substrate_passes(&sw, root, &crawled.apps)
        })?;
    sw.set("journal.mb", study::dir_mb(&dir));
    drop(crawled);

    // Stage 3: replay the journal the way `Pipeline::run` with
    // `resume(true)` does.
    sw.tr.span(None, "bench.journal", |root| {
        let records = sw.tr.span(Some(root), "journal.replay", |_| {
            let j = RunJournal::open(&dir, &journal_file(), journal_key(seed), true);
            black_box(j.apps_in_order());
            j.replayed_app_count()
        });
        // Every app plus the crawl-done marker and the probe verdict.
        sw.set("journal.records", (records + 2) as f64);
    });
    sw.set("journal.replay_ms", sw.span_ms("journal.replay"));
    let _ = std::fs::remove_dir_all(&dir);

    // Stages 4 and 5: query serving and the harness.
    let query_overhead = sw.tr.span(None, "bench.query", |root| {
        query_layers(&sw, root, index, args.seed, workload == "query")
    })?;
    let campaign_overhead = sw.tr.span(None, "bench.campaign", |root| {
        harness_layers(&sw, root, workload == "campaign")
    })?;

    // Tracing overhead of the workload's stage: the spans it recorded
    // times the calibrated cost of recording one, over the stage's wall
    // time. The raw traced-minus-untraced wall difference goes in the
    // record beside it; on this host it is dominated by run-to-run noise
    // (±10%) and by which of the two runs touched fresh memory first.
    let wall_delta = match workload {
        "study" => study_base.map(|b| study_traced / b - 1.0),
        "query" => query_overhead,
        _ => campaign_overhead,
    };
    let spans = sw.tr.spans();
    let stage = format!("bench.{workload}");
    let span_ns = span_cost_ns();
    let (in_stage, stage_ns) = stage_spans(&spans, &stage);
    sw.set(
        "trace.overhead_frac",
        in_stage as f64 * span_ns / stage_ns.max(1) as f64,
    );
    sw.set("trace.spans", spans.len() as f64);

    // Per-layer self-time table on stderr; every span written once.
    eprintln!(
        "per-layer self time (traced {workload} run):\n{}",
        trace::render_table(&spans)
    );
    let spans_path = sys::work_dir().join(format!("spans-{workload}-{}.jsonl", args.seed));
    std::fs::write(&spans_path, trace::render_spans(&spans))?;
    eprintln!("{} spans written to {}", spans.len(), spans_path.display());

    // Deterministic counters must repeat exactly across runs of a seed.
    let counters: Vec<String> = COUNTERS
        .iter()
        .map(|c| format!("{c}={}", sw.get(c).unwrap_or(-1.0)))
        .collect();
    let counters = counters.join(" ");
    let path = sys::work_dir().join(format!("counters-{}-{}.txt", sys::build_id(), args.seed));
    match std::fs::read_to_string(&path) {
        Ok(want) => out.check(want == counters, || {
            format!("counters differ from an earlier run:\n  got  {counters}\n  want {want}")
        }),
        Err(_) => std::fs::write(&path, &counters)?,
    }
    let want_jobs = campaign::jobs(seed).len() * DEVICES.len();
    out.check(sw.get("harness.jobs") == Some(want_jobs as f64), || {
        "decomposed campaign lost jobs".into()
    });

    for (name, unit) in PER_LAYER {
        match sw.get(name) {
            Some(v) => out.metric(name, v, unit),
            None => out.problem(format!("per-layer metric {name} was not measured")),
        }
    }
    out.attempted = 1;
    out.note("traced_wall_s", json_num(t_run.elapsed().as_secs_f64()));
    out.note("span_cost_ns", json_num(span_ns));
    out.note(
        "trace_wall_delta_frac",
        wall_delta.map_or("null".into(), json_num),
    );
    out.note("counters", sys::json_str(&counters));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_list_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let per_layer = &json[json.find("\"per_layer\"").expect("per_layer key")..];
        for (name, unit) in PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\":");
            assert!(
                per_layer.contains(&entry),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        assert_eq!(per_layer.matches("\"name\"").count(), PER_LAYER.len());
        let names: BTreeSet<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), PER_LAYER.len(), "names are unique");
        assert!(COUNTERS.iter().all(|c| names.contains(c)));
        assert_eq!(RENDERS.map(|(group, _, _)| group), study::GROUPS);
        assert!(RENDERS.iter().all(|(_, _, metric)| names.contains(metric)));
    }
}
