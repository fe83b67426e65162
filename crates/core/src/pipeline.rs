//! The end-to-end gaugeNN pipeline: generate a store, crawl it over TCP,
//! extract + validate + decode models, and run the offline analyses.

use crate::analyze::{AnalysisConfig, AnalysisPool, AnalysisStats};
use crate::crashpoint::{self, CrashPoint};
use crate::extract::AppExtraction;
use crate::indexer;
use crate::journal::{self, RunJournal};
use crate::report::TextTable;
use crate::Result;
use gaugenn_analysis::classify::LayerComposition;
use gaugenn_analysis::etl::Index;
use gaugenn_index::CorpusIndex;
use gaugenn_modelfmt::Framework;
use gaugenn_playstore::admission::AdmissionStats;
use gaugenn_playstore::chaos::{FaultPlan, FaultPlanConfig};
use gaugenn_playstore::corpus::{generate, CorpusScale, Snapshot};
use gaugenn_playstore::crawler::{
    AppSink, CrawlOutcome, CrawlStage, CrawlStats, CrawledApp, Crawler, CrawlerConfig, DropOut,
};
use gaugenn_playstore::pool::{CrawlPool, CrawlPoolConfig};
use gaugenn_playstore::reactor::ReactorMode;
use gaugenn_playstore::server::{ServerOptions, StoreServer};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// How many apps the §4.2 device-profile probe re-downloads: the first
/// this many of the corpus, in corpus order.
const PROBE_APPS: usize = 20;

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Corpus scale.
    pub scale: CorpusScale,
    /// Which snapshot to crawl.
    pub snapshot: Snapshot,
    /// Corpus seed (must match across snapshots of one study).
    pub seed: u64,
    /// Crawl worker threads of the [`CrawlPool`] (default 1, clamped to
    /// a minimum of 1). Its merged corpus, drop-outs and calm-store
    /// counters are byte-identical at any worker count.
    pub workers: usize,
    /// Run the store under a seeded fault plan (None = clean store).
    /// Transient faults are absorbed by the crawler's retries; permanent
    /// routes surface as download drop-outs in the Table 2 accounting.
    pub chaos: Option<FaultPlanConfig>,
    /// Offline-analysis worker threads. 1 (the default) analyses
    /// sequentially; more take the streamed apps in parallel. The
    /// [`AnalysisPool`]'s merged report is byte-identical to the
    /// sequential run at any worker count.
    pub analysis_workers: usize,
    /// Directory for the persistent analysis cache. When set, a second
    /// run (or second snapshot) over the same directory attaches to
    /// already-computed model analyses instead of re-tracing them.
    pub analysis_cache_dir: Option<PathBuf>,
    /// Directory for the run journal (one crc-guarded checkpoint file
    /// per snapshot). When set, completed work units — crawled apps, the
    /// crawl's admission counters and end-of-crawl marker, the probe
    /// verdict — are journaled as they finish, so a killed run can be
    /// resumed. See `DESIGN.md` §12.
    pub journal_dir: Option<PathBuf>,
    /// Replay a surviving journal instead of starting fresh: a journaled
    /// end-of-crawl marker replays the whole crawl, counters included,
    /// and a journaled probe verdict skips the probe; a journal without
    /// the marker is discarded and the snapshot crawled again. Output is
    /// byte-identical to an uninterrupted run either way.
    pub resume: bool,
    /// Directory for the persistent corpus index (`corpus.gnix`). When
    /// set, the index stage loads whatever index survives there, folds
    /// this snapshot in, and persists the result — so two snapshot runs
    /// over one directory accumulate a single cross-snapshot index. A
    /// corrupt file degrades to a rebuild, never an error. When `None`,
    /// the index is still built (and lands in the report) but stays
    /// in-memory.
    pub index_dir: Option<PathBuf>,
    /// Which serving loop the store runs (default epoll). The crawl
    /// drives its lanes on whatever the store's endpoint is — epoll over
    /// TCP, the sim reactor in process — so both runs are event-driven
    /// end to end. Never changes report content: the report is
    /// byte-identical either way.
    pub reactor: ReactorMode,
    /// Store connections each crawl worker multiplexes (clamped to a
    /// minimum of 1). One worker thread drives all of them as
    /// non-blocking lanes. Never changes report content.
    pub connections_per_worker: usize,
}

impl PipelineConfig {
    /// Tiny corpus for tests.
    pub fn tiny(snapshot: Snapshot, seed: u64) -> Self {
        Self::with_scale(CorpusScale::Tiny, snapshot, seed)
    }

    /// Small corpus for examples.
    pub fn small(snapshot: Snapshot, seed: u64) -> Self {
        Self::with_scale(CorpusScale::Small, snapshot, seed)
    }

    /// Paper-scale corpus for the repro binary.
    pub fn paper(snapshot: Snapshot, seed: u64) -> Self {
        Self::with_scale(CorpusScale::Paper, snapshot, seed)
    }

    /// Explicit scale.
    pub fn with_scale(scale: CorpusScale, snapshot: Snapshot, seed: u64) -> Self {
        PipelineConfig {
            scale,
            snapshot,
            seed,
            workers: 1,
            chaos: None,
            analysis_workers: 1,
            analysis_cache_dir: None,
            journal_dir: None,
            resume: false,
            index_dir: None,
            reactor: ReactorMode::default(),
            connections_per_worker: 1,
        }
    }

    /// Start configuring a pipeline, builder-style — the same shape as
    /// `Crawler::builder`. Scale, snapshot and seed identify the corpus
    /// and are therefore positional; everything else has a default and
    /// chains:
    ///
    /// ```
    /// # use gaugenn_core::pipeline::PipelineConfig;
    /// # use gaugenn_playstore::corpus::{CorpusScale, Snapshot};
    /// let cfg = PipelineConfig::builder(CorpusScale::Tiny, Snapshot::Y2021, 7)
    ///     .workers(4)
    ///     .analysis_workers(2)
    ///     .build();
    /// ```
    pub fn builder(scale: CorpusScale, snapshot: Snapshot, seed: u64) -> PipelineConfigBuilder {
        PipelineConfigBuilder {
            config: PipelineConfig::with_scale(scale, snapshot, seed),
        }
    }
}

/// Configures and builds a [`PipelineConfig`]. Obtained from
/// [`PipelineConfig::builder`]; every method consumes and returns the
/// builder, mirroring the crawler's builder.
#[derive(Debug, Clone)]
pub struct PipelineConfigBuilder {
    config: PipelineConfig,
}

impl PipelineConfigBuilder {
    /// Crawl worker threads.
    pub fn workers(mut self, workers: usize) -> PipelineConfigBuilder {
        self.config.workers = workers;
        self
    }

    /// Run the store under a seeded fault plan.
    pub fn chaos(mut self, chaos: FaultPlanConfig) -> PipelineConfigBuilder {
        self.config.chaos = Some(chaos);
        self
    }

    /// Offline-analysis worker threads (1 = sequential).
    pub fn analysis_workers(mut self, workers: usize) -> PipelineConfigBuilder {
        self.config.analysis_workers = workers;
        self
    }

    /// Directory for the persistent analysis cache.
    pub fn analysis_cache_dir(mut self, dir: PathBuf) -> PipelineConfigBuilder {
        self.config.analysis_cache_dir = Some(dir);
        self
    }

    /// Directory for the run journal.
    pub fn journal_dir(mut self, dir: PathBuf) -> PipelineConfigBuilder {
        self.config.journal_dir = Some(dir);
        self
    }

    /// Replay a surviving journal instead of starting fresh.
    pub fn resume(mut self, resume: bool) -> PipelineConfigBuilder {
        self.config.resume = resume;
        self
    }

    /// Directory for the persistent corpus index.
    pub fn index_dir(mut self, dir: PathBuf) -> PipelineConfigBuilder {
        self.config.index_dir = Some(dir);
        self
    }

    /// Pin the store's serving loop (epoll or sim) instead of the epoll
    /// default. The crawl runs its client connections on the same
    /// substrate.
    pub fn reactor(mut self, mode: ReactorMode) -> PipelineConfigBuilder {
        self.config.reactor = mode;
        self
    }

    /// Store connections each crawl worker multiplexes.
    pub fn connections_per_worker(mut self, connections: usize) -> PipelineConfigBuilder {
        self.config.connections_per_worker = connections;
        self
    }

    /// Finish: the assembled configuration.
    pub fn build(self) -> PipelineConfig {
        self.config
    }
}

pub use crate::analyze::{InstanceRecord, ModelRecord};

/// Table 2-shaped dataset summary — *measured*, not copied from the
/// corpus spec.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSummary {
    /// Snapshot label.
    pub snapshot: &'static str,
    /// Total apps crawled.
    pub total_apps: usize,
    /// Apps with ML libraries (incl. obfuscated models).
    pub ml_apps: usize,
    /// Apps with at least one validated (benchmarkable) model.
    pub benchmarkable_apps: usize,
    /// Total model instances extracted.
    pub total_models: usize,
    /// Unique models by checksum.
    pub unique_models: usize,
    /// Candidate files that failed signature validation.
    pub failed_candidates: usize,
    /// Models found outside the base APK (§4.2: expected 0).
    pub models_outside_apk: usize,
    /// Apps using cloud ML APIs.
    pub cloud_apps: usize,
    /// Apps using NNAPI / XNNPACK / SNPE (§6.3).
    pub nnapi_apps: usize,
    /// Apps using XNNPACK.
    pub xnnpack_apps: usize,
    /// Apps using SNPE.
    pub snpe_apps: usize,
    /// Apps with on-device-training markers (§4.5: expected 0).
    pub on_device_training_apps: usize,
    /// Apps (or listings) that never downloaded after every retry — the
    /// paper's download-failure line in the Table 2 accounting.
    pub download_dropouts: usize,
    /// Whether the old-device-profile re-crawl produced identical APKs.
    pub device_profile_invariant: Option<bool>,
}

/// Everything the pipeline produced.
#[derive(Debug)]
pub struct PipelineReport {
    /// Config used.
    pub snapshot: Snapshot,
    /// Scale used.
    pub scale: CorpusScale,
    /// Seed used.
    pub seed: u64,
    /// Table 2 numbers.
    pub dataset: DatasetSummary,
    /// Unique models with analyses.
    pub models: Vec<ModelRecord>,
    /// Checksum → index into `models`, kept alongside so per-checksum
    /// lookups are a map probe, not a linear scan.
    pub model_index: BTreeMap<String, usize>,
    /// All instances.
    pub instances: Vec<InstanceRecord>,
    /// Per-app extraction facts.
    pub apps: Vec<AppExtraction>,
    /// Metadata index (the ElasticSearch stand-in).
    pub index: Index,
    /// Fig. 6 layer composition.
    pub composition: LayerComposition,
    /// Per-app download failures with their failing stage.
    pub dropouts: Vec<DropOut>,
    /// Crawl resilience counters, merged across the crawl workers.
    pub crawl_stats: CrawlStats,
    /// Fleet-wide admission counters of the crawl, live or replayed
    /// from the run journal (None only when a replayed journal holds no
    /// admission record).
    pub admission: Option<AdmissionStats>,
    /// Crawl workers used.
    pub workers: usize,
    /// Whether the whole crawl was served from the run journal (resume
    /// after a post-crawl checkpoint). Run provenance, not corpus
    /// content: excluded from [`PipelineReport::render_text`].
    pub crawl_replayed: bool,
    /// Offline-analysis counters and per-stage wall-clock timings (the
    /// timing fields vary run to run and are excluded from
    /// [`PipelineReport::render_text`]).
    pub analysis: AnalysisStats,
    /// The queryable corpus index with this snapshot folded in — hand it
    /// to `StoreServer::start_with` to serve the `/query/*` routes.
    /// `Arc`-wrapped because the server shares it immutably across
    /// connection threads.
    pub corpus_index: Arc<CorpusIndex>,
    /// The sim reactor's event-stream digest (None unless the store ran
    /// under [`ReactorMode::Sim`]). Schedule provenance, not content: it
    /// names which readiness schedule this run took. Free-running crawls
    /// may take different schedules run to run — the report must stay
    /// byte-identical regardless; only a lockstep harness (no server
    /// thread) replays the digest itself. Excluded from
    /// [`PipelineReport::render_text`].
    pub reactor_digest: Option<u64>,
}

impl PipelineReport {
    /// Model record by checksum — a `model_index` probe, so iterating
    /// every instance stays O(n log u) instead of the old O(n·u) scan.
    pub fn model(&self, checksum: &str) -> Option<&ModelRecord> {
        self.model_index.get(checksum).map(|&i| &self.models[i])
    }

    /// Instance count per framework (§4.3 / Fig. 4).
    pub fn instances_per_framework(&self) -> BTreeMap<Framework, usize> {
        let mut out = BTreeMap::new();
        for inst in &self.instances {
            if let Some(m) = self.model(&inst.checksum) {
                *out.entry(m.framework).or_default() += 1;
            }
        }
        out
    }

    /// Per-stage drop-out breakdown — the crawl half of the Table 2
    /// accounting: how many apps (or listings) were lost at each crawl
    /// stage, with an example package for triage.
    pub fn dropout_breakdown(&self) -> TextTable {
        let mut t = TextTable::new(["crawl stage", "drop-outs", "example"]);
        for stage in CrawlStage::ALL {
            let mut of_stage = self.dropouts.iter().filter(|d| d.stage == stage);
            let example = of_stage.next().map_or(String::new(), |d| d.package.clone());
            let count = self.dropouts.iter().filter(|d| d.stage == stage).count();
            t.row([stage.name().to_string(), count.to_string(), example]);
        }
        t.row([
            "total".to_string(),
            self.dropouts.len().to_string(),
            String::new(),
        ]);
        t
    }

    /// One-line crawl resilience summary (admission counters included
    /// when the report has them).
    pub fn crawl_summary(&self) -> String {
        let s = &self.crawl_stats;
        let mut line = format!(
            "crawl: {} worker(s), {} requests, {} retries, {} reconnects, \
             {} range resumes, {} ms logical backoff",
            self.workers, s.requests, s.retries, s.reconnects, s.range_resumes, s.backoff_ms_total
        );
        if let Some(a) = &self.admission {
            line.push_str(&format!(
                "; admission: {} admitted, {} throttled ({} ms), {} rejected, breaker opened {}x",
                a.admitted, a.throttled, a.throttle_ms_total, a.rejections, a.breaker_opens
            ));
        }
        line
    }

    /// Instance count per (category, framework) for Fig. 4.
    pub fn instances_per_category_framework(&self) -> BTreeMap<(String, Framework), usize> {
        let mut out = BTreeMap::new();
        for inst in &self.instances {
            if let Some(m) = self.model(&inst.checksum) {
                *out.entry((inst.category.clone(), m.framework)).or_default() += 1;
            }
        }
        out
    }

    /// One-line offline-analysis summary. Cache counters are corpus
    /// properties (deterministic at any worker count); the trailing
    /// wall-clock total is not.
    pub fn analysis_summary(&self) -> String {
        let a = &self.analysis;
        let mut line = format!(
            "analysis: {} worker(s), {} apps, {} instances, \
             {} cache hits / {} misses ({:.1}% hit rate), {} unique analysed, {:.1} ms",
            a.workers,
            a.apps,
            a.instances,
            a.cache_hits,
            a.cache_misses,
            a.cache_hit_rate() * 100.0,
            a.unique_analysed,
            a.total_ms(),
        );
        if a.persistent_hits > 0 || a.persistent_stores > 0 {
            line.push_str(&format!(
                "; persistent cache: {} hits / {} stored ({:.1}% of uniques warm)",
                a.persistent_hits,
                a.persistent_stores,
                a.persistent_hit_rate() * 100.0,
            ));
        }
        line
    }

    /// Per-stage wall-clock breakdown of the offline analysis (extract /
    /// checksum / decode / trace), summed across workers. Wall-clock
    /// content: do not fold into anything that must be byte-stable.
    pub fn analysis_breakdown(&self) -> TextTable {
        let a = &self.analysis;
        let stages = [
            ("extract", a.extract_us),
            ("checksum", a.checksum_us),
            ("decode", a.decode_us),
            ("trace+classify", a.trace_us),
        ];
        let total: u64 = stages.iter().map(|(_, us)| us).sum();
        let mut t = TextTable::new(["analysis stage", "ms", "share"]);
        for (name, us) in stages {
            let share = if total == 0 {
                0.0
            } else {
                us as f64 / total as f64 * 100.0
            };
            t.row([
                name.to_string(),
                format!("{:.1}", us as f64 / 1e3),
                format!("{share:.1}%"),
            ]);
        }
        t.row([
            "total".to_string(),
            format!("{:.1}", total as f64 / 1e3),
            String::new(),
        ]);
        t
    }

    /// Deterministic text render of the corpus-derived report content:
    /// the dataset summary, drop-out breakdown, cache counters, every
    /// model record and the per-framework instance counts. Byte-identical
    /// across crawl and analysis worker counts on the same corpus —
    /// wall-clock timings and worker counts are deliberately excluded —
    /// which is what the determinism tests pin.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "gaugeNN report: scale={:?} snapshot={:?} seed={}\n",
            self.scale, self.snapshot, self.seed
        ));
        out.push_str(&format!("{:#?}\n", self.dataset));
        out.push_str(&self.dropout_breakdown().render());
        out.push_str(&format!(
            "cache: {} hits, {} misses over {} instances\n",
            self.analysis.cache_hits, self.analysis.cache_misses, self.analysis.instances
        ));
        let mut models = TextTable::new(["model", "checksum", "fw", "bytes", "flops", "apps"]);
        for m in &self.models {
            models.row([
                m.name.clone(),
                m.checksum.clone(),
                format!("{:?}", m.framework),
                m.size_bytes.to_string(),
                m.trace.total_flops.to_string(),
                m.app_count.to_string(),
            ]);
        }
        out.push_str(&models.render());
        for (fw, n) in self.instances_per_framework() {
            out.push_str(&format!("instances[{fw:?}] = {n}\n"));
        }
        out
    }
}

/// The pipeline runner.
pub struct Pipeline {
    config: PipelineConfig,
}

impl Pipeline {
    /// Create a pipeline.
    pub fn new(config: PipelineConfig) -> Pipeline {
        Pipeline { config }
    }

    /// Run end to end: corpus → TCP store → crawl → extract → analyse.
    ///
    /// The crawl streams into the analysis: each app goes from the crawl
    /// connection that completes it, through the run journal when one is
    /// set, to the [`AnalysisPool`] workers, which extract it and drop
    /// its containers at once. The corpus is never held whole.
    pub fn run(&self) -> Result<PipelineReport> {
        let corpus = generate(self.config.scale, self.config.snapshot, self.config.seed);
        let server = StoreServer::start_with(
            corpus,
            ServerOptions {
                chaos: self.config.chaos.clone().map(FaultPlan::new),
                reactor: self.config.reactor,
                ..ServerOptions::default()
            },
        )?;
        // Journaled checkpoints (DESIGN.md §12): every crawled app becomes
        // durable before extraction consumes it, so a killed run resumed
        // over the same journal directory replays a finished crawl, or
        // crawls an unfinished one again, and renders byte-identical
        // output either way.
        let mut run_journal = self.config.journal_dir.as_ref().map(|dir| {
            let key = journal::run_key(
                &format!("{:?}", self.config.scale),
                self.config.snapshot.label(),
                self.config.seed,
            );
            let file = format!("run-{:?}.gnjl", self.config.snapshot);
            RunJournal::open(dir, &file, key, self.config.resume)
        });
        // The previous attempt finished its crawl: the corpus, the
        // drop-out ledger and the counters all replay from the journal
        // without touching the store.
        let replayed_crawl = run_journal.as_mut().and_then(RunJournal::take_replayed_crawl);
        let crawl_replayed = replayed_crawl.is_some();
        let journaled_probe = run_journal.as_ref().and_then(|j| j.probe());
        let journal = run_journal.map(Mutex::new);
        let record = |entry: &dyn Fn(&mut RunJournal)| {
            if let Some(j) = &journal {
                entry(&mut j.lock().unwrap_or_else(|e| e.into_inner()));
            }
        };
        let probe_sample = ProbeSample::default();

        // Offline stage: the analysis pool takes every app the crawl
        // hands on while the crawl is still running.
        let pool = AnalysisPool::new(AnalysisConfig {
            workers: self.config.analysis_workers,
            cache_dir: self.config.analysis_cache_dir.clone(),
            ..AnalysisConfig::default()
        });
        let ((outcome, admission, workers, device_profile_invariant), analysed) =
            pool.stream(|feed| {
                let sink = |seq: u64, app: CrawledApp| {
                    record(&|j| j.record_app(seq, &app));
                    if journaled_probe.is_none() {
                        probe_sample.offer(seq, &app);
                    }
                    feed(seq, app);
                };
                let (outcome, admission, workers) = self.crawl(&server, replayed_crawl, &sink)?;
                // After the post-crawl boundary a resumed run never
                // re-crawls; the workers may still be analysing.
                record(&|j| {
                    if let Some(stats) = &admission {
                        j.record_admission(stats);
                    }
                    j.record_crawl_done(&outcome.dropouts, &outcome.stats);
                });
                crashpoint::hit(CrashPoint::PostCrawl);
                let invariant = match journaled_probe {
                    Some(verdict) => verdict,
                    None => Some(self.probe(&server, probe_sample)?),
                };
                record(&|j| j.record_probe(invariant));
                Ok((outcome, admission, workers, invariant))
            })?;
        let CrawlOutcome {
            dropouts,
            stats: crawl_stats,
            ..
        } = outcome;
        let crate::analyze::AnalysisOutput {
            apps,
            models,
            model_index,
            instances,
            index,
            composition,
            failed_candidates,
            models_outside_apk,
            stats: analysis,
        } = analysed;

        // Index stage: fold this snapshot's analysed corpus into the
        // queryable index. With an index directory configured the stage
        // is incremental — whatever index survives on disk (other
        // snapshots included) is loaded first, this snapshot replaces its
        // own prior contribution, and the result is persisted back. A
        // corrupt file loads as empty and is rebuilt right here.
        let mut corpus_index = match &self.config.index_dir {
            Some(dir) => indexer::load_or_empty(dir),
            None => CorpusIndex::new(),
        };
        indexer::ingest(
            &mut corpus_index,
            self.config.snapshot.label(),
            &models,
            &apps,
        );
        if let Some(dir) = &self.config.index_dir {
            indexer::persist(&corpus_index, dir);
        }
        let corpus_index = Arc::new(corpus_index);

        let dataset = DatasetSummary {
            snapshot: self.config.snapshot.label(),
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
            device_profile_invariant,
        };

        Ok(PipelineReport {
            snapshot: self.config.snapshot,
            scale: self.config.scale,
            seed: self.config.seed,
            dataset,
            models,
            model_index,
            instances,
            apps,
            index,
            composition,
            dropouts,
            crawl_stats,
            admission,
            workers,
            crawl_replayed,
            analysis,
            corpus_index,
            reactor_digest: server.reactor_digest(),
        })
    }

    /// Crawl the store through the [`CrawlPool`], or replay the journaled
    /// crawl, handing every app to `sink` as it lands. Returns the outcome
    /// (its `apps` empty), the fleet's admission counters, and the crawl
    /// workers used.
    fn crawl(
        &self,
        server: &StoreServer,
        replayed: Option<(CrawlOutcome, Option<AdmissionStats>)>,
        sink: AppSink<'_>,
    ) -> Result<(CrawlOutcome, Option<AdmissionStats>, usize)> {
        if let Some((mut outcome, admission)) = replayed {
            for (seq, app) in std::mem::take(&mut outcome.apps).into_iter().enumerate() {
                sink(seq as u64, app);
            }
            return Ok((outcome, admission, self.config.workers.max(1)));
        }
        let pooled = CrawlPool::new(CrawlPoolConfig {
            workers: self.config.workers,
            sched_seed: self.config.seed,
            connections_per_worker: self.config.connections_per_worker,
            ..CrawlPoolConfig::default()
        })
        .crawl_into(&server.endpoint(), sink)?;
        Ok((pooled.outcome, Some(pooled.admission), pooled.workers))
    }

    /// §4.2 probe: re-download the sample's APKs with a
    /// three-generations-older device profile and compare bytes.
    fn probe(&self, server: &StoreServer, sample: ProbeSample) -> Result<bool> {
        let old_cfg = CrawlerConfig {
            device_profile: "SM-G935F".into(), // Galaxy S7 edge
            user_agent: "gaugeNN/1.0 (Android 8; SM-G935F)".into(),
            ..CrawlerConfig::default()
        };
        // A distinct connection id keeps the probe's chaos fault schedule
        // independent of the crawl fleet's.
        let mut old_crawler = Crawler::builder_at(server.endpoint())
            .config(old_cfg)
            .connection_id(u64::MAX)
            .build()?;
        let held = sample.0.into_inner().unwrap_or_else(|e| e.into_inner());
        for (package, apk) in held.values() {
            if old_crawler.download_apk(package)? != *apk {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// The §4.2 probe's sample — the first [`PROBE_APPS`] apps of the corpus
/// of any kind, by corpus sequence number — kept as the crawl streams
/// past: each app's package and a copy of its APK.
#[derive(Default)]
struct ProbeSample(Mutex<BTreeMap<u64, (String, Vec<u8>)>>);

impl ProbeSample {
    /// Hold `app` while it is among the first [`PROBE_APPS`] seen by
    /// sequence number.
    fn offer(&self, seq: u64, app: &CrawledApp) {
        let mut held = self.0.lock().unwrap_or_else(|e| e.into_inner());
        if held.len() == PROBE_APPS && held.last_key_value().is_some_and(|(&last, _)| last < seq) {
            return;
        }
        held.insert(seq, (app.meta.package.clone(), app.apk.clone()));
        if held.len() > PROBE_APPS {
            held.pop_last();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_tiny() -> PipelineReport {
        Pipeline::new(PipelineConfig::tiny(Snapshot::Y2021, 7))
            .run()
            .unwrap()
    }

    #[test]
    fn tiny_pipeline_end_to_end() {
        let r = run_tiny();
        assert_eq!(r.dataset.total_apps, 52);
        assert_eq!(r.dataset.ml_apps, 11);
        assert_eq!(r.dataset.benchmarkable_apps, 10);
        assert!(r.dataset.total_models >= 10);
        assert!(r.dataset.unique_models <= r.dataset.total_models);
        assert!(
            r.dataset.failed_candidates > 0,
            "decoys + obfuscated models"
        );
        assert_eq!(r.dataset.models_outside_apk, 0, "the §4.2 finding");
        assert_eq!(r.dataset.cloud_apps, 7);
        assert_eq!(r.dataset.download_dropouts, 0, "clean store drops nothing");
        assert_eq!(r.dataset.device_profile_invariant, Some(true));
        assert_eq!(r.index.len(), 52);
    }

    #[test]
    fn chaotic_store_yields_the_same_dataset() {
        // Every fault under the default plan is transient (bounded per
        // route), so the crawler's retries must recover the full corpus
        // and the Table 2 numbers must match the clean run exactly.
        let clean = run_tiny();
        let cfg = PipelineConfig::builder(CorpusScale::Tiny, Snapshot::Y2021, 7)
            .chaos(gaugenn_playstore::chaos::FaultPlanConfig {
                fault_permille: 250,
                ..Default::default()
            })
            .build();
        let chaotic = Pipeline::new(cfg).run().unwrap();
        assert_eq!(chaotic.dataset, clean.dataset);
        assert!(chaotic.dropouts.is_empty(), "{:?}", chaotic.dropouts);
    }

    #[test]
    fn permanent_failures_become_dropouts() {
        let corpus = generate(CorpusScale::Tiny, Snapshot::Y2021, 7);
        let victim = corpus.apps[0].package.clone();
        let cfg = PipelineConfig::builder(CorpusScale::Tiny, Snapshot::Y2021, 7)
            .chaos(gaugenn_playstore::chaos::FaultPlanConfig {
                fault_permille: 0,
                permanent_routes: vec![format!("/apk/{victim}")],
                ..Default::default()
            })
            .build();
        let r = Pipeline::new(cfg).run().unwrap();
        assert_eq!(r.dataset.total_apps, 51, "one app dropped out");
        assert_eq!(r.dataset.download_dropouts, 1);
        assert_eq!(r.dropouts.len(), 1);
        assert_eq!(r.dropouts[0].package, victim);
        assert_eq!(
            r.dropouts[0].stage,
            gaugenn_playstore::crawler::CrawlStage::Apk
        );
    }

    #[test]
    fn crawl_worker_count_does_not_change_the_report() {
        // Every crawl runs through the pool, so on a calm store the crawl
        // counters, the admission totals and everything rendered are the
        // same at one worker as at four.
        let one = run_tiny();
        assert_eq!(one.workers, 1);
        let sums = |r: &PipelineReport| -> Vec<String> {
            r.models.iter().map(|m| m.checksum.clone()).collect()
        };
        for workers in [2usize, 4] {
            let cfg = PipelineConfig::builder(CorpusScale::Tiny, Snapshot::Y2021, 7)
                .workers(workers)
                .build();
            let pooled = Pipeline::new(cfg).run().unwrap();
            assert_eq!(pooled.workers, workers);
            assert_eq!(pooled.dataset, one.dataset, "{workers} workers");
            assert_eq!(sums(&pooled), sums(&one), "same models in the same order");
            assert_eq!(pooled.render_text(), one.render_text(), "{workers} workers");
            assert_eq!(pooled.crawl_stats, one.crawl_stats, "{workers} workers");
            assert_eq!(pooled.admission, one.admission, "{workers} workers");
        }
        let adm = one.admission.expect("a live crawl carries admission stats");
        assert_eq!(adm.admitted, one.crawl_stats.requests);
    }

    #[test]
    fn parallel_analysis_matches_sequential() {
        let sequential = run_tiny();
        assert_eq!(sequential.analysis.workers, 1);
        for analysis_workers in [2usize, 8] {
            let cfg = PipelineConfig::builder(CorpusScale::Tiny, Snapshot::Y2021, 7)
                .analysis_workers(analysis_workers)
                .build();
            let parallel = Pipeline::new(cfg).run().unwrap();
            assert_eq!(parallel.analysis.workers, analysis_workers);
            assert_eq!(parallel.dataset, sequential.dataset);
            assert_eq!(
                parallel.render_text(),
                sequential.render_text(),
                "{analysis_workers} analysis workers"
            );
        }
    }

    #[test]
    fn analysis_cache_hits_on_duplicate_models() {
        let r = run_tiny();
        // The corpus plants cross-app duplicate models, so instances must
        // outnumber unique checksums and the cache must score hits.
        assert!(r.analysis.cache_hits > 0, "{:?}", r.analysis);
        assert_eq!(
            r.analysis.cache_hits + r.analysis.cache_misses,
            r.analysis.instances
        );
        assert_eq!(r.analysis.unique_analysed as usize, r.models.len());
        assert!(r.analysis_summary().contains("cache hits"));
        let breakdown = r.analysis_breakdown().render();
        assert!(breakdown.contains("decode"), "{breakdown}");
    }

    #[test]
    fn duplicate_instances_share_one_allocation() {
        // Every two instances with one checksum hold the same buffers,
        // and there are exactly as many distinct buffers as checksums.
        use gaugenn_analysis::dedup::model_checksum;
        let r = run_tiny();
        let found: Vec<_> = r.apps.iter().flat_map(|a| a.models.iter()).collect();
        let mut first: BTreeMap<String, &crate::extract::FoundModel> = BTreeMap::new();
        for m in &found {
            let held = first.entry(model_checksum(&m.files)).or_insert(m);
            assert_eq!(held.files.len(), m.files.len());
            for ((_, a), (_, b)) in held.files.iter().zip(&m.files) {
                assert!(Arc::ptr_eq(a, b), "one checksum, two allocations");
            }
        }
        assert!(found.len() > first.len(), "the corpus plants duplicates");
        let allocations: std::collections::BTreeSet<*const u8> =
            found.iter().map(|m| m.files[0].1.as_ptr()).collect();
        assert_eq!(allocations.len(), first.len());
    }

    #[test]
    fn model_index_is_consistent() {
        let r = run_tiny();
        assert_eq!(r.model_index.len(), r.models.len());
        for (i, m) in r.models.iter().enumerate() {
            assert_eq!(r.model_index[&m.checksum], i);
            assert_eq!(r.model(&m.checksum).unwrap().checksum, m.checksum);
        }
        assert!(r.model("not-a-checksum").is_none());
    }

    #[test]
    fn unique_models_have_full_analyses() {
        let r = run_tiny();
        for m in &r.models {
            assert_eq!(m.checksum.len(), 32);
            assert!(m.trace.total_flops > 0, "{}", m.name);
            assert!(m.size_bytes > 0);
            assert!(m.app_count >= 1);
            assert!(!m.layers.is_empty());
            assert!(!m.layer_families.is_empty());
        }
        // Most models classify (paper: 91.9 %).
        let classified = r
            .models
            .iter()
            .filter(|m| m.classification.is_some())
            .count();
        assert!(
            classified as f64 / r.models.len() as f64 > 0.8,
            "{classified}/{}",
            r.models.len()
        );
    }

    #[test]
    fn instances_link_to_models() {
        let r = run_tiny();
        for inst in &r.instances {
            assert!(r.model(&inst.checksum).is_some(), "{}", inst.path);
        }
        let per_fw = r.instances_per_framework();
        let total: usize = per_fw.values().sum();
        assert_eq!(total, r.instances.len());
        assert!(per_fw.contains_key(&Framework::TfLite));
    }

    fn journal_tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "gaugenn-pipeline-journal-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn journaled_resume_replays_the_whole_crawl_byte_identically() {
        let dir = journal_tmp("full");
        let baseline = run_tiny();
        let builder = PipelineConfig::builder(CorpusScale::Tiny, Snapshot::Y2021, 7)
            .journal_dir(dir.clone());
        let first = Pipeline::new(builder.clone().build()).run().unwrap();
        assert_eq!(first.render_text(), baseline.render_text());

        // The resumed run replays corpus + drop-outs + counters + probe
        // from the journal — it sends the store no request — and still
        // renders byte-identically, its crawl summary included.
        let resumed = Pipeline::new(builder.resume(true).build()).run().unwrap();
        assert!(resumed.crawl_replayed, "the whole crawl comes off disk");
        assert!(!first.crawl_replayed);
        assert_eq!(resumed.render_text(), baseline.render_text());
        assert_eq!(resumed.crawl_stats, first.crawl_stats, "stats replay verbatim");
        assert_eq!(resumed.admission, first.admission, "admission replays verbatim");
        assert_eq!(resumed.crawl_summary(), first.crawl_summary());
        assert_eq!(resumed.dataset, first.dataset);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_unfinished_crawl_is_crawled_again_on_resume() {
        let dir = journal_tmp("torn");
        let baseline = run_tiny();
        let builder = PipelineConfig::builder(CorpusScale::Tiny, Snapshot::Y2021, 7)
            .journal_dir(dir.clone());
        Pipeline::new(builder.clone().build()).run().unwrap();

        // Simulate a mid-crawl kill: chop the journal to 60% of its
        // length, losing the crawl-done marker, the probe verdict and the
        // tail of the app records (plus one torn record the open
        // truncates).
        let path = dir.join("run-Y2021.gnjl");
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() * 6 / 10]).unwrap();

        // The journaled apps are discarded and the whole snapshot is
        // crawled again, so the counters are the uninterrupted run's.
        let resume = builder.resume(true).build();
        let resumed = Pipeline::new(resume.clone()).run().unwrap();
        assert!(!resumed.crawl_replayed, "an unfinished crawl never replays");
        assert_eq!(resumed.render_text(), baseline.render_text());
        assert_eq!(resumed.crawl_stats, baseline.crawl_stats);
        assert_eq!(resumed.admission, baseline.admission);
        assert_eq!(resumed.crawl_summary(), baseline.crawl_summary());

        // The re-crawl journaled each app once: the next resume replays
        // exactly the corpus.
        let replayed = Pipeline::new(resume).run().unwrap();
        assert!(replayed.crawl_replayed);
        assert_eq!(replayed.render_text(), baseline.render_text());
        assert_eq!(replayed.crawl_summary(), baseline.crawl_summary());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_run_ignores_a_stale_journal_without_resume() {
        let dir = journal_tmp("fresh");
        let builder = PipelineConfig::builder(CorpusScale::Tiny, Snapshot::Y2021, 7)
            .journal_dir(dir.clone());
        Pipeline::new(builder.clone().build()).run().unwrap();
        // resume stays false: the journal restarts and nothing replays.
        let again = Pipeline::new(builder.build()).run().unwrap();
        assert!(!again.crawl_replayed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pipeline_is_deterministic() {
        let a = run_tiny();
        let b = run_tiny();
        assert_eq!(a.dataset, b.dataset);
        let sums_a: Vec<&str> = a.models.iter().map(|m| m.checksum.as_str()).collect();
        let sums_b: Vec<&str> = b.models.iter().map(|m| m.checksum.as_str()).collect();
        assert_eq!(sums_a, sums_b);
    }

    #[test]
    fn report_carries_a_consistent_corpus_index() {
        let r = run_tiny();
        let idx = &r.corpus_index;
        assert_eq!(idx.model_count(), r.models.len());
        assert_eq!(idx.app_count(), r.apps.len());
        assert_eq!(idx.snapshot_labels(), vec![r.dataset.snapshot]);
        // Every analysed model is queryable under its snapshot.
        let hits = idx.query_models(&gaugenn_index::ModelQuery {
            snapshot: Some(r.dataset.snapshot.to_string()),
            ..Default::default()
        });
        assert_eq!(hits.len(), r.models.len());
        // ML-app counts agree with the Table 2 summary.
        let ml = idx.query_apps(&gaugenn_index::AppQuery {
            ml_only: true,
            ..Default::default()
        });
        assert_eq!(ml.len(), r.dataset.ml_apps);
    }

    #[test]
    fn index_dir_accumulates_across_snapshots() {
        let dir = journal_tmp("index-accumulate");
        for snapshot in [Snapshot::Y2020, Snapshot::Y2021] {
            let cfg = PipelineConfig::builder(CorpusScale::Tiny, snapshot, 7)
                .index_dir(dir.clone())
                .build();
            Pipeline::new(cfg).run().unwrap();
        }
        let merged = crate::indexer::load_or_empty(&dir);
        assert_eq!(
            merged.snapshot_labels(),
            vec![Snapshot::Y2021.label(), Snapshot::Y2020.label()]
                .into_iter()
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect::<Vec<_>>(),
            "both snapshots folded into one persisted index"
        );
        // Re-running one snapshot leaves the merged counts unchanged
        // (per-label idempotence survives persistence).
        let before = merged.stats_text();
        let cfg = PipelineConfig::builder(CorpusScale::Tiny, Snapshot::Y2021, 7)
            .index_dir(dir.clone())
            .build();
        Pipeline::new(cfg).run().unwrap();
        let again = crate::indexer::load_or_empty(&dir);
        // Only the generation line may differ.
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("generation"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&again.stats_text()), strip(&before));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
