//! Parallel offline analysis with a content-addressed model cache.
//!
//! The paper's offline stage (§4–§6: extraction, DAG decode, FLOPs/params
//! tracing, md5 + per-layer checksumming) used to run as one sequential
//! loop over the crawled corpus. [`AnalysisPool`] runs it on N worker
//! threads fed through one bounded handoff:
//!
//! * **Streaming.** The core, `AnalysisPool::stream`, runs a producer —
//!   in [`crate::pipeline::Pipeline::run`], the crawl — on the calling
//!   thread while the workers take each app it feeds as it lands. A
//!   worker extracts the app, drops its containers at once and analyses
//!   every model it found. [`AnalysisPool::analyse`] is the same core
//!   fed from a finished corpus.
//! * **Bounded.** The handoff holds at most a constant few apps; a
//!   producer that gets further ahead waits. So only a few containers
//!   are alive at a time, however large the corpus.
//! * **One content table.** Found models take their bytes, md5 and
//!   analysis from one content table: every instance of one content
//!   holds the first sighting's allocation, checksum and analysis, so
//!   each distinct model is copied, checksummed and analysed once.
//!
//! Every app arrives tagged with its corpus sequence number, and the
//! merge walks apps (and their models) in that order, so the produced
//! models, instances, index docs and counters are **byte-identical to
//! the sequential run at any worker count and any arrival order** —
//! which worker takes which app moves wall-clock, never content.
//!
//! # The content-addressed analysis
//!
//! The paper's dataset is heavily duplicated — most model instances are
//! byte-identical copies shipped by many apps — so the expensive work
//! (graph decode, [`trace_graph`], [`classify_graph`], [`inspect`],
//! [`layer_checksums`]) runs once per distinct content: each entry of
//! the content table holds a compute-once cell. The first worker to ask
//! for an entry's analysis computes it while later instances wait on the
//! cell and then share the finished result. Failed decodes are kept too
//! — an obfuscated model shipped by 40 apps is probed once, not 40 times
//! — while still charging one `failed_candidates` count per instance,
//! exactly as the sequential loop did.
//!
//! With [`AnalysisConfig::cache_dir`] set the table is additionally
//! backed by a persistent [`CacheStore`]: the first caller for a content
//! consults the on-disk store under its checksum before computing, so
//! the second snapshot of a two-snapshot `repro` run (or a whole later
//! invocation pointed at the same directory) attaches to the first
//! snapshot's finished analyses. Persistent hits are tracked separately
//! ([`AnalysisStats::persistent_hits`]) and deliberately do **not**
//! perturb `cache_hits`/`cache_misses` — those appear in the
//! deterministic report render, which must stay byte-identical between
//! cold and warm runs.
//!
//! # Determinism
//!
//! * which worker takes which app is a race for the handoff, and does
//!   not matter: results are keyed by corpus sequence number;
//! * the content table only memoises pure functions of the model bytes,
//!   so the race for who computes a content first never changes *what*
//!   is computed;
//! * cache hit/miss totals are interleaving-independent (misses = cells
//!   filled = unique checksums, hits = instances − misses) because each
//!   content has one entry and each entry's cell is filled once;
//! * the merge assembles everything in corpus order, so first-sighting
//!   order — and with it model numbering, Table 2 counts and the Fig. 6
//!   composition — matches the sequential loop bit for bit.
//!
//! Only the wall-clock stage timings in [`AnalysisStats`] vary run to
//! run; they are reported for the `repro`/`analyzebench` breakdowns and
//! deliberately excluded from [`crate::pipeline::PipelineReport`]'s
//! deterministic text render.

use crate::cachestore::CacheStore;
use crate::content::ContentTable;
use crate::crashpoint::{self, CrashPoint};
use crate::extract::{extract_with, AppExtraction};
use crate::{CoreError, Result};
use gaugenn_analysis::classify::{classify_graph, Classification, LayerComposition};
use gaugenn_analysis::dedup::layer_checksums;
use gaugenn_analysis::etl::{doc, Index};
use gaugenn_analysis::optim::{inspect, ModelOptim};
use gaugenn_dnn::graph::LayerKind;
use gaugenn_dnn::trace::{trace_graph, TraceReport};
use gaugenn_modelfmt::Framework;
use gaugenn_playstore::crawler::{AppMeta, CrawledApp};
use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Capacity of the handoff between the producer and the workers: the
/// most fed apps waiting for a worker. A producer that gets this far
/// ahead waits, so container bytes stay bounded by these apps plus one
/// per worker and one per crawl connection.
const HANDOFF_APPS: usize = 4;

/// Tunables for an [`AnalysisPool`].
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Worker threads. Clamped to a minimum of 1; 1 reproduces the old
    /// sequential loop through the same code path.
    pub workers: usize,
    /// Unread: nothing in the analysis is seeded. Kept so existing
    /// struct literals that set it still build.
    pub sched_seed: u64,
    /// Directory backing the content table's analyses persistently
    /// across runs (see [`CacheStore`]). `None` keeps them in memory
    /// only.
    pub cache_dir: Option<PathBuf>,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            workers: 1,
            sched_seed: 0,
            cache_dir: None,
        }
    }
}

impl AnalysisConfig {
    /// Config with `workers` threads.
    pub fn with_workers(workers: usize) -> AnalysisConfig {
        AnalysisConfig {
            workers,
            ..AnalysisConfig::default()
        }
    }
}

/// Everything computed once per unique model checksum.
#[derive(Debug)]
pub struct ModelAnalysis {
    /// Model name from the decoded graph.
    pub name: String,
    /// FLOPs/params trace.
    pub trace: TraceReport,
    /// Task classification.
    pub classification: Option<Classification>,
    /// §6.1 optimisation inspection.
    pub optim: ModelOptim,
    /// Per-layer weight checksums.
    pub layers: Vec<(String, u64)>,
    /// Layer-family histogram (Input layers excluded) — also the Fig. 6
    /// composition contribution, so the merge never needs the graph.
    pub layer_families: BTreeMap<String, u64>,
}

/// Why a cached model analysis failed.
#[derive(Debug, Clone)]
pub enum AnalyzeFailure {
    /// The file passed the cheap signature probe but would not decode
    /// (truncated/corrupted/obfuscated body) — the instance drops out of
    /// the benchmarkable set, charging one failed candidate.
    Undecodable,
    /// The decoded graph would not trace — fatal, aborts the pipeline
    /// like the sequential loop's `?` did.
    Trace(String),
}

/// One content's analysis: the shared result, or the memoised failure.
pub type ModelOutcome = std::result::Result<Arc<ModelAnalysis>, AnalyzeFailure>;

/// Merged counters and wall-clock stage timings for one analysis run.
///
/// The counter fields are deterministic (pure functions of the corpus);
/// the `*_us` timings are wall-clock sums across workers and vary run to
/// run — keep them out of anything that must be byte-stable.
#[derive(Debug, Clone, Default)]
pub struct AnalysisStats {
    /// Worker threads used.
    pub workers: usize,
    /// Apps analysed.
    pub apps: usize,
    /// Model instances that went through the checksum funnel.
    pub instances: u64,
    /// Cache hits: instances whose content another instance analysed
    /// (`instances − cache_misses`).
    pub cache_hits: u64,
    /// Cache misses: analyses the content table filled in, one per
    /// unique checksum, decodable or not.
    pub cache_misses: u64,
    /// Unique models that decoded and traced successfully.
    pub unique_analysed: u64,
    /// Unique checksums whose analysis was loaded from the persistent
    /// [`CacheStore`] instead of recomputed. These are a subset of
    /// `cache_misses` by design: disk state must not perturb the hit/miss
    /// totals that reach the deterministic report.
    pub persistent_hits: u64,
    /// Outcomes offered to the persistent store for write-back.
    pub persistent_stores: u64,
    /// Wall-clock in app extraction across all workers, content table
    /// excluded, microseconds.
    pub extract_us: u64,
    /// Wall-clock in the content table — keying and comparing every
    /// instance, copying and md5-hashing each first sighting —
    /// microseconds.
    pub checksum_us: u64,
    /// Wall-clock in graph decode, microseconds.
    pub decode_us: u64,
    /// Wall-clock in trace/classify/inspect/layer-checksums, microseconds.
    pub trace_us: u64,
}

impl AnalysisStats {
    /// Fraction of instances served from the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.instances == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.instances as f64
        }
    }

    /// Fraction of unique checksums served from the persistent store —
    /// the cross-snapshot attach rate of a warm `repro` run.
    pub fn persistent_hit_rate(&self) -> f64 {
        if self.cache_misses == 0 {
            0.0
        } else {
            self.persistent_hits as f64 / self.cache_misses as f64
        }
    }

    /// Total analysis wall-clock across all stages, milliseconds.
    pub fn total_ms(&self) -> f64 {
        (self.extract_us + self.checksum_us + self.decode_us + self.trace_us) as f64 / 1e3
    }
}

/// One unique (by checksum) model with every offline analysis attached.
#[derive(Debug, Clone)]
pub struct ModelRecord {
    /// md5 over all model files.
    pub checksum: String,
    /// Model name from the graph.
    pub name: String,
    /// Container framework.
    pub framework: Framework,
    /// Serialized size in bytes (all files).
    pub size_bytes: usize,
    /// FLOPs/params trace.
    pub trace: TraceReport,
    /// Task classification (None for the unidentifiable tail).
    pub classification: Option<Classification>,
    /// §6.1 optimisation inspection.
    pub optim: ModelOptim,
    /// Per-layer weight checksums for the §4.5 lineage analysis.
    pub layers: Vec<(String, u64)>,
    /// Layer-family histogram for Fig. 6.
    pub layer_families: BTreeMap<String, u64>,
    /// Number of apps carrying this model.
    pub app_count: usize,
}

/// One model instance (a file in an app).
#[derive(Debug, Clone)]
pub struct InstanceRecord {
    /// App package.
    pub app: String,
    /// Store category.
    pub category: String,
    /// Primary file path inside the app.
    pub path: String,
    /// Checksum linking to the [`ModelRecord`].
    pub checksum: String,
}

/// Everything the offline stage produced, merged in corpus order.
#[derive(Debug)]
pub struct AnalysisOutput {
    /// Per-app extraction facts, in corpus order.
    pub apps: Vec<AppExtraction>,
    /// Unique models in first-sighting order.
    pub models: Vec<ModelRecord>,
    /// Checksum → index into `models`.
    pub model_index: BTreeMap<String, usize>,
    /// All decodable model instances, in corpus order.
    pub instances: Vec<InstanceRecord>,
    /// Metadata index (the ElasticSearch stand-in).
    pub index: Index,
    /// Fig. 6 layer composition.
    pub composition: LayerComposition,
    /// Candidate files that failed signature validation or decode.
    pub failed_candidates: usize,
    /// Models found outside the base APK (§4.2: expected 0).
    pub models_outside_apk: usize,
    /// Merged counters + stage timings.
    pub stats: AnalysisStats,
}

/// Per-worker wall-clock accumulators.
#[derive(Debug, Clone, Copy, Default)]
struct StageTimers {
    extract: Duration,
    checksum: Duration,
    decode: Duration,
    trace: Duration,
}

impl StageTimers {
    fn add(&mut self, other: &StageTimers) {
        self.extract += other.extract;
        self.checksum += other.checksum;
        self.decode += other.decode;
        self.trace += other.trace;
    }
}

/// One app through the offline stage: its store metadata, its
/// extraction, and each found model's checksum with its cached outcome,
/// in [`AppExtraction::models`] order.
struct AnalysedApp {
    meta: AppMeta,
    extraction: AppExtraction,
    outcomes: Vec<(String, ModelOutcome)>,
}

/// The analysis pool. See the module docs for the determinism contract.
#[derive(Debug, Clone, Default)]
pub struct AnalysisPool {
    config: AnalysisConfig,
}

impl AnalysisPool {
    /// Build a pool.
    pub fn new(config: AnalysisConfig) -> AnalysisPool {
        AnalysisPool { config }
    }

    /// Analyse a crawled corpus with the configured worker fleet: the
    /// streaming core (see the module docs) fed from the corpus in order.
    ///
    /// The corpus comes by value or by reference. Owned apps
    /// (`analyse(apps)`) move into the worker that extracts them, which
    /// drops each app's APK, OBB and bundle bytes as soon as the app is
    /// extracted. Borrowed apps (`analyse(&apps)`) leave the caller's
    /// bytes in place. The output is the same either way.
    pub fn analyse<A>(&self, crawled: impl IntoIterator<Item = A>) -> Result<AnalysisOutput>
    where
        A: Borrow<CrawledApp> + Send,
    {
        let ((), out) = self.stream(|feed| {
            for (seq, app) in crawled.into_iter().enumerate() {
                feed(seq as u64, app);
            }
            Ok(())
        })?;
        Ok(out)
    }

    /// The analysis core. Runs `produce` on the calling thread while the
    /// worker fleet extracts and analyses every app it feeds, as each one
    /// arrives. `produce` calls the feed with each app and its corpus
    /// sequence number, from any thread, in any order; the feed blocks
    /// while `HANDOFF_APPS` apps are already waiting. Once `produce`
    /// returns, the workers drain the handoff and the results merge in
    /// sequence order, byte-identical at any worker count.
    ///
    /// Returns what `produce` returned beside the merged output. An error
    /// from `produce` wins; otherwise the first extraction or trace error
    /// in sequence order fails the run.
    pub(crate) fn stream<A, T>(
        &self,
        produce: impl FnOnce(&(dyn Fn(u64, A) + Sync)) -> Result<T>,
    ) -> Result<(T, AnalysisOutput)>
    where
        A: Borrow<CrawledApp> + Send,
    {
        let workers = self.config.workers.max(1);
        let store = self.config.cache_dir.as_deref().map(CacheStore::open);
        let table = ContentTable::new(store.clone());
        let (tx, rx) = mpsc::sync_channel::<(u64, A)>(HANDOFF_APPS);
        // Only the workers hold the receiving end, so once every worker
        // is gone (finished or panicked) the feed stops blocking and
        // drops what it is handed.
        let rx = Arc::new(Mutex::new(rx));

        type WorkerYield = (Vec<(u64, Result<AnalysedApp>)>, StageTimers);
        let (produced, yields): (Result<T>, Vec<WorkerYield>) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let rx = Arc::clone(&rx);
                    let table = &table;
                    scope.spawn(move || {
                        let mut t = StageTimers::default();
                        let mut done = Vec::new();
                        loop {
                            let next = rx.lock().unwrap_or_else(|e| e.into_inner()).recv();
                            let Ok((seq, app)) = next else {
                                break;
                            };
                            done.push((seq, analyse_app(app, table, &mut t)));
                        }
                        (done, t)
                    })
                })
                .collect();
            drop(rx);
            // The sender lives inside this closure, so a producer that
            // unwinds still closes the handoff and the workers still exit.
            let produced = {
                let tx = tx;
                produce(&|seq, app| {
                    // Fails only once every worker is gone; their join
                    // below reports why.
                    let _ = tx.send((seq, app));
                })
            };
            let yields = handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect();
            (produced, yields)
        });
        let produced = produced?;

        let mut timers = StageTimers::default();
        let mut analysed: Vec<(u64, Result<AnalysedApp>)> = Vec::new();
        for (done, t) in yields {
            timers.add(&t);
            analysed.extend(done);
        }
        analysed.sort_by_key(|(seq, _)| *seq);
        let mut out = merge(analysed, workers)?;

        let (cache_misses, persistent_hits, persistent_stores) = table.counters();
        let s = &mut out.stats;
        s.cache_hits = s.instances - cache_misses;
        s.cache_misses = cache_misses;
        s.persistent_hits = persistent_hits;
        s.persistent_stores = persistent_stores;
        s.extract_us = timers.extract.as_micros() as u64;
        s.checksum_us = timers.checksum.as_micros() as u64;
        s.decode_us = timers.decode.as_micros() as u64;
        s.trace_us = timers.trace.as_micros() as u64;

        // End-of-run compaction sweep: with `GAUGENN_CACHE_MAX_BYTES`
        // set, the cache directory is back under budget before the run
        // reports success (DESIGN.md §12).
        if let Some(store) = &store {
            store.compact_if_over();
        }
        Ok((produced, out))
    }
}

/// Extract one app, drop its containers, and analyse each model found:
/// the model's bytes, checksum and analysis all come from the content
/// table.
fn analyse_app<A: Borrow<CrawledApp>>(
    app: A,
    table: &ContentTable,
    t: &mut StageTimers,
) -> Result<AnalysedApp> {
    let meta = app.borrow().meta.clone();
    let mut contents = Vec::new();
    let mut in_table = Duration::default();
    let t0 = Instant::now(); // gaugelint: deterministic-via(clock) — stage timers are diagnostics, never rendered into the deterministic report
    let extraction = extract_with(app.borrow(), &mut |files| {
        let t1 = Instant::now(); // gaugelint: deterministic-via(clock) — stage timers are diagnostics, never rendered into the deterministic report
        let (bytes, content) = table.share(files);
        in_table += t1.elapsed();
        contents.push(content);
        bytes
    });
    t.extract += t0.elapsed().saturating_sub(in_table);
    t.checksum += in_table;
    // An owned app's containers go now; a borrowed one stays with its
    // caller.
    drop(app);
    crashpoint::hit(CrashPoint::AppExtract);
    let extraction = extraction.map_err(CoreError::from)?;
    let outcomes = extraction
        .models
        .iter()
        .zip(contents)
        .map(|(found, content)| {
            let outcome =
                table.analysis(&content, || analyse_model(found.framework, &found.files, t));
            crashpoint::hit(CrashPoint::ModelAnalysis);
            (content.checksum().to_string(), outcome)
        })
        .collect();
    Ok(AnalysedApp {
        meta,
        extraction,
        outcomes,
    })
}

/// Merge analysed apps, already in corpus order, replicating the
/// sequential loop: first sightings number the models, and the first
/// error in corpus order fails the run. Cache counters and stage timers
/// are the caller's to fill in.
fn merge(analysed: Vec<(u64, Result<AnalysedApp>)>, workers: usize) -> Result<AnalysisOutput> {
    let mut apps: Vec<AppExtraction> = Vec::with_capacity(analysed.len());
    let mut models: Vec<ModelRecord> = Vec::new();
    let mut model_index: BTreeMap<String, usize> = BTreeMap::new();
    let mut model_apps: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut instances = Vec::new();
    let mut index = Index::new();
    let mut composition = LayerComposition::default();
    let mut failed_candidates = 0usize;
    let mut models_outside_apk = 0usize;
    let mut units = 0u64;

    for (_, app) in analysed {
        let AnalysedApp {
            meta,
            extraction,
            outcomes,
        } = app?;
        units += outcomes.len() as u64;
        failed_candidates += extraction.failed_candidates;
        models_outside_apk += extraction.models_outside_apk();
        index.insert(doc([
            ("package", meta.package.as_str().into()),
            ("category", meta.category.as_str().into()),
            ("downloads", meta.downloads.into()),
            ("rating", (meta.rating as f64).into()),
            ("is_ml", extraction.is_ml_app().into()),
            ("has_models", (!extraction.models.is_empty()).into()),
            ("uses_cloud", (!extraction.cloud.is_empty()).into()),
            ("uses_nnapi", extraction.uses_nnapi.into()),
        ]));
        for (found, (checksum, outcome)) in extraction.models.iter().zip(outcomes) {
            let analysis = match outcome {
                Ok(a) => a,
                Err(AnalyzeFailure::Undecodable) => {
                    // A file can pass the cheap signature probe yet
                    // still be undecodable (truncated or corrupted
                    // body); such instances drop out of the
                    // benchmarkable set like the paper's obfuscated
                    // tail, they do not abort the run.
                    failed_candidates += 1;
                    continue;
                }
                Err(AnalyzeFailure::Trace(e)) => {
                    return Err(CoreError::Other(format!("trace: {e}")));
                }
            };
            instances.push(InstanceRecord {
                app: extraction.package.clone(),
                category: extraction.category.clone(),
                path: found.files[0].0.clone(),
                checksum: checksum.clone(),
            });
            model_apps
                .entry(checksum.clone())
                .or_default()
                .insert(extraction.package.clone());
            if model_index.contains_key(&checksum) {
                continue;
            }
            // First sighting in corpus order: materialise the record.
            if let Some(c) = &analysis.classification {
                let modality = c.task.modality();
                for (family, count) in &analysis.layer_families {
                    *composition
                        .counts
                        .entry((modality, family.clone()))
                        .or_default() += count;
                }
            }
            model_index.insert(checksum.clone(), models.len());
            models.push(ModelRecord {
                checksum,
                name: analysis.name.clone(),
                framework: found.framework,
                size_bytes: found.files.iter().map(|(_, b)| b.len()).sum(),
                trace: analysis.trace.clone(),
                classification: analysis.classification,
                optim: analysis.optim,
                layers: analysis.layers.clone(),
                layer_families: analysis.layer_families.clone(),
                app_count: 0,
            });
        }
        apps.push(extraction);
    }
    for m in &mut models {
        m.app_count = model_apps.get(&m.checksum).map_or(0, |s| s.len());
    }
    let stats = AnalysisStats {
        workers,
        apps: apps.len(),
        instances: units,
        unique_analysed: models.len() as u64,
        ..AnalysisStats::default()
    };
    Ok(AnalysisOutput {
        apps,
        models,
        model_index,
        instances,
        index,
        composition,
        failed_candidates,
        models_outside_apk,
        stats,
    })
}

/// The expensive once-per-unique-checksum work: decode, trace, classify,
/// inspect, layer-checksum.
fn analyse_model(
    framework: Framework,
    files: &[(String, Arc<[u8]>)],
    timers: &mut StageTimers,
) -> ModelOutcome {
    let t0 = Instant::now(); // gaugelint: deterministic-via(clock) — stage timers are diagnostics, never rendered into the deterministic report
    let graph = match gaugenn_modelfmt::decode(framework, files) {
        Ok(g) => g,
        Err(_) => {
            timers.decode += t0.elapsed();
            return Err(AnalyzeFailure::Undecodable);
        }
    };
    timers.decode += t0.elapsed();

    let t1 = Instant::now(); // gaugelint: deterministic-via(clock) — stage timers are diagnostics, never rendered into the deterministic report
    let trace = match trace_graph(&graph) {
        Ok(t) => t,
        Err(e) => {
            timers.trace += t1.elapsed();
            return Err(AnalyzeFailure::Trace(e.to_string()));
        }
    };
    let classification = classify_graph(&graph);
    let mut layer_families = BTreeMap::new();
    for n in &graph.nodes {
        if !matches!(n.kind, LayerKind::Input { .. }) {
            *layer_families
                .entry(n.kind.family().to_string())
                .or_default() += 1;
        }
    }
    let analysis = ModelAnalysis {
        name: graph.name.clone(),
        classification,
        optim: inspect(&graph),
        layers: layer_checksums(&graph),
        trace,
        layer_families,
    };
    timers.trace += t1.elapsed();
    Ok(Arc::new(analysis))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaugenn_playstore::corpus::{generate, CorpusScale, Snapshot};
    use gaugenn_playstore::crawler::Crawler;
    use gaugenn_playstore::server::StoreServer;

    fn crawl_tiny() -> Vec<CrawledApp> {
        let server = StoreServer::start(generate(CorpusScale::Tiny, Snapshot::Y2021, 7)).unwrap();
        let mut c = Crawler::builder(server.addr()).build().unwrap();
        c.crawl_all().unwrap().apps
    }

    fn checksums(out: &AnalysisOutput) -> Vec<&str> {
        out.models.iter().map(|m| m.checksum.as_str()).collect()
    }

    fn assert_same_output(got: &AnalysisOutput, want: &AnalysisOutput, what: &str) {
        assert_eq!(checksums(got), checksums(want), "{what}");
        assert_eq!(got.instances.len(), want.instances.len(), "{what}");
        assert_eq!(got.failed_candidates, want.failed_candidates, "{what}");
        assert_eq!(got.composition.counts, want.composition.counts, "{what}");
        assert_eq!(got.index.len(), want.index.len(), "{what}");
        assert_eq!(got.stats.cache_hits, want.stats.cache_hits, "{what}");
        assert_eq!(got.stats.cache_misses, want.stats.cache_misses, "{what}");
    }

    #[test]
    fn worker_count_does_not_change_the_output() {
        let apps = crawl_tiny();
        let one = AnalysisPool::new(AnalysisConfig::with_workers(1))
            .analyse(&apps)
            .unwrap();
        for workers in [1usize, 2, 3, 4, 8] {
            let pool = AnalysisPool::new(AnalysisConfig::with_workers(workers));
            let borrowed = pool.analyse(&apps).unwrap();
            assert_same_output(&borrowed, &one, &format!("{workers} workers"));
            // By value, the pool frees each app's containers once it is
            // extracted; the output must not notice.
            let owned = pool.analyse(apps.clone()).unwrap();
            assert_same_output(&owned, &borrowed, &format!("{workers} workers, owned"));
        }
    }

    #[test]
    fn cache_dedups_duplicate_models() {
        let apps = crawl_tiny();
        let out = AnalysisPool::new(AnalysisConfig::with_workers(4))
            .analyse(&apps)
            .unwrap();
        // The corpus plants cross-app duplicates, so some instances must
        // attach to an already-analysed checksum.
        assert!(out.stats.cache_hits > 0, "{:?}", out.stats);
        assert_eq!(
            out.stats.cache_hits + out.stats.cache_misses,
            out.stats.instances
        );
        // Decodable uniques are a subset of the misses (undecodable
        // candidates also claim a slot, once each).
        assert!(out.stats.unique_analysed <= out.stats.cache_misses);
        assert_eq!(out.stats.unique_analysed as usize, out.models.len());
    }

    #[test]
    fn arrival_order_does_not_change_the_output() {
        // The streaming core merges by sequence number: apps fed in
        // reverse, from two producer threads at once, merge like the
        // corpus fed in order.
        let apps = crawl_tiny();
        let in_order = AnalysisPool::new(AnalysisConfig::with_workers(2))
            .analyse(&apps)
            .unwrap();
        for workers in [1usize, 3] {
            let ((), streamed) = AnalysisPool::new(AnalysisConfig::with_workers(workers))
                .stream(|feed| {
                    std::thread::scope(|s| {
                        for half in [0usize, 1] {
                            let apps = &apps;
                            s.spawn(move || {
                                for seq in (0..apps.len()).rev().filter(|i| i % 2 == half) {
                                    feed(seq as u64, &apps[seq]);
                                }
                            });
                        }
                    });
                    Ok(())
                })
                .unwrap();
            let what = format!("{workers} workers, reversed");
            assert_same_output(&streamed, &in_order, &what);
            let packages = |o: &AnalysisOutput| -> Vec<String> {
                o.apps.iter().map(|a| a.package.clone()).collect()
            };
            assert_eq!(packages(&streamed), packages(&in_order));
        }
    }

    #[test]
    fn a_producer_error_still_stops_the_workers() {
        let apps = crawl_tiny();
        let err = AnalysisPool::new(AnalysisConfig::with_workers(2)).stream(|feed| {
            for (seq, app) in apps.iter().enumerate() {
                feed(seq as u64, app);
            }
            Err::<(), _>(CoreError::Other("crawl failed".into()))
        });
        assert!(matches!(err, Err(CoreError::Other(m)) if m == "crawl failed"));
    }

    #[test]
    fn model_index_points_at_models() {
        let apps = crawl_tiny();
        let out = AnalysisPool::new(AnalysisConfig::default())
            .analyse(&apps)
            .unwrap();
        assert_eq!(out.model_index.len(), out.models.len());
        for (sum, &i) in &out.model_index {
            assert_eq!(&out.models[i].checksum, sum);
        }
    }

    #[test]
    fn persistent_cache_attaches_second_run() {
        let apps = crawl_tiny();
        let dir = std::env::temp_dir().join(format!("gaugenn-warm-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = |workers| AnalysisConfig {
            workers,
            cache_dir: Some(dir.clone()),
            ..AnalysisConfig::default()
        };
        let cold = AnalysisPool::new(cfg(2)).analyse(&apps).unwrap();
        assert_eq!(cold.stats.persistent_hits, 0, "{:?}", cold.stats);
        assert!(cold.stats.persistent_stores > 0, "{:?}", cold.stats);
        // The cold pool offers every content it analysed to the store.
        assert_eq!(cold.stats.persistent_stores, cold.stats.cache_misses);
        // A second pool over the same directory attaches to the first
        // run's analyses, even at a different worker count: every
        // content loads from disk and nothing is stored again.
        let warm = AnalysisPool::new(cfg(4)).analyse(&apps).unwrap();
        assert!(warm.stats.persistent_hits > 0, "{:?}", warm.stats);
        assert_eq!(warm.stats.persistent_hits, cold.stats.cache_misses);
        assert_eq!(warm.stats.persistent_hits, cold.stats.persistent_stores);
        assert_eq!(warm.stats.persistent_stores, 0, "{:?}", warm.stats);
        assert!(warm.stats.persistent_hit_rate() > 0.0);
        // Disk state must not leak into the deterministic counters or
        // the merged content.
        assert_eq!(warm.stats.cache_hits, cold.stats.cache_hits);
        assert_eq!(warm.stats.cache_misses, cold.stats.cache_misses);
        assert_eq!(checksums(&warm), checksums(&cold));
        assert_eq!(warm.instances.len(), cold.instances.len());
        assert_eq!(warm.failed_candidates, cold.failed_candidates);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
