//! Parallel offline analysis with a content-addressed model cache.
//!
//! The paper's offline stage (§4–§6: extraction, DAG decode, FLOPs/params
//! tracing, md5 + per-layer checksumming) used to run as one sequential
//! loop over the crawled corpus. [`AnalysisPool`] fans it out over N
//! worker threads in two scheduled phases sharing the
//! size-aware-assignment + ordered-merge discipline of
//! [`gaugenn_playstore::pool::CrawlPool`]:
//!
//! 1. **Extraction** — work units are apps, sized by container bytes
//!    (APK + OBBs + bundle), partitioned longest-first by the
//!    [`gaugenn_sched`] scheduler.
//! 2. **Model analysis** — work units are the *individual model files*
//!    found in phase 1, sized by their file bytes, scheduled the same
//!    way. One model-dense app no longer straggles its shard: its models
//!    spread across the fleet.
//!
//! The merge walks apps (and their models) in corpus-index order, so the
//! produced models, instances, index docs and counters are
//! **byte-identical to the sequential run at any worker count** —
//! assignment moves wall-clock between workers, never content.
//!
//! # The content-addressed cache
//!
//! The paper's dataset is heavily duplicated — most model instances are
//! byte-identical copies shipped by many apps — so the expensive work
//! (graph decode, [`trace_graph`], [`classify_graph`], [`inspect`],
//! [`layer_checksums`]) is keyed by the cheap [`model_checksum`] over the
//! raw bytes. The [`ModelCache`] is a sharded map (per-shard mutex, so
//! workers hashing different models never contend on one lock) of
//! compute-once slots: the first worker to claim a checksum computes the
//! full analysis under the slot's own lock while later instances block on
//! that slot and then attach to the finished result. Failed decodes are
//! cached too — an obfuscated model shipped by 40 apps is probed once,
//! not 40 times — while still charging one `failed_candidates` count per
//! instance, exactly as the sequential loop did.
//!
//! With [`AnalysisConfig::cache_dir`] set the cache is additionally
//! backed by a persistent [`CacheStore`]: the first claimant of a
//! checksum consults the on-disk store before computing, so the second
//! snapshot of a two-snapshot `repro` run (or a whole later invocation
//! pointed at the same directory) attaches to the first snapshot's
//! finished analyses. Persistent hits are tracked separately
//! ([`AnalysisStats::persistent_hits`]) and deliberately do **not**
//! perturb `cache_hits`/`cache_misses` — those appear in the
//! deterministic report render, which must stay byte-identical between
//! cold and warm runs.
//!
//! # Determinism
//!
//! * which worker analyses which unit is a pure function of `(unit
//!   sizes, workers)`, fixed before any thread starts — no runtime work
//!   stealing, no shared queues;
//! * the cache only memoises a pure function of the model bytes, so the
//!   race for who computes a checksum first never changes *what* is
//!   computed;
//! * cache hit/miss totals are interleaving-independent (misses = unique
//!   checksums, hits = instances − misses) because slots are claimed
//!   exactly once under the shard lock;
//! * the merge assembles everything in corpus order, so first-sighting
//!   order — and with it model numbering, Table 2 counts and the Fig. 6
//!   composition — matches the sequential loop bit for bit.
//!
//! Only the wall-clock stage timings in [`AnalysisStats`] vary run to
//! run; they are reported for the `repro`/`analyzebench` breakdowns and
//! deliberately excluded from [`crate::pipeline::PipelineReport`]'s
//! deterministic text render.

use crate::cachestore::CacheStore;
use crate::crashpoint::{self, CrashPoint};
use crate::extract::{extract_app, AppExtraction};
use crate::{CoreError, Result};
use gaugenn_analysis::classify::{classify_graph, Classification, LayerComposition};
use gaugenn_analysis::dedup::{layer_checksums, model_checksum};
use gaugenn_analysis::etl::{doc, Index};
use gaugenn_analysis::optim::{inspect, ModelOptim};
use gaugenn_dnn::graph::LayerKind;
use gaugenn_dnn::trace::{trace_graph, TraceReport};
use gaugenn_modelfmt::Framework;
use gaugenn_playstore::crawler::{AppMeta, CrawledApp};
use gaugenn_sched::{assign, WorkUnit};
use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tunables for an [`AnalysisPool`].
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Worker threads. Clamped to a minimum of 1; 1 reproduces the old
    /// sequential loop through the same code path.
    pub workers: usize,
    /// Content-addressed dedup cache in front of decode/trace. On by
    /// default; `analyzebench` switches it off to measure what the cache
    /// buys (every instance then pays the full decode + trace).
    pub dedup_cache: bool,
    /// Unread: the work plan takes no seed. Kept so existing struct
    /// literals that set it still build.
    pub sched_seed: u64,
    /// Directory backing the [`ModelCache`] persistently across runs
    /// (see [`CacheStore`]). `None` keeps the cache in-memory only.
    /// Ignored when `dedup_cache` is off.
    pub cache_dir: Option<PathBuf>,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            workers: 1,
            dedup_cache: true,
            sched_seed: 0,
            cache_dir: None,
        }
    }
}

impl AnalysisConfig {
    /// Config with `workers` threads and the cache enabled.
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

/// A cache lookup result: the shared analysis, or the memoised failure.
pub type ModelOutcome = std::result::Result<Arc<ModelAnalysis>, AnalyzeFailure>;

/// Number of independently locked cache shards.
const CACHE_SHARDS: usize = 16;

/// One compute-once slot: the first claimant computes under the slot
/// lock; later claimants block on it and read the finished outcome.
struct Slot(Mutex<Option<ModelOutcome>>);

/// Sharded, content-addressed, compute-once cache over model checksums,
/// optionally backed by a persistent [`CacheStore`].
///
/// Counter atomics use `SeqCst`: the totals feed the rendered report,
/// and gaugelint's `relaxed-ordering-in-report` rule bans `Relaxed`
/// near report state so a future refactor cannot quietly weaken them.
pub struct ModelCache {
    shards: Vec<Mutex<BTreeMap<String, Arc<Slot>>>>,
    store: Option<Arc<CacheStore>>,
    hits: AtomicU64,
    misses: AtomicU64,
    persistent_hits: AtomicU64,
    persistent_stores: AtomicU64,
}

impl Default for ModelCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ModelCache {
    /// Empty in-memory cache.
    pub fn new() -> ModelCache {
        Self::with_store(None)
    }

    /// Empty cache, consulting (and writing back to) `store` when set.
    pub fn with_store(store: Option<Arc<CacheStore>>) -> ModelCache {
        ModelCache {
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(BTreeMap::new()))
                .collect(),
            store,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            persistent_hits: AtomicU64::new(0),
            persistent_stores: AtomicU64::new(0),
        }
    }

    /// Shard index for a checksum (FNV-1a over the hex string).
    fn shard_of(checksum: &str) -> usize {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in checksum.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        (h % CACHE_SHARDS as u64) as usize
    }

    /// Return the cached outcome for `checksum`, or run `compute` exactly
    /// once across all workers and cache its result. Counts a miss for
    /// the claimant and a hit for everyone else, so the totals are a pure
    /// function of the corpus, not of thread interleaving.
    pub fn get_or_compute(
        &self,
        checksum: &str,
        compute: impl FnOnce() -> ModelOutcome,
    ) -> ModelOutcome {
        let slot = {
            let mut map = self.shards[Self::shard_of(checksum)]
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            match map.get(checksum) {
                Some(slot) => {
                    self.hits.fetch_add(1, Ordering::SeqCst);
                    slot.clone()
                }
                None => {
                    self.misses.fetch_add(1, Ordering::SeqCst);
                    let slot = Arc::new(Slot(Mutex::new(None)));
                    map.insert(checksum.to_string(), slot.clone());
                    slot
                }
            }
        };
        let mut guard = slot.0.lock().unwrap_or_else(|e| e.into_inner());
        if guard.is_none() {
            // First claimant: try the persistent store before paying the
            // full compute. A persistent hit still counted as an
            // in-memory *miss* above — disk state must never change the
            // hit/miss totals that reach the deterministic report.
            let outcome = match self.store.as_ref().and_then(|s| s.load(checksum)) {
                Some(found) => {
                    self.persistent_hits.fetch_add(1, Ordering::SeqCst);
                    found
                }
                None => {
                    let computed = compute();
                    if let Some(store) = &self.store {
                        store.save(checksum, &computed);
                        self.persistent_stores.fetch_add(1, Ordering::SeqCst);
                    }
                    computed
                }
            };
            *guard = Some(outcome);
        }
        guard.as_ref().expect("slot filled above").clone()
    }

    /// `(hits, misses)` so far.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::SeqCst),
            self.misses.load(Ordering::SeqCst),
        )
    }

    /// `(persistent hits, persistent write-backs)` so far. Zero unless
    /// the cache was built over a [`CacheStore`].
    pub fn persistent_counters(&self) -> (u64, u64) {
        (
            self.persistent_hits.load(Ordering::SeqCst),
            self.persistent_stores.load(Ordering::SeqCst),
        )
    }
}

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
    /// Cache hits (instances that attached to an already-claimed slot).
    pub cache_hits: u64,
    /// Cache misses (unique checksums, decodable or not).
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
    /// Wall-clock in app extraction across all workers, microseconds.
    pub extract_us: u64,
    /// Wall-clock computing whole-model checksums, microseconds.
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

/// The scheduled analysis pool. See the module docs for the determinism
/// contract.
#[derive(Debug, Clone, Default)]
pub struct AnalysisPool {
    config: AnalysisConfig,
}

impl AnalysisPool {
    /// Build a pool.
    pub fn new(config: AnalysisConfig) -> AnalysisPool {
        AnalysisPool { config }
    }

    /// Analyse a crawled corpus with the configured worker fleet.
    ///
    /// Work is partitioned by the deterministic scheduler in two phases
    /// (apps for extraction, model files for decode/trace); results merge
    /// in corpus-index order, byte-identical at any worker count.
    ///
    /// The corpus comes by value or by reference. Owned apps
    /// (`analyse(apps)`) move into the phase-1 worker that extracts
    /// them, which drops each app's APK, OBB and bundle bytes as soon as
    /// the app is extracted: a container and its extracted model files
    /// are never both held for the rest of the run. Borrowed apps
    /// (`analyse(&apps)`) leave the caller's bytes in place. Either way
    /// the merge reads only the app metadata, and the output is the same.
    pub fn analyse<A>(&self, crawled: impl IntoIterator<Item = A>) -> Result<AnalysisOutput>
    where
        A: Borrow<CrawledApp> + Send,
    {
        let crawled: Vec<A> = crawled.into_iter().collect();
        let workers = self.config.workers.max(1);
        let use_cache = self.config.dedup_cache;
        let store = if use_cache {
            self.config.cache_dir.as_deref().map(CacheStore::open)
        } else {
            None
        };
        let store_handle = store.clone();
        let cache = ModelCache::with_store(store);
        let mut timers = StageTimers::default();

        // Phase 1 — extraction. Units are apps, sized by container bytes.
        let app_units: Vec<WorkUnit> = crawled
            .iter()
            .enumerate()
            .map(|(index, app)| WorkUnit {
                index,
                size: app.borrow().bytes(),
            })
            .collect();
        let app_plan = assign(&app_units, workers);
        let metas: Vec<AppMeta> = crawled
            .iter()
            .map(|app| app.borrow().meta.clone())
            .collect();
        let mut extractions: Vec<Option<Result<AppExtraction>>> =
            (0..crawled.len()).map(|_| None).collect();
        // Each app moves into the shard that extracts it.
        let shards: Vec<Vec<(usize, A)>> = {
            let mut pending: Vec<Option<A>> = crawled.into_iter().map(Some).collect();
            app_plan
                .iter()
                .map(|shard| {
                    shard
                        .iter()
                        .map(|&i| (i, pending[i].take().expect("the plan names every app once")))
                        .collect()
                })
                .collect()
        };
        // Per-worker output: (corpus index, extraction) pairs plus the
        // worker's extraction timer.
        type ExtractShard = (Vec<(usize, Result<AppExtraction>)>, Duration);
        let phase1: Vec<ExtractShard> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = shards
                    .into_iter()
                    .map(|shard| {
                        scope.spawn(move || {
                            let mut spent = Duration::default();
                            let mut out = Vec::new();
                            // Shards are ascending, so everything this
                            // worker extracts before its own first error
                            // is below any corpus index it skips — the
                            // merge aborts at the lowest-index error and
                            // never reads a skipped slot.
                            for (i, app) in shard {
                                let t0 = Instant::now(); // gaugelint: deterministic-via(clock) — stage timers are diagnostics, never rendered into the deterministic report
                                let ext = extract_app(app.borrow()).map_err(CoreError::from);
                                spent += t0.elapsed();
                                // An owned app's containers go now; a
                                // borrowed one stays with its caller.
                                drop(app);
                                crashpoint::hit(CrashPoint::AppExtract);
                                let failed = ext.is_err();
                                out.push((i, ext));
                                if failed {
                                    break;
                                }
                            }
                            (out, spent)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("extraction worker panicked"))
                    .collect()
            });
        for (worker_out, spent) in phase1 {
            timers.extract += spent;
            for (i, ext) in worker_out {
                extractions[i] = Some(ext);
            }
        }

        // Phase 2 — model analysis. Units are the individual model files
        // of every successfully extracted app, enumerated app-major in
        // corpus order (the merge below walks the same sequence), sized
        // by their file bytes.
        let mut refs: Vec<(usize, usize)> = Vec::new();
        let mut model_units: Vec<WorkUnit> = Vec::new();
        for (i, slot) in extractions.iter().enumerate() {
            if let Some(Ok(ext)) = slot {
                for (j, found) in ext.models.iter().enumerate() {
                    model_units.push(WorkUnit {
                        index: model_units.len(),
                        size: found.files.iter().map(|(_, b)| b.len() as u64).sum(),
                    });
                    refs.push((i, j));
                }
            }
        }
        let model_plan = assign(&model_units, workers);
        let mut outcomes: Vec<Option<(String, ModelOutcome)>> =
            (0..model_units.len()).map(|_| None).collect();
        // Per-worker output: (unit sequence number, (checksum, outcome))
        // pairs plus the worker's stage timers.
        type AnalyseShard = (Vec<(usize, (String, ModelOutcome))>, StageTimers);
        let phase2: Vec<AnalyseShard> = {
            let cache = &cache;
            let refs = &refs;
            let extractions = &extractions;
            std::thread::scope(|scope| {
                let handles: Vec<_> = model_plan
                    .iter()
                    .map(|shard| {
                        scope.spawn(move || {
                            let mut t = StageTimers::default();
                            let mut out = Vec::new();
                            for &u in shard {
                                let (i, j) = refs[u];
                                let ext = match &extractions[i] {
                                    Some(Ok(e)) => e,
                                    _ => unreachable!("units come from successful extractions"),
                                };
                                let found = &ext.models[j];
                                let t1 = Instant::now(); // gaugelint: deterministic-via(clock) — stage timers are diagnostics, never rendered into the deterministic report
                                let checksum = model_checksum(&found.files);
                                t.checksum += t1.elapsed();
                                let outcome = if use_cache {
                                    cache.get_or_compute(&checksum, || {
                                        analyse_model(found.framework, &found.files, &mut t)
                                    })
                                } else {
                                    analyse_model(found.framework, &found.files, &mut t)
                                };
                                crashpoint::hit(CrashPoint::ModelAnalysis);
                                out.push((u, (checksum, outcome)));
                            }
                            (out, t)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("analysis worker panicked"))
                    .collect()
            })
        };
        for (worker_out, t) in phase2 {
            timers.checksum += t.checksum;
            timers.decode += t.decode;
            timers.trace += t.trace;
            for (u, pair) in worker_out {
                outcomes[u] = Some(pair);
            }
        }

        // Merge in corpus-index order, replicating the sequential loop.
        let mut apps: Vec<AppExtraction> = Vec::with_capacity(metas.len());
        let mut models: Vec<ModelRecord> = Vec::new();
        let mut model_index: BTreeMap<String, usize> = BTreeMap::new();
        let mut model_apps: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut instances = Vec::new();
        let mut index = Index::new();
        let mut composition = LayerComposition::default();
        let mut failed_candidates = 0usize;
        let mut models_outside_apk = 0usize;

        let mut seq = 0usize;
        for (i, meta) in metas.iter().enumerate() {
            let extraction = extractions[i]
                .take()
                .expect("every app before the first error is extracted")?;
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
            for found in &extraction.models {
                let (checksum, outcome) = outcomes[seq]
                    .take()
                    .expect("one phase-2 unit per model of an extracted app");
                seq += 1;
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

        let (cache_hits, cache_misses) = cache.counters();
        let (persistent_hits, persistent_stores) = cache.persistent_counters();
        let stats = AnalysisStats {
            workers,
            apps: apps.len(),
            instances: model_units.len() as u64,
            cache_hits,
            cache_misses,
            unique_analysed: models.len() as u64,
            persistent_hits,
            persistent_stores,
            extract_us: timers.extract.as_micros() as u64,
            checksum_us: timers.checksum.as_micros() as u64,
            decode_us: timers.decode.as_micros() as u64,
            trace_us: timers.trace.as_micros() as u64,
        };

        // End-of-run compaction sweep: with `GAUGENN_CACHE_MAX_BYTES`
        // set, the cache directory is back under budget before the run
        // reports success (DESIGN.md §12).
        if let Some(store) = &store_handle {
            store.compact_if_over();
        }

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
}

/// The expensive once-per-unique-checksum work: decode, trace, classify,
/// inspect, layer-checksum.
fn analyse_model(
    framework: Framework,
    files: &[(String, Vec<u8>)],
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
    fn cache_disabled_matches_cached_output() {
        let apps = crawl_tiny();
        let cached = AnalysisPool::new(AnalysisConfig::with_workers(2))
            .analyse(&apps)
            .unwrap();
        let uncached = AnalysisPool::new(AnalysisConfig {
            workers: 2,
            dedup_cache: false,
            ..AnalysisConfig::default()
        })
        .analyse(&apps)
        .unwrap();
        assert_eq!(checksums(&uncached), checksums(&cached));
        assert_eq!(uncached.failed_candidates, cached.failed_candidates);
        assert_eq!(uncached.stats.cache_hits, 0, "no cache, no hits");
        assert_eq!(uncached.stats.instances, cached.stats.instances);
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
    fn compute_once_under_contention() {
        use std::sync::atomic::AtomicUsize;
        let cache = ModelCache::new();
        let computed = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for i in 0..100 {
                        let key = format!("checksum-{}", i % 10);
                        let _ = cache.get_or_compute(&key, || {
                            computed.fetch_add(1, Ordering::SeqCst);
                            Err(AnalyzeFailure::Undecodable)
                        });
                    }
                });
            }
        });
        assert_eq!(computed.load(Ordering::SeqCst), 10, "one compute per key");
        let (hits, misses) = cache.counters();
        assert_eq!(misses, 10);
        assert_eq!(hits, 800 - 10);
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
        // A second pool over the same directory attaches to the first
        // run's analyses, even at a different worker count.
        let warm = AnalysisPool::new(cfg(4)).analyse(&apps).unwrap();
        assert!(warm.stats.persistent_hits > 0, "{:?}", warm.stats);
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
