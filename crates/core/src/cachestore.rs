//! Persistent, checksum-keyed store for model analyses.
//!
//! The paper's study is a *two-snapshot* design (§3): most unique models
//! in the 2021 crawl already existed in the 2020 one, so re-deriving
//! their decode/trace/classify/inspect results from scratch on every
//! `repro` run is pure waste. [`CacheStore`] persists each
//! [`ModelAnalysis`] (and each memoised undecodable verdict) under its
//! content checksum so a later run — the second snapshot of the same
//! process, or a whole separate invocation pointed at the same directory
//! — attaches to the finished analysis instead of recomputing it.
//!
//! # On-disk format
//!
//! One [`Journal`] file, `cache.gnjl`, opened with replay always on under
//! the fixed key `CACHE_KEY`. Each record payload is
//! `tag:u8 | checksum:[u8; 32] | body`, the checksum in lowercase hex:
//!
//! * tag 1, *save* — the body serialises the [`ModelOutcome`] with a
//!   hand-rolled codec (no serde in the build environment): a byte
//!   (0 = undecodable, 1 = analysis) followed by the analysis fields. A
//!   later save of the same checksum replaces the earlier one.
//! * tag 2, *hit* — no body. A cache hit appends one, so the order of
//!   records is the order of last use and LRU recency survives a
//!   restart without rewriting the file.
//!
//! # Size bound, eviction, compaction
//!
//! `GAUGENN_CACHE_MAX_BYTES` (or [`CacheStore::open_with_limit`]) caps
//! the log's size. When the log exceeds the cap, compaction keeps the
//! most recently used save records that fit — the 16-byte header and
//! each record's 8-byte frame counted — ascending last use with the
//! checksum as the tie-break deciding who leaves first, and swaps the log
//! for them through [`Journal::replace`]. The new log is renamed over the
//! old one only once it is complete, so a crash mid-compaction leaves the
//! old log.
//!
//! Without a cap the log still stays bounded: every warm run appends a
//! hit record per model it loads, so when opening finds more replayed
//! records that no live entry needs (hit records, superseded saves) than
//! live entries, it rewrites the log the same way with every entry kept.
//! Replay then rebuilds the same entries in the same recency order.
//!
//! # Corruption policy
//!
//! The cache is an accelerator, never an authority: **every** failure —
//! unreadable directory, torn or foreign header, bit-flipped record,
//! short payload, unknown enum code — degrades to cache misses and the
//! caller recomputes from the model bytes. A record that fails its crc
//! ends replay there, so it and every record after it miss. No
//! corruption can surface as an error or, worse, as wrong analysis
//! output; the crc32 guard plus strict bounds-checked parsing reject torn
//! writes before any field is trusted.
//!
//! Trace failures ([`AnalyzeFailure::Trace`]) are deliberately *not*
//! persisted: they abort the pipeline, so memoising them across runs
//! would turn a transient abort into a sticky one.

use crate::analyze::{AnalyzeFailure, ModelAnalysis, ModelOutcome};
use crate::crashpoint::{self, CrashPoint};
use crate::journal::{put_str, put_u64, Journal, Reader, FRAME_LEN, HEADER_LEN};
use gaugenn_analysis::classify::{Classification, Evidence};
use gaugenn_analysis::optim::ModelOptim;
use gaugenn_dnn::task::Task;
use gaugenn_dnn::tensor::Shape;
use gaugenn_dnn::trace::{LayerTrace, TraceReport};
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// The cache log's file name inside the cache directory.
const LOG_FILE: &str = "cache.gnjl";
/// The cache log's journal key. Bump on any record codec change; an old
/// log then fails the key check and reads as cold.
const CACHE_KEY: u64 = u64::from_le_bytes(*b"gncache1");
/// Record tags.
const TAG_SAVE: u8 = 1;
const TAG_HIT: u8 = 2;
/// End of a record's `tag | checksum` head; a save's body follows.
const HEAD_LEN: usize = 1 + 32;
/// Environment cap on the cache log, in bytes.
pub const MAX_BYTES_ENV: &str = "GAUGENN_CACHE_MAX_BYTES";

/// Every layer-family label [`gaugenn_dnn::graph::LayerKind::family`] can
/// produce, used to re-intern deserialised `&'static str` families. An
/// unknown label in a record means a corrupt or future-format entry — a
/// miss, per the corruption policy.
const FAMILIES: [&str; 16] = [
    "input",
    "conv",
    "depth_conv",
    "dense",
    "activation",
    "pool",
    "math",
    "concat",
    "reshape",
    "resize",
    "slice",
    "norm",
    "pad",
    "quant",
    "embedding",
    "recurrent",
];

fn intern_family(s: &str) -> Option<&'static str> {
    FAMILIES.iter().find(|f| **f == s).copied()
}

/// Stable wire codes for [`Task`]. Exhaustive in both directions so
/// adding a variant without bumping [`CACHE_KEY`] fails to compile here.
fn task_code(t: Task) -> u8 {
    match t {
        Task::ObjectDetection => 0,
        Task::FaceDetection => 1,
        Task::ContourDetection => 2,
        Task::TextRecognition => 3,
        Task::AugmentedReality => 4,
        Task::SemanticSegmentation => 5,
        Task::ObjectRecognition => 6,
        Task::PoseEstimation => 7,
        Task::PhotoBeauty => 8,
        Task::ImageClassification => 9,
        Task::NudityDetection => 10,
        Task::HairReconstruction => 11,
        Task::OtherVision => 12,
        Task::AutoComplete => 13,
        Task::SentimentPrediction => 14,
        Task::ContentFilter => 15,
        Task::TextClassification => 16,
        Task::Translation => 17,
        Task::SoundRecognition => 18,
        Task::SpeechRecognition => 19,
        Task::KeywordDetection => 20,
        Task::MovementTracking => 21,
        Task::CrashDetection => 22,
    }
}

fn task_from(code: u8) -> Option<Task> {
    Some(match code {
        0 => Task::ObjectDetection,
        1 => Task::FaceDetection,
        2 => Task::ContourDetection,
        3 => Task::TextRecognition,
        4 => Task::AugmentedReality,
        5 => Task::SemanticSegmentation,
        6 => Task::ObjectRecognition,
        7 => Task::PoseEstimation,
        8 => Task::PhotoBeauty,
        9 => Task::ImageClassification,
        10 => Task::NudityDetection,
        11 => Task::HairReconstruction,
        12 => Task::OtherVision,
        13 => Task::AutoComplete,
        14 => Task::SentimentPrediction,
        15 => Task::ContentFilter,
        16 => Task::TextClassification,
        17 => Task::Translation,
        18 => Task::SoundRecognition,
        19 => Task::SpeechRecognition,
        20 => Task::KeywordDetection,
        21 => Task::MovementTracking,
        22 => Task::CrashDetection,
        _ => return None,
    })
}

fn evidence_code(e: Evidence) -> u8 {
    match e {
        Evidence::NameHint => 0,
        Evidence::IoDims => 1,
        Evidence::Structure => 2,
    }
}

fn evidence_from(code: u8) -> Option<Evidence> {
    Some(match code {
        0 => Evidence::NameHint,
        1 => Evidence::IoDims,
        2 => Evidence::Structure,
        _ => return None,
    })
}

/// One persisted outcome.
#[derive(Debug)]
struct Entry {
    /// Logical-clock tick of the entry's last save or hit.
    clock: u64,
    /// Its save record's payload, as written to the log.
    record: Vec<u8>,
}

/// The log and what it vouches for, guarded by one lock so the order of
/// records in the log matches the order of clock ticks.
#[derive(Debug)]
struct State {
    log: Journal,
    entries: BTreeMap<String, Entry>,
    /// Next logical-clock tick.
    next_clock: u64,
}

/// The persistent cache. Cheap to share behind an [`Arc`]; `load` and
/// `save` serialise on an internal lock.
#[derive(Debug)]
pub struct CacheStore {
    /// Log size cap; `None` = unbounded (no compaction).
    max_bytes: Option<u64>,
    state: Mutex<State>,
}

impl CacheStore {
    /// Open (creating if needed) the cache at `dir` and return it
    /// shared, honouring a `GAUGENN_CACHE_MAX_BYTES` cap when set (a
    /// malformed value means unbounded — the cache never fails a run).
    ///
    /// Never fails: an unreadable/uncreatable directory or a corrupt log
    /// just yields an empty store, so every lookup misses and every save
    /// is attempted fresh — the pipeline's output is identical either
    /// way.
    pub fn open(dir: &Path) -> Arc<CacheStore> {
        let max = std::env::var(MAX_BYTES_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok());
        CacheStore::open_with_limit(dir, max)
    }

    /// [`CacheStore::open`] with an explicit size cap. Replays the log,
    /// rewrites it without its stale records once they outnumber the live
    /// entries, then compacts it immediately when it is over budget.
    pub fn open_with_limit(dir: &Path, max_bytes: Option<u64>) -> Arc<CacheStore> {
        let (log, records) = Journal::open(&dir.join(LOG_FILE), CACHE_KEY, true);
        let replayed = records.len();
        let mut entries = BTreeMap::new();
        let mut next_clock = 0;
        for record in records {
            let clock = next_clock;
            next_clock += 1;
            // A record this codec does not know is skipped, not fatal.
            match parse_head(&record) {
                Some((TAG_SAVE, sum)) => {
                    entries.insert(sum, Entry { clock, record });
                }
                Some((TAG_HIT, sum)) if record.len() == HEAD_LEN => {
                    if let Some(e) = entries.get_mut(&sum) {
                        e.clock = clock;
                    }
                }
                _ => {}
            }
        }
        let mut state = State {
            log,
            entries,
            next_clock,
        };
        if replayed - state.entries.len() > state.entries.len() {
            state.rewrite(u64::MAX);
        }
        let store = Arc::new(CacheStore {
            max_bytes,
            state: Mutex::new(state),
        });
        store.compact_if_over();
        store
    }

    /// Entries the log currently vouches for.
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entries
            .len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look up a persisted outcome. `None` is a miss — absent, dropped at
    /// replay, and undecodable entries all land here. A hit advances the
    /// entry's last-use clock and appends a hit record so LRU recency
    /// survives restarts.
    pub fn load(&self, checksum: &str) -> Option<ModelOutcome> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let clock = st.next_clock;
        let entry = st.entries.get_mut(checksum)?;
        let outcome = decode_outcome(&entry.record[HEAD_LEN..])?;
        entry.clock = clock;
        st.next_clock = clock + 1;
        st.log.append(&head(TAG_HIT, checksum));
        Some(outcome)
    }

    /// Persist an outcome, best-effort: serialisation is infallible but
    /// I/O errors are swallowed (the cache never gets to fail a run).
    /// Trace failures are not persisted (see the module docs).
    pub fn save(&self, checksum: &str, outcome: &ModelOutcome) {
        if !valid_checksum(checksum) {
            return;
        }
        let mut record = head(TAG_SAVE, checksum);
        match outcome {
            Ok(analysis) => encode_analysis(&mut record, analysis),
            Err(AnalyzeFailure::Undecodable) => record.push(0),
            Err(AnalyzeFailure::Trace(_)) => return,
        }
        {
            let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
            st.log.append(&record);
            let clock = st.next_clock;
            st.next_clock = clock + 1;
            st.entries
                .insert(checksum.to_string(), Entry { clock, record });
        }
        crashpoint::hit(CrashPoint::CacheAppend);
    }

    /// Run a compaction sweep if the configured cap is exceeded.
    pub fn compact_if_over(&self) {
        if let Some(max) = self.max_bytes {
            self.compact_to(max);
        }
    }

    /// Compact the log down to `max` bytes when it is over.
    fn compact_to(&self, max: u64) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if fs::metadata(st.log.path()).map_or(0, |m| m.len()) > max {
            st.rewrite(max);
        }
    }
}

impl State {
    /// Rewrite the log as the save records of the most recently used
    /// entries that fit in `max` bytes (checksum as the tie-break),
    /// oldest first so replay order stays LRU order, and drop the rest.
    /// If the new log cannot be installed the old one stays, and so do
    /// the entries.
    fn rewrite(&mut self, max: u64) {
        let mut by_recency: Vec<(&String, &Entry)> = self.entries.iter().collect();
        by_recency.sort_by(|a, b| b.1.clock.cmp(&a.1.clock).then(a.0.cmp(b.0)));
        let mut used = HEADER_LEN as u64;
        let (mut keep, mut evict) = (Vec::new(), Vec::new());
        for (sum, entry) in by_recency {
            let cost = (FRAME_LEN + entry.record.len()) as u64;
            if used + cost <= max {
                used += cost;
                keep.push(entry.record.as_slice());
            } else {
                evict.push(sum.clone());
            }
        }
        if self.log.replace(keep.into_iter().rev()) {
            for sum in evict {
                self.entries.remove(&sum);
            }
        }
    }
}

/// 32 lowercase hex digits (an md5): the fixed-width key of a record.
fn valid_checksum(s: &str) -> bool {
    s.len() == 32 && s.bytes().all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
}

/// A record's `tag | checksum` head.
fn head(tag: u8, checksum: &str) -> Vec<u8> {
    let mut out = vec![tag];
    out.extend_from_slice(checksum.as_bytes());
    out
}

/// Split a replayed record's head into its tag and checksum; `None` for
/// a record too short or keyed by anything but a valid checksum.
fn parse_head(record: &[u8]) -> Option<(u8, String)> {
    let sum = std::str::from_utf8(record.get(1..HEAD_LEN)?).ok()?;
    valid_checksum(sum).then(|| (record[0], sum.to_string()))
}

// ---------------------------------------------------------------------
// Outcome codec.
// ---------------------------------------------------------------------

fn encode_trace(out: &mut Vec<u8>, trace: &TraceReport) {
    put_u64(out, trace.layers.len() as u64);
    for l in &trace.layers {
        put_u64(out, l.node as u64);
        put_str(out, &l.name);
        put_str(out, l.family);
        put_u64(out, l.out_shape.0.len() as u64);
        for &d in &l.out_shape.0 {
            put_u64(out, d as u64);
        }
        for v in [l.macs, l.flops, l.params, l.bytes_read, l.bytes_written, l.weight_bytes] {
            put_u64(out, v);
        }
    }
    for v in [
        trace.total_macs,
        trace.total_flops,
        trace.total_params,
        trace.peak_activation_elems,
    ] {
        put_u64(out, v);
    }
}

fn encode_analysis(out: &mut Vec<u8>, a: &ModelAnalysis) {
    out.push(1);
    put_str(out, &a.name);
    encode_trace(out, &a.trace);
    match &a.classification {
        None => out.push(0),
        Some(c) => {
            out.push(1);
            out.push(task_code(c.task));
            out.push(evidence_code(c.evidence));
        }
    }
    for flag in [
        a.optim.clustered,
        a.optim.prune_marked,
        a.optim.has_dequantize,
        a.optim.int8_weights,
        a.optim.int8_activations,
    ] {
        out.push(flag as u8);
    }
    put_u64(out, a.optim.total_weights);
    put_u64(out, a.optim.near_zero_weights);
    put_u64(out, a.layers.len() as u64);
    for (name, sum) in &a.layers {
        put_str(out, name);
        put_u64(out, *sum);
    }
    put_u64(out, a.layer_families.len() as u64);
    for (family, count) in &a.layer_families {
        put_str(out, family);
        put_u64(out, *count);
    }
}

fn decode_trace(r: &mut Reader<'_>) -> Option<TraceReport> {
    let n_layers = r.len()?;
    let mut layers = Vec::with_capacity(n_layers.min(1 << 16));
    for _ in 0..n_layers {
        let node = usize::try_from(r.u64()?).ok()?;
        let name = r.str()?;
        let family = intern_family(&r.str()?)?;
        let n_dims = r.len()?;
        let mut dims = Vec::with_capacity(n_dims.min(64));
        for _ in 0..n_dims {
            dims.push(usize::try_from(r.u64()?).ok()?);
        }
        let [macs, flops, params, bytes_read, bytes_written, weight_bytes] =
            [r.u64()?, r.u64()?, r.u64()?, r.u64()?, r.u64()?, r.u64()?];
        layers.push(LayerTrace {
            node,
            name,
            family,
            out_shape: Shape(dims),
            macs,
            flops,
            params,
            bytes_read,
            bytes_written,
            weight_bytes,
        });
    }
    Some(TraceReport {
        layers,
        total_macs: r.u64()?,
        total_flops: r.u64()?,
        total_params: r.u64()?,
        peak_activation_elems: r.u64()?,
    })
}

fn decode_analysis(r: &mut Reader<'_>) -> Option<ModelAnalysis> {
    let name = r.str()?;
    let trace = decode_trace(r)?;
    let classification = match r.u8()? {
        0 => None,
        1 => Some(Classification {
            task: task_from(r.u8()?)?,
            evidence: evidence_from(r.u8()?)?,
        }),
        _ => return None,
    };
    let mut flags = [false; 5];
    for f in &mut flags {
        *f = r.bool()?;
    }
    let optim = ModelOptim {
        clustered: flags[0],
        prune_marked: flags[1],
        has_dequantize: flags[2],
        int8_weights: flags[3],
        int8_activations: flags[4],
        total_weights: r.u64()?,
        near_zero_weights: r.u64()?,
    };
    let n_layers = r.len()?;
    let mut layers = Vec::with_capacity(n_layers.min(1 << 16));
    for _ in 0..n_layers {
        let name = r.str()?;
        layers.push((name, r.u64()?));
    }
    let n_families = r.len()?;
    let mut layer_families = BTreeMap::new();
    for _ in 0..n_families {
        let family = r.str()?;
        layer_families.insert(family, r.u64()?);
    }
    Some(ModelAnalysis {
        name,
        trace,
        classification,
        optim,
        layers,
        layer_families,
    })
}

/// Decode a save record's body. `None` on any anomaly.
fn decode_outcome(body: &[u8]) -> Option<ModelOutcome> {
    let mut r = Reader::new(body);
    let outcome = match r.u8()? {
        0 => Err(AnalyzeFailure::Undecodable),
        1 => Ok(Arc::new(decode_analysis(&mut r)?)),
        _ => return None,
    };
    r.done().then_some(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn sample_analysis() -> ModelAnalysis {
        ModelAnalysis {
            name: "mobilenet_v2_quant".into(),
            trace: TraceReport {
                layers: vec![LayerTrace {
                    node: 3,
                    name: "conv_0".into(),
                    family: "conv",
                    out_shape: Shape(vec![1, 112, 112, 32]),
                    macs: 10_838_016,
                    flops: 21_676_032,
                    params: 864,
                    bytes_read: 650_000,
                    bytes_written: 1_605_632,
                    weight_bytes: 3_456,
                }],
                total_macs: 300_000_000,
                total_flops: 600_000_000,
                total_params: 3_500_000,
                peak_activation_elems: 401_408,
            },
            classification: Some(Classification {
                task: Task::ImageClassification,
                evidence: Evidence::NameHint,
            }),
            optim: ModelOptim {
                clustered: false,
                prune_marked: true,
                has_dequantize: true,
                int8_weights: true,
                int8_activations: false,
                total_weights: 3_500_000,
                near_zero_weights: 420,
            },
            layers: vec![("conv_0".into(), 0xDEADBEEF), ("dense_1".into(), 0x1234)],
            layer_families: [("conv".to_string(), 30u64), ("dense".to_string(), 1)]
                .into_iter()
                .collect(),
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "gaugenn-cachestore-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn assert_same_analysis(a: &ModelAnalysis, b: &ModelAnalysis) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.classification, b.classification);
        assert_eq!(a.optim, b.optim);
        assert_eq!(a.layers, b.layers);
        assert_eq!(a.layer_families, b.layer_families);
    }

    const SUM: &str = "0123456789abcdef0123456789abcdef";
    const SUM2: &str = "ffffffffffffffffffffffffffffffff";

    /// Distinct valid checksums: 32 hex digits ending in `i`.
    fn sum_n(i: u8) -> String {
        format!("{:032x}", 0xabc0 + i as u64)
    }

    /// Log bytes one saved `sample_analysis` costs: frame plus payload.
    fn record_cost() -> u64 {
        let mut record = head(TAG_SAVE, SUM);
        encode_analysis(&mut record, &sample_analysis());
        (FRAME_LEN + record.len()) as u64
    }

    fn log_len(dir: &Path) -> u64 {
        fs::metadata(dir.join(LOG_FILE)).unwrap().len()
    }

    #[test]
    fn roundtrips_analysis_and_undecodable() {
        let dir = tmp_dir("roundtrip");
        let store = CacheStore::open(&dir);
        store.save(SUM, &Ok(Arc::new(sample_analysis())));
        store.save(SUM2, &Err(AnalyzeFailure::Undecodable));

        let loaded = store.load(SUM).expect("hit");
        assert_same_analysis(&loaded.unwrap(), &sample_analysis());
        assert!(matches!(
            store.load(SUM2),
            Some(Err(AnalyzeFailure::Undecodable))
        ));

        // A second open (the "next repro invocation") sees both entries.
        let reopened = CacheStore::open(&dir);
        assert_eq!(reopened.len(), 2);
        assert!(reopened.load(SUM).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_failures_are_not_persisted() {
        let dir = tmp_dir("trace");
        let store = CacheStore::open(&dir);
        store.save(SUM, &Err(AnalyzeFailure::Trace("cycle".into())));
        assert!(store.load(SUM).is_none());
        assert!(store.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flipped_entry_is_a_miss() {
        let dir = tmp_dir("bitflip");
        {
            let store = CacheStore::open(&dir);
            for i in 0..3 {
                store.save(&sum_n(i), &Ok(Arc::new(sample_analysis())));
            }
        }
        let path = dir.join(LOG_FILE);
        let mut raw = fs::read(&path).unwrap();
        // Flip a byte inside the second record's payload.
        let second = HEADER_LEN + record_cost() as usize;
        raw[second + FRAME_LEN + HEAD_LEN + 5] ^= 0x40;
        fs::write(&path, &raw).unwrap();
        let store = CacheStore::open(&dir);
        // The crc ends replay at the flipped record: the one before it
        // survives, it and every record after it are misses.
        assert_eq!(store.len(), 1);
        assert!(store.load(&sum_n(0)).is_some());
        assert!(store.load(&sum_n(1)).is_none(), "crc must catch the flip");
        assert!(store.load(&sum_n(2)).is_none());
        // The log was truncated at the flip and appends replay again.
        store.save(&sum_n(1), &Ok(Arc::new(sample_analysis())));
        assert_eq!(CacheStore::open(&dir).len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entry_is_a_miss() {
        let dir = tmp_dir("torn");
        {
            let store = CacheStore::open(&dir);
            store.save(SUM, &Ok(Arc::new(sample_analysis())));
            store.save(SUM2, &Err(AnalyzeFailure::Undecodable));
        }
        let path = dir.join(LOG_FILE);
        let raw = fs::read(&path).unwrap();
        // A torn tail, inside the second record's frame or payload: the
        // record before the tear survives, the torn one is a miss.
        let second = HEADER_LEN + record_cost() as usize;
        for keep in [second + 3, second + FRAME_LEN + 5, raw.len() - 1] {
            fs::write(&path, &raw[..keep]).unwrap();
            let store = CacheStore::open(&dir);
            assert_eq!(store.len(), 1, "kept {keep} bytes");
            assert!(store.load(SUM).is_some(), "kept {keep} bytes");
            assert!(store.load(SUM2).is_none(), "kept {keep} bytes");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_index_degrades_to_misses() {
        // The log is the cache's only index: its header vouches for the
        // file, its hit records for recency.
        let dir = tmp_dir("torn-index");
        {
            let store = CacheStore::open(&dir);
            store.save(SUM, &Ok(Arc::new(sample_analysis())));
            store.save(SUM2, &Err(AnalyzeFailure::Undecodable));
            assert!(store.load(SUM).is_some());
        }
        let path = dir.join(LOG_FILE);
        let raw = fs::read(&path).unwrap();
        let one = Some(HEADER_LEN as u64 + record_cost());
        // Intact, the hit record makes SUM the most recent entry, so a
        // budget of one record keeps it.
        assert!(CacheStore::open_with_limit(&dir, one).load(SUM).is_some());
        // Torn inside the trailing hit record: both saves survive, only
        // the recency the hit recorded is lost, so the same budget keeps
        // the last save instead.
        for keep in [raw.len() - 1, raw.len() - HEAD_LEN] {
            fs::write(&path, &raw[..keep]).unwrap();
            assert_eq!(CacheStore::open(&dir).len(), 2, "kept {keep} bytes");
            let store = CacheStore::open_with_limit(&dir, one);
            assert_eq!(store.len(), 1, "kept {keep} bytes");
            assert!(store.load(SUM).is_none(), "kept {keep} bytes");
            assert!(store.load(SUM2).is_some(), "kept {keep} bytes");
        }
        // Torn inside the header: the whole log is disabled and reads
        // cold, and the next save starts it afresh.
        for keep in [0, 3, HEADER_LEN - 1] {
            fs::write(&path, &raw[..keep]).unwrap();
            let store = CacheStore::open(&dir);
            assert!(store.is_empty(), "kept {keep} bytes");
            assert!(store.load(SUM).is_none(), "kept {keep} bytes");
            store.save(SUM, &Ok(Arc::new(sample_analysis())));
            assert_eq!(CacheStore::open(&dir).len(), 1, "kept {keep} bytes");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatch_is_a_miss() {
        let dir = tmp_dir("foreign");
        {
            let store = CacheStore::open(&dir);
            store.save(SUM, &Ok(Arc::new(sample_analysis())));
        }
        let path = dir.join(LOG_FILE);
        let raw = fs::read(&path).unwrap();
        let mut future_version = raw.clone();
        future_version[4] ^= 0x01;
        let mut foreign_key = raw.clone();
        let run_key = crate::journal::run_key("tiny", "y2020", 7);
        foreign_key[8..16].copy_from_slice(&run_key.to_le_bytes());
        for header in [future_version, foreign_key] {
            fs::write(&path, &header).unwrap();
            let store = CacheStore::open(&dir);
            assert!(store.is_empty(), "a foreign log is cold, not an error");
            assert!(store.load(SUM).is_none());
            // The log was started afresh, so it heals on the next save.
            store.save(SUM, &Ok(Arc::new(sample_analysis())));
            assert!(CacheStore::open(&dir).load(SUM).is_some());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_index_reads_as_cold_and_self_heals() {
        // Directories in the per-entry formats of earlier versions (a
        // `cache.idx` index, v1 or v2, plus `.gnce` entry files) hold no
        // log: they read cold, not as an error.
        for (tag, index) in [
            ("v1-cold", format!("gnca v1\n{SUM}\n")),
            ("v2-cold", format!("gnca v2 gen 0\n{SUM} 1 64\n")),
        ] {
            let dir = tmp_dir(tag);
            fs::create_dir_all(&dir).unwrap();
            fs::write(dir.join("cache.idx"), index).unwrap();
            fs::write(dir.join(format!("{SUM}.gnce")), b"GNCE").unwrap();
            let store = CacheStore::open_with_limit(&dir, None);
            assert!(store.is_empty(), "{tag}: old format is cold");
            assert!(store.load(SUM).is_none(), "{tag}");
            // Re-saving starts a clean log, which the next run replays.
            store.save(SUM, &Ok(Arc::new(sample_analysis())));
            let reopened = CacheStore::open_with_limit(&dir, None);
            assert_eq!(reopened.len(), 1, "{tag}");
            let loaded = reopened.load(SUM).expect("healed").unwrap();
            assert_same_analysis(&loaded, &sample_analysis());
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn compaction_evicts_lru_first_and_bounds_the_directory() {
        let dir = tmp_dir("compact-lru");
        let store = CacheStore::open_with_limit(&dir, None);
        for i in 0..6 {
            store.save(&sum_n(i), &Ok(Arc::new(sample_analysis())));
        }
        // Touch the two *oldest* saves so recency order differs from
        // save order: victims must leave by last use, not insert order.
        assert!(store.load(&sum_n(0)).is_some());
        assert!(store.load(&sum_n(1)).is_some());
        // Budget for three records plus the header, with slack short of
        // a fourth.
        let cost = record_cost();
        let max = HEADER_LEN as u64 + 3 * cost + cost / 2;
        store.compact_to(max);
        assert!(log_len(&dir) <= max, "{} > {max}", log_len(&dir));
        // Survivors are the most recently used: the touched 0 and 1 plus
        // the last save (5); the untouched middle saves were evicted.
        for kept in [0u8, 1, 5] {
            assert!(store.load(&sum_n(kept)).is_some(), "entry {kept} kept");
        }
        for gone in [2u8, 3, 4] {
            assert!(store.load(&sum_n(gone)).is_none(), "entry {gone} evicted");
        }
        let files: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|d| d.unwrap().file_name())
            .collect();
        assert_eq!(files, [LOG_FILE], "the log is the only file");
        // Recency survives a reopen: the hits above (0, then 1, then 5)
        // replay from their hit records, so a budget of exactly two
        // records evicts 0.
        let two = HEADER_LEN as u64 + 2 * cost;
        let reopened = CacheStore::open_with_limit(&dir, Some(two));
        assert_eq!(reopened.len(), 2);
        assert!(reopened.load(&sum_n(0)).is_none());
        assert!(reopened.load(&sum_n(1)).is_some());
        assert!(reopened.load(&sum_n(5)).is_some());
        // One byte short of two records: the header and every frame
        // count, so only the most recent survives.
        reopened.compact_to(two - 1);
        assert_eq!(reopened.len(), 1);
        assert!(reopened.load(&sum_n(5)).is_some());
        assert!(log_len(&dir) < two);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn over_budget_store_compacts_at_open() {
        let dir = tmp_dir("compact-open");
        {
            let store = CacheStore::open_with_limit(&dir, None);
            for i in 0..5 {
                store.save(&sum_n(i), &Ok(Arc::new(sample_analysis())));
            }
        }
        let max = HEADER_LEN as u64 + 2 * record_cost() + 100;
        let store = CacheStore::open_with_limit(&dir, Some(max));
        assert!(log_len(&dir) <= max);
        assert_eq!(store.len(), 2);
        drop(store);
        // Repeat opens stay stable: no further eviction once under budget.
        assert_eq!(CacheStore::open_with_limit(&dir, Some(max)).len(), 2);
        // The survivors, the two latest saves, were rewritten oldest
        // first, so replay keeps their order: a budget of one record
        // keeps the last save.
        let one = CacheStore::open_with_limit(&dir, Some(HEADER_LEN as u64 + record_cost()));
        assert_eq!(one.len(), 1);
        assert!(one.load(&sum_n(4)).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_before_log_rename_keeps_the_old_log() {
        let dir = tmp_dir("compact-crash");
        {
            let store = CacheStore::open_with_limit(&dir, None);
            store.save(SUM, &Ok(Arc::new(sample_analysis())));
            store.save(SUM2, &Err(AnalyzeFailure::Undecodable));
        }
        // Dying mid-compaction: the new log was written to its temp name
        // but never renamed. The old log still vouches for everything.
        let tmp = dir.join(format!("{LOG_FILE}.tmp"));
        fs::write(&tmp, b"GNJL").unwrap();
        let store = CacheStore::open_with_limit(&dir, None);
        assert_eq!(store.len(), 2);
        assert!(store.load(SUM).is_some());
        // A compaction that cannot write its temp file leaves the old log
        // and the entries it vouches for.
        fs::remove_file(&tmp).unwrap();
        fs::create_dir(&tmp).unwrap();
        let before = fs::read(dir.join(LOG_FILE)).unwrap();
        store.compact_to(0);
        assert_eq!(store.len(), 2);
        assert_eq!(fs::read(dir.join(LOG_FILE)).unwrap(), before);
        // One that can, replaces the stale temp file and leaves none.
        fs::remove_dir(&tmp).unwrap();
        fs::write(&tmp, b"GNJL").unwrap();
        store.compact_to(HEADER_LEN as u64 + record_cost());
        assert_eq!(store.len(), 1);
        assert!(!tmp.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Open the store uncapped and load every one of `n` entries, as a
    /// warm run does; returns the log's size afterwards.
    fn warm_cycle(dir: &Path, n: u8) -> u64 {
        let store = CacheStore::open_with_limit(dir, None);
        for i in 0..n {
            assert!(store.load(&sum_n(i)).is_some(), "entry {i} warm");
        }
        drop(store);
        log_len(dir)
    }

    #[test]
    fn an_uncapped_log_stays_bounded_across_warm_runs() {
        let dir = tmp_dir("uncapped-bound");
        {
            let store = CacheStore::open_with_limit(&dir, None);
            for i in 0..5 {
                store.save(&sum_n(i), &Ok(Arc::new(sample_analysis())));
            }
        }
        let sizes: Vec<u64> = (0..5).map(|_| warm_cycle(&dir, 5)).collect();
        assert!(sizes[4] <= sizes[1], "log grew: {sizes:?}");
        // Never more than the saves plus two runs' worth of hit records.
        let hit = (FRAME_LEN + HEAD_LEN) as u64;
        let bound = HEADER_LEN as u64 + 5 * record_cost() + 2 * 5 * hit;
        assert!(sizes.iter().all(|&n| n <= bound), "{sizes:?} vs {bound}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_stale_record_rewrite_keeps_lru_order() {
        let dir = tmp_dir("uncapped-lru");
        {
            let store = CacheStore::open_with_limit(&dir, None);
            for i in 0..5 {
                store.save(&sum_n(i), &Ok(Arc::new(sample_analysis())));
            }
            // Six hit records, last uses 3 then 0: recency is now
            // 1, 2, 4, 3, 0.
            for _ in 0..3 {
                assert!(store.load(&sum_n(3)).is_some());
                assert!(store.load(&sum_n(0)).is_some());
            }
        }
        // Six stale records against five live entries: opening rewrites
        // the log down to the five save records.
        assert_eq!(CacheStore::open_with_limit(&dir, None).len(), 5);
        assert_eq!(log_len(&dir), HEADER_LEN as u64 + 5 * record_cost());
        // The rewrite kept recency order: a two-record budget keeps the
        // two most recently used.
        let two = CacheStore::open_with_limit(&dir, Some(HEADER_LEN as u64 + 2 * record_cost()));
        assert_eq!(two.len(), 2);
        assert!(two.load(&sum_n(3)).is_some());
        assert!(two.load(&sum_n(0)).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_crash_before_the_stale_record_rewrite_keeps_the_old_log() {
        let dir = tmp_dir("uncapped-crash");
        {
            let store = CacheStore::open_with_limit(&dir, None);
            store.save(SUM, &Ok(Arc::new(sample_analysis())));
            for _ in 0..3 {
                assert!(store.load(SUM).is_some());
            }
        }
        let before = fs::read(dir.join(LOG_FILE)).unwrap();
        // The rewrite cannot write its temp file: the old log stays, and
        // so does everything it vouches for.
        let tmp = dir.join(format!("{LOG_FILE}.tmp"));
        fs::create_dir(&tmp).unwrap();
        let store = CacheStore::open_with_limit(&dir, None);
        assert_eq!(fs::read(dir.join(LOG_FILE)).unwrap(), before);
        assert!(store.load(SUM).is_some());
        drop(store);
        // Once it can, the next open rewrites the log to the one save.
        fs::remove_dir(&tmp).unwrap();
        let store = CacheStore::open_with_limit(&dir, None);
        assert_eq!(log_len(&dir), HEADER_LEN as u64 + record_cost());
        assert!(store.load(SUM).is_some());
        assert!(!tmp.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_checksums_are_rejected_outright() {
        let dir = tmp_dir("badsum");
        let store = CacheStore::open(&dir);
        for bad in ["", "short", "ABCDEF0123456789ABCDEF0123456789", "../../etc/passwd"] {
            store.save(bad, &Err(AnalyzeFailure::Undecodable));
            assert!(store.load(bad).is_none());
        }
        assert!(store.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
