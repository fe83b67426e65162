//! Journaled checkpoints: a crc32-guarded, append-only, torn-tail-
//! truncating record log, plus the typed run journal the pipeline
//! replays on `--resume`.
//!
//! The [`Journal`] is `core`'s one durable record format. Two logs are
//! built on it: the [`RunJournal`] records a run's crawl keyed by the run
//! configuration, so a resumed run whose crawl finished replays it whole
//! (corpus, drop-outs and counters) and, because every rendered byte
//! derives from journaled or recomputed-identical state, produces
//! **byte-identical stdout** to an uninterrupted run; the
//! [`crate::cachestore::CacheStore`] records model analyses keyed by
//! content checksum, so a later run attaches to them.
//!
//! # On-disk format
//!
//! ```text
//! header  b"GNJL" | version:u32 | run_key:u64          (16 bytes)
//! record  len:u32 | crc32(payload):u32 | payload       (repeated)
//! ```
//!
//! All integers little-endian. The `run_key` hashes the run
//! configuration (scale, snapshot, seed), or names the record codec for
//! the cache: a log left behind by a *different* configuration or codec
//! — a stale generation — fails the key check and is discarded
//! wholesale rather than replayed into the wrong reader.
//!
//! # Corruption policy
//!
//! Opening **never fails**. A missing, stale, or header-corrupt file
//! replays nothing; a record with a bad length or crc ends replay at the
//! last good record and the file is truncated there (the torn tail of a
//! crashed append is expected, not exceptional). Every degradation means
//! "redo that work", never "error" and never divergent output.

use gaugenn_apk::crc32::crc32;
use gaugenn_playstore::admission::AdmissionStats;
use gaugenn_playstore::crawler::{
    AppMeta, CrawlOutcome, CrawlStage, CrawlStats, CrawledApp, DropOut,
};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Journal file magic.
const MAGIC: &[u8; 4] = b"GNJL";
/// Format version; bump on any codec change so old journals read as
/// stale and are discarded instead of misparsed. Version 2: app
/// sequence numbers are corpus sequence numbers
/// ([`gaugenn_playstore::crawler::corpus_seq`]), recorded in arrival
/// order, not merged positions. Version 3: the crawl-done record lost its
/// journal-restores counter, and an admission record precedes it.
const VERSION: u32 = 3;
/// Header length in bytes.
pub(crate) const HEADER_LEN: usize = 16;
/// Per-record frame (length and crc) in bytes.
pub(crate) const FRAME_LEN: usize = 8;
/// A record larger than this is treated as corruption, not a record.
const MAX_RECORD: u32 = 1 << 28;

/// The generic append-only record log.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    run_key: u64,
    /// `None` when the file could not be created: the journal is inert
    /// (appends are dropped) but the run proceeds normally.
    file: Option<fs::File>,
}

impl Journal {
    /// Open the journal at `path`. With `resume` set, surviving records
    /// whose header matches `run_key` are returned for replay (stopping
    /// at the first corrupt record, which also truncates the tail);
    /// otherwise — or on any header mismatch — the file is started
    /// fresh. Never fails; an unwritable path yields an inert journal.
    pub fn open(path: &Path, run_key: u64, resume: bool) -> (Journal, Vec<Vec<u8>>) {
        if let Some(parent) = path.parent() {
            let _ = fs::create_dir_all(parent);
        }
        let mut replayed = Vec::new();
        let mut good_len = 0u64;
        if resume {
            if let Ok(raw) = fs::read(path) {
                if let Some((records, end)) = parse(&raw, run_key) {
                    replayed = records;
                    good_len = end as u64;
                }
            }
        }
        let file = if good_len >= HEADER_LEN as u64 {
            // Keep the good prefix; drop any torn tail before appending.
            let f = fs::OpenOptions::new().read(true).write(true).open(path);
            match f {
                Ok(f) => {
                    let _ = f.set_len(good_len);
                    let _ = f.sync_data();
                    fs::OpenOptions::new().append(true).open(path).ok()
                }
                Err(_) => None,
            }
        } else {
            match fs::write(path, header(run_key)) {
                Ok(()) => fs::OpenOptions::new().append(true).open(path).ok(),
                Err(_) => None,
            }
        };
        (
            Journal {
                path: path.to_path_buf(),
                run_key,
                file,
            },
            replayed,
        )
    }

    /// Append one record, best-effort: the payload and its guard are
    /// written in a single `write_all` so a crash mid-call leaves at
    /// most one torn tail for the next open to truncate.
    pub fn append(&mut self, payload: &[u8]) {
        let mut rec = Vec::with_capacity(FRAME_LEN + payload.len());
        if !frame(&mut rec, payload) {
            return;
        }
        if let Some(f) = self.file.as_mut() {
            if f.write_all(&rec).is_err() {
                // A failed append poisons nothing: drop the handle so the
                // journal goes inert instead of interleaving torn writes.
                self.file = None;
            }
        }
    }

    /// Replace the whole log with `payloads`, in order. The new log is
    /// written to `<path>.tmp`, synced and renamed over the old one, and
    /// the append handle is reopened on it, so a crash or an I/O error at
    /// any point before the rename leaves the old log as it was. Returns
    /// whether the new log was installed.
    pub fn replace<'a>(&mut self, payloads: impl IntoIterator<Item = &'a [u8]>) -> bool {
        let mut bytes = header(self.run_key);
        for payload in payloads {
            frame(&mut bytes, payload);
        }
        let mut tmp = self.path.clone().into_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let written = fs::File::create(&tmp).and_then(|mut f| {
            f.write_all(&bytes)?;
            f.sync_all()
        });
        if written.is_err() || fs::rename(&tmp, &self.path).is_err() {
            let _ = fs::remove_file(&tmp);
            return false;
        }
        self.file = fs::OpenOptions::new().append(true).open(&self.path).ok();
        true
    }

    /// Path this journal lives at.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

fn header(run_key: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&run_key.to_le_bytes());
    out
}

/// Append `payload` with its length and crc guard to `out`. A payload
/// above [`MAX_RECORD`] is not written (replay would read it as
/// corruption); returns whether it was.
fn frame(out: &mut Vec<u8>, payload: &[u8]) -> bool {
    if payload.len() > MAX_RECORD as usize {
        return false;
    }
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    true
}

/// Parse header + records. Returns the replayed payloads and the byte
/// offset of the last good record's end, or `None` when the header is
/// missing, short, version-skewed, or from another run (stale key).
fn parse(raw: &[u8], run_key: u64) -> Option<(Vec<Vec<u8>>, usize)> {
    if raw.len() < HEADER_LEN || &raw[0..4] != MAGIC {
        return None;
    }
    let version = u32::from_le_bytes(raw[4..8].try_into().ok()?);
    let key = u64::from_le_bytes(raw[8..16].try_into().ok()?);
    if version != VERSION || key != run_key {
        return None;
    }
    let mut out = Vec::new();
    let mut at = HEADER_LEN;
    while raw.len() - at >= FRAME_LEN {
        let len = u32::from_le_bytes(raw[at..at + 4].try_into().ok()?);
        if len > MAX_RECORD {
            break;
        }
        let want_crc = u32::from_le_bytes(raw[at + 4..at + 8].try_into().ok()?);
        let body_at = at + FRAME_LEN;
        let Some(payload) = raw.get(body_at..body_at + len as usize) else {
            break; // torn tail
        };
        if crc32(payload) != want_crc {
            break; // bit-flip or torn write: stop at the last good record
        }
        out.push(payload.to_vec());
        at = body_at + len as usize;
    }
    Some((out, at))
}

// ---------------------------------------------------------------------
// Payload codec helpers, shared by every record codec in the crate.
// ---------------------------------------------------------------------

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

pub(crate) fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u64(out, b.len() as u64);
    out.extend_from_slice(b);
}

/// Strict bounds-checked reader over a payload; every getter returns
/// `None` past the end, which the caller turns into "record dropped".
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, at: 0 }
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        let b = *self.buf.get(self.at)?;
        self.at += 1;
        Some(b)
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        let bytes = self.buf.get(self.at..self.at + 8)?;
        self.at += 8;
        Some(u64::from_le_bytes(bytes.try_into().ok()?))
    }

    /// A length prefix that must still fit in the remaining buffer —
    /// rejects absurd lengths before any allocation trusts them.
    pub(crate) fn len(&mut self) -> Option<usize> {
        let n = usize::try_from(self.u64()?).ok()?;
        (n <= self.buf.len() - self.at).then_some(n)
    }

    pub(crate) fn str(&mut self) -> Option<String> {
        String::from_utf8(self.bytes()?).ok()
    }

    pub(crate) fn bytes(&mut self) -> Option<Vec<u8>> {
        let n = self.len()?;
        let bytes = self.buf.get(self.at..self.at + n)?;
        self.at += n;
        Some(bytes.to_vec())
    }

    pub(crate) fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    pub(crate) fn done(&self) -> bool {
        self.at == self.buf.len()
    }
}

/// Derive the run key from the configuration axes that shape the corpus.
pub fn run_key(scale: &str, snapshot: &str, seed: u64) -> u64 {
    splitmix64(hash_str(scale) ^ splitmix64(hash_str(snapshot)) ^ splitmix64(seed))
}

/// FNV-1a, as used across the chaos/sched seeding paths.
fn hash_str(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------
// Typed pipeline journal.
// ---------------------------------------------------------------------

/// Record tags.
const TAG_APP: u8 = 1;
const TAG_CRAWL_DONE: u8 = 2;
const TAG_PROBE: u8 = 3;
const TAG_ADMISSION: u8 = 4;

/// The pipeline's typed view of one run's journal: the finished crawl a
/// previous (killed) attempt left, replayed, plus append methods for
/// this attempt's completed units. Recorded apps are written to the
/// file, not kept: only replayed apps hold their container bytes in
/// memory, until [`RunJournal::take_replayed_crawl`] hands them over.
///
/// One resume rule: a journal holding its crawl-done record replays the
/// whole crawl; any other journal is restarted empty, and the snapshot
/// is crawled again.
#[derive(Debug)]
pub struct RunJournal {
    journal: Journal,
    /// The replayed finished crawl: its corpus in sequence order with the
    /// drop-out ledger and counters, and the fleet's admission counters
    /// (`None` in a journal that holds none).
    crawl: Option<(CrawlOutcome, Option<AdmissionStats>)>,
    /// Whether the file holds its crawl-done record, replayed or
    /// recorded. A finished crawl takes no more crawl records.
    finished: bool,
    /// Replayed or recorded probe verdict (`None` = not journaled).
    probe: Option<Option<bool>>,
}

impl RunJournal {
    /// Open `dir/file`. With `resume` set, a journal holding its
    /// crawl-done record replays the whole crawl and any probe verdict;
    /// any other journal, one whose attempt died mid-crawl, is restarted
    /// empty, so the run crawls the snapshot again and no package is
    /// journaled twice. Without `resume` the file starts fresh.
    pub fn open(dir: &Path, file: &str, run_key: u64, resume: bool) -> RunJournal {
        let (mut journal, raw) = Journal::open(&dir.join(file), run_key, resume);
        let replayed_any = !raw.is_empty();
        let mut apps = Vec::new();
        let (mut admission, mut crawl_done, mut probe) = (None, None, None);
        for payload in raw {
            // An undecodable record body (future tag, short fields) is
            // skipped, not fatal — same miss-not-error stance as the
            // cache store.
            match decode_entry(&payload) {
                Some(Entry::App(seq, app)) => apps.push((seq, app)),
                Some(Entry::Admission(stats)) => admission = Some(stats),
                Some(Entry::CrawlDone(dropouts, stats)) => crawl_done = Some((dropouts, stats)),
                Some(Entry::Probe(v)) => probe = Some(v),
                None => {}
            }
        }
        let crawl = crawl_done.map(|(dropouts, stats)| {
            apps.sort_by_key(|&(seq, _)| seq);
            let apps = apps.into_iter().map(|(_, app)| app).collect();
            (CrawlOutcome { apps, dropouts, stats }, admission)
        });
        // An unfinished crawl is crawled again from an empty file. A
        // failed restart leaves the old records in place: go inert rather
        // than append this attempt's apps after them.
        if crawl.is_none() && replayed_any && !journal.replace(std::iter::empty()) {
            journal.file = None;
        }
        RunJournal {
            journal,
            finished: crawl.is_some(),
            // Only a finished crawl's probe verdict stands.
            probe: crawl.as_ref().and(probe),
            crawl,
        }
    }

    /// Number of replayed app records.
    pub fn replayed_app_count(&self) -> usize {
        self.crawl.as_ref().map_or(0, |(outcome, _)| outcome.apps.len())
    }

    /// Hand over the replayed finished crawl, if the previous attempt
    /// finished it: the whole crawl can then be served from the journal,
    /// counters included. The journal keeps no copy, so the replayed
    /// app count and corpus read empty afterwards.
    pub fn take_replayed_crawl(&mut self) -> Option<(CrawlOutcome, Option<AdmissionStats>)> {
        self.crawl.take()
    }

    /// The replayed corpus in its original (sequence) order.
    pub fn apps_in_order(&self) -> Vec<CrawledApp> {
        self.crawl
            .as_ref()
            .map_or_else(Vec::new, |(outcome, _)| outcome.apps.clone())
    }

    /// Replayed probe verdict.
    pub fn probe(&self) -> Option<Option<bool>> {
        self.probe
    }

    /// Journal one crawled app under its corpus sequence number `seq`.
    /// Apps may arrive in any order; replay sorts them by `seq`. The app
    /// goes to the file only. A finished crawl records no more apps: a
    /// replayed crawl's apps are already in the file.
    pub fn record_app(&mut self, seq: u64, app: &CrawledApp) {
        if !self.finished {
            self.journal.append(&encode_app(seq, app));
        }
    }

    /// Journal the crawl fleet's admission counters. The pipeline records
    /// them just before the end-of-crawl marker, so a replayed crawl
    /// reports the counters the live one did.
    pub fn record_admission(&mut self, stats: &AdmissionStats) {
        if !self.finished {
            self.journal.append(&encode_admission(stats));
        }
    }

    /// Journal the end-of-crawl marker.
    pub fn record_crawl_done(&mut self, dropouts: &[DropOut], stats: &CrawlStats) {
        if !self.finished {
            self.journal.append(&encode_crawl_done(dropouts, stats));
            self.finished = true;
        }
    }

    /// Journal the device-profile probe verdict.
    pub fn record_probe(&mut self, verdict: Option<bool>) {
        if self.probe.is_some() {
            return;
        }
        self.journal.append(&encode_probe(verdict));
        self.probe = Some(verdict);
    }

    /// Path of the underlying journal file.
    pub fn path(&self) -> &Path {
        self.journal.path()
    }
}

// ---------------------------------------------------------------------
// Entry codec (hand-rolled: bounds-checked reads, any anomaly ⇒ the
// record is dropped).
// ---------------------------------------------------------------------

enum Entry {
    App(u64, CrawledApp),
    Admission(AdmissionStats),
    CrawlDone(Vec<DropOut>, CrawlStats),
    Probe(Option<bool>),
}

fn stage_code(s: CrawlStage) -> u8 {
    match s {
        CrawlStage::Listing => 0,
        CrawlStage::Meta => 1,
        CrawlStage::Apk => 2,
        CrawlStage::Obb => 3,
        CrawlStage::Bundle => 4,
    }
}

fn stage_from(code: u8) -> Option<CrawlStage> {
    Some(match code {
        0 => CrawlStage::Listing,
        1 => CrawlStage::Meta,
        2 => CrawlStage::Apk,
        3 => CrawlStage::Obb,
        4 => CrawlStage::Bundle,
        _ => return None,
    })
}

fn encode_app(seq: u64, app: &CrawledApp) -> Vec<u8> {
    let mut out = vec![TAG_APP];
    put_u64(&mut out, seq);
    let m = &app.meta;
    put_str(&mut out, &m.package);
    put_str(&mut out, &m.title);
    put_str(&mut out, &m.category);
    put_u64(&mut out, m.downloads);
    put_u64(&mut out, m.rating.to_bits() as u64);
    put_u64(&mut out, m.version_code as u64);
    out.push(m.has_obb as u8);
    out.push(m.has_bundle as u8);
    put_bytes(&mut out, &app.apk);
    put_u64(&mut out, app.obbs.len() as u64);
    for (name, bytes) in &app.obbs {
        put_str(&mut out, name);
        put_bytes(&mut out, bytes);
    }
    match &app.bundle {
        None => out.push(0),
        Some(b) => {
            out.push(1);
            put_bytes(&mut out, b);
        }
    }
    out
}

fn encode_crawl_done(dropouts: &[DropOut], stats: &CrawlStats) -> Vec<u8> {
    let mut out = vec![TAG_CRAWL_DONE];
    put_u64(&mut out, dropouts.len() as u64);
    for d in dropouts {
        put_str(&mut out, &d.package);
        out.push(stage_code(d.stage));
        put_str(&mut out, &d.error);
    }
    for v in [
        stats.requests,
        stats.retries,
        stats.reconnects,
        stats.backoff_ms_total,
        stats.range_resumes,
        stats.throttled,
        stats.throttle_ms_total,
        stats.breaker_rejections,
    ] {
        put_u64(&mut out, v);
    }
    out
}

fn encode_admission(stats: &AdmissionStats) -> Vec<u8> {
    let mut out = vec![TAG_ADMISSION];
    for v in [
        stats.admitted,
        stats.throttled,
        stats.throttle_ms_total,
        stats.rejections,
        stats.breaker_opens,
        stats.breaker_closes,
    ] {
        put_u64(&mut out, v);
    }
    out
}

fn encode_probe(verdict: Option<bool>) -> Vec<u8> {
    match verdict {
        None => vec![TAG_PROBE, 0],
        Some(v) => vec![TAG_PROBE, 1, v as u8],
    }
}

fn decode_app(r: &mut Reader<'_>) -> Option<(u64, CrawledApp)> {
    let seq = r.u64()?;
    let package = r.str()?;
    let title = r.str()?;
    let category = r.str()?;
    let downloads = r.u64()?;
    let rating = f32::from_bits(u32::try_from(r.u64()?).ok()?);
    let version_code = u32::try_from(r.u64()?).ok()?;
    let has_obb = r.bool()?;
    let has_bundle = r.bool()?;
    let apk = r.bytes()?;
    let n_obbs = r.len()?;
    let mut obbs = Vec::with_capacity(n_obbs.min(1 << 10));
    for _ in 0..n_obbs {
        let name = r.str()?;
        obbs.push((name, r.bytes()?));
    }
    let bundle = match r.u8()? {
        0 => None,
        1 => Some(r.bytes()?),
        _ => return None,
    };
    Some((
        seq,
        CrawledApp {
            meta: AppMeta {
                package,
                title,
                category,
                downloads,
                rating,
                version_code,
                has_obb,
                has_bundle,
            },
            apk,
            obbs,
            bundle,
        },
    ))
}

fn decode_crawl_done(r: &mut Reader<'_>) -> Option<(Vec<DropOut>, CrawlStats)> {
    let n = r.len()?;
    let mut dropouts = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let package = r.str()?;
        let stage = stage_from(r.u8()?)?;
        let error = r.str()?;
        dropouts.push(DropOut {
            package,
            stage,
            error,
        });
    }
    Some((
        dropouts,
        CrawlStats {
            requests: r.u64()?,
            retries: r.u64()?,
            reconnects: r.u64()?,
            backoff_ms_total: r.u64()?,
            range_resumes: r.u64()?,
            throttled: r.u64()?,
            throttle_ms_total: r.u64()?,
            breaker_rejections: r.u64()?,
        },
    ))
}

fn decode_admission(r: &mut Reader<'_>) -> Option<AdmissionStats> {
    Some(AdmissionStats {
        admitted: r.u64()?,
        throttled: r.u64()?,
        throttle_ms_total: r.u64()?,
        rejections: r.u64()?,
        breaker_opens: r.u64()?,
        breaker_closes: r.u64()?,
    })
}

fn decode_entry(payload: &[u8]) -> Option<Entry> {
    let mut r = Reader::new(payload);
    let entry = match r.u8()? {
        TAG_APP => {
            let (seq, app) = decode_app(&mut r)?;
            Entry::App(seq, app)
        }
        TAG_ADMISSION => Entry::Admission(decode_admission(&mut r)?),
        TAG_CRAWL_DONE => {
            let (d, s) = decode_crawl_done(&mut r)?;
            Entry::CrawlDone(d, s)
        }
        TAG_PROBE => {
            let verdict = match r.u8()? {
                0 => None,
                1 => Some(r.bool()?),
                _ => return None,
            };
            Entry::Probe(verdict)
        }
        _ => return None,
    };
    r.done().then_some(entry)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gaugenn-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_app(pkg: &str, payload: u8) -> CrawledApp {
        CrawledApp {
            meta: AppMeta {
                package: pkg.into(),
                title: format!("Title {pkg}"),
                category: "tools".into(),
                downloads: 1_000_000,
                rating: 4.25,
                version_code: 42,
                has_obb: payload.is_multiple_of(2),
                has_bundle: payload.is_multiple_of(3),
            },
            apk: vec![payload; 64],
            obbs: if payload.is_multiple_of(2) {
                vec![(format!("main.{pkg}.obb"), vec![payload ^ 0xFF; 16])]
            } else {
                Vec::new()
            },
            bundle: (payload.is_multiple_of(3)).then(|| vec![payload ^ 0xAA; 8]),
        }
    }

    fn sample_stats() -> CrawlStats {
        CrawlStats {
            requests: 100,
            retries: 7,
            reconnects: 2,
            backoff_ms_total: 1234,
            range_resumes: 1,
            throttled: 9,
            throttle_ms_total: 90,
            breaker_rejections: 0,
        }
    }

    fn sample_admission() -> AdmissionStats {
        AdmissionStats {
            admitted: 100,
            throttled: 9,
            throttle_ms_total: 90,
            rejections: 3,
            breaker_opens: 2,
            breaker_closes: 1,
        }
    }

    /// Journal `apps` as one finished crawl with no drop-outs.
    fn finished_crawl(dir: &Path, key: u64, apps: &[CrawledApp]) -> RunJournal {
        let mut j = RunJournal::open(dir, "run.gnjl", key, false);
        for (seq, app) in apps.iter().enumerate() {
            j.record_app(seq as u64, app);
        }
        j.record_crawl_done(&[], &sample_stats());
        j
    }

    #[test]
    fn roundtrips_apps_crawl_done_and_probe() {
        let dir = tmp("roundtrip");
        let key = run_key("tiny", "y2020", 7);
        let mut j = RunJournal::open(&dir, "run.gnjl", key, false);
        // Out of sequence order: replay sorts by sequence number.
        j.record_app(1, &sample_app("com.b", 2));
        j.record_app(0, &sample_app("com.a", 1));
        let dropouts = vec![DropOut {
            package: "com.fail".into(),
            stage: CrawlStage::Apk,
            error: "transient: io".into(),
        }];
        j.record_admission(&sample_admission());
        j.record_crawl_done(&dropouts, &sample_stats());
        j.record_probe(Some(true));
        drop(j);

        let mut j = RunJournal::open(&dir, "run.gnjl", key, true);
        assert_eq!(j.replayed_app_count(), 2);
        let apps = j.apps_in_order();
        assert_eq!(apps[0], sample_app("com.a", 1));
        assert_eq!(apps[1], sample_app("com.b", 2));
        let (outcome, admission) = j.take_replayed_crawl().expect("crawl done replays");
        assert!(outcome.apps == apps);
        assert_eq!(outcome.dropouts, dropouts);
        assert_eq!(outcome.stats, sample_stats());
        assert_eq!(admission, Some(sample_admission()));
        assert_eq!(j.probe(), Some(Some(true)));
        assert_eq!(j.replayed_app_count(), 0, "handed over, not copied");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_finished_crawl_records_no_more_apps() {
        let dir = tmp("finished");
        let key = run_key("tiny", "y2021", 7);
        let mut j = RunJournal::open(&dir, "run.gnjl", key, false);
        j.record_app(0, &sample_app("com.a", 1));
        assert_eq!(j.replayed_app_count(), 0, "recorded, not replayed");
        assert!(j.apps_in_order().is_empty());
        j.record_admission(&sample_admission());
        j.record_crawl_done(&[], &sample_stats());
        assert!(j.take_replayed_crawl().is_none(), "recorded, not replayed");
        let len = fs::metadata(j.path()).unwrap().len();
        j.record_app(1, &sample_app("com.b", 2));
        j.record_admission(&sample_admission());
        j.record_crawl_done(&[], &sample_stats());
        assert_eq!(fs::metadata(j.path()).unwrap().len(), len, "recorded after done");
        drop(j);
        // A replayed crawl's apps are already in the file.
        let mut j = RunJournal::open(&dir, "run.gnjl", key, true);
        assert_eq!(j.replayed_app_count(), 1);
        j.record_app(0, &sample_app("com.a", 1));
        j.record_crawl_done(&[], &sample_stats());
        assert_eq!(fs::metadata(j.path()).unwrap().len(), len, "replayed");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_unfinished_crawl_restarts_the_journal_empty() {
        let dir = tmp("unfinished");
        let key = run_key("tiny", "y2021", 7);
        let mut j = RunJournal::open(&dir, "run.gnjl", key, false);
        j.record_app(0, &sample_app("com.a", 1));
        j.record_app(1, &sample_app("com.b", 2));
        j.record_admission(&sample_admission());
        drop(j);

        // No crawl-done record: nothing replays and the file is restarted.
        let mut j = RunJournal::open(&dir, "run.gnjl", key, true);
        assert_eq!(j.replayed_app_count(), 0);
        assert!(j.take_replayed_crawl().is_none());
        assert_eq!(fs::metadata(j.path()).unwrap().len(), HEADER_LEN as u64);
        // The crawl journaled again replays once, each app once.
        j.record_app(1, &sample_app("com.b", 2));
        j.record_app(0, &sample_app("com.a", 1));
        j.record_crawl_done(&[], &sample_stats());
        drop(j);
        let mut j = RunJournal::open(&dir, "run.gnjl", key, true);
        let want = [sample_app("com.a", 1), sample_app("com.b", 2)];
        assert!(j.apps_in_order() == want);
        let (_, admission) = j.take_replayed_crawl().expect("finished");
        assert_eq!(admission, None, "the discarded record stays discarded");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_open_discards_previous_records() {
        let dir = tmp("fresh");
        let key = run_key("tiny", "y2020", 7);
        drop(finished_crawl(&dir, key, &[sample_app("com.a", 1)]));
        let j = RunJournal::open(&dir, "run.gnjl", key, false);
        assert_eq!(j.replayed_app_count(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_run_key_replays_nothing() {
        let dir = tmp("stale");
        let key = run_key("tiny", "y2020", 7);
        drop(finished_crawl(&dir, key, &[sample_app("com.a", 1)]));
        // Same path, different configuration: a stale-generation journal.
        let other = run_key("tiny", "y2021", 7);
        let mut j = RunJournal::open(&dir, "run.gnjl", other, true);
        assert_eq!(j.replayed_app_count(), 0);
        assert!(j.take_replayed_crawl().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let dir = tmp("torn");
        let key = run_key("small", "y2021", 3);
        let apps = [sample_app("com.a", 1), sample_app("com.b", 2)];
        let mut j = finished_crawl(&dir, key, &apps);
        j.record_probe(Some(true));
        let path = j.path().to_path_buf();
        drop(j);
        let raw = fs::read(&path).unwrap();
        fs::write(&path, &raw[..raw.len() - 2]).unwrap();

        let mut j = RunJournal::open(&dir, "run.gnjl", key, true);
        assert_eq!(j.replayed_app_count(), 2, "the torn probe drops, the crawl survives");
        assert_eq!(j.probe(), None);
        // The journal stays appendable after truncation and the re-added
        // record replays on the next open.
        j.record_probe(Some(false));
        drop(j);
        let j = RunJournal::open(&dir, "run.gnjl", key, true);
        assert_eq!(j.replayed_app_count(), 2);
        assert_eq!(j.probe(), Some(Some(false)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_stops_replay_at_last_good_record() {
        let dir = tmp("flip");
        let path = dir.join("log.gnjl");
        let key = run_key("small", "y2021", 3);
        let records: [&[u8]; 3] = [b"first", b"second", b"third"];
        let (mut j, _) = Journal::open(&path, key, false);
        for r in records {
            j.append(r);
        }
        drop(j);
        let mut raw = fs::read(&path).unwrap();
        // Flip a byte inside the second record's payload.
        let second = HEADER_LEN + 2 * FRAME_LEN + records[0].len();
        raw[second + 2] ^= 0x01;
        fs::write(&path, &raw).unwrap();

        let (_, replayed) = Journal::open(&path, key, true);
        assert_eq!(replayed, records[..1], "replay ends before the flipped record");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn inflated_record_lengths_end_replay_and_stay_appendable() {
        let dir = tmp("inflated");
        let path = dir.join("log.gnjl");
        let key = run_key("tiny", "y2021", 5);
        let records: [&[u8]; 3] = [b"first", b"second", b"third"];
        let third = HEADER_LEN + 2 * FRAME_LEN + records[0].len() + records[1].len();
        // The third record's length claims more bytes than the file
        // holds, then more than MAX_RECORD.
        for claim in [6, MAX_RECORD, MAX_RECORD + 1, u32::MAX] {
            let (mut j, _) = Journal::open(&path, key, false);
            for r in records {
                j.append(r);
            }
            drop(j);
            let mut raw = fs::read(&path).unwrap();
            raw[third..third + 4].copy_from_slice(&claim.to_le_bytes());
            fs::write(&path, &raw).unwrap();

            let (mut j, replayed) = Journal::open(&path, key, true);
            assert_eq!(replayed, records[..2], "claim {claim}");
            let len = fs::metadata(&path).unwrap().len();
            assert_eq!(len, third as u64, "truncated at claim {claim}");
            j.append(b"fourth");
            drop(j);
            let (_, replayed) = Journal::open(&path, key, true);
            let want: [&[u8]; 3] = [b"first", b"second", b"fourth"];
            assert_eq!(replayed, want, "claim {claim}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_header_replays_nothing_and_reinitialises() {
        let dir = tmp("header");
        let key = run_key("tiny", "y2020", 1);
        let j = finished_crawl(&dir, key, &[sample_app("com.a", 1)]);
        let path = j.path().to_path_buf();
        drop(j);
        let raw = fs::read(&path).unwrap();
        fs::write(&path, &raw[..7]).unwrap();

        let mut j = RunJournal::open(&dir, "run.gnjl", key, true);
        assert_eq!(j.replayed_app_count(), 0);
        // And the reinitialised file journals normally again.
        j.record_app(0, &sample_app("com.a", 1));
        j.record_crawl_done(&[], &sample_stats());
        drop(j);
        let j = RunJournal::open(&dir, "run.gnjl", key, true);
        assert_eq!(j.replayed_app_count(), 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
