//! One content table: each distinct model's bytes, checksum and analysis.
//!
//! Most model instances in the wild are byte-identical copies shipped by
//! many apps (§4.5: only 19.1 % are unique). A [`ContentTable`] gives
//! every instance of one content the first sighting's allocation, md5 and
//! analysis, so an analysed corpus holds each distinct model's bytes
//! once, hashes them once and decodes and traces them once.
//!
//! Contents are compared over exactly what [`model_checksum`] hashes:
//! the files' bytes in path order, so "same content" and "same checksum"
//! are one decision. A cheap key (file lengths plus a byte sample) picks
//! the bucket and a full byte comparison confirms the match, so two
//! contents that share a key cost one comparison and never share a
//! checksum by mistake.
//!
//! Each entry's analysis is a compute-once cell. The first caller of
//! [`ContentTable::analysis`] consults the persistent [`CacheStore`], when
//! the table has one, or computes the analysis and saves it; every later
//! caller waits on the cell and shares the result. So the number of
//! filled cells (the cache misses) is the number of distinct contents
//! analysed, whatever the interleaving, and disk state never moves it.

use crate::analyze::ModelOutcome;
use crate::cachestore::CacheStore;
use gaugenn_analysis::dedup::model_checksum;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of independently locked table shards.
const SHARDS: usize = 16;

/// Bytes sampled from each end of every file for the cheap key.
const EDGE_SAMPLE: usize = 64;

/// Bytes sampled at even strides through every file for the cheap key.
const STRIDE_SAMPLES: usize = 16;

/// One distinct content: its files in path order, their md5 and, once
/// someone asked for it, its analysis.
pub(crate) struct Content {
    files: Vec<Arc<[u8]>>,
    checksum: String,
    analysis: OnceLock<ModelOutcome>,
}

impl Content {
    /// The content's [`model_checksum`].
    pub(crate) fn checksum(&self) -> &str {
        &self.checksum
    }
}

/// Content-addressed store of model bytes and their analyses, shared by
/// the analysis workers. Each shard is a mutex over cheap key → the
/// contents that carry it; the first sighting copies and hashes under the
/// shard lock, so exactly one entry exists per distinct content whatever
/// the interleaving.
///
/// Counter atomics use `SeqCst`: the misses feed the rendered report,
/// and gaugelint's `relaxed-ordering-in-report` rule bans `Relaxed` near
/// report state.
pub(crate) struct ContentTable {
    shards: Vec<Mutex<BTreeMap<u64, Vec<Arc<Content>>>>>,
    store: Option<Arc<CacheStore>>,
    misses: AtomicU64,
    persistent_hits: AtomicU64,
    persistent_stores: AtomicU64,
}

impl ContentTable {
    /// Empty table, consulting (and writing back to) `store` when set.
    pub(crate) fn new(store: Option<Arc<CacheStore>>) -> ContentTable {
        ContentTable {
            shards: (0..SHARDS).map(|_| Mutex::new(BTreeMap::new())).collect(),
            store,
            misses: AtomicU64::new(0),
            persistent_hits: AtomicU64::new(0),
            persistent_stores: AtomicU64::new(0),
        }
    }

    /// Share one model's files. Returns a buffer per file, in `files`
    /// order, and the model's entry. The first sighting of a content
    /// copies its bytes and hashes them; every later one gets those
    /// buffers and that entry back, whatever its file paths.
    pub(crate) fn share(&self, files: &[(String, &[u8])]) -> (Vec<Arc<[u8]>>, Arc<Content>) {
        // Path order, stably: the order `model_checksum` hashes in.
        let mut order: Vec<usize> = (0..files.len()).collect();
        order.sort_by(|&a, &b| files[a].0.cmp(&files[b].0));
        let key = cheap_key(order.iter().map(|&i| files[i].1));
        let content = {
            let mut map = self.shards[(key % SHARDS as u64) as usize]
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            let bucket = map.entry(key).or_default();
            let found = bucket.iter().find(|c| {
                c.files.len() == order.len()
                    && c.files
                        .iter()
                        .zip(&order)
                        .all(|(held, &i)| **held == *files[i].1)
            });
            match found {
                Some(c) => Arc::clone(c),
                None => {
                    let c = Arc::new(Content {
                        files: order.iter().map(|&i| Arc::from(files[i].1)).collect(),
                        checksum: model_checksum(files),
                        analysis: OnceLock::new(),
                    });
                    bucket.push(Arc::clone(&c));
                    c
                }
            }
        };
        // Back to `files` order: file `i` sits at `rank[i]` in path order.
        let mut rank = vec![0; files.len()];
        for (pos, &i) in order.iter().enumerate() {
            rank[i] = pos;
        }
        let shared = rank.iter().map(|&pos| Arc::clone(&content.files[pos])).collect();
        (shared, content)
    }

    /// The analysis of `content`. The first caller loads it from the
    /// persistent store or runs `compute` and saves the result; callers
    /// racing it wait for the cell and share what it filled in. Only the
    /// first caller counts a miss: a persistent hit is still a miss, so
    /// disk state never changes the totals the report renders.
    pub(crate) fn analysis(
        &self,
        content: &Content,
        compute: impl FnOnce() -> ModelOutcome,
    ) -> ModelOutcome {
        content
            .analysis
            .get_or_init(|| {
                let outcome = match self.store.as_ref().and_then(|s| s.load(&content.checksum)) {
                    Some(found) => {
                        self.persistent_hits.fetch_add(1, Ordering::SeqCst);
                        found
                    }
                    None => {
                        let computed = compute();
                        if let Some(store) = &self.store {
                            store.save(&content.checksum, &computed);
                            self.persistent_stores.fetch_add(1, Ordering::SeqCst);
                        }
                        computed
                    }
                };
                self.misses.fetch_add(1, Ordering::SeqCst);
                outcome
            })
            .clone()
    }

    /// `(misses, persistent hits, persistent write-backs)` so far: the
    /// cells filled, and how many of them came from or went to the
    /// persistent store (both zero without one).
    pub(crate) fn counters(&self) -> (u64, u64, u64) {
        (
            self.misses.load(Ordering::SeqCst),
            self.persistent_hits.load(Ordering::SeqCst),
            self.persistent_stores.load(Ordering::SeqCst),
        )
    }
}

/// FNV-1a over each file's length, its first and last [`EDGE_SAMPLE`]
/// bytes and [`STRIDE_SAMPLES`] bytes at even strides, in the given
/// order. Equal contents always share a key; the reverse is checked.
fn cheap_key<'a>(files: impl Iterator<Item = &'a [u8]>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    for bytes in files {
        (bytes.len() as u64)
            .to_le_bytes()
            .into_iter()
            .for_each(&mut eat);
        let edge = EDGE_SAMPLE.min(bytes.len());
        bytes[..edge].iter().copied().for_each(&mut eat);
        bytes[bytes.len() - edge..]
            .iter()
            .copied()
            .for_each(&mut eat);
        if !bytes.is_empty() {
            (0..STRIDE_SAMPLES).for_each(|k| eat(bytes[k * bytes.len() / STRIDE_SAMPLES]));
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::AnalyzeFailure;

    fn files<'a>(parts: &[(&str, &'a [u8])]) -> Vec<(String, &'a [u8])> {
        parts.iter().map(|&(p, b)| (p.to_string(), b)).collect()
    }

    fn checksum_of(table: &ContentTable, parts: &[(&str, &[u8])]) -> String {
        table.share(&files(parts)).1.checksum().to_string()
    }

    #[test]
    fn duplicates_share_the_first_allocation_and_checksum() {
        let table = ContentTable::new(None);
        let weights = vec![7u8; 1000];
        let graph = b"graph".to_vec();
        let a = files(&[("a/m.bin", &weights), ("a/m.param", &graph)]);
        // Same bytes under other paths, primary file first as before.
        let b = files(&[("z/n.bin", &weights), ("z/n.param", &graph)]);
        let (sa, ca) = table.share(&a);
        let (sb, cb) = table.share(&b);
        assert_eq!(ca.checksum(), model_checksum(&a));
        assert!(Arc::ptr_eq(&ca, &cb), "one entry per content");
        assert!(Arc::ptr_eq(&sa[0], &sb[0]) && Arc::ptr_eq(&sa[1], &sb[1]));
        assert_eq!(&*sa[0], &weights[..]);
        assert_eq!(&*sa[1], &graph[..]);
    }

    #[test]
    fn a_shared_key_is_confirmed_by_the_bytes() {
        // Differ only in a byte the sample skips: same cheap key, so the
        // bucket holds both and the comparison tells them apart.
        let table = ContentTable::new(None);
        let one = vec![0u8; 4096];
        let mut other = one.clone();
        other[1000] = 1;
        assert_eq!(
            cheap_key([&one[..]].into_iter()),
            cheap_key([&other[..]].into_iter())
        );
        let (s1, c1) = table.share(&files(&[("x.tflite", &one)]));
        let (s2, c2) = table.share(&files(&[("x.tflite", &other)]));
        assert_ne!(c1.checksum(), c2.checksum());
        assert_eq!(
            c2.checksum(),
            model_checksum(&files(&[("x.tflite", &other)]))
        );
        assert!(!Arc::ptr_eq(&s1[0], &s2[0]));
        assert_eq!(&*s2[0], &other[..]);
    }

    #[test]
    fn path_order_decides_what_is_the_same_content() {
        // The checksum hashes files in path order, so the same two
        // buffers in the other path order are another content.
        let table = ContentTable::new(None);
        let (x, y) = (vec![1u8; 10], vec![2u8; 10]);
        let c1 = checksum_of(&table, &[("a", &x), ("b", &y)]);
        let c2 = checksum_of(&table, &[("a", &y), ("b", &x)]);
        assert_ne!(c1, c2);
        let c3 = checksum_of(&table, &[("b", &y), ("a", &x)]);
        assert_eq!(c1, c3, "listing order is not path order");
    }

    #[test]
    fn compute_once_under_contention() {
        // Eight threads each share and analyse 100 instances of ten
        // contents: each content is analysed exactly once, and only
        // those ten calls count a miss.
        use std::sync::atomic::AtomicUsize;
        let table = ContentTable::new(None);
        let computed = AtomicUsize::new(0);
        let contents: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 100]).collect();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for i in 0..100 {
                        let bytes = &contents[i % 10];
                        let (_, content) = table.share(&files(&[("m.tflite", bytes)]));
                        let _ = table.analysis(&content, || {
                            computed.fetch_add(1, Ordering::SeqCst);
                            Err(AnalyzeFailure::Undecodable)
                        });
                    }
                });
            }
        });
        assert_eq!(
            computed.load(Ordering::SeqCst),
            10,
            "one compute per content"
        );
        assert_eq!(table.counters(), (10, 0, 0));
    }
}
