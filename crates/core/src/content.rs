//! Model bytes kept once per content.
//!
//! Most model instances in the wild are byte-identical copies shipped by
//! many apps (§4.5: only 19.1 % are unique). A [`ContentTable`] gives
//! every instance of one content the first sighting's allocation and
//! md5, so an analysed corpus holds each distinct model's bytes once and
//! hashes them once.
//!
//! Contents are compared over exactly what [`model_checksum`] hashes:
//! the files' bytes in path order. A cheap key (file lengths plus a byte
//! sample) picks the bucket and a full byte comparison confirms the
//! match, so two contents that share a key cost one comparison and never
//! share a checksum by mistake.

use gaugenn_analysis::dedup::model_checksum;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Number of independently locked table shards.
const SHARDS: usize = 16;

/// Bytes sampled from each end of every file for the cheap key.
const EDGE_SAMPLE: usize = 64;

/// Bytes sampled at even strides through every file for the cheap key.
const STRIDE_SAMPLES: usize = 16;

/// One distinct content: its files in path order and their md5.
struct Content {
    files: Vec<Arc<[u8]>>,
    checksum: String,
}

/// Content-addressed store of model bytes, shared by the analysis
/// workers. Each shard is a mutex over cheap key → the contents that
/// carry it; the first sighting copies and hashes under the shard lock,
/// so exactly one allocation exists per distinct content whatever the
/// interleaving.
pub(crate) struct ContentTable {
    shards: Vec<Mutex<BTreeMap<u64, Vec<Arc<Content>>>>>,
}

impl ContentTable {
    /// Empty table.
    pub(crate) fn new() -> ContentTable {
        ContentTable {
            shards: (0..SHARDS).map(|_| Mutex::new(BTreeMap::new())).collect(),
        }
    }

    /// Share one model's files. Returns a buffer per file, in `files`
    /// order, and the model's [`model_checksum`]. The first sighting of
    /// a content copies its bytes and hashes them; every later one gets
    /// those buffers and that checksum back, whatever its file paths.
    pub(crate) fn share(&self, files: &[(String, &[u8])]) -> (Vec<Arc<[u8]>>, String) {
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
        (shared, content.checksum.clone())
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

    fn files<'a>(parts: &[(&str, &'a [u8])]) -> Vec<(String, &'a [u8])> {
        parts.iter().map(|&(p, b)| (p.to_string(), b)).collect()
    }

    #[test]
    fn duplicates_share_the_first_allocation_and_checksum() {
        let table = ContentTable::new();
        let weights = vec![7u8; 1000];
        let graph = b"graph".to_vec();
        let a = files(&[("a/m.bin", &weights), ("a/m.param", &graph)]);
        // Same bytes under other paths, primary file first as before.
        let b = files(&[("z/n.bin", &weights), ("z/n.param", &graph)]);
        let (sa, ca) = table.share(&a);
        let (sb, cb) = table.share(&b);
        assert_eq!(ca, model_checksum(&a));
        assert_eq!(ca, cb);
        assert!(Arc::ptr_eq(&sa[0], &sb[0]) && Arc::ptr_eq(&sa[1], &sb[1]));
        assert_eq!(&*sa[0], &weights[..]);
        assert_eq!(&*sa[1], &graph[..]);
    }

    #[test]
    fn a_shared_key_is_confirmed_by_the_bytes() {
        // Differ only in a byte the sample skips: same cheap key, so the
        // bucket holds both and the comparison tells them apart.
        let table = ContentTable::new();
        let one = vec![0u8; 4096];
        let mut other = one.clone();
        other[1000] = 1;
        assert_eq!(
            cheap_key([&one[..]].into_iter()),
            cheap_key([&other[..]].into_iter())
        );
        let (s1, c1) = table.share(&files(&[("x.tflite", &one)]));
        let (s2, c2) = table.share(&files(&[("x.tflite", &other)]));
        assert_ne!(c1, c2);
        assert_eq!(c2, model_checksum(&files(&[("x.tflite", &other)])));
        assert!(!Arc::ptr_eq(&s1[0], &s2[0]));
        assert_eq!(&*s2[0], &other[..]);
    }

    #[test]
    fn path_order_decides_what_is_the_same_content() {
        // The checksum hashes files in path order, so the same two
        // buffers in the other path order are another content.
        let table = ContentTable::new();
        let (x, y) = (vec![1u8; 10], vec![2u8; 10]);
        let (_, c1) = table.share(&files(&[("a", &x), ("b", &y)]));
        let (_, c2) = table.share(&files(&[("a", &y), ("b", &x)]));
        assert_ne!(c1, c2);
        let (_, c3) = table.share(&files(&[("b", &y), ("a", &x)]));
        assert_eq!(c1, c3, "listing order is not path order");
    }
}
