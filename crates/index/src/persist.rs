//! The crc32-guarded on-disk index format.
//!
//! ```text
//! GNIX v1 <crc32-hex8> <payload-len>\n
//! <payload>
//! ```
//!
//! The payload is line-oriented, space-separated, with [`crate::esc`]
//! escaping on free-text fields:
//!
//! ```text
//! generation <n>
//! snapshot <esc-label>
//! model <checksum> <esc-name> <framework> <task|-> <quant> <size> <flops> <params> <k> (<esc-label> <apps>)*
//! app <esc-package> <esc-category> <k> (<esc-label> <models> <ml> <cloud>)*
//! ```
//!
//! Only the documents persist; posting lists and column arrays are
//! derived and rebuilt on load, which keeps the format small and makes
//! the in-memory structures canonical regardless of ingest history.
//!
//! Corruption discipline (the `CacheStore` rule, DESIGN.md §11/§13):
//! *any* defect — wrong magic, crc mismatch, short payload, malformed
//! line, unknown framework — makes [`load`] return `None`. The caller
//! starts from an empty index and repopulates from the pipeline's
//! analysis output (itself warm from the persistent model cache), so a
//! flipped bit or a torn tail costs a rebuild, never an error.

use crate::doc::{framework_by_name, task_by_name, AppDoc, AppSnap, ModelDoc};
use crate::{esc, unesc, CorpusIndex};
use gaugenn_apk::crc32::crc32;
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

const MAGIC: &str = "GNIX v1";

/// Serialize the index payload (documents only).
fn payload(index: &CorpusIndex) -> String {
    let mut out = String::new();
    out.push_str(&format!("generation {}\n", index.generation()));
    for label in index.snapshot_labels() {
        out.push_str(&format!("snapshot {}\n", esc(label)));
    }
    for m in index.models() {
        out.push_str(&format!(
            "model {} {} {} {} {} {} {} {} {}",
            m.checksum,
            esc(&m.name),
            m.framework.name(),
            m.task.map_or("-".to_string(), |t| esc(t.name())),
            m.quantised,
            m.size_bytes,
            m.flops,
            m.params,
            m.apps_by_snapshot.len(),
        ));
        for (label, apps) in &m.apps_by_snapshot {
            out.push_str(&format!(" {} {apps}", esc(label)));
        }
        out.push('\n');
    }
    for a in index.apps() {
        out.push_str(&format!(
            "app {} {} {}",
            esc(&a.package),
            esc(&a.category),
            a.by_snapshot.len(),
        ));
        for (label, s) in &a.by_snapshot {
            out.push_str(&format!(" {} {} {} {}", esc(label), s.models, s.ml, s.cloud));
        }
        out.push('\n');
    }
    out
}

/// Write `index` to `path` via write-temp + atomic rename (the
/// `write_atomic` discipline: a reader never observes a half-written
/// file; a crash leaves either the old index or the new one).
pub fn save(index: &CorpusIndex, path: &Path) -> bool {
    let body = payload(index);
    let framed = format!("{MAGIC} {:08x} {}\n{body}", crc32(body.as_bytes()), body.len());
    let tmp = path.with_extension("gnix.tmp");
    if fs::write(&tmp, framed.as_bytes()).is_err() || fs::rename(&tmp, path).is_err() {
        let _ = fs::remove_file(&tmp);
        return false;
    }
    true
}

/// Load an index from `path`; `None` on any corruption or absence.
pub fn load(path: &Path) -> Option<CorpusIndex> {
    let raw = fs::read_to_string(path).ok()?;
    let (header, body) = raw.split_once('\n')?;
    // The header itself is outside the crc's coverage, so parse it
    // strictly: exact magic+space, exactly 8 crc hex digits, digits-only
    // length. Any cosmetic damage is damage.
    let rest = header.strip_prefix(MAGIC)?.strip_prefix(' ')?;
    let (crc_hex, len_s) = rest.split_once(' ')?;
    if crc_hex.len() != 8 || len_s.is_empty() || !len_s.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let want_crc = u32::from_str_radix(crc_hex, 16).ok()?;
    let want_len: usize = len_s.parse().ok()?;
    // A torn tail shortens the body; extra bytes mean a torn header of a
    // following write. Either way: miss.
    if body.len() != want_len || crc32(body.as_bytes()) != want_crc {
        return None;
    }
    parse_payload(body)
}

fn parse_payload(body: &str) -> Option<CorpusIndex> {
    let mut index = CorpusIndex::new();
    for line in body.lines() {
        let mut f = line.split(' ');
        match f.next()? {
            "generation" => index.generation = f.next()?.parse().ok()?,
            "snapshot" => {
                index.snapshots.insert(unesc(f.next()?));
            }
            "model" => {
                let checksum = f.next()?.to_string();
                let name = unesc(f.next()?);
                let framework = framework_by_name(f.next()?)?;
                let task = match f.next()? {
                    "-" => None,
                    t => Some(task_by_name(&unesc(t))?),
                };
                let quantised = parse_bool(f.next()?)?;
                let size_bytes = f.next()?.parse().ok()?;
                let flops = f.next()?.parse().ok()?;
                let params = f.next()?.parse().ok()?;
                let k: usize = f.next()?.parse().ok()?;
                let mut apps_by_snapshot = BTreeMap::new();
                for _ in 0..k {
                    let label = unesc(f.next()?);
                    let apps: u64 = f.next()?.parse().ok()?;
                    apps_by_snapshot.insert(label, apps);
                }
                if f.next().is_some() {
                    return None; // trailing junk: the line is not ours
                }
                // Documents persist sorted; enforce on the way in so a
                // hand-edited file cannot break the binary searches.
                let doc = ModelDoc {
                    checksum,
                    name,
                    framework,
                    task,
                    quantised,
                    size_bytes,
                    flops,
                    params,
                    apps_by_snapshot,
                };
                match index
                    .models
                    .binary_search_by(|m| m.checksum.cmp(&doc.checksum))
                {
                    Ok(_) => return None, // duplicate checksum: corrupt
                    Err(i) => index.models.insert(i, doc),
                }
            }
            "app" => {
                let package = unesc(f.next()?);
                let category = unesc(f.next()?);
                let k: usize = f.next()?.parse().ok()?;
                let mut by_snapshot = BTreeMap::new();
                for _ in 0..k {
                    let label = unesc(f.next()?);
                    let models: u64 = f.next()?.parse().ok()?;
                    let ml = parse_bool(f.next()?)?;
                    let cloud = parse_bool(f.next()?)?;
                    by_snapshot.insert(label, AppSnap { models, ml, cloud });
                }
                if f.next().is_some() {
                    return None;
                }
                let doc = AppDoc {
                    package,
                    category,
                    by_snapshot,
                };
                match index
                    .apps
                    .binary_search_by(|a| a.package.cmp(&doc.package))
                {
                    Ok(_) => return None,
                    Err(i) => index.apps.insert(i, doc),
                }
            }
            _ => return None, // unknown record: corrupt
        }
    }
    index.reindex();
    Some(index)
}

fn parse_bool(s: &str) -> Option<bool> {
    match s {
        "true" => Some(true),
        "false" => Some(false),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::tiny_index;

    fn tmp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("gaugenn-index-{tag}-{}.gnix", std::process::id()))
    }

    #[test]
    fn save_load_roundtrip_is_lossless() {
        let idx = tiny_index();
        let path = tmp("roundtrip");
        assert!(idx.save(&path));
        let loaded = CorpusIndex::load(&path).expect("clean file loads");
        assert_eq!(loaded.models(), idx.models());
        assert_eq!(loaded.apps(), idx.apps());
        assert_eq!(loaded.generation(), idx.generation());
        assert_eq!(loaded.snapshot_labels(), idx.snapshot_labels());
        // Derived structures rebuilt identically: same query answers.
        assert_eq!(loaded.stats_text(), idx.stats_text());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_a_miss() {
        assert!(CorpusIndex::load(Path::new("/nonexistent/corpus.gnix")).is_none());
    }

    #[test]
    fn every_single_bit_flip_is_a_miss_or_equal() {
        // The cachestore fixture pattern: flip each byte of the file in
        // turn; the load must come back None (detected) — never a
        // different index, never a panic.
        let idx = tiny_index();
        let path = tmp("bitflip");
        assert!(idx.save(&path));
        let clean = fs::read(&path).unwrap();
        let want = idx.stats_text();
        for i in 0..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 0x10;
            fs::write(&path, &bad).unwrap();
            if let Some(loaded) = CorpusIndex::load(&path) {
                // A flip inside an escaped byte of a free-text field can
                // still parse; it must then fail the crc — so reaching
                // here is impossible unless the flip landed somewhere
                // truly inert, which the crc rules out entirely.
                panic!(
                    "byte {i} flip silently accepted (stats then {:?} vs {want:?})",
                    loaded.stats_text()
                );
            }
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_a_miss() {
        let idx = tiny_index();
        let path = tmp("torn");
        assert!(idx.save(&path));
        let clean = fs::read(&path).unwrap();
        for keep in [clean.len() - 1, clean.len() / 2, 10, 1, 0] {
            fs::write(&path, &clean[..keep]).unwrap();
            assert!(
                CorpusIndex::load(&path).is_none(),
                "torn at {keep} must be a miss"
            );
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn foreign_and_stale_headers_are_misses() {
        let path = tmp("foreign");
        for junk in ["", "GNCE v1 deadbeef 0\n", "GNIX v2 00000000 0\n", "garbage"] {
            fs::write(&path, junk).unwrap();
            assert!(CorpusIndex::load(&path).is_none(), "{junk:?}");
        }
        let _ = fs::remove_file(&path);
    }

    /// Frame `body` as `save` does, crc and length correct.
    fn frame(body: &str) -> String {
        format!("{MAGIC} {:08x} {}\n{body}", crc32(body.as_bytes()), body.len())
    }

    #[test]
    fn inflated_lengths_are_misses() {
        // Each payload passes the crc, so only the parser stands between
        // a claimed count and the loop or reservation it would drive.
        let idx = tiny_index();
        let clean = payload(&idx);
        // Claim 2^64 − 1 snapshot entries: field `k` of every `kind` line.
        let inflate = |kind: &str, k: usize| -> String {
            clean
                .lines()
                .map(|line| {
                    let mut f: Vec<&str> = line.split(' ').collect();
                    if f[0] == kind {
                        f[k] = "18446744073709551615";
                    }
                    f.join(" ") + "\n"
                })
                .collect()
        };
        let path = tmp("inflate");
        for body in [inflate("model", 9), inflate("app", 3)] {
            assert_ne!(body, clean);
            fs::write(&path, frame(&body)).unwrap();
            assert!(CorpusIndex::load(&path).is_none(), "{body}");
        }
        // A header that declares more payload than the file holds.
        for claimed in [clean.len() + 1, usize::MAX] {
            let long = frame(&clean).replacen(
                &format!(" {}\n", clean.len()),
                &format!(" {claimed}\n"),
                1,
            );
            fs::write(&path, long).unwrap();
            assert!(CorpusIndex::load(&path).is_none(), "claimed {claimed}");
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn save_is_atomic_no_tmp_left_behind() {
        let idx = tiny_index();
        let path = tmp("atomic");
        assert!(idx.save(&path));
        assert!(!path.with_extension("gnix.tmp").exists());
        let _ = fs::remove_file(&path);
    }
}
