//! Model uniqueness and fine-tuning analysis (§4.5).
//!
//! The paper md5-checksums every model (and its weights) to find that only
//! 19.1 % of the 1,666 deployed models are unique, then checksums at layer
//! granularity to find that 9.02 % of the unique models share ≥20 % of
//! their weights with another model and 4.2 % differ in at most three
//! layers — the signature of off-the-shelf models fine-tuned in their last
//! layers.

use crate::md5::Md5;
use gaugenn_dnn::Graph;
use std::collections::{BTreeMap, BTreeSet};

/// Checksum of a serialised model (all of its files; caffe and ncnn split
/// graph and weights, and "we perform an md5 checksum on both the model
/// and weights" — §4.5 footnote 6). The files are streamed through the
/// block hasher in path order, never concatenated. Any byte container
/// works: owned, borrowed or shared.
pub fn model_checksum<B: AsRef<[u8]>>(files: &[(String, B)]) -> String {
    let mut sorted: Vec<&(String, B)> = files.iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    let mut h = Md5::new();
    for (_, bytes) in sorted {
        h.update(bytes.as_ref());
    }
    h.finalize_hex()
}

/// Per-layer weight checksums of a decoded graph: `(md5, weight_count)`
/// for every weighted layer, in topological order.
pub fn layer_checksums(graph: &Graph) -> Vec<(String, u64)> {
    graph
        .nodes
        .iter()
        .filter_map(|n| {
            let w = n.weights.as_ref()?;
            let mut h = Md5::new();
            h.update(&w.to_bytes());
            if let Some(b) = &n.bias {
                h.update(&b.to_bytes());
            }
            let count = w.len() as u64 + n.bias.as_ref().map_or(0, |b| b.len() as u64);
            Some((h.finalize_hex(), count))
        })
        .collect()
}

/// One model instance observed in the corpus.
#[derive(Debug, Clone)]
pub struct ModelEntry {
    /// Owning app package.
    pub app: String,
    /// Path inside the app.
    pub path: String,
    /// Whole-model checksum.
    pub checksum: String,
    /// Per-layer `(md5, weight_count)` pairs.
    pub layers: Vec<(String, u64)>,
}

/// Result of the uniqueness analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct DedupReport {
    /// Total model instances examined.
    pub total_instances: usize,
    /// Distinct checksums.
    pub unique_models: usize,
    /// Fraction of instances whose checksum appears in ≥2 distinct apps
    /// (§8.1: "close to 80.9 % of the models are shared across two or more
    /// applications").
    pub shared_instance_fraction: f64,
    /// Of the unique models, how many share ≥20 % of their weights with at
    /// least one *other* unique model.
    pub sharing_20pct: usize,
    /// Of the unique models, how many differ from another unique model in
    /// at most three layers.
    pub diff_le3_layers: usize,
}

impl DedupReport {
    /// `unique / total` — the paper's 19.1 %.
    pub fn unique_fraction(&self) -> f64 {
        if self.total_instances == 0 {
            0.0
        } else {
            self.unique_models as f64 / self.total_instances as f64
        }
    }
}

/// Run the full §4.5 analysis over model instances.
pub fn dedup(entries: &[ModelEntry]) -> DedupReport {
    // checksum -> apps that carry it, plus a representative layer set.
    let mut by_sum: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut representative: BTreeMap<&str, &ModelEntry> = BTreeMap::new();
    for e in entries {
        by_sum.entry(&e.checksum).or_default().insert(&e.app);
        representative.entry(&e.checksum).or_insert(e);
    }
    let unique_models = by_sum.len();
    let shared_instances = entries
        .iter()
        .filter(|e| by_sum[e.checksum.as_str()].len() >= 2)
        .count();

    // Pairwise layer-level comparison across unique representatives, over
    // layer checksums interned to ids once rather than per pair.
    let profiles = LayerProfile::intern(representative.values().copied());
    let mut sharing_20pct = 0usize;
    let mut diff_le3 = 0usize;
    for (i, a) in profiles.iter().enumerate() {
        let mut shares = false;
        let mut close = false;
        for (j, b) in profiles.iter().enumerate() {
            if i == j {
                continue;
            }
            if !shares && a.weights > 0 && a.shared_with(b) as f64 / a.weights as f64 >= 0.20 {
                shares = true;
            }
            if !close && a.layers.len() == b.layers.len() && !a.layers.is_empty() {
                let differing = a
                    .layers
                    .iter()
                    .zip(&b.layers)
                    .filter(|(x, y)| x.id != y.id)
                    .count();
                close = differing > 0 && differing <= 3;
            }
            if shares && close {
                break;
            }
        }
        if shares {
            sharing_20pct += 1;
        }
        if close {
            diff_le3 += 1;
        }
    }

    DedupReport {
        total_instances: entries.len(),
        unique_models,
        shared_instance_fraction: if entries.is_empty() {
            0.0
        } else {
            shared_instances as f64 / entries.len() as f64
        },
        sharing_20pct,
        diff_le3_layers: diff_le3,
    }
}

/// One weighted layer of a [`LayerProfile`].
#[derive(Debug, Clone, Copy)]
struct Layer {
    /// Interned layer checksum.
    id: u32,
    /// Weight count.
    weights: u64,
    /// How many earlier layers of the same model carry the same checksum.
    rank: u32,
}

/// A unique model's layers with their checksums interned, plus its
/// checksum multiset, so comparing two models costs a binary search per
/// layer instead of building a map per pair.
#[derive(Debug)]
struct LayerProfile {
    /// The layers, in topological order.
    layers: Vec<Layer>,
    /// `(id, weight count of its first layer, layers carrying it)`,
    /// sorted by id.
    multiset: Vec<(u32, u64, u32)>,
    /// Total weight count.
    weights: u64,
}

impl LayerProfile {
    /// Profile each model, interning its layer checksums into ids shared
    /// by all of them.
    fn intern<'a>(models: impl Iterator<Item = &'a ModelEntry>) -> Vec<LayerProfile> {
        let mut ids: BTreeMap<&str, u32> = BTreeMap::new();
        models
            .map(|m| {
                // id -> (weight count of its first layer, layers so far)
                let mut counts: BTreeMap<u32, (u64, u32)> = BTreeMap::new();
                let layers = m
                    .layers
                    .iter()
                    .map(|(sum, weights)| {
                        let next = ids.len() as u32;
                        let id = *ids.entry(sum).or_insert(next);
                        let seen = counts.entry(id).or_insert((*weights, 0));
                        seen.1 += 1;
                        Layer {
                            id,
                            weights: *weights,
                            rank: seen.1 - 1,
                        }
                    })
                    .collect();
                LayerProfile {
                    weights: m.layers.iter().map(|(_, c)| c).sum(),
                    layers,
                    multiset: counts.into_iter().map(|(id, (w, n))| (id, w, n)).collect(),
                }
            })
            .collect()
    }

    /// Weights this model shares with `other`: the multiset intersection
    /// of their layer checksums, where this model's k-th layer with a
    /// checksum matches when `other` carries that checksum more than k
    /// times, and counts the smaller of its own weight count and that of
    /// `other`'s first layer with the checksum.
    fn shared_with(&self, other: &LayerProfile) -> u64 {
        self.layers
            .iter()
            .filter_map(|l| {
                let k = other.multiset.binary_search_by_key(&l.id, |e| e.0).ok()?;
                let (_, first_weights, occurrences) = other.multiset[k];
                (l.rank < occurrences).then(|| first_weights.min(l.weights))
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaugenn_dnn::task::Task;
    use gaugenn_dnn::zoo::{build_for_task, fine_tune, SizeClass};
    use proptest::prelude::*;

    /// The pair loop before interning: it rebuilds `b`'s checksum map
    /// for every pair. Kept to pin [`dedup`] against.
    fn dedup_reference(entries: &[ModelEntry]) -> DedupReport {
        let mut by_sum: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        let mut representative: BTreeMap<&str, &ModelEntry> = BTreeMap::new();
        for e in entries {
            by_sum.entry(&e.checksum).or_default().insert(&e.app);
            representative.entry(&e.checksum).or_insert(e);
        }
        let unique_models = by_sum.len();
        let shared_instances = entries
            .iter()
            .filter(|e| by_sum[e.checksum.as_str()].len() >= 2)
            .count();
        let uniques: Vec<&ModelEntry> = representative.values().copied().collect();
        let mut sharing_20pct = 0usize;
        let mut diff_le3 = 0usize;
        for (i, a) in uniques.iter().enumerate() {
            let a_weights: u64 = a.layers.iter().map(|(_, c)| c).sum();
            let mut shares = false;
            let mut close = false;
            for (j, b) in uniques.iter().enumerate() {
                if i == j {
                    continue;
                }
                let mut b_counts: BTreeMap<&str, (u64, u32)> = BTreeMap::new();
                for (sum, c) in &b.layers {
                    let e = b_counts.entry(sum).or_insert((*c, 0));
                    e.1 += 1;
                }
                let mut shared: u64 = 0;
                let mut a_seen: BTreeMap<&str, u32> = BTreeMap::new();
                for (sum, c) in &a.layers {
                    let seen = a_seen.entry(sum).or_default();
                    if let Some((count, avail)) = b_counts.get(sum.as_str()) {
                        if *seen < *avail {
                            shared += count.min(c);
                        }
                    }
                    *seen += 1;
                }
                if a_weights > 0 && shared as f64 / a_weights as f64 >= 0.20 {
                    shares = true;
                }
                if a.layers.len() == b.layers.len() && !a.layers.is_empty() {
                    let differing = a
                        .layers
                        .iter()
                        .zip(&b.layers)
                        .filter(|(x, y)| x.0 != y.0)
                        .count();
                    if differing > 0 && differing <= 3 {
                        close = true;
                    }
                }
                if shares && close {
                    break;
                }
            }
            if shares {
                sharing_20pct += 1;
            }
            if close {
                diff_le3 += 1;
            }
        }
        DedupReport {
            total_instances: entries.len(),
            unique_models,
            shared_instance_fraction: if entries.is_empty() {
                0.0
            } else {
                shared_instances as f64 / entries.len() as f64
            },
            sharing_20pct,
            diff_le3_layers: diff_le3,
        }
    }

    fn layers_of(raw: &[(u8, u64)]) -> Vec<(String, u64)> {
        raw.iter()
            .map(|&(sum, c)| (format!("layer{sum}"), c))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn interned_pairs_match_the_reference_loop(
            base in prop::collection::vec((0u8..6, 0u64..5), 0..10),
            models in prop::collection::vec(
                (
                    0u8..4,
                    any::<bool>(),
                    prop::collection::vec((0u8..6, 0u64..5), 0..10),
                    prop::collection::vec((0usize..10, 0u8..6), 0..=5),
                ),
                0..14,
            ),
        ) {
            // A small checksum alphabet repeats checksums within a model
            // and across models, with weight counts that disagree; half
            // the models are the base with 0-5 positions rewritten, so
            // equal-length models differ in few layers; empty layer
            // lists come from an empty base or an empty draw.
            let entries: Vec<ModelEntry> = models
                .iter()
                .map(|(app, from_base, own, edits)| {
                    let mut layers = if *from_base { base.clone() } else { own.clone() };
                    if *from_base && !layers.is_empty() {
                        for &(pos, sum) in edits {
                            let n = layers.len();
                            layers[pos % n].0 = sum;
                        }
                    }
                    let layers = layers_of(&layers);
                    // The whole-model checksum follows the layers, salted
                    // by the app half the time, so identical layer lists
                    // appear both as one unique model and as several.
                    let salt = if app % 2 == 0 { String::new() } else { format!("{app}") };
                    ModelEntry {
                        app: format!("com.app{app}"),
                        path: "m.tflite".into(),
                        checksum: format!("{layers:?}{salt}"),
                        layers,
                    }
                })
                .collect();
            prop_assert_eq!(dedup(&entries), dedup_reference(&entries));
        }
    }

    #[test]
    fn interned_pairs_match_the_reference_on_edge_cases() {
        let entry = |app: &str, sum: &str, raw: &[(u8, u64)]| ModelEntry {
            app: app.into(),
            path: "m".into(),
            checksum: sum.into(),
            layers: layers_of(raw),
        };
        let cases = [
            // A checksum repeated within a model, more often than the
            // other model carries it.
            vec![
                entry("a", "x", &[(1, 10), (1, 10), (1, 10), (2, 1)]),
                entry("b", "y", &[(1, 10), (3, 5), (4, 5), (2, 1)]),
            ],
            // One checksum with different weight counts.
            vec![
                entry("a", "x", &[(1, 3), (2, 50)]),
                entry("b", "y", &[(1, 40), (2, 2)]),
            ],
            // Equal length, differing in zero positions but distinct
            // models, and in exactly three and four.
            vec![
                entry("a", "x", &[(1, 1), (2, 1), (3, 1), (4, 1), (5, 1)]),
                entry("b", "y", &[(1, 1), (2, 1), (3, 1), (4, 1), (5, 1)]),
                entry("c", "z", &[(1, 1), (0, 1), (0, 1), (0, 1), (5, 1)]),
                entry("d", "w", &[(0, 1), (0, 1), (0, 1), (0, 1), (5, 1)]),
            ],
            // Empty layer lists, alone and beside weighted models.
            vec![entry("a", "x", &[]), entry("b", "y", &[])],
            vec![
                entry("a", "x", &[]),
                entry("b", "y", &[(1, 5)]),
                entry("c", "z", &[(1, 5)]),
            ],
        ];
        for (i, entries) in cases.iter().enumerate() {
            assert_eq!(dedup(entries), dedup_reference(entries), "case {i}");
        }
    }

    fn entry(app: &str, path: &str, g: &Graph) -> ModelEntry {
        let bytes = gaugenn_modelfmt::encode(g, gaugenn_modelfmt::Framework::TfLite).unwrap();
        ModelEntry {
            app: app.into(),
            path: path.into(),
            checksum: model_checksum(&bytes.files),
            layers: layer_checksums(g),
        }
    }

    #[test]
    fn identical_models_dedup() {
        let g = build_for_task(Task::MovementTracking, 1, SizeClass::Small, true).graph;
        let entries = vec![
            entry("com.a", "m.tflite", &g),
            entry("com.b", "m.tflite", &g),
            entry("com.c", "other.tflite", &g),
        ];
        let r = dedup(&entries);
        assert_eq!(r.total_instances, 3);
        assert_eq!(r.unique_models, 1);
        assert!((r.shared_instance_fraction - 1.0).abs() < 1e-12);
        assert!((r.unique_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn distinct_models_stay_distinct() {
        let g1 = build_for_task(Task::MovementTracking, 1, SizeClass::Small, true).graph;
        let g2 = build_for_task(Task::MovementTracking, 2, SizeClass::Small, true).graph;
        let r = dedup(&[entry("com.a", "a", &g1), entry("com.b", "b", &g2)]);
        assert_eq!(r.unique_models, 2);
        assert_eq!(r.shared_instance_fraction, 0.0);
    }

    #[test]
    fn finetuned_tail_detected_as_close_and_sharing() {
        let base = build_for_task(Task::ImageClassification, 3, SizeClass::Small, true).graph;
        let ft = fine_tune(&base, 2, 99);
        let r = dedup(&[entry("com.a", "base", &base), entry("com.b", "ft", &ft)]);
        assert_eq!(r.unique_models, 2);
        assert_eq!(r.diff_le3_layers, 2, "both sides of the lineage are close");
        assert_eq!(r.sharing_20pct, 2, "trunk weights dominate, both share >=20%");
    }

    #[test]
    fn heavily_retrained_shares_but_not_close() {
        let base = build_for_task(Task::ImageClassification, 4, SizeClass::Small, true).graph;
        // Retrain many layers: still shares the early trunk, but differs in
        // more than three layers.
        let ft = fine_tune(&base, 8, 100);
        let r = dedup(&[entry("com.a", "base", &base), entry("com.b", "ft", &ft)]);
        assert_eq!(r.diff_le3_layers, 0);
        assert!(r.sharing_20pct >= 1);
    }

    #[test]
    fn checksum_is_order_insensitive_across_files() {
        let files_a = vec![
            ("a.bin".to_string(), vec![1u8, 2]),
            ("b.bin".to_string(), vec![3u8]),
        ];
        let files_b = vec![
            ("b.bin".to_string(), vec![3u8]),
            ("a.bin".to_string(), vec![1u8, 2]),
        ];
        assert_eq!(model_checksum(&files_a), model_checksum(&files_b));
    }

    #[test]
    fn layer_checksums_cover_weighted_layers_only() {
        let g = build_for_task(Task::MovementTracking, 5, SizeClass::Small, true).graph;
        let sums = layer_checksums(&g);
        let weighted = g.nodes.iter().filter(|n| n.weights.is_some()).count();
        assert_eq!(sums.len(), weighted);
        assert!(sums.iter().all(|(h, c)| h.len() == 32 && *c > 0));
    }

    #[test]
    fn empty_input() {
        let r = dedup(&[]);
        assert_eq!(r.total_instances, 0);
        assert_eq!(r.unique_fraction(), 0.0);
    }
}
