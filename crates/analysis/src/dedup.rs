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

    // Pairwise layer-level comparison across unique representatives.
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
            // Shared weights: multiset intersection of layer checksums.
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

#[cfg(test)]
mod tests {
    use super::*;
    use gaugenn_dnn::task::Task;
    use gaugenn_dnn::zoo::{build_for_task, fine_tune, SizeClass};

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
