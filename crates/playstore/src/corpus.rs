//! Deterministic store-corpus generator.
//!
//! Produces the app population and the unique-model pool for a snapshot.
//! The generator *plants* the structures the paper measures — duplication,
//! fine-tuning lineages, quantisation adoption, weight sparsity, cloud-API
//! calls, hardware-acceleration markers, obfuscated models — but the
//! pipeline never reads these fields: every statistic is re-derived from
//! the binary APKs served over TCP.

use crate::categories::{apportion, CATEGORIES};
use gaugenn_apk::apk::ApkBuilder;
use gaugenn_apk::crc32::Checksummed;
use gaugenn_dnn::quant::{apply, prune_graph, QuantMode};
use gaugenn_dnn::task::Task;
use gaugenn_dnn::zoo::{build_for_task, fine_tune, SizeClass};
use gaugenn_dnn::Graph;
use gaugenn_modelfmt::{encode, Framework, ModelArtifact};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::borrow::Borrow;
use std::sync::Arc;

/// One model artifact's files as the APK assembler takes them: each
/// file's bytes shared and already checksummed. The store memoises one
/// per artifact, so a model file is checksummed once per store and every
/// APK that ships it shares its bytes.
pub type ModelFiles = Arc<[(String, Checksummed)]>;

/// Share and checksum an artifact's files (one copy and one CRC pass per
/// file).
pub fn model_files(artifact: &ModelArtifact) -> ModelFiles {
    artifact
        .files
        .iter()
        .map(|(name, bytes)| (name.clone(), Checksummed::new(bytes.as_slice())))
        .collect()
}

/// Which snapshot to generate (§4.1: 14 Feb 2020 / 4 Apr 2021).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Snapshot {
    /// The February 2020 snapshot.
    Y2020,
    /// The April 2021 snapshot.
    Y2021,
}

impl Snapshot {
    /// Display label.
    pub const fn label(self) -> &'static str {
        match self {
            Snapshot::Y2020 => "Feb 2020",
            Snapshot::Y2021 => "Apr 2021",
        }
    }
}

/// Corpus size profile. `Paper` reproduces the study's counts; the smaller
/// profiles keep tests and examples fast while preserving every structural
/// property.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorpusScale {
    /// ~50 apps; seconds to crawl. For unit/integration tests.
    Tiny,
    /// ~400 apps. For examples.
    Small,
    /// The paper's 16.6 k apps / 1,666 models. For the repro binary.
    Paper,
}

/// Numeric targets for one (scale, snapshot) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Targets {
    /// Total apps crawled.
    pub total_apps: u32,
    /// Apps that include ML libraries (Table 2 "apps with ML").
    pub ml_lib_apps: u32,
    /// Of those, apps whose models are obfuscated/encrypted (tracked but
    /// not benchmarkable).
    pub obfuscated_apps: u32,
    /// Total model instances across apps.
    pub model_instances: u32,
    /// Distinct models (by checksum).
    pub unique_models: u32,
    /// Apps invoking cloud ML APIs.
    pub cloud_apps: u32,
    /// Of the cloud apps, how many use Google (rest use Amazon).
    pub cloud_google: u32,
    /// Apps using the NNAPI delegate.
    pub nnapi_apps: u32,
    /// Apps using XNNPACK.
    pub xnnpack_apps: u32,
    /// Apps shipping SNPE `.dlc` models (alongside TFLite twins, §6.3).
    pub snpe_apps: u32,
}

impl Targets {
    /// Targets for a scale/snapshot pair.
    pub fn for_scale(scale: CorpusScale, snapshot: Snapshot) -> Targets {
        use CorpusScale::*;
        use Snapshot::*;
        match (scale, snapshot) {
            (Paper, Y2021) => Targets {
                total_apps: 16_653,
                ml_lib_apps: 377,
                obfuscated_apps: 35,
                model_instances: 1_666,
                unique_models: 318,
                cloud_apps: 524,
                cloud_google: 452,
                nnapi_apps: 71,
                xnnpack_apps: 1,
                snpe_apps: 3,
            },
            (Paper, Y2020) => Targets {
                total_apps: 16_542,
                ml_lib_apps: 236,
                obfuscated_apps: 22,
                model_instances: 821,
                unique_models: 158,
                cloud_apps: 225,
                cloud_google: 194,
                nnapi_apps: 25,
                xnnpack_apps: 0,
                snpe_apps: 1,
            },
            (Small, Y2021) => Targets {
                total_apps: 380,
                ml_lib_apps: 42,
                obfuscated_apps: 4,
                model_instances: 170,
                unique_models: 34,
                cloud_apps: 52,
                cloud_google: 45,
                nnapi_apps: 8,
                xnnpack_apps: 1,
                snpe_apps: 1,
            },
            (Small, Y2020) => Targets {
                total_apps: 360,
                ml_lib_apps: 26,
                obfuscated_apps: 2,
                model_instances: 84,
                unique_models: 17,
                cloud_apps: 22,
                cloud_google: 19,
                nnapi_apps: 3,
                xnnpack_apps: 0,
                snpe_apps: 1,
            },
            (Tiny, Y2021) => Targets {
                total_apps: 52,
                ml_lib_apps: 11,
                obfuscated_apps: 1,
                model_instances: 26,
                unique_models: 10,
                cloud_apps: 7,
                cloud_google: 6,
                nnapi_apps: 2,
                xnnpack_apps: 1,
                snpe_apps: 1,
            },
            (Tiny, Y2020) => Targets {
                total_apps: 46,
                ml_lib_apps: 7,
                obfuscated_apps: 1,
                model_instances: 13,
                unique_models: 5,
                cloud_apps: 3,
                cloud_google: 3,
                nnapi_apps: 1,
                xnnpack_apps: 0,
                snpe_apps: 0,
            },
        }
    }
}

/// A unique model in the cross-snapshot pool. Pool ids are stable across
/// snapshots so Fig. 5's add/remove diff is meaningful.
#[derive(Debug, Clone, PartialEq)]
pub struct UniqueModel {
    /// Pool id.
    pub id: usize,
    /// Ground-truth task (never serialised into the artifact).
    pub task: Task,
    /// Framework the artifact is encoded in.
    pub framework: Framework,
    /// Weight seed.
    pub seed: u64,
    /// Size class.
    pub size: SizeClass,
    /// Quantisation applied (§6.1 populations).
    pub quant: QuantMode,
    /// Whether the file name leaks the task (§4.4: ~67 % do).
    pub hinted_name: bool,
    /// When `Some((base, layers))`, this model is `base` fine-tuned in its
    /// last `layers` weighted layers (§4.5 transfer-learning lineages).
    pub fine_tune_of: Option<(usize, usize)>,
}

impl UniqueModel {
    /// Build the graph (deterministic in `self`).
    pub fn graph(&self, pool: &[UniqueModel]) -> Graph {
        let base = match self.fine_tune_of {
            Some((base_id, layers)) => {
                let base = pool[base_id].base_graph();
                fine_tune(&base, layers, self.seed)
            }
            None => self.base_graph(),
        };
        // Plant the corpus-wide near-zero weight fraction (§6.1: 3.15 %).
        let sparse = prune_graph(&base, 0.0315);
        apply(&sparse, self.quant)
    }

    fn base_graph(&self) -> Graph {
        build_for_task(self.task, self.seed, self.size, self.hinted_name).graph
    }

    /// Serialise the artifact (deterministic).
    pub fn artifact(&self, pool: &[UniqueModel]) -> ModelArtifact {
        let g = self.graph(pool);
        // gaugelint: allow(unwrap-in-fault-path) — provably infallible: pool generation only draws frameworks from the encoder roster
        encode(&g, self.framework).expect("pool frameworks all have encoders")
    }
}

/// Cloud ML API providers tracked by gaugeNN (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CloudProvider {
    /// Google Firebase ML.
    GoogleFirebase,
    /// Google Cloud AI APIs.
    GoogleCloud,
    /// Amazon AWS ML services.
    AmazonAws,
}

/// ML payload of an app.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MlSpec {
    /// Unique-model pool ids embedded in the APK.
    pub model_ids: Vec<usize>,
    /// Frameworks whose libraries ship with the app.
    pub frameworks: Vec<Framework>,
    /// Uses the NNAPI delegate.
    pub uses_nnapi: bool,
    /// Uses XNNPACK.
    pub uses_xnnpack: bool,
    /// Uses SNPE (ships `.dlc` twins of its TFLite models).
    pub uses_snpe: bool,
    /// Models are shipped encrypted (fail validation; app still counted as
    /// ML-powered via library inclusion, §3.1).
    pub obfuscated: bool,
}

/// One store app.
#[derive(Debug, Clone, PartialEq)]
pub struct AppSpec {
    /// Package name.
    pub package: String,
    /// Store title.
    pub title: String,
    /// Category index into [`CATEGORIES`].
    pub category: usize,
    /// Download count (power-law, §4.1).
    pub downloads: u64,
    /// Star rating.
    pub rating: f32,
    /// Version code.
    pub version_code: u32,
    /// On-device ML payload, if any.
    pub ml: Option<MlSpec>,
    /// Cloud ML APIs invoked from app code, if any.
    pub cloud: Vec<CloudProvider>,
    /// Ships an OBB expansion file (textures only — the §4.2 measurement).
    pub has_obb: bool,
    /// Ships as a bundle with asset packs (no models — §4.2).
    pub has_bundle: bool,
}

/// A full snapshot corpus.
#[derive(Debug, Clone)]
pub struct StoreCorpus {
    /// Which snapshot.
    pub snapshot: Snapshot,
    /// Scale profile.
    pub scale: CorpusScale,
    /// Generator seed.
    pub seed: u64,
    /// The targets used.
    pub targets: Targets,
    /// All apps, grouped by category in store-rank order.
    pub apps: Vec<AppSpec>,
    /// The cross-snapshot unique-model pool (shared ids across snapshots).
    pub pool: Vec<UniqueModel>,
}

/// Pool layout shared by the two snapshots of a scale: ids
/// `[0, removed)` exist only in 2020, `[removed, removed+shared)` in both,
/// and the rest only in 2021.
fn pool_layout(scale: CorpusScale) -> (usize, usize, usize) {
    let t20 = Targets::for_scale(scale, Snapshot::Y2020);
    let t21 = Targets::for_scale(scale, Snapshot::Y2021);
    let removed = (t20.unique_models as usize * 16 / 100).max(1);
    let shared = t20.unique_models as usize - removed;
    let new21 = t21.unique_models as usize - shared;
    (removed, shared, new21)
}

/// Table 3 task sampling weights (per mille of model instances).
const TASK_WEIGHTS: [(Task, u32); 23] = [
    (Task::ObjectDetection, 473),
    (Task::FaceDetection, 118),
    (Task::ContourDetection, 115),
    (Task::TextRecognition, 111),
    (Task::AugmentedReality, 31),
    (Task::SemanticSegmentation, 8),
    (Task::ObjectRecognition, 8),
    (Task::PoseEstimation, 5),
    (Task::PhotoBeauty, 5),
    (Task::ImageClassification, 4),
    (Task::NudityDetection, 3),
    (Task::HairReconstruction, 3),
    (Task::OtherVision, 13),
    (Task::AutoComplete, 5),
    (Task::SentimentPrediction, 2),
    (Task::ContentFilter, 1),
    (Task::TextClassification, 1),
    (Task::Translation, 1),
    (Task::SoundRecognition, 7),
    (Task::SpeechRecognition, 1),
    (Task::KeywordDetection, 1),
    (Task::MovementTracking, 2),
    (Task::CrashDetection, 1),
];

fn sample_task(rng: &mut StdRng) -> Task {
    let total: u32 = TASK_WEIGHTS.iter().map(|(_, w)| w).sum();
    let mut pick = rng.gen_range(0..total);
    for &(task, w) in &TASK_WEIGHTS {
        if pick < w {
            return task;
        }
        pick -= w;
    }
    Task::ObjectDetection
}

fn sample_framework(rng: &mut StdRng) -> Framework {
    // §4.3 instance split, excluding the explicitly-placed TF/SNPE models:
    // TFLite 86 %, caffe 11 %, ncnn 3 %.
    let p: f64 = rng.gen();
    if p < 0.86 {
        Framework::TfLite
    } else if p < 0.97 {
        Framework::Caffe
    } else {
        Framework::Ncnn
    }
}

/// Generate the cross-snapshot unique-model pool for a scale.
///
/// Both snapshots must see the *same* pool, so this depends only on
/// `(scale, seed)`.
pub fn build_pool(scale: CorpusScale, seed: u64) -> Vec<UniqueModel> {
    let (removed, shared, new21) = pool_layout(scale);
    let total = removed + shared + new21;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB00C_0FFE);
    let mut pool: Vec<UniqueModel> = Vec::with_capacity(total);
    for id in 0..total {
        // Mid-popularity slots pin one model per §5.2.2 scenario task (so
        // even tiny corpora can run the Table 4 analysis) plus a sensor
        // model, without distorting the head of the popularity zipf.
        let mid = removed + (shared + new21) / 2;
        let task = match id {
            // The duplication zipf head: FSSD object detection and
            // BlazeFace, the two named most-popular models of §4.5.
            i if i == removed => Task::ObjectDetection,
            i if i == removed + 1 => Task::FaceDetection,
            i if i == mid => Task::SemanticSegmentation,
            i if i == mid + 1 => Task::AutoComplete,
            i if i == mid + 2 => Task::SoundRecognition,
            i if i == mid + 3 => Task::MovementTracking,
            _ => sample_task(&mut rng),
        };
        let framework = if id == mid + 4 || id == mid + 5 {
            // The corpus's handful of plain-TensorFlow models (§4.3
            // reports just 5 TF instances in 1,666).
            Framework::TensorFlow
        } else {
            sample_framework(&mut rng)
        };
        let size = match rng.gen_range(0..10) {
            0..=5 => SizeClass::Small,
            6..=8 => SizeClass::Medium,
            _ => SizeClass::Large,
        };
        // §6.1: ~10.3 % fully-quantised (dequantize layer + int8 acts),
        // ~10 % more weight-only int8 (→ 20.3 % int8 weights overall).
        let q: f64 = rng.gen();
        let quant = if q < 0.103 {
            QuantMode::Full
        } else if q < 0.203 {
            QuantMode::WeightOnly
        } else {
            QuantMode::None
        };
        let hinted_name = rng.gen_bool(0.67);
        pool.push(UniqueModel {
            id,
            task,
            framework,
            seed: seed
                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(id as u64),
            size,
            quant,
            hinted_name,
            fine_tune_of: None,
        });
    }
    // §4.5 fine-tuning lineages: ~9 % of the pool share ≥20 % of weights
    // with a base model; ~4.2 % differ in at most three layers.
    let lineage_count = (total * 9 / 100).max(1);
    let small_diff_count = (total * 42 / 1000).max(1).min(lineage_count);
    // The pinned ids (zipf head + scenario/sensor/TF slots) keep their
    // roles.
    let mid = removed + (shared + new21) / 2;
    let mut candidates: Vec<usize> = (1..total)
        .filter(|&i| !(removed..=removed + 1).contains(&i) && !(mid..mid + 6).contains(&i))
        .collect();
    candidates.shuffle(&mut rng);
    for (k, &id) in candidates.iter().take(lineage_count).enumerate() {
        // Base must be a different pool entry that is itself not a
        // fine-tune (keeps lineages one level deep) and shares the
        // framework (a caffe model fine-tuned from a TFLite one would be
        // odd).
        let base = (0..total)
            .find(|&b| b != id && pool[b].fine_tune_of.is_none())
            // gaugelint: allow(unwrap-in-fault-path) — provably infallible: every CorpusScale pools ≥ 2 entries and fine-tunes are a strict subset
            .expect("pool has at least two entries");
        let layers = if k < small_diff_count {
            1 + (k % 3) // differ in up to three layers
        } else {
            6 + (k % 4) // bigger heads retrained, still sharing the trunk
        };
        // The variant reuses its base's task/size/framework so weights
        // actually align layer-for-layer.
        let (task, size, framework) = (pool[base].task, pool[base].size, pool[base].framework);
        let entry = &mut pool[id];
        entry.task = task;
        entry.size = size;
        entry.framework = framework;
        entry.quant = QuantMode::None; // quantising would hide the shared bytes
        entry.fine_tune_of = Some((base, layers));
    }
    pool
}

/// Ids of the pool visible to a snapshot.
pub fn pool_ids_for(scale: CorpusScale, snapshot: Snapshot) -> std::ops::Range<usize> {
    let (removed, shared, new21) = pool_layout(scale);
    match snapshot {
        Snapshot::Y2020 => 0..removed + shared,
        Snapshot::Y2021 => removed..removed + shared + new21,
    }
}

const WORDS_A: [&str; 24] = [
    "pixel", "swift", "nova", "lumen", "echo", "zen", "astra", "flux", "orbit", "prism", "vivid",
    "cobalt", "ember", "quill", "raven", "sol", "terra", "ultra", "verve", "wisp", "aero", "bliss",
    "crest", "drift",
];
const WORDS_B: [&str; 24] = [
    "chat", "pay", "cam", "beauty", "scan", "fit", "care", "shop", "maps", "tunes", "news",
    "sport", "trip", "date", "baby", "book", "food", "style", "auto", "home", "sky", "party",
    "toon", "lab",
];

fn app_identity(rng: &mut StdRng, category: &str, ordinal: usize) -> (String, String) {
    let a = WORDS_A[rng.gen_range(0..WORDS_A.len())];
    let b = WORDS_B[rng.gen_range(0..WORDS_B.len())];
    let cat_slug: String = category
        .chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect();
    let package = format!("com.{a}{b}.{cat_slug}{ordinal}");
    let title = format!(
        "{}{} {}",
        a[..1].to_uppercase(),
        &a[1..],
        b[..1].to_uppercase().to_string() + &b[1..]
    );
    (package, title)
}

/// Clamp `alloc[i]` to `caps[i]`, redistributing the overflow to entries
/// with remaining room (first-fit, deterministic). The total is preserved
/// as long as `sum(caps) >= sum(alloc)`.
fn fit_to_caps(mut alloc: Vec<u32>, caps: &[u32]) -> Vec<u32> {
    let mut overflow = 0u32;
    for (a, &c) in alloc.iter_mut().zip(caps) {
        if *a > c {
            overflow += *a - c;
            *a = c;
        }
    }
    for (a, &c) in alloc.iter_mut().zip(caps) {
        if overflow == 0 {
            break;
        }
        let room = c - *a;
        let take = room.min(overflow);
        *a += take;
        overflow -= take;
    }
    alloc
}

/// Zipf-ish rank sampler over `n` items: rank r with weight 1/(r+1).
fn zipf(rng: &mut StdRng, n: usize) -> usize {
    debug_assert!(n > 0);
    let total: f64 = (0..n).map(|r| 1.0 / (r + 1) as f64).sum();
    let mut pick = rng.gen::<f64>() * total;
    for r in 0..n {
        let w = 1.0 / (r + 1) as f64;
        if pick < w {
            return r;
        }
        pick -= w;
    }
    n - 1
}

/// Generate a snapshot corpus.
pub fn generate(scale: CorpusScale, snapshot: Snapshot, seed: u64) -> StoreCorpus {
    let targets = Targets::for_scale(scale, snapshot);
    let pool = build_pool(scale, seed);
    let visible = pool_ids_for(scale, snapshot);
    let visible_ids: Vec<usize> = visible.clone().collect();
    let mut rng = StdRng::seed_from_u64(seed ^ match snapshot {
        Snapshot::Y2020 => 0x2020,
        Snapshot::Y2021 => 0x2021,
    });

    // Per-category app counts (capped at the store's 500-per-page limit).
    let n_cat = CATEGORIES.len();
    let app_counts = apportion(&vec![100u32; n_cat], targets.total_apps)
        .into_iter()
        .map(|c| c.min(500))
        .collect::<Vec<u32>>();

    // Per-category model-instance counts from the Fig. 4/5 weights.
    let weights: Vec<u32> = CATEGORIES
        .iter()
        .map(|c| match snapshot {
            Snapshot::Y2020 => c.models_2020,
            Snapshot::Y2021 => c.models_2021,
        })
        .collect();
    let instance_counts = apportion(&weights, targets.model_instances);

    // Per-category benchmarkable-ML-app counts: instances / ~4.9 avg.
    // Allocations are clamped to the category's app count (small scales
    // have categories with one or two apps) with overflow pushed to
    // categories that still have room.
    let ml_app_total = targets.ml_lib_apps - targets.obfuscated_apps;
    let ml_app_counts = fit_to_caps(
        apportion(&instance_counts, ml_app_total),
        &app_counts,
    );
    let room_after_ml: Vec<u32> = app_counts
        .iter()
        .zip(&ml_app_counts)
        .map(|(&c, &m)| c - m)
        .collect();
    let obf_counts = fit_to_caps(
        apportion(&instance_counts, targets.obfuscated_apps),
        &room_after_ml,
    );
    let cloud_weights: Vec<u32> = CATEGORIES.iter().map(|c| c.cloud_apps).collect();
    let cloud_counts = fit_to_caps(apportion(&cloud_weights, targets.cloud_apps), &app_counts);

    let mut apps = Vec::with_capacity(targets.total_apps as usize);
    let mut nnapi_left = targets.nnapi_apps;
    let mut xnn_left = targets.xnnpack_apps;
    let mut snpe_left = targets.snpe_apps;
    let mut google_cloud_left = targets.cloud_google;
    let mut cloud_left = targets.cloud_apps;

    for (cat, &count) in app_counts.iter().enumerate() {
        let cat_name = CATEGORIES[cat].name;
        let ml_apps = ml_app_counts[cat] as usize;
        let obf_apps = obf_counts[cat] as usize;
        let cloud_apps = cloud_counts[cat] as usize;
        // Spread this category's model instances over its ML apps.
        let mut per_app = vec![0u32; ml_apps];
        if ml_apps > 0 {
            for _ in 0..instance_counts[cat] {
                let a = rng.gen_range(0..ml_apps);
                per_app[a] += 1;
            }
            // Every benchmarkable ML app gets at least one model.
            for slot in per_app.iter_mut() {
                if *slot == 0 {
                    *slot = 1;
                }
            }
        }
        // `ordinal` is deliberately an index: it both ranks the app within
        // the category and selects its per-app model budget.
        #[allow(clippy::needless_range_loop)]
        for ordinal in 0..count as usize {
            let (package, title) = app_identity(&mut rng, cat_name, ordinal);
            let downloads = 10u64.pow(rng.gen_range(3..9)) * rng.gen_range(1..10) as u64;
            let rating = 3.0 + rng.gen::<f32>() * 2.0;
            let version_code = rng.gen_range(1..400);
            let mut ml = None;
            if ordinal < ml_apps {
                // Benchmarkable ML app: draw its models from the visible
                // pool with zipf popularity (duplication structure §4.5).
                let mut ids: Vec<usize> = Vec::new();
                for _ in 0..per_app[ordinal] {
                    // Retry duplicate draws a few times: an app ships each
                    // model once, and the instance totals should track the
                    // per-category plan.
                    for _attempt in 0..8 {
                        let rank = zipf(&mut rng, visible_ids.len());
                        let id = visible_ids[rank];
                        if !ids.contains(&id) {
                            ids.push(id);
                            break;
                        }
                    }
                }
                if ids.is_empty() {
                    ids.push(visible_ids[zipf(&mut rng, visible_ids.len())]);
                }
                let mut frameworks: Vec<Framework> =
                    ids.iter().map(|&i| pool[i].framework).collect();
                frameworks.sort();
                frameworks.dedup();
                let uses_snpe = snpe_left > 0;
                if uses_snpe {
                    snpe_left -= 1;
                }
                let uses_nnapi = nnapi_left > 0 && rng.gen_bool(0.5);
                if uses_nnapi {
                    nnapi_left -= 1;
                }
                let uses_xnnpack = xnn_left > 0 && rng.gen_bool(0.3);
                if uses_xnnpack {
                    xnn_left -= 1;
                }
                ml = Some(MlSpec {
                    model_ids: ids,
                    frameworks,
                    uses_nnapi,
                    uses_xnnpack,
                    uses_snpe,
                    obfuscated: false,
                });
            } else if ordinal < ml_apps + obf_apps {
                // Obfuscated-model app: library present, models encrypted.
                ml = Some(MlSpec {
                    model_ids: vec![visible_ids[zipf(&mut rng, visible_ids.len())]],
                    frameworks: vec![Framework::TfLite],
                    uses_nnapi: false,
                    uses_xnnpack: false,
                    uses_snpe: false,
                    obfuscated: true,
                });
            }
            let mut cloud = Vec::new();
            if ordinal < cloud_apps {
                // Interleave providers so Amazon apps appear across
                // categories (Fig. 15), while still hitting the global
                // Google/Amazon split exactly.
                let amazon_left = cloud_left - google_cloud_left.min(cloud_left);
                let p_google = if cloud_left == 0 {
                    0.0
                } else {
                    google_cloud_left as f64 / cloud_left as f64
                };
                cloud_left = cloud_left.saturating_sub(1);
                if (rng.gen::<f64>() < p_google && google_cloud_left > 0) || amazon_left == 0 {
                    google_cloud_left -= 1;
                    cloud.push(if rng.gen_bool(0.6) {
                        CloudProvider::GoogleFirebase
                    } else {
                        CloudProvider::GoogleCloud
                    });
                } else {
                    cloud.push(CloudProvider::AmazonAws);
                }
            }
            let has_obb = ml.is_none() && rng.gen_bool(0.02);
            let has_bundle = ml.is_none() && !has_obb && rng.gen_bool(0.02);
            apps.push(AppSpec {
                package,
                title,
                category: cat,
                downloads,
                rating,
                version_code,
                ml,
                cloud,
                has_obb,
                has_bundle,
            });
        }
    }

    StoreCorpus {
        snapshot,
        scale,
        seed,
        targets,
        apps,
        pool,
    }
}

impl StoreCorpus {
    /// Generate with default corpus seed 1402 ('20) / 404 ('21)-agnostic:
    /// both snapshots of a study must share the same seed so the pool
    /// lines up.
    pub fn generate(scale: CorpusScale, snapshot: Snapshot, seed: u64) -> StoreCorpus {
        generate(scale, snapshot, seed)
    }

    /// Build the APK for an app (deterministic; models resolved from the
    /// pool through `artifact_of`). Each call shares and checksums the
    /// artifacts' files afresh; the store instead memoises them as
    /// [`ModelFiles`] and calls [`StoreCorpus::assemble_apk`].
    pub fn build_apk<A: Borrow<ModelArtifact>>(
        &self,
        app: &AppSpec,
        artifact_of: &mut dyn FnMut(usize) -> A,
    ) -> Vec<u8> {
        self.assemble_apk(app, &mut |id| model_files(artifact_of(id).borrow()))
            .0
    }

    /// Assemble the APK for an app and return it with its CRC-32: the one
    /// assembler behind [`StoreCorpus::build_apk`] and the store's APK
    /// and bundle routes. Model files come from `files_of` shared and
    /// checksummed, so an APK neither copies them into entries of its
    /// own nor reads them for a CRC; only obfuscated copies and the
    /// generated entries (dex, manifest, native libs) are checksummed
    /// here.
    pub fn assemble_apk(
        &self,
        app: &AppSpec,
        files_of: &mut dyn FnMut(usize) -> ModelFiles,
    ) -> (Vec<u8>, u32) {
        let mut b = ApkBuilder::new(app.package.clone(), app.version_code);
        b.add_code_string(format!("title:{}", app.title));
        // Cloud API call sites (§3.2 string matching).
        for c in &app.cloud {
            match c {
                CloudProvider::GoogleFirebase => {
                    b.add_class_ref("com.google.firebase.ml.vision.FirebaseVision");
                    b.add_code_string("com.google.firebase.ml.modeldownloader");
                }
                CloudProvider::GoogleCloud => {
                    b.add_class_ref("com.google.cloud.vision.v1.ImageAnnotatorClient");
                }
                CloudProvider::AmazonAws => {
                    b.add_class_ref("com.amazonaws.services.rekognition.AmazonRekognitionClient");
                }
            }
        }
        match &app.ml {
            Some(ml) => {
                for fw in &ml.frameworks {
                    add_framework_markers(&mut b, *fw);
                }
                if ml.uses_nnapi {
                    b.add_class_ref("org.tensorflow.lite.nnapi.NnApiDelegate");
                }
                if ml.uses_xnnpack {
                    b.add_code_string("TFLITE_ENABLE_XNNPACK");
                    let _ = b.add_native_lib("libxnnpack.so", &["xnn_initialize"]);
                }
                if ml.uses_snpe {
                    b.add_class_ref("com.qualcomm.qti.snpe.NeuralNetwork");
                    let _ = b.add_native_lib("libSNPE.so", &["Snpe_DlContainer_Open"]);
                }
                let mut used_names: Vec<String> = Vec::new();
                for (k, &mid) in ml.model_ids.iter().enumerate() {
                    let files = files_of(mid);
                    for (name, file) in files.iter() {
                        let mut entry = name.clone();
                        if used_names.contains(&entry) {
                            entry = format!("v{k}_{entry}");
                        }
                        used_names.push(entry.clone());
                        let _ = if ml.obfuscated {
                            // "Encryption": the file keeps its extension but
                            // loses its signature — exactly the population
                            // gaugeNN can detect only via library inclusion.
                            b.add_asset(&entry, file.bytes().iter().map(|&x| x ^ 0x5A).collect())
                        } else {
                            b.add_shared_asset(&entry, file.clone())
                        };
                    }
                    if ml.uses_snpe && !ml.obfuscated && k == 0 {
                        // SNPE apps "deploy both a TFLite and dlc variants of
                        // the same model" (§6.3) — one dual-format model per
                        // such app.
                        let g = self.pool[mid].graph(&self.pool);
                        if let Ok(dlc) = gaugenn_modelfmt::encode(&g, Framework::Snpe) {
                            for (name, bytes) in &dlc.files {
                                let _ = b.add_asset(&format!("snpe_{name}"), bytes.clone());
                            }
                        }
                    }
                }
            }
            None => {
                // Plain app: mundane assets, including model-extension
                // decoys that must *fail* validation (exercising the §3.1
                // funnel's second stage).
                let _ = b.add_asset("strings.txt", b"hello world".to_vec());
                let _ = b.add_asset("config.json", b"{\"theme\":\"dark\"}".to_vec());
                let _ = b.add_asset("cache.bin", vec![0xC0, 0xFF, 0xEE, 0x00, 0x42]);
                b.add_code_string("android.widget.TextView");
            }
        }
        // gaugelint: allow(unwrap-in-fault-path) — provably infallible: generated assets are KBs, nowhere near the APK size limit
        b.finish().expect("corpus apps stay under the 100MB limit")
    }
}

fn add_framework_markers(b: &mut ApkBuilder, fw: Framework) {
    match fw {
        Framework::TfLite => {
            b.add_class_ref("org.tensorflow.lite.Interpreter");
            let _ = b.add_native_lib(
                "libtensorflowlite_jni.so",
                &["TfLiteModelCreate", "TfLiteInterpreterCreate"],
            );
        }
        Framework::Caffe => {
            b.add_code_string("caffe::Net<float>");
            let _ = b.add_native_lib("libcaffe_jni.so", &["caffe_net_forward"]);
        }
        Framework::Ncnn => {
            b.add_class_ref("com.tencent.ncnn.Net");
            let _ = b.add_native_lib("libncnn.so", &["ncnn_net_load_param"]);
        }
        Framework::TensorFlow => {
            b.add_class_ref("org.tensorflow.TensorFlowInferenceInterface");
            let _ = b.add_native_lib("libtensorflow_inference.so", &["TF_NewSession"]);
        }
        Framework::Snpe => {
            b.add_class_ref("com.qualcomm.qti.snpe.SNPE");
            let _ = b.add_native_lib("libSNPE.so", &["Snpe_SNPEBuilder_Build"]);
        }
        _ => {
            b.add_code_string(format!("framework:{}", fw.name()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_corpus_meets_targets() {
        let c = generate(CorpusScale::Tiny, Snapshot::Y2021, 7);
        assert_eq!(c.apps.len(), c.targets.total_apps as usize);
        let ml_apps = c.apps.iter().filter(|a| a.ml.is_some()).count();
        assert_eq!(ml_apps, c.targets.ml_lib_apps as usize);
        let obf = c
            .apps
            .iter()
            .filter(|a| a.ml.as_ref().is_some_and(|m| m.obfuscated))
            .count();
        assert_eq!(obf, c.targets.obfuscated_apps as usize);
        let cloud = c.apps.iter().filter(|a| !a.cloud.is_empty()).count();
        assert_eq!(cloud, c.targets.cloud_apps as usize);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(CorpusScale::Tiny, Snapshot::Y2021, 9);
        let b = generate(CorpusScale::Tiny, Snapshot::Y2021, 9);
        assert_eq!(a.apps, b.apps);
        assert_eq!(a.pool, b.pool);
        let c = generate(CorpusScale::Tiny, Snapshot::Y2021, 10);
        assert_ne!(a.apps, c.apps);
    }

    #[test]
    fn pool_shared_across_snapshots() {
        let p20 = generate(CorpusScale::Tiny, Snapshot::Y2020, 9).pool;
        let p21 = generate(CorpusScale::Tiny, Snapshot::Y2021, 9).pool;
        assert_eq!(p20, p21, "pool must be identical so Fig 5 can diff models");
        let ids20 = pool_ids_for(CorpusScale::Tiny, Snapshot::Y2020);
        let ids21 = pool_ids_for(CorpusScale::Tiny, Snapshot::Y2021);
        assert!(ids20.start < ids21.start, "some models exist only in 2020");
        assert!(ids21.end > ids20.end, "some models exist only in 2021");
        assert!(ids21.start < ids20.end, "snapshots overlap");
    }

    #[test]
    fn snapshot_apps_reference_only_visible_pool_ids() {
        for snap in [Snapshot::Y2020, Snapshot::Y2021] {
            let c = generate(CorpusScale::Tiny, snap, 3);
            let visible = pool_ids_for(CorpusScale::Tiny, snap);
            for app in &c.apps {
                if let Some(ml) = &app.ml {
                    for &id in &ml.model_ids {
                        assert!(visible.contains(&id), "{snap:?} app uses out-of-snapshot model");
                    }
                }
            }
        }
    }

    #[test]
    fn pool_has_finetuning_lineages() {
        let pool = build_pool(CorpusScale::Small, 5);
        let lineages: Vec<&UniqueModel> =
            pool.iter().filter(|m| m.fine_tune_of.is_some()).collect();
        assert!(!lineages.is_empty());
        for m in &lineages {
            let (base, layers) = m.fine_tune_of.unwrap();
            assert_ne!(base, m.id);
            assert!(pool[base].fine_tune_of.is_none(), "one-level lineages");
            assert!(layers >= 1);
            assert_eq!(pool[base].framework, m.framework);
        }
        // Some lineages differ in <= 3 layers (the §4.5 4.2 % population).
        assert!(lineages.iter().any(|m| m.fine_tune_of.unwrap().1 <= 3));
    }

    #[test]
    fn pool_has_quantised_models() {
        let pool = build_pool(CorpusScale::Paper, 5);
        let full = pool.iter().filter(|m| m.quant == QuantMode::Full).count();
        let weight_only = pool
            .iter()
            .filter(|m| m.quant == QuantMode::WeightOnly)
            .count();
        let frac_full = full as f64 / pool.len() as f64;
        let frac_int8 = (full + weight_only) as f64 / pool.len() as f64;
        assert!((0.05..0.17).contains(&frac_full), "full-quant fraction {frac_full}");
        assert!((0.13..0.30).contains(&frac_int8), "int8-weight fraction {frac_int8}");
    }

    #[test]
    fn apk_builds_and_contains_models() {
        let c = generate(CorpusScale::Tiny, Snapshot::Y2021, 7);
        let app = c
            .apps
            .iter()
            .find(|a| a.ml.as_ref().is_some_and(|m| !m.obfuscated))
            .unwrap();
        let mut cache = std::collections::BTreeMap::new();
        let pool = c.pool.clone();
        let apk_bytes = c.build_apk(app, &mut |id| {
            cache
                .entry(id)
                .or_insert_with(|| pool[id].artifact(&pool))
                .clone()
        });
        let apk = gaugenn_apk::Apk::parse(&apk_bytes).unwrap();
        assert_eq!(apk.package(), app.package);
        let validated = apk
            .candidate_files()
            .filter(|(name, bytes)| gaugenn_modelfmt::validate(name, bytes).is_some())
            .count();
        assert!(validated >= 1, "expected at least one extractable model");
    }

    #[test]
    fn obfuscated_apk_models_fail_validation_but_libs_visible() {
        let c = generate(CorpusScale::Tiny, Snapshot::Y2021, 7);
        let app = c
            .apps
            .iter()
            .find(|a| a.ml.as_ref().is_some_and(|m| m.obfuscated))
            .unwrap();
        let pool = c.pool.clone();
        let apk_bytes = c.build_apk(app, &mut |id| pool[id].artifact(&pool));
        let apk = gaugenn_apk::Apk::parse(&apk_bytes).unwrap();
        let validated = apk
            .candidate_files()
            .filter(|(name, bytes)| gaugenn_modelfmt::validate(name, bytes).is_some())
            .count();
        assert_eq!(validated, 0, "encrypted models must fail validation");
        let libs: Vec<&str> = apk.native_libs().map(|(n, _)| n).collect();
        assert!(libs.contains(&"libtensorflowlite_jni.so"));
    }

    #[test]
    fn duplication_exists_at_tiny_scale() {
        let c = generate(CorpusScale::Tiny, Snapshot::Y2021, 7);
        let mut by_model: std::collections::BTreeMap<usize, usize> = Default::default();
        for app in &c.apps {
            if let Some(ml) = &app.ml {
                for &id in &ml.model_ids {
                    *by_model.entry(id).or_default() += 1;
                }
            }
        }
        assert!(
            by_model.values().any(|&n| n >= 2),
            "zipf assignment should duplicate some models across apps"
        );
    }

    #[test]
    fn small_pool_artifact_bytes_are_pinned() {
        // Every name and byte of one pool's artifacts, so a drift in
        // model synthesis (pruning, quantisation, encoding) fails here
        // and not only in the benchmark's study fingerprint.
        let pool = build_pool(CorpusScale::Small, 5);
        let mut crc = gaugenn_apk::crc32::Crc32::new();
        let mut files = 0;
        for model in &pool {
            for (name, bytes) in &model.artifact(&pool).files {
                crc.update(name.as_bytes());
                crc.update(bytes);
                files += 1;
            }
        }
        assert_eq!((pool.len(), files), (36, 40));
        assert_eq!(crc.finalize(), 0x1d89_304b);
    }

    #[test]
    fn snapshot_labels() {
        assert_eq!(Snapshot::Y2020.label(), "Feb 2020");
        assert_eq!(Snapshot::Y2021.label(), "Apr 2021");
    }
}
