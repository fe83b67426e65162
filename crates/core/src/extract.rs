//! Per-app model extraction and code analysis (§3.1–§3.2).
//!
//! Given one downloaded app (APK + optional OBBs/bundle), this module:
//!
//! * walks candidate files, applies the extension pre-filter and binary
//!   signature validation, and pairs split-format parts (caffe's
//!   `.prototxt`+`.caffemodel`, ncnn's `.param`+`.bin`);
//! * detects ML frameworks via native-library and dex string inclusion
//!   (catching obfuscated-model apps — §3.1);
//! * scans smali for cloud ML API call sites and hardware-acceleration
//!   markers (NNAPI / XNNPACK / SNPE — §6.3);
//! * scans expansion files and asset packs for models distributed outside
//!   the base APK (the §4.2 measurement).

use gaugenn_analysis::cloudapi::{self, Provider};
use gaugenn_apk::bundle::Bundle;
use gaugenn_apk::obb::Obb;
use gaugenn_apk::{nativelib, Apk};
use gaugenn_modelfmt::formats::candidates_for;
use gaugenn_modelfmt::validate::FileRole;
use gaugenn_modelfmt::{validate_candidates, Framework};
use gaugenn_playstore::crawler::CrawledApp;
use std::sync::Arc;

/// A validated model found in an app: one or more files forming one model.
#[derive(Debug, Clone)]
pub struct FoundModel {
    /// Framework.
    pub framework: Framework,
    /// `(entry_path, bytes)` of every file of the model, primary first.
    /// The bytes are shared: in an analysed corpus every instance of one
    /// content holds the same allocation.
    pub files: Vec<(String, Arc<[u8]>)>,
    /// Where it was found.
    pub source: ModelSource,
}

/// Where in the app distribution a model was located.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelSource {
    /// Inside the base APK.
    BaseApk,
    /// Inside an OBB expansion file.
    Obb,
    /// Inside a bundle asset pack.
    AssetPack,
}

/// Result of extracting one app.
#[derive(Debug, Clone)]
pub struct AppExtraction {
    /// Package name.
    pub package: String,
    /// Store category.
    pub category: String,
    /// Validated models, ready to decode.
    pub models: Vec<FoundModel>,
    /// Candidate files that matched an extension but failed signature
    /// validation (encrypted/obfuscated/decoys).
    pub failed_candidates: usize,
    /// ML frameworks detected via library inclusion (independent of model
    /// extraction).
    pub frameworks_by_libs: Vec<Framework>,
    /// Cloud ML API providers invoked from code.
    pub cloud: Vec<Provider>,
    /// NNAPI delegate usage detected.
    pub uses_nnapi: bool,
    /// XNNPACK usage detected.
    pub uses_xnnpack: bool,
    /// SNPE usage detected.
    pub uses_snpe: bool,
    /// On-device training / transfer-learning markers detected (§4.5:
    /// "we checked for traces of online fine-tuning done on device (e.g.
    /// through TFLiteTransferConverter) and found none").
    pub uses_on_device_training: bool,
}

impl AppExtraction {
    /// An app counts as ML-powered when it has models or ships framework
    /// libraries (§3.1: obfuscated models are "tracked … indirectly by
    /// means of library inclusion").
    pub fn is_ml_app(&self) -> bool {
        !self.models.is_empty() || !self.frameworks_by_libs.is_empty()
    }

    /// Models found outside the base APK (the §4.2 headline is zero).
    pub fn models_outside_apk(&self) -> usize {
        self.models
            .iter()
            .filter(|m| m.source != ModelSource::BaseApk)
            .count()
    }
}

/// Where a found model's bytes go: handed the model's `(path, bytes)`
/// files, primary first, still borrowed from the containers, it returns
/// one buffer per file in the same order.
pub(crate) type ShareBytes<'a> = &'a mut dyn FnMut(&[(String, &[u8])]) -> Vec<Arc<[u8]>>;

/// Extract one crawled app. Every found model gets buffers of its own.
pub fn extract_app(app: &CrawledApp) -> Result<AppExtraction, gaugenn_apk::ApkError> {
    extract_with(app, &mut |files| {
        files.iter().map(|(_, bytes)| Arc::from(*bytes)).collect()
    })
}

/// [`extract_app`], with `share` deciding where each found model's bytes
/// live; it is called once per model, in the order of
/// [`AppExtraction::models`]. The analysis passes its content table
/// here, so a duplicate model is never copied out of its container.
pub(crate) fn extract_with(
    app: &CrawledApp,
    share: ShareBytes<'_>,
) -> Result<AppExtraction, gaugenn_apk::ApkError> {
    let apk = Apk::parse(&app.apk)?;
    let mut models = Vec::new();
    let mut failed = 0usize;
    collect_models(
        apk.candidate_files().map(|(p, b)| (p.to_string(), b)),
        ModelSource::BaseApk,
        &mut models,
        &mut failed,
        share,
    );
    // Expansion files and asset packs (§4.2): same funnel, different source.
    for (name, bytes) in &app.obbs {
        if let Ok(obb) = Obb::parse(name, bytes) {
            collect_models(
                obb.archive
                    .entries()
                    .iter()
                    .map(|e| (e.name.to_string(), e.data)),
                ModelSource::Obb,
                &mut models,
                &mut failed,
                share,
            );
        }
    }
    if let Some(bundle_bytes) = &app.bundle {
        if let Ok(bundle) = Bundle::parse(bundle_bytes) {
            for pack in &bundle.packs {
                collect_models(
                    pack.files.iter().map(|(p, b)| (p.clone(), b.as_slice())),
                    ModelSource::AssetPack,
                    &mut models,
                    &mut failed,
                    share,
                );
            }
        }
    }

    // Library-inclusion analysis (native libs + dex strings).
    let mut frameworks = Vec::new();
    let mut lib_strings: Vec<String> = Vec::new();
    for (soname, bytes) in apk.native_libs() {
        lib_strings.push(soname.to_string());
        if let Ok(strings) = nativelib::extract_strings(bytes) {
            lib_strings.extend(strings);
        }
    }
    let smali = apk.dex().map(|d| d.to_smali()).unwrap_or_default();
    let haystack = format!("{smali}\n{}", lib_strings.join("\n"));
    for (fw, markers) in FRAMEWORK_MARKERS {
        if markers.iter().any(|m| haystack.contains(m)) {
            frameworks.push(*fw);
        }
    }

    Ok(AppExtraction {
        package: apk.package().to_string(),
        category: app.meta.category.clone(),
        models,
        failed_candidates: failed,
        frameworks_by_libs: frameworks,
        cloud: cloudapi::scan_smali(&smali),
        uses_nnapi: haystack.contains("org/tensorflow/lite/nnapi/NnApiDelegate"),
        uses_xnnpack: haystack.contains("TFLITE_ENABLE_XNNPACK")
            || haystack.contains("libxnnpack.so"),
        uses_snpe: haystack.contains("com/qualcomm/qti/snpe") || haystack.contains("libSNPE.so"),
        uses_on_device_training: haystack.contains("TFLiteTransferConverter")
            || haystack.contains("org/tensorflow/lite/transfer"),
    })
}

/// Library-inclusion markers per framework (Xu et al. [70] methodology).
const FRAMEWORK_MARKERS: &[(Framework, &[&str])] = &[
    (
        Framework::TfLite,
        &["libtensorflowlite_jni.so", "org/tensorflow/lite/Interpreter"],
    ),
    (Framework::Caffe, &["libcaffe_jni.so", "caffe::Net"]),
    (Framework::Ncnn, &["libncnn.so", "com/tencent/ncnn"]),
    (
        Framework::TensorFlow,
        &["libtensorflow_inference.so", "org/tensorflow/TensorFlowInferenceInterface"],
    ),
    (Framework::Snpe, &["libSNPE.so", "com/qualcomm/qti/snpe"]),
];

/// Run the validation funnel over an entry iterator and assemble models,
/// pairing split formats by file stem. Entries are borrowed; only the
/// models found are handed to `share` for buffers of their own.
fn collect_models<'a>(
    entries: impl Iterator<Item = (String, &'a [u8])>,
    source: ModelSource,
    models: &mut Vec<FoundModel>,
    failed: &mut usize,
    share: ShareBytes<'_>,
) {
    let mut found = |framework: Framework, files: Vec<(String, &[u8])>| {
        let buffers = share(&files);
        models.push(FoundModel {
            framework,
            files: files
                .into_iter()
                .zip(buffers)
                .map(|((path, _), bytes)| (path, bytes))
                .collect(),
            source,
        });
    };
    // First pass: validate everything, remembering split-format parts.
    let mut complete: Vec<(Framework, String, &[u8])> = Vec::new();
    let mut graph_parts: Vec<(Framework, String, &[u8])> = Vec::new();
    let mut weight_parts: Vec<(Framework, String, &[u8])> = Vec::new();
    for (path, bytes) in entries {
        let file_name = path.rsplit('/').next().unwrap_or(&path);
        let candidates = candidates_for(file_name);
        match validate_candidates(file_name, bytes, &candidates) {
            Some(v) => match v.role {
                FileRole::Complete => complete.push((v.framework, path, bytes)),
                FileRole::GraphPart => graph_parts.push((v.framework, path, bytes)),
                FileRole::WeightsPart => weight_parts.push((v.framework, path, bytes)),
            },
            None => {
                if !candidates.is_empty() {
                    *failed += 1;
                }
            }
        }
    }
    for (fw, path, bytes) in complete {
        found(fw, vec![(path, bytes)]);
    }
    // Pair split formats by stem; a weights part without its graph part is
    // still a model (the codecs treat the binary part as authoritative).
    let stem = |p: &str| -> String {
        let name = p.rsplit('/').next().unwrap_or(p);
        name.split('.').next().unwrap_or(name).to_string()
    };
    for (fw, wpath, wbytes) in weight_parts {
        let wstem = stem(&wpath);
        let mate = graph_parts
            .iter()
            .position(|(gfw, gpath, _)| *gfw == fw && stem(gpath) == wstem);
        let mut files = vec![(wpath, wbytes)];
        if let Some(idx) = mate {
            let (_, gpath, gbytes) = graph_parts.remove(idx);
            files.push((gpath, gbytes));
        }
        found(fw, files);
    }
    // Orphaned graph parts (a prototxt without weights) are not models.
    *failed += graph_parts.len();
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaugenn_playstore::corpus::{generate, CorpusScale, Snapshot};
    use gaugenn_playstore::crawler::AppMeta;

    fn crawl_tiny() -> Vec<CrawledApp> {
        let corpus = generate(CorpusScale::Tiny, Snapshot::Y2021, 7);
        let pool = corpus.pool.clone();
        let mut cache: std::collections::BTreeMap<usize, gaugenn_modelfmt::ModelArtifact> =
            Default::default();
        corpus
            .apps
            .iter()
            .map(|a| {
                let apk = corpus.build_apk(a, &mut |id| {
                    cache
                        .entry(id)
                        .or_insert_with(|| pool[id].artifact(&pool))
                        .clone()
                });
                CrawledApp {
                    meta: AppMeta {
                        package: a.package.clone(),
                        title: a.title.clone(),
                        category: gaugenn_playstore::categories::CATEGORIES[a.category]
                            .name
                            .to_string(),
                        downloads: a.downloads,
                        rating: a.rating,
                        version_code: a.version_code,
                        has_obb: a.has_obb,
                        has_bundle: a.has_bundle,
                    },
                    apk,
                    obbs: vec![],
                    bundle: None,
                }
            })
            .collect()
    }

    #[test]
    fn extraction_finds_planted_structure() {
        let corpus = generate(CorpusScale::Tiny, Snapshot::Y2021, 7);
        let apps = crawl_tiny();
        let extractions: Vec<AppExtraction> =
            apps.iter().map(|a| extract_app(a).unwrap()).collect();
        let ml_apps = extractions.iter().filter(|e| e.is_ml_app()).count();
        assert_eq!(ml_apps, corpus.targets.ml_lib_apps as usize);
        let with_models = extractions.iter().filter(|e| !e.models.is_empty()).count();
        assert_eq!(
            with_models,
            (corpus.targets.ml_lib_apps - corpus.targets.obfuscated_apps) as usize
        );
        // Obfuscated apps: ML by libs, zero validated models, failed
        // candidates observed.
        let obf: Vec<&AppExtraction> = extractions
            .iter()
            .filter(|e| e.is_ml_app() && e.models.is_empty())
            .collect();
        assert_eq!(obf.len(), corpus.targets.obfuscated_apps as usize);
        assert!(obf.iter().all(|e| e.failed_candidates > 0));
        // Cloud APIs.
        let cloud = extractions.iter().filter(|e| !e.cloud.is_empty()).count();
        assert_eq!(cloud, corpus.targets.cloud_apps as usize);
        // Acceleration markers.
        let nnapi = extractions.iter().filter(|e| e.uses_nnapi).count();
        assert_eq!(nnapi, corpus.targets.nnapi_apps as usize);
        let snpe = extractions.iter().filter(|e| e.uses_snpe).count();
        assert_eq!(snpe, corpus.targets.snpe_apps as usize);
    }

    #[test]
    fn extracted_models_decode() {
        let apps = crawl_tiny();
        let mut decoded = 0;
        for app in &apps {
            let e = extract_app(app).unwrap();
            for m in &e.models {
                let g = gaugenn_modelfmt::decode(m.framework, &m.files)
                    .unwrap_or_else(|err| panic!("{}: {err}", app.meta.package));
                assert!(g.layer_count() > 0);
                decoded += 1;
            }
        }
        assert!(decoded > 0);
    }

    #[test]
    fn no_models_outside_base_apk_in_corpus() {
        // §4.2: the crawler checks OBBs and bundles and finds nothing.
        let apps = crawl_tiny();
        for app in &apps {
            let e = extract_app(app).unwrap();
            assert_eq!(e.models_outside_apk(), 0);
        }
    }
}
