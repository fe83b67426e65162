//! Two-stage model validation (§3.1).
//!
//! Stage 1: the extension pre-filter ([`crate::formats::candidates_for`]) — cheap,
//! wide, and highly ambiguous (`.pb` alone maps to five frameworks).
//! Stage 2: per-framework binary signature probes, "inspired by the
//! open-source Netron tool": `TFL3` at offset 4 for TFLite, the `7767517`
//! magic line for ncnn params, `DLC1` for SNPE, structural protobuf probes
//! for the magic-free formats.
//!
//! Encrypted or obfuscated payloads fail every probe and drop out here —
//! the paper's stated limitation, which §4.3 quantifies as the gap between
//! apps-with-ML-libraries and apps-with-extractable-models.

use crate::formats::{candidates_for, has_extension, Framework};
use crate::{caffe, ncnn, snpe, tf, tflite};

/// What role a validated file plays in its model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileRole {
    /// A self-contained model file.
    Complete,
    /// The graph-description half of a split format.
    GraphPart,
    /// The weights half of a split format.
    WeightsPart,
}

/// A positively-validated model file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Validated {
    /// The framework whose signature matched.
    pub framework: Framework,
    /// Role of this file within the model.
    pub role: FileRole,
}

/// Validate one candidate file. Returns `None` when no framework's
/// signature matches (not a model, or encrypted/obfuscated).
pub fn validate(filename: &str, bytes: &[u8]) -> Option<Validated> {
    validate_candidates(filename, bytes, &candidates_for(filename))
}

/// [`validate`] for a caller that already holds
/// [`candidates_for`]`(filename)`: probes those frameworks in order.
pub fn validate_candidates(
    filename: &str,
    bytes: &[u8],
    candidates: &[Framework],
) -> Option<Validated> {
    candidates.iter().find_map(|&fw| probe(fw, filename, bytes))
}

fn probe(fw: Framework, filename: &str, bytes: &[u8]) -> Option<Validated> {
    let is = |ext| has_extension(filename, ext);
    match fw {
        Framework::TfLite => tflite::probe(bytes).then_some(Validated {
            framework: fw,
            role: FileRole::Complete,
        }),
        Framework::Snpe => snpe::probe(bytes).then_some(Validated {
            framework: fw,
            role: FileRole::Complete,
        }),
        Framework::TensorFlow => {
            // Only the .pb graph container is a self-contained TF model;
            // checkpoints/meta/index files are not decodable models.
            (is("pb") && tf::probe(bytes)).then_some(Validated {
                framework: fw,
                role: FileRole::Complete,
            })
        }
        Framework::Onnx => (is("onnx") && crate::onnx::probe(bytes)).then_some(
            Validated {
                framework: fw,
                role: FileRole::Complete,
            },
        ),
        Framework::Caffe => {
            if is("caffemodel") && caffe::probe_caffemodel(bytes) {
                Some(Validated {
                    framework: fw,
                    role: FileRole::WeightsPart,
                })
            } else if (is("prototxt") || is("pbtxt"))
                && caffe::probe_prototxt(bytes)
            {
                Some(Validated {
                    framework: fw,
                    role: FileRole::GraphPart,
                })
            } else {
                None
            }
        }
        Framework::Ncnn => {
            if is("param") && ncnn::probe_param(bytes) {
                Some(Validated {
                    framework: fw,
                    role: FileRole::GraphPart,
                })
            } else if is("bin") && ncnn::probe_bin(bytes) {
                Some(Validated {
                    framework: fw,
                    role: FileRole::WeightsPart,
                })
            } else {
                None
            }
        }
        // Extension-table-only frameworks: tracked for candidate statistics
        // but with no decodable container in the wild corpus (the paper
        // found models only for the five BENCHMARKED frameworks).
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaugenn_dnn::task::Task;
    use gaugenn_dnn::zoo::{build_for_task, SizeClass};

    fn graph() -> gaugenn_dnn::Graph {
        build_for_task(Task::KeywordDetection, 31, SizeClass::Small, true).graph
    }

    #[test]
    fn validates_every_benchmarked_framework() {
        let g = graph();
        for fw in Framework::BENCHMARKED {
            let art = crate::encode(&g, fw).unwrap();
            for (name, bytes) in &art.files {
                let v = validate(name, bytes)
                    .unwrap_or_else(|| panic!("{fw:?} file {name} failed validation"));
                assert_eq!(v.framework, fw, "{name}");
            }
        }
    }

    #[test]
    fn tflite_named_pb_still_validates_as_tflite() {
        // Ambiguous extension + signature disambiguation: a TFLite payload
        // named .pb must validate as TFLite via TFL3, not as TF.
        let g = graph();
        let art = crate::encode(&g, Framework::TfLite).unwrap();
        let v = validate("model.pb", art.primary()).unwrap();
        assert_eq!(v.framework, Framework::TfLite);
    }

    #[test]
    fn encrypted_model_fails_validation() {
        let g = graph();
        let art = crate::encode(&g, Framework::TfLite).unwrap();
        // "Encrypt" by xoring every byte — magic disappears.
        let enc: Vec<u8> = art.primary().iter().map(|b| b ^ 0x5A).collect();
        assert!(validate("model.tflite", &enc).is_none());
    }

    #[test]
    fn wrong_extension_fails_prefilter() {
        let g = graph();
        let art = crate::encode(&g, Framework::TfLite).unwrap();
        assert!(validate("model.png", art.primary()).is_none());
    }

    #[test]
    fn random_bytes_fail_every_probe() {
        let noise: Vec<u8> = (0..256u32).map(|i| (i.wrapping_mul(97) % 251) as u8).collect();
        for name in ["x.pb", "x.bin", "x.tflite", "x.param", "x.caffemodel", "x.onnx"] {
            assert!(validate(name, &noise).is_none(), "{name}");
        }
    }

    #[test]
    fn split_format_roles() {
        let g = graph();
        let art = crate::encode(&g, Framework::Caffe).unwrap();
        let weights = validate(&art.files[0].0, &art.files[0].1).unwrap();
        assert_eq!(weights.role, FileRole::WeightsPart);
        let graph_part = validate(&art.files[1].0, &art.files[1].1).unwrap();
        assert_eq!(graph_part.role, FileRole::GraphPart);
    }

    #[test]
    fn ncnn_bin_not_confused_with_tflite_bin() {
        let g = graph();
        let art = crate::encode(&g, Framework::Ncnn).unwrap();
        let v = validate(&art.files[1].0, &art.files[1].1).unwrap();
        assert_eq!(v.framework, Framework::Ncnn);
    }
}
