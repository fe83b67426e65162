//! The framework/extension table (Appendix A, Table 5).
//!
//! This is the candidate pre-filter: every file extracted from an app whose
//! extension matches a row here becomes a validation candidate. Extensions
//! are highly ambiguous (`.pb` belongs to five frameworks, `.bin` to three),
//! which is exactly why the binary-signature stage exists.

/// Every framework tracked by gaugeNN's extraction table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Framework {
    /// ONNX interchange format.
    Onnx,
    /// Apache MXNet.
    MxNet,
    /// Keras HDF5 / SavedModel shims.
    Keras,
    /// BVLC Caffe (deprecated 2017, still 10.6 % of the paper's corpus).
    Caffe,
    /// Caffe2.
    Caffe2,
    /// PyTorch / PyTorch Mobile.
    PyTorch,
    /// Lua Torch.
    Torch,
    /// Qualcomm SNPE deep learning container.
    Snpe,
    /// Tencent FeatherCNN.
    FeatherCnn,
    /// TensorFlow Lite (86 % of the corpus).
    TfLite,
    /// TensorFlow (frozen graphs / checkpoints).
    TensorFlow,
    /// scikit-learn pickles.
    Sklearn,
    /// Arm NN.
    ArmNn,
    /// Alibaba MNN.
    Mnn,
    /// Tencent NCNN.
    Ncnn,
    /// OPEN AI LAB Tengine.
    Tengine,
    /// Julia Flux.
    Flux,
    /// Chainer.
    Chainer,
}

impl Framework {
    /// Lower-case display name matching the paper's figures.
    pub const fn name(self) -> &'static str {
        match self {
            Framework::Onnx => "onnx",
            Framework::MxNet => "mxnet",
            Framework::Keras => "keras",
            Framework::Caffe => "caffe",
            Framework::Caffe2 => "caffe2",
            Framework::PyTorch => "pytorch",
            Framework::Torch => "torch",
            Framework::Snpe => "snpe",
            Framework::FeatherCnn => "feathercnn",
            Framework::TfLite => "tflite",
            Framework::TensorFlow => "tf",
            Framework::Sklearn => "sklearn",
            Framework::ArmNn => "armnn",
            Framework::Mnn => "mnn",
            Framework::Ncnn => "ncnn",
            Framework::Tengine => "tengine",
            Framework::Flux => "flux",
            Framework::Chainer => "chainer",
        }
    }

    /// Extensions claimed by this framework, as listed in Table 5 (leading
    /// dot omitted; multi-dot suffixes like `pth.tar` included verbatim).
    pub const fn extensions(self) -> &'static [&'static str] {
        match self {
            Framework::Onnx => &["onnx", "pb", "pbtxt", "prototxt"],
            Framework::MxNet => &["mar", "model", "json", "params"],
            Framework::Keras => &["h5", "hd5", "hdf5", "keras", "json", "model", "pb", "pth"],
            Framework::Caffe => &["caffemodel", "pbtxt", "prototxt", "pt"],
            Framework::Caffe2 => &["pb", "pbtxt", "prototxt"],
            Framework::PyTorch => &[
                "pt", "pth", "pt1", "pkl", "h5", "t7", "model", "dms", "pth.tar", "ckpt", "bin",
                "pb", "tar",
            ],
            Framework::Torch => &["t7", "dat"],
            Framework::Snpe => &["dlc"],
            Framework::FeatherCnn => &["feathermodel"],
            Framework::TfLite => &["tflite", "lite", "tfl", "bin", "pb"],
            Framework::TensorFlow => &["pb", "meta", "pbtxt", "prototxt", "json", "index", "ckpt"],
            Framework::Sklearn => &["pkl", "joblib", "model"],
            Framework::ArmNn => &["armnn"],
            Framework::Mnn => &["mnn"],
            Framework::Ncnn => &["param", "bin", "cfg.ncnn", "weights.ncnn", "ncnn"],
            Framework::Tengine => &["tmfile"],
            Framework::Flux => &["bson"],
            Framework::Chainer => &["npz", "h5", "hd5", "hdf5", "chainermodel"],
        }
    }

    /// All frameworks in Table 5 order.
    pub const ALL: [Framework; 18] = [
        Framework::Onnx,
        Framework::MxNet,
        Framework::Keras,
        Framework::Caffe,
        Framework::Caffe2,
        Framework::PyTorch,
        Framework::Torch,
        Framework::Snpe,
        Framework::FeatherCnn,
        Framework::TfLite,
        Framework::TensorFlow,
        Framework::Sklearn,
        Framework::ArmNn,
        Framework::Mnn,
        Framework::Ncnn,
        Framework::Tengine,
        Framework::Flux,
        Framework::Chainer,
    ];

    /// The subset of frameworks the study actually found models for
    /// (§4.3: TFLite 1436, caffe 176, ncnn 46, TF 5, SNPE 3).
    pub const BENCHMARKED: [Framework; 5] = [
        Framework::TfLite,
        Framework::Caffe,
        Framework::Ncnn,
        Framework::TensorFlow,
        Framework::Snpe,
    ];
}

/// Frameworks whose extension table claims `filename` (longest-suffix
/// match so `model.cfg.ncnn` hits NCNN's `cfg.ncnn`, not a bare `ncnn`).
pub fn candidates_for(filename: &str) -> Vec<Framework> {
    Framework::ALL
        .iter()
        .copied()
        .filter(|fw| {
            fw.extensions()
                .iter()
                .any(|ext| has_extension(filename, ext))
        })
        .collect()
}

/// Whether `filename` ends in `.` followed by `ext`, ASCII case
/// insensitively (`ext` is lower case), compared in place.
pub(crate) fn has_extension(filename: &str, ext: &str) -> bool {
    let name = filename.as_bytes();
    name.len() > ext.len()
        && name[name.len() - ext.len() - 1] == b'.'
        && name[name.len() - ext.len()..].eq_ignore_ascii_case(ext.as_bytes())
}

/// Total number of (framework, extension) format rows — the paper's
/// "compiled list of 69 known DNN framework formats".
pub fn format_count() -> usize {
    Framework::ALL.iter().map(|f| f.extensions().len()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The allocating pre-filter `candidates_for` replaced, kept as the
    /// reference it must agree with.
    fn reference(filename: &str) -> Vec<Framework> {
        let lower = filename.to_ascii_lowercase();
        Framework::ALL
            .iter()
            .copied()
            .filter(|fw| {
                fw.extensions()
                    .iter()
                    .any(|ext| lower.ends_with(&format!(".{ext}")))
            })
            .collect()
    }

    #[test]
    fn in_place_suffix_match_agrees_with_the_reference() {
        let mixed = |ext: &str| -> String {
            ext.chars()
                .enumerate()
                .map(|(i, c)| {
                    if i % 2 == 0 {
                        c.to_ascii_uppercase()
                    } else {
                        c
                    }
                })
                .collect()
        };
        let mut names = vec![
            String::new(),
            ".".to_string(),
            "model.cfg.ncnn".to_string(),
            "MODEL.CFG.NCNN".to_string(),
            "cfg.ncnn".to_string(),
            ".ncnn".to_string(),
            "model.tar".to_string(),
            "texture.png".to_string(),
            "Ä.tflite".to_string(),
            "modèle.TFLite".to_string(),
            "模型.pb".to_string(),
            "x.tfliteé".to_string(),
            "x.é".to_string(),
        ];
        for fw in Framework::ALL {
            for ext in fw.extensions() {
                for case in [ext.to_string(), ext.to_ascii_uppercase(), mixed(ext)] {
                    names.push(format!("m.{case}"));
                    names.push(format!("assets/models/m.{case}"));
                    names.push(format!(".{case}"));
                    names.push(case.clone());
                    names.push(format!("m{case}"));
                    names.push(format!("ü.{case}"));
                    names.push(format!("m.{case}ü"));
                    names.push(format!("m.{case}.bak"));
                }
            }
        }
        for name in &names {
            assert_eq!(candidates_for(name), reference(name), "{name:?}");
        }
    }

    #[test]
    fn sixty_nine_formats() {
        assert_eq!(format_count(), 69);
    }

    #[test]
    fn pb_is_ambiguous() {
        let c = candidates_for("assets/frozen_graph.pb");
        assert!(c.contains(&Framework::TensorFlow));
        assert!(c.contains(&Framework::TfLite));
        assert!(c.contains(&Framework::Onnx));
        assert!(c.contains(&Framework::PyTorch));
        assert!(c.len() >= 5);
    }

    #[test]
    fn tflite_extension_unambiguous() {
        assert_eq!(candidates_for("m.tflite"), vec![Framework::TfLite]);
        assert_eq!(candidates_for("m.dlc"), vec![Framework::Snpe]);
    }

    #[test]
    fn multi_dot_suffix_matches() {
        assert!(candidates_for("net.cfg.ncnn").contains(&Framework::Ncnn));
        assert!(candidates_for("w.pth.tar").contains(&Framework::PyTorch));
    }

    #[test]
    fn case_insensitive() {
        assert_eq!(candidates_for("M.TFLITE"), vec![Framework::TfLite]);
    }

    #[test]
    fn non_model_files_have_no_candidates() {
        assert!(candidates_for("texture.png").is_empty());
        assert!(candidates_for("README").is_empty());
        assert!(candidates_for("bin").is_empty(), "extension match needs the dot");
    }
}
