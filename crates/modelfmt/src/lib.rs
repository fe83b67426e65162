//! # gaugenn-modelfmt — mobile DNN model container formats
//!
//! The paper's extraction stage matches candidate files "against a compiled
//! list of 69 known DNN framework formats" and then validates each by
//! "checking the binary signature of the file for the presence of specific
//! identifiers that a framework uses. For example, for TFLite … we check for
//! the existence of e.g. the string 'TFL3'" (§3.1, Appendix A).
//!
//! This crate implements that machinery from scratch:
//!
//! * [`minipb`] — a protobuf-style wire codec (varints, length-delimited
//!   fields); Caffe, TF and ONNX containers build on it.
//! * [`miniflat`] — a FlatBuffer-style layout with a root offset and a
//!   4-byte file identifier at offset 4; TFLite builds on it.
//! * [`graphcodec`] — the canonical graph body shared by all containers
//!   (layers, weights and topology in a stable byte layout, so checksums of
//!   serialised models are meaningful).
//! * [`formats`] — the framework/extension table (Table 5).
//! * [`validate()`] — signature validation: extension pre-filter + binary
//!   probe, exactly the two-stage funnel of §3.1.
//! * per-framework codecs: [`tflite`], [`caffe`], [`ncnn`], [`tf`],
//!   [`snpe`], [`onnx`], each an envelope step around the one graph-body
//!   parser; [`decode_in_place`] leaves the weights in the file's bytes,
//!   [`decode()`] copies them out once.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod caffe;
pub mod formats;
pub mod graphcodec;
pub mod miniflat;
pub mod minipb;
pub mod ncnn;
pub mod onnx;
pub mod snpe;
pub mod tf;
pub mod tflite;
pub mod validate;

pub use formats::Framework;
pub use validate::{validate, validate_candidates, Validated};

use gaugenn_dnn::{Graph, WeightBytes};

/// Errors from model encoding/decoding.
#[derive(Debug, Clone, PartialEq)]
pub enum FmtError {
    /// The byte stream fails the framework's structural rules.
    Malformed {
        /// Framework whose codec rejected the stream.
        framework: Framework,
        /// Human-readable reason.
        reason: String,
    },
    /// Low-level wire-format failure (bad varint, truncation, …).
    Wire(String),
    /// The graph embedded in a container is itself invalid.
    Graph(String),
}

impl std::fmt::Display for FmtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FmtError::Malformed { framework, reason } => {
                write!(f, "malformed {} model: {reason}", framework.name())
            }
            FmtError::Wire(r) => write!(f, "wire format error: {r}"),
            FmtError::Graph(r) => write!(f, "embedded graph invalid: {r}"),
        }
    }
}

impl std::error::Error for FmtError {}

impl From<gaugenn_dnn::DnnError> for FmtError {
    fn from(e: gaugenn_dnn::DnnError) -> Self {
        FmtError::Graph(e.to_string())
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, FmtError>;

/// A serialised model: one or more files (Caffe and NCNN split graph and
/// weights across two files, §4.5 footnote 6).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelArtifact {
    /// The framework this artifact serialises for.
    pub framework: Framework,
    /// `(file_name, bytes)` pairs. The first file is the primary one.
    pub files: Vec<(String, Vec<u8>)>,
}

impl ModelArtifact {
    /// Total byte size across files (the paper's "model size" storage
    /// metric).
    pub fn total_bytes(&self) -> usize {
        self.files.iter().map(|(_, b)| b.len()).sum()
    }

    /// The primary file's bytes.
    pub fn primary(&self) -> &[u8] {
        &self.files[0].1
    }
}

/// Serialise a graph into the given framework's container.
pub fn encode(graph: &gaugenn_dnn::Graph, framework: Framework) -> Result<ModelArtifact> {
    match framework {
        Framework::TfLite => tflite::encode(graph),
        Framework::Caffe => caffe::encode(graph),
        Framework::Ncnn => ncnn::encode(graph),
        Framework::TensorFlow => tf::encode(graph),
        Framework::Snpe => snpe::encode(graph),
        Framework::Onnx => onnx::encode(graph),
        other => Err(FmtError::Malformed {
            framework: other,
            reason: "no encoder for this framework (extension-table only)".into(),
        }),
    }
}

/// Decode a framework container back into a graph that owns its weights:
/// [`decode_in_place`] plus one [`Graph::materialise`], for callers that
/// read weight values.
pub fn decode<B: AsRef<[u8]>>(framework: Framework, files: &[(String, B)]) -> Result<Graph> {
    decode_in_place(framework, files).map(Graph::materialise)
}

/// Decode a framework container where its bytes lie: every check of
/// [`decode`] runs, but each weight payload stays borrowed from `files`
/// (only its length and dtype are read). Validation, shape inference and
/// tracing take the result as it is.
///
/// For split formats, `files` must carry all parts (any order). Any
/// `AsRef<[u8]>` container works, so a caller holding borrowed or shared
/// bytes need not copy them into a `Vec` first.
pub fn decode_in_place<B: AsRef<[u8]>>(
    framework: Framework,
    files: &[(String, B)],
) -> Result<Graph<WeightBytes<'_>>> {
    match framework {
        Framework::TfLite => tflite::decode(primary_bytes(files)?),
        Framework::Caffe => caffe::decode(files),
        Framework::Ncnn => ncnn::decode(files),
        Framework::TensorFlow => tf::decode(primary_bytes(files)?),
        Framework::Snpe => snpe::decode(primary_bytes(files)?),
        Framework::Onnx => onnx::decode(primary_bytes(files)?),
        other => Err(FmtError::Malformed {
            framework: other,
            reason: "no decoder for this framework".into(),
        }),
    }
}

fn primary_bytes<B: AsRef<[u8]>>(files: &[(String, B)]) -> Result<&[u8]> {
    files
        .first()
        .map(|(_, b)| b.as_ref())
        .ok_or_else(|| FmtError::Wire("no files provided".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaugenn_dnn::task::Task;
    use gaugenn_dnn::zoo::{build_for_task, SizeClass};

    #[test]
    fn encode_decode_roundtrip_every_codec() {
        let model = build_for_task(Task::KeywordDetection, 42, SizeClass::Small, true);
        for fw in [
            Framework::TfLite,
            Framework::Caffe,
            Framework::Ncnn,
            Framework::TensorFlow,
            Framework::Snpe,
            Framework::Onnx,
        ] {
            let art = encode(&model.graph, fw).unwrap_or_else(|e| panic!("{fw:?}: {e}"));
            let back = decode(fw, &art.files).unwrap_or_else(|e| panic!("{fw:?}: {e}"));
            assert_eq!(back, model.graph, "{fw:?} roundtrip");
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let model = build_for_task(Task::MovementTracking, 9, SizeClass::Small, true);
        let a = encode(&model.graph, Framework::TfLite).unwrap();
        let b = encode(&model.graph, Framework::TfLite).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn extension_only_frameworks_refuse_encode() {
        let model = build_for_task(Task::MovementTracking, 9, SizeClass::Small, true);
        assert!(encode(&model.graph, Framework::PyTorch).is_err());
    }
}
