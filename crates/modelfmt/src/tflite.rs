//! TFLite container: a FlatBuffer-style envelope with the `TFL3` file
//! identifier at offset 4 — the paper's canonical validation example (§3.1).

use crate::graphcodec::{decode_graph, encode_graph};
use crate::miniflat;
use crate::{Framework, ModelArtifact, Result};
use gaugenn_dnn::{Graph, WeightBytes};

/// The TFLite FlatBuffer file identifier.
pub const IDENT: &[u8; 4] = b"TFL3";
/// Schema version we emit.
pub const SCHEMA_VERSION: u32 = 3;

/// Encode a graph as a `.tflite` file.
pub fn encode(graph: &Graph) -> Result<ModelArtifact> {
    let body = encode_graph(graph);
    let bytes = miniflat::wrap(IDENT, SCHEMA_VERSION, &body);
    Ok(ModelArtifact {
        framework: Framework::TfLite,
        files: vec![(format!("{}.tflite", graph.name), bytes)],
    })
}

/// Decode a `.tflite` file, borrowing its weights.
pub fn decode(bytes: &[u8]) -> Result<Graph<WeightBytes<'_>>> {
    let (_version, body) = miniflat::unwrap(bytes, IDENT)?;
    decode_graph(body)
}

/// Signature probe: `TFL3` at offset 4.
pub fn probe(bytes: &[u8]) -> bool {
    miniflat::has_identifier(bytes, IDENT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaugenn_dnn::task::Task;
    use gaugenn_dnn::zoo::{build_for_task, SizeClass};

    #[test]
    fn roundtrip_and_probe() {
        let m = build_for_task(Task::FaceDetection, 77, SizeClass::Small, true);
        let art = encode(&m.graph).unwrap();
        assert!(art.files[0].0.ends_with(".tflite"));
        assert!(probe(art.primary()));
        let back = decode(art.primary()).unwrap().materialise();
        assert_eq!(back, m.graph);
    }

    #[test]
    fn probe_rejects_other_bytes() {
        assert!(!probe(b"DLC1...."));
        assert!(!probe(b""));
        assert!(!probe(b"\x08\x00\x00\x00TFL2xxxx"));
    }
}
