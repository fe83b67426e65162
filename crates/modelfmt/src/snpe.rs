//! SNPE deep learning container (`.dlc`), Qualcomm's vendor format (§6.3,
//! Appendix B). A magic-prefixed binary: `DLC1` + version + graph body.

use crate::graphcodec::{decode_graph, encode_graph};
use crate::{FmtError, Framework, ModelArtifact, Result};
use gaugenn_dnn::{Graph, WeightBytes};

/// DLC magic bytes.
pub const MAGIC: &[u8; 4] = b"DLC1";

/// Encode a graph as a `.dlc` file.
pub fn encode(graph: &Graph) -> Result<ModelArtifact> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(MAGIC);
    bytes.extend_from_slice(&1u32.to_le_bytes()); // container version
    bytes.extend_from_slice(&encode_graph(graph));
    Ok(ModelArtifact {
        framework: Framework::Snpe,
        files: vec![(format!("{}.dlc", graph.name), bytes)],
    })
}

/// Decode a `.dlc` file, borrowing its weights.
pub fn decode(bytes: &[u8]) -> Result<Graph<WeightBytes<'_>>> {
    if bytes.len() < 8 || &bytes[..4] != MAGIC {
        return Err(FmtError::Malformed {
            framework: Framework::Snpe,
            reason: "missing DLC magic".into(),
        });
    }
    decode_graph(&bytes[8..])
}

/// Signature probe: `DLC1` at offset 0.
pub fn probe(bytes: &[u8]) -> bool {
    bytes.len() >= 8 && &bytes[..4] == MAGIC
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaugenn_dnn::task::Task;
    use gaugenn_dnn::zoo::{build_for_task, SizeClass};

    #[test]
    fn roundtrip_and_probe() {
        let m = build_for_task(Task::ObjectDetection, 11, SizeClass::Small, true);
        let art = encode(&m.graph).unwrap();
        assert!(probe(art.primary()));
        assert_eq!(decode(art.primary()).unwrap().materialise(), m.graph);
    }

    #[test]
    fn rejects_tflite_bytes() {
        let m = build_for_task(Task::MovementTracking, 2, SizeClass::Small, true);
        let tfl = crate::tflite::encode(&m.graph).unwrap();
        assert!(!probe(tfl.primary()));
        assert!(decode(tfl.primary()).is_err());
    }
}
