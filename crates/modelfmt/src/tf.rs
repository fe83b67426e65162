//! TensorFlow frozen-graph container (`.pb`).
//!
//! Protobuf files carry no magic bytes, so validation is purely structural:
//! the stream must parse as a message with exactly the GraphDef-shaped
//! fields we emit (a version varint in field 1, the graph payload in field
//! 2). This mirrors why the paper's candidate funnel is so wide for `.pb`.

use crate::graphcodec::{decode_graph, encode_graph};
use crate::minipb::{PbReader, PbValue, PbWriter};
use crate::{FmtError, Framework, ModelArtifact, Result};
use gaugenn_dnn::{Graph, WeightBytes};

const F_VERSION: u32 = 1;
const F_GRAPH: u32 = 2;
/// GraphDef version we emit.
pub const GRAPHDEF_VERSION: u64 = 27;

/// Encode a graph as a TensorFlow `.pb` file.
pub fn encode(graph: &Graph) -> Result<ModelArtifact> {
    let mut w = PbWriter::new();
    w.varint(F_VERSION, GRAPHDEF_VERSION);
    w.bytes(F_GRAPH, &encode_graph(graph));
    Ok(ModelArtifact {
        framework: Framework::TensorFlow,
        files: vec![(format!("{}.pb", graph.name), w.finish())],
    })
}

/// Decode a TensorFlow `.pb` file, borrowing its weights.
pub fn decode(bytes: &[u8]) -> Result<Graph<WeightBytes<'_>>> {
    let body = parse_envelope(bytes)?;
    decode_graph(body)
}

fn parse_envelope(bytes: &[u8]) -> Result<&[u8]> {
    let mut r = PbReader::new(bytes);
    let mut version = None;
    let mut graph = None;
    while !r.at_end() {
        let (field, value) = r.next_field().map_err(|e| FmtError::Malformed {
            framework: Framework::TensorFlow,
            reason: e.to_string(),
        })?;
        match (field, value) {
            (F_VERSION, PbValue::Varint(v)) => version = Some(v),
            (F_GRAPH, PbValue::Bytes(b)) => graph = Some(b),
            _ => {
                return Err(FmtError::Malformed {
                    framework: Framework::TensorFlow,
                    reason: format!("unexpected field {field}"),
                })
            }
        }
    }
    match (version, graph) {
        (Some(v), Some(g)) if v <= 1000 => Ok(g),
        _ => Err(FmtError::Malformed {
            framework: Framework::TensorFlow,
            reason: "missing version or graph field".into(),
        }),
    }
}

/// Structural probe: parses as the GraphDef envelope.
pub fn probe(bytes: &[u8]) -> bool {
    parse_envelope(bytes).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaugenn_dnn::task::Task;
    use gaugenn_dnn::zoo::{build_for_task, SizeClass};

    #[test]
    fn roundtrip_and_probe() {
        let m = build_for_task(Task::ImageClassification, 8, SizeClass::Small, true);
        let art = encode(&m.graph).unwrap();
        assert!(probe(art.primary()));
        assert_eq!(decode(art.primary()).unwrap().materialise(), m.graph);
    }

    #[test]
    fn probe_rejects_onnx_and_garbage() {
        let m = build_for_task(Task::MovementTracking, 8, SizeClass::Small, true);
        let onnx = crate::onnx::encode(&m.graph).unwrap();
        assert!(!probe(onnx.primary()));
        assert!(!probe(b"not protobuf at all"));
        assert!(!probe(&[]));
    }
}
