//! ONNX container (`.onnx`): a ModelProto-shaped protobuf message with
//! `ir_version` (field 1), `producer_name` (field 2) and `graph` (field 7).
//! Like TF, no magic bytes — the probe is structural.

use crate::graphcodec::{decode_graph, encode_graph};
use crate::minipb::{PbReader, PbValue, PbWriter};
use crate::{FmtError, Framework, ModelArtifact, Result};
use gaugenn_dnn::{Graph, WeightBytes};

const F_IR_VERSION: u32 = 1;
const F_PRODUCER: u32 = 2;
const F_GRAPH: u32 = 7;
/// IR version we emit.
pub const IR_VERSION: u64 = 8;

/// Encode a graph as a `.onnx` file.
pub fn encode(graph: &Graph) -> Result<ModelArtifact> {
    let mut w = PbWriter::new();
    w.varint(F_IR_VERSION, IR_VERSION);
    w.string(F_PRODUCER, "gaugenn");
    w.bytes(F_GRAPH, &encode_graph(graph));
    Ok(ModelArtifact {
        framework: Framework::Onnx,
        files: vec![(format!("{}.onnx", graph.name), w.finish())],
    })
}

/// Decode a `.onnx` file, borrowing its weights.
pub fn decode(bytes: &[u8]) -> Result<Graph<WeightBytes<'_>>> {
    decode_graph(parse_envelope(bytes)?)
}

fn parse_envelope(bytes: &[u8]) -> Result<&[u8]> {
    let mut r = PbReader::new(bytes);
    let mut ir = None;
    let mut graph = None;
    while !r.at_end() {
        let (field, value) = r.next_field().map_err(|e| FmtError::Malformed {
            framework: Framework::Onnx,
            reason: e.to_string(),
        })?;
        match (field, value) {
            (F_IR_VERSION, PbValue::Varint(v)) => ir = Some(v),
            (F_PRODUCER, PbValue::Bytes(_)) => {}
            (F_GRAPH, PbValue::Bytes(b)) => graph = Some(b),
            _ => {
                return Err(FmtError::Malformed {
                    framework: Framework::Onnx,
                    reason: format!("unexpected field {field}"),
                })
            }
        }
    }
    match (ir, graph) {
        // Real ONNX IR versions run 3..=10; anything else is suspicious.
        (Some(v), Some(g)) if (3..=10).contains(&v) => Ok(g),
        _ => Err(FmtError::Malformed {
            framework: Framework::Onnx,
            reason: "missing ir_version or graph".into(),
        }),
    }
}

/// Structural probe: parses as a ModelProto envelope.
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
        let m = build_for_task(Task::PoseEstimation, 6, SizeClass::Small, true);
        let art = encode(&m.graph).unwrap();
        assert!(probe(art.primary()));
        assert_eq!(decode(art.primary()).unwrap().materialise(), m.graph);
    }

    #[test]
    fn probe_rejects_tf() {
        let m = build_for_task(Task::MovementTracking, 6, SizeClass::Small, true);
        let tf = crate::tf::encode(&m.graph).unwrap();
        assert!(!probe(tf.primary()));
    }
}
