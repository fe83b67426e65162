//! Caffe container: a split format with a text graph description
//! (`.prototxt`) and a binary weights file (`.caffemodel`).
//!
//! §4.5 footnote 6: "Most apps distribute the model weights in their apk,
//! either in a single file … or in separate files (e.g. caffe). In either
//! case, we perform an md5 checksum on both the model and weights" — so the
//! split is load-bearing for the uniqueness analysis.

use crate::graphcodec::{decode_graph, encode_graph};
use crate::minipb::{PbReader, PbValue, PbWriter};
use crate::{FmtError, Framework, ModelArtifact, Result};
use gaugenn_dnn::{Graph, WeightBytes};

const F_MAGIC: u32 = 1;
const F_BODY: u32 = 2;
const CAFFE_MAGIC: &[u8] = b"caffe-binary-v1";

fn err(reason: impl Into<String>) -> FmtError {
    FmtError::Malformed {
        framework: Framework::Caffe,
        reason: reason.into(),
    }
}

/// Encode a graph as `<name>.prototxt` + `<name>.caffemodel`.
pub fn encode(graph: &Graph) -> Result<ModelArtifact> {
    // prototxt: human-readable layer listing.
    let mut proto = format!("name: \"{}\"\n", graph.name);
    for node in &graph.nodes {
        proto.push_str(&format!(
            "layer {{\n  name: \"{}\"\n  type: \"{}\"\n}}\n",
            node.name,
            node.kind.family()
        ));
    }
    // caffemodel: magic + canonical body.
    let mut w = PbWriter::new();
    w.bytes(F_MAGIC, CAFFE_MAGIC);
    w.bytes(F_BODY, &encode_graph(graph));
    Ok(ModelArtifact {
        framework: Framework::Caffe,
        files: vec![
            (format!("{}.caffemodel", graph.name), w.finish()),
            (format!("{}.prototxt", graph.name), proto.into_bytes()),
        ],
    })
}

/// Decode from the file set; the `.caffemodel` part is authoritative and
/// the `.prototxt`, when present, is cross-checked for layer-count
/// agreement (a mismatched pair is how you catch mixed-up app assets).
/// Weights are borrowed from the `.caffemodel` bytes.
pub fn decode<B: AsRef<[u8]>>(files: &[(String, B)]) -> Result<Graph<WeightBytes<'_>>> {
    let model = files
        .iter()
        .find(|(n, _)| n.ends_with(".caffemodel"))
        .ok_or_else(|| err("missing .caffemodel part"))?;
    let body = parse_caffemodel(model.1.as_ref())?;
    let graph = decode_graph(body)?;
    if let Some((_, proto)) = files.iter().find(|(n, _)| n.ends_with(".prototxt")) {
        let text = String::from_utf8_lossy(proto.as_ref());
        let declared = text.matches("layer {").count();
        if declared != graph.nodes.len() {
            return Err(err(format!(
                "prototxt declares {declared} layers, caffemodel has {}",
                graph.nodes.len()
            )));
        }
    }
    Ok(graph)
}

fn parse_caffemodel(bytes: &[u8]) -> Result<&[u8]> {
    let mut r = PbReader::new(bytes);
    let mut magic_ok = false;
    let mut body = None;
    while !r.at_end() {
        let (field, value) = r.next_field().map_err(|e| err(e.to_string()))?;
        match (field, value) {
            (F_MAGIC, PbValue::Bytes(b)) => magic_ok = b == CAFFE_MAGIC,
            (F_BODY, PbValue::Bytes(b)) => body = Some(b),
            _ => return Err(err(format!("unexpected field {field}"))),
        }
    }
    if !magic_ok {
        return Err(err("missing caffe magic"));
    }
    body.ok_or_else(|| err("missing body"))
}

/// Probe for a `.caffemodel` payload.
pub fn probe_caffemodel(bytes: &[u8]) -> bool {
    parse_caffemodel(bytes).is_ok()
}

/// Probe for a `.prototxt` payload: text with caffe layer stanzas.
pub fn probe_prototxt(bytes: &[u8]) -> bool {
    let Ok(text) = std::str::from_utf8(bytes) else {
        return false;
    };
    text.starts_with("name:") && text.contains("layer {")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaugenn_dnn::task::Task;
    use gaugenn_dnn::zoo::{build_for_task, SizeClass};

    #[test]
    fn roundtrip_split_files() {
        let m = build_for_task(Task::ContourDetection, 15, SizeClass::Small, true);
        let art = encode(&m.graph).unwrap();
        assert_eq!(art.files.len(), 2);
        assert!(probe_caffemodel(&art.files[0].1));
        assert!(probe_prototxt(&art.files[1].1));
        assert_eq!(decode(&art.files).unwrap().materialise(), m.graph);
    }

    #[test]
    fn decode_without_prototxt_still_works() {
        let m = build_for_task(Task::ContourDetection, 15, SizeClass::Small, true);
        let art = encode(&m.graph).unwrap();
        let only_model = vec![art.files[0].clone()];
        assert_eq!(decode(&only_model).unwrap().materialise(), m.graph);
    }

    #[test]
    fn layer_count_mismatch_detected() {
        let m = build_for_task(Task::MovementTracking, 15, SizeClass::Small, true);
        let other = build_for_task(Task::CrashDetection, 16, SizeClass::Small, true);
        let a1 = encode(&m.graph).unwrap();
        let a2 = encode(&other.graph).unwrap();
        let mixed = vec![a1.files[0].clone(), a2.files[1].clone()];
        assert!(decode(&mixed).is_err());
    }

    #[test]
    fn probes_reject_foreign_bytes() {
        assert!(!probe_caffemodel(b"DLC1xxxx"));
        assert!(!probe_prototxt(b"\x00\x01binary"));
        assert!(!probe_prototxt(b"just some text"));
    }
}
