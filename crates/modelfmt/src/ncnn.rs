//! NCNN container: Tencent's split format with a text `.param` graph file —
//! whose first line is the magic number `7767517`, exactly as in real ncnn —
//! and a binary `.bin` weights file.

use crate::graphcodec::{decode_graph, encode_graph};
use crate::{FmtError, Framework, ModelArtifact, Result};
use gaugenn_dnn::{Graph, WeightBytes};

/// The real ncnn param-file magic.
pub const PARAM_MAGIC: &str = "7767517";
/// Our bin-part magic (real ncnn bins are magic-free; a marker keeps the
/// `.bin` extension — shared with TFLite and PyTorch in Table 5 —
/// disambiguable by signature, which is the paper's whole validation story).
pub const BIN_MAGIC: &[u8; 4] = b"NCBW";

fn err(reason: impl Into<String>) -> FmtError {
    FmtError::Malformed {
        framework: Framework::Ncnn,
        reason: reason.into(),
    }
}

/// Encode a graph as `<name>.param` + `<name>.bin`.
pub fn encode(graph: &Graph) -> Result<ModelArtifact> {
    let mut param = String::new();
    param.push_str(PARAM_MAGIC);
    param.push('\n');
    // "<layer_count> <blob_count>" line, then one line per layer.
    param.push_str(&format!("{} {}\n", graph.nodes.len(), graph.nodes.len()));
    for node in &graph.nodes {
        param.push_str(&format!(
            "{:24}{:24}{} {}\n",
            node.kind.family(),
            node.name.replace(' ', "_"),
            node.inputs.len(),
            1
        ));
    }
    let mut bin = Vec::new();
    bin.extend_from_slice(BIN_MAGIC);
    bin.extend_from_slice(&encode_graph(graph));
    Ok(ModelArtifact {
        framework: Framework::Ncnn,
        files: vec![
            (format!("{}.param", graph.name), param.into_bytes()),
            (format!("{}.bin", graph.name), bin),
        ],
    })
}

/// Decode from the file set; the `.bin` part is authoritative, the
/// `.param` part is validated for magic and layer-count agreement.
/// Weights are borrowed from the `.bin` bytes.
pub fn decode<B: AsRef<[u8]>>(files: &[(String, B)]) -> Result<Graph<WeightBytes<'_>>> {
    let bin = files
        .iter()
        .find(|(n, _)| n.ends_with(".bin"))
        .ok_or_else(|| err("missing .bin part"))?
        .1
        .as_ref();
    if bin.len() < 4 || &bin[..4] != BIN_MAGIC {
        return Err(err("bad bin magic"));
    }
    let graph = decode_graph(&bin[4..])?;
    if let Some((_, param)) = files.iter().find(|(n, _)| n.ends_with(".param")) {
        let text = String::from_utf8_lossy(param.as_ref());
        let mut lines = text.lines();
        if lines.next() != Some(PARAM_MAGIC) {
            return Err(err("bad param magic"));
        }
        let counts = lines.next().ok_or_else(|| err("missing counts line"))?;
        let declared: usize = counts
            .split_whitespace()
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| err("bad counts line"))?;
        if declared != graph.nodes.len() {
            return Err(err(format!(
                "param declares {declared} layers, bin has {}",
                graph.nodes.len()
            )));
        }
    }
    Ok(graph)
}

/// Probe for a `.param` payload.
pub fn probe_param(bytes: &[u8]) -> bool {
    std::str::from_utf8(bytes)
        .map(|t| t.starts_with(PARAM_MAGIC))
        .unwrap_or(false)
}

/// Probe for a `.bin` payload.
pub fn probe_bin(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && &bytes[..4] == BIN_MAGIC
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaugenn_dnn::task::Task;
    use gaugenn_dnn::zoo::{build_for_task, SizeClass};

    #[test]
    fn roundtrip() {
        let m = build_for_task(Task::ObjectDetection, 20, SizeClass::Small, true);
        let art = encode(&m.graph).unwrap();
        assert!(probe_param(&art.files[0].1));
        assert!(probe_bin(&art.files[1].1));
        assert_eq!(decode(&art.files).unwrap().materialise(), m.graph);
    }

    #[test]
    fn param_magic_is_real_ncnn_value() {
        let m = build_for_task(Task::MovementTracking, 1, SizeClass::Small, true);
        let art = encode(&m.graph).unwrap();
        let text = String::from_utf8(art.files[0].1.clone()).unwrap();
        assert!(text.starts_with("7767517\n"));
    }

    #[test]
    fn mismatched_pair_rejected() {
        let a = encode(&build_for_task(Task::MovementTracking, 1, SizeClass::Small, true).graph)
            .unwrap();
        let b = encode(&build_for_task(Task::CrashDetection, 2, SizeClass::Small, true).graph)
            .unwrap();
        let mixed = vec![a.files[0].clone(), b.files[1].clone()];
        assert!(decode(&mixed).is_err());
    }

    #[test]
    fn bin_without_param_decodes() {
        let m = build_for_task(Task::CrashDetection, 3, SizeClass::Small, true);
        let art = encode(&m.graph).unwrap();
        let only_bin = vec![art.files[1].clone()];
        assert_eq!(decode(&only_bin).unwrap().materialise(), m.graph);
    }

    #[test]
    fn probes_reject_foreign_bytes() {
        assert!(!probe_param(b"name: \"x\"\nlayer {"));
        assert!(!probe_bin(b"TFL3"));
    }
}
