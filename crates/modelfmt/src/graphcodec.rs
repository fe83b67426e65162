//! Canonical graph body codec.
//!
//! Every framework container in this crate wraps the same underlying graph
//! encoding (built on [`minipb`](crate::minipb)), differing in envelope,
//! field numbering, magic bytes and file split — enough for signature
//! validation to be meaningful, while keeping a single well-tested
//! serialisation of layers and weights.
//!
//! Byte-stability matters: §4.5's uniqueness analysis md5-checksums the
//! serialised model and per-layer weights, so encoding must be a pure
//! function of the graph.
//!
//! [`decode_graph`] is the one parser of the body. It leaves every weight
//! payload where it lies, as [`WeightBytes`]; a caller that reads weight
//! values copies them out with [`Graph::materialise`].

use crate::minipb::{unpack_floats, unpack_varints, PbReader, PbWriter};
use crate::{FmtError, Result};
use gaugenn_dnn::graph::{ActKind, BinOp, Graph, LayerKind, Node, Padding, PoolKind, ResizeMode};
use gaugenn_dnn::tensor::{DType, QuantParams, Shape, WeightBytes, WeightData};

// Node message fields.
const F_NAME: u32 = 1;
const F_KIND: u32 = 2;
const F_UPARAMS: u32 = 3;
const F_FPARAMS: u32 = 4;
const F_INPUTS: u32 = 5;
const F_WEIGHTS: u32 = 6;
const F_BIAS: u32 = 7;

// Graph message fields.
const G_NAME: u32 = 1;
const G_NODE: u32 = 2;
const G_OUTPUTS: u32 = 3;

// WeightData message fields.
const W_DTYPE: u32 = 1;
const W_F32: u32 = 2;
const W_I8: u32 = 3;
const W_SCALE: u32 = 4;
const W_ZERO: u32 = 5;

/// Encode a graph into the canonical body bytes.
pub fn encode_graph(graph: &Graph) -> Vec<u8> {
    let mut g = PbWriter::new();
    g.string(G_NAME, &graph.name);
    for node in &graph.nodes {
        let mut n = PbWriter::new();
        n.string(F_NAME, &node.name);
        let (kind_id, uparams, fparams) = kind_to_wire(&node.kind);
        n.varint(F_KIND, kind_id);
        if !uparams.is_empty() {
            n.packed_varints(F_UPARAMS, &uparams);
        }
        if !fparams.is_empty() {
            n.packed_floats(F_FPARAMS, &fparams);
        }
        if !node.inputs.is_empty() {
            let ins: Vec<u64> = node.inputs.iter().map(|&i| i as u64).collect();
            n.packed_varints(F_INPUTS, &ins);
        }
        if let Some(w) = &node.weights {
            n.message(F_WEIGHTS, &encode_weights(w));
        }
        if let Some(b) = &node.bias {
            n.message(F_BIAS, &encode_weights(b));
        }
        g.message(G_NODE, &n);
    }
    let outs: Vec<u64> = graph.outputs.iter().map(|&o| o as u64).collect();
    g.packed_varints(G_OUTPUTS, &outs);
    g.finish()
}

/// Decode the canonical body back into a graph, validating it. Weight
/// payloads are borrowed from `bytes`, not copied.
pub fn decode_graph(bytes: &[u8]) -> Result<Graph<WeightBytes<'_>>> {
    let mut r = PbReader::new(bytes);
    let mut name = String::new();
    let mut nodes = Vec::new();
    let mut outputs = Vec::new();
    while !r.at_end() {
        let (field, value) = r.next_field()?;
        match field {
            G_NAME => name = value.as_str()?.to_string(),
            G_NODE => nodes.push(decode_node(value.as_bytes()?)?),
            G_OUTPUTS => {
                outputs = unpack_varints(value.as_bytes()?)?
                    .into_iter()
                    .map(|v| v as usize)
                    .collect()
            }
            _ => return Err(FmtError::Wire(format!("unknown graph field {field}"))),
        }
    }
    let graph = Graph {
        name,
        nodes,
        outputs,
    };
    graph.validate()?;
    Ok(graph)
}

fn decode_node(bytes: &[u8]) -> Result<Node<WeightBytes<'_>>> {
    let mut r = PbReader::new(bytes);
    let mut name = String::new();
    let mut kind_id = None;
    let mut uparams = Vec::new();
    let mut fparams = Vec::new();
    let mut inputs = Vec::new();
    let mut weights = None;
    let mut bias = None;
    while !r.at_end() {
        let (field, value) = r.next_field()?;
        match field {
            F_NAME => name = value.as_str()?.to_string(),
            F_KIND => kind_id = Some(value.as_u64()?),
            F_UPARAMS => uparams = unpack_varints(value.as_bytes()?)?,
            F_FPARAMS => fparams = unpack_floats(value.as_bytes()?)?,
            F_INPUTS => {
                inputs = unpack_varints(value.as_bytes()?)?
                    .into_iter()
                    .map(|v| v as usize)
                    .collect()
            }
            F_WEIGHTS => weights = Some(decode_weights(value.as_bytes()?)?),
            F_BIAS => bias = Some(decode_weights(value.as_bytes()?)?),
            _ => return Err(FmtError::Wire(format!("unknown node field {field}"))),
        }
    }
    let kind_id = kind_id.ok_or_else(|| FmtError::Wire("node missing kind".into()))?;
    let kind = wire_to_kind(kind_id, &uparams, &fparams)?;
    Ok(Node {
        name,
        kind,
        inputs,
        weights,
        bias,
    })
}

fn encode_weights(w: &WeightData) -> PbWriter {
    let mut m = PbWriter::new();
    match w {
        WeightData::F32(v) => {
            m.varint(W_DTYPE, 0);
            m.packed_floats(W_F32, v);
        }
        WeightData::I8 { data, params } => {
            m.varint(W_DTYPE, 1);
            let raw: Vec<u8> = data.iter().map(|&b| b as u8).collect();
            m.bytes(W_I8, &raw);
            m.float(W_SCALE, params.scale);
            m.varint(W_ZERO, zigzag(params.zero_point as i64));
        }
    }
    m
}

fn decode_weights(bytes: &[u8]) -> Result<WeightBytes<'_>> {
    let mut r = PbReader::new(bytes);
    let mut dtype = 0u64;
    let mut f32s: &[[u8; 4]] = &[];
    let mut i8s: &[u8] = &[];
    let mut scale = 1.0f32;
    let mut zero = 0i32;
    while !r.at_end() {
        let (field, value) = r.next_field()?;
        match field {
            W_DTYPE => dtype = value.as_u64()?,
            W_F32 => {
                let (words, rest) = value.as_bytes()?.as_chunks::<4>();
                if !rest.is_empty() {
                    return Err(FmtError::Wire(
                        "packed float array not multiple of 4".into(),
                    ));
                }
                f32s = words;
            }
            W_I8 => i8s = value.as_bytes()?,
            W_SCALE => scale = value.as_f32()?,
            W_ZERO => zero = unzigzag(value.as_u64()?) as i32,
            _ => return Err(FmtError::Wire(format!("unknown weight field {field}"))),
        }
    }
    match dtype {
        0 => Ok(WeightBytes::F32(f32s)),
        1 => Ok(WeightBytes::I8 {
            data: i8s,
            params: QuantParams {
                scale,
                zero_point: zero,
            },
        }),
        other => Err(FmtError::Wire(format!("unknown weight dtype {other}"))),
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn dtype_code(d: DType) -> u64 {
    match d {
        DType::F32 => 0,
        DType::I8 => 1,
        DType::U8 => 2,
        DType::I32 => 3,
    }
}
fn code_dtype(c: u64) -> Result<DType> {
    match c {
        0 => Ok(DType::F32),
        1 => Ok(DType::I8),
        2 => Ok(DType::U8),
        3 => Ok(DType::I32),
        other => Err(FmtError::Wire(format!("bad dtype code {other}"))),
    }
}

fn pad_code(p: Padding) -> u64 {
    match p {
        Padding::Same => 0,
        Padding::Valid => 1,
    }
}
fn code_pad(c: u64) -> Result<Padding> {
    match c {
        0 => Ok(Padding::Same),
        1 => Ok(Padding::Valid),
        other => Err(FmtError::Wire(format!("bad padding code {other}"))),
    }
}

fn act_code(a: ActKind) -> u64 {
    match a {
        ActKind::Relu => 0,
        ActKind::Relu6 => 1,
        ActKind::Sigmoid => 2,
        ActKind::Tanh => 3,
        ActKind::HardSwish => 4,
        ActKind::LeakyRelu => 5,
    }
}
fn code_act(c: u64) -> Result<ActKind> {
    Ok(match c {
        0 => ActKind::Relu,
        1 => ActKind::Relu6,
        2 => ActKind::Sigmoid,
        3 => ActKind::Tanh,
        4 => ActKind::HardSwish,
        5 => ActKind::LeakyRelu,
        other => return Err(FmtError::Wire(format!("bad activation code {other}"))),
    })
}

fn pool_code(p: PoolKind) -> u64 {
    match p {
        PoolKind::Max => 0,
        PoolKind::Avg => 1,
    }
}
fn code_pool(c: u64) -> Result<PoolKind> {
    match c {
        0 => Ok(PoolKind::Max),
        1 => Ok(PoolKind::Avg),
        other => Err(FmtError::Wire(format!("bad pool code {other}"))),
    }
}

/// `(kind_id, integer_params, float_params)` wire form of a layer kind.
fn kind_to_wire(kind: &LayerKind) -> (u64, Vec<u64>, Vec<f32>) {
    match kind {
        LayerKind::Input { shape, dtype } => {
            let mut u = vec![dtype_code(*dtype)];
            u.extend(shape.0.iter().map(|&d| d as u64));
            (0, u, vec![])
        }
        LayerKind::Conv2d {
            out_channels,
            kernel,
            stride,
            padding,
        } => (
            1,
            vec![
                *out_channels as u64,
                *kernel as u64,
                *stride as u64,
                pad_code(*padding),
            ],
            vec![],
        ),
        LayerKind::DepthwiseConv2d {
            kernel,
            stride,
            padding,
        } => (
            2,
            vec![*kernel as u64, *stride as u64, pad_code(*padding)],
            vec![],
        ),
        LayerKind::Dense { units } => (3, vec![*units as u64], vec![]),
        LayerKind::Activation(a) => (4, vec![act_code(*a)], vec![]),
        LayerKind::Pool {
            kind,
            kernel,
            stride,
            padding,
        } => (
            5,
            vec![
                pool_code(*kind),
                *kernel as u64,
                *stride as u64,
                pad_code(*padding),
            ],
            vec![],
        ),
        LayerKind::GlobalPool(p) => (6, vec![pool_code(*p)], vec![]),
        LayerKind::Binary(op) => (
            7,
            vec![match op {
                BinOp::Add => 0,
                BinOp::Mul => 1,
                BinOp::Sub => 2,
            }],
            vec![],
        ),
        LayerKind::Concat => (8, vec![], vec![]),
        LayerKind::Reshape { dims } => {
            (9, dims.iter().map(|&d| d as u64).collect(), vec![])
        }
        LayerKind::Resize { out_h, out_w, mode } => (
            10,
            vec![
                *out_h as u64,
                *out_w as u64,
                match mode {
                    ResizeMode::Nearest => 0,
                    ResizeMode::Bilinear => 1,
                },
            ],
            vec![],
        ),
        LayerKind::Slice { begin, len } => (11, vec![*begin as u64, *len as u64], vec![]),
        LayerKind::Softmax => (12, vec![], vec![]),
        LayerKind::BatchNorm => (13, vec![], vec![]),
        LayerKind::Pad { pad } => (14, vec![*pad as u64], vec![]),
        LayerKind::Quantize(q) => (
            15,
            vec![zigzag(q.zero_point as i64)],
            vec![q.scale],
        ),
        LayerKind::Dequantize(q) => (
            16,
            vec![zigzag(q.zero_point as i64)],
            vec![q.scale],
        ),
        LayerKind::Embedding { vocab, dim } => {
            (17, vec![*vocab as u64, *dim as u64], vec![])
        }
        LayerKind::Lstm { units } => (18, vec![*units as u64], vec![]),
        LayerKind::Gru { units } => (19, vec![*units as u64], vec![]),
        LayerKind::MeanTime => (20, vec![], vec![]),
        LayerKind::TransposeConv2d {
            out_channels,
            kernel,
            stride,
        } => (
            21,
            vec![*out_channels as u64, *kernel as u64, *stride as u64],
            vec![],
        ),
        LayerKind::L2Norm => (22, vec![], vec![]),
    }
}

fn need(u: &[u64], n: usize, what: &str) -> Result<()> {
    if u.len() < n {
        Err(FmtError::Wire(format!("{what} needs {n} params, has {}", u.len())))
    } else {
        Ok(())
    }
}

fn wire_to_kind(id: u64, u: &[u64], f: &[f32]) -> Result<LayerKind> {
    Ok(match id {
        0 => {
            need(u, 1, "input")?;
            let dtype = code_dtype(u[0])?;
            let dims: Vec<usize> = u[1..].iter().map(|&d| d as usize).collect();
            LayerKind::Input {
                shape: Shape(dims),
                dtype,
            }
        }
        1 => {
            need(u, 4, "conv2d")?;
            LayerKind::Conv2d {
                out_channels: u[0] as usize,
                kernel: u[1] as usize,
                stride: u[2] as usize,
                padding: code_pad(u[3])?,
            }
        }
        2 => {
            need(u, 3, "depthwise")?;
            LayerKind::DepthwiseConv2d {
                kernel: u[0] as usize,
                stride: u[1] as usize,
                padding: code_pad(u[2])?,
            }
        }
        3 => {
            need(u, 1, "dense")?;
            LayerKind::Dense {
                units: u[0] as usize,
            }
        }
        4 => {
            need(u, 1, "activation")?;
            LayerKind::Activation(code_act(u[0])?)
        }
        5 => {
            need(u, 4, "pool")?;
            LayerKind::Pool {
                kind: code_pool(u[0])?,
                kernel: u[1] as usize,
                stride: u[2] as usize,
                padding: code_pad(u[3])?,
            }
        }
        6 => {
            need(u, 1, "global_pool")?;
            LayerKind::GlobalPool(code_pool(u[0])?)
        }
        7 => {
            need(u, 1, "binary")?;
            LayerKind::Binary(match u[0] {
                0 => BinOp::Add,
                1 => BinOp::Mul,
                2 => BinOp::Sub,
                other => return Err(FmtError::Wire(format!("bad binop {other}"))),
            })
        }
        8 => LayerKind::Concat,
        9 => LayerKind::Reshape {
            dims: u.iter().map(|&d| d as usize).collect(),
        },
        10 => {
            need(u, 3, "resize")?;
            LayerKind::Resize {
                out_h: u[0] as usize,
                out_w: u[1] as usize,
                mode: match u[2] {
                    0 => ResizeMode::Nearest,
                    1 => ResizeMode::Bilinear,
                    other => return Err(FmtError::Wire(format!("bad resize mode {other}"))),
                },
            }
        }
        11 => {
            need(u, 2, "slice")?;
            LayerKind::Slice {
                begin: u[0] as usize,
                len: u[1] as usize,
            }
        }
        12 => LayerKind::Softmax,
        13 => LayerKind::BatchNorm,
        14 => {
            need(u, 1, "pad")?;
            LayerKind::Pad {
                pad: u[0] as usize,
            }
        }
        15 | 16 => {
            need(u, 1, "quant")?;
            if f.is_empty() {
                return Err(FmtError::Wire("quant layer missing scale".into()));
            }
            let q = QuantParams {
                scale: f[0],
                zero_point: unzigzag(u[0]) as i32,
            };
            if id == 15 {
                LayerKind::Quantize(q)
            } else {
                LayerKind::Dequantize(q)
            }
        }
        17 => {
            need(u, 2, "embedding")?;
            LayerKind::Embedding {
                vocab: u[0] as usize,
                dim: u[1] as usize,
            }
        }
        18 => {
            need(u, 1, "lstm")?;
            LayerKind::Lstm {
                units: u[0] as usize,
            }
        }
        19 => {
            need(u, 1, "gru")?;
            LayerKind::Gru {
                units: u[0] as usize,
            }
        }
        20 => LayerKind::MeanTime,
        21 => {
            need(u, 3, "transpose_conv")?;
            LayerKind::TransposeConv2d {
                out_channels: u[0] as usize,
                kernel: u[1] as usize,
                stride: u[2] as usize,
            }
        }
        22 => LayerKind::L2Norm,
        other => return Err(FmtError::Wire(format!("unknown layer kind id {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaugenn_dnn::task::Task;
    use gaugenn_dnn::zoo::{build_for_task, SizeClass};

    #[test]
    fn roundtrip_all_zoo_tasks() {
        for (i, &task) in Task::ALL.iter().enumerate() {
            let m = build_for_task(task, 500 + i as u64, SizeClass::Small, true);
            let bytes = encode_graph(&m.graph);
            let back = decode_graph(&bytes).unwrap_or_else(|e| panic!("{task:?}: {e}"));
            assert_eq!(back.materialise(), m.graph, "{task:?}");
        }
    }

    #[test]
    fn roundtrip_quantised_model() {
        use gaugenn_dnn::quant::{apply, QuantMode};
        let m = build_for_task(Task::KeywordDetection, 1, SizeClass::Small, true);
        let q = apply(&m.graph, QuantMode::Full);
        let bytes = encode_graph(&q);
        let back = decode_graph(&bytes).unwrap().materialise();
        assert_eq!(back, q);
        assert!(back.has_int8_weights());
        assert!(back.has_quant_layers());
    }

    #[test]
    fn corrupted_body_rejected() {
        let m = build_for_task(Task::MovementTracking, 2, SizeClass::Small, true);
        let bytes = encode_graph(&m.graph);
        assert!(decode_graph(&bytes[..bytes.len() / 2]).is_err());
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [-3i64, -1, 0, 1, 127, -128, i32::MAX as i64, i32::MIN as i64] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn identical_graphs_identical_bytes() {
        let a = build_for_task(Task::FaceDetection, 3, SizeClass::Small, true);
        let b = build_for_task(Task::FaceDetection, 3, SizeClass::Small, true);
        assert_eq!(encode_graph(&a.graph), encode_graph(&b.graph));
    }
}
