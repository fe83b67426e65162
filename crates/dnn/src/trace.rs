//! Trace-based operation and parameter accounting.
//!
//! Mirrors §4.7 of the paper: "we generate a random input with the
//! DNN-specified input dimensions and perform a DNN inference. During the
//! forward propagation step, we measure analytically the amount of operations
//! being performed per layer … and the number of trainable parameters".
//!
//! FLOPs are counted as 2 × MACs for multiply-accumulate layers (footnote 3
//! of the paper). The trace also records per-layer memory traffic, which the
//! SoC roofline model uses to decide whether a layer is compute- or
//! memory-bound.
//!
//! The trace reads only each weight payload's length and dtype, so it runs
//! on any [`Weights`] storage. Its counts are products of extents read from
//! a model file, so they are computed with checked arithmetic: a count that
//! overflows `u64` is an error naming the node.

use crate::graph::{Graph, LayerKind};
use crate::shape::infer_shapes;
use crate::tensor::{Shape, Weights};
use crate::{DnnError, Result};

/// Per-layer accounting record.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTrace {
    /// Node id in the graph.
    pub node: usize,
    /// Layer name.
    pub name: String,
    /// Coarse family label (see [`LayerKind::family`]).
    pub family: &'static str,
    /// Output shape.
    pub out_shape: Shape,
    /// Multiply-accumulate count.
    pub macs: u64,
    /// Floating-point operation count (2 × MACs for MAC layers, element
    /// counts for pointwise ops).
    pub flops: u64,
    /// Trainable parameters attached to this layer.
    pub params: u64,
    /// Bytes of weights + input activations read.
    pub bytes_read: u64,
    /// Bytes of output activations written.
    pub bytes_written: u64,
    /// Of `bytes_read`, the weight portion (batch-invariant).
    pub weight_bytes: u64,
}

impl LayerTrace {
    /// Arithmetic intensity in FLOPs per byte of traffic; the roofline knee.
    pub fn arithmetic_intensity(&self) -> f64 {
        let bytes = (self.bytes_read + self.bytes_written).max(1);
        self.flops as f64 / bytes as f64
    }
}

/// Whole-graph accounting summary.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// Per-layer records in topological order (inputs excluded).
    pub layers: Vec<LayerTrace>,
    /// Total multiply-accumulates.
    pub total_macs: u64,
    /// Total FLOPs.
    pub total_flops: u64,
    /// Total trainable parameters.
    pub total_params: u64,
    /// Peak single-layer activation footprint in elements (proxy for runtime
    /// memory high-water mark).
    pub peak_activation_elems: u64,
}

impl TraceReport {
    /// Model size in bytes assuming f32 storage of all parameters.
    pub fn model_bytes_f32(&self) -> u64 {
        self.total_params * 4
    }

    /// Giga-FLOPs, for reporting.
    pub fn gflops(&self) -> f64 {
        self.total_flops as f64 / 1e9
    }
}

/// Rescale a batch-1 trace to `batch` samples without re-deriving it from
/// the graph. Exact for every layer kind in this IR: compute and
/// activation traffic scale linearly with batch while weight traffic does
/// not. The runtime experiments use this so unique-model records can drop
/// their (weight-heavy) graphs after offline analysis.
///
/// The counts are scaled with checked arithmetic: where
/// [`trace_graph_batched`] at the same batch fails because a count
/// overflows `u64`, so does this.
pub fn rebatch(trace: &TraceReport, batch: usize) -> Result<TraceReport> {
    let b = batch as u64;
    let mut layers = Vec::with_capacity(trace.layers.len());
    let (mut total_macs, mut total_flops) = (0u64, 0u64);
    for l in &trace.layers {
        let overflow = |what: &str| DnnError::Shape {
            node: l.node,
            reason: format!("{what} overflows u64"),
        };
        let (macs, flops) = l
            .macs
            .checked_mul(b)
            .zip(l.flops.checked_mul(b))
            .ok_or_else(|| overflow("operation count"))?;
        // A layer's output and the inputs it reads are in its bytes, so
        // this also covers every element count the batched trace checks.
        let (bytes_read, bytes_written) =
            rebatched_traffic(l, b).ok_or_else(|| overflow("byte count"))?;
        total_macs = total_macs
            .checked_add(macs)
            .ok_or_else(|| overflow("total MAC count"))?;
        total_flops = total_flops
            .checked_add(flops)
            .ok_or_else(|| overflow("total FLOP count"))?;
        layers.push(LayerTrace {
            node: l.node,
            name: l.name.clone(),
            family: l.family,
            out_shape: l.out_shape.with_batch(batch),
            macs,
            flops,
            params: l.params,
            bytes_read,
            bytes_written,
            weight_bytes: l.weight_bytes,
        });
    }
    // Only an input no layer reads can overflow here. The trace keeps no
    // input nodes, so the error names node 0.
    let peak_activation_elems =
        trace
            .peak_activation_elems
            .checked_mul(b)
            .ok_or_else(|| DnnError::Shape {
                node: 0,
                reason: "peak activation element count overflows u64".into(),
            })?;
    Ok(TraceReport {
        layers,
        total_macs,
        total_flops,
        total_params: trace.total_params,
        peak_activation_elems,
    })
}

/// A batch-1 layer's `(bytes_read, bytes_written)` at `b` samples: the
/// activation bytes scale and the weight bytes do not. `None` when
/// either or their sum overflows `u64`, as in [`traffic`].
fn rebatched_traffic(l: &LayerTrace, b: u64) -> Option<(u64, u64)> {
    let read = l
        .bytes_read
        .checked_sub(l.weight_bytes)?
        .checked_mul(b)?
        .checked_add(l.weight_bytes)?;
    let written = l.bytes_written.checked_mul(b)?;
    read.checked_add(written)?;
    Some((read, written))
}

/// Run the trace for batch size 1.
pub fn trace_graph<W: Weights>(graph: &Graph<W>) -> Result<TraceReport> {
    trace_graph_batched(graph, 1)
}

/// Run the trace with every input rebatched to `batch` samples.
pub fn trace_graph_batched<W: Weights>(graph: &Graph<W>, batch: usize) -> Result<TraceReport> {
    let mut shapes = infer_shapes(graph)?;
    if batch != 1 {
        for s in &mut shapes {
            *s = s.with_batch(batch);
        }
    }
    let mut layers = Vec::with_capacity(graph.nodes.len());
    let (mut total_macs, mut total_flops, mut total_params) = (0u64, 0u64, 0u64);
    let mut peak = 0u64;
    // Scratch for the per-node input-shape views, reused across nodes so
    // the trace (which the analysis pool runs once per unique model) does
    // not allocate per layer.
    let mut in_shapes: Vec<&Shape> = Vec::new();
    for (id, node) in graph.nodes.iter().enumerate() {
        let overflow = |what: &str| DnnError::Shape {
            node: id,
            reason: format!("{what} overflows u64"),
        };
        let out = &shapes[id];
        let out_elems = elems(out).ok_or_else(|| overflow("output element count"))?;
        peak = peak.max(out_elems);
        if matches!(node.kind, LayerKind::Input { .. }) {
            continue;
        }
        in_shapes.clear();
        in_shapes.extend(node.inputs.iter().map(|&i| &shapes[i]));
        let (macs, flops) = layer_ops(&node.kind, &in_shapes, out_elems)
            .ok_or_else(|| overflow("operation count"))?;
        let params = node.weights.as_ref().map_or(0, |w| w.len() as u64)
            + node.bias.as_ref().map_or(0, |b| b.len() as u64);
        // Bounded by the payloads' own sizes, unlike the activation bytes.
        let weight_bytes = node
            .weights
            .as_ref()
            .map_or(0, |w| w.len() as u64 * w.dtype().size_bytes() as u64)
            + node.bias.as_ref().map_or(0, |b| b.len() as u64 * 4);
        let (bytes_read, bytes_written) =
            traffic(weight_bytes, &in_shapes, out_elems).ok_or_else(|| overflow("byte count"))?;
        total_macs = total_macs
            .checked_add(macs)
            .ok_or_else(|| overflow("total MAC count"))?;
        total_flops = total_flops
            .checked_add(flops)
            .ok_or_else(|| overflow("total FLOP count"))?;
        total_params += params;
        layers.push(LayerTrace {
            node: id,
            name: node.name.clone(),
            family: node.kind.family(),
            out_shape: out.clone(),
            macs,
            flops,
            params,
            bytes_read,
            bytes_written,
            weight_bytes,
        });
    }
    Ok(TraceReport {
        layers,
        total_macs,
        total_flops,
        total_params,
        peak_activation_elems: peak,
    })
}

/// `(bytes_read, bytes_written)` of a layer, `None` when either or their
/// sum (which the roofline adds up) overflows `u64`.
fn traffic(weight_bytes: u64, ins: &[&Shape], out_elems: u64) -> Option<(u64, u64)> {
    let in_bytes = ins
        .iter()
        .try_fold(0u64, |acc, s| acc.checked_add(elems(s)?.checked_mul(4)?))?;
    let read = weight_bytes.checked_add(in_bytes)?;
    let written = out_elems.checked_mul(4)?;
    read.checked_add(written)?;
    Some((read, written))
}

/// A shape's element count as `u64`, `None` on overflow.
fn elems(s: &Shape) -> Option<u64> {
    s.checked_elems().map(|n| n as u64)
}

/// Product of `factors`, `None` on overflow.
fn product(factors: &[u64]) -> Option<u64> {
    factors.iter().try_fold(1u64, |acc, &f| acc.checked_mul(f))
}

/// (MACs, FLOPs) for one layer application producing `out_elems`
/// elements, `None` when a count overflows `u64`.
fn layer_ops(kind: &LayerKind, ins: &[&Shape], out_elems: u64) -> Option<(u64, u64)> {
    let mac_layer = |macs: u64| Some((macs, macs.checked_mul(2)?));
    match kind {
        LayerKind::Input { .. } => Some((0, 0)),
        LayerKind::Conv2d { kernel, .. } => {
            let cin = ins[0].channels() as u64;
            let k = *kernel as u64;
            mac_layer(product(&[out_elems, cin, k, k])?)
        }
        LayerKind::DepthwiseConv2d { kernel, .. } => {
            let k = *kernel as u64;
            mac_layer(product(&[out_elems, k, k])?)
        }
        LayerKind::TransposeConv2d { kernel, .. } => {
            let cin = ins[0].channels() as u64;
            let k = *kernel as u64;
            // Each output element accumulates k*k*cin contributions on
            // average divided by stride^2 overlap; we use the dense bound.
            mac_layer(product(&[out_elems, cin, k, k])?)
        }
        LayerKind::Dense { units } => {
            let cin = ins[0].channels() as u64;
            let rows = out_elems / (*units as u64).max(1);
            mac_layer(product(&[rows, cin, *units as u64])?)
        }
        LayerKind::Activation(_) => Some((0, out_elems)),
        LayerKind::Softmax => Some((0, out_elems.checked_mul(5)?)),
        LayerKind::BatchNorm => Some((0, out_elems.checked_mul(2)?)),
        LayerKind::L2Norm => Some((0, out_elems.checked_mul(3)?)),
        LayerKind::Pool { kernel, .. } => {
            let k = *kernel as u64;
            Some((0, product(&[out_elems, k, k])?))
        }
        LayerKind::GlobalPool(_) | LayerKind::MeanTime => Some((0, elems(ins[0])?)),
        LayerKind::Binary(_) => Some((0, out_elems)),
        LayerKind::Concat | LayerKind::Reshape { .. } | LayerKind::Slice { .. } => Some((0, 0)),
        LayerKind::Resize { mode, .. } => {
            let per = match mode {
                crate::graph::ResizeMode::Nearest => 1,
                crate::graph::ResizeMode::Bilinear => 7,
            };
            Some((0, out_elems.checked_mul(per)?))
        }
        LayerKind::Pad { .. } => Some((0, 0)),
        LayerKind::Quantize(_) | LayerKind::Dequantize(_) => Some((0, out_elems.checked_mul(2)?)),
        LayerKind::Embedding { .. } => Some((0, 0)),
        LayerKind::Lstm { units } => recurrent_ops(ins[0], *units as u64, 4, 9),
        LayerKind::Gru { units } => recurrent_ops(ins[0], *units as u64, 3, 7),
    }
}

/// A recurrent layer over `[n, t, cin]`: `gates` dense products over
/// `[input ++ hidden]` per step, plus `pointwise` element ops per unit.
fn recurrent_ops(s: &Shape, u: u64, gates: u64, pointwise: u64) -> Option<(u64, u64)> {
    let (t, cin) = (s.dim(1) as u64, s.channels() as u64);
    let n = s.batch() as u64;
    let macs = product(&[n, t, gates, cin.checked_add(u)?, u])?;
    let flops = macs
        .checked_mul(2)?
        .checked_add(product(&[n, t, pointwise, u])?)?;
    Some((macs, flops))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{GraphBuilder, Padding};
    use crate::tensor::{DType, WeightData};

    fn w(n: usize) -> Option<WeightData> {
        Some(WeightData::F32(vec![0.5; n]))
    }

    #[test]
    fn conv_flops_match_closed_form() {
        let mut b = GraphBuilder::new("t");
        let i = b.input("in", Shape::nhwc(1, 16, 16, 3), DType::F32);
        let c = b.layer(
            "c",
            LayerKind::Conv2d {
                out_channels: 8,
                kernel: 3,
                stride: 1,
                padding: Padding::Same,
            },
            &[i],
            w(3 * 3 * 3 * 8),
            w(8),
        );
        let g = b.finish(vec![c]).unwrap();
        let r = trace_graph(&g).unwrap();
        let macs = 16 * 16 * 8 * 3 * 3 * 3;
        assert_eq!(r.total_macs, macs);
        assert_eq!(r.total_flops, 2 * macs);
        assert_eq!(r.total_params, 3 * 3 * 3 * 8 + 8);
    }

    #[test]
    fn depthwise_cheaper_than_full_conv() {
        let make = |depthwise: bool| {
            let mut b = GraphBuilder::new("t");
            let i = b.input("in", Shape::nhwc(1, 32, 32, 16), DType::F32);
            let c = if depthwise {
                b.layer(
                    "dw",
                    LayerKind::DepthwiseConv2d {
                        kernel: 3,
                        stride: 1,
                        padding: Padding::Same,
                    },
                    &[i],
                    w(3 * 3 * 16),
                    None,
                )
            } else {
                b.layer(
                    "c",
                    LayerKind::Conv2d {
                        out_channels: 16,
                        kernel: 3,
                        stride: 1,
                        padding: Padding::Same,
                    },
                    &[i],
                    w(3 * 3 * 16 * 16),
                    None,
                )
            };
            trace_graph(&b.finish(vec![c]).unwrap()).unwrap()
        };
        let dw = make(true);
        let full = make(false);
        assert_eq!(full.total_macs, 16 * dw.total_macs);
    }

    #[test]
    fn dense_flops() {
        let mut b = GraphBuilder::new("t");
        let i = b.input("in", Shape::vec2(1, 128), DType::F32);
        let d = b.layer(
            "fc",
            LayerKind::Dense { units: 10 },
            &[i],
            w(128 * 10),
            w(10),
        );
        let g = b.finish(vec![d]).unwrap();
        let r = trace_graph(&g).unwrap();
        assert_eq!(r.total_macs, 1280);
        assert_eq!(r.total_flops, 2560);
    }

    #[test]
    fn batch_scales_flops_not_params() {
        let mut b = GraphBuilder::new("t");
        let i = b.input("in", Shape::nhwc(1, 8, 8, 3), DType::F32);
        let c = b.layer(
            "c",
            LayerKind::Conv2d {
                out_channels: 4,
                kernel: 3,
                stride: 1,
                padding: Padding::Same,
            },
            &[i],
            w(3 * 3 * 3 * 4),
            None,
        );
        let g = b.finish(vec![c]).unwrap();
        let r1 = trace_graph_batched(&g, 1).unwrap();
        let r4 = trace_graph_batched(&g, 4).unwrap();
        assert_eq!(r4.total_flops, 4 * r1.total_flops);
        assert_eq!(r4.total_params, r1.total_params);
        assert_eq!(r4.peak_activation_elems, 4 * r1.peak_activation_elems);
    }

    #[test]
    fn overflowing_counts_are_shape_errors_naming_the_node() {
        let mut b = GraphBuilder::new("t");
        let i = b.input("in", Shape::nhwc(1, 8, 8, 3), DType::F32);
        let c = b.layer(
            "c",
            LayerKind::Conv2d {
                out_channels: 4,
                kernel: 3,
                stride: 1,
                padding: Padding::Same,
            },
            &[i],
            w(3 * 3 * 3 * 4),
            None,
        );
        let g = b.finish(vec![c]).unwrap();
        // Rebatching multiplies every element count: the input's first.
        let err = trace_graph_batched(&g, 1 << 62).unwrap_err();
        assert!(
            matches!(&err, crate::DnnError::Shape { node: 0, reason } if reason.contains("overflows")),
            "{err}"
        );
        // 2^54 samples fit every element count, but not the MACs.
        let err = trace_graph_batched(&g, 1 << 54).unwrap_err();
        assert!(
            matches!(&err, crate::DnnError::Shape { node: 1, reason } if reason.contains("operation count")),
            "{err}"
        );
        assert!(trace_graph_batched(&g, 1 << 20).is_ok());
    }

    #[test]
    fn rebatch_matches_direct_batched_trace() {
        use crate::task::Task;
        use crate::zoo::{build_for_task, SizeClass};
        for task in [Task::ImageClassification, Task::AutoComplete, Task::KeywordDetection] {
            let g = build_for_task(task, 77, SizeClass::Small, true).graph;
            let t1 = trace_graph(&g).unwrap();
            for batch in [2usize, 5, 25] {
                let direct = trace_graph_batched(&g, batch).unwrap();
                let scaled = rebatch(&t1, batch).unwrap();
                assert_eq!(scaled, direct, "{task:?} batch {batch}");
            }
        }
    }

    #[test]
    fn rebatch_overflow_is_an_error_not_a_panic() {
        // A valid batch-1 trace (6.9e18 FLOPs) whose FLOPs overflow `u64`
        // at batch 8: both the batched trace and the rescaled one fail.
        let mut b = GraphBuilder::new("t");
        let i = b.input("in", Shape::nhwc(1, 1 << 20, 1 << 20, 3), DType::F32);
        let c = b.layer(
            "c",
            LayerKind::Conv2d {
                out_channels: 4,
                kernel: 1 << 9,
                stride: 1,
                padding: Padding::Same,
            },
            &[i],
            w((1 << 9) * (1 << 9) * 3 * 4),
            None,
        );
        let g = b.finish(vec![c]).unwrap();
        let t1 = trace_graph(&g).unwrap();
        assert!(t1.total_flops > 6_900_000_000_000_000_000);
        assert!(trace_graph_batched(&g, 8).is_err());
        let err = rebatch(&t1, 8).unwrap_err();
        assert!(
            matches!(&err, crate::DnnError::Shape { node: 1, reason } if reason.contains("operation count overflows")),
            "{err}"
        );
        assert_eq!(
            rebatch(&t1, 2).unwrap(),
            trace_graph_batched(&g, 2).unwrap()
        );
    }

    #[test]
    fn lstm_ops_scale_with_sequence() {
        let build = |t: usize| {
            let mut b = GraphBuilder::new("t");
            let i = b.input("in", Shape(vec![1, t, 32]), DType::F32);
            let l = b.layer(
                "lstm",
                LayerKind::Lstm { units: 64 },
                &[i],
                w(4 * (32 + 64 + 1) * 64),
                None,
            );
            trace_graph(&b.finish(vec![l]).unwrap()).unwrap()
        };
        let r8 = build(8);
        let r16 = build(16);
        assert_eq!(r16.total_macs, 2 * r8.total_macs);
    }

    #[test]
    fn arithmetic_intensity_separates_conv_from_activation() {
        let mut b = GraphBuilder::new("t");
        let i = b.input("in", Shape::nhwc(1, 32, 32, 16), DType::F32);
        let c = b.layer(
            "c",
            LayerKind::Conv2d {
                out_channels: 16,
                kernel: 3,
                stride: 1,
                padding: Padding::Same,
            },
            &[i],
            w(3 * 3 * 16 * 16),
            None,
        );
        let a = b.op(
            "relu",
            LayerKind::Activation(crate::graph::ActKind::Relu),
            &[c],
        );
        let g = b.finish(vec![a]).unwrap();
        let r = trace_graph(&g).unwrap();
        let conv = &r.layers[0];
        let relu = &r.layers[1];
        assert!(conv.arithmetic_intensity() > 10.0 * relu.arithmetic_intensity());
    }

    #[test]
    fn report_helpers() {
        let mut b = GraphBuilder::new("t");
        let i = b.input("in", Shape::vec2(1, 4), DType::F32);
        let d = b.layer("fc", LayerKind::Dense { units: 2 }, &[i], w(8), w(2));
        let g = b.finish(vec![d]).unwrap();
        let r = trace_graph(&g).unwrap();
        assert_eq!(r.model_bytes_f32(), 40);
        assert!(r.gflops() > 0.0);
    }
}
