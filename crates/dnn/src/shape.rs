//! Static shape inference.
//!
//! Given a validated [`Graph`], [`infer_shapes`] produces the output shape of
//! every node. Tracing, the executor and the SoC latency model all consume
//! these shapes. Extents come from model files, so the arithmetic on them
//! is checked: a stride of 0 or an extent that overflows is an error.

use crate::graph::{Graph, LayerKind, Padding};
use crate::tensor::{checked_product, Shape};
use crate::{DnnError, Result};

/// Spatial output extent of a windowed op (`stride` must be at least 1).
pub fn conv_out_dim(input: usize, kernel: usize, stride: usize, padding: Padding) -> usize {
    match padding {
        Padding::Same => input.div_ceil(stride),
        Padding::Valid => {
            if input < kernel {
                0
            } else {
                ((input - kernel) / stride).saturating_add(1)
            }
        }
    }
}

fn err(node: usize, reason: impl Into<String>) -> DnnError {
    DnnError::Shape {
        node,
        reason: reason.into(),
    }
}

fn want_stride(node: usize, stride: usize, what: &str) -> Result<()> {
    if stride == 0 {
        Err(err(node, format!("{what} has stride 0")))
    } else {
        Ok(())
    }
}

fn overflow(node: usize, what: &str) -> DnnError {
    err(node, format!("{what} overflows"))
}

fn want_rank(node: usize, s: &Shape, rank: usize, what: &str) -> Result<()> {
    if s.rank() != rank {
        Err(err(
            node,
            format!("{what} expects rank-{rank} input, got {s}"),
        ))
    } else {
        Ok(())
    }
}

/// Infer the output shape of every node in topological order.
///
/// Returns one shape per node, indexed by [`crate::NodeId`]. Weights are
/// not read, so any weight storage will do.
pub fn infer_shapes<W>(graph: &Graph<W>) -> Result<Vec<Shape>> {
    let mut shapes: Vec<Shape> = Vec::with_capacity(graph.nodes.len());
    for (id, node) in graph.nodes.iter().enumerate() {
        let ins: Vec<&Shape> = node.inputs.iter().map(|&i| &shapes[i]).collect();
        let out = infer_node(id, &node.kind, &ins)?;
        shapes.push(out);
    }
    Ok(shapes)
}

fn infer_node(id: usize, kind: &LayerKind, ins: &[&Shape]) -> Result<Shape> {
    match kind {
        LayerKind::Input { shape, .. } => Ok(shape.clone()),
        LayerKind::Conv2d {
            out_channels,
            kernel,
            stride,
            padding,
        } => {
            let s = ins[0];
            want_rank(id, s, 4, "conv2d")?;
            want_stride(id, *stride, "conv2d")?;
            let (h, w, _c) = s.hwc().expect("rank 4");
            let oh = conv_out_dim(h, *kernel, *stride, *padding);
            let ow = conv_out_dim(w, *kernel, *stride, *padding);
            if oh == 0 || ow == 0 {
                return Err(err(id, format!("conv2d collapses {s} to zero extent")));
            }
            Ok(Shape::nhwc(s.batch(), oh, ow, *out_channels))
        }
        LayerKind::DepthwiseConv2d {
            kernel,
            stride,
            padding,
        } => {
            let s = ins[0];
            want_rank(id, s, 4, "depthwise_conv2d")?;
            want_stride(id, *stride, "depthwise_conv2d")?;
            let (h, w, c) = s.hwc().expect("rank 4");
            let oh = conv_out_dim(h, *kernel, *stride, *padding);
            let ow = conv_out_dim(w, *kernel, *stride, *padding);
            if oh == 0 || ow == 0 {
                return Err(err(id, "depthwise conv collapses input to zero extent"));
            }
            Ok(Shape::nhwc(s.batch(), oh, ow, c))
        }
        LayerKind::TransposeConv2d {
            out_channels,
            stride,
            ..
        } => {
            let s = ins[0];
            want_rank(id, s, 4, "transpose_conv2d")?;
            let (h, w, _) = s.hwc().expect("rank 4");
            let up = |x: usize| {
                x.checked_mul(*stride)
                    .ok_or_else(|| overflow(id, "transpose_conv2d extent"))
            };
            Ok(Shape::nhwc(s.batch(), up(h)?, up(w)?, *out_channels))
        }
        LayerKind::Dense { units } => {
            let s = ins[0];
            if s.rank() < 2 {
                return Err(err(id, format!("dense expects rank >= 2, got {s}")));
            }
            let mut d = s.0.clone();
            *d.last_mut().expect("rank >= 2") = *units;
            Ok(Shape(d))
        }
        LayerKind::Activation(_) | LayerKind::Softmax | LayerKind::BatchNorm | LayerKind::L2Norm => {
            Ok(ins[0].clone())
        }
        LayerKind::Pool {
            kernel,
            stride,
            padding,
            ..
        } => {
            let s = ins[0];
            want_rank(id, s, 4, "pool")?;
            want_stride(id, *stride, "pool")?;
            let (h, w, c) = s.hwc().expect("rank 4");
            let oh = conv_out_dim(h, *kernel, *stride, *padding);
            let ow = conv_out_dim(w, *kernel, *stride, *padding);
            if oh == 0 || ow == 0 {
                return Err(err(id, "pool collapses input to zero extent"));
            }
            Ok(Shape::nhwc(s.batch(), oh, ow, c))
        }
        LayerKind::GlobalPool(_) => {
            let s = ins[0];
            want_rank(id, s, 4, "global_pool")?;
            Ok(Shape::nhwc(s.batch(), 1, 1, s.channels()))
        }
        LayerKind::Binary(_) => {
            let (a, b) = (ins[0], ins[1]);
            if a != b {
                return Err(err(id, format!("binary op shape mismatch: {a} vs {b}")));
            }
            Ok(a.clone())
        }
        LayerKind::Concat => {
            let first = ins[0];
            if first.rank() == 0 {
                return Err(err(id, "concat expects rank >= 1 inputs"));
            }
            let mut channels = 0usize;
            for s in ins {
                if s.rank() != first.rank() || s.0[..s.rank() - 1] != first.0[..first.rank() - 1] {
                    return Err(err(
                        id,
                        format!("concat mismatch: {s} vs {first} (all dims but last must agree)"),
                    ));
                }
                channels = channels
                    .checked_add(s.channels())
                    .ok_or_else(|| overflow(id, "concat channel count"))?;
            }
            let mut d = first.0.clone();
            *d.last_mut().expect("non-empty") = channels;
            Ok(Shape(d))
        }
        LayerKind::Reshape { dims } => {
            let s = ins[0];
            let want = checked_product(dims).ok_or_else(|| overflow(id, "reshape target"))?;
            let have = match s.0.split_first() {
                None => 0,
                Some((_, per_sample)) => {
                    checked_product(per_sample).ok_or_else(|| overflow(id, "reshape input"))?
                }
            };
            if want != have {
                return Err(err(
                    id,
                    format!("reshape target {want} elems != input {have} elems"),
                ));
            }
            let mut d = vec![s.batch()];
            d.extend_from_slice(dims);
            Ok(Shape(d))
        }
        LayerKind::Resize { out_h, out_w, .. } => {
            let s = ins[0];
            want_rank(id, s, 4, "resize")?;
            Ok(Shape::nhwc(s.batch(), *out_h, *out_w, s.channels()))
        }
        LayerKind::Slice { begin, len } => {
            let s = ins[0];
            let end = begin
                .checked_add(*len)
                .ok_or_else(|| overflow(id, "slice end"))?;
            if end > s.channels() || s.rank() == 0 {
                return Err(err(
                    id,
                    format!(
                        "slice [{begin}, {end}) out of range for {} channels",
                        s.channels()
                    ),
                ));
            }
            let mut d = s.0.clone();
            *d.last_mut().expect("non-empty") = *len;
            Ok(Shape(d))
        }
        LayerKind::Pad { pad } => {
            let s = ins[0];
            want_rank(id, s, 4, "pad")?;
            let (h, w, c) = s.hwc().expect("rank 4");
            let grow = |x: usize| {
                pad.checked_mul(2)
                    .and_then(|p| x.checked_add(p))
                    .ok_or_else(|| overflow(id, "pad extent"))
            };
            Ok(Shape::nhwc(s.batch(), grow(h)?, grow(w)?, c))
        }
        LayerKind::Quantize(_) | LayerKind::Dequantize(_) => Ok(ins[0].clone()),
        LayerKind::Embedding { dim, .. } => {
            let s = ins[0];
            want_rank(id, s, 2, "embedding")?;
            Ok(Shape(vec![s.batch(), s.dim(1), *dim]))
        }
        LayerKind::Lstm { units } | LayerKind::Gru { units } => {
            let s = ins[0];
            want_rank(id, s, 3, "recurrent")?;
            Ok(Shape(vec![s.batch(), s.dim(1), *units]))
        }
        LayerKind::MeanTime => {
            let s = ins[0];
            want_rank(id, s, 3, "mean_time")?;
            Ok(Shape::vec2(s.batch(), s.channels()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ActKind, BinOp, GraphBuilder, PoolKind};
    use crate::tensor::{DType, WeightData};

    #[test]
    fn conv_out_dims() {
        assert_eq!(conv_out_dim(224, 3, 2, Padding::Same), 112);
        assert_eq!(conv_out_dim(224, 3, 1, Padding::Same), 224);
        assert_eq!(conv_out_dim(224, 3, 1, Padding::Valid), 222);
        assert_eq!(conv_out_dim(5, 3, 2, Padding::Valid), 2);
        assert_eq!(conv_out_dim(2, 3, 1, Padding::Valid), 0);
    }

    fn w(n: usize) -> Option<WeightData> {
        Some(WeightData::F32(vec![0.0; n]))
    }

    #[test]
    fn mobilenet_style_stack_shapes() {
        let mut b = GraphBuilder::new("t");
        let i = b.input("in", Shape::nhwc(1, 32, 32, 3), DType::F32);
        let c = b.layer(
            "c1",
            LayerKind::Conv2d {
                out_channels: 8,
                kernel: 3,
                stride: 2,
                padding: Padding::Same,
            },
            &[i],
            w(3 * 3 * 3 * 8),
            w(8),
        );
        let d = b.layer(
            "dw",
            LayerKind::DepthwiseConv2d {
                kernel: 3,
                stride: 1,
                padding: Padding::Same,
            },
            &[c],
            w(3 * 3 * 8),
            w(8),
        );
        let a = b.op("relu", LayerKind::Activation(ActKind::Relu6), &[d]);
        let g = b.op("gap", LayerKind::GlobalPool(PoolKind::Avg), &[a]);
        let r = b.op(
            "flat",
            LayerKind::Reshape { dims: vec![8] },
            &[g],
        );
        let f = b.layer("fc", LayerKind::Dense { units: 10 }, &[r], w(8 * 10), w(10));
        let s = b.op("sm", LayerKind::Softmax, &[f]);
        let graph = b.finish(vec![s]).unwrap();
        let shapes = infer_shapes(&graph).unwrap();
        assert_eq!(shapes[1], Shape::nhwc(1, 16, 16, 8));
        assert_eq!(shapes[2], Shape::nhwc(1, 16, 16, 8));
        assert_eq!(shapes[4], Shape::nhwc(1, 1, 1, 8));
        assert_eq!(shapes[5], Shape::vec2(1, 8));
        assert_eq!(shapes[7], Shape::vec2(1, 10));
    }

    #[test]
    fn binary_mismatch_rejected() {
        let mut b = GraphBuilder::new("t");
        let i1 = b.input("a", Shape::vec2(1, 4), DType::F32);
        let i2 = b.input("b", Shape::vec2(1, 5), DType::F32);
        let add = b.op("add", LayerKind::Binary(BinOp::Add), &[i1, i2]);
        let g = b.finish(vec![add]).unwrap();
        assert!(infer_shapes(&g).is_err());
    }

    #[test]
    fn concat_sums_channels() {
        let mut b = GraphBuilder::new("t");
        let i1 = b.input("a", Shape::nhwc(1, 4, 4, 3), DType::F32);
        let i2 = b.input("b", Shape::nhwc(1, 4, 4, 5), DType::F32);
        let c = b.op("cat", LayerKind::Concat, &[i1, i2]);
        let g = b.finish(vec![c]).unwrap();
        let shapes = infer_shapes(&g).unwrap();
        assert_eq!(shapes[2], Shape::nhwc(1, 4, 4, 8));
    }

    #[test]
    fn reshape_elem_mismatch_rejected() {
        let mut b = GraphBuilder::new("t");
        let i = b.input("a", Shape::nhwc(1, 2, 2, 3), DType::F32);
        let r = b.op("r", LayerKind::Reshape { dims: vec![11] }, &[i]);
        let g = b.finish(vec![r]).unwrap();
        assert!(infer_shapes(&g).is_err());
    }

    #[test]
    fn recurrent_pipeline_shapes() {
        let mut b = GraphBuilder::new("t");
        let i = b.input("tok", Shape::vec2(1, 16), DType::I32);
        let e = b.layer(
            "emb",
            LayerKind::Embedding {
                vocab: 100,
                dim: 32,
            },
            &[i],
            w(100 * 32),
            None,
        );
        let l = b.layer(
            "lstm",
            LayerKind::Lstm { units: 64 },
            &[e],
            w(4 * (32 + 64 + 1) * 64),
            None,
        );
        let m = b.op("mean", LayerKind::MeanTime, &[l]);
        let g = b.finish(vec![m]).unwrap();
        let shapes = infer_shapes(&g).unwrap();
        assert_eq!(shapes[1], Shape(vec![1, 16, 32]));
        assert_eq!(shapes[2], Shape(vec![1, 16, 64]));
        assert_eq!(shapes[3], Shape::vec2(1, 64));
    }

    #[test]
    fn slice_and_pad_shapes() {
        let mut b = GraphBuilder::new("t");
        let i = b.input("a", Shape::nhwc(1, 4, 4, 8), DType::F32);
        let s = b.op("s", LayerKind::Slice { begin: 2, len: 3 }, &[i]);
        let p = b.op("p", LayerKind::Pad { pad: 1 }, &[s]);
        let g = b.finish(vec![p]).unwrap();
        let shapes = infer_shapes(&g).unwrap();
        assert_eq!(shapes[1], Shape::nhwc(1, 4, 4, 3));
        assert_eq!(shapes[2], Shape::nhwc(1, 6, 6, 3));
    }

    #[test]
    fn hostile_extents_are_shape_errors_not_panics() {
        let w = || Some(WeightData::F32(vec![0.0; 3]));
        let cases: Vec<(&str, Shape, LayerKind)> = vec![
            (
                "conv stride 0",
                Shape::nhwc(1, 4, 4, 3),
                LayerKind::Conv2d {
                    out_channels: 1,
                    kernel: 1,
                    stride: 0,
                    padding: Padding::Same,
                },
            ),
            (
                "depthwise stride 0",
                Shape::nhwc(1, 4, 4, 3),
                LayerKind::DepthwiseConv2d {
                    kernel: 1,
                    stride: 0,
                    padding: Padding::Valid,
                },
            ),
            (
                "pool stride 0",
                Shape::nhwc(1, 4, 4, 3),
                LayerKind::Pool {
                    kind: PoolKind::Max,
                    kernel: 2,
                    stride: 0,
                    padding: Padding::Valid,
                },
            ),
            (
                "transpose conv extent",
                Shape::nhwc(1, 4, 4, 3),
                LayerKind::TransposeConv2d {
                    out_channels: 1,
                    kernel: 2,
                    stride: usize::MAX,
                },
            ),
            (
                "pad extent",
                Shape::nhwc(1, 4, 4, 3),
                LayerKind::Pad {
                    pad: usize::MAX / 2 + 1,
                },
            ),
            (
                "slice end",
                Shape::vec2(1, 4),
                LayerKind::Slice {
                    begin: usize::MAX,
                    len: 2,
                },
            ),
            (
                "slice of a rank-0 tensor",
                Shape(vec![]),
                LayerKind::Slice { begin: 0, len: 0 },
            ),
            (
                "reshape target",
                Shape::vec2(1, 4),
                LayerKind::Reshape {
                    dims: vec![1 << 33, 1 << 33],
                },
            ),
            (
                "reshape input",
                Shape(vec![1, 1 << 33, 1 << 33]),
                LayerKind::Reshape { dims: vec![4] },
            ),
        ];
        for (what, shape, kind) in cases {
            let mut b = GraphBuilder::new("t");
            let i = b.input("in", shape, DType::F32);
            let weights = if kind.has_weights() { w() } else { None };
            let n = b.layer("n", kind, &[i], weights, None);
            let g = b.finish(vec![n]).unwrap();
            assert!(
                matches!(infer_shapes(&g), Err(DnnError::Shape { node: 1, .. })),
                "{what}: {:?}",
                infer_shapes(&g)
            );
        }
        // Concat slices off the last axis, which a rank-0 input lacks.
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", Shape(vec![]), DType::F32);
        let y = b.input("y", Shape(vec![]), DType::F32);
        let c = b.op("cat", LayerKind::Concat, &[x, y]);
        let g = b.finish(vec![c]).unwrap();
        assert!(matches!(
            infer_shapes(&g),
            Err(DnnError::Shape { node: 2, .. })
        ));
    }

    #[test]
    fn slice_out_of_range_rejected() {
        let mut b = GraphBuilder::new("t");
        let i = b.input("a", Shape::nhwc(1, 4, 4, 4), DType::F32);
        let s = b.op("s", LayerKind::Slice { begin: 2, len: 3 }, &[i]);
        let g = b.finish(vec![s]).unwrap();
        assert!(infer_shapes(&g).is_err());
    }
}
