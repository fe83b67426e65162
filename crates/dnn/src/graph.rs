//! The DNN graph IR: layer kinds, nodes, graphs and a builder.
//!
//! A [`Graph`] is a DAG stored in topological order: every node's inputs must
//! have a smaller index than the node itself. This invariant is validated by
//! [`Graph::validate`] and relied upon by shape inference, tracing and the
//! executor.
//!
//! Nodes store their weights as any [`Weights`] type: [`WeightData`] by
//! default, or [`WeightBytes`] borrowed from a model file, which is all
//! validation, shape inference and tracing need.

use crate::tensor::{DType, QuantParams, Shape, WeightBytes, WeightData, Weights};
use crate::{DnnError, Result};

/// Identifier of a node within a graph (its index in `Graph::nodes`).
pub type NodeId = usize;

/// Padding policy for convolution / pooling windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Padding {
    /// Output spatial size equals `ceil(in / stride)` (TFLite "SAME").
    Same,
    /// No implicit padding (TFLite "VALID").
    Valid,
}

/// Non-linearity kinds found in mobile models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActKind {
    /// Rectified linear unit.
    Relu,
    /// ReLU clipped at 6 (MobileNet's default).
    Relu6,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// x * relu6(x + 3) / 6 (MobileNetV3-style).
    HardSwish,
    /// Leaky ReLU with fixed 0.01 negative slope.
    LeakyRelu,
}

/// Pooling reduction kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// Maximum over the window.
    Max,
    /// Arithmetic mean over the window.
    Avg,
}

/// Elementwise binary operations ("math" helper layers in Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Elementwise addition (residual connections).
    Add,
    /// Elementwise multiplication (attention gates, SE blocks).
    Mul,
    /// Elementwise subtraction.
    Sub,
}

/// Image resize interpolation modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResizeMode {
    /// Nearest-neighbour.
    Nearest,
    /// Bilinear interpolation.
    Bilinear,
}

/// The operation performed by a graph node.
///
/// This covers every layer family the paper's Fig. 6 histogram distinguishes:
/// convolutions, depthwise convolutions, dense layers, activations, pooling,
/// recurrent layers, and the "helper" bucket (math / quant / resize / slice /
/// reshape / concat / pad / normalisation).
#[derive(Debug, Clone, PartialEq)]
pub enum LayerKind {
    /// Graph input placeholder.
    Input {
        /// Static shape (batch dim is a default; executors may rebatch).
        shape: Shape,
        /// Element type the model expects.
        dtype: DType,
    },
    /// 2-D convolution over NHWC input.
    Conv2d {
        /// Number of output channels.
        out_channels: usize,
        /// Square kernel extent.
        kernel: usize,
        /// Stride (same in both spatial dims).
        stride: usize,
        /// Padding policy.
        padding: Padding,
    },
    /// Depthwise 2-D convolution (channel multiplier 1).
    DepthwiseConv2d {
        /// Square kernel extent.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Padding policy.
        padding: Padding,
    },
    /// Fully-connected layer over the last dimension.
    Dense {
        /// Output feature count.
        units: usize,
    },
    /// Elementwise activation.
    Activation(ActKind),
    /// Windowed pooling.
    Pool {
        /// Reduction kind.
        kind: PoolKind,
        /// Square window extent.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Padding policy.
        padding: Padding,
    },
    /// Global spatial pooling: NHWC -> N11C.
    GlobalPool(PoolKind),
    /// Elementwise binary op between two equal-shaped inputs.
    Binary(BinOp),
    /// Channel-axis concatenation of two or more inputs.
    Concat,
    /// Reshape to a fixed per-sample shape (batch preserved).
    Reshape {
        /// Target per-sample dims (excluding batch).
        dims: Vec<usize>,
    },
    /// Spatial resize of an NHWC tensor.
    Resize {
        /// Output height.
        out_h: usize,
        /// Output width.
        out_w: usize,
        /// Interpolation mode.
        mode: ResizeMode,
    },
    /// Channel slice `[begin, begin+len)` on the last axis.
    Slice {
        /// First channel kept.
        begin: usize,
        /// Number of channels kept.
        len: usize,
    },
    /// Softmax over the last axis.
    Softmax,
    /// Per-channel scale + shift (folded batch-norm).
    BatchNorm,
    /// Zero padding of `pad` pixels on each spatial border.
    Pad {
        /// Border width.
        pad: usize,
    },
    /// f32 -> int8 affine quantisation of activations.
    Quantize(QuantParams),
    /// int8 -> f32 dequantisation of activations.
    ///
    /// §6.1: "10.3 % of the models make use of the dequantize layer".
    Dequantize(QuantParams),
    /// Token embedding lookup: [N, T] ids -> [N, T, dim].
    Embedding {
        /// Vocabulary size.
        vocab: usize,
        /// Embedding dimension.
        dim: usize,
    },
    /// LSTM over a [N, T, C] sequence, returning the full output sequence.
    Lstm {
        /// Hidden state size.
        units: usize,
    },
    /// GRU over a [N, T, C] sequence, returning the full output sequence.
    Gru {
        /// Hidden state size.
        units: usize,
    },
    /// Mean over the time axis: [N, T, C] -> [N, C].
    MeanTime,
    /// 2x2 nearest-neighbour upsampling expressed as transposed conv
    /// (decoder stages of segmentation models).
    TransposeConv2d {
        /// Output channels.
        out_channels: usize,
        /// Square kernel extent.
        kernel: usize,
        /// Upsampling stride.
        stride: usize,
    },
    /// L2 normalisation over the last axis (embedding heads).
    L2Norm,
}

impl LayerKind {
    /// The coarse layer-family name used by the Fig. 6 composition analysis.
    pub fn family(&self) -> &'static str {
        match self {
            LayerKind::Input { .. } => "input",
            LayerKind::Conv2d { .. } | LayerKind::TransposeConv2d { .. } => "conv",
            LayerKind::DepthwiseConv2d { .. } => "depth_conv",
            LayerKind::Dense { .. } => "dense",
            LayerKind::Activation(_) | LayerKind::Softmax => "activation",
            LayerKind::Pool { .. } | LayerKind::GlobalPool(_) => "pool",
            LayerKind::Binary(_) | LayerKind::L2Norm | LayerKind::MeanTime => "math",
            LayerKind::Concat => "concat",
            LayerKind::Reshape { .. } => "reshape",
            LayerKind::Resize { .. } => "resize",
            LayerKind::Slice { .. } => "slice",
            LayerKind::BatchNorm => "norm",
            LayerKind::Pad { .. } => "pad",
            LayerKind::Quantize(_) | LayerKind::Dequantize(_) => "quant",
            LayerKind::Embedding { .. } => "embedding",
            LayerKind::Lstm { .. } | LayerKind::Gru { .. } => "recurrent",
        }
    }

    /// Whether this kind carries trainable weights.
    pub fn has_weights(&self) -> bool {
        matches!(
            self,
            LayerKind::Conv2d { .. }
                | LayerKind::DepthwiseConv2d { .. }
                | LayerKind::Dense { .. }
                | LayerKind::BatchNorm
                | LayerKind::Embedding { .. }
                | LayerKind::Lstm { .. }
                | LayerKind::Gru { .. }
                | LayerKind::TransposeConv2d { .. }
        )
    }

    /// Minimum number of inputs this layer requires.
    pub fn min_inputs(&self) -> usize {
        match self {
            LayerKind::Input { .. } => 0,
            LayerKind::Binary(_) => 2,
            LayerKind::Concat => 2,
            _ => 1,
        }
    }
}

/// One vertex of the DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct Node<W = WeightData> {
    /// Human-readable layer name (models in the wild often leak task hints
    /// through names, which the classifier exploits — §4.4).
    pub name: String,
    /// The operation.
    pub kind: LayerKind,
    /// Producer nodes, in argument order.
    pub inputs: Vec<NodeId>,
    /// Kernel/gamma weights, when `kind.has_weights()`.
    pub weights: Option<W>,
    /// Bias/beta weights, when applicable.
    pub bias: Option<W>,
}

/// A whole model: nodes in topological order plus designated outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph<W = WeightData> {
    /// Model name (e.g. `"hair_segmentation_mobilenet"`).
    pub name: String,
    /// All nodes, topologically ordered.
    pub nodes: Vec<Node<W>>,
    /// Indices of output nodes.
    pub outputs: Vec<NodeId>,
}

impl<W: Weights> Graph<W> {
    /// Validate the structural invariants:
    /// inputs exist and precede their consumers, arity matches the layer
    /// kind, outputs are valid ids, and weighted layers carry weights.
    pub fn validate(&self) -> Result<()> {
        for (id, node) in self.nodes.iter().enumerate() {
            if node.inputs.len() < node.kind.min_inputs() {
                return Err(DnnError::Shape {
                    node: id,
                    reason: format!(
                        "{} needs >= {} inputs, has {}",
                        node.kind.family(),
                        node.kind.min_inputs(),
                        node.inputs.len()
                    ),
                });
            }
            for &inp in &node.inputs {
                if inp >= self.nodes.len() {
                    return Err(DnnError::DanglingInput {
                        node: id,
                        input: inp,
                    });
                }
                if inp >= id {
                    return Err(DnnError::NotTopological(id));
                }
            }
            if node.kind.has_weights() && node.weights.is_none() {
                return Err(DnnError::BadWeights {
                    node: id,
                    reason: "weighted layer is missing its weight tensor".into(),
                });
            }
        }
        for &out in &self.outputs {
            if out >= self.nodes.len() {
                return Err(DnnError::DanglingInput {
                    node: usize::MAX,
                    input: out,
                });
            }
        }
        Ok(())
    }

    /// Ids of all `Input` nodes, in order.
    pub fn input_ids(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.kind, LayerKind::Input { .. }))
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of layers excluding inputs.
    pub fn layer_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| !matches!(n.kind, LayerKind::Input { .. }))
            .count()
    }

    /// Total trainable parameter count (sum of weight + bias lengths).
    pub fn param_count(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| {
                n.weights.as_ref().map_or(0, |w| w.len() as u64)
                    + n.bias.as_ref().map_or(0, |b| b.len() as u64)
            })
            .sum()
    }

    /// True if any node stores int8 weights (§6.1 quantisation census).
    pub fn has_int8_weights(&self) -> bool {
        self.nodes.iter().any(|n| {
            n.weights
                .as_ref()
                .is_some_and(|w| w.dtype() == DType::I8)
        })
    }

    /// True if the graph contains quantize/dequantize activation layers.
    pub fn has_quant_layers(&self) -> bool {
        self.nodes
            .iter()
            .any(|n| matches!(n.kind, LayerKind::Quantize(_) | LayerKind::Dequantize(_)))
    }
}

impl Graph<WeightBytes<'_>> {
    /// Copy every weight payload out of the model bytes, for callers that
    /// read weight values (the executor, checksums, pruning census).
    pub fn materialise(self) -> Graph {
        let own = |w: Option<WeightBytes<'_>>| w.map(|w| w.materialise());
        Graph {
            name: self.name,
            nodes: self
                .nodes
                .into_iter()
                .map(|n| Node {
                    name: n.name,
                    kind: n.kind,
                    inputs: n.inputs,
                    weights: own(n.weights),
                    bias: own(n.bias),
                })
                .collect(),
            outputs: self.outputs,
        }
    }
}

/// Incremental, panic-free graph construction.
///
/// ```
/// use gaugenn_dnn::graph::{GraphBuilder, LayerKind, Padding};
/// use gaugenn_dnn::tensor::{DType, Shape, WeightData};
///
/// let mut b = GraphBuilder::new("tiny");
/// let input = b.input("image", Shape::nhwc(1, 8, 8, 3), DType::F32);
/// let conv = b.layer(
///     "conv1",
///     LayerKind::Conv2d { out_channels: 4, kernel: 3, stride: 1, padding: Padding::Same },
///     &[input],
///     Some(WeightData::F32(vec![0.0; 3 * 3 * 3 * 4])),
///     Some(WeightData::F32(vec![0.0; 4])),
/// );
/// let g = b.finish(vec![conv]).unwrap();
/// assert_eq!(g.layer_count(), 1);
/// ```
#[derive(Debug)]
pub struct GraphBuilder {
    name: String,
    nodes: Vec<Node>,
}

impl GraphBuilder {
    /// Start building a graph with the given model name.
    pub fn new(name: impl Into<String>) -> Self {
        GraphBuilder {
            name: name.into(),
            nodes: Vec::new(),
        }
    }

    /// Add an input placeholder.
    pub fn input(&mut self, name: impl Into<String>, shape: Shape, dtype: DType) -> NodeId {
        self.push(Node {
            name: name.into(),
            kind: LayerKind::Input { shape, dtype },
            inputs: vec![],
            weights: None,
            bias: None,
        })
    }

    /// Add a layer with optional weights and bias.
    pub fn layer(
        &mut self,
        name: impl Into<String>,
        kind: LayerKind,
        inputs: &[NodeId],
        weights: Option<WeightData>,
        bias: Option<WeightData>,
    ) -> NodeId {
        self.push(Node {
            name: name.into(),
            kind,
            inputs: inputs.to_vec(),
            weights,
            bias,
        })
    }

    /// Add a weight-free layer.
    pub fn op(&mut self, name: impl Into<String>, kind: LayerKind, inputs: &[NodeId]) -> NodeId {
        self.layer(name, kind, inputs, None, None)
    }

    fn push(&mut self, node: Node) -> NodeId {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Number of nodes added so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no nodes have been added yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Finish and validate the graph.
    pub fn finish(self, outputs: Vec<NodeId>) -> Result<Graph> {
        let g = Graph {
            name: self.name,
            nodes: self.nodes,
            outputs,
        };
        g.validate()?;
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv_weights(cin: usize, cout: usize, k: usize) -> WeightData {
        WeightData::F32(vec![0.1; k * k * cin * cout])
    }

    #[test]
    fn builder_produces_valid_graph() {
        let mut b = GraphBuilder::new("t");
        let i = b.input("in", Shape::nhwc(1, 4, 4, 3), DType::F32);
        let c = b.layer(
            "c",
            LayerKind::Conv2d {
                out_channels: 8,
                kernel: 3,
                stride: 1,
                padding: Padding::Same,
            },
            &[i],
            Some(conv_weights(3, 8, 3)),
            None,
        );
        let g = b.finish(vec![c]).unwrap();
        assert_eq!(g.nodes.len(), 2);
        assert_eq!(g.layer_count(), 1);
        assert_eq!(g.input_ids(), vec![0]);
        assert_eq!(g.param_count(), 3 * 3 * 3 * 8);
    }

    #[test]
    fn validate_rejects_dangling_input() {
        let g: Graph = Graph {
            name: "bad".into(),
            nodes: vec![Node {
                name: "x".into(),
                kind: LayerKind::Softmax,
                inputs: vec![5],
                weights: None,
                bias: None,
            }],
            outputs: vec![0],
        };
        assert!(matches!(
            g.validate(),
            Err(DnnError::DanglingInput { .. })
        ));
    }

    #[test]
    fn validate_rejects_forward_reference() {
        let g: Graph = Graph {
            name: "bad".into(),
            nodes: vec![
                Node {
                    name: "a".into(),
                    kind: LayerKind::Softmax,
                    inputs: vec![1],
                    weights: None,
                    bias: None,
                },
                Node {
                    name: "in".into(),
                    kind: LayerKind::Input {
                        shape: Shape::vec2(1, 4),
                        dtype: DType::F32,
                    },
                    inputs: vec![],
                    weights: None,
                    bias: None,
                },
            ],
            outputs: vec![0],
        };
        assert!(matches!(g.validate(), Err(DnnError::NotTopological(0))));
    }

    #[test]
    fn validate_rejects_missing_weights() {
        let mut b = GraphBuilder::new("t");
        let i = b.input("in", Shape::vec2(1, 4), DType::F32);
        let d = b.op("dense", LayerKind::Dense { units: 2 }, &[i]);
        assert!(matches!(
            b.finish(vec![d]),
            Err(DnnError::BadWeights { node: 1, .. })
        ));
    }

    #[test]
    fn validate_rejects_binary_arity() {
        let mut b = GraphBuilder::new("t");
        let i = b.input("in", Shape::vec2(1, 4), DType::F32);
        let a = b.op("add", LayerKind::Binary(BinOp::Add), &[i]);
        assert!(b.finish(vec![a]).is_err());
    }

    #[test]
    fn validate_rejects_bad_output_id() {
        let mut b = GraphBuilder::new("t");
        let _ = b.input("in", Shape::vec2(1, 4), DType::F32);
        assert!(b.finish(vec![9]).is_err());
    }

    #[test]
    fn family_labels_cover_helper_layers() {
        assert_eq!(
            LayerKind::Quantize(QuantParams::UNIT).family(),
            "quant"
        );
        assert_eq!(
            LayerKind::Resize {
                out_h: 2,
                out_w: 2,
                mode: ResizeMode::Nearest
            }
            .family(),
            "resize"
        );
        assert_eq!(LayerKind::Binary(BinOp::Add).family(), "math");
        assert_eq!(LayerKind::Lstm { units: 8 }.family(), "recurrent");
    }

    #[test]
    fn quant_census_flags() {
        let mut b = GraphBuilder::new("q");
        let i = b.input("in", Shape::vec2(1, 4), DType::F32);
        let q = b.op("q", LayerKind::Quantize(QuantParams::UNIT), &[i]);
        let g = b.finish(vec![q]).unwrap();
        assert!(g.has_quant_layers());
        assert!(!g.has_int8_weights());
    }
}
