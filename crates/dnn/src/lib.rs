//! # gaugenn-dnn — DNN graph substrate
//!
//! The paper analyses Deep Neural Networks as directed acyclic graphs (DAGs):
//! layers are vertices, data flows are edges (§3.2). This crate provides that
//! substrate from scratch:
//!
//! * [`graph`] — the graph IR (`Graph`, `Node`, `LayerKind`) and a builder.
//! * [`tensor`] — shapes, dtypes and weight storage (f32 and int8-quantised),
//!   owned ([`WeightData`]) or borrowed from model bytes ([`WeightBytes`]).
//!   Validation, shape inference and tracing read weights only through the
//!   [`Weights`] trait, so they run on either.
//! * [`shape`] — static shape inference for every layer kind.
//! * [`trace`] — trace-based FLOPs / MACs / parameter accounting, mirroring
//!   the paper's "generate a random input … and measure analytically the
//!   amount of operations being performed per layer" (§4.7).
//! * [`exec`] — a correct (if unoptimised) reference executor, used by the
//!   benchmark harness to actually run inferences.
//! * [`quant`] — int8 affine quantisation of weights and activations (§6.1).
//! * [`zoo`] — parameterised generators for the model families the paper
//!   found in the wild (MobileNets, FSSD, BlazeFace, segmenters, CRNNs,
//!   autocomplete LSTMs, audio CNNs, sensor MLPs, …).
//! * [`task`] — the task/modality taxonomy of Table 3.
//!
//! All randomness is seeded; a given seed always produces bit-identical
//! weights and therefore bit-identical serialised models and checksums.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod graph;
pub mod quant;
pub mod shape;
pub mod task;
pub mod tensor;
pub mod trace;
pub mod zoo;

pub use graph::{Graph, GraphBuilder, LayerKind, Node, NodeId};
pub use tensor::{DType, Shape, Tensor, WeightBytes, WeightData, Weights};
pub use trace::{trace_graph, TraceReport};

/// Errors produced by graph construction, shape inference and execution.
#[derive(Debug, Clone, PartialEq)]
pub enum DnnError {
    /// A node referenced an input id that does not exist (or appears later in
    /// topological order).
    DanglingInput {
        /// The node holding the bad reference.
        node: usize,
        /// The missing input id.
        input: usize,
    },
    /// The graph contains a cycle or nodes are not topologically ordered.
    NotTopological(usize),
    /// Shape inference failed for a node.
    Shape {
        /// Index of the offending node.
        node: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// The executor was given an input tensor of the wrong shape or dtype.
    BadInput(String),
    /// The executor hit a layer configuration it cannot run.
    Unsupported(String),
    /// Weights attached to a node do not match what the layer requires.
    BadWeights {
        /// Index of the offending node.
        node: usize,
        /// Human-readable reason.
        reason: String,
    },
}

impl std::fmt::Display for DnnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DnnError::DanglingInput { node, input } => {
                write!(f, "node {node} references missing input {input}")
            }
            DnnError::NotTopological(n) => write!(f, "node {n} breaks topological order"),
            DnnError::Shape { node, reason } => {
                write!(f, "shape inference failed at node {node}: {reason}")
            }
            DnnError::BadInput(r) => write!(f, "bad executor input: {r}"),
            DnnError::Unsupported(r) => write!(f, "unsupported operation: {r}"),
            DnnError::BadWeights { node, reason } => {
                write!(f, "bad weights at node {node}: {reason}")
            }
        }
    }
}

impl std::error::Error for DnnError {}

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, DnnError>;
