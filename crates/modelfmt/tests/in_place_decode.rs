//! The in-place decode (`decode_in_place`, weights borrowed from the file)
//! against the owned one (`decode`, weights copied out), on mutated model
//! files of every encodable codec, plus models whose trace arithmetic
//! overflows.
//!
//! For every input, neither decode may panic and both must agree: equal
//! graphs once the in-place one is materialised, or equal error text. When
//! decoding succeeds, tracing both graphs at batch 1–8 must not panic and
//! must agree too. The mutations are every truncation of every file, a
//! fixed budget of seeded single-bit flips per file, and every length
//! varint of the graph body inflated to a few larger values.

use gaugenn_dnn::graph::{GraphBuilder, LayerKind, Padding, PoolKind};
use gaugenn_dnn::quant::{apply, QuantMode};
use gaugenn_dnn::task::Task;
use gaugenn_dnn::tensor::{DType, Shape, WeightData};
use gaugenn_dnn::trace::trace_graph_batched;
use gaugenn_dnn::zoo::{build_for_task, SizeClass};
use gaugenn_dnn::{DnnError, Graph};
use gaugenn_modelfmt::graphcodec::encode_graph;
use gaugenn_modelfmt::{decode, decode_in_place, encode, Framework};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Every framework with an encoder.
const CODECS: [Framework; 6] = [
    Framework::TfLite,
    Framework::Caffe,
    Framework::Ncnn,
    Framework::TensorFlow,
    Framework::Snpe,
    Framework::Onnx,
];
/// Seeded single-bit flips per file.
const FLIPS_PER_FILE: usize = 256;
/// Seed of the flip positions.
const FLIP_SEED: u64 = 0x5EED_F11B;

type Files = Vec<(String, Vec<u8>)>;

/// Decode `files` both ways and trace both results; panics, naming
/// `what`, on any disagreement. Returns whether decoding succeeded.
fn decodes_agree(fw: Framework, files: &Files, what: &str) -> bool {
    let owned = decode(fw, files);
    let in_place = decode_in_place(fw, files);
    match (&owned, &in_place) {
        (Ok(owned), Ok(in_place)) => {
            assert_eq!(
                *owned,
                in_place.clone().materialise(),
                "{what}: the decoded graphs differ"
            );
            for batch in 1..=8 {
                assert_eq!(
                    trace_graph_batched(owned, batch),
                    trace_graph_batched(in_place, batch),
                    "{what}: the traces differ at batch {batch}"
                );
            }
            true
        }
        (Err(a), Err(b)) => {
            assert_eq!(a.to_string(), b.to_string(), "{what}: the errors differ");
            false
        }
        _ => panic!(
            "{what}: owned decode ok={}, in-place decode ok={}",
            owned.is_ok(),
            in_place.is_ok()
        ),
    }
}

/// [`decodes_agree`], turning a panic anywhere inside into a failure
/// that names the input.
fn check(fw: Framework, files: &Files, what: &str) -> bool {
    catch_unwind(AssertUnwindSafe(|| decodes_agree(fw, files, what)))
        .unwrap_or_else(|_| panic!("{what}: panicked (message above)"))
}

fn read_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let b = bytes[*pos];
        *pos += 1;
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            break;
        }
    }
    v
}

fn write_varint(mut v: u64, out: &mut Vec<u8>) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// `(offset, byte size, value)` of every length varint in the message at
/// `bytes[start..end]`, descending from the graph (`depth` 0) into its
/// nodes (field 2) and from each node into its weight and bias messages
/// (fields 6 and 7).
fn length_varints(
    bytes: &[u8],
    start: usize,
    end: usize,
    depth: u8,
    out: &mut Vec<(usize, usize, u64)>,
) {
    let mut pos = start;
    while pos < end {
        let tag = read_varint(bytes, &mut pos);
        match tag & 7 {
            0 => {
                read_varint(bytes, &mut pos);
            }
            5 => pos += 4,
            2 => {
                let at = pos;
                let len = read_varint(bytes, &mut pos);
                out.push((at, pos - at, len));
                let field = tag >> 3;
                let nested =
                    (depth == 0 && field == 2) || (depth == 1 && (field == 6 || field == 7));
                if nested {
                    length_varints(bytes, pos, pos + len as usize, depth + 1, out);
                }
                pos += len as usize;
            }
            other => panic!("wire type {other} in an encoded body"),
        }
    }
}

/// The sweep's model: a small zoo LSTM, fully int8-quantised so it holds
/// int8 kernels, f32 biases and quantize/dequantize layers.
fn sweep_model() -> Graph {
    let g = build_for_task(Task::CrashDetection, 11, SizeClass::Small, true).graph;
    apply(&g, QuantMode::Full)
}

#[test]
fn in_place_and_owned_decodes_agree_under_mutation() {
    let graph = sweep_model();
    let body = encode_graph(&graph);
    let mut rng = FLIP_SEED;
    let mut next = || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    for fw in CODECS {
        let art = encode(&graph, fw).unwrap_or_else(|e| panic!("{fw:?}: {e}"));
        assert!(check(fw, &art.files, &format!("{fw:?} unmutated")));
        let mut inflated = 0;
        for (i, (name, bytes)) in art.files.iter().enumerate() {
            let mutant = |mutated: Vec<u8>| {
                let mut files = art.files.clone();
                files[i].1 = mutated;
                files
            };
            for len in 0..bytes.len() {
                check(
                    fw,
                    &mutant(bytes[..len].to_vec()),
                    &format!("{name} cut to {len}"),
                );
            }
            for _ in 0..FLIPS_PER_FILE {
                let (at, bit) = ((next() % bytes.len() as u64) as usize, next() % 8);
                let mut m = bytes.clone();
                m[at] ^= 1 << bit;
                check(
                    fw,
                    &mutant(m),
                    &format!("{name} bit {bit} of byte {at} flipped"),
                );
            }
            // Only the binary part of a split format holds the body.
            let Some(start) = bytes.windows(body.len()).position(|w| w == body.as_slice()) else {
                continue;
            };
            let mut lens = Vec::new();
            length_varints(bytes, start, start + body.len(), 0, &mut lens);
            for (at, size, len) in lens {
                for bigger in [len + 1, 2 * len + 16, u64::from(u32::MAX), u64::MAX] {
                    let mut m = bytes[..at].to_vec();
                    write_varint(bigger, &mut m);
                    m.extend_from_slice(&bytes[at + size..]);
                    check(
                        fw,
                        &mutant(m),
                        &format!("{name} length {len} at {at} made {bigger}"),
                    );
                    inflated += 1;
                }
            }
        }
        // Every node carries a name, so the walk must have found the body.
        assert!(
            inflated >= 4 * graph.nodes.len(),
            "{fw:?}: only {inflated} inflations"
        );
    }
}

/// Encode `graph` with every codec, decode it both ways, and return each
/// decode's trace error at `batch`; tracing must fail, not panic.
fn trace_errors(graph: &Graph, batch: usize) -> Vec<DnnError> {
    let mut errors = Vec::new();
    for fw in CODECS {
        let art = encode(graph, fw).unwrap_or_else(|e| panic!("{fw:?}: {e}"));
        let owned = decode(fw, &art.files).unwrap_or_else(|e| panic!("{fw:?}: {e}"));
        let in_place = decode_in_place(fw, &art.files).unwrap_or_else(|e| panic!("{fw:?}: {e}"));
        let a = trace_graph_batched(&owned, batch).expect_err("owned trace must overflow");
        let b = trace_graph_batched(&in_place, batch).expect_err("in-place trace must overflow");
        assert_eq!(a, b, "{fw:?}");
        errors.push(a);
    }
    errors
}

#[test]
fn oversized_input_dims_fail_the_trace_on_both_decodes() {
    let mut b = GraphBuilder::new("huge_input");
    let i = b.input("in", Shape::nhwc(1, 1 << 33, 1 << 33, 3), DType::F32);
    let p = b.op("gap", LayerKind::GlobalPool(PoolKind::Avg), &[i]);
    let g = b.finish(vec![p]).unwrap();
    for e in trace_errors(&g, 1) {
        assert!(
            matches!(&e, DnnError::Shape { node: 0, reason } if reason.contains("overflows")),
            "{e}"
        );
    }
}

#[test]
fn conv_mac_overflow_fails_the_trace_on_both_decodes() {
    let mut b = GraphBuilder::new("huge_kernel");
    let i = b.input("in", Shape::nhwc(1, 4, 4, 3), DType::F32);
    let c = b.layer(
        "conv",
        LayerKind::Conv2d {
            out_channels: 2,
            kernel: 1 << 32,
            stride: 1,
            padding: Padding::Same,
        },
        &[i],
        Some(WeightData::F32(vec![0.5; 6])),
        None,
    );
    let g = b.finish(vec![c]).unwrap();
    for e in trace_errors(&g, 1) {
        assert!(
            matches!(&e, DnnError::Shape { node: 1, reason } if reason.contains("operation count")),
            "{e}"
        );
    }
}
