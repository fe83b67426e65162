//! Roofline latency model.
//!
//! Each layer's time is the maximum of its compute time (FLOPs over the
//! engine's effective throughput, scaled by a per-family utilisation) and
//! its memory time (bytes moved over the memory system's bandwidth), plus a
//! per-layer dispatch overhead. This is what makes FLOPs a poor latency
//! proxy (Fig. 8): two models with identical FLOPs but different
//! depthwise/dense/helper-layer mixes land on different sides of the
//! roofline knee — and land differently on different devices.

use crate::backend::{Backend, SnpeTarget};
use crate::sched::{assign, Assignment};
use crate::spec::DeviceSpec;
use crate::thermal::ThermalState;
use crate::{Result, SocError};
use gaugenn_dnn::trace::TraceReport;

/// Fraction of peak an engine achieves on each layer family.
///
/// These are calibrated to *measured* 2021 mobile-framework throughput,
/// not to hardware peaks: TFLite's CPU path delivered single-digit
/// effective GFLOPS on flagship SoCs. The calibration anchor is the
/// paper's efficiency medians (730/765/873 MFLOP/s/W on Q845/Q855/Q888,
/// Fig. 10c), which pin effective-GFLOPS-per-watt directly.
fn cpu_utilization(family: &str) -> f64 {
    match family {
        "conv" => 0.070,
        "depth_conv" => 0.030, // memory-bound in practice
        "dense" => 0.055,
        "recurrent" => 0.012, // sequential dependency chain
        "pool" => 0.020,
        "activation" | "math" | "norm" => 0.020,
        "quant" => 0.030,
        _ => 0.020, // concat/reshape/resize/slice/pad/embedding: traffic-bound
    }
}

/// GPU fractions anchored to §6.3: the vanilla GPU path ~1.9× and
/// SNPE-GPU 2.28× faster than CPU on average.
fn gpu_utilization(family: &str) -> f64 {
    match family {
        "conv" => 0.020,
        "depth_conv" => 0.007,
        "dense" => 0.014,
        "pool" => 0.006,
        _ => 0.006,
    }
}

/// Hexagon fractions anchored to §6.3: SNPE-DSP 5.72× faster and 20.3×
/// more efficient than CPU on average (int8).
fn dsp_utilization(family: &str) -> f64 {
    match family {
        "conv" => 0.055,
        "depth_conv" => 0.028,
        "dense" => 0.045,
        "pool" => 0.015,
        _ => 0.012,
    }
}

/// Tensor-shape utilisation factor: narrow channel counts waste SIMD lanes
/// and small spatial extents starve the thread pool. This is one of the
/// §5.1 reasons FLOPs decouples from latency ("underutilisation of
/// hardware"): two models with equal FLOPs but different tensor shapes run
/// at different fractions of peak.
fn shape_efficiency(out_shape: &gaugenn_dnn::tensor::Shape) -> f64 {
    let c = out_shape.channels().max(1) as f64;
    let per_sample = out_shape.elems_per_sample().max(1) as f64;
    let lane_eff = (c / 48.0).clamp(0.30, 1.0).sqrt();
    let parallel_eff = (per_sample / 4096.0).clamp(0.40, 1.0).powf(0.25);
    lane_eff * parallel_eff
}

/// Resolved execution engine characteristics for one (device, backend).
#[derive(Debug, Clone)]
pub struct Engine {
    /// Peak GFLOPS (or int8 GOPS for the DSP) after scheduling penalties.
    pub peak_gflops: f64,
    /// Memory bandwidth share in GB/s.
    pub mem_bw_gbps: f64,
    /// Active power draw of the engine at load, watts.
    pub active_power_w: f64,
    /// CPU assignment (present for CPU-pool backends).
    pub assignment: Option<Assignment>,
}

/// Resolve the engine for a backend on a device.
pub fn engine_for(device: &DeviceSpec, backend: Backend) -> Result<Engine> {
    match backend {
        Backend::Cpu(cfg) | Backend::Xnnpack(cfg) => {
            let a = assign(device, cfg)?;
            Ok(Engine {
                peak_gflops: a.effective_gflops,
                mem_bw_gbps: device.soc.mem_bw_gbps,
                active_power_w: a.active_power_w,
                assignment: Some(a),
            })
        }
        Backend::Snpe(SnpeTarget::Cpu) => {
            let a = assign(device, crate::sched::default_config())?;
            Ok(Engine {
                peak_gflops: a.effective_gflops,
                mem_bw_gbps: device.soc.mem_bw_gbps,
                active_power_w: a.active_power_w,
                assignment: Some(a),
            })
        }
        Backend::Nnapi => {
            // NNAPI on the Q845-era driver lands on the CPU path through
            // the HAL (§6.3: "unoptimised NN drivers from the vendor").
            let a = assign(device, crate::sched::default_config())?;
            Ok(Engine {
                peak_gflops: a.effective_gflops,
                mem_bw_gbps: device.soc.mem_bw_gbps * 0.8,
                active_power_w: a.active_power_w * 1.1,
                assignment: Some(a),
            })
        }
        Backend::Gpu => Ok(Engine {
            peak_gflops: device.soc.gpu_gflops * device.vendor_factor,
            mem_bw_gbps: device.soc.mem_bw_gbps * 0.9,
            active_power_w: device.soc.gpu_power_w,
            assignment: None,
        }),
        Backend::Snpe(SnpeTarget::Gpu) => Ok(Engine {
            peak_gflops: device.soc.gpu_gflops * device.vendor_factor,
            mem_bw_gbps: device.soc.mem_bw_gbps * 0.9,
            active_power_w: device.soc.gpu_power_w,
            assignment: None,
        }),
        Backend::Snpe(SnpeTarget::Dsp) => {
            if device.soc.dsp_gops <= 0.0 {
                return Err(SocError::Unsupported {
                    backend: backend.name(),
                    layer: "(no DSP on this SoC)".into(),
                });
            }
            Ok(Engine {
                peak_gflops: device.soc.dsp_gops * device.vendor_factor,
                // Hexagon has dedicated DMA engines into shared DRAM.
                mem_bw_gbps: device.soc.mem_bw_gbps,
                active_power_w: device.soc.dsp_power_w,
                assignment: None,
            })
        }
    }
}

/// Latency estimate for one inference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyBreakdown {
    /// End-to-end latency in milliseconds.
    pub total_ms: f64,
    /// Fraction of total time in memory-bound layers.
    pub memory_bound_fraction: f64,
}

/// The roofline terms of one layer that do not depend on the thermal
/// state.
#[derive(Debug, Clone, Copy)]
struct LayerTerms {
    /// FLOPs of the layer.
    flops: f64,
    /// `peak_gflops * utilisation * quality`: the effective throughput
    /// before throttling and the int8 boost.
    gflops: f64,
    /// Memory time in milliseconds (bytes moved over the bandwidth).
    mem_ms: f64,
}

/// The roofline of one (device, backend, trace), resolved once.
///
/// Building it checks the trace and the backend's operator support and
/// resolves the engine; [`LatencyModel::estimate`] then prices one
/// inference at a thermal state in a single pass over the per-layer terms,
/// allocating nothing. A benchmark job's warm-ups and measured runs, and a
/// sustained scenario's chunks, evaluate one model many times.
#[derive(Debug)]
pub struct LatencyModel<'d> {
    device: &'d DeviceSpec,
    engine: Engine,
    total_flops: u64,
    layers: Vec<LayerTerms>,
    int8_boost: f64,
    overhead_ms: f64,
    session_overhead_ms: f64,
}

impl<'d> LatencyModel<'d> {
    /// Resolve the roofline of `trace` on `device`/`backend`. Fails on an
    /// empty trace, then on the first layer family `backend` cannot run,
    /// then on an engine the device cannot provide.
    pub fn new(device: &'d DeviceSpec, backend: Backend, trace: &TraceReport) -> Result<Self> {
        if trace.layers.is_empty() {
            return Err(SocError::BadTrace("trace has no layers".into()));
        }
        for l in &trace.layers {
            if !backend.supports(l.family) {
                return Err(SocError::Unsupported {
                    backend: backend.name(),
                    layer: l.family.into(),
                });
            }
        }
        let engine = engine_for(device, backend)?;
        let quality = backend.quality_factor();
        let utilization = match backend {
            Backend::Gpu | Backend::Snpe(SnpeTarget::Gpu) => gpu_utilization,
            Backend::Snpe(SnpeTarget::Dsp) => dsp_utilization,
            _ => cpu_utilization,
        };
        // int8 moves a quarter of the activation bytes.
        let byte_scale = if backend.int8_compute() { 4.0 } else { 1.0 };
        let layers = trace
            .layers
            .iter()
            .map(|l| {
                let util = utilization(l.family) * shape_efficiency(&l.out_shape);
                let bytes = (l.bytes_read + l.bytes_written) as f64 / byte_scale;
                LayerTerms {
                    flops: l.flops as f64,
                    gflops: engine.peak_gflops * util * quality,
                    mem_ms: bytes / (engine.mem_bw_gbps.max(1e-6) * 1e9) * 1e3,
                }
            })
            .collect();
        Ok(LatencyModel {
            device,
            engine,
            total_flops: trace.total_flops,
            layers,
            int8_boost: if backend.int8_compute() { 2.0 } else { 1.0 },
            overhead_ms: backend.dispatch_overhead_ms(),
            session_overhead_ms: backend.session_overhead_ms(),
        })
    }

    /// The device the model was resolved for.
    pub fn device(&self) -> &'d DeviceSpec {
        self.device
    }

    /// The engine the model runs on.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// FLOPs of one inference.
    pub fn total_flops(&self) -> u64 {
        self.total_flops
    }

    /// Price one inference at `thermal`: each layer costs the larger of
    /// its compute and memory times plus the dispatch overhead, summed in
    /// layer order, plus the session overhead.
    pub fn estimate(&self, thermal: &ThermalState) -> LatencyBreakdown {
        let throttle = thermal.throttle_factor(self.device);
        let mut total = 0.0f64;
        let mut mem_ms_total = 0.0f64;
        for l in &self.layers {
            let eff = l.gflops * throttle * self.int8_boost;
            let compute_ms = l.flops / (eff.max(1e-6) * 1e9) * 1e3;
            let ms = compute_ms.max(l.mem_ms) + self.overhead_ms;
            if l.mem_ms > compute_ms {
                mem_ms_total += ms;
            }
            total += ms;
        }
        total += self.session_overhead_ms;
        LatencyBreakdown {
            total_ms: total,
            memory_bound_fraction: mem_ms_total / total.max(1e-12),
        }
    }
}

/// Estimate single-inference latency for `trace` on `device`/`backend`.
///
/// `thermal` scales sustained throughput down when the device is hot; pass
/// [`ThermalState::cool`] for one-shot benchmarks with inter-run sleeps
/// (the paper's methodology, §3.3).
pub fn estimate_latency(
    device: &DeviceSpec,
    backend: Backend,
    trace: &TraceReport,
    thermal: &ThermalState,
) -> Result<LatencyBreakdown> {
    Ok(LatencyModel::new(device, backend, trace)?.estimate(thermal))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::ThreadConfig;
    use crate::spec::{all_devices, device};
    use crate::thermal::{THROTTLE_FULL_C, THROTTLE_START_C};
    use gaugenn_dnn::task::Task;
    use gaugenn_dnn::trace::{trace_graph, trace_graph_batched};
    use gaugenn_dnn::zoo::{build_for_task, SizeClass};
    use proptest::prelude::*;

    fn cpu4() -> Backend {
        Backend::Cpu(ThreadConfig::unpinned(4))
    }

    /// The per-call estimator the resolved model replaced: every layer's
    /// terms re-derived on each call. Kept verbatim, less the per-layer
    /// records it used to collect, as the reference the model must match
    /// bit for bit.
    fn reference(
        device: &DeviceSpec,
        backend: Backend,
        trace: &TraceReport,
        thermal: &ThermalState,
    ) -> Result<LatencyBreakdown> {
        if trace.layers.is_empty() {
            return Err(SocError::BadTrace("trace has no layers".into()));
        }
        for l in &trace.layers {
            if !backend.supports(l.family) {
                return Err(SocError::Unsupported {
                    backend: backend.name(),
                    layer: l.family.into(),
                });
            }
        }
        let engine = engine_for(device, backend)?;
        let throttle = thermal.throttle_factor(device);
        let quality = backend.quality_factor();
        let overhead = backend.dispatch_overhead_ms();
        let int8_boost = if backend.int8_compute() { 2.0 } else { 1.0 };

        let mut total = 0.0f64;
        let mut mem_ms_total = 0.0f64;
        for l in &trace.layers {
            let util = match backend {
                Backend::Gpu | Backend::Snpe(SnpeTarget::Gpu) => gpu_utilization(l.family),
                Backend::Snpe(SnpeTarget::Dsp) => dsp_utilization(l.family),
                _ => cpu_utilization(l.family),
            } * shape_efficiency(&l.out_shape);
            let eff = engine.peak_gflops * util * quality * throttle * int8_boost;
            let compute_ms = l.flops as f64 / (eff.max(1e-6) * 1e9) * 1e3;
            // int8 moves a quarter of the activation bytes.
            let bytes = (l.bytes_read + l.bytes_written) as f64 / if backend.int8_compute() { 4.0 } else { 1.0 };
            let mem_ms = bytes / (engine.mem_bw_gbps.max(1e-6) * 1e9) * 1e3;
            let ms = compute_ms.max(mem_ms) + overhead;
            let memory_bound = mem_ms > compute_ms;
            if memory_bound {
                mem_ms_total += ms;
            }
            total += ms;
        }
        total += backend.session_overhead_ms();
        Ok(LatencyBreakdown {
            total_ms: total,
            memory_bound_fraction: mem_ms_total / total.max(1e-12),
        })
    }

    /// Every backend family, plus CPU configurations that pin, and one
    /// the scheduler rejects (an engine error after the trace checks).
    fn backends() -> Vec<Backend> {
        vec![
            cpu4(),
            Backend::Cpu(ThreadConfig::pinned(4, 2)),
            Backend::Cpu(ThreadConfig::unpinned(0)),
            Backend::Xnnpack(ThreadConfig::unpinned(4)),
            Backend::Nnapi,
            Backend::Gpu,
            Backend::Snpe(SnpeTarget::Cpu),
            Backend::Snpe(SnpeTarget::Gpu),
            Backend::Snpe(SnpeTarget::Dsp),
        ]
    }

    /// Hold the model to the reference on every Table 1 device and
    /// backend: equal bits when both succeed, an equal message when both
    /// fail. Returns how many pairs succeeded.
    fn assert_matches_reference(trace: &TraceReport, thermal: &ThermalState) -> usize {
        let mut ok = 0;
        for dev in all_devices() {
            for b in backends() {
                let want = reference(&dev, b, trace, thermal);
                let got = estimate_latency(&dev, b, trace, thermal);
                match (&want, &got) {
                    (Ok(w), Ok(g)) => {
                        assert_eq!(
                            (w.total_ms.to_bits(), w.memory_bound_fraction.to_bits()),
                            (g.total_ms.to_bits(), g.memory_bound_fraction.to_bits()),
                            "{} {} at {} C: {w:?} != {g:?}",
                            dev.name,
                            b.name(),
                            thermal.temp_c
                        );
                        ok += 1;
                    }
                    (Err(w), Err(g)) => assert_eq!(w.to_string(), g.to_string()),
                    _ => panic!("{} {}: {want:?} vs {got:?}", dev.name, b.name()),
                }
            }
        }
        ok
    }

    const TASKS: [Task; 8] = [
        Task::ObjectDetection,
        Task::FaceDetection,
        Task::SemanticSegmentation,
        Task::ImageClassification,
        Task::AutoComplete,
        Task::KeywordDetection,
        Task::MovementTracking,
        Task::SoundRecognition,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn model_matches_the_per_call_reference_bit_for_bit(
            task in 0..TASKS.len(),
            seed in 0u64..1000,
            batch in 1usize..9,
            temp_c in 25.0f64..110.0,
        ) {
            let g = build_for_task(TASKS[task], seed, SizeClass::Small, true).graph;
            let trace = trace_graph_batched(&g, batch).unwrap();
            // Cool, the throttle knee, partly throttled, fully throttled
            // and past it, and the sampled temperature.
            let mut ok = 0;
            for temp_c in [
                25.0,
                THROTTLE_START_C,
                (THROTTLE_START_C + THROTTLE_FULL_C) / 2.0,
                THROTTLE_FULL_C,
                120.0,
                temp_c,
            ] {
                ok += assert_matches_reference(&trace, &ThermalState { temp_c });
            }
            prop_assert!(ok > 0, "every pair failed for {:?}", TASKS[task]);
        }
    }

    #[test]
    fn model_errors_match_the_reference() {
        let empty = TraceReport {
            layers: vec![],
            total_macs: 0,
            total_flops: 0,
            total_params: 0,
            peak_activation_elems: 0,
        };
        assert_eq!(assert_matches_reference(&empty, &ThermalState::cool()), 0);
        // The LSTM model: unsupported on every delegate, and on a DSP-less
        // SoC the DSP fails on the layer before the missing engine.
        let lstm = trace_for(Task::AutoComplete, 7);
        let ok = assert_matches_reference(&lstm, &ThermalState::cool());
        assert!(ok > 0 && ok < all_devices().len() * backends().len());
    }

    #[test]
    fn one_model_prices_every_thermal_state() {
        let tr = trace_for(Task::ObjectDetection, 13);
        let dev = device("S21").unwrap();
        let model = LatencyModel::new(&dev, cpu4(), &tr).unwrap();
        assert_eq!(model.total_flops(), tr.total_flops);
        let cool = model.estimate(&ThermalState::cool());
        let hot = model.estimate(&ThermalState { temp_c: 120.0 });
        assert!(hot.total_ms > cool.total_ms, "throttling slows the model");
        assert_eq!(
            model.estimate(&ThermalState::cool()),
            cool,
            "evaluation is a pure function of the thermal state"
        );
    }

    fn trace_for(task: Task, seed: u64) -> TraceReport {
        trace_graph(&build_for_task(task, seed, SizeClass::Small, true).graph).unwrap()
    }

    #[test]
    fn tiers_order_latency() {
        let tr = trace_for(Task::ObjectDetection, 3);
        let cool = ThermalState::cool();
        let a20 = estimate_latency(&device("A20").unwrap(), cpu4(), &tr, &cool).unwrap();
        let a70 = estimate_latency(&device("A70").unwrap(), cpu4(), &tr, &cool).unwrap();
        let s21 = estimate_latency(&device("S21").unwrap(), cpu4(), &tr, &cool).unwrap();
        assert!(a20.total_ms > a70.total_ms, "low tier slower than mid");
        assert!(a70.total_ms > s21.total_ms, "mid tier slower than high");
    }

    #[test]
    fn hdk_generations_order_latency() {
        let tr = trace_for(Task::SemanticSegmentation, 4);
        let cool = ThermalState::cool();
        let q845 = estimate_latency(&device("Q845").unwrap(), cpu4(), &tr, &cool).unwrap();
        let q855 = estimate_latency(&device("Q855").unwrap(), cpu4(), &tr, &cool).unwrap();
        let q888 = estimate_latency(&device("Q888").unwrap(), cpu4(), &tr, &cool).unwrap();
        assert!(q845.total_ms > q855.total_ms);
        assert!(q855.total_ms > q888.total_ms);
    }

    #[test]
    fn open_deck_beats_sealed_phone_same_soc() {
        // §5.1: "for the two devices that integrate the same SoC (Q888 and
        // S21) the open-deck design … leads to incrementally better
        // results".
        let tr = trace_for(Task::ObjectDetection, 5);
        let cool = ThermalState::cool();
        let s21 = estimate_latency(&device("S21").unwrap(), cpu4(), &tr, &cool).unwrap();
        let q888 = estimate_latency(&device("Q888").unwrap(), cpu4(), &tr, &cool).unwrap();
        assert!(q888.total_ms < s21.total_ms);
        assert!(q888.total_ms > 0.85 * s21.total_ms, "gap should be incremental");
    }

    #[test]
    fn flops_latency_nonlinear_across_models() {
        // Two models with similar FLOPs should be allowed different
        // latencies (Fig. 8's point). Compare a conv-heavy vs a
        // depthwise/helper-heavy model at matched FLOPs by ratio test:
        // latency per GFLOP differs.
        let cool = ThermalState::cool();
        let dev = device("Q845").unwrap();
        let conv_heavy = trace_for(Task::SemanticSegmentation, 6);
        let recurrent_heavy = trace_for(Task::AutoComplete, 6);
        let l1 = estimate_latency(&dev, cpu4(), &conv_heavy, &cool).unwrap();
        let l2 = estimate_latency(&dev, cpu4(), &recurrent_heavy, &cool).unwrap();
        let per_flop1 = l1.total_ms / conv_heavy.total_flops as f64;
        let per_flop2 = l2.total_ms / recurrent_heavy.total_flops as f64;
        let ratio = per_flop1 / per_flop2;
        assert!(
            !(0.95..=1.05).contains(&ratio),
            "latency per FLOP should differ across architectures, ratio {ratio}"
        );
    }

    #[test]
    fn unsupported_ops_rejected_per_backend() {
        let lstm = trace_for(Task::AutoComplete, 7);
        let dev = device("Q845").unwrap();
        let cool = ThermalState::cool();
        assert!(estimate_latency(&dev, cpu4(), &lstm, &cool).is_ok());
        for b in [
            Backend::Xnnpack(ThreadConfig::unpinned(4)),
            Backend::Nnapi,
            Backend::Gpu,
            Backend::Snpe(SnpeTarget::Dsp),
        ] {
            assert!(
                matches!(
                    estimate_latency(&dev, b, &lstm, &cool),
                    Err(SocError::Unsupported { .. })
                ),
                "{}",
                b.name()
            );
        }
    }

    #[test]
    fn snpe_dsp_much_faster_than_cpu() {
        // MobileNet classifier: in the DSP-compatible subset (no resize).
        let tr = trace_for(Task::ImageClassification, 8);
        let dev = device("Q845").unwrap();
        let cool = ThermalState::cool();
        let cpu = estimate_latency(&dev, cpu4(), &tr, &cool).unwrap();
        let dsp = estimate_latency(&dev, Backend::Snpe(SnpeTarget::Dsp), &tr, &cool).unwrap();
        let speedup_dsp = cpu.total_ms / dsp.total_ms;
        assert!(speedup_dsp > 2.0, "dsp speedup {speedup_dsp}");
        // GPU pays per-op submission overhead, so its win shows on heavier
        // models (Fig. 14 averages over the whole corpus).
        let heavy = trace_for(Task::SemanticSegmentation, 8);
        let cpu_h = estimate_latency(&dev, cpu4(), &heavy, &cool).unwrap();
        let gpu_h = estimate_latency(&dev, Backend::Snpe(SnpeTarget::Gpu), &heavy, &cool).unwrap();
        let dsp_h = estimate_latency(&dev, Backend::Snpe(SnpeTarget::Dsp), &heavy, &cool).unwrap();
        let speedup_gpu = cpu_h.total_ms / gpu_h.total_ms;
        assert!(speedup_gpu > 1.2, "gpu speedup {speedup_gpu}");
        assert!(
            cpu_h.total_ms / dsp_h.total_ms > speedup_gpu,
            "dsp should beat gpu on the heavy model too"
        );
    }

    #[test]
    fn nnapi_slower_than_cpu_on_q845() {
        let tr = trace_for(Task::FaceDetection, 9);
        let dev = device("Q845").unwrap();
        let cool = ThermalState::cool();
        let cpu = estimate_latency(&dev, cpu4(), &tr, &cool).unwrap();
        let nnapi = estimate_latency(&dev, Backend::Nnapi, &tr, &cool).unwrap();
        assert!(nnapi.total_ms > cpu.total_ms, "NNAPI should lag baseline CPU");
    }

    #[test]
    fn xnnpack_slightly_faster() {
        let tr = trace_for(Task::FaceDetection, 10);
        let dev = device("Q845").unwrap();
        let cool = ThermalState::cool();
        let cpu = estimate_latency(&dev, cpu4(), &tr, &cool).unwrap();
        let xnn =
            estimate_latency(&dev, Backend::Xnnpack(ThreadConfig::unpinned(4)), &tr, &cool)
                .unwrap();
        let speedup = cpu.total_ms / xnn.total_ms;
        assert!(speedup > 1.0 && speedup < 1.25, "xnnpack speedup {speedup}");
    }

    #[test]
    fn batching_amortises_overhead() {
        let g = build_for_task(Task::ImageClassification, 11, SizeClass::Small, true).graph;
        let dev = device("S21").unwrap();
        let cool = ThermalState::cool();
        let t1 = trace_graph_batched(&g, 1).unwrap();
        let t8 = trace_graph_batched(&g, 8).unwrap();
        let l1 = estimate_latency(&dev, cpu4(), &t1, &cool).unwrap();
        let l8 = estimate_latency(&dev, cpu4(), &t8, &cool).unwrap();
        let tput1 = 1.0 / l1.total_ms;
        let tput8 = 8.0 / l8.total_ms;
        assert!(tput8 > tput1, "throughput should rise with batch");
        assert!(l8.total_ms < 8.0 * l1.total_ms, "batch amortises per-layer overhead");
    }

    #[test]
    fn empty_trace_rejected() {
        let dev = device("A20").unwrap();
        let tr = TraceReport {
            layers: vec![],
            total_macs: 0,
            total_flops: 0,
            total_params: 0,
            peak_activation_elems: 0,
        };
        assert!(estimate_latency(&dev, cpu4(), &tr, &ThermalState::cool()).is_err());
    }

    #[test]
    fn memory_bound_fraction_populated() {
        let tr = trace_for(Task::ObjectRecognition, 12);
        let dev = device("A20").unwrap();
        let l = estimate_latency(&dev, cpu4(), &tr, &ThermalState::cool()).unwrap();
        assert!(l.memory_bound_fraction > 0.0, "some layers should be memory-bound");
        assert!(l.memory_bound_fraction < 1.0, "some layers should be compute-bound");
    }
}
