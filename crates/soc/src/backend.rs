//! Inference backends (§6.3, Appendix B).
//!
//! Each backend couples an execution engine (CPU pool, GPU, DSP) with an
//! operator-support table and kernel-quality factors. Partial operator
//! support is the defining trait the paper observed: "the number of models
//! commonly compatible is low … rudimentary support for operators across
//! heterogeneous targets can hinder their widespread adoption".

use crate::sched::ThreadConfig;

/// SNPE execution target within the Qualcomm SoC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SnpeTarget {
    /// SNPE CPU runtime.
    Cpu,
    /// Adreno GPU runtime.
    Gpu,
    /// Hexagon DSP runtime (int8).
    Dsp,
}

/// An inference backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Backend {
    /// Framework-default CPU kernels (TFLite reference path) — the baseline
    /// in Figs. 13 and 14.
    Cpu(ThreadConfig),
    /// XNNPACK delegate: optimised Neon CPU kernels.
    Xnnpack(ThreadConfig),
    /// NNAPI delegate via vendor NN drivers.
    Nnapi,
    /// TFLite GPU delegate (OpenCL).
    Gpu,
    /// Qualcomm SNPE runtime.
    Snpe(SnpeTarget),
}

impl Backend {
    /// Display name used in figures.
    pub fn name(&self) -> String {
        match self {
            Backend::Cpu(c) => format!("CPU({})", c.label()),
            Backend::Xnnpack(c) => format!("XNNPACK({})", c.label()),
            Backend::Nnapi => "NNAPI".into(),
            Backend::Gpu => "GPU".into(),
            Backend::Snpe(SnpeTarget::Cpu) => "SNPE-CPU".into(),
            Backend::Snpe(SnpeTarget::Gpu) => "SNPE-GPU".into(),
            Backend::Snpe(SnpeTarget::Dsp) => "SNPE-DSP".into(),
        }
    }

    /// Whether this backend executes `family` layers at all.
    ///
    /// Unsupported families make the *whole model* incompatible (we model
    /// the common TFLite behaviour of delegates rejecting the graph; CPU
    /// fallback partitioning is approximated by NNAPI's low quality factor
    /// instead).
    pub fn supports(&self, family: &str) -> bool {
        match self {
            // Reference CPU kernels implement everything.
            Backend::Cpu(_) => true,
            // XNNPACK: float conv/dense kernels; no recurrent cells, no
            // quantize helpers in the delegate path.
            Backend::Xnnpack(_) => !matches!(family, "recurrent" | "quant"),
            // NNAPI 1.2-era driver op set.
            Backend::Nnapi => !matches!(family, "recurrent" | "embedding" | "quant"),
            // GPU delegate: image-shaped ops only.
            Backend::Gpu => !matches!(family, "recurrent" | "embedding" | "quant"),
            Backend::Snpe(t) => match t {
                SnpeTarget::Cpu => true,
                SnpeTarget::Gpu => !matches!(family, "recurrent" | "embedding" | "quant"),
                SnpeTarget::Dsp => {
                    !matches!(family, "recurrent" | "embedding" | "quant" | "resize")
                }
            },
        }
    }

    /// Kernel quality multiplier on achievable utilisation (1.0 = the
    /// baseline CPU kernels). Fitted to §6.3's measured ratios: XNNPACK
    /// 1.03× faster; NNAPI 0.49× (unoptimised vendor NN drivers); SNPE-CPU
    /// slightly below TFLite CPU.
    pub fn quality_factor(&self) -> f64 {
        match self {
            Backend::Cpu(_) => 1.0,
            Backend::Xnnpack(_) => 1.06,
            Backend::Nnapi => 0.52,
            Backend::Gpu => 1.0,
            Backend::Snpe(SnpeTarget::Cpu) => 0.85,
            Backend::Snpe(SnpeTarget::Gpu) => 1.18,
            Backend::Snpe(SnpeTarget::Dsp) => 1.0,
        }
    }

    /// Per-layer dispatch overhead in milliseconds (driver hops, kernel
    /// launches). NNAPI pays the HAL round-trip; GPU pays command-buffer
    /// submission.
    pub fn dispatch_overhead_ms(&self) -> f64 {
        match self {
            Backend::Cpu(_) | Backend::Xnnpack(_) => 0.015,
            Backend::Nnapi => 0.12,
            Backend::Gpu => 0.05,
            // SNPE pre-compiles the whole graph for its target, so per-op
            // dispatch is cheap relative to interpreter-style execution.
            Backend::Snpe(SnpeTarget::Cpu) => 0.02,
            Backend::Snpe(SnpeTarget::Gpu) => 0.03,
            Backend::Snpe(SnpeTarget::Dsp) => 0.008,
        }
    }

    /// Whether this backend computes in int8 (affects effective throughput
    /// and the accuracy caveat of §6.3: "the DSP runs in int8").
    pub fn int8_compute(&self) -> bool {
        matches!(self, Backend::Snpe(SnpeTarget::Dsp))
    }

    /// Fixed per-inference session overhead in milliseconds: interpreter
    /// invocation, input copy and output sync. Constant across devices, so
    /// it compresses cross-device latency ratios for small models — part
    /// of why the paper's tier gaps are narrower than raw core-throughput
    /// ratios suggest.
    pub fn session_overhead_ms(&self) -> f64 {
        match self {
            Backend::Cpu(_) | Backend::Xnnpack(_) => 1.2,
            Backend::Nnapi => 2.5,
            Backend::Gpu => 1.5,
            Backend::Snpe(SnpeTarget::Cpu) => 1.0,
            Backend::Snpe(SnpeTarget::Gpu) => 1.0,
            Backend::Snpe(SnpeTarget::Dsp) => 0.4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_supports_everything() {
        let cpu = Backend::Cpu(ThreadConfig::unpinned(4));
        for fam in [
            "conv", "depth_conv", "dense", "activation", "pool", "math", "concat", "reshape",
            "resize", "slice", "norm", "pad", "quant", "embedding", "recurrent",
        ] {
            assert!(cpu.supports(fam), "{fam}");
        }
    }

    #[test]
    fn delegates_reject_recurrent() {
        for b in [
            Backend::Xnnpack(ThreadConfig::unpinned(4)),
            Backend::Nnapi,
            Backend::Gpu,
            Backend::Snpe(SnpeTarget::Gpu),
            Backend::Snpe(SnpeTarget::Dsp),
        ] {
            assert!(!b.supports("recurrent"), "{}", b.name());
            assert!(b.supports("conv"), "{}", b.name());
        }
    }

    #[test]
    fn dsp_strictest() {
        let dsp = Backend::Snpe(SnpeTarget::Dsp);
        let gpu = Backend::Snpe(SnpeTarget::Gpu);
        assert!(!dsp.supports("resize"));
        assert!(gpu.supports("resize"));
    }

    #[test]
    fn quality_ordering_matches_section_6_3() {
        let cpu = Backend::Cpu(ThreadConfig::unpinned(4));
        let xnn = Backend::Xnnpack(ThreadConfig::unpinned(4));
        assert!(xnn.quality_factor() > cpu.quality_factor());
        assert!(Backend::Nnapi.quality_factor() < cpu.quality_factor());
        assert!(
            Backend::Snpe(SnpeTarget::Cpu).quality_factor() < cpu.quality_factor(),
            "SNPE CPU lags vanilla CPU (non-optimised vendor CPU path)"
        );
    }

    #[test]
    fn names_and_overheads() {
        assert_eq!(Backend::Nnapi.name(), "NNAPI");
        assert_eq!(
            Backend::Cpu(ThreadConfig::pinned(4, 2)).name(),
            "CPU(4a2)"
        );
        assert!(Backend::Nnapi.dispatch_overhead_ms() > Backend::Gpu.dispatch_overhead_ms());
        assert!(Backend::Snpe(SnpeTarget::Dsp).int8_compute());
        assert!(!Backend::Gpu.int8_compute());
    }
}
