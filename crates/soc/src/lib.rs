//! # gaugenn-soc — mobile SoC performance model
//!
//! The paper benchmarks models on six physical devices (Table 1): three
//! Samsung phones spanning market tiers and three Qualcomm HDK boards
//! spanning SoC generations. Physical hardware is unavailable here, so this
//! crate substitutes an analytic device model that reproduces the *shapes*
//! the paper measures:
//!
//! * FLOPs is a poor latency proxy (Fig. 8) — the roofline in [`latency`]
//!   makes memory-bound layers (depthwise convs, activations, small GEMMs)
//!   decouple latency from FLOPs, differently per device.
//! * Tier and generation gaps (Fig. 9) emerge from core microarchitectures,
//!   frequencies and memory bandwidth in [`spec`].
//! * Thread-count/affinity behaviour (Fig. 12) comes from the island-aware
//!   scheduler model in [`sched`].
//! * Backend deltas (Figs. 13–14) come from per-backend operator support
//!   and engine characteristics in [`backend`].
//! * Sustained-load throttling comes from [`thermal`] (open-deck HDKs
//!   dissipate better than phones — §5.1's Q888-vs-S21 observation).
//! * [`cohab`] implements the §8.1 "DNN co-habitation" future-work study:
//!   two models contending for cores and bandwidth on one SoC.
//! * [`offload`] models the §6.4 cloud-offloading trade-off: network
//!   round-trips and payload transfer against device-independent
//!   datacenter compute.
//!
//! Nothing in this crate reads a wall clock: latency is a pure function of
//! (model trace, device, configuration), which is what makes every figure
//! reproducible bit-for-bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cohab;
pub mod latency;
pub mod offload;
pub mod sched;
pub mod spec;
pub mod thermal;

pub use backend::{Backend, SnpeTarget};
pub use latency::{estimate_latency, LatencyBreakdown, LatencyModel};
pub use sched::ThreadConfig;
pub use spec::{all_devices, DeviceSpec, DeviceTier, SocSpec};

/// Errors from the SoC model.
#[derive(Debug, Clone, PartialEq)]
pub enum SocError {
    /// The requested backend cannot run this model (operator unsupported —
    /// the "rudimentary support for operators across heterogeneous targets"
    /// of §6.3).
    Unsupported {
        /// Backend that rejected the model.
        backend: String,
        /// The offending layer family.
        layer: String,
    },
    /// Invalid thread/affinity configuration.
    BadConfig(String),
    /// The model trace is empty or malformed.
    BadTrace(String),
}

impl std::fmt::Display for SocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SocError::Unsupported { backend, layer } => {
                write!(f, "backend {backend} does not support layer family '{layer}'")
            }
            SocError::BadConfig(r) => write!(f, "bad configuration: {r}"),
            SocError::BadTrace(r) => write!(f, "bad trace: {r}"),
        }
    }
}

impl std::error::Error for SocError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, SocError>;
