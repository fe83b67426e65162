//! # gaugenn-core — the gaugeNN pipeline and experiments
//!
//! This crate is the paper's primary contribution: the tool that
//! "automates the deployment, measurement and analysis of DNNs on devices"
//! (§1). It composes every substrate crate into the three-stage workflow
//! of Fig. 1:
//!
//! 1. **DNN retrieval** ([`pipeline`]) — crawl the store over TCP, download
//!    APKs/OBBs/bundles, extract candidate files, validate signatures.
//! 2. **Offline analysis** ([`extract`], `gaugenn-analysis`) — decode
//!    graphs, checksum models and layers, classify tasks, census
//!    optimisations, scan for cloud APIs and acceleration markers.
//! 3. **Benchmarking** ([`experiments`]) — drive the SoC/power models (and
//!    the TCP master–slave harness) to regenerate every table and figure
//!    of the evaluation.
//!
//! See `DESIGN.md` for the experiment index and `EXPERIMENTS.md` for
//! paper-vs-measured results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod cachestore;
mod content;
pub mod crashpoint;
pub mod experiments;
pub mod extract;
pub mod indexer;
pub mod journal;
pub mod pipeline;
pub mod report;

pub use pipeline::{Pipeline, PipelineConfig, PipelineReport};

/// Errors from pipeline orchestration.
#[derive(Debug)]
pub enum CoreError {
    /// Store/crawler failure.
    Store(gaugenn_playstore::StoreError),
    /// Container parsing failure.
    Apk(gaugenn_apk::ApkError),
    /// Harness failure.
    Harness(gaugenn_harness::HarnessError),
    /// SoC model failure.
    Soc(gaugenn_soc::SocError),
    /// Power model failure.
    Power(gaugenn_power::PowerError),
    /// Anything else.
    Other(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Store(e) => write!(f, "store: {e}"),
            CoreError::Apk(e) => write!(f, "apk: {e}"),
            CoreError::Harness(e) => write!(f, "harness: {e}"),
            CoreError::Soc(e) => write!(f, "soc: {e}"),
            CoreError::Power(e) => write!(f, "power: {e}"),
            CoreError::Other(r) => write!(f, "{r}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<gaugenn_playstore::StoreError> for CoreError {
    fn from(e: gaugenn_playstore::StoreError) -> Self {
        CoreError::Store(e)
    }
}
impl From<gaugenn_apk::ApkError> for CoreError {
    fn from(e: gaugenn_apk::ApkError) -> Self {
        CoreError::Apk(e)
    }
}
impl From<gaugenn_harness::HarnessError> for CoreError {
    fn from(e: gaugenn_harness::HarnessError) -> Self {
        CoreError::Harness(e)
    }
}
impl From<gaugenn_soc::SocError> for CoreError {
    fn from(e: gaugenn_soc::SocError) -> Self {
        CoreError::Soc(e)
    }
}
impl From<gaugenn_power::PowerError> for CoreError {
    fn from(e: gaugenn_power::PowerError) -> Self {
        CoreError::Power(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
