//! # gaugeNN
//!
//! A full reproduction of *"Smart at what cost? Characterising Mobile Deep
//! Neural Networks in the wild"* (Almeida, Laskaridis, et al., IMC 2021).
//!
//! This meta-crate re-exports every subsystem of the workspace under one
//! namespace. See `DESIGN.md` for the system inventory and the mapping from
//! paper tables/figures to modules, and `EXPERIMENTS.md` for reproduced
//! results.
//!
//! ## Quickstart
//!
//! ```
//! use gaugenn::core::pipeline::{Pipeline, PipelineConfig};
//! use gaugenn::playstore::corpus::Snapshot;
//!
//! // Build a tiny deterministic store snapshot, crawl it over TCP, extract
//! // and validate every model, then summarise the corpus.
//! let cfg = PipelineConfig::tiny(Snapshot::Y2021, 7);
//! let report = Pipeline::new(cfg).run().expect("pipeline");
//! assert!(report.dataset.total_models > 0);
//! ```

pub use gaugenn_analysis as analysis;
pub use gaugenn_apk as apk;
pub use gaugenn_core as core;
pub use gaugenn_dnn as dnn;
pub use gaugenn_harness as harness;
pub use gaugenn_index as index;
pub use gaugenn_modelfmt as modelfmt;
pub use gaugenn_playstore as playstore;
pub use gaugenn_sched as sched;
pub use gaugenn_power as power;
pub use gaugenn_soc as soc;
