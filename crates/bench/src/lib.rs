//! # gaugenn-bench — the command-line surface
//!
//! * `src/bin/repro.rs` — regenerates every table and figure at a chosen
//!   corpus scale (`tiny` / `small` / `paper`); `EXPERIMENTS.md` is its
//!   output.
//! * `src/bin/{poolbench,analyzebench,querybench}.rs` — the crawl-pool,
//!   analysis-pool and query-serving sweeps.
//!
//! Per-layer timings of the substrates and the artefact renders come
//! from `perfbench`'s traced run, not from this crate.

pub mod cli;
pub mod stats;
