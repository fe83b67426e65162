//! Experiment drivers: one per table and figure of the paper's evaluation.
//!
//! | id | artefact | driver |
//! |----|----------|--------|
//! | T1 | Table 1 device specs | [`runtime::tab1`] |
//! | T2 | Table 2 dataset snapshots | [`offline::tab2`] |
//! | T3 | Table 3 task classification | [`offline::tab3`] |
//! | T4 | Table 4 scenario energy | [`runtime::tab4`] |
//! | F4 | models per framework × category | [`offline::fig4`] |
//! | F5 | models added/removed across snapshots | [`offline::fig5`] |
//! | F6 | layer composition per modality | [`offline::fig6`] |
//! | F7 | FLOPs & params per task | [`offline::fig7`] |
//! | F8 | latency vs FLOPs | [`runtime::fig8`] |
//! | F9 | latency ECDF per device | [`runtime::fig9`] |
//! | F10 | energy/power/efficiency distributions | [`runtime::fig10`] |
//! | F11 | throughput vs batch size | [`backends::fig11`] |
//! | F12 | throughput vs threads/affinity | [`backends::fig12`] |
//! | F13 | CPU-runtime ECDFs (CPU/XNNPACK/NNAPI) | [`backends::fig13`] |
//! | F14 | SNPE-target ECDFs | [`backends::fig14`] |
//! | F15 | cloud-API apps per category | [`offline::fig15`] |
//! | §4.5 | uniqueness / fine-tuning | [`offline::sec45`] |
//! | §6.1 | optimisation census | [`offline::sec61`] |
//! | §6.1+ | what-if: applying the unadopted optimisations | [`whatif::whatif`] |
//! | §8.1+ | DNN co-habitation study (future work) | [`cohab::cohab_study`] |
//! | X3 | model-mechanism ablations | [`ablations::ablation_study`] |
//! | X4 | §6.4 cloud offloading vs on-device | [`offload::offload_study`] |
//!
//! Every driver is a pure function of its inputs; outputs implement
//! `render()` returning a paper-style text block.

pub mod ablations;
pub mod backends;
pub mod cohab;
pub mod offline;
pub mod offload;
pub mod runtime;
pub mod whatif;
