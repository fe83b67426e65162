//! # gaugenn-playstore — synthetic Google Play Store + crawler
//!
//! The study's input is the Google Play Store: two snapshots of the top
//! free apps per category (up to 500 each), taken in February 2020 and
//! April 2021 (§4.1). That corpus is not downloadable here, so this crate
//! builds a *store you must still crawl*:
//!
//! * [`categories`] — the Play category roster and the per-category model
//!   densities that shape Figs. 4 and 5.
//! * [`corpus`] — the deterministic corpus generator: app population, the
//!   unique-model pool with its duplication / fine-tuning / quantisation
//!   structure (§4.5, §6.1), cloud-API usage (§6.4), obfuscated-model apps
//!   and the hardware-acceleration adopters (§6.3).
//! * [`proto`] — a small HTTP/1.0-flavoured wire protocol.
//! * [`server`] — the store server: category listings, app metadata,
//!   APKs (assembled on demand), OBBs and bundles, served from one
//!   readiness loop ([`reactor`]: epoll over TCP, or the deterministic
//!   sim loop in process); it honours user-agent / locale /
//!   device-profile headers the way the real store API shapes responses.
//! * [`crawler`] — the gaugeNN crawler client that walks categories and
//!   downloads everything, mimicking "the web API calls made from the
//!   Google Play store of a typical mobile device" (§3.1). Its
//!   single-connection `Crawler` is the synchronous client; [`pool`]
//!   crawls at scale over non-blocking lanes ([`reactor_client`]).
//!
//! Ground truth (which app got which model) never crosses the wire in
//! analysable form: the pipeline must re-derive every statistic from the
//! downloaded binary artefacts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod categories;
pub mod chaos;
pub mod corpus;
pub mod crawler;
pub mod net;
pub mod pool;
pub mod proto;
pub mod query;
pub mod reactor;
pub mod reactor_client;
pub mod route;
pub mod server;

pub use admission::{Admission, AdmissionConfig, AdmissionController, AdmissionStats, BreakerState};
pub use chaos::{FaultKind, FaultPlan, FaultPlanConfig};
pub use corpus::{CorpusScale, Snapshot, StoreCorpus};
pub use crawler::{
    CrawlOutcome, CrawlStage, CrawlStats, CrawledApp, Crawler, CrawlerBuilder, DropOut, RetryPolicy,
};
pub use net::{Endpoint, SimClientHandle, SimNet, SimStream, Transport};
pub use pool::{CrawlPool, CrawlPoolConfig, PoolOutcome, WorkerReport};
pub use query::{QueryClient, QueryClientBuilder};
pub use reactor::{ReactorMode, Served};
pub use reactor_client::{
    drive_lanes, DriveReport, LaneJob, LaneOpts, LaneOutcome, LaneSpec, RouteListJob,
};
pub use route::Route;
pub use server::{LockstepServer, ServerOptions, StoreServer};

/// Errors from the store substrate.
#[derive(Debug)]
pub enum StoreError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// Protocol violation (bad request/response framing).
    Protocol(String),
    /// Requested entity does not exist.
    NotFound(String),
    /// Corpus generation failed (e.g. model encode error).
    Corpus(String),
    /// Transient server-side status (429/503/5xx) — retriable.
    Transient {
        /// The status code served.
        status: u16,
        /// The request path.
        path: String,
    },
    /// Body-integrity check failed (checksum mismatch) — retriable.
    Integrity {
        /// The request path.
        path: String,
    },
    /// The store-wide circuit breaker is open: the request was not sent.
    /// Retriable — the breaker half-opens once its cool-down elapses.
    CircuitOpen {
        /// The request path (query stripped).
        path: String,
    },
    /// A request kept failing after every retry attempt.
    RetriesExhausted {
        /// The request path.
        path: String,
        /// Attempts made.
        attempts: u32,
        /// Final error, stringified.
        last: String,
    },
}

impl StoreError {
    /// Whether retrying the same request may succeed: IO and framing
    /// errors (broken/desynced streams), throttling statuses and
    /// integrity failures are transient; missing entities are not.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            StoreError::Io(_)
                | StoreError::Protocol(_)
                | StoreError::Transient { .. }
                | StoreError::Integrity { .. }
                | StoreError::CircuitOpen { .. }
        )
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io error: {e}"),
            StoreError::Protocol(r) => write!(f, "protocol error: {r}"),
            StoreError::NotFound(e) => write!(f, "not found: {e}"),
            StoreError::Corpus(r) => write!(f, "corpus error: {r}"),
            StoreError::Transient { status, path } => {
                write!(f, "transient status {status} on {path}")
            }
            StoreError::Integrity { path } => {
                write!(f, "body checksum mismatch on {path}")
            }
            StoreError::CircuitOpen { path } => {
                write!(f, "circuit breaker open, request to {path} not sent")
            }
            StoreError::RetriesExhausted {
                path,
                attempts,
                last,
            } => write!(f, "{path} failed after {attempts} attempts: {last}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, StoreError>;
