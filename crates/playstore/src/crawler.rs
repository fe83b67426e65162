//! The gaugeNN crawler client (§3.1).
//!
//! Walks every category page by page (the store caps listings at 500 per
//! category), fetches metadata, the base APK, companion OBB files and the
//! bundle form when advertised — "gaugeNN supports file extraction from
//! i) the base apk, ii) expansion files (OBBs) and iii) Android App
//! Bundles".
//!
//! The crawler is built to survive a hostile store: every request runs
//! under a [`RetryPolicy`] (exponential backoff, deterministic jitter
//! keyed on `(connection, route, retry)`), the keep-alive stream is
//! invalidated and re-dialled after any IO or framing error (a desynced
//! `BufReader` must never feed stale bytes into the next response),
//! payloads are verified against the server's integrity checksum, and a
//! full [`Crawler::crawl_all`] sweep returns a [`CrawlOutcome`] that
//! records permanently-failing apps as structured drop-outs — the
//! paper's Table 2 accounting — instead of aborting the sweep on the
//! first bad app.
//!
//! The study's crawl runs through [`crate::pool::CrawlPool`], whose
//! non-blocking lanes share this crawler's request state machine. The
//! blocking crawler serves the pool's bootstrap, the §4.2 device-profile
//! probe and [`crate::query::QueryClient`], and its [`Crawler::crawl_all`]
//! walk is the reference the lanes are tested against.
//!
//! Large downloads survive truncation without starting over: a cut
//! mid-body keeps the received prefix and the retry asks for the
//! remainder with a range header, validating the stitched result against
//! the server's full-body checksum (see [`crate::proto`]).
//!
//! Crawlers are constructed through [`Crawler::builder`]; when several
//! crawl the same store concurrently (see [`crate::pool::CrawlPool`]),
//! give each a distinct [`CrawlerBuilder::connection_id`] and a clone of
//! one shared [`AdmissionController`] so the fleet respects one
//! store-wide rate limit and circuit breaker.
//!
//! Backoff delays, pacing charges and breaker waits run on a logical
//! clock: they are *recorded* in [`CrawlStats`] and never slept,
//! preserving the repo's bit-for-bit determinism guarantee (DESIGN.md
//! §6) and keeping chaos tests fast.

use crate::admission::{Admission, AdmissionController};
use crate::chaos::{hash_str, splitmix64};
use crate::net::{Endpoint, Transport};
use crate::proto::{
    read_response_resumable, write_request, ReadOutcome, Response, CONNECTION_ID_HEADER,
    CRC_HEADER, FULL_CRC_HEADER, RANGE_START_HEADER,
};
use crate::route::Route;
use crate::{Result, StoreError};
use gaugenn_apk::crc32::crc32;
use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Crawler identity headers (§3.1/§4.1: a UK account on a Galaxy S10).
#[derive(Debug, Clone)]
pub struct CrawlerConfig {
    /// User-agent string sent with every request.
    pub user_agent: String,
    /// Store locale.
    pub locale: String,
    /// Device profile the store sees.
    pub device_profile: String,
    /// Page size for category listings.
    pub page_size: usize,
}

impl Default for CrawlerConfig {
    fn default() -> Self {
        CrawlerConfig {
            user_agent: "gaugeNN/1.0 (Android 11; SM-G977B)".into(),
            locale: "en_GB".into(),
            device_profile: "SM-G977B".into(),
            page_size: 100,
        }
    }
}

/// Retry policy for store requests: bounded attempts with exponential
/// backoff and deterministic (seeded) jitter keyed on the connection id
/// and the request route. Backoff is accounted on the logical clock
/// ([`CrawlStats::backoff_ms_total`]), never slept.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per request (first try included). Must be ≥ 1.
    pub max_attempts: u32,
    /// Base backoff before the first retry, milliseconds.
    pub base_backoff_ms: u64,
    /// Backoff ceiling, milliseconds.
    pub max_backoff_ms: u64,
    /// Seed for the jitter draws.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_ms: 5,
            max_backoff_ms: 80,
            jitter_seed: 0x9A43E,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `retry` (1-based) of `route_key` on
    /// connection `connection_id`: `min(max, base·2^(retry-1))`, half
    /// fixed and half jittered by a splitmix64 draw on
    /// `(seed, connection, route, retry)`. Folding the connection id in
    /// keeps two workers that retry the same package from colliding on
    /// identical backoff sequences.
    pub fn backoff_ms(&self, connection_id: u64, route_key: &str, retry: u32) -> u64 {
        let exp = self
            .base_backoff_ms
            .saturating_mul(1u64 << (retry.saturating_sub(1)).min(10))
            .min(self.max_backoff_ms);
        let half = exp / 2;
        let h = splitmix64(
            self.jitter_seed ^ splitmix64(connection_id) ^ hash_str(route_key) ^ retry as u64,
        );
        half + h % (half + 1)
    }
}

/// Counters the crawler keeps while surviving a hostile store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrawlStats {
    /// Requests attempted (including retries).
    pub requests: u64,
    /// Retries performed after transient failures.
    pub retries: u64,
    /// Times the keep-alive stream was re-dialled after an error.
    pub reconnects: u64,
    /// Total backoff accounted on the logical clock, milliseconds.
    pub backoff_ms_total: u64,
    /// Truncated downloads completed by a range-request resume instead
    /// of a from-scratch refetch.
    pub range_resumes: u64,
    /// Requests that paid an admission-controller pacing charge.
    pub throttled: u64,
    /// Total pacing charge accounted on the logical clock, milliseconds.
    pub throttle_ms_total: u64,
    /// Attempts rejected outright by an open circuit breaker.
    pub breaker_rejections: u64,
}

impl CrawlStats {
    /// Fold another counter set into this one (pool merging).
    pub fn merge(&mut self, other: &CrawlStats) {
        self.requests += other.requests;
        self.retries += other.retries;
        self.reconnects += other.reconnects;
        self.backoff_ms_total += other.backoff_ms_total;
        self.range_resumes += other.range_resumes;
        self.throttled += other.throttled;
        self.throttle_ms_total += other.throttle_ms_total;
        self.breaker_rejections += other.breaker_rejections;
    }
}

/// The crawl stage at which an app dropped out (paper Fig. 1 stages).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CrawlStage {
    /// Category listing fetch.
    Listing,
    /// App metadata fetch/parse.
    Meta,
    /// Base APK download.
    Apk,
    /// OBB expansion download.
    Obb,
    /// App-bundle download.
    Bundle,
}

impl CrawlStage {
    /// Every stage, in pipeline order (for breakdown tables).
    pub const ALL: [CrawlStage; 5] = [
        CrawlStage::Listing,
        CrawlStage::Meta,
        CrawlStage::Apk,
        CrawlStage::Obb,
        CrawlStage::Bundle,
    ];

    /// Stable label for reports.
    pub fn name(&self) -> &'static str {
        match self {
            CrawlStage::Listing => "listing",
            CrawlStage::Meta => "meta",
            CrawlStage::Apk => "apk",
            CrawlStage::Obb => "obb",
            CrawlStage::Bundle => "bundle",
        }
    }
}

/// One app (or category listing) that never made it into the corpus —
/// the paper tracks these as download failures in the Table 2 accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DropOut {
    /// Package name (or `category:<name>` for a listing failure).
    pub package: String,
    /// Stage that failed.
    pub stage: CrawlStage,
    /// Final error after every retry, stringified.
    pub error: String,
}

impl DropOut {
    /// The drop-out of a category whose listing failed after every
    /// retry: `category:<name>` at [`CrawlStage::Listing`].
    pub fn listing(category: &str, error: &StoreError) -> DropOut {
        DropOut {
            package: format!("category:{category}"),
            stage: CrawlStage::Listing,
            error: error.to_string(),
        }
    }
}

/// Everything a full store sweep produced: the corpus plus the drop-out
/// ledger and the resilience counters.
#[derive(Debug, Clone, PartialEq)]
pub struct CrawlOutcome {
    /// Successfully downloaded apps.
    pub apps: Vec<CrawledApp>,
    /// Apps/listings that failed permanently.
    pub dropouts: Vec<DropOut>,
    /// Retry/reconnect/backoff accounting.
    pub stats: CrawlStats,
}

/// App metadata as parsed from the store response.
#[derive(Debug, Clone, PartialEq)]
pub struct AppMeta {
    /// Package name.
    pub package: String,
    /// Store title.
    pub title: String,
    /// Category name.
    pub category: String,
    /// Download count.
    pub downloads: u64,
    /// Star rating.
    pub rating: f32,
    /// Version code.
    pub version_code: u32,
    /// Whether the store advertises OBB expansion files.
    pub has_obb: bool,
    /// Whether the app is distributed as a bundle.
    pub has_bundle: bool,
}

/// Everything downloaded for one app.
#[derive(Debug, Clone, PartialEq)]
pub struct CrawledApp {
    /// Parsed metadata.
    pub meta: AppMeta,
    /// Base APK bytes.
    pub apk: Vec<u8>,
    /// OBB expansion files `(filename, bytes)`.
    pub obbs: Vec<(String, Vec<u8>)>,
    /// Bundle bytes when distributed as a bundle.
    pub bundle: Option<Vec<u8>>,
}

impl CrawledApp {
    /// Every container byte downloaded for the app: APK, OBBs and bundle.
    pub fn bytes(&self) -> u64 {
        (self.apk.len()
            + self.obbs.iter().map(|(_, b)| b.len()).sum::<usize>()
            + self.bundle.as_ref().map_or(0, |b| b.len())) as u64
    }
}

/// One live keep-alive connection: one [`Transport`] handle, over TCP or
/// a sim pipe depending on the dialled [`Endpoint`], behind the
/// `BufReader` responses are read from. Requests are written through
/// `get_mut()`, past the buffer, which only ever holds response bytes.
type Conn = BufReader<Box<dyn Transport>>;

/// The identity/range header set every store request carries, shared by
/// the blocking crawler and the non-blocking client lanes so both
/// transports put byte-identical requests on the wire.
pub(crate) fn request_headers<'a>(
    config: &'a CrawlerConfig,
    conn_id: &'a str,
    range: Option<&'a str>,
) -> Vec<(&'a str, &'a str)> {
    let mut headers: Vec<(&str, &str)> = vec![
        ("User-Agent", config.user_agent.as_str()),
        ("X-Locale", config.locale.as_str()),
        ("X-Device-Profile", config.device_profile.as_str()),
        (CONNECTION_ID_HEADER, conn_id),
    ];
    if let Some(r) = range {
        headers.push((RANGE_START_HEADER, r));
    }
    headers
}

/// Verify the integrity header when the server supplies one (it covers
/// exactly the bytes served, a range suffix included).
pub(crate) fn verify_body_crc(resp: &Response, wire_path: &str) -> Result<()> {
    if let Some(want) = resp
        .headers
        .iter()
        .find(|(k, _)| k == CRC_HEADER)
        .map(|(_, v)| v.as_str())
    {
        let got = format!("{:08x}", crc32(&resp.body));
        if got != want {
            return Err(StoreError::Integrity {
                path: wire_path.into(),
            });
        }
    }
    Ok(())
}

/// Complete a 200 response: when a resume prefix is outstanding, stitch
/// it to the served suffix and validate the whole body against the
/// server's full-body checksum.
pub(crate) fn finish_body(
    stats: &mut CrawlStats,
    mut resp: Response,
    prefix: &mut Vec<u8>,
    wire: &str,
    range_start: Option<usize>,
) -> Result<Response> {
    if prefix.is_empty() {
        return Ok(resp);
    }
    let echoed = resp
        .headers
        .iter()
        .find(|(k, _)| k == RANGE_START_HEADER)
        .and_then(|(_, v)| v.parse::<usize>().ok());
    if echoed != range_start {
        // The server served the whole body; the prefix is superseded.
        prefix.clear();
        return Ok(resp);
    }
    let want = resp
        .headers
        .iter()
        .find(|(k, _)| k == FULL_CRC_HEADER)
        .map(|(_, v)| v.clone())
        .ok_or_else(|| {
            StoreError::Protocol(format!("{wire}: ranged response missing {FULL_CRC_HEADER}"))
        })?;
    // The prefix never holds more than the full body, so an exact
    // reservation leaves the stitched body without slack.
    let mut stitched = std::mem::take(prefix);
    stitched.reserve_exact(resp.body.len());
    stitched.extend_from_slice(&resp.body);
    if format!("{:08x}", crc32(&stitched)) != want {
        return Err(StoreError::Integrity { path: wire.into() });
    }
    stats.range_resumes += 1;
    resp.body = stitched;
    Ok(resp)
}

/// The non-empty lines of a listing response (categories or one category
/// page).
pub(crate) fn parse_listing(text: &str) -> Vec<String> {
    text.lines()
        .filter(|l| !l.is_empty())
        .map(str::to_string)
        .collect()
}

/// Parse an app-metadata response body. Malformed numeric fields are a
/// typed [`StoreError::Protocol`] — never silently coerced to zero.
pub(crate) fn parse_app_meta(text: &str) -> Result<AppMeta> {
    let kv: BTreeMap<String, String> = text
        .lines()
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let field = |k: &str| -> Result<String> {
        kv.get(k)
            .cloned()
            .ok_or_else(|| StoreError::Protocol(format!("metadata missing '{k}'")))
    };
    let bad =
        |k: &str, v: &str| StoreError::Protocol(format!("malformed metadata field '{k}': '{v}'"));
    let downloads_s = field("downloads")?;
    let rating_s = field("rating")?;
    let version_s = field("version")?;
    Ok(AppMeta {
        package: field("package")?,
        title: field("title")?,
        category: field("category")?,
        downloads: downloads_s
            .parse()
            .map_err(|_| bad("downloads", &downloads_s))?,
        rating: rating_s.parse().map_err(|_| bad("rating", &rating_s))?,
        version_code: version_s.parse().map_err(|_| bad("version", &version_s))?,
        has_obb: field("has_obb")? == "true",
        has_bundle: field("has_bundle")? == "true",
    })
}

/// Name + bytes of an OBB response (server-advertised filename, or the
/// conventional `main.<version>.<package>.obb`).
pub(crate) fn obb_entry(resp: Response, package: &str, version_code: u32) -> (String, Vec<u8>) {
    let name = resp
        .headers
        .iter()
        .find(|(k, _)| k == "x-obb-name")
        .map(|(_, v)| v.clone())
        .unwrap_or_else(|| format!("main.{version_code}.{package}.obb"));
    (name, resp.body)
}

/// Per-request retry state machine shared by the blocking [`Crawler`]
/// and the non-blocking client lanes (see `crate::reactor_client`). One
/// instance covers one logical request from first attempt to success,
/// fatal error or retry exhaustion; every counter bump, backoff draw,
/// admission charge and error string lives here, which is what keeps the
/// two transports byte-identical on any (connection, route) history.
pub(crate) struct RequestSm {
    key: String,
    wire: String,
    resumable: bool,
    max: u32,
    attempt: u32,
    prefix: Vec<u8>,
    range_start: Option<usize>,
    last: Option<StoreError>,
}

/// What to do after [`RequestSm::admit`].
pub(crate) enum AdmitVerdict {
    /// Admitted (any pacing charge already accounted): issue the request.
    Proceed {
        /// Byte offset to resume from, when a truncated prefix is held.
        range_start: Option<usize>,
    },
    /// Breaker open: the attempt is consumed without a request (its
    /// retry-after already accounted); begin the next attempt.
    Rejected,
}

/// What [`RequestSm::absorb`] decided about one attempt's outcome.
pub(crate) enum AttemptVerdict {
    /// The request succeeded (body stitched/verified); the response.
    Done(Response),
    /// Permanent failure: stop retrying. `invalidate` tells the caller
    /// whether the stream desynced on the way.
    Fatal {
        /// The permanent error.
        error: StoreError,
        /// Drop the keep-alive stream before surfacing the error.
        invalidate: bool,
    },
    /// Transient failure: begin the next attempt.
    Retry {
        /// Drop the keep-alive stream before retrying (mid-frame cuts
        /// and IO errors desync it; well-formed 429/503 frames do not).
        invalidate: bool,
    },
}

impl RequestSm {
    pub(crate) fn new(route: &Route, resumable: bool, max_attempts: u32) -> RequestSm {
        RequestSm {
            key: route.fault_key(),
            wire: route.wire_path(),
            resumable,
            max: max_attempts.max(1),
            attempt: 0,
            prefix: Vec::new(),
            range_start: None,
            last: None,
        }
    }

    /// The wire path this request targets.
    pub(crate) fn wire_path(&self) -> &str {
        &self.wire
    }

    /// Begin the next attempt: consume one attempt slot, bump the retry
    /// counter and account the backoff delay (attempt 2 onwards). Fails
    /// with the typed exhaustion error once every attempt is consumed.
    pub(crate) fn begin_attempt(
        &mut self,
        retry: &RetryPolicy,
        connection_id: u64,
        stats: &mut CrawlStats,
    ) -> Result<()> {
        if self.attempt >= self.max {
            return Err(StoreError::RetriesExhausted {
                path: self.wire.clone(),
                attempts: self.max,
                last: self
                    .last
                    .take()
                    .map_or_else(|| "no error recorded".into(), |e| e.to_string()),
            });
        }
        self.attempt += 1;
        if self.attempt > 1 {
            stats.retries += 1;
            stats.backoff_ms_total += retry.backoff_ms(connection_id, &self.key, self.attempt - 1);
        }
        Ok(())
    }

    /// Store-wide admission: account the pacing charge, or fail fast
    /// (consuming this attempt and accounting the breaker's retry-after)
    /// while the breaker is open. On admission the request counter is
    /// bumped and the resume offset fixed.
    pub(crate) fn admit(
        &mut self,
        admission: Option<&AdmissionController>,
        stats: &mut CrawlStats,
    ) -> AdmitVerdict {
        if let Some(ctrl) = admission {
            match ctrl.admit() {
                Admission::Granted { throttle_ms } => {
                    if throttle_ms > 0 {
                        stats.throttled += 1;
                        stats.throttle_ms_total += throttle_ms;
                    }
                }
                Admission::Rejected { retry_after_ms } => {
                    stats.breaker_rejections += 1;
                    stats.backoff_ms_total += retry_after_ms;
                    self.last = Some(StoreError::CircuitOpen {
                        path: self.key.clone(),
                    });
                    return AdmitVerdict::Rejected;
                }
            }
        }
        stats.requests += 1;
        self.range_start = if self.prefix.is_empty() {
            None
        } else {
            Some(self.prefix.len())
        };
        AdmitVerdict::Proceed {
            range_start: self.range_start,
        }
    }

    /// Digest one attempt's transport outcome (a CRC-verified frame, a
    /// truncation, or an error) into a verdict.
    pub(crate) fn absorb(
        &mut self,
        result: Result<ReadOutcome>,
        admission: Option<&AdmissionController>,
        stats: &mut CrawlStats,
    ) -> AttemptVerdict {
        let (err, invalidate) = match result {
            Ok(ReadOutcome::Complete(resp)) if resp.status == 200 => {
                if let Some(ctrl) = admission {
                    ctrl.report_success();
                }
                match finish_body(stats, resp, &mut self.prefix, &self.wire, self.range_start) {
                    Ok(resp) => return AttemptVerdict::Done(resp),
                    // Stitched-body checksum mismatch: the prefix was
                    // poisoned; retry from byte 0.
                    Err(e) => (e, false),
                }
            }
            Ok(ReadOutcome::Complete(resp))
                if resp.status == 429 || (500..=599).contains(&resp.status) =>
            {
                if let Some(ctrl) = admission {
                    ctrl.report_transient();
                }
                // The frame itself was well-formed, so the stream is
                // still in sync: keep the connection (and any resume
                // prefix) for the retry.
                (
                    StoreError::Transient {
                        status: resp.status,
                        path: self.wire.clone(),
                    },
                    false,
                )
            }
            Ok(ReadOutcome::Complete(resp)) => {
                // Permanent status (404/400/…): not retriable.
                return AttemptVerdict::Fatal {
                    error: StoreError::NotFound(format!(
                        "{} -> {} ({})",
                        self.wire,
                        resp.status,
                        resp.text()
                    )),
                    invalidate: false,
                };
            }
            Ok(ReadOutcome::Truncated {
                status,
                headers,
                received,
                expected_len,
            }) => {
                // Mid-body cut: the stream is desynced either way. An
                // echoed range means this body is the suffix from that
                // offset, and its length counts only the suffix.
                let resumed_at = self.range_start.filter(|&start| {
                    headers.iter().any(|(k, v)| {
                        k == RANGE_START_HEADER && v.parse::<usize>().ok() == Some(start)
                    })
                });
                if self.resumable && status == 200 && !received.is_empty() {
                    if resumed_at.is_some() {
                        // The suffix continues our prefix.
                        self.prefix.reserve_exact(received.len());
                        self.prefix.extend_from_slice(&received);
                    } else {
                        // A fresh body from byte 0 (first attempt, or
                        // the server declined the range).
                        self.prefix = received;
                    }
                }
                (
                    StoreError::Protocol(format!(
                        "response truncated mid-body ({} of {} bytes held)",
                        self.prefix.len(),
                        resumed_at.unwrap_or(0) + expected_len
                    )),
                    true,
                )
            }
            // IO, framing or integrity failure: the stream can no longer
            // be trusted to be request-aligned.
            Err(e) => (e, true),
        };
        if !err.is_transient() {
            return AttemptVerdict::Fatal {
                error: err,
                invalidate,
            };
        }
        self.last = Some(err);
        AttemptVerdict::Retry { invalidate }
    }
}

/// Configures and dials a [`Crawler`]. Obtained from
/// [`Crawler::builder`]; every knob has a sensible default.
///
/// ```no_run
/// # use gaugenn_playstore::crawler::{Crawler, RetryPolicy};
/// # fn demo(addr: std::net::SocketAddr) -> gaugenn_playstore::Result<()> {
/// let crawler = Crawler::builder(addr)
///     .retry(RetryPolicy { max_attempts: 6, ..RetryPolicy::default() })
///     .timeouts(std::time::Duration::from_secs(1), std::time::Duration::from_secs(3))
///     .connection_id(3)
///     .build()?;
/// # let _ = crawler; Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CrawlerBuilder {
    endpoint: Endpoint,
    config: CrawlerConfig,
    retry: RetryPolicy,
    connect_timeout: Duration,
    read_timeout: Duration,
    connection_id: u64,
    admission: Option<Arc<AdmissionController>>,
}

impl CrawlerBuilder {
    fn new(endpoint: Endpoint) -> CrawlerBuilder {
        CrawlerBuilder {
            endpoint,
            config: CrawlerConfig::default(),
            retry: RetryPolicy::default(),
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(2),
            connection_id: 0,
            admission: None,
        }
    }

    /// Identity headers and page size.
    pub fn config(mut self, config: CrawlerConfig) -> CrawlerBuilder {
        self.config = config;
        self
    }

    /// Retry/backoff policy for every store request.
    pub fn retry(mut self, retry: RetryPolicy) -> CrawlerBuilder {
        self.retry = retry;
        self
    }

    /// Connect and read timeouts.
    pub fn timeouts(mut self, connect: Duration, read: Duration) -> CrawlerBuilder {
        self.connect_timeout = connect;
        self.read_timeout = read;
        self
    }

    /// Connection id: announced to the server on every request, folded
    /// into the backoff jitter, and the key of this connection's chaos
    /// fault schedule. Pool workers get distinct ids; the default is 0.
    pub fn connection_id(mut self, id: u64) -> CrawlerBuilder {
        self.connection_id = id;
        self
    }

    /// Store-wide admission controller (rate limit + circuit breaker)
    /// shared with the other workers of a pool.
    pub fn admission(mut self, controller: Arc<AdmissionController>) -> CrawlerBuilder {
        self.admission = Some(controller);
        self
    }

    /// Dial the store and hand back a ready crawler.
    pub fn build(self) -> Result<Crawler> {
        let mut c = Crawler {
            config: self.config,
            retry: self.retry,
            endpoint: self.endpoint,
            connect_timeout: self.connect_timeout,
            read_timeout: self.read_timeout,
            connection_id: self.connection_id,
            admission: self.admission,
            conn: None,
            stats: CrawlStats::default(),
        };
        c.conn = Some(c.dial()?);
        Ok(c)
    }
}

/// The crawler: a keep-alive connection to the store that re-dials and
/// retries its way through transient failures.
pub struct Crawler {
    config: CrawlerConfig,
    retry: RetryPolicy,
    endpoint: Endpoint,
    connect_timeout: Duration,
    read_timeout: Duration,
    connection_id: u64,
    admission: Option<Arc<AdmissionController>>,
    conn: Option<Conn>,
    stats: CrawlStats,
}

impl Crawler {
    /// Start configuring a crawler for the TCP store at `addr`.
    pub fn builder(addr: SocketAddr) -> CrawlerBuilder {
        CrawlerBuilder::new(Endpoint::Tcp(addr))
    }

    /// Start configuring a crawler for any [`Endpoint`] — the way to
    /// point a crawler at a sim-reactor store
    /// ([`crate::StoreServer::endpoint`]).
    pub fn builder_at(endpoint: Endpoint) -> CrawlerBuilder {
        CrawlerBuilder::new(endpoint)
    }

    /// Resilience counters so far.
    pub fn stats(&self) -> &CrawlStats {
        &self.stats
    }

    /// This crawler's connection id.
    pub fn connection_id(&self) -> u64 {
        self.connection_id
    }

    /// Dial a fresh keep-alive stream.
    fn dial(&self) -> Result<Conn> {
        let stream = self
            .endpoint
            .dial(self.connect_timeout, self.read_timeout)?;
        Ok(BufReader::new(stream))
    }

    /// Drop the keep-alive stream: after any mid-response error the old
    /// `BufReader` may hold stale bytes, and reading the next response
    /// from it would desync the protocol.
    fn invalidate(&mut self) {
        self.conn = None;
    }

    /// One raw request/response exchange on the current stream. With
    /// `range_start`, asks the server to serve the body from that offset.
    fn exchange(&mut self, wire_path: &str, range_start: Option<usize>) -> Result<ReadOutcome> {
        let conn = match &mut self.conn {
            Some(conn) => conn,
            None => {
                // The first stream is dialled by `build`, so every dial
                // here replaces an invalidated one: a reconnect.
                let fresh = self.dial()?;
                self.stats.reconnects += 1;
                self.conn.insert(fresh)
            }
        };
        let conn_id = self.connection_id.to_string();
        let range = range_start.map(|n| n.to_string());
        let headers = request_headers(&self.config, conn_id.as_str(), range.as_deref());
        write_request(conn.get_mut(), wire_path, &headers)?;
        let outcome = read_response_resumable(conn)?;
        if let ReadOutcome::Complete(resp) = &outcome {
            verify_body_crc(resp, wire_path)?;
        }
        Ok(outcome)
    }

    /// Issue one request with retries; only a 200 comes back `Ok`.
    fn request(&mut self, route: &Route) -> Result<Response> {
        self.request_inner(route, false)
    }

    /// Issue one typed request and return the raw response. The public
    /// face of the request machinery for non-crawl clients (the query
    /// client builds on it): same retry/backoff, integrity checking and
    /// typed errors as the crawl loop.
    pub fn fetch(&mut self, route: &Route) -> Result<Response> {
        self.request(route)
    }

    /// Like [`Crawler::request`] but keeping truncated body prefixes and
    /// resuming them with range requests — for the large binary payloads
    /// (APKs, OBBs, bundles).
    fn request_resumable(&mut self, route: &Route) -> Result<Response> {
        self.request_inner(route, true)
    }

    fn request_inner(&mut self, route: &Route, resumable: bool) -> Result<Response> {
        let mut sm = RequestSm::new(route, resumable, self.retry.max_attempts);
        loop {
            sm.begin_attempt(&self.retry, self.connection_id, &mut self.stats)?;
            let AdmitVerdict::Proceed { range_start } =
                sm.admit(self.admission.as_deref(), &mut self.stats)
            else {
                continue;
            };
            let result = self.exchange(sm.wire_path(), range_start);
            match sm.absorb(result, self.admission.as_deref(), &mut self.stats) {
                AttemptVerdict::Done(resp) => return Ok(resp),
                AttemptVerdict::Fatal { error, invalidate } => {
                    if invalidate {
                        self.invalidate();
                    }
                    return Err(error);
                }
                AttemptVerdict::Retry { invalidate } => {
                    if invalidate {
                        self.invalidate();
                    }
                }
            }
        }
    }

    /// List all store categories.
    pub fn categories(&mut self) -> Result<Vec<String>> {
        let resp = self.request(&Route::Categories)?;
        Ok(parse_listing(&resp.text()))
    }

    /// List the top apps of a category (paged until the 500 cap or the
    /// category runs out).
    pub fn list_category(&mut self, category: &str) -> Result<Vec<String>> {
        let mut out = Vec::new();
        let mut start = 0usize;
        loop {
            let route = Route::Category {
                name: category.to_string(),
                start,
                count: self.config.page_size,
            };
            let resp = self.request(&route)?;
            let page = parse_listing(&resp.text());
            if page.is_empty() {
                break;
            }
            start += page.len();
            out.extend(page);
            if out.len() >= crate::server::MAX_PER_CATEGORY {
                out.truncate(crate::server::MAX_PER_CATEGORY);
                break;
            }
        }
        Ok(out)
    }

    /// Fetch and parse one app's metadata. Malformed numeric fields are a
    /// typed [`StoreError::Protocol`] — never silently coerced to zero.
    pub fn app_meta(&mut self, package: &str) -> Result<AppMeta> {
        let resp = self.request(&Route::App {
            package: package.to_string(),
        })?;
        parse_app_meta(&resp.text())
    }

    /// Download the base APK (range-resuming truncated transfers).
    pub fn download_apk(&mut self, package: &str) -> Result<Vec<u8>> {
        Ok(self
            .request_resumable(&Route::Apk {
                package: package.to_string(),
            })?
            .body)
    }

    /// Download everything for one app, honouring its OBB/bundle flags,
    /// and tag a failure with its stage so drop-outs can be attributed
    /// (meta vs apk vs obb vs bundle).
    fn crawl_app_staged(
        &mut self,
        package: &str,
    ) -> std::result::Result<CrawledApp, (CrawlStage, StoreError)> {
        let meta = self
            .app_meta(package)
            .map_err(|e| (CrawlStage::Meta, e))?;
        let apk = self
            .download_apk(package)
            .map_err(|e| (CrawlStage::Apk, e))?;
        let mut obbs = Vec::new();
        if meta.has_obb {
            let resp = self
                .request_resumable(&Route::Obb {
                    package: package.to_string(),
                })
                .map_err(|e| (CrawlStage::Obb, e))?;
            obbs.push(obb_entry(resp, package, meta.version_code));
        }
        let bundle = if meta.has_bundle {
            Some(
                self.request_resumable(&Route::Bundle {
                    package: package.to_string(),
                })
                .map_err(|e| (CrawlStage::Bundle, e))?
                .body,
            )
        } else {
            None
        };
        Ok(CrawledApp {
            meta,
            apk,
            obbs,
            bundle,
        })
    }

    /// Crawl listed apps end to end, in listing order: metadata, APK,
    /// OBB and bundle per package. Failures become [`DropOut`] records,
    /// not errors.
    pub fn crawl_listed(&mut self, packages: &[String]) -> (Vec<CrawledApp>, Vec<DropOut>) {
        let mut apps = Vec::new();
        let mut dropouts = Vec::new();
        for pkg in packages {
            match self.crawl_app_staged(pkg) {
                Ok(app) => apps.push(app),
                Err((stage, e)) => dropouts.push(DropOut {
                    package: pkg.clone(),
                    stage,
                    error: e.to_string(),
                }),
            }
        }
        (apps, dropouts)
    }

    /// Full store sweep: each category's listing, then its listed apps.
    /// Apps (and category listings) that keep failing after retries
    /// become [`DropOut`] records instead of aborting the sweep; only a
    /// failure to enumerate the categories themselves is fatal.
    pub fn crawl_all(&mut self) -> Result<CrawlOutcome> {
        let mut apps = Vec::new();
        let mut dropouts = Vec::new();
        for cat in self.categories()? {
            match self.list_category(&cat) {
                Ok(packages) => {
                    let (landed, lost) = self.crawl_listed(&packages);
                    apps.extend(landed);
                    dropouts.extend(lost);
                }
                Err(e) => dropouts.push(DropOut::listing(&cat, &e)),
            }
        }
        Ok(CrawlOutcome {
            apps,
            dropouts,
            stats: self.stats.clone(),
        })
    }
}

/// An app's place in corpus order: its category's index in the store's
/// category list, then its position in that category's listing, packed
/// into one sortable number. Sorting a pooled crawl's apps by it rebuilds
/// [`Crawler::crawl_all`]'s order at any worker count.
pub fn corpus_seq(category: usize, position: usize) -> u64 {
    ((category as u64) << 32) | position as u64
}

/// Where a pooled crawl hands each finished app: called with the app's
/// [`corpus_seq`] on whichever worker thread completes it, in completion
/// order.
pub type AppSink<'a> = &'a (dyn Fn(u64, CrawledApp) + Sync);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{FaultPlan, FaultPlanConfig};
    use crate::corpus::{generate, CorpusScale, Snapshot};
    use crate::server::StoreServer;

    fn start_tiny() -> StoreServer {
        StoreServer::start(generate(CorpusScale::Tiny, Snapshot::Y2021, 7)).unwrap()
    }

    fn crawler(server: &StoreServer) -> Crawler {
        Crawler::builder(server.addr()).build().unwrap()
    }

    #[test]
    fn full_crawl_covers_corpus() {
        let server = start_tiny();
        let mut crawler = crawler(&server);
        let outcome = crawler.crawl_all().unwrap();
        assert_eq!(outcome.apps.len(), 52, "tiny 2021 corpus is 52 apps");
        assert!(outcome.dropouts.is_empty(), "{:?}", outcome.dropouts);
        assert_eq!(outcome.stats.retries, 0, "clean store needs no retries");
        // Every APK parses and matches its metadata.
        for app in &outcome.apps {
            let parsed = gaugenn_apk::Apk::parse(&app.apk).unwrap();
            assert_eq!(parsed.package(), app.meta.package);
        }
    }

    #[test]
    fn paging_collects_whole_categories() {
        let server = start_tiny();
        let cfg = CrawlerConfig {
            page_size: 2, // force multiple pages
            ..CrawlerConfig::default()
        };
        let mut crawler = Crawler::builder(server.addr()).config(cfg).build().unwrap();
        let cats = crawler.categories().unwrap();
        assert!(cats.len() >= 30);
        let all: usize = cats
            .iter()
            .map(|c| crawler.list_category(c).unwrap().len())
            .sum();
        assert_eq!(all, 52);
    }

    #[test]
    fn obbs_and_bundles_fetched_when_advertised() {
        let server = start_tiny();
        let mut crawler = crawler(&server);
        let outcome = crawler.crawl_all().unwrap();
        for app in &outcome.apps {
            if app.meta.has_obb {
                assert_eq!(app.obbs.len(), 1);
                let (name, bytes) = &app.obbs[0];
                let obb = gaugenn_apk::obb::Obb::parse(name, bytes).unwrap();
                assert_eq!(obb.package, app.meta.package);
            } else {
                assert!(app.obbs.is_empty());
            }
            if app.meta.has_bundle {
                let b = gaugenn_apk::bundle::Bundle::parse(app.bundle.as_ref().unwrap()).unwrap();
                assert!(!b.packs.is_empty());
            }
        }
    }

    #[test]
    fn missing_package_is_error() {
        let server = start_tiny();
        let mut crawler = crawler(&server);
        assert!(crawler.app_meta("com.not.there").is_err());
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let p = RetryPolicy::default();
        for retry in 1..=6 {
            let a = p.backoff_ms(0, "/apk/com.x", retry);
            let b = p.backoff_ms(0, "/apk/com.x", retry);
            assert_eq!(a, b, "same (conn, path, retry) draws the same jitter");
            assert!(a <= p.max_backoff_ms, "{a} > cap at retry {retry}");
        }
        // Different paths draw different jitter (with overwhelming odds).
        let spread: std::collections::BTreeSet<u64> = (0..32)
            .map(|i| p.backoff_ms(0, &format!("/apk/com.p{i}"), 3))
            .collect();
        assert!(spread.len() > 1, "jitter should vary by path");
    }

    #[test]
    fn backoff_jitter_varies_by_connection() {
        // The PR 1 bug: jitter keyed only on the path made every worker
        // retry the same package on an identical schedule. With the
        // connection id folded in, the draws must decorrelate.
        let p = RetryPolicy::default();
        let spread: std::collections::BTreeSet<u64> = (0..32)
            .map(|conn| p.backoff_ms(conn, "/apk/com.x", 3))
            .collect();
        assert!(spread.len() > 1, "jitter must vary by connection id");
        // And stay reproducible per connection.
        assert_eq!(
            p.backoff_ms(7, "/apk/com.x", 3),
            p.backoff_ms(7, "/apk/com.x", 3)
        );
    }

    #[test]
    fn transient_statuses_are_retried_to_success() {
        let corpus = generate(CorpusScale::Tiny, Snapshot::Y2021, 7);
        let server = StoreServer::start_with_chaos(
            corpus,
            FaultPlan::new(FaultPlanConfig {
                fault_permille: 1000,
                kinds: vec![crate::chaos::FaultKind::TransientStatus],
                max_faults_per_route: 2,
                ..FaultPlanConfig::default()
            }),
        )
        .unwrap();
        let mut crawler = crawler(&server);
        let cats = crawler.categories().unwrap();
        assert!(cats.len() >= 30);
        assert!(crawler.stats().retries >= 2, "{:?}", crawler.stats());
    }

    #[test]
    fn corrupted_payload_detected_and_refetched() {
        let corpus = generate(CorpusScale::Tiny, Snapshot::Y2021, 7);
        let server = StoreServer::start_with_chaos(
            corpus,
            FaultPlan::new(FaultPlanConfig {
                fault_permille: 1000,
                kinds: vec![crate::chaos::FaultKind::Corrupt],
                max_faults_per_route: 1,
                ..FaultPlanConfig::default()
            }),
        )
        .unwrap();
        let mut crawler = crawler(&server);
        // First attempt is corrupted (checksum catches it), retry is clean.
        let cats = crawler.categories().unwrap();
        assert!(cats.len() >= 30);
        assert!(crawler.stats().retries >= 1);
    }

    #[test]
    fn truncated_apk_resumes_with_a_range_request() {
        // Truncate-only chaos: the first APK attempt is cut mid-body; the
        // retry must fetch only the remainder and stitch, not restart.
        let corpus = generate(CorpusScale::Tiny, Snapshot::Y2021, 7);
        let pkg = corpus.apps[0].package.clone();
        let clean_server = StoreServer::start(corpus.clone()).unwrap();
        let mut clean = Crawler::builder(clean_server.addr()).build().unwrap();
        let want = clean.download_apk(&pkg).unwrap();

        let server = StoreServer::start_with_chaos(
            corpus,
            FaultPlan::new(FaultPlanConfig {
                fault_permille: 1000,
                kinds: vec![crate::chaos::FaultKind::Truncate],
                max_faults_per_route: 1,
                ..FaultPlanConfig::default()
            }),
        )
        .unwrap();
        let mut c = Crawler::builder(server.addr()).build().unwrap();
        let got = c.download_apk(&pkg).unwrap();
        assert_eq!(got, want, "stitched body must be byte-identical");
        assert!(
            c.stats().range_resumes >= 1,
            "resume must go through the range path: {:?}",
            c.stats()
        );
        assert_eq!(got.capacity(), got.len(), "stitched body carries no slack");
    }

    #[test]
    fn a_resumed_truncation_counts_the_whole_body() {
        // A cut at 30 of 100 bytes, then a resume echoed at 30 whose
        // Content-Length (70) covers only the suffix, cut after 20: the
        // error counts 50 held of the whole body's 100.
        let route = Route::Apk {
            package: "com.x".into(),
        };
        let mut sm = RequestSm::new(&route, true, 4);
        let mut stats = CrawlStats::default();
        let mut cut = |headers: Vec<(String, String)>, received: usize, expected_len: usize| {
            sm.begin_attempt(&RetryPolicy::default(), 0, &mut stats)
                .unwrap();
            assert!(matches!(
                sm.admit(None, &mut stats),
                AdmitVerdict::Proceed { .. }
            ));
            let outcome = ReadOutcome::Truncated {
                status: 200,
                headers,
                received: vec![7; received],
                expected_len,
            };
            assert!(matches!(
                sm.absorb(Ok(outcome), None, &mut stats),
                AttemptVerdict::Retry { invalidate: true }
            ));
            sm.last.as_ref().unwrap().to_string()
        };
        let first = cut(Vec::new(), 30, 100);
        assert!(first.ends_with("(30 of 100 bytes held)"), "{first}");
        let echoed = vec![(RANGE_START_HEADER.to_string(), "30".to_string())];
        let second = cut(echoed, 20, 70);
        assert!(second.ends_with("(50 of 100 bytes held)"), "{second}");
    }

    #[test]
    fn admission_counters_flow_into_stats() {
        use crate::admission::{AdmissionConfig, AdmissionController};
        let server = start_tiny();
        let ctrl = Arc::new(AdmissionController::new(AdmissionConfig {
            burst: 3,
            throttle_ms: 5,
            ..AdmissionConfig::default()
        }));
        let mut c = Crawler::builder(server.addr())
            .admission(ctrl.clone())
            .build()
            .unwrap();
        let cats = crawler_categories_n(&mut c, 10);
        assert!(cats >= 10);
        let stats = c.stats();
        assert!(stats.throttled >= 7, "{stats:?}");
        assert_eq!(stats.throttle_ms_total, stats.throttled * 5);
        assert_eq!(ctrl.stats().throttled, stats.throttled);
    }

    fn crawler_categories_n(c: &mut Crawler, n: usize) -> usize {
        let mut total = 0;
        for _ in 0..n {
            total += usize::from(!c.categories().unwrap().is_empty());
        }
        total
    }
}
