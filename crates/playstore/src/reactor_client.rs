//! Non-blocking client connection state machines over the reactor.
//!
//! The synchronous [`crate::crawler::Crawler`] parks its thread on one
//! connection: every read blocks until the store answers, so it holds
//! exactly one request in flight. This module is the client-side mirror
//! of the server's `ConnSm`/`Served` split ([`crate::reactor`]): each
//! connection is a [`ClientSm`] lane whose `LaneState` owns the
//! request in flight (the shared [`crate::crawler::RequestSm`] retry
//! core) together with the transport carrying it, beside a reused write
//! buffer and an accumulating read buffer, and a single driver thread
//! ([`drive_lanes`]) multiplexes hundreds of lanes over one readiness
//! loop (kernel epoll for TCP endpoints, the seeded deterministic
//! [`mio::SimReactor`] for in-process sim endpoints).
//!
//! Determinism and parity both fall out of sharing the exact same
//! building blocks as the blocking path: requests are framed by
//! [`crate::proto::write_request`] with the identical header set,
//! responses accumulate until [`crate::proto::response_frame_complete`]
//! says the buffer is decidable and are then resolved by
//! [`crate::proto::finish_response_frame`], which runs the blocking
//! reader's own head parser over the buffer (same outcomes, same error
//! strings, byte for byte), and every retry, backoff draw, admission
//! charge and counter bump goes through the one shared `RequestSm`. A
//! lane therefore produces the same [`CrawlStats`] on the same
//! `(connection id, route)` history as a blocking crawler would — which
//! is what keeps the single-connection `Crawler` the reference every
//! pooled crawl must byte-match.
//!
//! Nothing in a lane waits except on I/O: backoff, pacing charges and
//! breaker retry-afters are accounted on the logical clock exactly as
//! the blocking path does, so attempt prep, admission and framing run
//! straight through inside one pump, and the loop's
//! [`mio::TimerWheel`] holds only connect and read deadlines.

use crate::admission::AdmissionController;
use crate::crawler::{
    corpus_seq, obb_entry, parse_app_meta, request_headers, verify_body_crc, AdmitVerdict, AppMeta,
    AppSink, AttemptVerdict, CrawlStage, CrawlStats, CrawledApp, CrawlerConfig, DropOut, RequestSm,
    RetryPolicy,
};
use crate::net::{Endpoint, SimClientHandle};
use crate::reactor::raw_fd;
use crate::proto::{
    finish_response_frame, response_frame_complete, write_request, ReadOutcome, Response,
};
use crate::route::Route;
use crate::{Result, StoreError};
use mio::{Events, Interest, Parker, Reactor, TimerWheel, Token};
use std::collections::VecDeque;
use std::io;
use std::sync::Arc;
use std::time::Duration;

/// How many bytes one readiness-driven read pulls at a time (matches the
/// server-side `ConnSm` chunk size).
const READ_CHUNK: usize = 16 * 1024;

/// Consecutive zero-progress lockstep rounds tolerated before the driver
/// declares a deadlock (no events, no timers, nothing served).
const LOCKSTEP_STUCK_LIMIT: u32 = 3;

// ---------------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------------

/// The request plan one lane works through. The driver calls
/// [`LaneJob::next_request`] whenever the lane is free, issues the route
/// through the full retry/admission machinery, and hands the final
/// outcome (a 200 response, or the typed error after every retry) to
/// [`LaneJob::on_result`] — exactly once per issued request, in issue
/// order.
pub trait LaneJob {
    /// The next route to fetch, with its resumability flag (`true` keeps
    /// truncated prefixes and range-resumes them — the large binary
    /// payloads). `None` ends the lane.
    fn next_request(&mut self) -> Option<(Route, bool)>;

    /// Deliver the outcome of the most recently issued request.
    fn on_result(&mut self, result: Result<Response>);
}

/// The simplest job: replay a fixed route list in order and keep every
/// outcome. What the lockstep and in-flight scaling tests drive.
#[derive(Debug, Default)]
pub struct RouteListJob {
    routes: Vec<(Route, bool)>,
    next: usize,
    results: Vec<Result<Response>>,
}

impl RouteListJob {
    /// A job that fetches `routes` in order.
    pub fn new(routes: Vec<(Route, bool)>) -> RouteListJob {
        RouteListJob {
            routes,
            next: 0,
            results: Vec::new(),
        }
    }

    /// The outcomes, in issue order (one per planned route).
    pub fn into_results(self) -> Vec<Result<Response>> {
        self.results
    }
}

impl LaneJob for RouteListJob {
    fn next_request(&mut self) -> Option<(Route, bool)> {
        let r = self.routes.get(self.next).cloned()?;
        self.next += 1;
        Some(r)
    }

    fn on_result(&mut self, result: Result<Response>) {
        self.results.push(result);
    }
}

/// One category's crawl output, tagged with its global plan index so the
/// pool can merge shards from many lanes back into plan order. The apps
/// themselves went to the lane's sink as they landed; the shard keeps
/// their count and bytes.
pub(crate) struct LaneShard {
    /// Position of this category in the pool's global plan.
    pub(crate) index: usize,
    /// Apps crawled successfully.
    pub(crate) apps: usize,
    /// Container bytes (APK + OBB + bundle) of those apps.
    pub(crate) bytes: u64,
    /// Listed apps that failed permanently, or, for a category the pool's
    /// bootstrap could not list, that listing's one drop-out.
    pub(crate) dropouts: Vec<DropOut>,
}

/// Where a [`CrawlLaneJob`] is in its walk. `Await*` variants mark an
/// outstanding request (only [`LaneJob::on_result`] may run); the rest
/// are actions [`LaneJob::next_request`] steps through.
enum CrawlJobState {
    /// Advance to the next listed package (its metadata request),
    /// closing the open category once its listing is walked.
    NextApp,
    /// A metadata request is outstanding.
    AwaitMeta,
    /// Emit the APK download.
    PendingApk {
        meta: AppMeta,
    },
    /// The APK download is outstanding.
    AwaitApk {
        meta: AppMeta,
    },
    /// Emit the OBB download.
    PendingObb {
        meta: AppMeta,
        apk: Vec<u8>,
    },
    /// The OBB download is outstanding.
    AwaitObb {
        meta: AppMeta,
        apk: Vec<u8>,
    },
    /// Emit the bundle download.
    PendingBundle {
        meta: AppMeta,
        apk: Vec<u8>,
        obbs: Vec<(String, Vec<u8>)>,
    },
    /// The bundle download is outstanding.
    AwaitBundle {
        meta: AppMeta,
        apk: Vec<u8>,
        obbs: Vec<(String, Vec<u8>)>,
    },
    /// Every assigned category crawled.
    Done,
}

/// A crawl plan for one lane: walk the listed apps of the assigned
/// categories exactly the way [`crate::crawler::Crawler::crawl_listed`]
/// does — metadata → APK → OBB → bundle per listed app, permanent
/// failures recorded as [`DropOut`]s — but expressed as a pull-driven
/// job so the request sequence (and therefore every counter and fault
/// draw) is identical to the blocking walk on the same connection id.
/// The listings come from the pool's bootstrap, so a lane never pages
/// one. Each finished app goes straight to the sink.
pub(crate) struct CrawlLaneJob<'a> {
    /// `(global plan index, listed packages)` of the categories still to
    /// walk, in crawl order; the front one is open.
    cats: VecDeque<(usize, Vec<String>)>,
    sink: AppSink<'a>,
    state: CrawlJobState,
    /// Cursor into the open category's packages.
    pi: usize,
    /// The open category's app count, bytes and drop-outs, pushed as
    /// its shard when the walk leaves it.
    apps: usize,
    bytes: u64,
    dropouts: Vec<DropOut>,
    shards: Vec<LaneShard>,
}

impl<'a> CrawlLaneJob<'a> {
    pub(crate) fn new(cats: Vec<(usize, Vec<String>)>, sink: AppSink<'a>) -> CrawlLaneJob<'a> {
        CrawlLaneJob {
            cats: cats.into(),
            sink,
            state: CrawlJobState::NextApp,
            pi: 0,
            apps: 0,
            bytes: 0,
            dropouts: Vec::new(),
            shards: Vec::new(),
        }
    }

    /// The finished shards, one per assigned category, in crawl order.
    pub(crate) fn into_shards(self) -> Vec<LaneShard> {
        self.shards
    }

    fn finish_app(&mut self, app: CrawledApp) {
        self.apps += 1;
        self.bytes += app.bytes();
        (self.sink)(corpus_seq(self.cats[0].0, self.pi), app);
        self.pi += 1;
        self.state = CrawlJobState::NextApp;
    }

    fn app_dropout(&mut self, stage: CrawlStage, error: &StoreError) {
        self.dropouts.push(DropOut {
            package: self.cats[0].1[self.pi].clone(),
            stage,
            error: error.to_string(),
        });
        self.pi += 1;
        self.state = CrawlJobState::NextApp;
    }
}

impl LaneJob for CrawlLaneJob<'_> {
    fn next_request(&mut self) -> Option<(Route, bool)> {
        loop {
            match std::mem::replace(&mut self.state, CrawlJobState::Done) {
                CrawlJobState::NextApp => {
                    let Some((index, pkgs)) = self.cats.front() else {
                        self.state = CrawlJobState::Done;
                        return None;
                    };
                    if self.pi == pkgs.len() {
                        // Leave the walked category: push its shard and
                        // drop its listing.
                        self.shards.push(LaneShard {
                            index: *index,
                            apps: std::mem::take(&mut self.apps),
                            bytes: std::mem::take(&mut self.bytes),
                            dropouts: std::mem::take(&mut self.dropouts),
                        });
                        self.cats.pop_front();
                        self.pi = 0;
                        self.state = CrawlJobState::NextApp;
                        continue;
                    }
                    let pkg = pkgs[self.pi].clone();
                    self.state = CrawlJobState::AwaitMeta;
                    return Some((Route::App { package: pkg }, false));
                }
                CrawlJobState::PendingApk { meta } => {
                    let route = Route::Apk {
                        package: meta.package.clone(),
                    };
                    self.state = CrawlJobState::AwaitApk { meta };
                    return Some((route, true));
                }
                CrawlJobState::PendingObb { meta, apk } => {
                    let route = Route::Obb {
                        package: meta.package.clone(),
                    };
                    self.state = CrawlJobState::AwaitObb { meta, apk };
                    return Some((route, true));
                }
                CrawlJobState::PendingBundle { meta, apk, obbs } => {
                    let route = Route::Bundle {
                        package: meta.package.clone(),
                    };
                    self.state = CrawlJobState::AwaitBundle { meta, apk, obbs };
                    return Some((route, true));
                }
                CrawlJobState::Done => {
                    self.state = CrawlJobState::Done;
                    return None;
                }
                _ => unreachable!("next_request called while a request is outstanding"),
            }
        }
    }

    fn on_result(&mut self, result: Result<Response>) {
        match std::mem::replace(&mut self.state, CrawlJobState::Done) {
            CrawlJobState::AwaitMeta => match result {
                Ok(resp) => match parse_app_meta(&resp.text()) {
                    Ok(meta) => self.state = CrawlJobState::PendingApk { meta },
                    Err(e) => self.app_dropout(CrawlStage::Meta, &e),
                },
                Err(e) => self.app_dropout(CrawlStage::Meta, &e),
            },
            CrawlJobState::AwaitApk { meta } => match result {
                Ok(resp) => {
                    let apk = resp.body;
                    if meta.has_obb {
                        self.state = CrawlJobState::PendingObb { meta, apk };
                    } else if meta.has_bundle {
                        self.state = CrawlJobState::PendingBundle {
                            meta,
                            apk,
                            obbs: Vec::new(),
                        };
                    } else {
                        self.finish_app(CrawledApp {
                            meta,
                            apk,
                            obbs: Vec::new(),
                            bundle: None,
                        });
                    }
                }
                Err(e) => self.app_dropout(CrawlStage::Apk, &e),
            },
            CrawlJobState::AwaitObb { meta, apk } => match result {
                Ok(resp) => {
                    let obbs = vec![obb_entry(resp, &meta.package, meta.version_code)];
                    if meta.has_bundle {
                        self.state = CrawlJobState::PendingBundle { meta, apk, obbs };
                    } else {
                        self.finish_app(CrawledApp {
                            meta,
                            apk,
                            obbs,
                            bundle: None,
                        });
                    }
                }
                Err(e) => self.app_dropout(CrawlStage::Obb, &e),
            },
            CrawlJobState::AwaitBundle { meta, apk, obbs } => match result {
                Ok(resp) => self.finish_app(CrawledApp {
                    meta,
                    apk,
                    obbs,
                    bundle: Some(resp.body),
                }),
                Err(e) => self.app_dropout(CrawlStage::Bundle, &e),
            },
            _ => unreachable!("on_result delivered with no request outstanding"),
        }
    }
}

// ---------------------------------------------------------------------------
// The lane state machine
// ---------------------------------------------------------------------------

/// Non-blocking transport half of one lane.
enum ClientIo {
    /// A kernel TCP socket in non-blocking mode.
    Tcp(std::net::TcpStream),
    /// An in-process sim pipe pair.
    Sim(SimClientHandle),
}

impl ClientIo {
    fn try_read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            ClientIo::Tcp(s) => io::Read::read(s, buf),
            ClientIo::Sim(h) => h.try_read(buf),
        }
    }

    fn try_write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            ClientIo::Tcp(s) => io::Write::write(s, buf),
            ClientIo::Sim(h) => h.try_write(buf),
        }
    }

    fn shutdown(&mut self) {
        match self {
            ClientIo::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            ClientIo::Sim(h) => h.close(),
        }
    }

    /// How a non-blocking connect ended: the TCP socket's pending error,
    /// drained once the reactor first reports it writable. A sim pipe is
    /// connected the moment it is created.
    fn connect_result(&self) -> io::Result<()> {
        match self {
            ClientIo::Tcp(s) => mio::take_socket_error(raw_fd(s)),
            ClientIo::Sim(_) => Ok(()),
        }
    }
}

/// One attempt on the wire: the request's retry core and the transport
/// carrying it.
struct Flight {
    sm: RequestSm,
    io: ClientIo,
}

/// Where a lane is between driver wake-ups. The in-flight variants own
/// the request they serve and its transport, so a lane can neither read
/// without a request nor write without a connection.
enum LaneState {
    /// No request outstanding: holds the kept-alive transport, if any.
    /// A lane starts here and passes through it between requests; a
    /// pump never parks it here.
    Idle(Option<ClientIo>),
    /// TCP connect in flight; the reactor reports writability when the
    /// handshake settles.
    Connecting(Flight),
    /// Request frame partially written; waiting for send-buffer room.
    Writing(Flight),
    /// Accumulating the response frame; waiting for bytes.
    Reading(Flight),
    /// The job returned `None`; the lane is done.
    Finished,
}

/// One connection lane: a [`LaneJob`] plan, its counters, the
/// [`LaneState`] holding whatever is in flight, and transport buffers
/// reused across requests. The client-side mirror of the server's
/// `ConnSm`.
struct ClientSm<J> {
    job: J,
    connection_id: u64,
    conn_id_str: String,
    retry: RetryPolicy,
    stats: CrawlStats,
    state: LaneState,
    write_buf: Vec<u8>,
    written: usize,
    read_buf: Vec<u8>,
    /// Whether this lane ever connected — the first dial is free, every
    /// later one is a reconnect (parity with the blocking crawler's
    /// eager-dial-then-invalidate accounting).
    connected_before: bool,
    registered: Interest,
}

impl<J: LaneJob> ClientSm<J> {
    fn new(connection_id: u64, retry: RetryPolicy, job: J) -> ClientSm<J> {
        ClientSm {
            job,
            connection_id,
            conn_id_str: connection_id.to_string(),
            retry,
            stats: CrawlStats::default(),
            state: LaneState::Idle(None),
            write_buf: Vec::new(),
            written: 0,
            read_buf: Vec::new(),
            connected_before: false,
            registered: Interest::NONE,
        }
    }

    fn in_flight(&self) -> bool {
        matches!(
            self.state,
            LaneState::Connecting(_) | LaneState::Writing(_) | LaneState::Reading(_)
        )
    }

    /// Move the state out for a pump to transform; the lane reads as
    /// finished until the pump parks it again.
    fn take_state(&mut self) -> LaneState {
        std::mem::replace(&mut self.state, LaneState::Finished)
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// One lane's configuration handed to [`drive_lanes`].
pub struct LaneSpec<J> {
    /// Connection id: announced to the server, folded into backoff
    /// jitter, and the key of this connection's chaos schedule.
    pub connection_id: u64,
    /// Retry/backoff policy (per lane, so lanes can vary jitter seeds).
    pub retry: RetryPolicy,
    /// The request plan.
    pub job: J,
}

/// Shared configuration for a [`drive_lanes`] run.
pub struct LaneOpts {
    /// Identity headers and page size (same set the blocking crawler
    /// sends).
    pub config: CrawlerConfig,
    /// Store-wide admission controller shared across lanes and workers.
    pub admission: Option<Arc<AdmissionController>>,
    /// TCP connect deadline.
    pub connect_timeout: Duration,
    /// TCP per-read deadline (sim lanes run on the logical clock and
    /// need none — a stalled sim peer always ends in a close).
    pub read_timeout: Duration,
    /// Seed for the deterministic sim reactor (event delivery order and
    /// the replay digest).
    pub sim_seed: u64,
}

impl Default for LaneOpts {
    fn default() -> LaneOpts {
        LaneOpts {
            config: CrawlerConfig::default(),
            admission: None,
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(2),
            sim_seed: 0,
        }
    }
}

/// One lane's final state after [`drive_lanes`] returns.
pub struct LaneOutcome<J> {
    /// The lane's connection id.
    pub connection_id: u64,
    /// The finished job (results inside).
    pub job: J,
    /// The lane's resilience counters — same semantics as the blocking
    /// crawler's on the same request history.
    pub stats: CrawlStats,
}

/// What one [`drive_lanes`] run looked like from the loop's seat.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriveReport {
    /// Most lanes simultaneously between connect-start and final byte.
    pub peak_in_flight: usize,
    /// Poll rounds the driver ran.
    pub rounds: u64,
    /// Sim reactor event-stream digest (0 under epoll): same seed + same
    /// schedule ⇒ same digest, the replay-determinism witness.
    pub digest: u64,
}

/// The readiness substrate a lane set runs on.
enum ClientReactor {
    Epoll(mio::EpollReactor),
    Sim(mio::SimReactor),
}

impl ClientReactor {
    fn poll(&mut self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
        match self {
            ClientReactor::Epoll(r) => r.poll(events, timeout),
            ClientReactor::Sim(r) => r.poll(events, timeout),
        }
    }

    fn set_interest(&mut self, token: Token, interest: Interest) -> io::Result<()> {
        match self {
            ClientReactor::Epoll(r) => r.set_interest(token, interest),
            ClientReactor::Sim(r) => r.set_interest(token, interest),
        }
    }

    fn deregister(&mut self, token: Token) -> io::Result<()> {
        match self {
            ClientReactor::Epoll(r) => r.deregister(token),
            ClientReactor::Sim(r) => r.deregister(token),
        }
    }
}

/// Everything a pump needs besides the lane itself. `now` is the loop
/// clock at the start of the round: wall milliseconds under epoll,
/// logical ticks under sim. `started` is the wall clock's origin under
/// epoll.
struct DriverCtx<'a> {
    endpoint: &'a Endpoint,
    reactor: &'a mut ClientReactor,
    wheel: &'a mut TimerWheel,
    opts: &'a LaneOpts,
    client_parker: Option<Arc<Parker>>,
    now: u64,
    started: Option<std::time::Instant>,
}

impl DriverCtx<'_> {
    /// Arm `token` to fire `after_ms` from now. Under epoll "now" is read
    /// afresh, not taken from the round start: a lane job may block (a
    /// consumer's bounded handoff pushing back on the crawl), and a
    /// deadline armed after the block must still grant the full timeout.
    fn arm_after(&mut self, token: Token, after_ms: u64) {
        let now = self
            .started
            .map_or(self.now, |t0| t0.elapsed().as_millis() as u64);
        self.wheel.arm(token, now + after_ms);
    }

    /// (Re-)arm a TCP lane's read deadline; sim lanes run on the logical
    /// clock, where a stalled peer always ends in a close.
    fn arm_read_deadline(&mut self, token: Token) {
        if self.started.is_some() {
            let read_ms = self.opts.read_timeout.as_millis().max(1) as u64;
            self.arm_after(token, read_ms);
        }
    }
}

fn close_io<J>(
    lane: &mut ClientSm<J>,
    ctx: &mut DriverCtx<'_>,
    token: Token,
    io: Option<ClientIo>,
) {
    if let Some(mut io) = io {
        let _ = ctx.reactor.deregister(token);
        io.shutdown();
        lane.registered = Interest::NONE;
    }
}

/// Open the lane's transport. The flag is `true` when a TCP handshake is
/// in flight (the lane parks in [`LaneState::Connecting`] until the
/// reactor reports writability) and `false` when the transport is ready
/// now.
fn open_io<J>(
    lane: &mut ClientSm<J>,
    ctx: &mut DriverCtx<'_>,
    token: Token,
) -> Result<(ClientIo, bool)> {
    if lane.connected_before {
        lane.stats.reconnects += 1;
    } else {
        lane.connected_before = true;
    }
    match (ctx.endpoint, &mut *ctx.reactor) {
        (Endpoint::Tcp(addr), ClientReactor::Epoll(ep)) => {
            let stream = mio::tcp_connect_nonblocking(*addr)?;
            ep.register_fd(raw_fd(&stream), token, Interest::WRITABLE)?;
            lane.registered = Interest::WRITABLE;
            Ok((ClientIo::Tcp(stream), true))
        }
        (Endpoint::Sim(net), ClientReactor::Sim(sr)) => {
            let handle = net.connect_nonblocking();
            if let Some(p) = &ctx.client_parker {
                handle.watch(Arc::clone(p));
            }
            sr.register(token, Arc::new(handle.clone()), Interest::NONE);
            lane.registered = Interest::NONE;
            Ok((ClientIo::Sim(handle), false))
        }
        _ => Err(StoreError::Protocol(
            "lane endpoint does not match the reactor substrate".into(),
        )),
    }
}

/// Resolve one attempt's outcome through the shared retry core, closing
/// `io` when the outcome desynced it. Returns the request when it must
/// be attempted again; otherwise the job has its result.
fn absorb<J: LaneJob>(
    lane: &mut ClientSm<J>,
    ctx: &mut DriverCtx<'_>,
    token: Token,
    mut sm: RequestSm,
    io: &mut Option<ClientIo>,
    result: Result<ReadOutcome>,
) -> Option<RequestSm> {
    ctx.wheel.cancel(token);
    // Release the frame buffer, as the server's `ConnSm::pump` releases
    // its write buffer: a served APK runs to megabytes, and a lane
    // between requests should not hold the largest body it carried.
    lane.read_buf = Vec::new();
    match sm.absorb(result, ctx.opts.admission.as_deref(), &mut lane.stats) {
        AttemptVerdict::Done(resp) => {
            lane.job.on_result(Ok(resp));
            None
        }
        AttemptVerdict::Fatal { error, invalidate } => {
            if invalidate {
                close_io(lane, ctx, token, io.take());
            }
            lane.job.on_result(Err(error));
            None
        }
        AttemptVerdict::Retry { invalidate } => {
            if invalidate {
                close_io(lane, ctx, token, io.take());
            }
            Some(sm)
        }
    }
}

/// Put the next attempt of `sm` on the wire, straight through: begin it
/// (backoff accounting), pass admission, frame the request and dial if
/// the lane holds no transport. Breaker rejections and failed dials
/// consume attempts without reaching the wire. Returns the state the
/// attempt starts in, or [`LaneState::Idle`] once the request resolved
/// without one.
fn attempt<J: LaneJob>(
    lane: &mut ClientSm<J>,
    ctx: &mut DriverCtx<'_>,
    token: Token,
    mut sm: RequestSm,
    mut io: Option<ClientIo>,
) -> LaneState {
    loop {
        if let Err(e) = sm.begin_attempt(&lane.retry, lane.connection_id, &mut lane.stats) {
            lane.job.on_result(Err(e));
            return LaneState::Idle(io);
        }
        let AdmitVerdict::Proceed { range_start } =
            sm.admit(ctx.opts.admission.as_deref(), &mut lane.stats)
        else {
            continue;
        };
        lane.write_buf.clear();
        lane.written = 0;
        let range = range_start.map(|n| n.to_string());
        let headers = request_headers(&ctx.opts.config, &lane.conn_id_str, range.as_deref());
        // Framing into a Vec cannot fail; an error would still go
        // through the retry core rather than panic.
        let opened = match write_request(&mut lane.write_buf, sm.wire_path(), &headers) {
            Ok(()) => match io.take() {
                Some(kept) => Ok((kept, false)),
                None => open_io(lane, ctx, token),
            },
            Err(e) => Err(e),
        };
        match opened {
            Ok((io, true)) => {
                let connect_ms = ctx.opts.connect_timeout.as_millis().max(1) as u64;
                ctx.arm_after(token, connect_ms);
                return LaneState::Connecting(Flight { sm, io });
            }
            Ok((io, false)) => return LaneState::Writing(Flight { sm, io }),
            Err(e) => match absorb(lane, ctx, token, sm, &mut io, Err(e)) {
                Some(retry) => sm = retry,
                None => return LaneState::Idle(io),
            },
        }
    }
}

/// Resolve an attempt that reached the wire and carry on: the lane goes
/// idle (keeping the transport unless the outcome desynced it) or starts
/// the request's next attempt.
fn conclude<J: LaneJob>(
    lane: &mut ClientSm<J>,
    ctx: &mut DriverCtx<'_>,
    token: Token,
    flight: Flight,
    result: Result<ReadOutcome>,
) -> LaneState {
    let mut io = Some(flight.io);
    match absorb(lane, ctx, token, flight.sm, &mut io, result) {
        Some(sm) => attempt(lane, ctx, token, sm, io),
        None => LaneState::Idle(io),
    }
}

/// Finish an accumulated response buffer the way the blocking exchange
/// would have (the shared head parser, then the integrity check) and
/// conclude the attempt.
fn finish_frame<J: LaneJob>(
    lane: &mut ClientSm<J>,
    ctx: &mut DriverCtx<'_>,
    token: Token,
    flight: Flight,
    io_err: Option<io::Error>,
) -> LaneState {
    let result = finish_response_frame(&lane.read_buf, io_err).and_then(|outcome| {
        if let ReadOutcome::Complete(resp) = &outcome {
            verify_body_crc(resp, flight.sm.wire_path())?;
        }
        Ok(outcome)
    });
    conclude(lane, ctx, token, flight, result)
}

/// Push the rest of the request frame: `Ok(true)` once it is all
/// written, `Ok(false)` when the socket would block.
fn write_frame(io: &mut ClientIo, buf: &[u8], written: &mut usize) -> io::Result<bool> {
    while *written < buf.len() {
        match io.try_write(&buf[*written..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write whole buffer",
                ))
            }
            Ok(n) => *written += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Drive one lane from `state` as far as it can go without blocking and
/// park it: in flight on I/O, or finished. The caller settles reactor
/// interest afterwards.
fn pump_lane<J: LaneJob>(
    lane: &mut ClientSm<J>,
    ctx: &mut DriverCtx<'_>,
    token: Token,
    mut state: LaneState,
) {
    loop {
        state = match state {
            LaneState::Idle(io) => match lane.job.next_request() {
                Some((route, resumable)) => {
                    let sm = RequestSm::new(&route, resumable, lane.retry.max_attempts);
                    attempt(lane, ctx, token, sm, io)
                }
                None => {
                    close_io(lane, ctx, token, io);
                    ctx.wheel.cancel(token);
                    LaneState::Finished
                }
            },
            LaneState::Writing(mut flight) => {
                match write_frame(&mut flight.io, &lane.write_buf, &mut lane.written) {
                    Ok(true) => {
                        lane.read_buf.clear();
                        ctx.arm_read_deadline(token);
                        LaneState::Reading(flight)
                    }
                    Ok(false) => {
                        lane.state = LaneState::Writing(flight);
                        return;
                    }
                    Err(e) => conclude(lane, ctx, token, flight, Err(e.into())),
                }
            }
            LaneState::Reading(mut flight) => {
                let io_err = loop {
                    if response_frame_complete(&lane.read_buf) {
                        break None;
                    }
                    let mut chunk = [0u8; READ_CHUNK];
                    match flight.io.try_read(&mut chunk) {
                        Ok(0) => break None,
                        Ok(n) => {
                            lane.read_buf.extend_from_slice(&chunk[..n]);
                            ctx.arm_read_deadline(token);
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            lane.state = LaneState::Reading(flight);
                            return;
                        }
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) => break Some(e),
                    }
                };
                finish_frame(lane, ctx, token, flight, io_err)
            }
            parked @ (LaneState::Connecting(_) | LaneState::Finished) => {
                lane.state = parked;
                return;
            }
        };
    }
}

/// Settle this lane's reactor interest to match its parked state.
fn settle_lane<J>(lane: &mut ClientSm<J>, reactor: &mut ClientReactor, token: Token) {
    let desired = match &lane.state {
        LaneState::Connecting(_) | LaneState::Writing(_) => Interest::WRITABLE,
        LaneState::Reading(_) => Interest::READABLE,
        LaneState::Idle(Some(_)) => Interest::NONE,
        LaneState::Idle(None) | LaneState::Finished => return,
    };
    if desired != lane.registered {
        let _ = reactor.set_interest(token, desired);
        lane.registered = desired;
    }
}

/// A deadline fired for this lane: a connect or read that took too long
/// fails its attempt.
fn on_lane_timer<J: LaneJob>(lane: &mut ClientSm<J>, ctx: &mut DriverCtx<'_>, token: Token) {
    let (flight, what) = match lane.take_state() {
        LaneState::Connecting(flight) => (flight, "connect timed out"),
        LaneState::Reading(flight) => (flight, "client read timed out"),
        other => {
            lane.state = other;
            return;
        }
    };
    let timed_out = io::Error::new(io::ErrorKind::TimedOut, what);
    let state = conclude(lane, ctx, token, flight, Err(timed_out.into()));
    pump_lane(lane, ctx, token, state);
}

/// An I/O event woke this lane: settle the connect handshake if one is
/// in flight, then continue the lane's I/O.
fn on_lane_event<J: LaneJob>(lane: &mut ClientSm<J>, ctx: &mut DriverCtx<'_>, token: Token) {
    let state = match lane.take_state() {
        LaneState::Connecting(flight) => match flight.io.connect_result() {
            Ok(()) => {
                ctx.wheel.cancel(token);
                LaneState::Writing(flight)
            }
            Err(e) => conclude(lane, ctx, token, flight, Err(e.into())),
        },
        other => other,
    };
    pump_lane(lane, ctx, token, state);
}

/// Drive a set of [`ClientSm`] lanes to completion over one readiness
/// loop — the non-blocking replacement for one-thread-per-connection.
///
/// The substrate follows the endpoint: TCP endpoints run on kernel epoll
/// (Linux only; elsewhere the call fails with
/// [`io::ErrorKind::Unsupported`]), sim endpoints on the seeded
/// deterministic [`mio::SimReactor`]. With `server_step` the driver runs
/// in *lockstep* against an in-process steppable sim server: each round
/// first drains the server, then polls the client reactor with a zero
/// timeout — no threads, no wall clock, so the full multi-connection
/// schedule (event order included, witnessed by [`DriveReport::digest`])
/// replays bit-for-bit from the seed. Without it the server runs in its
/// own thread and sim lanes park on a shared [`Parker`] that server
/// writes notify.
///
/// Lanes are pumped eagerly before the first poll, so every lane's first
/// request is on the wire (in flight) before any response is read —
/// one worker really does hold `lanes.len()` concurrent connections.
pub fn drive_lanes<J: LaneJob>(
    endpoint: &Endpoint,
    specs: Vec<LaneSpec<J>>,
    opts: &LaneOpts,
    server_step: Option<&mut dyn FnMut() -> usize>,
) -> Result<(Vec<LaneOutcome<J>>, DriveReport)> {
    let (lanes, report) = run_lanes(endpoint, specs, opts, server_step)?;
    let outcomes = lanes
        .into_iter()
        .map(|l| LaneOutcome {
            connection_id: l.connection_id,
            job: l.job,
            stats: l.stats,
        })
        .collect();
    Ok((outcomes, report))
}

/// [`drive_lanes`], returning the finished lanes themselves.
fn run_lanes<J: LaneJob>(
    endpoint: &Endpoint,
    specs: Vec<LaneSpec<J>>,
    opts: &LaneOpts,
    mut server_step: Option<&mut dyn FnMut() -> usize>,
) -> Result<(Vec<ClientSm<J>>, DriveReport)> {
    let lockstep = server_step.is_some();
    let (mut reactor, client_parker, digest) = match endpoint {
        Endpoint::Tcp(_) => (ClientReactor::Epoll(mio::EpollReactor::new()?), None, None),
        Endpoint::Sim(_) => {
            let parker = Parker::new();
            let sim = mio::SimReactor::with_parker(opts.sim_seed, Arc::clone(&parker));
            let digest = sim.digest_handle();
            (ClientReactor::Sim(sim), Some(parker), Some(digest))
        }
    };
    let tcp = matches!(endpoint, Endpoint::Tcp(_));
    // The loop clock: wall milliseconds under epoll, logical ticks under
    // sim (empty polls jump to the next armed deadline; busy polls tick).
    // gaugelint: deterministic-via(clock) — the lane deadline clock is inherently wall-time under epoll; the deterministic path (sim) uses a logical clock
    let t0 = std::time::Instant::now();
    let mut lanes: Vec<ClientSm<J>> = specs
        .into_iter()
        .map(|s| ClientSm::new(s.connection_id, s.retry, s.job))
        .collect();
    let mut wheel = TimerWheel::new();
    let mut events = Events::new();
    let mut clock: u64 = 0;
    let mut report = DriveReport::default();
    let mut stuck: u32 = 0;
    let mut scratch: Vec<Token> = Vec::new();

    {
        let mut ctx = DriverCtx {
            endpoint,
            reactor: &mut reactor,
            wheel: &mut wheel,
            opts,
            client_parker: client_parker.clone(),
            now: clock,
            started: tcp.then_some(t0),
        };
        for (i, lane) in lanes.iter_mut().enumerate() {
            let state = lane.take_state();
            pump_lane(lane, &mut ctx, Token(i), state);
        }
    }
    for (i, lane) in lanes.iter_mut().enumerate() {
        settle_lane(lane, &mut reactor, Token(i));
    }

    loop {
        let in_flight = lanes.iter().filter(|l| l.in_flight()).count();
        report.peak_in_flight = report.peak_in_flight.max(in_flight);
        if lanes.iter().all(|l| matches!(l.state, LaneState::Finished)) {
            break;
        }

        let mut served = 0usize;
        if let Some(step) = server_step.as_deref_mut() {
            loop {
                let n = step();
                served += n;
                if n == 0 {
                    break;
                }
            }
        }

        let timeout = if lockstep {
            Some(Duration::ZERO)
        } else if tcp {
            let ahead = wheel
                .next_deadline()
                .map(|d| d.saturating_sub(clock))
                .unwrap_or(25);
            Some(Duration::from_millis(ahead.clamp(1, 25)))
        } else {
            Some(Duration::from_millis(2))
        };
        let n = reactor.poll(&mut events, timeout)?;
        report.rounds += 1;

        if tcp {
            clock = t0.elapsed().as_millis() as u64;
        } else if n == 0 {
            if let Some(d) = wheel.next_deadline() {
                clock = clock.max(d);
            }
        } else {
            clock += 1;
        }

        let fired_count;
        {
            let mut ctx = DriverCtx {
                endpoint,
                reactor: &mut reactor,
                wheel: &mut wheel,
                opts,
                client_parker: client_parker.clone(),
                now: clock,
                started: tcp.then_some(t0),
            };
            // Ready I/O first, deadlines second: a lane whose bytes
            // arrived while the loop was held up makes progress (and
            // re-arms its deadline) instead of timing out on a response
            // that is already in its socket buffer.
            scratch.clear();
            scratch.extend(events.iter().map(|ev| ev.token));
            for &token in scratch.iter() {
                if let Some(lane) = lanes.get_mut(token.0) {
                    on_lane_event(lane, &mut ctx, token);
                }
            }
            let fired = ctx.wheel.expire(clock);
            fired_count = fired.len();
            for token in fired {
                if let Some(lane) = lanes.get_mut(token.0) {
                    on_lane_timer(lane, &mut ctx, token);
                }
            }
        }
        for (i, lane) in lanes.iter_mut().enumerate() {
            settle_lane(lane, &mut reactor, Token(i));
        }

        if lockstep && n == 0 && fired_count == 0 && served == 0 {
            stuck += 1;
            if stuck >= LOCKSTEP_STUCK_LIMIT {
                return Err(StoreError::Protocol(
                    "lockstep client reactor deadlocked: lanes pending with no events, timers or server progress"
                        .into(),
                ));
            }
        } else {
            stuck = 0;
        }
    }

    report.digest = digest.map_or(0, |d| d.load(std::sync::atomic::Ordering::SeqCst));
    Ok((lanes, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{FaultPlan, FaultPlanConfig};
    use crate::corpus::{generate, CorpusScale, Snapshot};
    use crate::crawler::Crawler;
    use crate::reactor::ReactorMode;
    use crate::server::{ServerOptions, StoreServer};

    fn sim_server(chaos: Option<FaultPlan>) -> StoreServer {
        StoreServer::start_with(
            generate(CorpusScale::Tiny, Snapshot::Y2021, 7),
            ServerOptions {
                chaos,
                reactor: ReactorMode::Sim,
                ..ServerOptions::default()
            },
        )
        .unwrap()
    }

    fn spec(id: u64, routes: Vec<(Route, bool)>) -> LaneSpec<RouteListJob> {
        LaneSpec {
            connection_id: id,
            retry: RetryPolicy::default(),
            job: RouteListJob::new(routes),
        }
    }

    #[test]
    fn route_list_lanes_match_blocking_fetches() {
        let server = sim_server(None);
        let routes: Vec<(Route, bool)> = vec![
            (Route::Categories, false),
            (
                Route::Category {
                    name: "finance".into(),
                    start: 0,
                    count: 100,
                },
                false,
            ),
            (Route::Categories, false),
        ];
        let specs = (1..=4u64).map(|id| spec(id, routes.clone())).collect();
        let (outcomes, report) =
            drive_lanes(&server.endpoint(), specs, &LaneOpts::default(), None).unwrap();
        assert_eq!(outcomes.len(), 4);
        assert!(report.peak_in_flight >= 1);

        let mut blocking = Crawler::builder_at(server.endpoint())
            .connection_id(1)
            .build()
            .unwrap();
        let want: Vec<Vec<u8>> = routes
            .iter()
            .map(|(r, _)| blocking.fetch(r).unwrap().body)
            .collect();
        for o in outcomes {
            let results = o.job.into_results();
            assert_eq!(results.len(), routes.len());
            for (got, want) in results.iter().zip(&want) {
                assert_eq!(&got.as_ref().unwrap().body, want);
            }
            assert_eq!(o.stats.requests, routes.len() as u64);
            assert_eq!(o.stats.retries, 0);
            assert_eq!(o.stats.reconnects, 0, "keep-alive lanes never re-dial");
        }
    }

    /// The crawl job on a lane must replay the blocking walk exactly:
    /// same apps, same dropouts, same counters, calm or chaotic. A
    /// connection-0 lister hands both the same listings, as the pool's
    /// bootstrap hands them to its lanes.
    fn assert_lane_matches_blocking(chaos: Option<FaultPlanConfig>) {
        let plan = chaos.clone().map(FaultPlan::new);
        let server = sim_server(plan);
        let mut lister = Crawler::builder_at(server.endpoint())
            .connection_id(0)
            .build()
            .unwrap();
        let listed: Vec<(usize, Vec<String>)> = lister
            .categories()
            .unwrap()
            .iter()
            .map(|cat| lister.list_category(cat).unwrap())
            .enumerate()
            .collect();

        let landed = std::sync::Mutex::new(Vec::new());
        let sink = |seq: u64, app: CrawledApp| landed.lock().unwrap().push((seq, app));
        let specs = vec![LaneSpec {
            connection_id: 1,
            retry: RetryPolicy::default(),
            job: CrawlLaneJob::new(listed.clone(), &sink),
        }];
        let (mut outcomes, _) =
            drive_lanes(&server.endpoint(), specs, &LaneOpts::default(), None).unwrap();
        let lane = outcomes.remove(0);
        let shards = lane.job.into_shards();
        let landed = std::mem::take(&mut *landed.lock().unwrap());

        let plan = chaos.map(FaultPlan::new);
        let server2 = sim_server(plan);
        let mut blocking = Crawler::builder_at(server2.endpoint())
            .connection_id(1)
            .build()
            .unwrap();
        let mut want_apps = Vec::new();
        let mut want_drops = Vec::new();
        for (_, packages) in &listed {
            let (a, d) = blocking.crawl_listed(packages);
            want_apps.extend(a);
            want_drops.extend(d);
        }

        // One lane walks its categories in order, so apps land in
        // ascending corpus order.
        assert!(landed.windows(2).all(|w| w[0].0 < w[1].0));
        let got_apps: Vec<_> = landed.into_iter().map(|(_, app)| app).collect();
        let got_drops: Vec<_> = shards.iter().flat_map(|s| s.dropouts.clone()).collect();
        assert_eq!(shards.iter().map(|s| s.apps).sum::<usize>(), want_apps.len());
        assert_eq!(got_apps, want_apps);
        assert_eq!(got_drops, want_drops);
        assert_eq!(&lane.stats, blocking.stats());
    }

    #[test]
    fn crawl_lane_matches_blocking_walk_calm() {
        assert_lane_matches_blocking(None);
    }

    #[test]
    fn crawl_lane_matches_blocking_walk_under_chaos() {
        assert_lane_matches_blocking(Some(FaultPlanConfig {
            seed: 0xC0FFEE,
            fault_permille: 250,
            ..FaultPlanConfig::default()
        }));
    }

    /// One lockstep run: no threads, no wall clock. Returns the client
    /// event digest, the server event digest and every response body.
    fn lockstep_run(client_seed: u64, server_seed: u64, chaos: bool) -> (u64, u64, Vec<Vec<u8>>) {
        let chaos = chaos.then(|| {
            FaultPlan::new(FaultPlanConfig {
                seed: 0xFEED,
                fault_permille: 300,
                ..FaultPlanConfig::default()
            })
        });
        let mut server = crate::server::LockstepServer::start(
            generate(CorpusScale::Tiny, Snapshot::Y2021, 7),
            ServerOptions {
                chaos,
                reactor_seed: server_seed,
                ..ServerOptions::default()
            },
        );
        let routes = vec![
            (Route::Categories, false),
            (
                Route::Category {
                    name: "finance".into(),
                    start: 0,
                    count: 100,
                },
                false,
            ),
        ];
        let specs = (1..=8u64).map(|id| spec(id, routes.clone())).collect();
        let opts = LaneOpts {
            sim_seed: client_seed,
            ..LaneOpts::default()
        };
        let endpoint = server.endpoint();
        let (outcomes, report) =
            drive_lanes(&endpoint, specs, &opts, Some(&mut || server.step())).unwrap();
        let bodies = outcomes
            .into_iter()
            .flat_map(|o| o.job.into_results())
            .map(|r| r.unwrap().body)
            .collect();
        (report.digest, server.reactor_digest(), bodies)
    }

    #[test]
    fn lockstep_replays_bit_for_bit_from_the_seeds() {
        let a = lockstep_run(5, 7, false);
        let b = lockstep_run(5, 7, false);
        assert_eq!(a, b, "same seeds must replay the same schedule");
        assert_ne!(a.0, 0, "client digest records delivered events");
    }

    #[test]
    fn lockstep_replays_bit_for_bit_under_chaos() {
        let a = lockstep_run(9, 3, true);
        let b = lockstep_run(9, 3, true);
        assert_eq!(a, b);
    }

    #[test]
    fn a_finished_response_leaves_no_read_allocation_behind() {
        let corpus = generate(CorpusScale::Tiny, Snapshot::Y2021, 7);
        let package = corpus
            .apps
            .iter()
            .find(|a| a.ml.is_some())
            .unwrap()
            .package
            .clone();
        let server = sim_server(None);
        // A small response after a large one: a lane that only cleared
        // its buffer would still hold the APK's capacity.
        let routes = vec![(Route::Apk { package }, true), (Route::Categories, false)];
        let (lanes, _) = run_lanes(
            &server.endpoint(),
            vec![spec(1, routes)],
            &LaneOpts::default(),
            None,
        )
        .unwrap();
        let lane = lanes.into_iter().next().unwrap();
        assert_eq!(lane.read_buf.capacity(), 0, "read buffer released");
        let results = lane.job.into_results();
        let apk = results[0].as_ref().unwrap();
        assert!(apk.body.len() > 4 * READ_CHUNK, "{} bytes", apk.body.len());
        assert!(results[1].is_ok());
    }

    #[test]
    fn bounded_chaos_retries_through_the_lane_and_still_answers() {
        let cfg = FaultPlanConfig {
            seed: 11,
            fault_permille: 400,
            ..FaultPlanConfig::default()
        };
        let server = sim_server(Some(FaultPlan::new(cfg)));
        let routes = vec![(Route::Categories, false); 8];
        let specs = vec![spec(3, routes)];
        let (mut outcomes, _) =
            drive_lanes(&server.endpoint(), specs, &LaneOpts::default(), None).unwrap();
        let o = outcomes.remove(0);
        assert!(o.stats.retries > 0, "chaos at 40% must force retries");
        assert!(o.stats.requests >= 8 + o.stats.retries);
        for r in o.job.into_results() {
            // Bounded chaos (fewer faults per route than attempts) always
            // recovers — every planned route still answers.
            assert!(r.is_ok(), "{r:?}");
        }
    }
}
