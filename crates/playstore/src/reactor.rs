//! Event-driven store serving: readiness loops and the per-connection
//! state machine.
//!
//! The thread-per-connection server caps out quickly — `BENCH_query.json`
//! shows QPS peaking at 8 clients and *collapsing* at 256 as the scheduler
//! drowns in runnable threads. This module is the C10k-shaped fix: one
//! loop thread multiplexes every connection over a readiness reactor
//! (vendored in `mio`), with each connection reduced to a small
//! non-blocking state machine ([`ConnSm`]):
//!
//! ```text
//!            accept                 frame parsed          frame queued
//! Accepting ───────▶ ReadingRequest ───────────▶ Serving ───────────▶ WritingResponse
//!                        ▲   │ chaos stall                                  │
//!                        │   ▼                                              │ drained
//!                        │ Stalled ──timer──▶ Closing ◀─ close-after-flush ─┤
//!                        └────────────────── keep-alive ◀──────────────────-┘
//! ```
//!
//! ("Serving" is instantaneous — [`Served`] frames are produced
//! synchronously by the route table — so the code models it as the parse
//! loop inside [`ConnSm::pump`] rather than a stored state.)
//!
//! Two loops implement the same serving contract:
//!
//! * **epoll** — [`run_epoll_loop`]: kernel readiness over non-blocking
//!   TCP, timer wheel on wall milliseconds for chaos stalls and idle
//!   keep-alive reaping.
//! * **sim** — [`run_sim_loop`]: the deterministic replay mode. Sources
//!   are in-process pipes ([`crate::net`]), delivery order within a poll
//!   round is a pure function of `(seed, round)`, and the wheel runs on a
//!   logical clock that advances only in observable steps (one tick per
//!   delivered round, jump-to-next-deadline when idle). Under a scripted
//!   client history the full event stream — captured by the reactor's
//!   running FNV digest — replays bit-for-bit.
//!
//! The determinism contract: response *bytes* for a given request depend
//! only on (corpus, index, chaos plan, request) — never on which loop or
//! delivery order served it. That is what keeps the byte-identical report
//! matrix intact across [`ReactorMode`]s; the sim digest additionally
//! pins the *schedule* itself for replay tests.

use crate::net::{SimConnHandle, SimNet};
use crate::proto::{parse_request, Request};
use mio::{EpollReactor, Events, Interest, Reactor, SimReactor, TimerWheel, Token};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Idle keep-alive reap deadline (epoll loop only). The sim loop
/// deliberately has no idle reaper: logical time there advances with
/// traffic, so an idle timer would close connections after N *events*
/// rather than N seconds and make crawl reconnect counts
/// interleaving-dependent.
const IDLE_REAP_MS: u64 = 10_000;

/// Which serving loop a [`crate::StoreServer`] runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ReactorMode {
    /// Single-threaded epoll readiness loop over non-blocking TCP. The
    /// default; Linux only — elsewhere starting it fails with
    /// [`io::ErrorKind::Unsupported`].
    #[default]
    Epoll,
    /// Deterministic in-process reactor over simulated pipes; the server
    /// is reachable via [`crate::StoreServer::endpoint`] only (no TCP).
    Sim,
}

impl ReactorMode {
    /// Parse a mode name (as used in the bench `--reactor` flag):
    /// `epoll` or `sim`.
    pub fn parse(s: &str) -> Option<ReactorMode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "epoll" => Some(ReactorMode::Epoll),
            "sim" => Some(ReactorMode::Sim),
            _ => None,
        }
    }

    /// Stable lower-case name (bench JSON `reactor` column).
    pub fn name(self) -> &'static str {
        match self {
            ReactorMode::Epoll => "epoll",
            ReactorMode::Sim => "sim",
        }
    }
}

/// How the server answers one request — produced synchronously by the
/// route table (plus the chaos plan) and consumed by whichever loop owns
/// the connection. Frames are fully serialized wire bytes so every loop
/// writes the identical stream.
pub enum Served {
    /// Write the frame, keep the connection alive.
    Frame(Vec<u8>),
    /// Write the (possibly deliberately truncated) frame, then close.
    FrameThenClose(Vec<u8>),
    /// Close without writing a byte of this response (chaos reset).
    /// Responses already queued for earlier pipelined requests still
    /// flush first.
    Reset,
    /// Go silent for `ms` (logical ms under sim), then close. The client
    /// sees a read timeout or EOF, whichever lands first.
    Stall {
        /// Silence duration in milliseconds before the close.
        ms: u64,
    },
}

/// Non-blocking byte I/O as the connection state machine consumes it.
/// `WouldBlock` is the routine "not now" answer; `Ok(0)` from a read is
/// peer EOF.
pub(crate) trait NonBlockingIo {
    fn try_read(&mut self, buf: &mut [u8]) -> io::Result<usize>;
    fn try_write(&mut self, buf: &[u8]) -> io::Result<usize>;
    /// Hang up both directions (sockets close on drop; sim pipes need an
    /// explicit close so blocked clients observe EOF).
    fn shutdown(&mut self) {}
}

impl NonBlockingIo for TcpStream {
    fn try_read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        io::Read::read(self, buf)
    }
    fn try_write(&mut self, buf: &[u8]) -> io::Result<usize> {
        io::Write::write(self, buf)
    }
}

impl NonBlockingIo for SimConnHandle {
    fn try_read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        SimConnHandle::try_read(self, buf)
    }
    fn try_write(&mut self, buf: &[u8]) -> io::Result<usize> {
        SimConnHandle::try_write(self, buf)
    }
    fn shutdown(&mut self) {
        SimConnHandle::close(self);
    }
}

/// Connection lifecycle states (the diagram in the module docs). The
/// state decides the interest mask the loop registers for the token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Waiting for (more of) a request head.
    Reading,
    /// A queued response frame is partially written; waiting for the
    /// send buffer to drain.
    Writing,
    /// Chaos stall in progress: deaf and mute until the timer closes us.
    Stalled,
}

/// What a [`ConnSm::pump`] decided the loop should do next.
pub(crate) enum PumpOutcome {
    /// Still alive — re-register with [`ConnSm::interest`].
    Continue,
    /// Entered the stalled state: arm a close timer `ms` out, drop the
    /// interest mask to none.
    ArmStall {
        /// Stall duration (milliseconds on the loop's clock).
        ms: u64,
    },
    /// Connection is finished — deregister, shut down, drop.
    Close,
}

/// One connection as a non-blocking state machine: buffered reads on one
/// side, an incremental frame parser in the middle, buffered writes out.
/// Generic over the byte source so the epoll (TCP) and sim (pipe) loops
/// share every transition.
pub(crate) struct ConnSm<T: NonBlockingIo> {
    io: T,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    written: usize,
    state: ConnState,
    close_after_flush: bool,
    pending_stall: Option<u64>,
    /// Last activity on the loop clock (for the epoll idle reaper).
    last_activity: u64,
    /// Interest currently registered with the reactor — `settle` skips
    /// the (syscall-backed) `set_interest` when nothing changed, which is
    /// the common case for request/response traffic.
    registered: Interest,
}

impl<T: NonBlockingIo> ConnSm<T> {
    pub(crate) fn new(io: T, now: u64) -> ConnSm<T> {
        ConnSm {
            io,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            written: 0,
            state: ConnState::Reading,
            close_after_flush: false,
            pending_stall: None,
            last_activity: now,
            registered: Interest::READABLE,
        }
    }

    fn stalled(&self) -> bool {
        self.state == ConnState::Stalled
    }

    /// Interest mask for the current state: reading wants readability,
    /// writing wants writability, stalled wants silence (the loop ignores
    /// anything the OS still reports, e.g. hangups).
    fn interest(&self) -> Interest {
        match self.state {
            ConnState::Reading => Interest::READABLE,
            ConnState::Writing => Interest::WRITABLE,
            ConnState::Stalled => Interest::NONE,
        }
    }

    fn shutdown(&mut self) {
        self.io.shutdown();
    }

    /// Drive the state machine as far as readiness allows: flush queued
    /// response bytes, serve every complete buffered request, read more.
    /// Returns when the I/O would block or the connection's fate is
    /// decided. `serve` is the synchronous route-table closure; it runs
    /// once per parsed request, in arrival order.
    pub(crate) fn pump<F>(&mut self, serve: &mut F) -> PumpOutcome
    where
        F: FnMut(&Request) -> Served,
    {
        loop {
            // Flush phase: responses already queued go out first, in
            // order — chaos close/stall decisions apply only after
            // earlier pipelined responses are on the wire, as if each
            // frame were written before the next request is read.
            while self.written < self.write_buf.len() {
                match self.io.try_write(&self.write_buf[self.written..]) {
                    Ok(0) => return PumpOutcome::Close,
                    Ok(n) => self.written += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        self.state = ConnState::Writing;
                        return PumpOutcome::Continue;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => return PumpOutcome::Close,
                }
            }
            self.write_buf.clear();
            self.written = 0;
            if let Some(ms) = self.pending_stall.take() {
                self.state = ConnState::Stalled;
                return PumpOutcome::ArmStall { ms };
            }
            if self.close_after_flush {
                return PumpOutcome::Close;
            }

            // Serve phase: consume every complete frame already buffered.
            let mut produced = false;
            loop {
                match parse_request(&self.read_buf) {
                    Ok(Some((req, consumed))) => {
                        self.read_buf.drain(..consumed);
                        match serve(&req) {
                            Served::Frame(f) => {
                                self.write_buf.extend_from_slice(&f);
                                produced = true;
                            }
                            Served::FrameThenClose(f) => {
                                self.write_buf.extend_from_slice(&f);
                                self.close_after_flush = true;
                                produced = true;
                                break;
                            }
                            Served::Reset => {
                                self.close_after_flush = true;
                                break;
                            }
                            Served::Stall { ms } => {
                                self.pending_stall = Some(ms);
                                break;
                            }
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        // Malformed head: close after flushing whatever
                        // was already queued.
                        self.close_after_flush = true;
                        break;
                    }
                }
            }
            if produced || self.close_after_flush || self.pending_stall.is_some() {
                continue; // flush (then maybe stall/close) before reading on
            }

            // Read phase.
            let mut chunk = [0u8; 16 * 1024];
            match self.io.try_read(&mut chunk) {
                // EOF: any complete frames were served in the phase
                // above, so leftover bytes are a torn head — done.
                Ok(0) => return PumpOutcome::Close,
                Ok(n) => self.read_buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.state = ConnState::Reading;
                    return PumpOutcome::Continue;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return PumpOutcome::Close,
            }
        }
    }
}

/// Token-indexed connection slab shared by both loops: token 0 is the
/// listener, connection `i` lives at token `i + 1`. Freed slots recycle.
struct Slab<T: NonBlockingIo> {
    conns: Vec<Option<ConnSm<T>>>,
    free: Vec<usize>,
}

impl<T: NonBlockingIo> Slab<T> {
    fn new() -> Slab<T> {
        Slab {
            conns: Vec::new(),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, conn: ConnSm<T>) -> Token {
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.conns.push(None);
                self.conns.len() - 1
            }
        };
        self.conns[idx] = Some(conn);
        Token(idx + 1)
    }

    fn get_mut(&mut self, token: Token) -> Option<&mut ConnSm<T>> {
        self.conns.get_mut(token.0.wrapping_sub(1))?.as_mut()
    }

    fn remove(&mut self, token: Token) -> Option<ConnSm<T>> {
        let idx = token.0.wrapping_sub(1);
        let slot = self.conns.get_mut(idx)?;
        let conn = slot.take();
        if conn.is_some() {
            self.free.push(idx);
        }
        conn
    }

    fn drain(&mut self) -> Vec<ConnSm<T>> {
        self.conns.iter_mut().filter_map(Option::take).collect()
    }
}

const LISTENER: Token = Token(0);

/// Deregister + shut down + drop one connection (shared epilogue).
fn close_conn<T: NonBlockingIo>(
    reactor: &mut dyn Reactor,
    slab: &mut Slab<T>,
    wheel: &mut TimerWheel,
    token: Token,
) {
    let _ = reactor.deregister(token);
    wheel.cancel(token);
    if let Some(mut conn) = slab.remove(token) {
        conn.shutdown();
    }
}

/// Apply a pump outcome: retune interest, arm stall timers, or close.
///
/// Interest updates are diffed against the connection's cached
/// registration, so steady request/response traffic (always `READABLE`)
/// costs zero `epoll_ctl` calls. Idle reaping is equally lazy: the timer
/// armed at accept stays armed and [`on_timer`] re-arms from
/// `last_activity`, so the hot path never touches the wheel.
fn settle<T: NonBlockingIo>(
    outcome: PumpOutcome,
    reactor: &mut dyn Reactor,
    slab: &mut Slab<T>,
    wheel: &mut TimerWheel,
    token: Token,
    now: u64,
) {
    match outcome {
        PumpOutcome::Continue => {
            let interest = match slab.get_mut(token) {
                Some(conn) => {
                    conn.last_activity = now;
                    let i = conn.interest();
                    if i == conn.registered {
                        return;
                    }
                    conn.registered = i;
                    i
                }
                None => return,
            };
            if reactor.set_interest(token, interest).is_err() {
                close_conn(reactor, slab, wheel, token);
            }
        }
        PumpOutcome::ArmStall { ms } => {
            if let Some(conn) = slab.get_mut(token) {
                conn.registered = Interest::NONE;
            }
            if reactor.set_interest(token, Interest::NONE).is_err() {
                close_conn(reactor, slab, wheel, token);
                return;
            }
            wheel.arm(token, now.saturating_add(ms));
        }
        PumpOutcome::Close => close_conn(reactor, slab, wheel, token),
    }
}

/// A fired timer: stalled connections close (the stall has run its
/// course); otherwise it is an idle-reap check — close if genuinely idle,
/// re-arm for the remainder if traffic arrived since.
fn on_timer<T: NonBlockingIo>(
    reactor: &mut dyn Reactor,
    slab: &mut Slab<T>,
    wheel: &mut TimerWheel,
    token: Token,
    now: u64,
) {
    let (stalled, last) = match slab.get_mut(token) {
        Some(conn) => (conn.stalled(), conn.last_activity),
        None => return,
    };
    if stalled || now.saturating_sub(last) >= IDLE_REAP_MS {
        close_conn(reactor, slab, wheel, token);
    } else {
        wheel.arm(token, last + IDLE_REAP_MS);
    }
}

/// A socket's descriptor as [`EpollReactor::register_fd`] takes it. Off
/// Linux no epoll reactor can be built, so this is never reached there.
#[cfg(target_os = "linux")]
pub(crate) fn raw_fd(sock: &impl std::os::fd::AsRawFd) -> std::os::fd::RawFd {
    sock.as_raw_fd()
}

#[cfg(not(target_os = "linux"))]
pub(crate) fn raw_fd<S>(_sock: &S) -> mio::RawFd {
    -1
}

/// The epoll readiness loop: one thread, every connection, on the
/// reactor the caller built (so a construction error surfaces before
/// the loop thread exists). Returns when `stop` is raised or the
/// reactor fails fatally.
pub(crate) fn run_epoll_loop<F>(
    mut reactor: EpollReactor,
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    mut serve: F,
) -> io::Result<()>
where
    F: FnMut(&Request) -> Served,
{
    listener.set_nonblocking(true)?;
    reactor.register_fd(raw_fd(&listener), LISTENER, Interest::READABLE)?;
    let mut slab: Slab<TcpStream> = Slab::new();
    let mut wheel = TimerWheel::new();
    let mut events = Events::new();
    // The loop clock is wall milliseconds since startup: chaos stalls and
    // idle reaping are real-time contracts with real-socket clients (their
    // read timeouts tick in wall time), unlike the sim loop's logical clock.
    // gaugelint: deterministic-via(clock) — reactor deadline clock is inherently wall-time under epoll; the deterministic path (sim) uses a logical clock
    let t0 = std::time::Instant::now();
    while !stop.load(Ordering::Relaxed) {
        let now = t0.elapsed().as_millis() as u64;
        let timeout = wheel
            .next_deadline()
            .map(|d| d.saturating_sub(now))
            .unwrap_or(25)
            .min(25);
        reactor.poll(&mut events, Some(Duration::from_millis(timeout)))?;
        let now = t0.elapsed().as_millis() as u64;
        for token in wheel.expire(now) {
            on_timer(&mut reactor, &mut slab, &mut wheel, token, now);
        }
        for ev in &events {
            if ev.token == LISTENER {
                loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            if stream.set_nonblocking(true).is_err()
                                || stream.set_nodelay(true).is_err()
                            {
                                continue;
                            }
                            let fd = raw_fd(&stream);
                            let token = slab.insert(ConnSm::new(stream, now));
                            if reactor
                                .register_fd(fd, token, Interest::READABLE)
                                .is_err()
                            {
                                slab.remove(token);
                                continue;
                            }
                            wheel.arm(token, now + IDLE_REAP_MS);
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => break,
                    }
                }
                continue;
            }
            let outcome = match slab.get_mut(ev.token) {
                // Stalled connections are deaf: level-triggered hangup
                // reports keep arriving but the stall contract is
                // silence until the timer closes us.
                Some(conn) if conn.stalled() => continue,
                Some(conn) => conn.pump(&mut serve),
                None => continue,
            };
            settle(outcome, &mut reactor, &mut slab, &mut wheel, ev.token, now);
        }
    }
    for mut conn in slab.drain() {
        conn.shutdown();
    }
    Ok(())
}

/// The deterministic sim serving loop as a *steppable* object. One
/// [`SimServerLoop::step`] is exactly one iteration of the old
/// `run_sim_loop` body — poll, advance the logical clock, fire timers,
/// dispatch readiness — so a single-threaded lockstep harness (the
/// non-blocking crawl client's replay mode) can interleave server steps
/// with client steps deterministically, while a free-running sim server
/// keeps its own loop thread by calling `step` until stopped.
pub(crate) struct SimServerLoop<F> {
    net: SimNet,
    reactor: SimReactor,
    serve: F,
    slab: Slab<SimConnHandle>,
    wheel: TimerWheel,
    events: Events,
    scratch: Vec<Token>,
    clock: u64,
}

impl<F> SimServerLoop<F>
where
    F: FnMut(&Request) -> Served,
{
    /// Register the listener and start the logical clock at zero.
    pub(crate) fn new(net: SimNet, mut reactor: SimReactor, serve: F) -> SimServerLoop<F> {
        reactor.register(LISTENER, net.listener_source(), Interest::READABLE);
        SimServerLoop {
            net,
            reactor,
            serve,
            slab: Slab::new(),
            wheel: TimerWheel::new(),
            events: Events::new(),
            scratch: Vec::new(),
            clock: 0,
        }
    }

    /// One poll-and-dispatch round. Returns a progress count (delivered
    /// events plus fired timers); zero means the server had nothing to do
    /// within `timeout`. Semantics match the original loop body exactly:
    /// an idle poll jumps the logical clock to the next timer deadline,
    /// a busy poll advances it by one tick.
    pub(crate) fn step(&mut self, timeout: Option<Duration>) -> usize {
        let n = self.reactor.poll(&mut self.events, timeout).unwrap_or(0);
        if n == 0 {
            // Idle: nothing is ready, so the only future the loop owes
            // anyone is timer expiry — jump the logical clock there.
            let mut fired = 0;
            if let Some(d) = self.wheel.next_deadline() {
                self.clock = self.clock.max(d);
                for token in self.wheel.expire(self.clock) {
                    on_timer(
                        &mut self.reactor,
                        &mut self.slab,
                        &mut self.wheel,
                        token,
                        self.clock,
                    );
                    fired += 1;
                }
            }
            return fired;
        }
        self.clock += 1;
        let mut progress = n;
        for token in self.wheel.expire(self.clock) {
            on_timer(
                &mut self.reactor,
                &mut self.slab,
                &mut self.wheel,
                token,
                self.clock,
            );
            progress += 1;
        }
        self.scratch.clear();
        self.scratch.extend(self.events.iter().map(|ev| ev.token));
        for i in 0..self.scratch.len() {
            let token = self.scratch[i];
            if token == LISTENER {
                while let Some(handle) = self.net.try_accept() {
                    let source: Arc<dyn mio::SimSource> = Arc::new(handle.clone());
                    let token = self.slab.insert(ConnSm::new(handle, self.clock));
                    self.reactor.register(token, source, Interest::READABLE);
                }
                continue;
            }
            let outcome = match self.slab.get_mut(token) {
                Some(conn) if conn.stalled() => continue,
                Some(conn) => conn.pump(&mut self.serve),
                None => continue,
            };
            settle(
                outcome,
                &mut self.reactor,
                &mut self.slab,
                &mut self.wheel,
                token,
                self.clock,
            );
        }
        progress
    }

    /// Shut every remaining connection down (loop exit epilogue).
    pub(crate) fn shutdown(&mut self) {
        for mut conn in self.slab.drain() {
            conn.shutdown();
        }
    }
}

/// The deterministic sim loop over an in-process [`SimNet`]. Identical
/// state machine to the epoll loop; differences are exactly the
/// determinism levers: seeded delivery rotation (inside [`SimReactor`]),
/// a logical clock (one tick per delivered round, jump-to-deadline when
/// idle), and no idle reaper. Thin driver over [`SimServerLoop`].
pub(crate) fn run_sim_loop<F>(net: SimNet, stop: Arc<AtomicBool>, reactor: SimReactor, serve: F)
where
    F: FnMut(&Request) -> Served,
{
    let mut sloop = SimServerLoop::new(net, reactor, serve);
    while !stop.load(Ordering::Relaxed) {
        sloop.step(Some(Duration::from_millis(2)));
    }
    sloop.shutdown();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{read_response, write_request, write_response, Response};
    use std::io::{BufReader, Cursor};

    /// Scripted in-memory byte source: reads drain a pre-loaded script
    /// in caller-chosen slice sizes; writes capture everything.
    struct ScriptIo {
        input: Vec<u8>,
        pos: usize,
        step: usize,
        eof_at_end: bool,
        output: Vec<u8>,
    }

    impl NonBlockingIo for ScriptIo {
        fn try_read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos >= self.input.len() {
                return if self.eof_at_end {
                    Ok(0)
                } else {
                    Err(io::Error::new(io::ErrorKind::WouldBlock, "drained"))
                };
            }
            let n = self.step.min(buf.len()).min(self.input.len() - self.pos);
            buf[..n].copy_from_slice(&self.input[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
        fn try_write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.output.extend_from_slice(buf);
            Ok(buf.len())
        }
    }

    fn echo_frame(req: &Request) -> Vec<u8> {
        let mut f = Vec::new();
        write_response(&mut f, &Response::ok(req.path.clone().into_bytes())).unwrap();
        f
    }

    fn two_request_stream() -> Vec<u8> {
        let mut s = Vec::new();
        write_request(&mut s, "/categories", &[("User-Agent", "t")]).unwrap();
        write_request(&mut s, "/app/com.x", &[("User-Agent", "t")]).unwrap();
        s
    }

    #[test]
    fn pump_output_is_invariant_to_read_granularity() {
        // The torn-write property at the state-machine level: byte-by-byte
        // delivery and single-shot delivery produce identical response
        // streams.
        let stream = two_request_stream();
        let mut outputs = Vec::new();
        for step in [1usize, 2, 3, 7, stream.len()] {
            let mut sm = ConnSm::new(
                ScriptIo {
                    input: stream.clone(),
                    pos: 0,
                    step,
                    eof_at_end: true,
                    output: Vec::new(),
                },
                0,
            );
            let outcome = sm.pump(&mut |req| Served::Frame(echo_frame(req)));
            assert!(matches!(outcome, PumpOutcome::Close), "EOF closes");
            outputs.push(sm.io.output);
        }
        for out in &outputs[1..] {
            assert_eq!(out, &outputs[0], "split size changed the byte stream");
        }
        // And the stream is two well-formed responses, in order.
        let mut r = BufReader::new(Cursor::new(outputs[0].clone()));
        assert_eq!(read_response(&mut r).unwrap().text(), "/categories");
        assert_eq!(read_response(&mut r).unwrap().text(), "/app/com.x");
    }

    #[test]
    fn pump_keeps_connection_open_between_requests() {
        let mut s = Vec::new();
        write_request(&mut s, "/categories", &[("User-Agent", "t")]).unwrap();
        let mut sm = ConnSm::new(
            ScriptIo {
                input: s,
                pos: 0,
                step: 4096,
                eof_at_end: false, // keep-alive: no EOF after the request
                output: Vec::new(),
            },
            0,
        );
        let outcome = sm.pump(&mut |req| Served::Frame(echo_frame(req)));
        assert!(matches!(outcome, PumpOutcome::Continue));
        assert_eq!(sm.interest(), Interest::READABLE, "back to reading");
        let mut r = BufReader::new(Cursor::new(sm.io.output.clone()));
        assert_eq!(read_response(&mut r).unwrap().text(), "/categories");
    }

    #[test]
    fn reset_flushes_earlier_responses_then_closes() {
        // Pipelined: first request answered, second hits a chaos reset.
        // The first response must still reach the wire.
        let stream = two_request_stream();
        let mut calls = 0;
        let mut sm = ConnSm::new(
            ScriptIo {
                input: stream,
                pos: 0,
                step: 4096,
                eof_at_end: false,
                output: Vec::new(),
            },
            0,
        );
        let outcome = sm.pump(&mut |req| {
            calls += 1;
            if calls == 1 {
                Served::Frame(echo_frame(req))
            } else {
                Served::Reset
            }
        });
        assert!(matches!(outcome, PumpOutcome::Close));
        let mut r = BufReader::new(Cursor::new(sm.io.output.clone()));
        assert_eq!(read_response(&mut r).unwrap().text(), "/categories");
        let mut rest = Vec::new();
        io::Read::read_to_end(&mut r, &mut rest).unwrap();
        assert!(rest.is_empty(), "reset wrote no bytes of its own response");
    }

    #[test]
    fn stall_arms_a_timer_and_goes_deaf() {
        let mut s = Vec::new();
        write_request(&mut s, "/apk/com.x", &[("User-Agent", "t")]).unwrap();
        let mut sm = ConnSm::new(
            ScriptIo {
                input: s,
                pos: 0,
                step: 4096,
                eof_at_end: false,
                output: Vec::new(),
            },
            0,
        );
        let outcome = sm.pump(&mut |_| Served::Stall { ms: 150 });
        match outcome {
            PumpOutcome::ArmStall { ms } => assert_eq!(ms, 150),
            _ => panic!("expected a stall"),
        }
        assert!(sm.stalled());
        assert_eq!(sm.interest(), Interest::NONE);
        assert!(sm.io.output.is_empty(), "stall writes nothing");
    }

    #[test]
    fn malformed_head_closes_after_flushing_queued_frames() {
        let mut stream = Vec::new();
        write_request(&mut stream, "/categories", &[("User-Agent", "t")]).unwrap();
        stream.extend_from_slice(b"BOGUS / NOPE\r\n\r\n");
        let mut sm = ConnSm::new(
            ScriptIo {
                input: stream,
                pos: 0,
                step: 4096,
                eof_at_end: false,
                output: Vec::new(),
            },
            0,
        );
        let outcome = sm.pump(&mut |req| Served::Frame(echo_frame(req)));
        assert!(matches!(outcome, PumpOutcome::Close));
        let mut r = BufReader::new(Cursor::new(sm.io.output.clone()));
        assert_eq!(read_response(&mut r).unwrap().text(), "/categories");
    }

    #[test]
    fn mode_parsing_knows_only_the_two_loops() {
        assert_eq!(ReactorMode::parse("epoll"), Some(ReactorMode::Epoll));
        assert_eq!(ReactorMode::parse(" SIM \n"), Some(ReactorMode::Sim));
        for gone in ["threaded", "thread", "legacy", "uring"] {
            assert_eq!(ReactorMode::parse(gone), None, "{gone}");
        }
        assert_eq!(ReactorMode::default(), ReactorMode::Epoll);
        assert_eq!(ReactorMode::Epoll.name(), "epoll");
    }
}
