//! Transport abstraction: real TCP or a deterministic in-process network.
//!
//! The crawler, query client and pool dial an [`Endpoint`] rather than a
//! `SocketAddr`. [`Endpoint::Tcp`] behaves exactly as before (blocking
//! client sockets with timeouts); [`Endpoint::Sim`] connects through a
//! [`SimNet`] — an in-process byte-pipe network the event-driven server's
//! `SimReactor` polls deterministically (see [`crate::reactor`]), which is
//! what makes readiness-replay tests possible without real sockets.
//!
//! A sim connection is two byte pipes. Both ends are non-blocking
//! (`try_read` / `try_write` returning `WouldBlock`): the *server* side
//! ([`SimConnHandle`]) for the reactor's connection state machines, the
//! *client* side ([`SimClientHandle`]) for the crawl lanes, each driven
//! exactly like a non-blocking socket. The blocking crawler wraps the
//! client side in a [`SimStream`], whose reads wait up to a timeout like
//! a `TcpStream`'s, so client code is oblivious to the substrate.
//! Dropping the last client handle half-closes the client→server
//! direction, which the server observes as EOF — the sim analogue of
//! TCP FIN.

use mio::{Interest, Parker, SimSource};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A bidirectional byte stream the crawler can run on: a `TcpStream`
/// or a [`SimStream`]. A `Box<dyn Transport>` is itself `Read + Write`,
/// so one boxed handle sits behind the crawler's `BufReader` and takes
/// its requests through `get_mut()`.
pub trait Transport: Read + Write + Send {}

impl<T: Read + Write + Send> Transport for T {}

/// Where a store lives: a real TCP address or an in-process [`SimNet`].
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// A TCP listener (the default substrate).
    Tcp(SocketAddr),
    /// An in-process simulated network served by a `SimReactor` loop.
    Sim(SimNet),
}

impl Endpoint {
    /// Dial the endpoint, producing a connected transport. For TCP this
    /// applies the connect timeout, `TCP_NODELAY` and read/write
    /// timeouts; for sim it registers a fresh connection with the
    /// server's accept queue and wakes its event loop.
    pub fn dial(
        &self,
        connect_timeout: Duration,
        read_timeout: Duration,
    ) -> io::Result<Box<dyn Transport>> {
        match self {
            Endpoint::Tcp(addr) => {
                let stream = TcpStream::connect_timeout(addr, connect_timeout)?;
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(read_timeout))?;
                stream.set_write_timeout(Some(read_timeout))?;
                Ok(Box::new(stream))
            }
            Endpoint::Sim(net) => Ok(Box::new(net.connect(read_timeout))),
        }
    }
}

/// One direction of a sim connection: an unbounded byte queue with a
/// closed flag, a condvar for blocking reads, and an optional watcher
/// parker a non-blocking *consumer* loop sleeps on (the client reactor's
/// analogue of the server's accept/write notifications).
#[derive(Default)]
struct Pipe {
    state: Mutex<PipeState>,
    cv: Condvar,
    watcher: Mutex<Option<Arc<Parker>>>,
}

#[derive(Default)]
struct PipeState {
    buf: VecDeque<u8>,
    closed: bool,
}

impl Pipe {
    fn push(&self, bytes: &[u8]) -> io::Result<usize> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.closed {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "sim pipe closed by peer",
            ));
        }
        st.buf.extend(bytes.iter().copied());
        self.cv.notify_all();
        drop(st);
        self.notify_watcher();
        Ok(bytes.len())
    }

    fn close(&self) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.closed = true;
        self.cv.notify_all();
        drop(st);
        self.notify_watcher();
    }

    /// Register the parker a polling consumer sleeps on; pushes and
    /// closes wake it so a reactor loop re-polls instead of timing out.
    fn set_watcher(&self, parker: Arc<Parker>) {
        *self.watcher.lock().unwrap_or_else(|e| e.into_inner()) = Some(parker);
    }

    fn notify_watcher(&self) {
        let w = self
            .watcher
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        if let Some(w) = w {
            w.notify();
        }
    }

    /// Non-blocking read: data if buffered, `Ok(0)` on EOF after a close,
    /// `WouldBlock` otherwise.
    fn try_pop(&self, out: &mut [u8]) -> io::Result<usize> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.buf.is_empty() {
            return if st.closed {
                Ok(0)
            } else {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "sim pipe empty"))
            };
        }
        let n = drain_into(&mut st.buf, out);
        Ok(n)
    }

    /// Blocking read with a timeout, mirroring a `TcpStream` with
    /// `set_read_timeout`: data, `Ok(0)` on EOF, `TimedOut` otherwise.
    fn pop_blocking(&self, out: &mut [u8], timeout: Duration) -> io::Result<usize> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if !st.buf.is_empty() {
                return Ok(drain_into(&mut st.buf, out));
            }
            if st.closed {
                return Ok(0);
            }
            let (guard, res) = self
                .cv
                .wait_timeout(st, timeout)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
            if res.timed_out() && st.buf.is_empty() && !st.closed {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "sim read timed out",
                ));
            }
        }
    }

    fn readable(&self) -> bool {
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        !st.buf.is_empty() || st.closed
    }
}

fn drain_into(buf: &mut VecDeque<u8>, out: &mut [u8]) -> usize {
    let n = buf.len().min(out.len());
    for slot in out.iter_mut().take(n) {
        *slot = buf.pop_front().unwrap_or_default();
    }
    n
}

/// Half-closes the client→server pipe when the last client handle goes
/// away — the sim analogue of the FIN a dropped `TcpStream` sends.
struct HalfCloseGuard {
    c2s: Arc<Pipe>,
    parker: Arc<Parker>,
}

impl Drop for HalfCloseGuard {
    fn drop(&mut self) {
        self.c2s.close();
        self.parker.notify();
    }
}

/// Client side of a sim connection for the blocking crawler: a
/// [`SimClientHandle`] whose reads wait on the pipe up to a timeout, so
/// it is shaped like a `TcpStream` and the crawler cannot tell the
/// difference. Writes never block (the pipe is unbounded).
#[derive(Clone, Debug)]
pub struct SimStream {
    handle: SimClientHandle,
    read_timeout: Duration,
}

impl SimStream {
    /// Half-close the client→server direction now (instead of waiting for
    /// the last clone to drop): the server drains what was written, then
    /// sees EOF. Readiness-replay tests use this to pre-script complete
    /// request streams before the server loop starts.
    pub fn shutdown_write(&self) {
        self.handle.close();
    }
}

impl Read for SimStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.handle.s2c.pop_blocking(buf, self.read_timeout)
    }
}

impl Write for SimStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.handle.try_write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Server side of a sim connection, driven non-blocking by the reactor's
/// connection state machine. Doubles as the connection's [`SimSource`]:
/// readable while client bytes (or the client's EOF) are pending.
#[derive(Clone)]
pub struct SimConnHandle {
    c2s: Arc<Pipe>,
    s2c: Arc<Pipe>,
}

impl std::fmt::Debug for SimConnHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimConnHandle").finish()
    }
}

impl SimConnHandle {
    /// Non-blocking read of client bytes (`Ok(0)` = client half-closed).
    pub fn try_read(&self, buf: &mut [u8]) -> io::Result<usize> {
        self.c2s.try_pop(buf)
    }

    /// Non-blocking write toward the client. The pipe is unbounded, so
    /// this fails only after a close ([`io::ErrorKind::BrokenPipe`]).
    pub fn try_write(&self, buf: &[u8]) -> io::Result<usize> {
        self.s2c.push(buf)
    }

    /// Close both directions (the server's hang-up): the client drains
    /// buffered response bytes, then reads EOF; further client writes
    /// fail like writes into a reset TCP stream.
    pub fn close(&self) {
        self.c2s.close();
        self.s2c.close();
    }
}

impl SimSource for SimConnHandle {
    fn readiness(&self) -> Interest {
        // Writes never block (unbounded pipe), so a conn with write
        // interest is always ready; read readiness tracks pending client
        // bytes or the client's half-close.
        let mut r = Interest::WRITABLE;
        if self.c2s.readable() {
            r = r.with(Interest::READABLE);
        }
        r
    }
}

/// *Non-blocking* client side of a sim connection — the client-reactor
/// mirror of [`SimConnHandle`], driven by `ClientSm` state machines (see
/// [`crate::reactor_client`]) exactly like a non-blocking TCP socket.
/// Doubles as the connection's [`SimSource`]: readable while server bytes
/// (or the server's close) are pending, always writable (unbounded pipe).
///
/// Obtained from [`SimNet::connect_nonblocking`]. Dropping the last
/// handle (a [`SimStream`] holds one) half-closes the client→server
/// direction.
#[derive(Clone)]
pub struct SimClientHandle {
    c2s: Arc<Pipe>,
    s2c: Arc<Pipe>,
    server_parker: Arc<Parker>,
    _guard: Arc<HalfCloseGuard>,
}

impl std::fmt::Debug for SimClientHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimClientHandle").finish()
    }
}

impl SimClientHandle {
    /// Non-blocking read of server bytes (`Ok(0)` = server closed).
    pub fn try_read(&self, buf: &mut [u8]) -> io::Result<usize> {
        self.s2c.try_pop(buf)
    }

    /// Non-blocking write toward the server; wakes the server loop. The
    /// pipe is unbounded, so this fails only after a close
    /// ([`io::ErrorKind::BrokenPipe`] — the sim analogue of writing into
    /// a reset stream).
    pub fn try_write(&self, buf: &[u8]) -> io::Result<usize> {
        let n = self.c2s.push(buf)?;
        self.server_parker.notify();
        Ok(n)
    }

    /// Half-close the client→server direction now (the client's FIN):
    /// the server drains what was written, then sees EOF.
    pub fn close(&self) {
        self.c2s.close();
        self.server_parker.notify();
    }

    /// Register the parker the *client's* reactor loop sleeps on: server
    /// writes and closes on this connection wake it, the mirror of
    /// client writes waking the server loop.
    pub fn watch(&self, parker: Arc<Parker>) {
        self.s2c.set_watcher(parker);
    }
}

impl SimSource for SimClientHandle {
    fn readiness(&self) -> Interest {
        let mut r = Interest::WRITABLE;
        if self.s2c.readable() {
            r = r.with(Interest::READABLE);
        }
        r
    }
}

struct SimNetInner {
    accept: Mutex<VecDeque<SimConnHandle>>,
    parker: Arc<Parker>,
}

/// An in-process network with one listener: clients [`SimNet::connect`],
/// the server loop [`SimNet::try_accept`]s. Cloning shares the network
/// (it is the sim analogue of a `SocketAddr`).
#[derive(Clone)]
pub struct SimNet {
    inner: Arc<SimNetInner>,
}

impl std::fmt::Debug for SimNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimNet").finish()
    }
}

impl SimNet {
    /// New network whose server loop sleeps on `parker`; connects and
    /// client writes notify it.
    pub fn new(parker: Arc<Parker>) -> SimNet {
        SimNet {
            inner: Arc::new(SimNetInner {
                accept: Mutex::new(VecDeque::new()),
                parker,
            }),
        }
    }

    /// The parker the server loop sleeps on.
    pub fn parker(&self) -> Arc<Parker> {
        Arc::clone(&self.inner.parker)
    }

    /// Open a connection for the blocking crawler: a
    /// [`SimNet::connect_nonblocking`] handle whose reads wait up to
    /// `read_timeout`. Connect order is the deterministic accept order.
    pub fn connect(&self, read_timeout: Duration) -> SimStream {
        SimStream {
            handle: self.connect_nonblocking(),
            read_timeout,
        }
    }

    /// Open a connection for a *non-blocking* client loop: queues the
    /// server half for accept, wakes the server loop, and hands back a
    /// [`SimClientHandle`] a client reactor drives readiness-style.
    /// A sim connect always succeeds immediately (there is no handshake
    /// to wait out), so unlike TCP the handle is born writable.
    pub fn connect_nonblocking(&self) -> SimClientHandle {
        let c2s = Arc::new(Pipe::default());
        let s2c = Arc::new(Pipe::default());
        let handle = SimConnHandle {
            c2s: Arc::clone(&c2s),
            s2c: Arc::clone(&s2c),
        };
        let mut q = self
            .inner
            .accept
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        q.push_back(handle);
        drop(q);
        self.inner.parker.notify();
        SimClientHandle {
            _guard: Arc::new(HalfCloseGuard {
                c2s: Arc::clone(&c2s),
                parker: self.parker(),
            }),
            c2s,
            s2c,
            server_parker: self.parker(),
        }
    }

    /// Pop the next pending connection, if any (the reactor's `accept`).
    pub fn try_accept(&self) -> Option<SimConnHandle> {
        self.inner
            .accept
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_front()
    }

    /// A [`SimSource`] reporting the listener readable while connections
    /// wait in the accept queue.
    pub fn listener_source(&self) -> Arc<dyn SimSource> {
        Arc::new(SimListenerSource(self.clone()))
    }
}

struct SimListenerSource(SimNet);

impl SimSource for SimListenerSource {
    fn readiness(&self) -> Interest {
        let pending = !self
            .0
            .inner
            .accept
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_empty();
        if pending {
            Interest::READABLE
        } else {
            Interest::NONE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_pipes_carry_bytes_both_ways() {
        let net = SimNet::new(Parker::new());
        let mut client = net.connect(Duration::from_millis(200));
        let server = net.try_accept().unwrap();
        assert!(net.try_accept().is_none());

        client.write_all(b"hello").unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(server.try_read(&mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"hello");
        assert!(matches!(
            server.try_read(&mut buf),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock
        ));

        server.try_write(b"world!").unwrap();
        let n = io::Read::read(&mut client, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"world!");
    }

    #[test]
    fn client_read_times_out_then_sees_server_close() {
        let net = SimNet::new(Parker::new());
        let mut client = net.connect(Duration::from_millis(20));
        let server = net.try_accept().unwrap();
        let mut buf = [0u8; 4];
        let err = io::Read::read(&mut client, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        server.try_write(b"tail").unwrap();
        server.close();
        assert_eq!(
            io::Read::read(&mut client, &mut buf).unwrap(),
            4,
            "buffered bytes drain"
        );
        assert_eq!(io::Read::read(&mut client, &mut buf).unwrap(), 0, "then EOF");
        assert!(client.write_all(b"x").is_err(), "writes fail after close");
    }

    #[test]
    fn dropping_the_last_client_handle_half_closes() {
        let net = SimNet::new(Parker::new());
        let client = net.connect(Duration::from_millis(20));
        let clone = client.clone();
        let server = net.try_accept().unwrap();
        let mut buf = [0u8; 4];
        drop(client);
        assert!(
            matches!(server.try_read(&mut buf), Err(e) if e.kind() == io::ErrorKind::WouldBlock),
            "one clone still alive"
        );
        drop(clone);
        assert_eq!(server.try_read(&mut buf).unwrap(), 0, "EOF after last drop");
    }

    #[test]
    fn readiness_tracks_pending_bytes_and_eof() {
        let net = SimNet::new(Parker::new());
        let listener = net.listener_source();
        assert!(!listener.readiness().is_readable());
        let mut client = net.connect(Duration::from_millis(20));
        assert!(listener.readiness().is_readable());
        let server = net.try_accept().unwrap();
        assert!(!listener.readiness().is_readable());
        assert!(!server.readiness().is_readable());
        client.write_all(b"r").unwrap();
        assert!(server.readiness().is_readable());
        let mut b = [0u8; 4];
        server.try_read(&mut b).unwrap();
        assert!(!server.readiness().is_readable());
        client.shutdown_write();
        assert!(server.readiness().is_readable(), "EOF counts as readable");
    }

    #[test]
    fn nonblocking_client_handle_mirrors_the_server_side() {
        let net = SimNet::new(Parker::new());
        let client = net.connect_nonblocking();
        let server = net.try_accept().unwrap();
        // Born writable, not readable.
        assert!(client.readiness().is_writable());
        assert!(!client.readiness().is_readable());
        let mut buf = [0u8; 16];
        assert!(matches!(
            client.try_read(&mut buf),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock
        ));
        client.try_write(b"req").unwrap();
        assert_eq!(server.try_read(&mut buf).unwrap(), 3);
        server.try_write(b"resp").unwrap();
        assert!(client.readiness().is_readable());
        assert_eq!(client.try_read(&mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"resp");
        // Server close: buffered EOF is readable, then reads return 0 and
        // writes fail like a reset stream.
        server.close();
        assert!(client.readiness().is_readable(), "EOF counts as readable");
        assert_eq!(client.try_read(&mut buf).unwrap(), 0);
        assert!(client.try_write(b"x").is_err());
    }

    #[test]
    fn pipe_watcher_wakes_a_client_parker_on_server_writes() {
        let net = SimNet::new(Parker::new());
        let client = net.connect_nonblocking();
        let server = net.try_accept().unwrap();
        let client_parker = Parker::new();
        client.watch(Arc::clone(&client_parker));
        let p2 = Arc::clone(&client_parker);
        let h = std::thread::spawn(move || p2.wait(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(10));
        server.try_write(b"wake").unwrap();
        h.join().unwrap();
        // Close also wakes the watcher (so EOF is observed promptly).
        let p3 = Arc::clone(&client_parker);
        let h = std::thread::spawn(move || p3.wait(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(10));
        server.close();
        h.join().unwrap();
    }

    #[test]
    fn dropping_the_last_nonblocking_handle_half_closes() {
        let net = SimNet::new(Parker::new());
        let client = net.connect_nonblocking();
        let server = net.try_accept().unwrap();
        let mut buf = [0u8; 4];
        drop(client);
        assert_eq!(server.try_read(&mut buf).unwrap(), 0, "EOF after drop");
    }

    #[test]
    fn tcp_endpoint_dials_real_sockets() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let ep = Endpoint::Tcp(listener.local_addr().unwrap());
        let mut t = ep
            .dial(Duration::from_secs(1), Duration::from_secs(1))
            .unwrap();
        let (mut srv, _) = listener.accept().unwrap();
        t.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        srv.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        srv.write_all(b"pong").unwrap();
        t.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
    }
}
