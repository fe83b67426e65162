//! The store server: serves category listings, app metadata, APKs, OBBs
//! and bundles over TCP (epoll) or in-process pipes (sim).
//!
//! APKs are assembled on demand; unique-model artifacts are memoised so
//! duplicated models across apps are byte-identical (which is precisely
//! what makes the §4.5 checksum analysis work) without re-encoding. The
//! memo holds each artifact's files shared and checksummed
//! ([`ModelFiles`]): an APK shares them into its archive without a copy
//! of its own, and its integrity CRC is combined from theirs instead of
//! read off the served bytes.

use crate::chaos::{FaultAction, FaultPlan};
use crate::corpus::{model_files, AppSpec, ModelFiles, StoreCorpus};
use crate::net::{Endpoint, SimNet};
use crate::proto::{
    write_response, Request, Response, CONNECTION_ID_HEADER, CRC_HEADER, FULL_CRC_HEADER,
    RANGE_START_HEADER,
};
use crate::reactor::{ReactorMode, Served};
use crate::route::Route;
use crate::{categories::CATEGORIES, Result};
use gaugenn_apk::crc32::crc32;
use gaugenn_apk::bundle::{AssetPack, BundleBuilder, Delivery};
use gaugenn_apk::obb::{build_obb, ObbKind};
use gaugenn_index::{wire, CorpusIndex};
use mio::{EpollReactor, Parker, SimReactor};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Maximum apps returned per category listing — the store's hard page
/// ceiling ("the list of the top free apps per category … returns a
/// maximum of 500 apps", §3.1).
pub const MAX_PER_CATEGORY: usize = 500;

/// Optional server attachments, beyond the corpus itself.
#[derive(Default)]
pub struct ServerOptions {
    /// Chaos [`FaultPlan`] consulted on every request.
    pub chaos: Option<FaultPlan>,
    /// Corpus index answering the `/query/*` route family. Shared
    /// immutably across connection threads — queries are read-only, so
    /// no locking is needed and responses cannot depend on request
    /// interleaving (the determinism contract).
    pub index: Option<Arc<CorpusIndex>>,
    /// Serving loop. The default is epoll, which exists only on Linux;
    /// elsewhere pass [`ReactorMode::Sim`].
    pub reactor: ReactorMode,
    /// Seed for the sim reactor's delivery-order rotation (and thus its
    /// event digest). Ignored by epoll.
    pub reactor_seed: u64,
}

struct Shared {
    corpus: StoreCorpus,
    /// Package name → position in `corpus.apps`, built once at start so
    /// a request looks its app up instead of scanning the corpus.
    packages: HashMap<String, usize>,
    /// Each category's contiguous range of `corpus.apps` (the corpus
    /// keeps apps grouped by category, in store-rank order), by index
    /// into [`CATEGORIES`].
    categories: Vec<Range<usize>>,
    /// Each artifact's files, shared and checksummed once per store.
    artifact_cache: Mutex<HashMap<usize, ModelFiles>>,
    requests_served: Mutex<u64>,
    chaos: Option<FaultPlan>,
    index: Option<Arc<CorpusIndex>>,
}

impl Shared {
    fn new(
        corpus: StoreCorpus,
        chaos: Option<FaultPlan>,
        index: Option<Arc<CorpusIndex>>,
    ) -> Shared {
        let mut packages = HashMap::with_capacity(corpus.apps.len());
        let mut categories = vec![0..0; CATEGORIES.len()];
        for (i, app) in corpus.apps.iter().enumerate() {
            // First wins, as a front-to-back scan would answer.
            packages.entry(app.package.clone()).or_insert(i);
            let range = &mut categories[app.category];
            if range.start == range.end {
                range.start = i;
            }
            range.end = i + 1;
        }
        Shared {
            corpus,
            packages,
            categories,
            artifact_cache: Mutex::new(HashMap::new()),
            requests_served: Mutex::new(0),
            chaos,
            index,
        }
    }

    fn app(&self, package: &str) -> Option<&AppSpec> {
        self.packages.get(package).map(|&i| &self.corpus.apps[i])
    }

    fn artifact(&self, id: usize) -> ModelFiles {
        if let Some(a) = self.artifact_cache.lock().get(&id) {
            return a.clone();
        }
        // Build outside the lock: artifact generation is deterministic, so
        // a rare double-build is harmless.
        let built = model_files(&self.corpus.pool[id].artifact(&self.corpus.pool));
        self.artifact_cache
            .lock()
            .entry(id)
            .or_insert(built)
            .clone()
    }

    /// An app's APK and its CRC-32, from the memoised artifacts.
    fn apk(&self, app: &AppSpec) -> (Vec<u8>, u32) {
        self.corpus.assemble_apk(app, &mut |id| self.artifact(id))
    }
}

/// A running store server. Dropping it stops the serving loop.
pub struct StoreServer {
    addr: SocketAddr,
    endpoint: Endpoint,
    mode: ReactorMode,
    stop: Arc<AtomicBool>,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    /// Sim mode: wakes the loop out of its park on stop.
    parker: Option<Arc<Parker>>,
    /// Sim mode: the reactor's running event-stream digest.
    digest: Option<Arc<AtomicU64>>,
}

/// Widen the kernel accept backlog past std's default (128). Benches
/// open hundreds of connections in one burst; a SYN dropped by a full
/// backlog retransmits after a second — longer than the crawler's 2 s
/// connect timeout. The raw `listen(2)` re-call lives in the vendored
/// reactor shim (this crate forbids `unsafe`); errors are harmless and
/// ignored.
#[cfg(unix)]
fn widen_backlog(listener: &TcpListener) {
    use std::os::fd::AsRawFd;
    mio::widen_backlog(listener.as_raw_fd(), 4096);
}

#[cfg(not(unix))]
fn widen_backlog(_listener: &TcpListener) {}

impl StoreServer {
    /// Start serving `corpus` on an ephemeral loopback port.
    pub fn start(corpus: StoreCorpus) -> Result<StoreServer> {
        Self::start_with(corpus, ServerOptions::default())
    }

    /// Start serving `corpus` with a chaos [`FaultPlan`] consulted on
    /// every request (resets, truncations, stalls, transient statuses,
    /// payload corruption — see [`crate::chaos`]).
    pub fn start_with_chaos(corpus: StoreCorpus, plan: FaultPlan) -> Result<StoreServer> {
        Self::start_with(
            corpus,
            ServerOptions {
                chaos: Some(plan),
                ..ServerOptions::default()
            },
        )
    }

    /// Start serving `corpus` with full [`ServerOptions`] (chaos plan,
    /// corpus index for the `/query/*` routes, reactor selection). Off
    /// Linux an epoll store fails with the reactor's `Unsupported` error.
    pub fn start_with(corpus: StoreCorpus, options: ServerOptions) -> Result<StoreServer> {
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared::new(corpus, options.chaos, options.index));
        match options.reactor {
            ReactorMode::Sim => Ok(Self::start_sim(shared, stop, options.reactor_seed)),
            ReactorMode::Epoll => Self::start_epoll(shared, stop),
        }
    }

    fn start_sim(shared: Arc<Shared>, stop: Arc<AtomicBool>, seed: u64) -> StoreServer {
        let parker = Parker::new();
        let net = SimNet::new(Arc::clone(&parker));
        let reactor = SimReactor::with_parker(seed, Arc::clone(&parker));
        let digest = reactor.digest_handle();
        let t_shared = Arc::clone(&shared);
        let t_stop = Arc::clone(&stop);
        let t_net = net.clone();
        let accept_thread = std::thread::spawn(move || {
            crate::reactor::run_sim_loop(t_net, t_stop, reactor, move |req| {
                serve_request(&t_shared, req)
            });
        });
        StoreServer {
            // Sim servers have no socket; the endpoint is the only way in.
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            endpoint: Endpoint::Sim(net),
            mode: ReactorMode::Sim,
            stop,
            shared,
            accept_thread: Some(accept_thread),
            parker: Some(parker),
            digest: Some(digest),
        }
    }

    fn start_epoll(shared: Arc<Shared>, stop: Arc<AtomicBool>) -> Result<StoreServer> {
        let reactor = EpollReactor::new()?;
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        widen_backlog(&listener);
        let addr = listener.local_addr()?;
        let t_shared = Arc::clone(&shared);
        let t_stop = Arc::clone(&stop);
        let accept_thread = std::thread::spawn(move || {
            let _ = crate::reactor::run_epoll_loop(reactor, listener, t_stop, move |req| {
                serve_request(&t_shared, req)
            });
        });
        Ok(StoreServer {
            addr,
            endpoint: Endpoint::Tcp(addr),
            mode: ReactorMode::Epoll,
            stop,
            shared,
            accept_thread: Some(accept_thread),
            parker: None,
            digest: None,
        })
    }

    /// Address to point the crawler at. Only meaningful for an epoll
    /// store; sim servers are reachable via [`StoreServer::endpoint`]
    /// alone.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The endpoint clients should dial — works for both reactor modes,
    /// unlike [`StoreServer::addr`].
    pub fn endpoint(&self) -> Endpoint {
        self.endpoint.clone()
    }

    /// The serving loop this server runs.
    pub fn mode(&self) -> ReactorMode {
        self.mode
    }

    /// Sim mode only: the reactor's running FNV digest over the delivered
    /// event stream — the replay-determinism witness.
    pub fn reactor_digest(&self) -> Option<u64> {
        self.digest.as_ref().map(|d| d.load(Ordering::SeqCst))
    }

    /// Number of requests served so far.
    pub fn requests_served(&self) -> u64 {
        *self.shared.requests_served.lock()
    }

    /// The chaos plan, when the server was started with one.
    pub fn chaos(&self) -> Option<&FaultPlan> {
        self.shared.chaos.as_ref()
    }

    /// Stop accepting and join the serving loop.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(p) = &self.parker {
            p.notify();
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for StoreServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The boxed per-request decision hook a [`LockstepServer`] steps with.
type LockstepServe = Box<dyn FnMut(&Request) -> Served>;

/// A sim store server the *caller* steps — no serving thread, no wall
/// clock. Built for lockstep runs against the non-blocking client
/// lanes ([`crate::reactor_client::drive_lanes`] takes `&mut || s.step()`
/// as its `server_step`): client and server alternate inside one thread,
/// so the complete multi-connection schedule — accept order, event
/// delivery, stall-timer expiry — is a pure function of the two reactor
/// seeds and replays bit-for-bit, digests included.
pub struct LockstepServer {
    endpoint: Endpoint,
    sloop: crate::reactor::SimServerLoop<LockstepServe>,
    shared: Arc<Shared>,
    digest: Arc<AtomicU64>,
}

impl LockstepServer {
    /// Build a steppable sim server over `corpus`. `options.reactor` is
    /// ignored (a lockstep server is sim by construction);
    /// `options.reactor_seed`, chaos plan and index apply as usual.
    pub fn start(corpus: StoreCorpus, options: ServerOptions) -> LockstepServer {
        let shared = Arc::new(Shared::new(corpus, options.chaos, options.index));
        let parker = Parker::new();
        let net = SimNet::new(Arc::clone(&parker));
        let reactor = SimReactor::with_parker(options.reactor_seed, parker);
        let digest = reactor.digest_handle();
        let t_shared = Arc::clone(&shared);
        let serve: Box<dyn FnMut(&Request) -> Served> =
            Box::new(move |req| serve_request(&t_shared, req));
        let sloop = crate::reactor::SimServerLoop::new(net.clone(), reactor, serve);
        LockstepServer {
            endpoint: Endpoint::Sim(net),
            sloop,
            shared,
            digest,
        }
    }

    /// The endpoint clients dial (sim only).
    pub fn endpoint(&self) -> Endpoint {
        self.endpoint.clone()
    }

    /// Run one poll/dispatch round with a zero timeout. Returns the
    /// number of events and timer fires handled — `0` means the server
    /// is drained and waiting on its clients.
    pub fn step(&mut self) -> usize {
        self.sloop.step(Some(Duration::ZERO))
    }

    /// The reactor's running FNV digest over the delivered event stream.
    pub fn reactor_digest(&self) -> u64 {
        self.digest.load(Ordering::SeqCst)
    }

    /// Number of requests served so far.
    pub fn requests_served(&self) -> u64 {
        *self.shared.requests_served.lock()
    }
}

/// Serialize a response to its wire frame. Infallible for in-memory
/// writes; returns the bytes.
fn frame_of(resp: &Response) -> Vec<u8> {
    let mut frame = Vec::with_capacity(resp.body.len() + 128);
    // Vec writes cannot fail; a defensive empty frame would be caught by
    // the client's framing check.
    let _ = write_response(&mut frame, resp);
    frame
}

/// Answer one request: route dispatch, range resume, integrity header and
/// the chaos decision, reduced to a [`Served`] verdict both serving loops
/// (epoll, sim) execute identically. This is *the* place
/// response bytes are decided — which is what makes them a pure function
/// of (corpus, index, chaos plan, request), independent of the loop and
/// of event interleaving.
fn serve_request(shared: &Shared, req: &Request) -> Served {
    *shared.requests_served.lock() += 1;
    let parsed = Route::parse(&req.path);
    let (mut resp, mut body_crc) = match &parsed {
        Some(r) => route(shared, req, r),
        None => (Response::not_found(req.path_only()), None),
    };
    // Range resume: a client that already holds a verified prefix asks
    // for the suffix; the full-body checksum lets it validate the
    // stitched result. Applied before the integrity header so that
    // CRC_HEADER covers exactly the bytes served.
    if resp.status == 200 {
        if let Some(start) = req
            .header(RANGE_START_HEADER)
            .and_then(|v| v.parse::<usize>().ok())
        {
            if start > 0 && start < resp.body.len() {
                let full = body_crc.take().unwrap_or_else(|| crc32(&resp.body));
                resp.headers
                    .push((FULL_CRC_HEADER.into(), format!("{full:08x}")));
                resp.headers
                    .push((RANGE_START_HEADER.into(), start.to_string()));
                resp.body.drain(..start);
            }
            // start == 0 or beyond the body: serve the full body with
            // no range echo; the client treats it as a fresh download.
        }
    }
    // Integrity header: lets the crawler detect silent payload
    // corruption (chaos-injected or otherwise) without trusting the
    // transport. An APK arrives with its CRC from the assembler; every
    // other body, and a ranged suffix, is checksummed here as served.
    let crc = body_crc.unwrap_or_else(|| crc32(&resp.body));
    resp.headers.push((CRC_HEADER.into(), format!("{crc:08x}")));
    let conn_id = req
        .header(CONNECTION_ID_HEADER)
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    let action = match (&shared.chaos, &parsed) {
        (Some(plan), Some(r)) => plan.decide(conn_id, r),
        _ => FaultAction::None,
    };
    match action {
        FaultAction::None => Served::Frame(frame_of(&resp)),
        FaultAction::Reset => Served::Reset,
        FaultAction::Truncate { keep_permille } => {
            let frame = frame_of(&resp);
            let keep = (frame.len() * keep_permille as usize / 1000).max(1);
            Served::FrameThenClose(frame[..keep.min(frame.len() - 1)].to_vec())
        }
        FaultAction::Stall { ms } => Served::Stall { ms },
        FaultAction::Status(status) => {
            let mut t = Response {
                status,
                headers: vec![],
                body: b"injected transient failure".to_vec(),
            };
            t.headers
                .push((CRC_HEADER.into(), format!("{:08x}", crc32(&t.body))));
            Served::Frame(frame_of(&t))
        }
        FaultAction::Corrupt { xor } => {
            // Flip body bytes *after* the checksum header was set, so
            // the frame stays well-formed but the payload lies.
            for b in resp.body.iter_mut() {
                *b ^= xor;
            }
            Served::Frame(frame_of(&resp))
        }
    }
}

/// Route a request to its response and, for an APK, the body's CRC-32
/// as the assembler computed it.
fn route(shared: &Shared, req: &Request, route: &Route) -> (Response, Option<u32>) {
    // The real store varies responses by user-agent/locale; we require the
    // headers (a crawler that forgets them is told so) but serve one
    // variant — the §4.2 finding is precisely that responses do not vary
    // by device profile.
    if req.header("user-agent").is_none() {
        return (Response::bad_request("missing User-Agent"), None);
    }
    let corpus = &shared.corpus;
    let resp = match route {
        Route::Categories => {
            let body = CATEGORIES
                .iter()
                .map(|c| c.name)
                .collect::<Vec<_>>()
                .join("\n");
            Response::ok(body.into_bytes())
        }
        Route::Category { name, start, count } => {
            let Some(idx) = crate::categories::category_index(name) else {
                return (Response::not_found(name), None);
            };
            let apps = &corpus.apps[shared.categories[idx].clone()];
            let count = (*count).min(MAX_PER_CATEGORY);
            // `start` is the client's: saturate, so a hostile offset
            // pages past the end instead of overflowing.
            let end = start
                .saturating_add(count)
                .min(apps.len())
                .min(MAX_PER_CATEGORY);
            let page = if *start < end { &apps[*start..end] } else { &[] };
            let body = page
                .iter()
                .map(|a| a.package.as_str())
                .collect::<Vec<_>>()
                .join("\n");
            Response::ok(body.into_bytes())
        }
        Route::App { package } => match shared.app(package) {
            Some(app) => Response::ok(meta_body(app).into_bytes()),
            None => Response::not_found(package),
        },
        Route::Apk { package } => match shared.app(package) {
            Some(app) => {
                let (bytes, crc) = shared.apk(app);
                return (Response::ok(bytes), Some(crc));
            }
            None => Response::not_found(package),
        },
        Route::Obb { package } => match shared.app(package) {
            Some(app) if app.has_obb => {
                let (name, bytes) = build_obb(
                    ObbKind::Main,
                    app.version_code,
                    &app.package,
                    &[
                        ("textures/atlas0.tex", vec![0xA5; 4096]),
                        ("audio/theme.pcm", vec![0x11; 2048]),
                    ],
                )
                // gaugelint: allow(unwrap-in-fault-path) — provably infallible: fixed-size literal assets cannot overflow the OBB container
                .expect("obb assembly is infallible for fixed inputs");
                let mut resp = Response::ok(bytes);
                resp.headers.push(("x-obb-name".into(), name));
                resp
            }
            Some(_) => Response::not_found("no expansion files"),
            None => Response::not_found(package),
        },
        Route::Bundle { package } => match shared.app(package) {
            Some(app) if app.has_bundle => {
                let (base, _) = shared.apk(app);
                let mut bb = BundleBuilder::new(base);
                bb.add_pack(AssetPack {
                    name: "hires_textures".into(),
                    delivery: Delivery::OnDemand,
                    targeting: String::new(),
                    files: vec![("pack0.tex".into(), vec![0x77; 4096])],
                });
                match bb.finish() {
                    Ok(bytes) => Response::ok(bytes),
                    Err(e) => Response::bad_request(&e.to_string()),
                }
            }
            Some(_) => Response::not_found("not distributed as a bundle"),
            None => Response::not_found(package),
        },
        // The /query/* family answers from the attached corpus index.
        // Ranking happens inside the index (a total order) and rendering
        // consumes the ranked documents verbatim, so the response bytes
        // depend only on (index contents, query) — never on which worker
        // thread serves the connection.
        Route::QueryModels(q) => match &shared.index {
            Some(index) => {
                let docs = index.query_models(q);
                Response::ok(wire::render_models(&docs, q.snapshot.as_deref()).into_bytes())
            }
            None => Response::not_found("no corpus index attached"),
        },
        Route::QueryApps(q) => match &shared.index {
            Some(index) => {
                let docs = index.query_apps(q);
                Response::ok(wire::render_apps(&docs, q.snapshot.as_deref()).into_bytes())
            }
            None => Response::not_found("no corpus index attached"),
        },
        Route::QueryStats => match &shared.index {
            Some(index) => Response::ok(index.stats_text().into_bytes()),
            None => Response::not_found("no corpus index attached"),
        },
    };
    (resp, None)
}

fn meta_body(app: &AppSpec) -> String {
    format!(
        "package={}\ntitle={}\ncategory={}\ndownloads={}\nrating={:.2}\nversion={}\nhas_obb={}\nhas_bundle={}\n",
        app.package,
        app.title,
        CATEGORIES[app.category].name,
        app.downloads,
        app.rating,
        app.version_code,
        app.has_obb,
        app.has_bundle,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{generate, CorpusScale, Snapshot};
    use crate::proto::{read_response, write_request};
    use std::io::BufReader;
    use std::net::TcpStream;

    fn start_tiny() -> StoreServer {
        let corpus = generate(CorpusScale::Tiny, Snapshot::Y2021, 7);
        StoreServer::start(corpus).unwrap()
    }

    fn get(addr: SocketAddr, path: &str, headers: &[(&str, &str)]) -> Response {
        let stream = TcpStream::connect(addr).unwrap();
        let mut r = BufReader::new(stream.try_clone().unwrap());
        let mut w = stream;
        write_request(&mut w, path, headers).unwrap();
        read_response(&mut r).unwrap()
    }

    const UA: (&str, &str) = ("User-Agent", "test/1.0");

    #[test]
    fn serves_categories_and_listings() {
        let server = start_tiny();
        let resp = get(server.addr(), "/categories", &[UA]);
        assert_eq!(resp.status, 200);
        let cats = resp.text();
        assert!(cats.lines().any(|l| l == "communication"));
        let listing = get(server.addr(), "/category/communication?start=0&count=10", &[UA]);
        assert_eq!(listing.status, 200);
        assert!(!listing.text().is_empty());
    }

    #[test]
    fn requires_user_agent() {
        let server = start_tiny();
        let resp = get(server.addr(), "/categories", &[("X-Locale", "en_GB")]);
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn serves_metadata_and_apk() {
        let server = start_tiny();
        let listing = get(server.addr(), "/category/communication?start=0&count=1", &[UA]);
        let pkg = listing.text().lines().next().unwrap().to_string();
        let meta = get(server.addr(), &format!("/app/{pkg}"), &[UA]);
        assert!(meta.text().contains(&format!("package={pkg}")));
        let apk = get(server.addr(), &format!("/apk/{pkg}"), &[UA]);
        assert_eq!(apk.status, 200);
        let parsed = gaugenn_apk::Apk::parse(&apk.body).unwrap();
        assert_eq!(parsed.package(), pkg);
    }

    #[test]
    fn unknown_paths_and_packages_404() {
        let server = start_tiny();
        assert_eq!(get(server.addr(), "/nope", &[UA]).status, 404);
        assert_eq!(get(server.addr(), "/app/com.missing.app", &[UA]).status, 404);
        assert_eq!(get(server.addr(), "/category/notacategory", &[UA]).status, 404);
    }

    #[test]
    fn apk_bytes_identical_across_downloads() {
        // Duplicated models must be byte-identical across fetches; the
        // md5 dedup analysis depends on it.
        let server = start_tiny();
        let listing = get(server.addr(), "/category/communication?start=0&count=1", &[UA]);
        let pkg = listing.text().lines().next().unwrap().to_string();
        let a = get(server.addr(), &format!("/apk/{pkg}"), &[UA]);
        let b = get(server.addr(), &format!("/apk/{pkg}"), &[UA]);
        assert_eq!(a.body, b.body);
    }

    #[test]
    fn keepalive_serves_multiple_requests() {
        let server = start_tiny();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut r = BufReader::new(stream.try_clone().unwrap());
        let mut w = stream;
        for _ in 0..3 {
            write_request(&mut w, "/categories", &[UA]).unwrap();
            let resp = read_response(&mut r).unwrap();
            assert_eq!(resp.status, 200);
        }
        assert!(server.requests_served() >= 3);
    }

    #[test]
    fn range_requests_serve_the_suffix_with_full_crc() {
        let server = start_tiny();
        let listing = get(server.addr(), "/category/communication?start=0&count=1", &[UA]);
        let pkg = listing.text().lines().next().unwrap().to_string();
        let full = get(server.addr(), &format!("/apk/{pkg}"), &[UA]);
        assert!(full.body.len() > 1000, "need a body worth ranging");
        let ranged = get(
            server.addr(),
            &format!("/apk/{pkg}"),
            &[UA, (RANGE_START_HEADER, "1000")],
        );
        assert_eq!(ranged.status, 200);
        assert_eq!(ranged.body, full.body[1000..].to_vec());
        assert_eq!(header(&ranged, RANGE_START_HEADER).as_deref(), Some("1000"));
        assert_eq!(
            header(&ranged, FULL_CRC_HEADER),
            Some(format!("{:08x}", crc32(&full.body))),
            "full-body checksum advertised for stitch validation"
        );
        assert_eq!(
            header(&ranged, CRC_HEADER),
            Some(format!("{:08x}", crc32(&ranged.body))),
            "per-response checksum covers the served slice"
        );
        // Offsets at/after the end fall back to a full, un-echoed body.
        let past = get(
            server.addr(),
            &format!("/apk/{pkg}"),
            &[UA, (RANGE_START_HEADER, "99999999")],
        );
        assert_eq!(past.body, full.body);
        assert_eq!(header(&past, RANGE_START_HEADER), None);
        assert_eq!(header(&past, FULL_CRC_HEADER), None);
    }

    fn header(r: &Response, k: &str) -> Option<String> {
        r.headers
            .iter()
            .find(|(n, _)| n == k)
            .map(|(_, v)| v.clone())
    }

    #[test]
    fn every_container_response_carries_the_crc_of_its_body() {
        // APKs take their CRC from the assembler, combined from the
        // memoised files' CRCs; OBBs, bundles and ranged suffixes are
        // checksummed as served. Either way the header must be the CRC
        // of the body on the wire. Every app of the corpus is fetched
        // (plain, ML, obfuscated and SNPE APKs), and one ML app and one
        // plain app are made to ship a bundle and an OBB so both
        // container routes answer.
        let mut corpus = generate(CorpusScale::Tiny, Snapshot::Y2021, 7);
        let ml = corpus.apps.iter().position(|a| a.ml.is_some()).unwrap();
        let plain = corpus.apps.iter().position(|a| a.ml.is_none()).unwrap();
        corpus.apps[ml].has_bundle = true;
        corpus.apps[plain].has_obb = true;
        let apps = corpus.apps.clone();
        let server = StoreServer::start(corpus).unwrap();
        let crc_of = |body: &[u8]| Some(format!("{:08x}", crc32(body)));
        let mut served = [0usize; 3];
        for app in &apps {
            let package = app.package.clone();
            let mut routes = vec![(0, Route::Apk { package: package.clone() })];
            if app.has_obb {
                routes.push((1, Route::Obb { package: package.clone() }));
            }
            if app.has_bundle {
                routes.push((2, Route::Bundle { package }));
            }
            for (kind, route) in routes {
                let path = route.wire_path();
                let full = get(server.addr(), &path, &[UA]);
                assert_eq!(full.status, 200, "{path}");
                assert_eq!(header(&full, CRC_HEADER), crc_of(&full.body), "{path}");
                let start = full.body.len() / 2;
                let ranged = get(
                    server.addr(),
                    &path,
                    &[UA, (RANGE_START_HEADER, &start.to_string())],
                );
                assert_eq!(ranged.body, full.body[start..], "{path}");
                assert_eq!(header(&ranged, CRC_HEADER), crc_of(&ranged.body), "{path}");
                assert_eq!(header(&ranged, FULL_CRC_HEADER), crc_of(&full.body), "{path}");
                served[kind] += 1;
            }
        }
        assert_eq!(served[0], apps.len());
        assert!(served[1] >= 1 && served[2] >= 1, "{served:?}");
    }

    #[test]
    fn a_hostile_listing_offset_pages_past_the_end() {
        let server = start_tiny();
        let resp = get(
            server.addr(),
            "/category/communication?start=18446744073709551615&count=10",
            &[UA],
        );
        assert_eq!(resp.status, 200);
        assert!(resp.body.is_empty());
        // The serving loop survived it: a fresh connection is answered.
        assert_eq!(get(server.addr(), "/categories", &[UA]).status, 200);
    }

    #[test]
    fn the_start_time_index_answers_what_the_scans_answered() {
        for scale in [CorpusScale::Tiny, CorpusScale::Paper] {
            for snapshot in [Snapshot::Y2020, Snapshot::Y2021] {
                let shared = Shared::new(generate(scale, snapshot, 7), None, None);
                let apps = &shared.corpus.apps;
                // Unique names, so each app's own position is what a
                // front-to-back `find` returns.
                assert_eq!(shared.packages.len(), apps.len(), "{scale:?} {snapshot:?}");
                for (i, app) in apps.iter().enumerate() {
                    assert_eq!(shared.packages[&app.package], i);
                }
                assert!(shared.app("com.missing.app").is_none());
                for (idx, range) in shared.categories.iter().enumerate() {
                    let scanned: Vec<&AppSpec> =
                        apps.iter().filter(|a| a.category == idx).collect();
                    let indexed: Vec<&AppSpec> = apps[range.clone()].iter().collect();
                    assert_eq!(indexed, scanned, "{scale:?} {snapshot:?} category {idx}");
                }
            }
        }
    }

    #[test]
    fn device_profile_does_not_change_the_apk() {
        // §4.2: "we downloaded an extra snapshot with a three-generations
        // older device profile and found no evidence of device-specific
        // model customisation" — the server must behave that way.
        let server = start_tiny();
        let listing = get(server.addr(), "/category/communication?start=0&count=1", &[UA]);
        let pkg = listing.text().lines().next().unwrap().to_string();
        let new_dev = get(
            server.addr(),
            &format!("/apk/{pkg}"),
            &[UA, ("X-Device-Profile", "SM-G977B")],
        );
        let old_dev = get(
            server.addr(),
            &format!("/apk/{pkg}"),
            &[UA, ("X-Device-Profile", "SM-G935F")],
        );
        assert_eq!(new_dev.body, old_dev.body);
    }
}
