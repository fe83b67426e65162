//! The `query` workload: an open-loop, seeded `/query/*` mix against a
//! `StoreServer` holding the paper-scale corpus index.
//!
//! One generator thread writes requests on a fixed schedule over two
//! keep-alive connections, pipelining instead of waiting for replies, so
//! a slow server receives the same load as a fast one and its queue can
//! grow. Each request's latency runs from when it was *due*, so a stall
//! is charged to every request queued behind it. Phases: 2000 QPS and
//! 5000 QPS at fixed rates, then bisection over a fixed rate ladder
//! (rungs 5% apart) for the highest rate whose p99 stays within 5 ms
//! with no growing backlog.

use crate::stats::{self, backlog_grows, ladder, median, quartile_spread, tail, OpenLoopLog, Rung};
use crate::study::{self, SCALE, SNAPSHOT};
use crate::sys::{self, json_num};
use crate::{Args, BoxError, Outcome};
use gaugenn_apk::crc32::crc32;
use gaugenn_core::indexer;
use gaugenn_dnn::task::Task;
use gaugenn_index::{wire, AppQuery, CorpusIndex, ModelQuery};
use gaugenn_modelfmt::Framework;
use gaugenn_playstore::categories::CATEGORIES;
use gaugenn_playstore::corpus::generate;
use gaugenn_playstore::crawler::CrawlerConfig;
use gaugenn_playstore::proto::{self, CONNECTION_ID_HEADER};
use gaugenn_playstore::route::Route;
use gaugenn_playstore::server::{ServerOptions, StoreServer};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Keep-alive connections the generator holds (the host budget).
pub const CONNECTIONS: usize = 2;
/// The two fixed offered rates, requests per second.
pub const FIXED_RATES: [f64; 2] = [2000.0, 5000.0];
/// The latency objective the ladder searches against.
pub const P99_LIMIT_MS: f64 = 5.0;
/// Rate ladder bounds and step (rungs at most 5% apart).
pub const LADDER: (f64, f64, f64) = (1000.0, 20_000.0, 1.05);
/// Distinct requests in the seeded stream (it repeats beyond this).
const STREAM_LEN: usize = 4096;
/// How long a phase may wait for its last responses.
const DRAIN: Duration = Duration::from_secs(10);

/// Seeded request mix — the querybench stream's shapes: full scans,
/// dimension filters, range scans, app filters and stats.
pub fn stream(seed: u64, n: usize) -> Vec<Route> {
    let mut state = seed;
    let mut next = move || splitmix64(&mut state);
    (0..n)
        .map(|_| match next() % 8 {
            0 => Route::QueryModels(ModelQuery {
                limit: Some(1 + next() % 64),
                ..ModelQuery::default()
            }),
            1 => Route::QueryModels(ModelQuery {
                frameworks: vec![
                    Framework::ALL[(next() % Framework::ALL.len() as u64) as usize]
                        .name()
                        .to_string(),
                ],
                ..ModelQuery::default()
            }),
            2 => Route::QueryModels(ModelQuery {
                tasks: vec![Task::ALL[(next() % Task::ALL.len() as u64) as usize]
                    .name()
                    .to_string()],
                snapshot: Some("Apr 2021".to_string()),
                ..ModelQuery::default()
            }),
            3 => {
                let lo = next() % 1_000_000_000;
                Route::QueryModels(ModelQuery {
                    min_flops: Some(lo),
                    max_flops: Some(lo + next() % 10_000_000_000),
                    ..ModelQuery::default()
                })
            }
            4 => Route::QueryModels(ModelQuery {
                quantised: Some(next() % 2 == 0),
                min_params: Some(next() % 1_000_000),
                limit: Some(1 + next() % 32),
                ..ModelQuery::default()
            }),
            5 => Route::QueryApps(AppQuery {
                categories: vec![CATEGORIES[(next() % CATEGORIES.len() as u64) as usize]
                    .name
                    .to_string()],
                ..AppQuery::default()
            }),
            6 => Route::QueryApps(AppQuery {
                ml_only: next() % 2 == 0,
                cloud: Some(next() % 2 == 0),
                limit: Some(1 + next() % 128),
                ..AppQuery::default()
            }),
            _ => Route::QueryStats,
        })
        .collect()
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// What the in-process index answers for `route`, and how many rows.
pub fn expected_body(index: &CorpusIndex, route: &Route) -> (String, usize) {
    match route {
        Route::QueryModels(q) => {
            let docs = index.query_models(q);
            (
                wire::render_models(&docs, q.snapshot.as_deref()),
                docs.len(),
            )
        }
        Route::QueryApps(q) => {
            let docs = index.query_apps(q);
            (wire::render_apps(&docs, q.snapshot.as_deref()), docs.len())
        }
        _ => (index.stats_text(), 1),
    }
}

/// The served side plus the stream and its expected answers.
pub struct QueryRig {
    /// The store, answering `/query/*` from the index.
    pub server: StoreServer,
    /// The in-process index the expected answers come from.
    pub index: Arc<CorpusIndex>,
    /// The seeded request stream.
    pub routes: Vec<Route>,
    /// `(crc32, len)` of the expected body of each stream entry.
    pub expected: Vec<(u32, usize)>,
    /// Encoded request bytes per connection, per stream entry.
    requests: Vec<Vec<Vec<u8>>>,
}

impl QueryRig {
    /// Serve `index` from a store over the corpus of `corpus_seed`, with
    /// the request stream of `seed`.
    pub fn new(index: Arc<CorpusIndex>, corpus_seed: u64, seed: u64) -> Result<QueryRig, BoxError> {
        let server = StoreServer::start_with(
            generate(SCALE, SNAPSHOT, corpus_seed),
            ServerOptions {
                index: Some(index.clone()),
                ..ServerOptions::default()
            },
        )?;
        let routes = stream(seed, STREAM_LEN);
        let expected = routes
            .iter()
            .map(|r| {
                let body = expected_body(&index, r).0;
                (crc32(body.as_bytes()), body.len())
            })
            .collect();
        let cfg = CrawlerConfig::default();
        let requests = (0..CONNECTIONS)
            .map(|c| {
                let id = c.to_string();
                let headers = [
                    ("User-Agent", cfg.user_agent.as_str()),
                    ("X-Locale", cfg.locale.as_str()),
                    ("X-Device-Profile", cfg.device_profile.as_str()),
                    (CONNECTION_ID_HEADER, id.as_str()),
                ];
                routes
                    .iter()
                    .map(|r| {
                        let mut buf = Vec::new();
                        proto::write_request(&mut buf, &r.wire_path(), &headers)
                            .expect("writing to a Vec");
                        buf
                    })
                    .collect()
            })
            .collect();
        Ok(QueryRig {
            server,
            index,
            routes,
            expected,
            requests,
        })
    }

    /// Open the generator's keep-alive connections.
    pub fn connect(&self) -> Result<Vec<Conn>, BoxError> {
        (0..CONNECTIONS)
            .map(|_| Conn::open(self.server.addr()))
            .collect()
    }

    /// [`run_phase`], re-dialling the connections afterwards if the phase
    /// left any of them out of step (an error or a response never read).
    pub fn drive(
        &self,
        conns: &mut Vec<Conn>,
        rate: f64,
        count: usize,
        offset: usize,
    ) -> PhaseResult {
        let p = run_phase(self, conns, rate, count, offset);
        if p.errors > 0 || p.log.missing() > 0 {
            match self.connect() {
                Ok(fresh) => *conns = fresh,
                Err(e) => eprintln!("query: cannot re-dial: {e}"),
            }
        }
        p
    }
}

/// One pipelined keep-alive connection: the generator writes on it,
/// a reader thread per phase drains its responses.
pub struct Conn {
    writer: TcpStream,
    reader: Reader,
}

/// The read half of a [`Conn`].
struct Reader {
    stream: TcpStream,
    /// Response bytes read but not yet parsed (always empty between
    /// clean phases).
    pending: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, BoxError> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let stream = writer.try_clone()?;
        stream.set_read_timeout(Some(Duration::from_millis(50)))?;
        Ok(Conn {
            writer,
            reader: Reader {
                stream,
                pending: Vec::new(),
            },
        })
    }
}

/// One response as its reader saw it.
struct Received {
    at: f64,
    status: u16,
    body_crc: u32,
    body_len: usize,
}

/// Reader half of a phase: parse `expect` responses off `conn`,
/// timestamping each as it completes, until done or `deadline`.
fn read_responses(
    conn: &mut Reader,
    expect: usize,
    t0: Instant,
    deadline: f64,
) -> Result<Vec<Received>, String> {
    let mut got = Vec::with_capacity(expect);
    let mut scratch = vec![0u8; 64 * 1024];
    let mut pos = 0usize;
    while got.len() < expect {
        // Parse every complete frame already buffered.
        loop {
            let buf = &conn.pending[pos..];
            if !proto::response_frame_complete(buf) {
                break;
            }
            let len = frame_len(buf).ok_or("malformed response head")?;
            let resp =
                match proto::finish_response_frame(&buf[..len], None).map_err(|e| e.to_string())? {
                    proto::ReadOutcome::Complete(r) => r,
                    proto::ReadOutcome::Truncated { .. } => return Err("truncated response".into()),
                };
            got.push(Received {
                at: t0.elapsed().as_secs_f64(),
                status: resp.status,
                body_crc: crc32(&resp.body),
                body_len: resp.body.len(),
            });
            pos += len;
        }
        if got.len() >= expect {
            break;
        }
        if pos > 0 {
            conn.pending.drain(..pos);
            pos = 0;
        }
        if t0.elapsed().as_secs_f64() > deadline {
            break;
        }
        match conn.stream.read(&mut scratch) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(n) => conn.pending.extend_from_slice(&scratch[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e.to_string()),
        }
    }
    conn.pending.drain(..pos);
    Ok(got)
}

/// Byte length of the complete frame at the head of `buf`.
fn frame_len(buf: &[u8]) -> Option<usize> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let len: usize = head.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        k.trim()
            .eq_ignore_ascii_case("content-length")
            .then(|| v.trim().parse().ok())?
    })?;
    let total = head_end + 4 + len;
    (buf.len() >= total).then_some(total)
}

/// One open-loop phase's outcome.
#[derive(Debug, Default)]
pub struct PhaseResult {
    /// Offered rate.
    pub rate: f64,
    /// Due / sent / done times.
    pub log: OpenLoopLog,
    /// Stream index of each request.
    pub stream_idx: Vec<usize>,
    /// Transport or framing errors (the phase stopped at the first).
    pub errors: usize,
    /// Responses with a status other than 200.
    pub bad_status: usize,
    /// 200 responses whose body differed from the in-process answer.
    pub bad_body: usize,
    /// Response body bytes received.
    pub bytes: u64,
}

impl PhaseResult {
    /// Requests that failed: errors, non-200s, wrong bodies and
    /// responses never received.
    pub fn failed(&self) -> usize {
        self.bad_status + self.bad_body + self.log.missing()
    }

    /// Sorted latencies from due time, ms.
    pub fn latencies(&self) -> Vec<f64> {
        stats::sorted(self.log.latencies_ms())
    }

    /// Median over the phase's latency windows of each window's
    /// percentile `p`, with the number of windows it came from.
    pub fn windowed(&self, p: f64) -> (Option<f64>, usize) {
        let v: Vec<f64> = self
            .log
            .window_tails(WINDOW, p)
            .iter()
            .map(|t| t.value)
            .collect();
        ((!v.is_empty()).then(|| median(&v)), v.len())
    }

    /// The phase as a ladder rung.
    pub fn rung(&self) -> Rung {
        Rung {
            rate: self.rate,
            p99_ms: self.windowed(99.0).0,
            backlog_grew: backlog_grows(&self.log.backlog()),
            failed: self.failed() + self.errors,
        }
    }
}

/// Drive `count` requests at `rate` over `conns`, starting at stream
/// offset `offset`. Request `i` is due `i / rate` seconds after the
/// phase start and goes out on connection `i % conns.len()`; the calling
/// thread is the generator (it sleeps to each due time and writes,
/// never waiting for a reply) and one reader thread per connection
/// timestamps the responses.
pub fn run_phase(
    rig: &QueryRig,
    conns: &mut [Conn],
    rate: f64,
    count: usize,
    offset: usize,
) -> PhaseResult {
    let n_conns = conns.len();
    let mut r = PhaseResult {
        rate,
        log: OpenLoopLog {
            due: (0..count).map(|i| i as f64 / rate).collect(),
            sent: vec![0.0; count],
            done: vec![None; count],
        },
        stream_idx: (0..count)
            .map(|i| (offset + i) % rig.routes.len())
            .collect(),
        ..PhaseResult::default()
    };
    // Start a little in the future so the readers are parked first.
    let t0 = Instant::now() + Duration::from_millis(2);
    let deadline = count as f64 / rate + DRAIN.as_secs_f64();
    let (mut readers, mut writers): (Vec<&mut Reader>, Vec<&mut TcpStream>) = conns
        .iter_mut()
        .map(|c| (&mut c.reader, &mut c.writer))
        .unzip();
    let received: Vec<Result<Vec<Received>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = readers
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let expect = (c..count).step_by(n_conns).count();
                s.spawn(move || read_responses(conn, expect, t0, deadline))
            })
            .collect();
        for i in 0..count {
            let due = t0 + Duration::from_secs_f64(r.log.due[i]);
            sleep_until(due);
            let c = i % n_conns;
            let sent = writers[c]
                .write_all(&rig.requests[c][r.stream_idx[i]])
                .is_ok();
            r.log.sent[i] = Instant::now().saturating_duration_since(t0).as_secs_f64();
            if !sent {
                r.errors += 1;
                break;
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect()
    });
    for (c, got) in received.into_iter().enumerate() {
        let got = match got {
            Ok(g) => g,
            Err(e) => {
                eprintln!("query: connection {c}: {e}");
                r.errors += 1;
                continue;
            }
        };
        // Responses arrive in request order on a connection.
        for (resp, i) in got.into_iter().zip((c..count).step_by(n_conns)) {
            r.log.done[i] = Some(resp.at);
            r.bytes += resp.body_len as u64;
            if resp.status != 200 {
                r.bad_status += 1;
            } else if (resp.body_crc, resp.body_len) != rig.expected[r.stream_idx[i]] {
                r.bad_body += 1;
            }
        }
    }
    r
}

/// Sleep until shortly before `due`, then spin the rest of the way: a
/// plain sleep overshoots by tens of microseconds, which at 5000 QPS is
/// a quarter of the gap between requests.
fn sleep_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(250);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Requests per latency window: a p99 over 1000 samples has ten
/// beyond it.
pub const WINDOW: usize = 1000;
/// Windows per ladder probe.
const PROBE_WINDOWS: usize = 3;
/// Offered rate of the saturation probes, requests per second.
pub const SATURATION_RATE: f64 = 40_000.0;
/// Windows per saturation probe.
const SATURATION_WINDOWS: usize = 8;

/// Requests a phase of about `secs` at `rate` sends: whole windows, at
/// least one.
pub fn phase_count(rate: f64, secs: f64) -> usize {
    let n = (rate * secs).ceil() as usize;
    n.div_ceil(WINDOW).max(1) * WINDOW
}

/// Latency summary of a fixed-rate phase, for the record: windowed
/// p50/p99 (the reported figures) and the whole-phase tail beside them.
fn phase_note(p: &PhaseResult) -> String {
    let lat = p.latencies();
    let whole = tail(&lat, 99.0);
    let (p50, windows) = p.windowed(50.0);
    let lags = stats::sorted(p.log.lags_ms());
    format!(
        "{{\"rate\": {}, \"sent\": {}, \"samples\": {}, \"windows\": {windows}, \"window_samples\": {WINDOW}, \
         \"p50_ms\": {}, \"p99_ms\": {}, \"phase_p99_ms\": {}, \"phase_beyond_p99\": {}, \
         \"lag_p99_ms\": {}, \"backlog_max\": {}, \"failed\": {}}}",
        p.rate,
        p.log.due.len(),
        lat.len(),
        json_num(p50.unwrap_or(0.0)),
        json_num(p.windowed(99.0).0.unwrap_or(0.0)),
        json_num(whole.map_or(0.0, |t| t.value)),
        whole.map_or(0, |t| t.beyond),
        json_num(stats::percentile(&lags, 99.0)),
        p.log.backlog().iter().max().copied().unwrap_or(0),
        p.failed() + p.errors,
    )
}

/// Set up the query rig: a child process runs the study pipeline and
/// persists its corpus index; this process loads it and starts serving.
pub fn setup(seed: u64, out: &mut Outcome) -> Result<QueryRig, BoxError> {
    let t = Instant::now();
    let (line, dir) = study::run_setup_child(seed)?;
    let corpus_seed = study::corpus_seed(seed);
    study::check_reference(out, corpus_seed, &line);
    let index = indexer::load_or_empty(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    out.check(!index.is_empty(), || {
        "persisted corpus index did not load".into()
    });
    let rig = QueryRig::new(Arc::new(index), corpus_seed, seed)?;
    out.metric("setup_s", t.elapsed().as_secs_f64(), "s");
    Ok(rig)
}

fn tally(out: &mut Outcome, p: &PhaseResult) {
    out.attempted += p.log.due.len() as u64;
    out.failed += (p.failed() + p.errors) as u64;
    out.check(p.bad_body == 0, || {
        format!(
            "{} response bodies differ from the in-process index at {} QPS",
            p.bad_body, p.rate
        )
    });
}

/// `query`: the two fixed-rate phases, then rate-ladder searches until
/// the run length is spent.
pub fn query(args: &Args) -> Result<Outcome, BoxError> {
    let mut out = Outcome::default();
    let rig = setup(args.seed, &mut out)?;
    let mut conns = rig.connect()?;
    eprintln!(
        "query: {} models, {} apps indexed; measuring for {} s",
        rig.index.model_count(),
        rig.index.app_count(),
        args.seconds
    );
    // Warm the connections and the server's buffers; not recorded.
    let warm = rig.drive(&mut conns, FIXED_RATES[0], WINDOW, 0);
    tally(&mut out, &warm);
    sys::reset_peaks();
    let start = Instant::now();
    let mut offset = 0;
    let mut fixed = Vec::new();
    for rate in FIXED_RATES {
        let share = if rate == FIXED_RATES[0] { 0.3 } else { 0.1 };
        let n = phase_count(rate, args.seconds * share);
        let p = rig.drive(&mut conns, rate, n, offset);
        offset += n;
        eprintln!("  {rate} QPS: {}", phase_note(&p));
        tally(&mut out, &p);
        fixed.push(p);
    }
    // Saturation: offer far more than the server can take, so its queue
    // never empties; completions per second are its serving capacity.
    // Repeated until 90% of the run length is spent (at least six);
    // the reported figure is their median.
    let mut capacity = Vec::new();
    while capacity.len() < 6 || start.elapsed().as_secs_f64() < args.seconds * 0.9 {
        let n = SATURATION_WINDOWS * WINDOW;
        let p = rig.drive(&mut conns, SATURATION_RATE, n, offset);
        offset += n;
        tally(&mut out, &p);
        let last = p.log.done.iter().flatten().fold(0.0f64, |a, &b| a.max(b));
        capacity.push(p.log.done.iter().flatten().count() as f64 / last.max(1e-9));
    }
    eprintln!("  saturation: {capacity:.0?} responses/s");
    // One bisection over the ladder for the highest rate whose windowed
    // p99 stays within the objective without a growing backlog.
    let rungs = ladder(LADDER.0, LADDER.1, LADDER.2);
    let mut probes = 0usize;
    let max_qps = stats::highest_passing(&rungs, |rate| {
        let p = rig.drive(&mut conns, rate, PROBE_WINDOWS * WINDOW, offset);
        offset += p.log.due.len();
        probes += 1;
        tally(&mut out, &p);
        let rung = p.rung();
        eprintln!(
            "  ladder {rate:.0} QPS: p99 {:.2} ms, backlog grew {}, failed {} -> {}",
            rung.p99_ms.unwrap_or(f64::NAN),
            rung.backlog_grew,
            rung.failed,
            rung.passes(P99_LIMIT_MS)
        );
        rung.passes(P99_LIMIT_MS)
    })
    .unwrap_or(0.0);
    let served = median(&capacity);
    out.check(fixed.iter().all(|p| p.windowed(99.0).0.is_some()), || {
        "too few samples for a p99".into()
    });
    out.metric("ops_per_s", served, "1/s");
    sys::record_peaks(&mut out);
    out.note("rates", format!("[{}, {}]", FIXED_RATES[0], FIXED_RATES[1]));
    out.note("fixed_2000qps", phase_note(&fixed[0]));
    out.note("fixed_5000qps", phase_note(&fixed[1]));
    out.note("max_qps_p99_5ms", json_num(max_qps));
    out.note("ladder_probes", probes.to_string());
    out.note("saturation_rate", json_num(SATURATION_RATE));
    out.note(
        "saturation_responses_per_s",
        format!(
            "[{}]",
            capacity
                .iter()
                .map(|c| json_num(*c))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    );
    out.note("spread_ops_per_s", json_num(quartile_spread(&capacity)));
    out.note("connections", CONNECTIONS.to_string());
    out.note(
        "failed_frac",
        json_num(out.failed as f64 / out.attempted.max(1) as f64),
    );
    Ok(out)
}
