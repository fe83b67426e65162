//! `querybench` — QPS and tail latency of the `/query/*` route family.
//!
//! ```sh
//! cargo run --release -p gaugenn-bench --bin querybench                 # small corpus
//! cargo run --release -p gaugenn-bench --bin querybench -- --scale tiny --workers 64
//! cargo run --release -p gaugenn-bench --bin querybench -- --reactor sim
//! cargo run --release -p gaugenn-bench --bin querybench -- --json > results/BENCH_query.json
//! ```
//!
//! Crawls and analyses one snapshot, folds it into the [`CorpusIndex`],
//! attaches the index to a [`StoreServer`], then replays one seeded
//! query stream (model filters, range scans, app filters, stats) at
//! increasing connection counts — 1 up to `--workers` (default 1024)
//! concurrent connections, driven as non-blocking client state machines
//! by a handful of reactor threads. The store's serving loop is picked
//! with `--reactor epoll|sim` (default epoll) and recorded in the output,
//! so the sweeps per loop are comparable rows of
//! `results/BENCH_net.json`.
//!
//! Each run reports QPS and p50/p99 latency — nearest-rank quantiles of
//! one [`Ecdf`] over every client's samples, so the tail is a corpus
//! property, not a per-client average — plus a
//! crc32 digest over every response byte in stream order: the digest
//! must be identical at every connection count — the ranking-determinism
//! contract of DESIGN.md §13 — and the run aborts if it is not. A final
//! chaos section replays the stream against a server injecting
//! connection resets and 429/503 statuses, asserting the stream still
//! completes byte-identically (typed retries, no panics).
//!
//! `--json` prints a machine-readable record for
//! `results/BENCH_query.json` / `results/BENCH_net.json`.
//!
//! [`CorpusIndex`]: gaugenn_index::CorpusIndex
//! [`Ecdf`]: gaugenn_analysis::stats::Ecdf
//! [`StoreServer`]: gaugenn_playstore::StoreServer

use gaugenn_analysis::stats::Ecdf;
use gaugenn_apk::crc32::crc32;
use gaugenn_bench::cli::{self, ArgSpec};
use gaugenn_bench::stats::Stopwatch;
use gaugenn_core::pipeline::{Pipeline, PipelineConfig};
use gaugenn_dnn::task::Task;
use gaugenn_index::{AppQuery, ModelQuery};
use gaugenn_modelfmt::Framework;
use gaugenn_playstore::categories::CATEGORIES;
use gaugenn_playstore::chaos::{FaultKind, FaultPlan, FaultPlanConfig};
use gaugenn_playstore::corpus::{generate, CorpusScale, Snapshot};
use gaugenn_playstore::crawler::RetryPolicy;
use gaugenn_playstore::net::Endpoint;
use gaugenn_playstore::proto::Response;
use gaugenn_playstore::route::Route;
use gaugenn_playstore::server::{ServerOptions, StoreServer};
use gaugenn_playstore::{drive_lanes, LaneJob, LaneOpts, LaneSpec};
use std::time::Duration;

/// One measured replay of the stream at a fixed connection count.
struct RunResult {
    clients: usize,
    wall_ms: f64,
    qps: f64,
    p50_us: f64,
    p99_us: f64,
    digest: u32,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = ArgSpec {
        takes_workers: true,
        takes_json: true,
        takes_reactor: true,
        default_workers: 1024,
        ..ArgSpec::new("querybench", "QPS and tail latency of the /query/* routes")
    };
    let args = cli::parse_or_exit(&spec);
    let (scale, seed) = (args.scale, args.seed);

    // Stage 1: build the index the server will answer from — the same
    // crawl + analyse + ingest pipeline stage `repro` runs.
    eprintln!("querybench — scale {scale:?}, seed {seed}: building the corpus index...");
    let report = Pipeline::new(PipelineConfig::builder(scale, Snapshot::Y2021, seed).build()).run()?;
    let index = report.corpus_index.clone();
    eprintln!(
        "  index: {} models, {} apps, snapshots {:?}",
        index.model_count(),
        index.app_count(),
        index.snapshot_labels()
    );

    let queries = stream(seed, query_count(scale, args.workers));
    let counts = client_counts(args.workers);

    // Stage 2: the calm sweep. One server, one seeded stream, replayed
    // at every connection count; every digest must match the first.
    let server = StoreServer::start_with(
        generate(scale, Snapshot::Y2021, seed),
        ServerOptions {
            chaos: None,
            index: Some(index.clone()),
            reactor: args.reactor,
            ..ServerOptions::default()
        },
    )?;
    // The loop the server runs — the `reactor` column of the output.
    let reactor = server.mode().name();
    eprintln!("  reactor: {reactor}");
    let mut runs: Vec<RunResult> = Vec::new();
    for &clients in &counts {
        let run = replay(&server.endpoint(), &queries, clients, seed)?;
        eprintln!(
            "  {:>4} client(s): {:>8.1} ms, {:>8.0} qps, p50 {:>6.0} us, p99 {:>6.0} us, digest {:08x}",
            run.clients, run.wall_ms, run.qps, run.p50_us, run.p99_us, run.digest
        );
        runs.push(run);
    }
    let digest = runs[0].digest;
    for run in &runs {
        assert_eq!(
            run.digest, digest,
            "response stream must be byte-identical at every connection count \
             ({} clients diverged)",
            run.clients
        );
    }

    // Stage 3: the same stream under injected faults. Two faults per
    // route stays under the retry budget (4 attempts), so every query
    // still completes — with the same bytes — through typed retries.
    let chaos = FaultPlan::new(FaultPlanConfig {
        seed: seed ^ 0x5eed,
        fault_permille: 300,
        kinds: vec![FaultKind::Reset, FaultKind::TransientStatus],
        max_faults_per_route: 2,
        ..FaultPlanConfig::default()
    });
    let stormy_server = StoreServer::start_with(
        generate(scale, Snapshot::Y2021, seed),
        ServerOptions {
            chaos: Some(chaos),
            index: Some(index),
            reactor: args.reactor,
            ..ServerOptions::default()
        },
    )?;
    let chaos_clients = *counts.get(2).unwrap_or(counts.last().expect("counts non-empty"));
    let chaos_run = replay(&stormy_server.endpoint(), &queries, chaos_clients, seed)?;
    eprintln!(
        "  chaos ({} client(s), resets + 429/503): {:>8.1} ms, {:>8.0} qps, digest {:08x}",
        chaos_run.clients, chaos_run.wall_ms, chaos_run.qps, chaos_run.digest
    );
    assert_eq!(
        chaos_run.digest, digest,
        "chaos must only cost retries, never change response bytes"
    );

    if args.json {
        println!("{{");
        println!("  \"bench\": \"query-serving\",");
        println!("  \"scale\": \"{scale:?}\",");
        println!("  \"seed\": {seed},");
        println!("  \"reactor\": \"{reactor}\",");
        println!("  \"queries\": {},", queries.len());
        println!("  \"digest\": \"{digest:08x}\",");
        println!("  \"runs\": [");
        for (i, r) in runs.iter().enumerate() {
            let comma = if i + 1 == runs.len() { "" } else { "," };
            println!(
                "    {{\"clients\": {}, \"reactor\": \"{reactor}\", \"wall_ms\": {:.1}, \
                 \"qps\": {:.0}, \"p50_us\": {:.0}, \"p99_us\": {:.0}}}{comma}",
                r.clients, r.wall_ms, r.qps, r.p50_us, r.p99_us
            );
        }
        println!("  ],");
        println!(
            "  \"chaos\": {{\"clients\": {}, \"reactor\": \"{reactor}\", \"wall_ms\": {:.1}, \
             \"qps\": {:.0}, \"byte_identical\": true}}",
            chaos_run.clients, chaos_run.wall_ms, chaos_run.qps
        );
        println!("}}");
    } else {
        println!(
            "query serving — scale {scale:?}, seed {seed}, reactor {reactor}, {} queries",
            queries.len()
        );
        println!("clients   wall ms       qps   p50 us   p99 us");
        for r in &runs {
            println!(
                "{:>7}  {:>8.1}  {:>8.0}  {:>7.0}  {:>7.0}",
                r.clients, r.wall_ms, r.qps, r.p50_us, r.p99_us
            );
        }
        println!(
            "all {} runs byte-identical (digest {digest:08x}); chaos run byte-identical too",
            runs.len() + 1
        );
    }
    Ok(())
}

/// Reactor driver threads — the whole point of the non-blocking client
/// is that a handful of threads holds every connection in flight
/// simultaneously.
const SWARM_DRIVERS: usize = 8;

/// A swarm lane's route plan, stamping each turn with its stream index
/// and wall-clock latency (latency timing lives here in the bench, not
/// in the library, so the deterministic client stays clock-free).
struct TimedJob {
    plan: Vec<(usize, Route)>,
    next: usize,
    inflight: Option<(usize, Stopwatch)>,
    done: Vec<(usize, Vec<u8>, f64)>,
    failed: Option<String>,
}

impl LaneJob for TimedJob {
    fn next_request(&mut self) -> Option<(Route, bool)> {
        if self.failed.is_some() {
            return None;
        }
        let (i, route) = self.plan.get(self.next)?.clone();
        self.next += 1;
        self.inflight = Some((i, Stopwatch::start()));
        Some((route, false))
    }

    fn on_result(&mut self, result: gaugenn_playstore::Result<Response>) {
        let (i, t) = self.inflight.take().expect("lane result without a request");
        match result {
            Ok(resp) => {
                let mut bytes = resp.status.to_be_bytes().to_vec();
                bytes.extend_from_slice(&resp.body);
                self.done.push((i, bytes, t.elapsed().as_secs_f64() * 1e6));
            }
            Err(e) => self.failed = Some(format!("query {i}: {e}")),
        }
    }
}

/// Replay `queries` through `clients` concurrent connections, run as
/// [`LaneJob`] state machines over `SWARM_DRIVERS` reactor threads that
/// hold every connection in flight at once. Query `i` goes to connection
/// `i % clients`; responses are digested in stream order, so the digest
/// is independent of completion order, and every connection's latency
/// samples land in one ECDF before quantiles are taken.
fn replay(
    endpoint: &Endpoint,
    queries: &[Route],
    clients: usize,
    seed: u64,
) -> Result<RunResult, Box<dyn std::error::Error>> {
    let n = queries.len();
    let drivers = clients.min(SWARM_DRIVERS);
    let mut responses: Vec<Option<Vec<u8>>> = vec![None; n];
    let mut latencies_us: Vec<f64> = Vec::with_capacity(n);
    let t0 = Stopwatch::start();
    let harvested: Vec<Result<_, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..drivers)
            .map(|d| {
                let endpoint = endpoint.clone();
                scope.spawn(move || {
                    // Driver d owns connections d, d+D, …; connection c's
                    // t-th query is stream index t * clients + c.
                    let specs: Vec<LaneSpec<TimedJob>> = (d..clients)
                        .step_by(drivers)
                        .filter_map(|c| {
                            let plan: Vec<(usize, Route)> = (0..)
                                .map(|t| t * clients + c)
                                .take_while(|&i| i < n)
                                .map(|i| (i, queries[i].clone()))
                                .collect();
                            (!plan.is_empty()).then(|| LaneSpec {
                                connection_id: c as u64,
                                retry: RetryPolicy {
                                    jitter_seed: seed ^ c as u64,
                                    ..RetryPolicy::default()
                                },
                                job: TimedJob {
                                    plan,
                                    next: 0,
                                    inflight: None,
                                    done: Vec::new(),
                                    failed: None,
                                },
                            })
                        })
                        .collect();
                    let opts = LaneOpts {
                        connect_timeout: Duration::from_secs(30),
                        read_timeout: Duration::from_secs(30),
                        sim_seed: seed ^ d as u64,
                        ..LaneOpts::default()
                    };
                    drive_lanes(&endpoint, specs, &opts, None)
                        .map_err(|e| format!("swarm driver {d}: {e}"))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("swarm driver panicked"))
            .collect()
    });
    for res in harvested {
        let (outcomes, _report) = res?;
        for o in outcomes {
            if let Some(reason) = o.job.failed {
                return Err(reason.into());
            }
            for (i, bytes, dt) in o.job.done {
                responses[i] = Some(bytes);
                latencies_us.push(dt);
            }
        }
    }
    let wall = t0.elapsed();
    let mut all = Vec::new();
    for (i, r) in responses.into_iter().enumerate() {
        all.extend(r.unwrap_or_else(|| panic!("query {i} was never executed")));
    }
    let latencies = Ecdf::new(latencies_us);
    Ok(RunResult {
        clients,
        wall_ms: wall.as_secs_f64() * 1e3,
        qps: n as f64 / wall.as_secs_f64(),
        p50_us: latencies.quantile(0.5),
        p99_us: latencies.quantile(0.99),
        digest: crc32(&all),
    })
}

/// Seeded query stream: a deterministic mix of the route family's
/// shapes — full scans, dimension filters, range scans, app queries and
/// stats — so every replay issues byte-identical requests.
fn stream(seed: u64, n: usize) -> Vec<Route> {
    let mut state = seed;
    let mut next = move || splitmix64(&mut state);
    (0..n)
        .map(|_| {
            let r = next();
            match r % 8 {
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
                    categories: vec![CATEGORIES
                        [(next() % CATEGORIES.len() as u64) as usize]
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
            }
        })
        .collect()
}

/// Stream length: enough that per-connection setup (the connect)
/// amortises away even at the top connection count — 16 queries per
/// connection minimum — scaled down for the tiny corpus.
fn query_count(scale: CorpusScale, max_clients: usize) -> usize {
    let base = match scale {
        CorpusScale::Tiny => 256,
        CorpusScale::Small => 1024,
        CorpusScale::Paper => 2048,
    };
    base.max(max_clients * 16)
}

/// Connection counts to sweep: 1, then powers of two through the C10k
/// range (8 … 512) below `max`, always ending at `max` itself — so the
/// default sweep is 1, 8, 32, 128, 256, 512, 1024.
fn client_counts(max: usize) -> Vec<usize> {
    let mut counts = vec![1usize];
    for c in [8usize, 32, 128, 256, 512] {
        if c < max {
            counts.push(c);
        }
    }
    if max > 1 {
        counts.push(max);
    }
    counts
}

/// SplitMix64 — the repo's standard seedable generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}
