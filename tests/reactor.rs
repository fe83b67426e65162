//! Reactor determinism and cross-loop equivalence (DESIGN.md §14).
//!
//! Three contracts ride on the event-driven store:
//!
//! 1. **Readiness replay** — under `ReactorMode::Sim`, event delivery
//!    order is a pure function of the reactor seed, witnessed by the
//!    reactor's FNV digest over every delivered `(round, token,
//!    interest)` tuple. Same seed ⇒ same digest and byte-identical
//!    responses.
//! 2. **Loop equivalence** — the epoll and sim serving loops both
//!    reduce a request to the same [`Served`] verdict, so response
//!    streams (calm or chaotic) are byte-identical across loops.
//! 3. **Torn-write robustness** — the reactor's incremental parser must
//!    produce identical responses no matter how request bytes are split
//!    across readiness events.
//! 4. **Client-side replay** — the non-blocking client state machines
//!    ([`drive_lanes`]) hold hundreds of lanes in flight from one poll
//!    loop, survive the chaos trio (reset, mid-frame stall, truncated
//!    body + range resume), and replay the whole multi-connection
//!    schedule bit-for-bit from the seeds in lockstep.
//!
//! [`Served`]: gaugenn::playstore::Served
//! [`drive_lanes`]: gaugenn::playstore::drive_lanes

use gaugenn::core::pipeline::{Pipeline, PipelineConfig};
use gaugenn::index::{AppDoc, AppSnap, CorpusIndex, ModelDoc, ModelQuery};
use gaugenn::modelfmt::Framework;
use gaugenn::playstore::corpus::{generate, CorpusScale, Snapshot};
use gaugenn::playstore::proto::read_response;
use gaugenn::playstore::{
    drive_lanes, CrawlStats, Endpoint, FaultKind, FaultPlan, FaultPlanConfig, LaneOpts, LaneSpec,
    LockstepServer, QueryClient, ReactorMode, RetryPolicy, Route, RouteListJob, ServerOptions,
    StoreServer,
};
use std::io::{BufReader, Write};
use std::sync::Arc;
use std::time::Duration;

/// A small index so `/query/*` routes serve real ranked rows.
fn synthetic_index() -> Arc<CorpusIndex> {
    let mut idx = CorpusIndex::new();
    let model = |checksum: &str, flops: u64| ModelDoc {
        checksum: checksum.into(),
        name: format!("net {checksum}"),
        framework: Framework::TfLite,
        task: None,
        quantised: false,
        size_bytes: flops / 2,
        flops,
        params: flops / 4,
        apps_by_snapshot: [("Apr 2021".to_string(), 1u64)].into_iter().collect(),
    };
    idx.ingest_snapshot(
        "Apr 2021",
        vec![model("aaa", 300), model("bbb", 100), model("ccc", 200)],
        vec![AppDoc {
            package: "com.example".into(),
            category: "maps & navigation".into(),
            by_snapshot: [(
                "Apr 2021".to_string(),
                AppSnap {
                    models: 3,
                    ml: true,
                    cloud: false,
                },
            )]
            .into_iter()
            .collect(),
        }],
    );
    Arc::new(idx)
}

fn start(mode: ReactorMode, reactor_seed: u64, chaos: Option<FaultPlan>) -> StoreServer {
    StoreServer::start_with(
        generate(CorpusScale::Tiny, Snapshot::Y2021, 7),
        ServerOptions {
            chaos,
            index: Some(synthetic_index()),
            reactor: mode,
            reactor_seed,
        },
    )
    .expect("server")
}

/// The scripted request burst: raw GAUGE/1.0 frames for a fixed route
/// mix, one `Vec<u8>` per request so callers control write granularity.
fn scripted_requests() -> Vec<Vec<u8>> {
    [
        Route::Categories,
        Route::QueryStats,
        Route::QueryModels(ModelQuery::default()),
        Route::Categories,
        Route::QueryModels(ModelQuery {
            limit: Some(2),
            ..ModelQuery::default()
        }),
    ]
    .iter()
    .map(|r| format!("GET {} GAUGE/1.0\r\n\r\n", r.wire_path()).into_bytes())
    .collect()
}

/// Run the scripted burst against a sim server, writing request bytes in
/// `chunk`-sized slices, and return (responses, reactor digest).
fn scripted_sim_run(reactor_seed: u64, chunk: usize) -> (Vec<(u16, Vec<u8>)>, u64) {
    let mut server = start(ReactorMode::Sim, reactor_seed, None);
    assert_eq!(server.mode(), ReactorMode::Sim);
    let Endpoint::Sim(net) = server.endpoint() else {
        panic!("sim store must expose a sim endpoint");
    };
    let stream = net.connect(Duration::from_secs(10));
    let mut writer = stream.clone();
    let mut reader = BufReader::new(stream);
    let requests = scripted_requests();
    // Pipeline every request up front — the whole burst is buffered
    // before the first response is read, so the reactor sees a scripted,
    // scheduler-independent byte stream.
    for req in &requests {
        for piece in req.chunks(chunk) {
            writer.write_all(piece).expect("scripted write");
        }
    }
    let responses: Vec<(u16, Vec<u8>)> = requests
        .iter()
        .map(|_| {
            let resp = read_response(&mut reader).expect("scripted response");
            (resp.status, resp.body)
        })
        .collect();
    let digest = server
        .reactor_digest()
        .expect("sim server exposes its event digest");
    server.stop();
    (responses, digest)
}

#[test]
fn same_seed_replays_the_same_event_order_and_bytes() {
    let (resp_a, digest_a) = scripted_sim_run(42, 1 << 20);
    let (resp_b, digest_b) = scripted_sim_run(42, 1 << 20);
    assert_eq!(
        digest_a, digest_b,
        "same seed must deliver readiness events in the same order"
    );
    assert_eq!(resp_a, resp_b, "same seed must produce identical bytes");
    assert_ne!(digest_a, 0, "the digest must witness delivered events");
}

#[test]
fn torn_writes_parse_identically_through_the_real_loop() {
    // One byte per write is the worst case: every request head arrives
    // across many readiness events. The event *order* may differ from
    // the atomic-write run; the response bytes must not.
    let (atomic, _) = scripted_sim_run(42, 1 << 20);
    for chunk in [1usize, 2, 3, 7] {
        let (torn, _) = scripted_sim_run(42, chunk);
        assert_eq!(atomic, torn, "chunk size {chunk} changed response bytes");
    }
}

/// Replay a fixed query workload through one keep-alive client; returns
/// the concatenated (status, body) stream.
fn query_workload(server: &StoreServer) -> Vec<(u16, Vec<u8>)> {
    let mut client = QueryClient::builder_at(server.endpoint())
        .connection_id(5)
        .build()
        .expect("client");
    let routes = [
        Route::QueryModels(ModelQuery::default()),
        Route::Categories,
        Route::QueryModels(ModelQuery {
            frameworks: vec!["tflite".into()],
            limit: Some(2),
            ..ModelQuery::default()
        }),
        Route::QueryStats,
    ];
    routes
        .iter()
        .map(|r| {
            let resp = client.raw(r).expect("query survives");
            (resp.status, resp.body)
        })
        .collect()
}

fn chaos_plan() -> FaultPlan {
    FaultPlan::new(FaultPlanConfig {
        seed: 11,
        fault_permille: 400,
        kinds: vec![FaultKind::Reset, FaultKind::TransientStatus],
        max_faults_per_route: 2,
        ..FaultPlanConfig::default()
    })
}

#[test]
fn epoll_and_sim_loops_serve_identical_bytes_calm_and_chaotic() {
    let run = |mode, chaos: Option<FaultPlan>| query_workload(&start(mode, 1, chaos));
    let calm = run(ReactorMode::Epoll, None);
    assert_eq!(calm, run(ReactorMode::Sim, None), "epoll vs sim diverged (calm)");
    let stormy = run(ReactorMode::Epoll, Some(chaos_plan()));
    assert_eq!(
        stormy,
        run(ReactorMode::Sim, Some(chaos_plan())),
        "epoll vs sim diverged (chaos)"
    );
    assert_eq!(
        calm, stormy,
        "chaos must only cost retries, never change response bytes"
    );
}

#[test]
fn sim_pipeline_report_matches_the_other_loops() {
    // The full crawl → extract → analyse pipeline, pinned to each loop
    // (epoll, sim): the rendered report must be byte-identical, chaos
    // included.
    let run = |mode: ReactorMode, chaos: bool| {
        let mut builder =
            PipelineConfig::builder(CorpusScale::Tiny, Snapshot::Y2021, 99).reactor(mode);
        if chaos {
            builder = builder.chaos(FaultPlanConfig {
                seed: 5,
                fault_permille: 350,
                kinds: vec![FaultKind::Reset, FaultKind::TransientStatus],
                max_faults_per_route: 2,
                ..FaultPlanConfig::default()
            });
        }
        Pipeline::new(builder.build())
            .run()
            .expect("pipeline")
            .render_text()
    };
    let baseline = run(ReactorMode::Epoll, false);
    assert_eq!(baseline, run(ReactorMode::Sim, false), "sim calm");
    let chaotic = run(ReactorMode::Epoll, true);
    assert_eq!(chaotic, run(ReactorMode::Sim, true), "sim chaos");
    assert_eq!(
        baseline, chaotic,
        "chaos under the retry budget must not change the report"
    );
}

/// One lockstep drive of `lanes` keep-alive [`RouteListJob`] lanes (two
/// listing routes each) against a steppable sim server: no threads, no
/// wall clock. Returns (client digest, server digest, peak in-flight,
/// response bodies in lane-major order).
fn lockstep_burst(
    lanes: u64,
    client_seed: u64,
    server_seed: u64,
) -> (u64, u64, usize, Vec<Vec<u8>>) {
    let mut server = LockstepServer::start(
        generate(CorpusScale::Tiny, Snapshot::Y2021, 7),
        ServerOptions {
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
                count: 50,
            },
            false,
        ),
    ];
    let specs = (1..=lanes)
        .map(|id| LaneSpec {
            connection_id: id,
            retry: RetryPolicy::default(),
            job: RouteListJob::new(routes.clone()),
        })
        .collect();
    let opts = LaneOpts {
        sim_seed: client_seed,
        ..LaneOpts::default()
    };
    let endpoint = server.endpoint();
    let (outcomes, report) =
        drive_lanes(&endpoint, specs, &opts, Some(&mut || server.step())).expect("lockstep drive");
    let bodies = outcomes
        .into_iter()
        .flat_map(|o| o.job.into_results())
        .map(|r| r.expect("calm lockstep lane answers").body)
        .collect();
    (
        report.digest,
        server.reactor_digest(),
        report.peak_in_flight,
        bodies,
    )
}

#[test]
fn one_poll_loop_holds_256_lanes_in_flight_and_replays() {
    // The tentpole scaling claim: a single drive_lanes loop (one thread)
    // sustains 256 simultaneously in-flight connections — and the whole
    // multi-connection schedule replays bit-for-bit from the seeds.
    let first = lockstep_burst(256, 21, 9);
    assert!(
        first.2 >= 256,
        "one loop must hold all 256 lanes in flight, got {}",
        first.2
    );
    assert_eq!(first.3.len(), 512, "every lane answers both routes");
    assert_ne!(first.0, 0, "client digest records delivered events");
    let again = lockstep_burst(256, 21, 9);
    assert_eq!(
        (first.0, first.1, first.2),
        (again.0, again.1, again.2),
        "same seeds must replay the same event schedule"
    );
    assert_eq!(first.3, again.3, "same seeds must produce identical bytes");
    let reseeded = lockstep_burst(256, 22, 9);
    assert_eq!(first.3, reseeded.3, "the seed may only reorder events, never change bytes");
}

/// Four lanes of resumable APK downloads in lockstep, optionally under
/// the chaos trio (reset / truncate / mid-frame stall). Returns (client
/// digest, server digest, bodies in lane-major order, merged counters).
fn lockstep_apk_run(chaos: bool) -> (u64, u64, Vec<Vec<u8>>, CrawlStats) {
    let corpus = generate(CorpusScale::Tiny, Snapshot::Y2021, 7);
    let packages: Vec<String> = corpus.apps.iter().take(12).map(|a| a.package.clone()).collect();
    let plan = chaos.then(|| {
        FaultPlan::new(FaultPlanConfig {
            seed: 0xBADCAB,
            fault_permille: 600,
            kinds: vec![FaultKind::Reset, FaultKind::Truncate, FaultKind::Stall],
            max_faults_per_route: 2,
            stall_ms: 5,
            ..FaultPlanConfig::default()
        })
    });
    let mut server = LockstepServer::start(
        corpus,
        ServerOptions {
            chaos: plan,
            reactor_seed: 17,
            ..ServerOptions::default()
        },
    );
    let lanes = 4usize;
    let specs = (0..lanes)
        .map(|c| LaneSpec {
            connection_id: c as u64 + 1,
            retry: RetryPolicy::default(),
            job: RouteListJob::new(
                packages
                    .iter()
                    .skip(c)
                    .step_by(lanes)
                    .map(|p| (Route::Apk { package: p.clone() }, true))
                    .collect(),
            ),
        })
        .collect();
    let opts = LaneOpts {
        sim_seed: 31,
        ..LaneOpts::default()
    };
    let endpoint = server.endpoint();
    let (outcomes, report) =
        drive_lanes(&endpoint, specs, &opts, Some(&mut || server.step())).expect("lockstep drive");
    let mut stats = CrawlStats::default();
    let mut bodies = Vec::new();
    for o in outcomes {
        stats.merge(&o.stats);
        for r in o.job.into_results() {
            bodies.push(r.expect("bounded chaos always recovers").body);
        }
    }
    (report.digest, server.reactor_digest(), bodies, stats)
}

#[test]
fn chaos_trio_through_the_nonblocking_client_recovers_and_replays() {
    // Satellite contract: reset, truncated-body-with-range-resume and
    // mid-frame stall all pass through the client state machines without
    // changing a single payload byte — and the chaotic schedule itself
    // replays bit-for-bit from the seeds.
    let calm = lockstep_apk_run(false);
    let stormy = lockstep_apk_run(true);
    assert_eq!(
        calm.2, stormy.2,
        "chaos must only cost retries, never change APK bytes"
    );
    assert!(stormy.3.retries > 0, "faults must force retries: {:?}", stormy.3);
    assert!(
        stormy.3.range_resumes > 0,
        "truncated bodies must resume with a ranged re-request: {:?}",
        stormy.3
    );
    assert!(
        stormy.3.reconnects > 0,
        "resets and stalls must force re-dials: {:?}",
        stormy.3
    );
    let replay = lockstep_apk_run(true);
    assert_eq!(
        (stormy.0, stormy.1, &stormy.3),
        (replay.0, replay.1, &replay.3),
        "same seeds must replay digests and counters exactly"
    );
    assert_eq!(stormy.2, replay.2, "replayed bytes must match");
}
