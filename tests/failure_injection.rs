//! Failure injection: every network, container and model-payload failure
//! mode must surface as a typed error (or a tracked drop-out), never a
//! panic or a silent wrong answer.

use gaugenn::apk::apk::ApkBuilder;
use gaugenn::apk::zip::{ZipArchive, ZipWriter};
use gaugenn::core::extract::extract_app;
use gaugenn::playstore::categories::CATEGORIES;
use gaugenn::playstore::chaos::{FaultKind, FaultPlan, FaultPlanConfig};
use gaugenn::playstore::corpus::{generate, CorpusScale, Snapshot};
use gaugenn::playstore::crawler::{AppMeta, CrawlOutcome, CrawlStage, CrawledApp, Crawler};
use gaugenn::playstore::pool::{CrawlPool, CrawlPoolConfig};
use gaugenn::playstore::server::StoreServer;
use std::io::Write;
use std::net::TcpListener;

fn meta(pkg: &str) -> AppMeta {
    AppMeta {
        package: pkg.into(),
        title: "T".into(),
        category: "tools".into(),
        downloads: 1,
        rating: 4.0,
        version_code: 1,
        has_obb: false,
        has_bundle: false,
    }
}

#[test]
fn truncated_apk_is_an_error_not_a_panic() {
    let (apk, _) = ApkBuilder::new("com.t.app", 1).finish().unwrap();
    for cut in [0, 1, 10, apk.len() / 2, apk.len() - 1] {
        let crawled = CrawledApp {
            meta: meta("com.t.app"),
            apk: apk[..cut].to_vec(),
            obbs: vec![],
            bundle: None,
        };
        assert!(extract_app(&crawled).is_err(), "cut {cut}");
    }
}

#[test]
fn corrupted_model_body_drops_out_gracefully() {
    // A file with a valid TFLite signature but garbage body passes the
    // cheap probe, fails decoding, and must be counted as a drop-out.
    let mut fake = Vec::new();
    fake.extend_from_slice(&8u32.to_le_bytes());
    fake.extend_from_slice(b"TFL3");
    fake.extend_from_slice(&3u32.to_le_bytes());
    fake.extend_from_slice(&[0xFF; 64]); // not a valid graph body
    assert!(
        gaugenn::modelfmt::validate("m.tflite", &fake).is_some(),
        "signature probe accepts it"
    );
    assert!(
        gaugenn::modelfmt::decode(
            gaugenn::modelfmt::Framework::TfLite,
            &[("m.tflite".to_string(), fake.clone())]
        )
        .is_err(),
        "decode rejects it"
    );
    let mut b = ApkBuilder::new("com.t.badmodel", 1);
    b.add_asset("m.tflite", fake).unwrap();
    let crawled = CrawledApp {
        meta: meta("com.t.badmodel"),
        apk: b.finish().unwrap().0,
        obbs: vec![],
        bundle: None,
    };
    let e = extract_app(&crawled).unwrap();
    // Extraction keeps it (probe passed)…
    assert_eq!(e.models.len(), 1);
    // …and the pipeline-level decode pass is what rejects it; covered by
    // the decode assertion above plus pipeline unit behaviour.
}

#[test]
fn crawler_surfaces_server_that_closes_mid_response() {
    // A hostile "store" that accepts and immediately closes.
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        if let Ok((stream, _)) = listener.accept() {
            drop(stream);
        }
    });
    let mut crawler = Crawler::builder(addr).build().unwrap();
    assert!(crawler.categories().is_err());
    handle.join().unwrap();
}

#[test]
fn crawler_surfaces_partial_response() {
    // A server that writes half a status line and disappears.
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        if let Ok((mut stream, _)) = listener.accept() {
            // Consume nothing; emit a truncated frame.
            let _ = stream.write_all(b"GAUGE/1.0 200 OK\r\nContent-Length: 999\r\n\r\nshort");
        }
    });
    let mut crawler = Crawler::builder(addr).build().unwrap();
    assert!(crawler.categories().is_err());
    handle.join().unwrap();
}

#[test]
fn zip_bomb_sized_claims_rejected() {
    // A central directory claiming a giant entry the stream can't hold.
    let mut w = ZipWriter::new();
    w.add("x", vec![1, 2, 3]).unwrap();
    let (mut bytes, _) = w.finish();
    // Corrupt the uncompressed-size field of the central directory record
    // (the parser must bound reads by the actual stream length).
    let cd = bytes
        .windows(4)
        .rposition(|w| w == [0x50, 0x4B, 0x01, 0x02])
        .unwrap();
    bytes[cd + 24] = 0xFF;
    bytes[cd + 25] = 0xFF;
    bytes[cd + 26] = 0xFF;
    bytes[cd + 27] = 0x0F;
    assert!(ZipArchive::parse(&bytes).is_err());
}

#[test]
fn validation_never_panics_on_mutations() {
    // Mutate a valid artifact at every byte; validate() must never panic
    // (it may accept or reject).
    use gaugenn::dnn::task::Task;
    use gaugenn::dnn::zoo::{build_for_task, SizeClass};
    let g = build_for_task(Task::MovementTracking, 1, SizeClass::Small, true).graph;
    let art = gaugenn::modelfmt::encode(&g, gaugenn::modelfmt::Framework::TfLite).unwrap();
    let bytes = art.primary();
    let stride = (bytes.len() / 200).max(1);
    for i in (0..bytes.len()).step_by(stride) {
        let mut m = bytes.to_vec();
        m[i] ^= 0xA5;
        let _ = gaugenn::modelfmt::validate("m.tflite", &m);
        // Decoding a mutated stream must also be panic-free.
        let _ = gaugenn::modelfmt::decode(
            gaugenn::modelfmt::Framework::TfLite,
            &[("m.tflite".to_string(), m)],
        );
    }
}

#[test]
fn chaos_crawl_recovers_every_transient_app_deterministically() {
    // A seeded fault plan at a ≥20 % injection rate: the crawler's retries
    // must still retrieve 100 % of the (all-retriable) corpus, and two
    // runs with the same seeds must be byte-identical.
    let chaos_cfg = FaultPlanConfig {
        seed: 0xBAD5EED,
        fault_permille: 400,
        ..FaultPlanConfig::default()
    };
    let crawl = |cfg: FaultPlanConfig| {
        let corpus = generate(CorpusScale::Tiny, Snapshot::Y2021, 7);
        let server = StoreServer::start_with_chaos(corpus, FaultPlan::new(cfg)).unwrap();
        let mut crawler = Crawler::builder(server.addr()).build().unwrap();
        let outcome = crawler.crawl_all().unwrap();
        let requests = server.chaos().unwrap().requests_seen();
        let injected = server.chaos().unwrap().injected();
        (outcome, requests, injected)
    };
    let (a, requests, injected) = crawl(chaos_cfg.clone());
    assert_eq!(a.apps.len(), 52, "every transient app recovered");
    assert!(a.dropouts.is_empty(), "{:?}", a.dropouts);
    assert!(
        injected * 5 >= requests,
        "want >=20% injection, got {injected}/{requests}"
    );
    assert!(a.stats.retries > 0 && a.stats.backoff_ms_total > 0);

    let (b, _, _) = crawl(chaos_cfg);
    let sums = |o: &gaugenn::playstore::crawler::CrawlOutcome| -> Vec<(String, String)> {
        o.apps
            .iter()
            .map(|x| {
                (
                    x.meta.package.clone(),
                    gaugenn::analysis::md5::md5_hex(&x.apk),
                )
            })
            .collect()
    };
    assert_eq!(sums(&a), sums(&b), "same seeds -> byte-identical crawl");
    assert_eq!(a.stats, b.stats, "same seeds -> identical fault schedule");
}

#[test]
fn permanent_failures_surface_as_staged_dropouts() {
    // Permanent faults on one APK, one metadata fetch and one category
    // listing become staged drop-outs. A pooled crawl is the blocking
    // walk: at 1, 4 and 8 workers it lands the same apps and the same
    // ledger, error text included, with the same request, retry and
    // reconnect counts as `crawl_all`. Backoff totals may differ, since
    // retry jitter is keyed on the connection.
    let corpus = generate(CorpusScale::Tiny, Snapshot::Y2021, 7);
    let apk_victim = corpus.apps[0].package.clone();
    let meta_victim = corpus.apps[1].package.clone();
    let unlisted = corpus
        .apps
        .iter()
        .filter(|a| CATEGORIES[a.category].name == "finance")
        .count();
    let store = || {
        StoreServer::start_with_chaos(
            corpus.clone(),
            FaultPlan::new(FaultPlanConfig {
                fault_permille: 0,
                permanent_routes: vec![
                    format!("/apk/{apk_victim}"),
                    format!("/app/{meta_victim}"),
                    "/category/finance".into(),
                ],
                ..FaultPlanConfig::default()
            }),
        )
        .unwrap()
    };
    let server = store();
    let mut crawler = Crawler::builder(server.addr()).build().unwrap();
    let outcome = crawler.crawl_all().unwrap();
    assert!(unlisted > 0);
    assert_eq!(outcome.apps.len(), 50 - unlisted);
    assert_eq!(outcome.dropouts.len(), 3, "{:?}", outcome.dropouts);
    let stage_of = |pkg: &str| {
        outcome
            .dropouts
            .iter()
            .find(|d| d.package == pkg)
            .map(|d| d.stage)
    };
    assert_eq!(stage_of(&apk_victim), Some(CrawlStage::Apk));
    assert_eq!(stage_of(&meta_victim), Some(CrawlStage::Meta));
    assert_eq!(stage_of("category:finance"), Some(CrawlStage::Listing));

    let counters = |o: &CrawlOutcome| (o.stats.requests, o.stats.retries, o.stats.reconnects);
    for workers in [1, 4, 8] {
        let pooled = CrawlPool::new(CrawlPoolConfig {
            workers,
            ..CrawlPoolConfig::default()
        })
        .crawl(store().addr())
        .unwrap()
        .outcome;
        assert_eq!(pooled.dropouts, outcome.dropouts, "{workers}");
        assert_eq!(counters(&pooled), counters(&outcome), "{workers}");
        assert!(pooled.apps == outcome.apps, "{workers}: corpus diverged");
    }
}

#[test]
fn malformed_metadata_is_a_typed_error_not_a_zero() {
    // A store that serves well-framed metadata with a garbage numeric
    // field: the crawler must fail with a protocol error, never coerce
    // the field to 0.
    use gaugenn::playstore::proto::{parse_request, write_response, Response};
    use std::io::Read;
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        // One keep-alive connection is enough: a well-framed 200 with a
        // bad field is a permanent parse failure, never retried.
        if let Ok((mut stream, _)) = listener.accept() {
            let mut buf = Vec::new();
            let mut chunk = [0u8; 1024];
            loop {
                match parse_request(&buf) {
                    Ok(Some((_req, consumed))) => {
                        buf.drain(..consumed);
                        let body = "package=com.x\ntitle=T\ncategory=tools\ndownloads=lots\n\
                                    rating=4.5\nversion=1\nhas_obb=false\nhas_bundle=false\n";
                        let resp = Response::ok(body.as_bytes().to_vec());
                        if write_response(&mut stream, &resp).is_err() {
                            break;
                        }
                    }
                    Ok(None) => match stream.read(&mut chunk) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    },
                    Err(_) => break,
                }
            }
        }
    });
    let mut crawler = Crawler::builder(addr).build().unwrap();
    let err = crawler.app_meta("com.x").unwrap_err();
    assert!(
        err.to_string().contains("malformed metadata field 'downloads'"),
        "{err}"
    );
    drop(crawler);
    handle.join().unwrap();
}

#[test]
fn desynced_keepalive_stream_is_reconnected() {
    // Truncation faults desync the keep-alive stream mid-frame; the
    // crawler must drop the connection, re-dial and re-request rather
    // than parse stale bytes.
    let corpus = generate(CorpusScale::Tiny, Snapshot::Y2021, 7);
    let server = StoreServer::start_with_chaos(
        corpus,
        FaultPlan::new(FaultPlanConfig {
            fault_permille: 1000,
            kinds: vec![FaultKind::Truncate],
            max_faults_per_route: 1,
            ..FaultPlanConfig::default()
        }),
    )
    .unwrap();
    let mut crawler = Crawler::builder(server.addr()).build().unwrap();
    let cats = crawler.categories().unwrap();
    assert!(cats.contains(&"communication".to_string()));
    let apps = crawler.list_category("communication").unwrap();
    assert!(!apps.is_empty());
    assert!(
        crawler.stats().reconnects >= 1,
        "truncated frames must force a reconnect: {:?}",
        crawler.stats()
    );
}

#[test]
fn campaign_quarantines_hung_device_while_fleet_finishes() {
    use gaugenn::dnn::task::Task;
    use gaugenn::dnn::zoo::{build_for_task, SizeClass};
    use gaugenn::harness::campaign::{
        run_campaign_with, Campaign, CampaignConfig, DeviceScript,
    };
    use gaugenn::harness::job::JobSpec;
    use gaugenn::harness::master::MasterConfig;
    use gaugenn::modelfmt::Framework;
    use gaugenn::soc::sched::ThreadConfig;
    use gaugenn::soc::spec::device;
    use gaugenn::soc::Backend;
    use std::time::Duration;

    let g = build_for_task(Task::MovementTracking, 1, SizeClass::Small, true).graph;
    let files = gaugenn::modelfmt::encode(&g, Framework::TfLite).unwrap().files;
    let jobs: Vec<Campaign> = (1..=3)
        .map(|id| Campaign {
            spec: JobSpec {
                warmups: 1,
                runs: 3,
                ..JobSpec::new(id, files[0].0.clone(), Backend::Cpu(ThreadConfig::unpinned(4)))
            },
            files: files.clone(),
        })
        .collect();
    let devices = vec![device("Q845").unwrap(), device("Q888").unwrap()];
    let config = CampaignConfig {
        master: MasterConfig {
            accept_timeout: Duration::from_millis(50),
            attempts: 1,
            ..MasterConfig::default()
        },
        job_retries: 0,
        quarantine_after: 2,
        scripts: vec![DeviceScript {
            device: "Q845".into(),
            hang_jobs: u32::MAX,
        }],
        ..CampaignConfig::default()
    };
    let results = run_campaign_with(&devices, &jobs, &config);
    assert_eq!(results.len(), 6, "one result per (device, job), always");
    assert!(
        results
            .iter()
            .filter(|r| r.device == "Q888")
            .all(|r| r.outcome.is_ok()),
        "healthy device unaffected: {results:?}"
    );
    let hung: Vec<_> = results.iter().filter(|r| r.device == "Q845").collect();
    assert_eq!(hung.len(), 3);
    assert!(hung.iter().all(|r| r.outcome.is_err()));
    assert!(
        hung.iter()
            .any(|r| r.outcome.as_ref().unwrap_err().contains("quarantined")),
        "{results:?}"
    );
}

#[test]
fn harness_survives_model_deleted_between_push_and_run() {
    use gaugenn::harness::device::{DeviceAgent, MODEL_DIR};
    use gaugenn::harness::job::JobSpec;
    use gaugenn::soc::sched::ThreadConfig;
    use gaugenn::soc::spec::device;
    let mut agent = DeviceAgent::new(device("Q845").unwrap());
    // Push then delete the model before execution.
    agent
        .endpoint
        .write_local(&format!("{MODEL_DIR}/ghost.tflite"), vec![1, 2, 3]);
    agent.endpoint.write_local(&format!("{MODEL_DIR}/ghost.tflite"), vec![]);
    let job = JobSpec::new(
        1,
        "ghost.tflite",
        gaugenn::soc::Backend::Cpu(ThreadConfig::unpinned(4)),
    );
    assert!(agent.execute(&job).is_err());
}
