//! Concurrency: the store server must serve parallel crawlers with
//! identical, uncorrupted results, and the multi-device harness campaign
//! must be deterministic in content (not ordering).

use gaugenn::playstore::chaos::{FaultPlan, FaultPlanConfig};
use gaugenn::playstore::corpus::{generate, CorpusScale, Snapshot};
use gaugenn::playstore::crawler::{CrawlOutcome, Crawler, DropOut};
use gaugenn::playstore::pool::{CrawlPool, CrawlPoolConfig};
use gaugenn::playstore::server::{ServerOptions, StoreServer};
use gaugenn::playstore::{AdmissionConfig, AdmissionController, ReactorMode};
use std::sync::Arc;

#[test]
fn parallel_crawlers_get_identical_corpora() {
    let server = StoreServer::start(generate(CorpusScale::Tiny, Snapshot::Y2021, 7)).unwrap();
    let addr = server.addr();
    let crawl = move |conn: u64| {
        let mut c = Crawler::builder(addr)
            .connection_id(conn)
            .build()
            .expect("connect");
        let outcome = c.crawl_all().expect("crawl");
        assert!(outcome.dropouts.is_empty(), "clean store drops nothing");
        let mut sums: Vec<(String, String)> = outcome
            .apps
            .iter()
            .map(|a| {
                (
                    a.meta.package.clone(),
                    gaugenn::analysis::md5::md5_hex(&a.apk),
                )
            })
            .collect();
        sums.sort();
        sums
    };
    let handles: Vec<_> = (0..4u64)
        .map(|i| std::thread::spawn(move || crawl(i)))
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for r in &results[1..] {
        assert_eq!(r, &results[0], "all crawlers must see identical bytes");
    }
    assert!(server.requests_served() >= 4 * 52);
}

#[test]
fn interleaved_requests_do_not_cross_wires() {
    // Two crawlers ping-pong between different endpoints; responses must
    // stay matched to their connection.
    let server = StoreServer::start(generate(CorpusScale::Tiny, Snapshot::Y2021, 7)).unwrap();
    let addr = server.addr();
    let t1 = std::thread::spawn(move || {
        let mut c = Crawler::builder(addr).connection_id(1).build().unwrap();
        for _ in 0..20 {
            let cats = c.categories().unwrap();
            assert!(cats.contains(&"communication".to_string()));
        }
    });
    let t2 = std::thread::spawn(move || {
        let mut c = Crawler::builder(addr).connection_id(2).build().unwrap();
        for _ in 0..20 {
            let apps = c.list_category("communication").unwrap();
            assert!(!apps.is_empty());
            assert!(apps.iter().all(|p| p.starts_with("com.")));
        }
    });
    t1.join().unwrap();
    t2.join().unwrap();
}

#[test]
fn eight_worker_chaos_crawl_is_deterministic() {
    // The tentpole guarantee: with per-connection fault schedules and a
    // static category partition, a seeded chaos run through an 8-worker
    // pool merges to a byte-identical CrawlOutcome every time — corpus,
    // drop-out ledger and summed resilience counters included.
    let run = || {
        let corpus = generate(CorpusScale::Tiny, Snapshot::Y2021, 7);
        let server = StoreServer::start_with_chaos(
            corpus,
            FaultPlan::new(FaultPlanConfig {
                seed: 0xD15EA5E,
                fault_permille: 300,
                ..FaultPlanConfig::default()
            }),
        )
        .unwrap();
        CrawlPool::new(CrawlPoolConfig {
            workers: 8,
            ..CrawlPoolConfig::default()
        })
        .crawl(server.addr())
        .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.outcome.dropouts, b.outcome.dropouts);
    assert_eq!(a.outcome.stats, b.outcome.stats);
    // Not `assert_eq!`, whose message would print every APK byte.
    assert!(a.outcome == b.outcome, "merged outcome must be byte-identical");
    assert_eq!(a.admission, b.admission, "fleet totals must be stable");
    assert_eq!(a.outcome.apps.len(), 52, "every app recovered despite chaos");
    assert!(a.outcome.dropouts.is_empty(), "{:?}", a.outcome.dropouts);
    assert!(
        a.outcome.stats.retries > 0,
        "the plan must actually have injected faults: {:?}",
        a.outcome.stats
    );
}

/// A freshly started tiny store on the TCP (epoll) or sim endpoint, calm
/// or under the suite's chaos plan. The plan keeps per-(connection,
/// route) fault budgets inside the server, so every crawl that is
/// compared runs against its own store with untouched budgets.
fn fresh_store(sim: bool, chaos: bool) -> StoreServer {
    let plan = chaos.then(|| {
        FaultPlan::new(FaultPlanConfig {
            seed: 0xD15EA5E,
            fault_permille: 300,
            ..FaultPlanConfig::default()
        })
    });
    StoreServer::start_with(
        generate(CorpusScale::Tiny, Snapshot::Y2021, 7),
        ServerOptions {
            chaos: plan,
            reactor: if sim { ReactorMode::Sim } else { ReactorMode::Epoll },
            ..ServerOptions::default()
        },
    )
    .unwrap()
}

#[test]
fn one_lane_pool_matches_two_blocking_crawlers() {
    // The synchronous `Crawler` is the reference the pool's lanes are
    // held to. A one-worker, one-connection pool issues exactly what
    // two crawlers sharing one admission controller would: connection 0
    // fetches the categories and lists each one (a failed listing is the
    // category's drop-out), then connection 1 walks the listed apps in
    // index order. The whole outcome — apps, drop-outs and merged stats
    // — must agree on both endpoints, calm and chaotic, and through a
    // storm that opens the breaker: with a failure threshold of 1 the
    // chaos plan's transient statuses trip it, so rejected attempts run
    // the lanes' breaker path.
    for sim in [false, true] {
        for (chaos, storm) in [(false, false), (true, false), (true, true)] {
            let mut admission = AdmissionConfig::default();
            if storm {
                admission.failure_threshold = 1;
            }
            let pooled = CrawlPool::new(CrawlPoolConfig {
                workers: 1,
                admission: admission.clone(),
                ..CrawlPoolConfig::default()
            })
            .crawl_at(&fresh_store(sim, chaos).endpoint())
            .unwrap();

            let store = fresh_store(sim, chaos);
            let admission = Arc::new(AdmissionController::new(admission));
            let crawler = |id: u64| {
                Crawler::builder_at(store.endpoint())
                    .connection_id(id)
                    .admission(Arc::clone(&admission))
                    .build()
                    .unwrap()
            };
            let mut lister = crawler(0);
            let listings: Vec<_> = lister
                .categories()
                .unwrap()
                .iter()
                .map(|cat| {
                    lister
                        .list_category(cat)
                        .map_err(|e| DropOut::listing(cat, &e))
                })
                .collect();
            let mut walker = crawler(1);
            let (mut apps, mut dropouts) = (Vec::new(), Vec::new());
            for listing in listings {
                match listing {
                    Ok(packages) => {
                        let (a, d) = walker.crawl_listed(&packages);
                        apps.extend(a);
                        dropouts.extend(d);
                    }
                    Err(dropout) => dropouts.push(dropout),
                }
            }
            let mut stats = lister.stats().clone();
            stats.merge(walker.stats());
            let reference = CrawlOutcome {
                apps,
                dropouts,
                stats,
            };
            if storm {
                assert!(
                    reference.stats.breaker_rejections > 0,
                    "the storm must open the breaker: {:?}",
                    reference.stats
                );
            } else {
                assert_eq!(reference.apps.len(), 52, "sim={sim} chaos={chaos}");
                assert_eq!(chaos, reference.stats.retries > 0, "{:?}", reference.stats);
            }
            let case = format!("sim={sim} chaos={chaos} storm={storm}");
            assert_eq!(pooled.outcome.dropouts, reference.dropouts, "{case}");
            assert_eq!(pooled.outcome.stats, reference.stats, "{case}");
            assert!(pooled.outcome == reference, "{case}: corpus diverged");
        }
    }
}

#[test]
fn crawl_outcome_matrix_across_endpoints_workers_and_connections() {
    // The pool's acceptance matrix: the merged corpus and drop-out ledger
    // are byte-identical across endpoints {tcp: epoll lanes, sim: sim
    // lanes}, worker counts {1, 4, 8} and connections-per-worker
    // {1, 64, 256}, calm and chaotic — and at a fixed topology the whole
    // outcome (summed resilience counters included) matches between the
    // two endpoints. Per-worker reports are not compared: which worker
    // drains the last burst token is a race (see `PoolOutcome`).
    let crawl = |sim: bool, chaos: bool, workers: usize, conns: usize| {
        CrawlPool::new(CrawlPoolConfig {
            workers,
            connections_per_worker: conns,
            ..CrawlPoolConfig::default()
        })
        .crawl_at(&fresh_store(sim, chaos).endpoint())
        .unwrap()
    };

    for chaos in [false, true] {
        let reference = crawl(false, chaos, 1, 1).outcome;
        assert_eq!(reference.apps.len(), 52, "every app recovered (chaos={chaos})");
        assert!(reference.dropouts.is_empty(), "{:?}", reference.dropouts);

        let fixed = [false, true].map(|sim| crawl(sim, chaos, 4, 64));
        let (over_tcp, over_sim) = (&fixed[0].outcome, &fixed[1].outcome);
        assert_eq!(over_tcp.dropouts, over_sim.dropouts, "chaos={chaos}");
        assert_eq!(over_tcp.stats, over_sim.stats, "chaos={chaos}");
        assert!(
            over_tcp == over_sim,
            "tcp and sim endpoints diverged at 4x64 (chaos={chaos})"
        );
        for (sim, run) in [false, true].into_iter().zip(&fixed) {
            // Lanes really multiplex: they are category-granular, so the
            // tiny corpus caps the peak at categories-per-worker — still
            // well past one.
            assert!(
                run.peak_in_flight > 1,
                "sim={sim} lanes must overlap, got peak {}",
                run.peak_in_flight
            );
            let check = |outcome: &CrawlOutcome, workers: usize, conns: usize| {
                assert_eq!(
                    outcome.dropouts, reference.dropouts,
                    "sim={sim} w={workers} c={conns} chaos={chaos}: ledger diverged"
                );
                assert!(
                    outcome.apps == reference.apps,
                    "sim={sim} w={workers} c={conns} chaos={chaos}: corpus diverged"
                );
            };
            check(&run.outcome, 4, 64);
            for (workers, conns) in [(1, 1), (8, 256)] {
                if sim || workers != 1 {
                    // (tcp, 1, 1) is the reference itself.
                    check(&crawl(sim, chaos, workers, conns).outcome, workers, conns);
                }
            }
        }
    }
}

#[test]
fn analysis_worker_count_never_changes_the_report() {
    // The analysis-pool guarantee: the full pipeline's deterministic text
    // render is byte-identical at any analysis worker count, with and
    // without a chaotic store in front of the crawl.
    use gaugenn::core::pipeline::{Pipeline, PipelineConfig};

    let render = |analysis_workers: usize, chaos: bool| {
        let mut cfg = PipelineConfig::tiny(Snapshot::Y2021, 7);
        cfg.analysis_workers = analysis_workers;
        if chaos {
            cfg.chaos = Some(FaultPlanConfig {
                seed: 0xD15EA5E,
                fault_permille: 300,
                ..FaultPlanConfig::default()
            });
        }
        Pipeline::new(cfg).run().unwrap().render_text()
    };
    for chaos in [false, true] {
        let sequential = render(1, chaos);
        assert!(sequential.contains("cache:"), "render carries cache counters");
        for workers in [2usize, 8] {
            assert_eq!(
                render(workers, chaos),
                sequential,
                "{workers} analysis workers, chaos={chaos}"
            );
        }
    }
}

#[test]
fn streamed_pipeline_matches_batch_analysis_of_a_collected_crawl() {
    // The streaming guarantee: `Pipeline::run` extracts each app as its
    // crawl connection lands it, in whatever order the lanes finish, and
    // must still equal `AnalysisPool::analyse` over the whole crawl
    // collected first — at every crawl × analysis worker count, on a
    // clean store and under the default chaos plan.
    use gaugenn::core::analyze::{AnalysisConfig, AnalysisPool};
    use gaugenn::core::pipeline::{Pipeline, PipelineConfig, PipelineReport};

    for chaos in [None, Some(FaultPlanConfig::default())] {
        let collected = {
            let server = StoreServer::start_with(
                generate(CorpusScale::Tiny, Snapshot::Y2021, 7),
                ServerOptions {
                    chaos: chaos.clone().map(FaultPlan::new),
                    ..ServerOptions::default()
                },
            )
            .unwrap();
            let crawl = Crawler::builder(server.addr()).build().unwrap().crawl_all();
            crawl.unwrap().apps
        };
        let mut reference: Option<String> = None;
        for workers in [1usize, 2, 4] {
            for analysis_workers in [1usize, 2, 8] {
                let what = format!("crawl {workers} x analysis {analysis_workers}, chaos {chaos:?}");
                let mut cfg = PipelineConfig::tiny(Snapshot::Y2021, 7);
                cfg.workers = workers;
                cfg.analysis_workers = analysis_workers;
                cfg.chaos = chaos.clone();
                let streamed = Pipeline::new(cfg).run().unwrap();
                let batch = AnalysisPool::new(AnalysisConfig::with_workers(analysis_workers))
                    .analyse(&collected)
                    .unwrap();
                assert_eq!(streamed.dataset.total_models, batch.instances.len(), "{what}");
                assert_eq!(streamed.dataset.unique_models, batch.models.len(), "{what}");
                assert_eq!(
                    streamed.dataset.failed_candidates, batch.failed_candidates,
                    "{what}"
                );
                assert_eq!(streamed.composition.counts, batch.composition.counts, "{what}");
                assert_eq!(streamed.analysis.instances, batch.stats.instances, "{what}");
                assert_eq!(streamed.analysis.cache_hits, batch.stats.cache_hits, "{what}");
                assert_eq!(streamed.analysis.cache_misses, batch.stats.cache_misses, "{what}");
                let instance = |i: &gaugenn::core::pipeline::InstanceRecord| {
                    (i.app.clone(), i.category.clone(), i.path.clone(), i.checksum.clone())
                };
                assert_eq!(
                    streamed.instances.iter().map(instance).collect::<Vec<_>>(),
                    batch.instances.iter().map(instance).collect::<Vec<_>>(),
                    "{what}"
                );
                // The batch output rendered through the streamed run's
                // dataset and drop-out ledger: every model row, cache
                // counter and per-framework count must agree.
                let text = streamed.render_text();
                let batch_text = PipelineReport {
                    models: batch.models,
                    model_index: batch.model_index,
                    instances: batch.instances,
                    apps: batch.apps,
                    index: batch.index,
                    composition: batch.composition,
                    analysis: batch.stats,
                    ..streamed
                }
                .render_text();
                assert_eq!(text, batch_text, "{what}");
                match &reference {
                    Some(r) => assert_eq!(&text, r, "{what}"),
                    None => reference = Some(text),
                }
            }
        }
    }
}

#[test]
fn worker_count_and_cache_state_never_change_the_report() {
    // The deterministic text render is byte-identical across worker
    // counts {1, 2, 8} for both pools and cache states {cold, warm}. The
    // first run against the cache directory populates it (cold); every
    // later one attaches to it (warm).
    use gaugenn::core::pipeline::{Pipeline, PipelineConfig};

    let dir = std::env::temp_dir().join(format!("gaugenn-matrix-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let run = |workers: usize, cached: bool| {
        let mut cfg = PipelineConfig::tiny(Snapshot::Y2021, 7);
        cfg.workers = workers;
        cfg.analysis_workers = workers;
        cfg.analysis_cache_dir = cached.then(|| dir.clone());
        Pipeline::new(cfg).run().unwrap()
    };
    let baseline = run(1, false).render_text();
    let mut warm_hits = 0u64;
    for workers in [1usize, 2, 8] {
        for cached in [false, true] {
            let report = run(workers, cached);
            assert_eq!(
                report.render_text(),
                baseline,
                "workers={workers} cached={cached}"
            );
            if cached {
                warm_hits += report.analysis.persistent_hits;
            }
        }
    }
    assert!(warm_hits > 0, "warm runs must attach to the persisted cache");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_cache_store_never_changes_the_report() {
    // The persistent cache's corruption policy end to end: a flipped
    // bit in the cache log and a torn log header degrade to misses — the
    // report stays byte-identical and the pipeline recomputes instead of
    // erroring.
    use gaugenn::core::pipeline::{Pipeline, PipelineConfig};

    let dir = std::env::temp_dir().join(format!("gaugenn-corrupt-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let run = |cached: bool| {
        let mut cfg = PipelineConfig::tiny(Snapshot::Y2021, 7);
        cfg.analysis_cache_dir = cached.then(|| dir.clone());
        Pipeline::new(cfg).run().unwrap()
    };
    let baseline = run(false).render_text();
    let cold = run(true);
    assert_eq!(cold.render_text(), baseline);
    assert!(cold.analysis.persistent_stores > 0, "{:?}", cold.analysis);

    // Flip a byte of the first record's payload (after the 16-byte log
    // header and the record's 8-byte length and crc): replay ends there,
    // so no record survives.
    let log = dir.join("cache.gnjl");
    let mut bytes = std::fs::read(&log).unwrap();
    assert!(bytes.len() > 16 + 8, "the cold run must have persisted records");
    bytes[16 + 8] ^= 0x40;
    std::fs::write(&log, bytes).unwrap();
    let flipped = run(true);
    assert_eq!(flipped.render_text(), baseline, "bit flips degrade to misses");
    assert_eq!(flipped.analysis.persistent_hits, 0, "{:?}", flipped.analysis);

    // Tear the log header: the whole store degrades to misses.
    std::fs::write(&log, b"GNJL\x02").unwrap();
    let torn = run(true);
    assert_eq!(torn.render_text(), baseline, "torn header degrades to misses");
    assert_eq!(torn.analysis.persistent_hits, 0, "{:?}", torn.analysis);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[ignore = "wall-clock comparison; run manually (cargo test -- --ignored) on an idle machine"]
fn pooled_crawl_is_faster_than_sequential_on_small() {
    let server = StoreServer::start(generate(CorpusScale::Small, Snapshot::Y2021, 7)).unwrap();
    let addr = server.addr();
    let t0 = std::time::Instant::now();
    let mut seq = Crawler::builder(addr).build().unwrap();
    let sequential = seq.crawl_all().unwrap();
    let t_seq = t0.elapsed();
    let t1 = std::time::Instant::now();
    let pooled = CrawlPool::new(CrawlPoolConfig {
        workers: 8,
        ..CrawlPoolConfig::default()
    })
    .crawl(addr)
    .unwrap();
    let t_pool = t1.elapsed();
    assert!(pooled.outcome.apps == sequential.apps, "corpus diverged");
    assert!(
        t_pool < t_seq,
        "8 workers ({t_pool:?}) should beat sequential ({t_seq:?})"
    );
}

#[test]
fn campaign_results_content_deterministic_across_runs() {
    use gaugenn::dnn::task::Task;
    use gaugenn::dnn::zoo::{build_for_task, SizeClass};
    use gaugenn::harness::campaign::{run_campaign, Campaign};
    use gaugenn::harness::job::JobSpec;
    use gaugenn::modelfmt::Framework;
    use gaugenn::soc::sched::ThreadConfig;
    use gaugenn::soc::spec::hdks;
    use gaugenn::soc::Backend;

    let g = build_for_task(Task::FaceDetection, 4, SizeClass::Small, true).graph;
    let files = gaugenn::modelfmt::encode(&g, Framework::TfLite).unwrap().files;
    let jobs = vec![Campaign {
        spec: JobSpec {
            warmups: 1,
            runs: 3,
            ..JobSpec::new(1, files[0].0.clone(), Backend::Cpu(ThreadConfig::unpinned(4)))
        },
        files,
    }];
    let collect = || {
        let mut rows: Vec<(String, String)> = run_campaign(&hdks(), &jobs)
            .into_iter()
            .map(|r| {
                let j = r.outcome.expect("job succeeds");
                (r.device, format!("{:.9}", j.mean_latency_ms()))
            })
            .collect();
        rows.sort();
        rows
    };
    assert_eq!(collect(), collect(), "device threads race only in ordering");
}
