//! Sharded concurrent crawl pool.
//!
//! A [`CrawlPool`] partitions the store's category space across N worker
//! threads. Each worker drives its own block of store connections (own
//! connection ids, own retry/backoff jitter streams) as non-blocking
//! lanes over one readiness loop ([`drive_lanes`]); the transport follows
//! the endpoint — kernel epoll for TCP, the deterministic sim reactor
//! for sim. Which worker crawls which category is decided **before any
//! worker thread starts** by the shared deterministic scheduler in
//! [`gaugenn_sched`], which assigns categories largest-catalog-first to
//! the least-loaded worker, so one heavy category never straggles
//! whatever shard its index happens to fall in.
//!
//! The plan is the bootstrap's listing: a synchronous [`Crawler`] on
//! connection 0 lists each category once, the listed app count sizes the
//! category for the scheduler, and the listing itself moves to the one
//! lane that walks the category, so lanes fetch only metadata, APK, OBB
//! and bundle. A category whose listing fails after every retry is its
//! listing drop-out and goes to no worker — the policy of
//! [`Crawler::crawl_all`], whose requests a pooled crawl issues exactly.
//!
//! All workers share one [`AdmissionController`]: the fleet collectively
//! respects a single store-wide rate limit, and a sustained 429/503 storm
//! trips one circuit breaker for everybody.
//!
//! [`CrawlPool::crawl_into`] streams: each app goes to a sink the moment
//! its lane finishes it, tagged with its
//! [`corpus_seq`](crate::crawler::corpus_seq), so the corpus is never
//! held whole. [`CrawlPool::crawl_at`] is the same sweep with a sink
//! that collects the apps and sorts them by that number.
//!
//! # Determinism
//!
//! The merged [`CrawlOutcome`] is assembled in category-index order, not
//! completion order, so a chaos run with a fixed seed produces a
//! byte-identical corpus and drop-out ledger no matter how the workers
//! interleave — and no matter how the shards were assigned:
//!
//! * the assignment is computed up front from `(category sizes,
//!   workers)` — no runtime work stealing, no shared queues — and each
//!   worker walks its shard in ascending category-index order;
//! * chaos fault schedules cap transient faults per route and make
//!   permanent faults connection-independent (see [`crate::chaos`]), so
//!   reassigning a category to a different connection never changes
//!   whether it survives;
//! * the shared admission controller's aggregate charges are
//!   interleaving-independent while the breaker stays closed (see
//!   [`crate::admission`]).
//!
//! Per-worker *throttle* counters are the one thing that legitimately
//! varies run to run (which worker drains the last burst token is a
//! race); only the merged sums are stable, which is why
//! [`PoolOutcome::outcome`] carries merged stats and the per-worker
//! reports are explicitly diagnostic.

use crate::admission::{AdmissionConfig, AdmissionController, AdmissionStats};
use crate::crawler::{
    AppSink, CrawlOutcome, CrawlStats, Crawler, CrawlerConfig, DropOut, RetryPolicy,
};
use crate::net::Endpoint;
use crate::reactor_client::{drive_lanes, CrawlLaneJob, LaneOpts, LaneShard, LaneSpec};
use crate::Result;
use gaugenn_sched::{assign, WorkUnit};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};

/// Tunables for a [`CrawlPool`].
#[derive(Debug, Clone)]
pub struct CrawlPoolConfig {
    /// Worker threads (each with its own store connection). Clamped to a
    /// minimum of 1.
    pub workers: usize,
    /// Identity/paging configuration every worker crawls with.
    pub crawler: CrawlerConfig,
    /// Retry policy every worker runs under.
    pub retry: RetryPolicy,
    /// Store-wide admission control shared by the whole fleet.
    pub admission: AdmissionConfig,
    /// Seeds each worker's sim-reactor lanes (worker `w` runs on
    /// `sched_seed ^ w`); its only job, since the category plan takes no
    /// seed. Ignored on TCP endpoints.
    pub sched_seed: u64,
    /// Connections each worker multiplexes (clamped to a minimum of 1):
    /// one worker thread drives them all concurrently as non-blocking
    /// lanes. Lane `j` of worker `w` always announces connection id
    /// `w·C + j + 1`, so the corpus and the merged counters are
    /// byte-identical across endpoints at any fixed
    /// `(workers, connections_per_worker)` topology.
    pub connections_per_worker: usize,
}

impl Default for CrawlPoolConfig {
    fn default() -> Self {
        CrawlPoolConfig {
            workers: 4,
            crawler: CrawlerConfig::default(),
            retry: RetryPolicy::default(),
            admission: AdmissionConfig::default(),
            sched_seed: 0,
            connections_per_worker: 1,
        }
    }
}

/// Diagnostic summary of one worker's share of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerReport {
    /// Worker index (0-based).
    pub worker: usize,
    /// First connection id in the worker's lane block (`w·C + 1` for
    /// `C = connections_per_worker`; the bootstrap's category list and
    /// listings use connection 0). Lane `j` announces `w·C + j + 1`.
    pub connection_id: u64,
    /// Categories in this worker's shard. A category whose listing
    /// failed is in no worker's shard.
    pub categories: usize,
    /// Apps the worker crawled successfully.
    pub apps: usize,
    /// Bytes (APK + OBB + bundle) the worker pulled — the load-balance
    /// metric `poolbench` reports as byte imbalance per worker count.
    pub bytes: u64,
    /// Drop-outs the worker recorded.
    pub dropouts: usize,
    /// The worker's own resilience counters. Note: throttle counters are
    /// interleaving-dependent (which worker drains the last burst token
    /// is a race) — only the merged sums in
    /// [`PoolOutcome::outcome`] are run-to-run stable.
    pub stats: CrawlStats,
}

/// Everything a pooled sweep produced.
#[derive(Debug, Clone)]
pub struct PoolOutcome {
    /// Merged corpus + drop-out ledger + summed stats (the bootstrap's
    /// included), in deterministic category-index order — byte-identical
    /// to what the same seed produces at any worker count and connection
    /// fan-out while the breaker stays closed, and on a calm store equal
    /// to [`Crawler::crawl_all`]'s whole outcome.
    pub outcome: CrawlOutcome,
    /// Per-worker diagnostics, in worker order.
    pub per_worker: Vec<WorkerReport>,
    /// Aggregate admission-controller counters for the fleet.
    pub admission: AdmissionStats,
    /// Worker count actually used.
    pub workers: usize,
    /// Most connections any single worker held in flight at once — at
    /// most `connections_per_worker`, and at most the worker's category
    /// count, since lanes are category-granular.
    pub peak_in_flight: usize,
}

/// What one worker hands back to the merge: its category shards (each
/// tagged with the category's global index so shards merge
/// deterministically), its summed connection stats (lane order), and
/// the most connections it held in flight at once.
type WorkerYield = (Vec<LaneShard>, CrawlStats, usize);

/// One lane's work: `(global plan index, listed packages)` per category,
/// in ascending index order.
type LaneWork = Vec<(usize, Vec<String>)>;

/// Split one worker's shard across its connections round-robin (lane `j`
/// takes positions `j, j+C, …`), preserving ascending category-index
/// order within each lane so every lane walks its categories the way a
/// dedicated synchronous [`Crawler`] would.
fn lane_split(
    shard: impl IntoIterator<Item = (usize, Vec<String>)>,
    lanes: usize,
) -> Vec<LaneWork> {
    let mut out = vec![Vec::new(); lanes];
    for (pos, unit) in shard.into_iter().enumerate() {
        out[pos % lanes].push(unit);
    }
    out
}

/// One worker's crawl: its lanes run concurrently as non-blocking state
/// machines over one readiness loop.
fn crawl_shard(
    endpoint: &Endpoint,
    config: &CrawlPoolConfig,
    admission: &Arc<AdmissionController>,
    w: usize,
    lanes: Vec<LaneWork>,
    sink: AppSink<'_>,
) -> Result<WorkerYield> {
    let conns = lanes.len();
    let specs: Vec<LaneSpec<CrawlLaneJob>> = lanes
        .into_iter()
        .enumerate()
        .filter(|(_, lane)| !lane.is_empty())
        .map(|(j, lane)| LaneSpec {
            connection_id: (w * conns + j) as u64 + 1,
            retry: config.retry.clone(),
            job: CrawlLaneJob::new(lane, sink),
        })
        .collect();
    let opts = LaneOpts {
        config: config.crawler.clone(),
        admission: Some(Arc::clone(admission)),
        sim_seed: config.sched_seed ^ w as u64,
        ..LaneOpts::default()
    };
    let (outcomes, report) = drive_lanes(endpoint, specs, &opts, None)?;
    let mut shards = Vec::new();
    let mut stats = CrawlStats::default();
    for o in outcomes {
        stats.merge(&o.stats);
        shards.extend(o.job.into_shards());
    }
    Ok((shards, stats, report.peak_in_flight))
}

/// The sharded pool. See the module docs for the determinism contract.
#[derive(Debug, Clone, Default)]
pub struct CrawlPool {
    config: CrawlPoolConfig,
}

impl CrawlPool {
    /// Build a pool.
    pub fn new(config: CrawlPoolConfig) -> CrawlPool {
        CrawlPool { config }
    }

    /// Sweep the whole store at `addr` with the configured worker fleet.
    ///
    /// Connection 0 bootstraps the category list and lists each
    /// category; worker k then walks the listed apps of the categories
    /// the scheduler assigned to shard k on its lanes, connections
    /// `k·C + 1 … k·C + C` for `C = connections_per_worker`.
    pub fn crawl(&self, addr: SocketAddr) -> Result<PoolOutcome> {
        self.crawl_at(&Endpoint::Tcp(addr))
    }

    /// Sweep the store reachable at `endpoint` — the [`Endpoint`]-generic
    /// form of [`CrawlPool::crawl`], required for sim-reactor stores,
    /// which have no TCP address.
    pub fn crawl_at(&self, endpoint: &Endpoint) -> Result<PoolOutcome> {
        let landed = Mutex::new(Vec::new());
        let mut pooled = self.crawl_into(endpoint, &|seq, app| {
            landed
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push((seq, app));
        })?;
        let mut apps = landed.into_inner().unwrap_or_else(|e| e.into_inner());
        apps.sort_by_key(|&(seq, _)| seq);
        pooled.outcome.apps = apps.into_iter().map(|(_, app)| app).collect();
        Ok(pooled)
    }

    /// [`CrawlPool::crawl_at`] handing each app to `sink` the moment a
    /// lane finishes it, instead of collecting the corpus: the returned
    /// outcome's `apps` is empty, and everything else (drop-outs, stats,
    /// per-worker reports) is the same. The sink runs on the worker
    /// threads, in completion order; sorting by the sequence number it
    /// receives gives corpus order. A sink that blocks holds up its
    /// worker's lanes, which is how a consumer bounds the apps in flight.
    pub fn crawl_into(&self, endpoint: &Endpoint, sink: AppSink<'_>) -> Result<PoolOutcome> {
        let workers = self.config.workers.max(1);
        let conns = self.config.connections_per_worker.max(1);
        let admission = Arc::new(AdmissionController::new(self.config.admission.clone()));

        let mut bootstrap = Crawler::builder_at(endpoint.clone())
            .config(self.config.crawler.clone())
            .retry(self.config.retry.clone())
            .connection_id(0)
            .admission(admission.clone())
            .build()?;
        // Each listing sizes its category for the plan and then moves to
        // the lane that walks it; a failed one is the category's shard.
        let mut listings = Vec::new();
        let mut units = Vec::new();
        let mut shards: Vec<LaneShard> = Vec::new();
        for (index, category) in bootstrap.categories()?.iter().enumerate() {
            match bootstrap.list_category(category) {
                Ok(packages) => {
                    units.push(WorkUnit {
                        index,
                        size: packages.len() as u64,
                    });
                    listings.push(packages);
                }
                Err(e) => {
                    shards.push(LaneShard {
                        index,
                        apps: 0,
                        bytes: 0,
                        dropouts: vec![DropOut::listing(category, &e)],
                    });
                    listings.push(Vec::new());
                }
            }
        }
        let bootstrap_stats = bootstrap.stats().clone();
        drop(bootstrap);

        let work: Vec<Vec<LaneWork>> = assign(&units, workers)
            .into_iter()
            .map(|shard| {
                let listed = shard
                    .into_iter()
                    .map(|i| (i, std::mem::take(&mut listings[i])));
                lane_split(listed, conns)
            })
            .collect();

        let mut results: Vec<Result<WorkerYield>> = std::thread::scope(|scope| {
            let handles: Vec<_> = work
                .into_iter()
                .enumerate()
                .map(|(w, lanes)| {
                    let admission = &admission;
                    let config = &self.config;
                    scope.spawn(move || crawl_shard(endpoint, config, admission, w, lanes, sink))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(res) => res,
                    // A worker panicking mid-shard (chaos runs push the
                    // crawler hard) becomes a typed error on its slot of
                    // the merge instead of tearing down the whole pool.
                    Err(_) => Err(crate::StoreError::Protocol(
                        "crawl pool worker panicked mid-shard".into(),
                    )),
                })
                .collect()
        });

        // Merge deterministically: worker order for stats/reports,
        // category-index order for the corpus itself.
        let mut per_worker = Vec::with_capacity(workers);
        let mut merged_stats = bootstrap_stats;
        let mut peak_in_flight = 0usize;
        for (w, res) in results.drain(..).enumerate() {
            let (worker_shards, stats, worker_peak) = res?;
            peak_in_flight = peak_in_flight.max(worker_peak);
            per_worker.push(WorkerReport {
                worker: w,
                connection_id: (w * conns) as u64 + 1,
                categories: worker_shards.len(),
                apps: worker_shards.iter().map(|s| s.apps).sum(),
                bytes: worker_shards.iter().map(|s| s.bytes).sum(),
                dropouts: worker_shards.iter().map(|s| s.dropouts.len()).sum(),
                stats: stats.clone(),
            });
            merged_stats.merge(&stats);
            shards.extend(worker_shards);
        }
        shards.sort_by_key(|s| s.index);

        let dropouts = shards.into_iter().flat_map(|s| s.dropouts).collect();

        Ok(PoolOutcome {
            outcome: CrawlOutcome {
                apps: Vec::new(),
                dropouts,
                stats: merged_stats,
            },
            per_worker,
            admission: admission.stats(),
            workers,
            peak_in_flight,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{generate, CorpusScale, Snapshot};
    use crate::crawler::CrawledApp;
    use crate::server::StoreServer;

    fn start_tiny() -> StoreServer {
        StoreServer::start(generate(CorpusScale::Tiny, Snapshot::Y2021, 7)).unwrap()
    }

    fn with_workers(workers: usize) -> CrawlPoolConfig {
        CrawlPoolConfig {
            workers,
            ..CrawlPoolConfig::default()
        }
    }

    #[test]
    fn pool_matches_sequential_crawl() {
        // The pool lists each category once and walks what it listed, so
        // on a calm store it issues exactly the blocking walk's requests:
        // the whole outcome, counters included, equals `crawl_all`'s.
        let server = start_tiny();
        let mut seq = Crawler::builder(server.addr()).build().unwrap();
        let sequential = seq.crawl_all().unwrap();
        // The category list, 68 listing pages and 105 app requests.
        assert_eq!(sequential.stats.requests, 174);
        let categories = seq.categories().unwrap().len();

        for workers in [1, 4, 8] {
            let pooled = CrawlPool::new(with_workers(workers))
                .crawl(server.addr())
                .unwrap();
            assert_eq!(pooled.workers, workers);
            assert_eq!(pooled.outcome.stats, sequential.stats, "{workers}");
            assert_eq!(pooled.outcome.dropouts, sequential.dropouts);
            // The whole outcome; not `assert_eq!`, whose message would
            // print every APK byte.
            assert!(pooled.outcome == sequential, "{workers}: corpus diverged");
            assert_eq!(pooled.per_worker.len(), workers);
            let shard_apps: usize = pooled.per_worker.iter().map(|w| w.apps).sum();
            assert_eq!(shard_apps, pooled.outcome.apps.len());
            let covered: usize = pooled.per_worker.iter().map(|w| w.categories).sum();
            assert_eq!(covered, categories, "every category crawled once");
        }
    }

    #[test]
    fn worker_count_does_not_change_the_corpus() {
        let server = start_tiny();
        let one = CrawlPool::new(with_workers(1)).crawl(server.addr()).unwrap();
        let eight = CrawlPool::new(with_workers(8)).crawl(server.addr()).unwrap();
        assert_eq!(one.outcome.apps.len(), eight.outcome.apps.len());
        assert_eq!(one.outcome.dropouts, eight.outcome.dropouts);
        // Not `assert_eq!`, whose message would print every APK byte.
        assert!(one.outcome.apps == eight.outcome.apps, "corpus diverged");
    }

    #[test]
    fn extra_connections_do_not_change_the_corpus() {
        let server = start_tiny();
        let one = CrawlPool::new(with_workers(2)).crawl(server.addr()).unwrap();
        let fanned = CrawlPool::new(CrawlPoolConfig {
            workers: 2,
            connections_per_worker: 3,
            ..CrawlPoolConfig::default()
        })
        .crawl(server.addr())
        .unwrap();
        assert_eq!(fanned.outcome.dropouts, one.outcome.dropouts);
        assert_eq!(fanned.outcome.stats, one.outcome.stats);
        assert!(fanned.outcome.apps == one.outcome.apps, "corpus diverged");
        assert_eq!(fanned.per_worker[1].connection_id, 4, "lane block w·C + 1");
    }

    #[test]
    fn epoll_and_sim_lanes_agree() {
        let config = CrawlPoolConfig {
            workers: 2,
            connections_per_worker: 4,
            ..CrawlPoolConfig::default()
        };
        let tcp = start_tiny();
        let epoll = CrawlPool::new(config.clone()).crawl(tcp.addr()).unwrap();
        let sim_store = StoreServer::start_with(
            generate(CorpusScale::Tiny, Snapshot::Y2021, 7),
            crate::server::ServerOptions {
                reactor: crate::reactor::ReactorMode::Sim,
                ..Default::default()
            },
        )
        .unwrap();
        let sim = CrawlPool::new(config).crawl_at(&sim_store.endpoint()).unwrap();
        assert_eq!(sim.outcome.dropouts, epoll.outcome.dropouts);
        assert_eq!(sim.outcome.stats, epoll.outcome.stats);
        assert_eq!(sim.per_worker, epoll.per_worker);
        assert!(sim.outcome.apps == epoll.outcome.apps, "corpus diverged");
        for (name, run) in [("epoll", &epoll), ("sim", &sim)] {
            assert!(
                run.peak_in_flight > 1,
                "{name} worker multiplexes its lanes, got peak {}",
                run.peak_in_flight
            );
        }
    }

    #[test]
    fn a_sink_that_blocks_past_the_read_timeout_costs_no_retries() {
        // A consumer pushing back holds the lane driver up. Responses that
        // land meanwhile must be read, not timed out: the stalled crawl
        // matches an unstalled one, counters included.
        let config = CrawlPoolConfig {
            workers: 1,
            connections_per_worker: 4,
            ..CrawlPoolConfig::default()
        };
        let reference = CrawlPool::new(config.clone()).crawl(start_tiny().addr()).unwrap();
        let stall = LaneOpts::default().read_timeout + std::time::Duration::from_millis(300);
        let stalled = std::sync::atomic::AtomicBool::new(false);
        let landed = Mutex::new(Vec::new());
        let server = start_tiny();
        let pooled = CrawlPool::new(config)
            .crawl_into(&Endpoint::Tcp(server.addr()), &|seq, app| {
                if !stalled.swap(true, std::sync::atomic::Ordering::SeqCst) {
                    std::thread::sleep(stall);
                }
                landed.lock().unwrap().push((seq, app));
            })
            .unwrap();
        let mut landed = landed.into_inner().unwrap();
        landed.sort_by_key(|&(seq, _)| seq);
        let apps: Vec<CrawledApp> = landed.into_iter().map(|(_, app)| app).collect();
        assert_eq!(pooled.outcome.stats, reference.outcome.stats);
        assert_eq!(pooled.outcome.stats.retries, 0);
        assert!(apps == reference.outcome.apps, "corpus diverged");
    }

    #[test]
    fn fleet_shares_one_admission_budget() {
        let server = start_tiny();
        let pooled = CrawlPool::new(CrawlPoolConfig {
            workers: 4,
            admission: AdmissionConfig {
                burst: 16,
                throttle_ms: 2,
                ..AdmissionConfig::default()
            },
            ..CrawlPoolConfig::default()
        })
        .crawl(server.addr())
        .unwrap();
        let adm = &pooled.admission;
        assert_eq!(adm.admitted, pooled.outcome.stats.requests);
        // Everything past the shared 16-token burst paid the charge,
        // regardless of which worker issued it.
        assert_eq!(adm.throttled, adm.admitted - 16);
        assert_eq!(adm.throttle_ms_total, adm.throttled * 2);
        // The crawler-side merged counters agree with the controller's.
        assert_eq!(pooled.outcome.stats.throttled, adm.throttled);
        assert_eq!(pooled.outcome.stats.throttle_ms_total, adm.throttle_ms_total);
    }
}
