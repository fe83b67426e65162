//! The typed query client for the `/query/*` route family.
//!
//! [`QueryClient`] is the read-side counterpart of [`Crawler`]: where the
//! crawler walks the store to *build* the corpus, the query client asks
//! the server's corpus index questions about it. It wraps a crawler
//! underneath (one keep-alive connection, same retry/backoff, integrity
//! checking, admission control and typed errors), so a chaos plan that
//! resets or throttles query connections is survived the same way crawl
//! traffic survives it.
//!
//! Construction mirrors [`Crawler::builder`]:
//!
//! ```no_run
//! # use gaugenn_playstore::query::QueryClient;
//! # use gaugenn_index::ModelQuery;
//! # let addr = "127.0.0.1:1".parse().unwrap();
//! let mut client = QueryClient::builder(addr).connection_id(3).build()?;
//! let rows = client.models(&ModelQuery {
//!     frameworks: vec!["tflite".into()],
//!     limit: Some(10),
//!     ..ModelQuery::default()
//! })?;
//! # Ok::<(), gaugenn_playstore::StoreError>(())
//! ```

use crate::crawler::{Crawler, CrawlerBuilder, CrawlerConfig, CrawlStats, RetryPolicy};
use crate::net::Endpoint;
use crate::proto::Response;
use crate::reactor_client::{drive_lanes, LaneOpts, LaneSpec, RouteListJob};
use crate::route::Route;
use crate::{Result, StoreError};
use gaugenn_index::wire::{parse_apps, parse_models, parse_stats, AppRow, ModelRow};
use gaugenn_index::{AppQuery, ModelQuery};
use std::net::SocketAddr;
use std::time::Duration;

/// Configures and builds a [`QueryClient`]. Obtained from
/// [`QueryClient::builder`]; every method consumes and returns the
/// builder, mirroring [`CrawlerBuilder`].
pub struct QueryClientBuilder {
    inner: CrawlerBuilder,
}

impl QueryClientBuilder {
    /// Use a specific client configuration (user-agent, locale, device
    /// profile).
    pub fn config(mut self, config: CrawlerConfig) -> QueryClientBuilder {
        self.inner = self.inner.config(config);
        self
    }

    /// Use a specific retry policy.
    pub fn retry(mut self, retry: RetryPolicy) -> QueryClientBuilder {
        self.inner = self.inner.retry(retry);
        self
    }

    /// Set connect/read timeouts.
    pub fn timeouts(mut self, connect: Duration, read: Duration) -> QueryClientBuilder {
        self.inner = self.inner.timeouts(connect, read);
        self
    }

    /// Stable client identity: keys the chaos fault schedule and the
    /// backoff jitter, exactly like a crawler connection id.
    pub fn connection_id(mut self, id: u64) -> QueryClientBuilder {
        self.inner = self.inner.connection_id(id);
        self
    }

    /// Seed the backoff jitter independently of the retry policy.
    pub fn jitter_seed(mut self, seed: u64) -> QueryClientBuilder {
        self.inner = self.inner.jitter_seed(seed);
        self
    }

    /// Connect and build the client.
    pub fn build(self) -> Result<QueryClient> {
        Ok(QueryClient {
            crawler: self.inner.build()?,
        })
    }
}

/// A typed client for the corpus-index query routes.
pub struct QueryClient {
    crawler: Crawler,
}

impl QueryClient {
    /// Start configuring a query client for the TCP store at `addr`.
    pub fn builder(addr: SocketAddr) -> QueryClientBuilder {
        QueryClientBuilder {
            inner: Crawler::builder(addr),
        }
    }

    /// Start configuring a query client for any [`Endpoint`] — required
    /// for sim-reactor stores, which have no TCP address.
    pub fn builder_at(endpoint: Endpoint) -> QueryClientBuilder {
        QueryClientBuilder {
            inner: Crawler::builder_at(endpoint),
        }
    }

    /// Run a model query and parse the ranked result rows.
    pub fn models(&mut self, q: &ModelQuery) -> Result<Vec<ModelRow>> {
        let route = Route::QueryModels(q.clone());
        let resp = self.crawler.fetch(&route)?;
        parse_models(&resp.text())
            .ok_or_else(|| StoreError::Protocol(format!("{route}: malformed model rows")))
    }

    /// Run an app query and parse the ranked result rows.
    pub fn apps(&mut self, q: &AppQuery) -> Result<Vec<AppRow>> {
        let route = Route::QueryApps(q.clone());
        let resp = self.crawler.fetch(&route)?;
        parse_apps(&resp.text())
            .ok_or_else(|| StoreError::Protocol(format!("{route}: malformed app rows")))
    }

    /// Fetch the corpus statistics as ordered `(key, value)` pairs.
    pub fn stats(&mut self) -> Result<Vec<(String, String)>> {
        let resp = self.crawler.fetch(&Route::QueryStats)?;
        parse_stats(&resp.text())
            .ok_or_else(|| StoreError::Protocol("/query/stats: malformed stats".into()))
    }

    /// Issue any typed route and return the raw response — for callers
    /// that want the exact body bytes (querybench compares response
    /// streams byte-for-byte).
    pub fn raw(&mut self, route: &Route) -> Result<Response> {
        self.crawler.fetch(route)
    }

    /// Resilience counters of the underlying connection.
    pub fn transport_stats(&self) -> &CrawlStats {
        self.crawler.stats()
    }
}

/// A fleet of non-blocking query connections multiplexed over a handful
/// of reactor-driven threads — the event-driven counterpart of opening
/// `connections` blocking [`QueryClient`]s.
///
/// The swarm replays a route stream with the same round-robin discipline
/// the blocking load generators use: stream index `i` is issued by
/// connection `i % connections` as its `⌊i / connections⌋`-th request,
/// connection `c` announces connection id `c` and jitters its backoff
/// with `jitter_seed ^ c`. Because each lane's request history is then
/// identical to the matching blocking client's, the response bytes *and*
/// the per-connection resilience counters are byte-identical to a fleet
/// of blocking [`QueryClient`]s — calm or under chaos — while one driver
/// thread holds every one of its lanes in flight at once.
pub struct QuerySwarm {
    endpoint: Endpoint,
    config: CrawlerConfig,
    retry: RetryPolicy,
    connections: usize,
    drivers: usize,
    jitter_seed: u64,
    connect_timeout: Duration,
    read_timeout: Duration,
    sim_seed: u64,
}

/// What a [`QuerySwarm`] replay produced.
pub struct SwarmReplay {
    /// Per-query outcomes, in stream order (`responses[i]` answers
    /// `routes[i]` no matter which connection carried it).
    pub responses: Vec<Result<Response>>,
    /// Resilience counters merged over every connection, in connection
    /// order — equal to the sum over the matching blocking clients.
    pub stats: CrawlStats,
    /// Connections held in flight simultaneously, summed over the driver
    /// threads (each driver's lanes really are concurrently in flight on
    /// its reactor; drivers run in parallel threads).
    pub peak_in_flight: usize,
}

impl QuerySwarm {
    /// A swarm of `connections` lanes against `endpoint`, multiplexed
    /// over at most 8 driver threads by default.
    pub fn new(endpoint: Endpoint, connections: usize) -> QuerySwarm {
        QuerySwarm {
            endpoint,
            config: CrawlerConfig::default(),
            retry: RetryPolicy::default(),
            connections: connections.max(1),
            drivers: 8,
            jitter_seed: 0,
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(2),
            sim_seed: 0,
        }
    }

    /// Use a specific client configuration (user-agent, locale, device
    /// profile).
    pub fn config(mut self, config: CrawlerConfig) -> QuerySwarm {
        self.config = config;
        self
    }

    /// Use a specific retry policy (each lane re-seeds its jitter with
    /// `jitter_seed ^ connection_id` on top of it).
    pub fn retry(mut self, retry: RetryPolicy) -> QuerySwarm {
        self.retry = retry;
        self
    }

    /// Driver threads to multiplex the lanes over (clamped to at least 1
    /// and at most the connection count).
    pub fn drivers(mut self, drivers: usize) -> QuerySwarm {
        self.drivers = drivers.max(1);
        self
    }

    /// Base of the per-connection backoff jitter seeds, mirroring
    /// [`QueryClientBuilder::jitter_seed`] on each blocking client.
    pub fn jitter_seed(mut self, seed: u64) -> QuerySwarm {
        self.jitter_seed = seed;
        self
    }

    /// Set connect/read timeouts (TCP lanes only; sim lanes run on the
    /// logical clock).
    pub fn timeouts(mut self, connect: Duration, read: Duration) -> QuerySwarm {
        self.connect_timeout = connect;
        self.read_timeout = read;
        self
    }

    /// Seed for sim-reactor event delivery (each driver re-seeds with
    /// `seed ^ driver_index`).
    pub fn sim_seed(mut self, seed: u64) -> QuerySwarm {
        self.sim_seed = seed;
        self
    }

    /// Replay `routes` through the swarm and reassemble the responses in
    /// stream order.
    pub fn replay(&self, routes: &[Route]) -> Result<SwarmReplay> {
        let conns = self.connections;
        let drivers = self.drivers.min(conns);
        // Driver d owns lanes d, d+D, …; lane c owns stream indices
        // c, c+C, … — the blocking generators' round-robin split.
        let mut plans: Vec<Vec<LaneSpec<RouteListJob>>> = (0..drivers).map(|_| Vec::new()).collect();
        for c in 0..conns {
            let lane_routes: Vec<(Route, bool)> = routes
                .iter()
                .skip(c)
                .step_by(conns)
                .map(|r| (r.clone(), false))
                .collect();
            if lane_routes.is_empty() {
                continue;
            }
            plans[c % drivers].push(LaneSpec {
                connection_id: c as u64,
                retry: RetryPolicy {
                    jitter_seed: self.jitter_seed ^ c as u64,
                    ..self.retry.clone()
                },
                job: RouteListJob::new(lane_routes),
            });
        }
        let mut harvested = std::thread::scope(|scope| {
            let handles: Vec<_> = plans
                .into_iter()
                .enumerate()
                .map(|(d, specs)| {
                    let opts = LaneOpts {
                        config: self.config.clone(),
                        admission: None,
                        connect_timeout: self.connect_timeout,
                        read_timeout: self.read_timeout,
                        sim_seed: self.sim_seed ^ d as u64,
                    };
                    let endpoint = &self.endpoint;
                    scope.spawn(move || drive_lanes(endpoint, specs, &opts, None))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(res) => res,
                    Err(_) => Err(StoreError::Protocol(
                        "query swarm driver panicked mid-stream".into(),
                    )),
                })
                .collect::<Vec<_>>()
        });

        let mut responses: Vec<Option<Result<Response>>> =
            routes.iter().map(|_| None).collect();
        let mut stats = CrawlStats::default();
        let mut peak_in_flight = 0usize;
        let mut outcomes = Vec::with_capacity(conns);
        for res in harvested.drain(..) {
            let (lanes, report) = res?;
            peak_in_flight += report.peak_in_flight;
            outcomes.extend(lanes);
        }
        outcomes.sort_by_key(|o| o.connection_id);
        for outcome in outcomes {
            let c = outcome.connection_id as usize;
            stats.merge(&outcome.stats);
            for (t, result) in outcome.job.into_results().into_iter().enumerate() {
                responses[t * conns + c] = Some(result);
            }
        }
        let responses = responses
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                r.unwrap_or_else(|| {
                    Err(StoreError::Protocol(format!(
                        "query {i} was never executed (lane skipped)"
                    )))
                })
            })
            .collect();
        Ok(SwarmReplay {
            responses,
            stats,
            peak_in_flight,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{FaultKind, FaultPlan, FaultPlanConfig};
    use crate::corpus::{generate, CorpusScale, Snapshot};
    use crate::server::{ServerOptions, StoreServer};
    use gaugenn_index::{AppDoc, AppSnap, CorpusIndex, ModelDoc};
    use gaugenn_modelfmt::Framework;
    use std::sync::Arc;

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

    fn start_indexed(chaos: Option<FaultPlan>) -> StoreServer {
        let corpus = generate(CorpusScale::Tiny, Snapshot::Y2021, 7);
        StoreServer::start_with(
            corpus,
            ServerOptions {
                chaos,
                index: Some(synthetic_index()),
                ..ServerOptions::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn typed_queries_roundtrip_over_the_wire() {
        let server = start_indexed(None);
        let mut client = QueryClient::builder(server.addr()).build().unwrap();
        let rows = client.models(&ModelQuery::default()).unwrap();
        let got: Vec<&str> = rows.iter().map(|r| r.checksum.as_str()).collect();
        assert_eq!(got, vec!["aaa", "ccc", "bbb"], "flops-descending");
        assert_eq!(rows[0].name, "net aaa");
        let apps = client.apps(&AppQuery::default()).unwrap();
        assert_eq!(apps.len(), 1);
        assert_eq!(apps[0].category, "maps & navigation");
        let stats = client.stats().unwrap();
        assert!(stats.iter().any(|(k, v)| k == "models" && v == "3"));
    }

    #[test]
    fn filters_travel_encoded_and_apply() {
        let server = start_indexed(None);
        let mut client = QueryClient::builder(server.addr()).build().unwrap();
        let rows = client
            .models(&ModelQuery {
                min_flops: Some(150),
                max_flops: Some(250),
                snapshot: Some("Apr 2021".into()),
                ..ModelQuery::default()
            })
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].checksum, "ccc");
        let apps = client
            .apps(&AppQuery {
                categories: vec!["maps & navigation".into()],
                ml_only: true,
                ..AppQuery::default()
            })
            .unwrap();
        assert_eq!(apps.len(), 1);
    }

    #[test]
    fn query_without_index_is_a_typed_not_found() {
        let corpus = generate(CorpusScale::Tiny, Snapshot::Y2021, 7);
        let server = StoreServer::start(corpus).unwrap();
        let mut client = QueryClient::builder(server.addr()).build().unwrap();
        match client.stats() {
            Err(StoreError::NotFound(_)) => {}
            other => panic!("want NotFound, got {other:?}"),
        }
    }

    fn start_indexed_sim(chaos: Option<FaultPlan>) -> StoreServer {
        let corpus = generate(CorpusScale::Tiny, Snapshot::Y2021, 7);
        StoreServer::start_with(
            corpus,
            ServerOptions {
                chaos,
                index: Some(synthetic_index()),
                reactor: crate::reactor::ReactorMode::Sim,
                ..ServerOptions::default()
            },
        )
        .unwrap()
    }

    fn query_stream() -> Vec<Route> {
        let mut routes = Vec::new();
        for i in 0..5u64 {
            routes.push(Route::QueryModels(ModelQuery {
                limit: Some(1 + i),
                ..ModelQuery::default()
            }));
            routes.push(Route::QueryApps(AppQuery {
                limit: Some(1 + i),
                ..AppQuery::default()
            }));
            routes.push(Route::QueryStats);
        }
        routes
    }

    #[test]
    fn swarm_matches_a_fleet_of_blocking_clients() {
        let server = start_indexed_sim(None);
        let routes = query_stream();
        let conns = 4usize;
        let replay = QuerySwarm::new(server.endpoint(), conns)
            .drivers(2)
            .jitter_seed(99)
            .replay(&routes)
            .unwrap();
        assert_eq!(replay.responses.len(), routes.len());
        assert!(
            replay.peak_in_flight >= conns,
            "every lane in flight at once, got {}",
            replay.peak_in_flight
        );
        let mut blocking_stats = CrawlStats::default();
        for c in 0..conns {
            let mut client = QueryClient::builder_at(server.endpoint())
                .connection_id(c as u64)
                .jitter_seed(99 ^ c as u64)
                .build()
                .unwrap();
            for (t, route) in routes.iter().skip(c).step_by(conns).enumerate() {
                let want = client.raw(route).unwrap();
                let got = replay.responses[t * conns + c].as_ref().unwrap();
                assert_eq!(got.status, want.status, "{route}");
                assert_eq!(got.body, want.body, "{route}");
            }
            blocking_stats.merge(client.transport_stats());
        }
        assert_eq!(replay.stats, blocking_stats, "counters match the fleet");
    }

    #[test]
    fn swarm_absorbs_chaos_byte_identically() {
        let plan = FaultPlan::new(FaultPlanConfig {
            seed: 11,
            fault_permille: 400,
            kinds: vec![FaultKind::Reset, FaultKind::TransientStatus],
            max_faults_per_route: 2,
            ..FaultPlanConfig::default()
        });
        let calm = start_indexed_sim(None);
        let stormy = start_indexed_sim(Some(plan));
        let routes = query_stream();
        let want = QuerySwarm::new(calm.endpoint(), 3)
            .drivers(2)
            .replay(&routes)
            .unwrap();
        let got = QuerySwarm::new(stormy.endpoint(), 3)
            .drivers(2)
            .replay(&routes)
            .unwrap();
        for (i, (a, b)) in want.responses.iter().zip(&got.responses).enumerate() {
            assert_eq!(
                a.as_ref().unwrap().body,
                b.as_ref().unwrap().body,
                "query {i} diverged under chaos"
            );
        }
        let st = &got.stats;
        assert!(
            st.retries + st.reconnects > 0,
            "chaos must actually have fired: {st:?}"
        );
    }

    #[test]
    fn queries_survive_chaos_with_typed_errors() {
        // Resets and transient statuses under the retry budget must be
        // absorbed; the answers must match a calm server's byte-for-byte.
        let plan = FaultPlan::new(FaultPlanConfig {
            seed: 11,
            fault_permille: 400,
            kinds: vec![FaultKind::Reset, FaultKind::TransientStatus],
            max_faults_per_route: 2, // < default max_attempts of 4
            ..FaultPlanConfig::default()
        });
        let calm = start_indexed(None);
        let stormy = start_indexed(Some(plan));
        let mut a = QueryClient::builder(calm.addr()).build().unwrap();
        let mut b = QueryClient::builder(stormy.addr())
            .connection_id(5)
            .build()
            .unwrap();
        for q in [
            ModelQuery::default(),
            ModelQuery {
                frameworks: vec!["tflite".into()],
                limit: Some(2),
                ..ModelQuery::default()
            },
        ] {
            let want = a.raw(&Route::QueryModels(q.clone())).unwrap().body;
            let got = b.raw(&Route::QueryModels(q)).unwrap().body;
            assert_eq!(want, got);
        }
        let st = b.transport_stats();
        assert!(
            st.retries + st.reconnects > 0,
            "chaos must actually have fired: {st:?}"
        );
    }
}
