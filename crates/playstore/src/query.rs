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
//! Many concurrent query connections need no client of their own: drive
//! them as non-blocking lanes with [`crate::reactor_client::drive_lanes`]
//! and any [`crate::reactor_client::LaneJob`] (querybench runs its own
//! timed job that way). A lane puts the same bytes on the wire, reads
//! the same answers and keeps the same [`CrawlStats`] as a
//! `QueryClient` built with its connection id and retry policy that
//! issues the same routes to an identical store.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{FaultKind, FaultPlan, FaultPlanConfig};
    use crate::corpus::{generate, CorpusScale, Snapshot};
    use crate::reactor_client::{drive_lanes, LaneOpts, LaneSpec, RouteListJob};
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

    /// Replay the query stream over 4 lanes of one poll loop (stream
    /// index `i` on connection `i % 4`, jitter seed `99 ^ c`) against one
    /// store, and over 4 blocking clients with the same ids and seeds
    /// against an identical one. Responses and merged counters must
    /// agree; returns the response bodies in stream order.
    fn assert_query_lanes_match_blocking(chaos: Option<FaultPlanConfig>) -> Vec<Vec<u8>> {
        let routes = query_stream();
        let conns = 4usize;
        let plans: Vec<Vec<Route>> = (0..conns)
            .map(|c| routes.iter().skip(c).step_by(conns).cloned().collect())
            .collect();
        let retry = |c: usize| RetryPolicy {
            jitter_seed: 99 ^ c as u64,
            ..RetryPolicy::default()
        };
        let lane_store = start_indexed_sim(chaos.clone().map(FaultPlan::new));
        let specs = plans
            .iter()
            .enumerate()
            .map(|(c, plan)| LaneSpec {
                connection_id: c as u64,
                retry: retry(c),
                job: RouteListJob::new(plan.iter().map(|r| (r.clone(), false)).collect()),
            })
            .collect();
        let (outcomes, report) =
            drive_lanes(&lane_store.endpoint(), specs, &LaneOpts::default(), None).unwrap();
        assert_eq!(report.peak_in_flight, conns, "every lane in flight at once");

        let blocking_store = start_indexed_sim(chaos.clone().map(FaultPlan::new));
        let mut bodies = vec![Vec::new(); routes.len()];
        let (mut lane_stats, mut blocking_stats) = (CrawlStats::default(), CrawlStats::default());
        for (c, outcome) in outcomes.into_iter().enumerate() {
            let mut client = QueryClient::builder_at(blocking_store.endpoint())
                .connection_id(c as u64)
                .retry(retry(c))
                .build()
                .unwrap();
            let results = outcome.job.into_results();
            assert_eq!(results.len(), plans[c].len());
            for (t, (route, got)) in plans[c].iter().zip(results).enumerate() {
                let want = client.raw(route).unwrap();
                let got = got.unwrap();
                assert_eq!(got.status, want.status, "{route}");
                assert_eq!(got.body, want.body, "{route}");
                bodies[t * conns + c] = got.body;
            }
            lane_stats.merge(&outcome.stats);
            blocking_stats.merge(client.transport_stats());
        }
        assert_eq!(lane_stats, blocking_stats, "counters match the fleet");
        if chaos.is_some() {
            assert!(
                lane_stats.retries + lane_stats.reconnects > 0,
                "chaos must actually have fired: {lane_stats:?}"
            );
        }
        bodies
    }

    #[test]
    fn query_lanes_match_a_fleet_of_blocking_clients() {
        let calm = assert_query_lanes_match_blocking(None);
        let chaotic = assert_query_lanes_match_blocking(Some(FaultPlanConfig {
            seed: 11,
            fault_permille: 400,
            kinds: vec![FaultKind::Reset, FaultKind::TransientStatus],
            max_faults_per_route: 2,
            ..FaultPlanConfig::default()
        }));
        assert_eq!(
            calm, chaotic,
            "chaos under the retry budget changes no byte"
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
