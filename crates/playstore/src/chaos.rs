//! Deterministic fault injection for the store server.
//!
//! The paper's crawl is dominated by partial failures — downloads that
//! reset, throttle, stall or corrupt — and gaugeNN retries them rather
//! than aborting the sweep. To make that resilience *testable*, this
//! module gives [`crate::server::StoreServer`] a seeded [`FaultPlan`] it
//! consults once per request. The plan decides, purely from
//! `(seed ⊕ connection id, route, per-(connection, route) attempt
//! number)`, whether to serve the request cleanly or to inject one of
//! five fault kinds (a permanent route faults on every attempt, and its
//! kind is drawn without the connection id; see [`FaultPlan::decide`]):
//!
//! * connection reset (close before any byte of the response),
//! * truncated response (a prefix of the frame, then close),
//! * stalled response (hold the socket silent, then close),
//! * transient `429`/`503` status,
//! * corrupted payload bytes (detected by the integrity checksum).
//!
//! Because schedules are keyed per connection (the crawler announces its
//! id in the `x-connection-id` header), each crawler's fault sequence is
//! a pure function of its own request order, not of how the kernel
//! happens to interleave threads: an 8-worker chaos crawl with a fixed
//! seed observes byte-identical faults on every run — the repo's
//! determinism guarantee (DESIGN.md §6) extends to its failures, even
//! concurrent ones. (PR 1 keyed attempts globally per route, so
//! concurrent crawlers stole each other's fault budget; see ROADMAP.)

use crate::route::Route;
use parking_lot::Mutex;
use std::collections::HashMap;

/// SplitMix64: the small deterministic mixer behind every chaos decision
/// and every retry-jitter draw. Public so the crawler's backoff jitter
/// shares the same primitive.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// FNV-1a over a string, for keying chaos/jitter decisions on a route.
pub fn hash_str(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The fault taxonomy (DESIGN.md §7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Close the connection before writing any response byte.
    Reset,
    /// Write a strict prefix of the response frame, then close.
    Truncate,
    /// Hold the connection silent for `stall_ms`, then close.
    Stall,
    /// Serve a transient 429/503 status instead of the real response.
    TransientStatus,
    /// Flip payload bytes (Content-Length stays correct; only the
    /// integrity checksum exposes it).
    Corrupt,
}

impl FaultKind {
    /// Every kind, for "inject everything" plans.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::Reset,
        FaultKind::Truncate,
        FaultKind::Stall,
        FaultKind::TransientStatus,
        FaultKind::Corrupt,
    ];
}

/// The concrete action the server takes for one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Serve cleanly.
    None,
    /// Drop the connection without a response.
    Reset,
    /// Keep `keep_permille`/1000 of the serialized frame, then close.
    Truncate {
        /// Fraction of the frame to write, in permille (always < 1000).
        keep_permille: u32,
    },
    /// Sleep this long without writing, then close.
    Stall {
        /// Stall duration in milliseconds.
        ms: u64,
    },
    /// Replace the response with this transient status.
    Status(u16),
    /// XOR every body byte with this non-zero mask after the checksum
    /// header is computed.
    Corrupt {
        /// XOR mask applied to the body.
        xor: u8,
    },
}

/// Configuration for a [`FaultPlan`].
#[derive(Debug, Clone)]
pub struct FaultPlanConfig {
    /// Seed for the fault schedule.
    pub seed: u64,
    /// Per-request fault probability in permille (0..=1000).
    pub fault_permille: u32,
    /// Enabled fault kinds (empty disables injection entirely).
    pub kinds: Vec<FaultKind>,
    /// Ceiling on injected faults per `(connection, route)` pair: after
    /// this many faulted attempts a route is served cleanly to that
    /// connection, so every fault is *transient* and a crawler with
    /// enough retry budget recovers 100 % of apps.
    pub max_faults_per_route: u32,
    /// Stall duration for [`FaultKind::Stall`].
    pub stall_ms: u64,
    /// Routes (substring match on the request path) that fail on *every*
    /// attempt — the permanent drop-outs of the Table 2 accounting.
    pub permanent_routes: Vec<String>,
}

impl Default for FaultPlanConfig {
    fn default() -> Self {
        FaultPlanConfig {
            seed: 0xC4A05,
            fault_permille: 250,
            kinds: FaultKind::ALL.to_vec(),
            max_faults_per_route: 2,
            stall_ms: 30,
            permanent_routes: Vec::new(),
        }
    }
}

/// A seeded, route-aware fault schedule with per-connection attempt
/// counters.
///
/// Thread-safe, and deterministic even under concurrency: attempts are
/// keyed by `(connection id, route)`, so every crawler connection draws
/// from its own schedule (seeded `base_seed ⊕ mix(connection_id)`) in its
/// own request order, no matter how server threads interleave.
#[derive(Debug)]
pub struct FaultPlan {
    cfg: FaultPlanConfig,
    state: Mutex<PlanState>,
}

#[derive(Debug, Default)]
struct PlanState {
    attempts: HashMap<(u64, String), u32>,
    requests: u64,
    injected: u64,
}

impl FaultPlan {
    /// Build a plan from a config.
    pub fn new(cfg: FaultPlanConfig) -> FaultPlan {
        FaultPlan {
            cfg,
            state: Mutex::new(PlanState::default()),
        }
    }

    /// The configuration this plan runs.
    pub fn config(&self) -> &FaultPlanConfig {
        &self.cfg
    }

    /// Total requests the plan has ruled on.
    pub fn requests_seen(&self) -> u64 {
        self.state.lock().requests
    }

    /// Total faults injected so far.
    pub fn injected(&self) -> u64 {
        self.state.lock().injected
    }

    /// Decide the fate of one request, from the route and its attempt
    /// number, which counts prior requests *from the same connection* to
    /// the same route (query strings ignored, so every page of a category
    /// and every range-resumed retry of an APK share one schedule). A
    /// permanent route's action is drawn from `(seed, route, attempt#)`
    /// alone, so a route that fails for good fails the same way on any
    /// connection and the drop-out ledger's error text does not depend
    /// on which worker walked it. Transient faults draw from
    /// `(seed ⊕ mix(connection), route, attempt#)`.
    pub fn decide(&self, connection_id: u64, route: &Route) -> FaultAction {
        let key = route.fault_key();
        let mut st = self.state.lock();
        st.requests += 1;
        let attempt = {
            let a = st.attempts.entry((connection_id, key.clone())).or_insert(0);
            let n = *a;
            *a += 1;
            n
        };
        let draw = hash_str(&key) ^ (attempt as u64).wrapping_mul(0xA5A5);
        if self
            .cfg
            .permanent_routes
            .iter()
            .any(|r| key.contains(r.as_str()))
        {
            st.injected += 1;
            return self.action_for(splitmix64(self.cfg.seed ^ draw));
        }
        let h = splitmix64(self.cfg.seed ^ splitmix64(connection_id) ^ draw);
        if attempt >= self.cfg.max_faults_per_route {
            return FaultAction::None;
        }
        if (h % 1000) as u32 >= self.cfg.fault_permille {
            return FaultAction::None;
        }
        st.injected += 1;
        self.action_for(h >> 10)
    }

    fn action_for(&self, h: u64) -> FaultAction {
        if self.cfg.kinds.is_empty() {
            return FaultAction::None;
        }
        match self.cfg.kinds[(h as usize) % self.cfg.kinds.len()] {
            FaultKind::Reset => FaultAction::Reset,
            FaultKind::Truncate => FaultAction::Truncate {
                // Keep 10–90 % of the frame: always a strict prefix.
                keep_permille: 100 + ((h >> 8) % 800) as u32,
            },
            FaultKind::Stall => FaultAction::Stall {
                ms: self.cfg.stall_ms,
            },
            FaultKind::TransientStatus => {
                FaultAction::Status(if h & (1 << 9) == 0 { 429 } else { 503 })
            }
            FaultKind::Corrupt => FaultAction::Corrupt {
                xor: 0x01 | (h >> 16) as u8,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(cfg: FaultPlanConfig) -> FaultPlan {
        FaultPlan::new(cfg)
    }

    fn apk(pkg: &str) -> Route {
        Route::Apk {
            package: pkg.into(),
        }
    }

    fn app(pkg: &str) -> Route {
        Route::App {
            package: pkg.into(),
        }
    }

    #[test]
    fn schedule_is_deterministic() {
        let cfg = FaultPlanConfig {
            fault_permille: 500,
            ..FaultPlanConfig::default()
        };
        let a = plan(cfg.clone());
        let b = plan(cfg);
        for route in [Route::Categories, app("com.x"), apk("com.x"), app("com.x")] {
            assert_eq!(a.decide(0, &route), b.decide(0, &route), "{route}");
        }
        assert_eq!(a.injected(), b.injected());
        assert_eq!(a.requests_seen(), 4);
    }

    #[test]
    fn connections_draw_independent_schedules() {
        // Same route, same attempt number, different connections: the
        // draws come from different streams (seed ⊕ connection), so over
        // many connections the actions differ.
        let p = plan(FaultPlanConfig {
            fault_permille: 500,
            ..FaultPlanConfig::default()
        });
        let actions: Vec<FaultAction> =
            (0..32).map(|conn| p.decide(conn, &apk("com.x"))).collect();
        let distinct: std::collections::BTreeSet<String> =
            actions.iter().map(|a| format!("{a:?}")).collect();
        assert!(distinct.len() > 1, "schedules must vary by connection");
    }

    #[test]
    fn connection_attempts_are_counted_separately() {
        // One connection exhausting its fault budget must not eat into
        // another's — the PR 1 bug this redesign removes.
        let p = plan(FaultPlanConfig {
            fault_permille: 1000,
            max_faults_per_route: 2,
            ..FaultPlanConfig::default()
        });
        for _ in 0..2 {
            assert_ne!(p.decide(1, &apk("com.a")), FaultAction::None);
        }
        assert_eq!(p.decide(1, &apk("com.a")), FaultAction::None);
        // Connection 2 still gets its own two faults on the same route.
        assert_ne!(p.decide(2, &apk("com.a")), FaultAction::None);
        assert_ne!(p.decide(2, &apk("com.a")), FaultAction::None);
        assert_eq!(p.decide(2, &apk("com.a")), FaultAction::None);
    }

    #[test]
    fn faults_per_route_are_bounded() {
        let p = plan(FaultPlanConfig {
            fault_permille: 1000, // fault every eligible attempt
            max_faults_per_route: 2,
            ..FaultPlanConfig::default()
        });
        let first = p.decide(0, &apk("com.a"));
        let second = p.decide(0, &apk("com.a"));
        assert_ne!(first, FaultAction::None);
        assert_ne!(second, FaultAction::None);
        // Attempts beyond the ceiling are always served cleanly.
        for _ in 0..5 {
            assert_eq!(p.decide(0, &apk("com.a")), FaultAction::None);
        }
    }

    #[test]
    fn pages_share_one_schedule() {
        // Query strings are ignored in the schedule key: pages of one
        // category consume one fault budget, not one per page.
        let p = plan(FaultPlanConfig {
            fault_permille: 1000,
            max_faults_per_route: 1,
            ..FaultPlanConfig::default()
        });
        let page = |start| Route::Category {
            name: "games".into(),
            start,
            count: 2,
        };
        assert_ne!(p.decide(0, &page(0)), FaultAction::None);
        assert_eq!(p.decide(0, &page(2)), FaultAction::None);
        assert_eq!(p.decide(0, &page(4)), FaultAction::None);
    }

    #[test]
    fn permanent_routes_never_recover() {
        let p = plan(FaultPlanConfig {
            fault_permille: 0,
            permanent_routes: vec!["/apk/com.doomed".into()],
            ..FaultPlanConfig::default()
        });
        let actions = |conn| -> Vec<FaultAction> {
            (0..5).map(|_| p.decide(conn, &apk("com.doomed"))).collect()
        };
        let first = actions(0);
        assert!(first.iter().all(|a| *a != FaultAction::None), "{first:?}");
        assert_eq!(actions(1), first, "the same faults on every connection");
        assert_eq!(p.decide(0, &apk("com.fine")), FaultAction::None);
        assert_eq!(p.injected(), 10);
    }

    #[test]
    fn zero_rate_injects_nothing() {
        let p = plan(FaultPlanConfig {
            fault_permille: 0,
            ..FaultPlanConfig::default()
        });
        for i in 0..100 {
            assert_eq!(p.decide(0, &app(&format!("com.pkg{i}"))), FaultAction::None);
        }
        assert_eq!(p.injected(), 0);
    }

    #[test]
    fn rate_roughly_honoured_across_routes() {
        let p = plan(FaultPlanConfig {
            fault_permille: 300,
            max_faults_per_route: 1,
            ..FaultPlanConfig::default()
        });
        let mut faulted = 0;
        for i in 0..1000 {
            if p.decide(0, &app(&format!("com.pkg{i}"))) != FaultAction::None {
                faulted += 1;
            }
        }
        assert!((200..400).contains(&faulted), "{faulted} faults at 30%");
    }

    #[test]
    fn truncation_keeps_a_strict_prefix() {
        let p = plan(FaultPlanConfig {
            fault_permille: 1000,
            kinds: vec![FaultKind::Truncate],
            ..FaultPlanConfig::default()
        });
        for i in 0..50 {
            match p.decide(0, &apk(&format!("com.t{i}"))) {
                FaultAction::Truncate { keep_permille } => {
                    assert!((100..1000).contains(&keep_permille))
                }
                other => panic!("expected truncate, got {other:?}"),
            }
        }
    }

    #[test]
    fn corrupt_mask_is_nonzero() {
        let p = plan(FaultPlanConfig {
            fault_permille: 1000,
            kinds: vec![FaultKind::Corrupt],
            ..FaultPlanConfig::default()
        });
        for i in 0..50 {
            match p.decide(0, &apk(&format!("com.c{i}"))) {
                FaultAction::Corrupt { xor } => assert_ne!(xor, 0),
                other => panic!("expected corrupt, got {other:?}"),
            }
        }
    }
}
