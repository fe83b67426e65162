//! Store-wide admission control for concurrent crawls.
//!
//! Every [`crate::pool::CrawlPool`] worker shares one
//! [`AdmissionController`]: a token-bucket rate limiter that paces the
//! fleet once its burst allowance is spent, and a circuit breaker that
//! opens under sustained 429/503 storms, half-opens after a cool-down,
//! and closes again after enough successful probes.
//!
//! Both mechanisms run on a *logical* millisecond clock, like the
//! crawler's backoff accounting: pacing charges and cool-downs are
//! recorded (and advanced), never slept, so chaos tests stay fast and
//! the controller's aggregate counters are reproducible. The waits a
//! verdict advertises ([`Admission::Granted::throttle_ms`],
//! [`Admission::Rejected::retry_after_ms`]) are what callers add to
//! their [`crate::crawler::CrawlStats`].
//!
//! Determinism note: the merged totals (requests admitted, total pacing
//! charge) are independent of worker interleaving, because each admit
//! consumes exactly one token and pays a fixed charge once the bucket is
//! dry. The breaker's consecutive-failure window and its cool-down clock
//! *are* shared state, so when it actually opens, which worker gets
//! rejected depends on the order in which workers reach the controller.
//! The determinism guarantee for concurrent chaos crawls therefore holds
//! for any run in which the breaker stays closed (the default thresholds
//! are far above what a bounded, per-route-limited fault plan can
//! produce); a crawl that reaches the controller in one fixed order — a
//! single connection, say — replays its breaker decisions exactly.

use parking_lot::Mutex;

/// Tunables for the [`AdmissionController`].
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Requests admitted without pacing before the bucket runs dry.
    pub burst: u64,
    /// Logical pacing charge per admitted request once the bucket is
    /// empty, in milliseconds (the bucket refills at 1 token per
    /// `throttle_ms` of logical time, i.e. the paced steady-state rate).
    pub throttle_ms: u64,
    /// Consecutive transient-status failures (429/503/5xx) that open the
    /// breaker.
    pub failure_threshold: u32,
    /// Logical cool-down an open breaker holds before half-opening.
    pub cooldown_ms: u64,
    /// Wait advised to callers rejected by an open breaker, in
    /// milliseconds; each rejection also advances the logical clock by
    /// this much, which is what eventually reaches the half-open point.
    pub retry_after_ms: u64,
    /// Successful half-open probes required to close the breaker.
    pub success_threshold: u32,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            burst: 256,
            throttle_ms: 2,
            // High enough that a bounded fault plan (faults capped per
            // route, retries interleaved with successes) never opens the
            // breaker by accident; storms that *should* open it are
            // hundreds of consecutive transient statuses.
            failure_threshold: 32,
            cooldown_ms: 100,
            retry_after_ms: 20,
            success_threshold: 2,
        }
    }
}

/// Circuit-breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow normally.
    Closed,
    /// Requests are rejected until the cool-down elapses.
    Open,
    /// Cool-down elapsed: probes are admitted, watching for recovery.
    HalfOpen,
}

/// Verdict for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Proceed, after accounting the pacing charge.
    Granted {
        /// Rate-limiter pacing charge, ms (0 while the burst lasts).
        throttle_ms: u64,
    },
    /// Breaker is open: do not send, account this wait instead.
    Rejected {
        /// Advised wait before the next attempt, ms.
        retry_after_ms: u64,
    },
}

/// Aggregate counters, observable from [`crate::crawler::CrawlStats`]
/// consumers via [`AdmissionController::stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Requests admitted (throttled or not).
    pub admitted: u64,
    /// Admitted requests that paid a pacing charge.
    pub throttled: u64,
    /// Total pacing charge across all admits, ms.
    pub throttle_ms_total: u64,
    /// Requests rejected by an open breaker.
    pub rejections: u64,
    /// Closed/half-open → open transitions.
    pub breaker_opens: u64,
    /// Half-open → closed transitions.
    pub breaker_closes: u64,
}

#[derive(Debug)]
struct State {
    tokens: u64,
    clock_ms: u64,
    breaker: BreakerState,
    consecutive_failures: u32,
    open_until_ms: u64,
    half_open_successes: u32,
    stats: AdmissionStats,
}

/// The shared rate limiter + circuit breaker. Wrap it in an `Arc` and
/// hand a clone to every worker's [`crate::crawler::CrawlerBuilder`].
#[derive(Debug)]
pub struct AdmissionController {
    cfg: AdmissionConfig,
    state: Mutex<State>,
}

impl AdmissionController {
    /// Build a controller.
    pub fn new(cfg: AdmissionConfig) -> AdmissionController {
        let tokens = cfg.burst;
        AdmissionController {
            cfg,
            state: Mutex::new(State {
                tokens,
                clock_ms: 0,
                breaker: BreakerState::Closed,
                consecutive_failures: 0,
                open_until_ms: 0,
                half_open_successes: 0,
                stats: AdmissionStats::default(),
            }),
        }
    }

    /// The configuration this controller runs.
    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// Rule on one request. Call before every attempt; follow up with
    /// [`AdmissionController::report_success`] or
    /// [`AdmissionController::report_transient`] so the breaker sees the
    /// outcome.
    pub fn admit(&self) -> Admission {
        let mut st = self.state.lock();
        if st.breaker == BreakerState::Open {
            // Each rejection advances the logical clock; once the
            // cool-down point is reached the *next* caller becomes the
            // half-open probe.
            st.clock_ms += self.cfg.retry_after_ms;
            if st.clock_ms >= st.open_until_ms {
                st.breaker = BreakerState::HalfOpen;
                st.half_open_successes = 0;
            } else {
                st.stats.rejections += 1;
                return Admission::Rejected {
                    retry_after_ms: self.cfg.retry_after_ms,
                };
            }
        }
        let throttle_ms = if st.tokens > 0 {
            st.tokens -= 1;
            0
        } else {
            st.clock_ms += self.cfg.throttle_ms;
            st.stats.throttled += 1;
            st.stats.throttle_ms_total += self.cfg.throttle_ms;
            self.cfg.throttle_ms
        };
        st.stats.admitted += 1;
        Admission::Granted { throttle_ms }
    }

    /// Record a successful exchange (a 200 came back).
    pub fn report_success(&self) {
        let mut st = self.state.lock();
        st.consecutive_failures = 0;
        if st.breaker == BreakerState::HalfOpen {
            st.half_open_successes += 1;
            if st.half_open_successes >= self.cfg.success_threshold {
                st.breaker = BreakerState::Closed;
                st.stats.breaker_closes += 1;
            }
        }
    }

    /// Record a transient-status failure (429/503/5xx). Enough of these
    /// in a row open the breaker; one during half-open re-opens it.
    pub fn report_transient(&self) {
        let mut st = self.state.lock();
        match st.breaker {
            BreakerState::Open => {}
            BreakerState::HalfOpen => self.open(&mut st),
            BreakerState::Closed => {
                st.consecutive_failures += 1;
                if st.consecutive_failures >= self.cfg.failure_threshold {
                    self.open(&mut st);
                }
            }
        }
    }

    fn open(&self, st: &mut State) {
        st.breaker = BreakerState::Open;
        st.open_until_ms = st.clock_ms + self.cfg.cooldown_ms;
        st.consecutive_failures = 0;
        st.stats.breaker_opens += 1;
    }

    /// Current breaker state.
    pub fn state(&self) -> BreakerState {
        self.state.lock().breaker
    }

    /// Snapshot of the aggregate counters.
    pub fn stats(&self) -> AdmissionStats {
        self.state.lock().stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AdmissionConfig {
        AdmissionConfig {
            burst: 4,
            throttle_ms: 3,
            failure_threshold: 3,
            cooldown_ms: 40,
            retry_after_ms: 20,
            success_threshold: 2,
        }
    }

    #[test]
    fn burst_then_paced() {
        let c = AdmissionController::new(cfg());
        for i in 0..4 {
            assert_eq!(c.admit(), Admission::Granted { throttle_ms: 0 }, "{i}");
        }
        for i in 0..5 {
            assert_eq!(c.admit(), Admission::Granted { throttle_ms: 3 }, "{i}");
        }
        let s = c.stats();
        assert_eq!(s.admitted, 9);
        assert_eq!(s.throttled, 5);
        assert_eq!(s.throttle_ms_total, 15);
    }

    #[test]
    fn breaker_opens_under_429_storm_and_recovers() {
        let c = AdmissionController::new(cfg());
        // Sustained storm: three consecutive transient statuses open it.
        for _ in 0..3 {
            assert!(matches!(c.admit(), Admission::Granted { .. }));
            c.report_transient();
        }
        assert_eq!(c.state(), BreakerState::Open);
        // During the cool-down, requests are rejected with a retry-after.
        let r = c.admit();
        assert_eq!(r, Admission::Rejected { retry_after_ms: 20 });
        assert_eq!(c.state(), BreakerState::Open);
        // cooldown 40ms at 20ms per rejection: the second admit after the
        // open crosses the cool-down point and is let through as the
        // half-open probe.
        assert!(matches!(c.admit(), Admission::Granted { .. }));
        assert_eq!(c.state(), BreakerState::HalfOpen);
        // Two successful probes close it.
        c.report_success();
        assert_eq!(c.state(), BreakerState::HalfOpen);
        assert!(matches!(c.admit(), Admission::Granted { .. }));
        c.report_success();
        assert_eq!(c.state(), BreakerState::Closed);
        let s = c.stats();
        assert_eq!(s.breaker_opens, 1);
        assert_eq!(s.breaker_closes, 1);
        assert_eq!(s.rejections, 1);
    }

    #[test]
    fn failed_half_open_probe_reopens() {
        let c = AdmissionController::new(cfg());
        for _ in 0..3 {
            c.admit();
            c.report_transient();
        }
        while c.state() == BreakerState::Open {
            c.admit();
        }
        assert_eq!(c.state(), BreakerState::HalfOpen);
        c.report_transient();
        assert_eq!(c.state(), BreakerState::Open, "bad probe reopens");
        assert_eq!(c.stats().breaker_opens, 2);
    }

    #[test]
    fn successes_reset_the_failure_window() {
        let c = AdmissionController::new(cfg());
        // Alternating failure/success never accumulates to the threshold.
        for _ in 0..20 {
            c.admit();
            c.report_transient();
            c.admit();
            c.report_success();
        }
        assert_eq!(c.state(), BreakerState::Closed);
        assert_eq!(c.stats().breaker_opens, 0);
    }

    #[test]
    fn totals_are_interleaving_independent() {
        // The invariant the pool's determinism rests on: N admits cost the
        // same aggregate pacing charge no matter how callers interleave.
        let a = AdmissionController::new(cfg());
        for _ in 0..50 {
            a.admit();
        }
        let b = AdmissionController::new(cfg());
        let bref = &b;
        std::thread::scope(|s| {
            for _ in 0..5 {
                s.spawn(move || {
                    for _ in 0..10 {
                        bref.admit();
                    }
                });
            }
        });
        assert_eq!(a.stats(), b.stats());
    }
}
