//! Injectable time source for the harness watchdog.
//!
//! The master's completion wait carries a deadline on a [`Clock`] instead
//! of reading `Instant::now()` directly, which would make watchdog
//! behaviour (how much "time" a hung device burns) depend on host
//! scheduling. Production runs keep the default [`WallClock`]; tests
//! inject a [`LogicalClock`] whose time advances only when someone sleeps
//! on it. The master calls its agent in place and sleeps only when a
//! watchdog deadline expires, so a healthy job costs 0 logical ms and a
//! scripted hang exactly `accept_timeout + 1`, however loaded the host is.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A monotonic millisecond clock the watchdogs run on.
pub trait Clock: fmt::Debug + Send + Sync {
    /// Milliseconds since an arbitrary fixed origin.
    fn now_ms(&self) -> u64;
    /// Let `ms` milliseconds pass (really, for a wall clock; logically,
    /// for a test clock — which must still yield so other threads run).
    fn sleep_ms(&self, ms: u64);
}

/// The production clock: real time, anchored at first use.
#[derive(Debug, Default, Clone, Copy)]
pub struct WallClock;

/// Process-wide origin so `now_ms` is monotone across clock instances.
static EPOCH: OnceLock<Instant> = OnceLock::new();

impl Clock for WallClock {
    fn now_ms(&self) -> u64 {
        // The one sanctioned wall-time read in the harness: every other
        // deadline computation goes through a `Clock`.
        let epoch = *EPOCH.get_or_init(Instant::now); // gaugelint: deterministic-via(clock) — WallClock is the Clock impl itself; deterministic runs inject SimClock
        epoch.elapsed().as_millis() as u64
    }

    fn sleep_ms(&self, ms: u64) {
        std::thread::sleep(Duration::from_millis(ms));
    }
}

/// A deterministic clock for tests: time advances only via [`Clock::sleep_ms`]
/// (or [`LogicalClock::advance`]), never on its own. Sleeping also yields
/// the OS thread so peers sharing the clock can make progress.
#[derive(Debug, Default)]
pub struct LogicalClock {
    now: AtomicU64,
}

impl LogicalClock {
    /// A clock at t = 0.
    pub fn new() -> LogicalClock {
        LogicalClock::default()
    }

    /// Advance the clock without sleeping.
    pub fn advance(&self, ms: u64) {
        self.now.fetch_add(ms, Ordering::Relaxed);
    }
}

impl Clock for LogicalClock {
    fn now_ms(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }

    fn sleep_ms(&self, ms: u64) {
        self.now.fetch_add(ms, Ordering::Relaxed);
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone() {
        let c = WallClock;
        let a = c.now_ms();
        c.sleep_ms(2);
        assert!(c.now_ms() >= a + 2);
    }

    #[test]
    fn logical_clock_only_moves_when_told() {
        let c = LogicalClock::new();
        assert_eq!(c.now_ms(), 0);
        c.sleep_ms(5);
        c.advance(10);
        assert_eq!(c.now_ms(), 15);
    }

    #[test]
    fn logical_clock_shared_across_threads() {
        let c = LogicalClock::new();
        std::thread::scope(|s| s.spawn(|| c.sleep_ms(7)).join().expect("sleeper"));
        assert_eq!(c.now_ms(), 7);
    }
}
