//! Seeded crash-fault injection: named kill points at stage boundaries.
//!
//! The chaos layer (`playstore::chaos`) makes the *network* a fault
//! domain; this module makes the **process itself** one. A
//! [`CrashPlan`] arms exactly one named [`CrashPoint`] — a stage
//! boundary the pipeline declares by calling [`hit`] — and
//! deterministically takes the process down the `n`-th time execution
//! reaches it. Everything the journal layer (`core::journal`) and the
//! persistent cache claim about crash-tolerance is proven against these
//! points: the failure-injection matrix SIGKILLs a child run at each
//! point and asserts the resumed run's stdout is byte-identical to an
//! uninterrupted one.
//!
//! # Discipline
//!
//! Same rules as the chaos store:
//! * **Deterministic.** A plan is (point, nth-hit, mode); no wall clock,
//!   no entropy. Given the same schedule of `hit` calls, the same call
//!   crashes. (Across *worker threads* the global hit counter interleaves
//!   nondeterministically — which is exactly the point: recovery must be
//!   correct wherever in the stage the process dies.)
//! * **Off by default, zero-cost-ish.** Unarmed, `hit` is one atomic
//!   pointer load.
//! * **Typed unwind for tests.** `CrashMode::Panic` throws a
//!   [`CrashSignal`] payload instead of killing the process, so
//!   in-process tests and `crashbench` can `catch_unwind` the "crash"
//!   and immediately exercise resume in the same process.
//!
//! # Arming
//!
//! Environment (used by the child-process matrix and `verify.sh`):
//!
//! ```text
//! GAUGENN_CRASH=model-analysis:3   # die on the 3rd model-analysis hit
//! GAUGENN_CRASH_MODE=kill          # kill (SIGKILL) | abort | panic
//! ```
//!
//! or programmatic via [`arm`] / [`disarm`] (used by `crashbench`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A named stage boundary the process can be scheduled to die at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// After the crawl finished and its end-of-crawl marker is durable.
    /// The crawl streams into the analysis, so workers may still be
    /// analysing apps it handed on.
    PostCrawl,
    /// Per-app model extraction, once per app, after its containers are
    /// dropped. Runs while the crawl is still going.
    AppExtract,
    /// Per-model analysis, once per model instance found.
    ModelAnalysis,
    /// Cache-store save: after the outcome's save record is appended to
    /// the cache log. The resumed run must attach to what the log holds
    /// and recompute the rest.
    CacheAppend,
    /// Campaign job commit: a device worker finished a job and its
    /// result was handed to the commit hook.
    JobCommit,
}

/// All points, in pipeline order (used by `crashbench` to sweep).
pub const ALL_POINTS: [CrashPoint; 5] = [
    CrashPoint::PostCrawl,
    CrashPoint::AppExtract,
    CrashPoint::ModelAnalysis,
    CrashPoint::CacheAppend,
    CrashPoint::JobCommit,
];

impl CrashPoint {
    /// Stable external name (env var / CLI / bench tables).
    pub fn name(self) -> &'static str {
        match self {
            CrashPoint::PostCrawl => "post-crawl",
            CrashPoint::AppExtract => "app-extract",
            CrashPoint::ModelAnalysis => "model-analysis",
            CrashPoint::CacheAppend => "cache-append",
            CrashPoint::JobCommit => "job-commit",
        }
    }

    /// Parse an external name; `None` for anything unknown.
    pub fn parse(s: &str) -> Option<CrashPoint> {
        ALL_POINTS.into_iter().find(|p| p.name() == s)
    }
}

/// How the armed point takes the process down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// Real SIGKILL to ourselves: no destructors, no atexit, no flushing
    /// — the honest crash. Falls back to [`CrashMode::Abort`] if the
    /// signal cannot be delivered.
    Kill,
    /// `std::process::abort()`: still no unwinding, but raised in-process.
    Abort,
    /// Unwind with a [`CrashSignal`] panic payload (in-test crashes).
    Panic,
}

impl CrashMode {
    fn parse(s: &str) -> Option<CrashMode> {
        match s {
            "kill" => Some(CrashMode::Kill),
            "abort" => Some(CrashMode::Abort),
            "panic" => Some(CrashMode::Panic),
            _ => None,
        }
    }
}

/// Panic payload thrown by [`CrashMode::Panic`]. Tests downcast to this
/// to tell an injected crash from a genuine bug.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashSignal {
    /// The point that fired.
    pub point: &'static str,
    /// Which hit fired (1-based).
    pub hit: u64,
}

/// An armed crash: die on the `after`-th hit of `point`.
#[derive(Debug)]
pub struct CrashPlan {
    point: CrashPoint,
    /// 1-based hit count that fires; `3` means the third [`hit`] call.
    after: u64,
    mode: CrashMode,
    seen: AtomicU64,
}

impl CrashPlan {
    /// Build a plan. `after` is clamped to at least 1.
    pub fn new(point: CrashPoint, after: u64, mode: CrashMode) -> CrashPlan {
        CrashPlan {
            point,
            after: after.max(1),
            mode,
            seen: AtomicU64::new(0),
        }
    }

    /// Parse the `GAUGENN_CRASH` form `point[:n]` (n defaults to 1).
    pub fn parse(spec: &str, mode: CrashMode) -> Option<CrashPlan> {
        let (name, nth) = match spec.split_once(':') {
            Some((name, n)) => (name, n.trim().parse::<u64>().ok()?),
            None => (spec, 1),
        };
        Some(CrashPlan::new(CrashPoint::parse(name.trim())?, nth, mode))
    }
}

/// The installed plan. A `Mutex<Option<Arc<…>>>` rather than a bare
/// `OnceLock` so tests and `crashbench` can re-arm between runs; the hot
/// path avoids the lock entirely via [`ARMED`].
static PLAN: Mutex<Option<Arc<CrashPlan>>> = Mutex::new(None);
/// Fast-path flag: false ⇒ `hit` returns after one atomic load.
static ARMED: AtomicU64 = AtomicU64::new(0);
/// One-time env bootstrap.
static ENV_INIT: OnceLock<()> = OnceLock::new();

/// Install a plan (replacing any previous one) and reset its hit count.
pub fn arm(plan: CrashPlan) {
    let mut slot = PLAN.lock().unwrap_or_else(|e| e.into_inner());
    *slot = Some(Arc::new(plan));
    ARMED.store(1, Ordering::SeqCst);
}

/// Remove the installed plan.
pub fn disarm() {
    let mut slot = PLAN.lock().unwrap_or_else(|e| e.into_inner());
    *slot = None;
    ARMED.store(0, Ordering::SeqCst);
}

/// Read `GAUGENN_CRASH` / `GAUGENN_CRASH_MODE` once. A malformed spec
/// arms nothing — fault injection must never break a production run.
fn init_from_env() {
    ENV_INIT.get_or_init(|| {
        let Ok(spec) = std::env::var("GAUGENN_CRASH") else {
            return;
        };
        let mode = std::env::var("GAUGENN_CRASH_MODE")
            .ok()
            .and_then(|m| CrashMode::parse(&m))
            .unwrap_or(CrashMode::Kill);
        if let Some(plan) = CrashPlan::parse(&spec, mode) {
            arm(plan);
        }
    });
}

/// Declare a stage boundary. If the armed plan matches and this is its
/// `after`-th hit, the process dies (or unwinds, in panic mode).
pub fn hit(point: CrashPoint) {
    init_from_env();
    if ARMED.load(Ordering::SeqCst) == 0 {
        return;
    }
    let plan = {
        let slot = PLAN.lock().unwrap_or_else(|e| e.into_inner());
        match slot.as_ref() {
            Some(p) if p.point == point => Arc::clone(p),
            _ => return,
        }
    };
    let seen = plan.seen.fetch_add(1, Ordering::SeqCst) + 1;
    if seen != plan.after {
        return;
    }
    crash(plan.mode, point, seen);
}

fn crash(mode: CrashMode, point: CrashPoint, hit: u64) {
    match mode {
        CrashMode::Panic => std::panic::panic_any(CrashSignal {
            point: point.name(),
            hit,
        }),
        CrashMode::Abort => std::process::abort(),
        CrashMode::Kill => {
            // SIGKILL ourselves via /bin/kill (no libc binding in the
            // build environment). Spin until delivery; if the signal
            // could not be sent at all, abort — an armed crash point
            // must never be survived.
            let pid = std::process::id().to_string();
            let sent = std::process::Command::new("kill")
                .args(["-9", &pid])
                .status()
                .map(|s| s.success())
                .unwrap_or(false);
            if sent {
                loop {
                    std::hint::spin_loop();
                }
            }
            std::process::abort();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Arm/disarm touch process-global state; serialise the tests that
    /// do, and have them use only [`CrashPoint::JobCommit`] — the one
    /// point no other test in this binary ever hits.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn names_roundtrip() {
        for p in ALL_POINTS {
            assert_eq!(CrashPoint::parse(p.name()), Some(p));
        }
        assert_eq!(CrashPoint::parse("no-such-point"), None);
    }

    #[test]
    fn spec_parsing() {
        let p = CrashPlan::parse("model-analysis:3", CrashMode::Panic).unwrap();
        assert_eq!(p.point, CrashPoint::ModelAnalysis);
        assert_eq!(p.after, 3);
        let p = CrashPlan::parse("post-crawl", CrashMode::Panic).unwrap();
        assert_eq!(p.after, 1);
        assert!(CrashPlan::parse("bogus:2", CrashMode::Panic).is_none());
        assert!(CrashPlan::parse("post-crawl:x", CrashMode::Panic).is_none());
    }

    #[test]
    fn panic_mode_fires_on_nth_hit_with_typed_payload() {
        let _serial = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        arm(CrashPlan::new(CrashPoint::JobCommit, 2, CrashMode::Panic));
        hit(CrashPoint::PostCrawl); // wrong point: ignored
        hit(CrashPoint::JobCommit); // 1st hit: survives
        let err = std::panic::catch_unwind(|| hit(CrashPoint::JobCommit))
            .expect_err("2nd hit must unwind");
        let sig = err.downcast_ref::<CrashSignal>().expect("typed payload");
        assert_eq!(sig.point, "job-commit");
        assert_eq!(sig.hit, 2);
        // Fired plans stay spent: a 3rd hit does nothing.
        hit(CrashPoint::JobCommit);
        disarm();
    }

    #[test]
    fn disarmed_hits_are_free() {
        let _serial = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        disarm();
        for p in ALL_POINTS {
            hit(p);
        }
    }
}
