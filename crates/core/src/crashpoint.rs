//! Seeded crash-fault injection: named kill points at stage boundaries.
//!
//! The chaos layer (`playstore::chaos`) makes the *network* a fault
//! domain; this module makes the **process itself** one. A crash plan
//! arms exactly one named [`CrashPoint`] — a stage boundary the pipeline
//! declares by calling [`hit`] — and deterministically SIGKILLs the
//! process the `n`-th time execution reaches it. Everything the journal
//! layer (`core::journal`) and the persistent cache claim about
//! crash-tolerance is proven against these points: the failure-injection
//! matrix and `scripts/verify.sh` SIGKILL a child run at each point and
//! assert the resumed run's stdout is byte-identical to an uninterrupted
//! one.
//!
//! # Discipline
//!
//! Same rules as the chaos store:
//! * **Deterministic.** A plan is (point, nth-hit); no wall clock, no
//!   entropy. Given the same schedule of `hit` calls, the same call
//!   crashes. (Across *worker threads* the global hit counter interleaves
//!   nondeterministically — which is exactly the point: recovery must be
//!   correct wherever in the stage the process dies.)
//! * **One crash.** A fired point sends SIGKILL: no unwinding, no
//!   destructors, no flushes. It aborts only when the signal cannot be
//!   sent, so an armed point is never survived.
//! * **Off by default.** Unarmed, `hit` is one atomic load.
//!
//! # Arming
//!
//! The environment, read once per process:
//!
//! ```text
//! GAUGENN_CRASH=model-analysis:3   # die on the 3rd model-analysis hit
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

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

/// All points, in pipeline order.
const ALL_POINTS: [CrashPoint; 5] = [
    CrashPoint::PostCrawl,
    CrashPoint::AppExtract,
    CrashPoint::ModelAnalysis,
    CrashPoint::CacheAppend,
    CrashPoint::JobCommit,
];

impl CrashPoint {
    /// Stable external name (the `GAUGENN_CRASH` spelling).
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

/// An armed crash: die on the `after`-th hit of `point`.
#[derive(Debug)]
struct CrashPlan {
    point: CrashPoint,
    /// 1-based hit count that fires; `3` means the third [`hit`] call.
    after: u64,
    seen: AtomicU64,
}

impl CrashPlan {
    /// Parse the `GAUGENN_CRASH` form `point[:n]` (n defaults to 1 and
    /// is clamped to at least 1).
    fn parse(spec: &str) -> Option<CrashPlan> {
        let (name, nth) = match spec.split_once(':') {
            Some((name, n)) => (name, n.trim().parse::<u64>().ok()?),
            None => (spec, 1),
        };
        Some(CrashPlan {
            point: CrashPoint::parse(name.trim())?,
            after: nth.max(1),
            seen: AtomicU64::new(0),
        })
    }
}

/// The plan `GAUGENN_CRASH` arms, read on the first [`hit`]. A malformed
/// spec arms nothing — fault injection must never break a production
/// run.
static PLAN: OnceLock<Option<CrashPlan>> = OnceLock::new();

/// Declare a stage boundary. If the armed plan matches and this is its
/// `after`-th hit, the process dies by SIGKILL.
pub fn hit(point: CrashPoint) {
    let plan = PLAN.get_or_init(|| {
        std::env::var("GAUGENN_CRASH")
            .ok()
            .and_then(|spec| CrashPlan::parse(&spec))
    });
    let Some(plan) = plan.as_ref().filter(|p| p.point == point) else {
        return;
    };
    if plan.seen.fetch_add(1, Ordering::SeqCst) + 1 == plan.after {
        kill();
    }
}

/// SIGKILL ourselves via /bin/kill (no libc binding in the build
/// environment) and spin until delivery; if the signal could not be sent
/// at all, abort — an armed crash point must never be survived.
fn kill() -> ! {
    let pid = std::process::id().to_string();
    let sent = std::process::Command::new("kill")
        .args(["-9", &pid])
        .status()
        .is_ok_and(|s| s.success());
    if sent {
        loop {
            std::hint::spin_loop();
        }
    }
    std::process::abort();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for p in ALL_POINTS {
            assert_eq!(CrashPoint::parse(p.name()), Some(p));
        }
        assert_eq!(CrashPoint::parse("no-such-point"), None);
    }

    #[test]
    fn spec_parsing() {
        let p = CrashPlan::parse("model-analysis:3").unwrap();
        assert_eq!(p.point, CrashPoint::ModelAnalysis);
        assert_eq!(p.after, 3);
        let p = CrashPlan::parse("post-crawl").unwrap();
        assert_eq!(p.after, 1);
        assert_eq!(CrashPlan::parse("post-crawl:0").unwrap().after, 1);
        assert!(CrashPlan::parse("bogus:2").is_none());
        assert!(CrashPlan::parse("post-crawl:x").is_none());
    }

    #[test]
    fn disarmed_hits_are_free() {
        // The test harness runs without `GAUGENN_CRASH`, so nothing is
        // armed and no point fires.
        for p in ALL_POINTS {
            hit(p);
        }
    }
}
