//! The bench bins' wall clock. Latency percentiles come from
//! [`gaugenn_analysis::stats::Ecdf`], the same nearest-rank rule that
//! renders the paper's latency ECDFs.

/// The bench crate's single audited wall-clock read. Every bench bin
/// times through a `Stopwatch` instead of ad-hoc `Instant::now()` pairs,
/// so the workspace taint pass (DESIGN.md §15) sees exactly one clock
/// sink in the bench crate — annotated here, at the one place a human
/// has verified the reading never feeds deterministic output.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(std::time::Instant);

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Stopwatch {
        // gaugelint: deterministic-via(clock) — bench wall timing IS the measurement; it is reported, never merged into deterministic output
        Stopwatch(std::time::Instant::now())
    }

    /// Time since [`Stopwatch::start`].
    pub fn elapsed(&self) -> std::time::Duration {
        self.0.elapsed()
    }

    /// Elapsed milliseconds as `f64` (the bins' reporting unit).
    pub fn ms(&self) -> f64 {
        self.elapsed().as_secs_f64() * 1e3
    }
}
