//! The benchmark's own arithmetic: percentiles with an honest tail,
//! run-to-run spread, open-loop latency and generator-lag accounting,
//! the backlog test and the rate ladder.
//!
//! Everything here is a pure function of its inputs so the unit tests
//! below pin it without a clock or a socket.

/// Fewest samples a reported percentile must have strictly above it.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for even counts); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank index of percentile `p` in `n` sorted samples: the
/// smallest rank whose cumulative share reaches `p`.
fn rank(n: usize, p: f64) -> usize {
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Plain nearest-rank percentile of `sorted` with no tail rule (0 for an
/// empty slice) — for diagnostics such as generator lag.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p)]
}

/// A percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile value.
    pub value: f64,
    /// Samples it was taken over.
    pub samples: usize,
    /// Samples strictly beyond its rank.
    pub beyond: usize,
}

/// Nearest-rank percentile `p` of `sorted` (ascending), or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it — a p99 over 500
/// samples is the maximum of five, not a tail.
pub fn tail(sorted: &[f64], p: f64) -> Option<Tail> {
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted"
    );
    if sorted.is_empty() {
        return None;
    }
    let idx = rank(sorted.len(), p);
    let beyond = sorted.len() - 1 - idx;
    (beyond >= MIN_BEYOND).then_some(Tail {
        value: sorted[idx],
        samples: sorted.len(),
        beyond,
    })
}

/// Sort a sample vector ascending (NaNs last).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Interquartile range as a share of the median, with quartiles taken
/// the way Python's `statistics.quantiles(values, n=4)` takes them (the
/// exclusive method). 0 for fewer than two values or a zero median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let v = sorted(values.to_vec());
    let m = n + 1;
    let quartile = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    let med = median(&v);
    if med == 0.0 {
        return 0.0;
    }
    ((quartile(3) - quartile(1)) / med).abs()
}

/// One open-loop phase as the generator saw it, in seconds from the
/// phase start: when each request was due, when it was actually written
/// and when its response completed (`None` = never received).
#[derive(Debug, Clone, Default)]
pub struct OpenLoopLog {
    /// Scheduled send times.
    pub due: Vec<f64>,
    /// Actual send times (never earlier than `due`).
    pub sent: Vec<f64>,
    /// Completion times.
    pub done: Vec<Option<f64>>,
}

impl OpenLoopLog {
    /// Latency of every completed request in milliseconds, timed from
    /// when it was *due* — a stall anywhere (generator, network, server)
    /// is charged to every request that waited behind it, which is what
    /// an independent user arriving on schedule would have seen.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.due
            .iter()
            .zip(&self.done)
            .filter_map(|(due, done)| done.map(|d| (d - due) * 1e3))
            .collect()
    }

    /// How late the generator wrote each request, in milliseconds.
    pub fn lags_ms(&self) -> Vec<f64> {
        self.due
            .iter()
            .zip(&self.sent)
            .map(|(due, sent)| (sent - due).max(0.0) * 1e3)
            .collect()
    }

    /// Percentile `p` of each consecutive window of `per_window` requests
    /// (in due order), skipping windows whose tail is too thin. On a
    /// host whose CPU is stolen in bursts, the median of these is a far
    /// steadier figure than one percentile over the whole phase, which a
    /// single stall can own.
    pub fn window_tails(&self, per_window: usize, p: f64) -> Vec<Tail> {
        let lat: Vec<Option<f64>> = self
            .due
            .iter()
            .zip(&self.done)
            .map(|(due, done)| done.map(|d| (d - due) * 1e3))
            .collect();
        lat.chunks(per_window.max(1))
            .filter(|w| w.len() == per_window)
            .filter_map(|w| tail(&sorted(w.iter().flatten().copied().collect()), p))
            .collect()
    }

    /// Requests never answered.
    pub fn missing(&self) -> usize {
        self.done.iter().filter(|d| d.is_none()).count()
    }

    /// Backlog at each request's due time: requests already due (this one
    /// included) whose responses had not completed by then.
    pub fn backlog(&self) -> Vec<u32> {
        // Completion times sorted ascending: the count of completions at
        // or before `t` is a binary search away.
        let done = sorted(
            self.done
                .iter()
                .map(|d| d.unwrap_or(f64::INFINITY))
                .collect(),
        );
        self.due
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                let completed = done.partition_point(|&d| d <= t);
                (i + 1).saturating_sub(completed) as u32
            })
            .collect()
    }
}

/// Whether a backlog series (one sample per request, in due order)
/// grows across the phase: the mean of its last quarter exceeds twice
/// the mean of its first quarter plus a slack of four requests. A rate
/// the system sustains keeps a flat backlog near rate × latency; an
/// overloaded one grows it linearly, so the last quarter dwarfs the
/// first.
pub fn backlog_grows(backlog: &[u32]) -> bool {
    let q = backlog.len() / 4;
    if q == 0 {
        return false;
    }
    let mean = |s: &[u32]| s.iter().map(|&b| b as f64).sum::<f64>() / s.len() as f64;
    let first = mean(&backlog[..q]);
    let last = mean(&backlog[backlog.len() - q..]);
    last > 2.0 * first + 4.0
}

/// Verdict of one ladder rung.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// p99 latency from due time, if the rung had enough samples.
    pub p99_ms: Option<f64>,
    /// Whether the backlog grew.
    pub backlog_grew: bool,
    /// Requests that failed or never completed.
    pub failed: usize,
}

impl Rung {
    /// The latency objective: a valid p99 within `limit_ms`, no growing
    /// backlog and no failures.
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.failed == 0 && !self.backlog_grew && self.p99_ms.is_some_and(|p| p <= limit_ms)
    }
}

/// A geometric rate ladder from `low` to at least `high`, each rung
/// `ratio` above the last.
pub fn ladder(low: f64, high: f64, ratio: f64) -> Vec<f64> {
    assert!(
        low > 0.0 && ratio > 1.0,
        "ladder needs a positive base and a ratio above 1"
    );
    let mut rungs = vec![low];
    while *rungs.last().expect("non-empty") < high {
        let next = rungs.last().expect("non-empty") * ratio;
        rungs.push(next);
    }
    rungs
}

/// The highest rung of `rungs` that `probe` passes, found by bisection
/// (the latency objective is taken as monotone in rate: a system that
/// fails at one rate fails at every higher one). `None` when even the
/// lowest rung fails.
pub fn highest_passing(rungs: &[f64], mut probe: impl FnMut(f64) -> bool) -> Option<f64> {
    // Invariant: rungs[..=lo] pass (lo = None: none known), rungs[hi..] fail.
    let (mut lo, mut hi): (Option<usize>, usize) = (None, rungs.len());
    loop {
        let start = lo.map_or(0, |l| l + 1);
        if start >= hi {
            return lo.map(|l| rungs[l]);
        }
        let mid = start + (hi - start) / 2;
        if probe(rungs[mid]) {
            lo = Some(mid);
        } else {
            hi = mid;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 999 samples: rank 990 (value 989), nine samples above it.
        let v: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(tail(&v, 99.0), None, "nine samples beyond is not a tail");
        // 1000 samples: rank 990 (value 989), ten beyond — valid.
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let t = tail(&v, 99.0).expect("ten beyond is enough");
        assert_eq!(t.value, 989.0);
        assert_eq!(t.samples, 1000);
        assert_eq!(t.beyond, 10);
        // The median of a tiny set is still fine.
        let t = tail(
            &[
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0, 17.0, 18.0, 19.0, 20.0, 21.0,
            ],
            50.0,
        )
        .expect("ten above the median");
        assert_eq!((t.value, t.beyond), (11.0, 10));
        assert_eq!(tail(&[], 50.0), None);
    }

    #[test]
    fn spread_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let want = (8.25 - 2.75) / 5.5;
        assert!((quartile_spread(&v) - want).abs() < 1e-12);
        // statistics.quantiles([4, 1, 3], n=4) == [1.0, 3.0, 4.0]
        assert!((quartile_spread(&[4.0, 1.0, 3.0]) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
        assert_eq!(quartile_spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    /// A single FIFO server fed on schedule: each response completes one
    /// service time after the later of its due time and the previous
    /// completion.
    fn fifo(due: &[f64], service: &[f64]) -> Vec<Option<f64>> {
        let mut free = 0.0f64;
        due.iter()
            .zip(service)
            .map(|(&d, &s)| {
                free = free.max(d) + s;
                Some(free)
            })
            .collect()
    }

    #[test]
    fn one_stall_delays_every_later_request_from_its_due_time() {
        // 10 requests every 1 ms, 0.1 ms service, but request 2 stalls
        // for 5 ms: requests 3..=6 queue behind it.
        let due: Vec<f64> = (0..10).map(|i| i as f64 * 1e-3).collect();
        let mut service = vec![1e-4; 10];
        service[2] = 5e-3;
        let log = OpenLoopLog {
            sent: due.clone(),
            done: fifo(&due, &service),
            due,
        };
        let lat = log.latencies_ms();
        assert!((lat[1] - 0.1).abs() < 1e-9);
        assert!((lat[2] - 5.0).abs() < 1e-9);
        // Request 3 was due at 3 ms but waited for the stall to clear at
        // 7 ms: 4 ms of queueing plus its own 0.1 ms.
        assert!((lat[3] - 4.1).abs() < 1e-9, "{}", lat[3]);
        assert!((lat[4] - 3.2).abs() < 1e-9, "{}", lat[4]);
        assert!((lat[7] - 0.5).abs() < 1e-9, "{}", lat[7]);
        assert!((lat[8] - 0.1).abs() < 1e-9, "stall drained by request 8");
        assert_eq!(log.missing(), 0);
    }

    #[test]
    fn generator_lag_is_charged_to_latency_and_reported() {
        // The generator froze for 3 ms: requests due at 1 and 2 ms went
        // out at 4 ms. Timed from send they would look fast; timed from
        // due they carry the freeze.
        let due = vec![0.0, 1e-3, 2e-3, 5e-3];
        let sent = vec![0.0, 4e-3, 4e-3, 5e-3];
        let done: Vec<Option<f64>> = sent.iter().map(|s| Some(s + 1e-4)).collect();
        let log = OpenLoopLog { due, sent, done };
        let lags = log.lags_ms();
        assert!((lags[1] - 3.0).abs() < 1e-9 && (lags[2] - 2.0).abs() < 1e-9);
        assert_eq!(lags[0], 0.0);
        let lat = log.latencies_ms();
        assert!((lat[1] - 3.1).abs() < 1e-9, "{}", lat[1]);
        assert!((lat[3] - 0.1).abs() < 1e-9);
    }

    #[test]
    fn window_tails_isolate_a_stall_to_its_window() {
        // Three windows of 20 requests, 0.1 ms each, except a 9 ms stall
        // that hits five requests of the middle window.
        let due: Vec<f64> = (0..60).map(|i| i as f64 * 1e-3).collect();
        let done: Vec<Option<f64>> = due
            .iter()
            .enumerate()
            .map(|(i, d)| Some(d + if (25..30).contains(&i) { 9e-3 } else { 1e-4 }))
            .collect();
        let log = OpenLoopLog {
            sent: due.clone(),
            due,
            done,
        };
        // p50 with ten beyond needs 20 samples per window.
        let tails = log.window_tails(20, 50.0);
        assert_eq!(tails.len(), 3);
        assert!(tails
            .iter()
            .all(|t| (t.value - 0.1).abs() < 1e-9 && t.samples == 20));
        // A whole-phase p99 would be the stall; the windows' median is not.
        let all = sorted(log.latencies_ms());
        assert!((all[all.len() - 1] - 9.0).abs() < 1e-9);
        let medians: Vec<f64> = tails.iter().map(|t| t.value).collect();
        assert!((median(&medians) - 0.1).abs() < 1e-9);
        // A partial trailing window is dropped, not reported thin.
        assert_eq!(log.window_tails(25, 50.0).len(), 2);
    }

    #[test]
    fn backlog_counts_due_but_unanswered_requests() {
        let log = OpenLoopLog {
            due: vec![0.0, 1.0, 2.0, 3.0],
            sent: vec![0.0, 1.0, 2.0, 3.0],
            done: vec![Some(0.5), Some(2.5), None, Some(3.5)],
        };
        // At t=0: request 0 outstanding. t=1: 0 done, 1 outstanding.
        // t=2: 1 and 2 outstanding. t=3: 2 and 3 outstanding (1 done at 2.5).
        assert_eq!(log.backlog(), vec![1, 1, 2, 2]);
        assert_eq!(log.missing(), 1);
    }

    #[test]
    fn backlog_test_separates_sustained_from_overloaded_rates() {
        // Sustained: backlog hovers around 2.
        let flat: Vec<u32> = (0..400).map(|i| 1 + (i % 3) as u32).collect();
        assert!(!backlog_grows(&flat));
        // Overloaded: one extra request queued every 10 arrivals.
        let growing: Vec<u32> = (0..400).map(|i| 1 + i as u32 / 10).collect();
        assert!(backlog_grows(&growing));
        // A single burst mid-phase that drains is not growth.
        let mut burst = flat.clone();
        for b in &mut burst[150..200] {
            *b += 30;
        }
        assert!(!backlog_grows(&burst));
        assert!(!backlog_grows(&[]));
    }

    #[test]
    fn ladder_rungs_are_at_most_five_percent_apart() {
        let rungs = ladder(1000.0, 20_000.0, 1.05);
        assert_eq!(rungs[0], 1000.0);
        assert!(*rungs.last().unwrap() >= 20_000.0);
        for w in rungs.windows(2) {
            assert!(w[1] / w[0] <= 1.05 + 1e-12);
        }
    }

    #[test]
    fn bisection_finds_the_highest_passing_rung() {
        let rungs = ladder(1000.0, 20_000.0, 1.05);
        let mut probes = 0;
        let best = highest_passing(&rungs, |r| {
            probes += 1;
            r <= 7_300.0
        });
        let want = rungs
            .iter()
            .copied()
            .filter(|&r| r <= 7_300.0)
            .fold(0.0, f64::max);
        assert_eq!(best, Some(want));
        assert!(probes <= 7, "bisection, not a walk: {probes} probes");
        assert_eq!(highest_passing(&rungs, |_| false), None);
        assert_eq!(highest_passing(&rungs, |_| true), rungs.last().copied());
    }

    #[test]
    fn a_rung_passes_only_with_a_valid_tail_and_no_failures() {
        let ok = Rung {
            rate: 2000.0,
            p99_ms: Some(1.0),
            backlog_grew: false,
            failed: 0,
        };
        assert!(ok.passes(5.0));
        assert!(!Rung {
            p99_ms: Some(6.0),
            ..ok
        }
        .passes(5.0));
        assert!(!Rung { p99_ms: None, ..ok }.passes(5.0), "too few samples");
        assert!(!Rung {
            backlog_grew: true,
            ..ok
        }
        .passes(5.0));
        assert!(!Rung { failed: 1, ..ok }.passes(5.0));
    }
}
