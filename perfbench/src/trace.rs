//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a layer's public function
//! in a span named `<layer>.<operation>`. Spans (name, start, end,
//! parent, run id) stay in memory and are written out once, after the
//! run; the per-layer table charges each span its *self* time — its
//! duration minus the part of it that child spans cover.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = usize;

/// One recorded span; times in nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Run (trace) identifier shared by every span of one traced run.
    pub run: u64,
}

impl Span {
    /// The layer part of the name.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A thread-safe span sink. Parents are passed explicitly, so spans
/// opened on worker threads attach to the span that spawned them.
pub struct Tracer {
    t0: Instant,
    run: u64,
    next: AtomicUsize,
    spans: Mutex<Vec<(SpanId, Span)>>,
}

impl Tracer {
    /// A tracer whose spans carry run id `run`.
    pub fn new(run: u64) -> Tracer {
        Tracer {
            t0: Instant::now(),
            run,
            next: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; `f` receives the span's id so nested calls
    /// can name it as their parent.
    pub fn span<T>(
        &self,
        parent: Option<SpanId>,
        name: &'static str,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.now();
        let out = f(id);
        let end = self.now();
        let span = Span {
            name,
            start,
            end,
            parent,
            run: self.run,
        };
        self.spans
            .lock()
            .expect("span sink poisoned")
            .push((id, span));
        out
    }

    /// Every span recorded so far, indexed by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut raw = self.spans.lock().expect("span sink poisoned").clone();
        raw.sort_by_key(|(id, _)| *id);
        debug_assert!(raw.iter().enumerate().all(|(i, (id, _))| i == *id));
        raw.into_iter().map(|(_, s)| s).collect()
    }

    /// Total milliseconds spent in spans called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e6)
            .sum()
    }

    /// Durations (ms) of every span called `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e6)
            .collect()
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span, ns: its duration minus the union of its
/// children's intervals (children on parallel threads may overlap).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| (s.end - s.start) - covered(kids, s.start, s.end))
        .collect()
}

/// Per-layer rows: `(layer, spans, total ms, self ms)`, by layer name.
pub fn layer_table(spans: &[Span]) -> Vec<(&'static str, usize, f64, f64)> {
    let selfs = self_times(spans);
    let mut rows: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let row = rows.entry(s.layer()).or_default();
        row.0 += 1;
        row.1 += s.end - s.start;
        row.2 += own;
    }
    rows.into_iter()
        .map(|(layer, (n, total, own))| (layer, n, total as f64 / 1e6, own as f64 / 1e6))
        .collect()
}

/// Render the per-layer self-time table.
pub fn render_table(spans: &[Span]) -> String {
    let mut out = format!(
        "{:<14} {:>7} {:>12} {:>12}\n",
        "layer", "spans", "total ms", "self ms"
    );
    for (layer, n, total, own) in layer_table(spans) {
        out.push_str(&format!("{layer:<14} {n:>7} {total:>12.1} {own:>12.1}\n"));
    }
    out
}

/// Every span as one JSON object per line.
pub fn render_spans(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"run\": {}}}\n",
            s.name, s.start, s.end, s.run
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            run: 7,
        }
    }

    #[test]
    fn self_time_subtracts_children_once_even_when_they_overlap() {
        let spans = vec![
            span("pool.crawl", 0, 100, None),
            span("harness.run_job", 10, 40, Some(0)),
            span("harness.run_job", 30, 60, Some(0)), // overlaps the first child
            span("harness.execute", 15, 20, Some(1)),
            span("md5.digest", 90, 130, Some(0)), // runs past its parent
        ];
        let own = self_times(&spans);
        // Children cover [10, 60] and [90, 100] of the parent: 60 ns.
        assert_eq!(own[0], 40);
        assert_eq!(own[1], 25);
        assert_eq!(own[2], 30);
        assert_eq!(own[3], 5);
        assert_eq!(own[4], 40);
    }

    #[test]
    fn layer_table_groups_by_name_prefix() {
        let spans = vec![
            span("harness.campaign", 0, 1_000_000, None),
            span("harness.run_job", 0, 600_000, Some(0)),
            span("soc.estimate", 600_000, 700_000, Some(0)),
        ];
        let rows = layer_table(&spans);
        assert_eq!(rows.len(), 2);
        let (layer, n, total, own) = rows[0];
        assert_eq!((layer, n), ("harness", 2));
        assert!((total - 1.6).abs() < 1e-9);
        assert!(
            (own - 0.9).abs() < 1e-9,
            "0.3 ms campaign self + 0.6 ms run_job"
        );
        assert!(render_table(&spans).contains("soc"));
    }

    #[test]
    fn tracer_records_parents_and_run_ids() {
        let tr = Tracer::new(42);
        let v = tr.span(None, "a.outer", |id| tr.span(Some(id), "b.inner", |_| 5));
        assert_eq!(v, 5);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "a.outer");
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.run == 42 && s.end >= s.start));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert_eq!(render_spans(&spans).lines().count(), 2);
    }
}
