//! The in-memory aggregating backend.
//!
//! [`MemoryRecorder`] keeps counters, histograms, and span aggregates in
//! `BTreeMap`s behind one mutex. Spans arrive with explicit ids and
//! parent links (see [`crate::trace`]), so aggregation is *causal*: each
//! closing lands under the `/`-joined path of its parent chain — even
//! when the child closed on a different thread than its parent opened on.
//! [`MemoryRecorder::snapshot`] clones the aggregates out as a
//! [`MemorySnapshot`] — an inert, comparable, renderable value used by
//! the experiments and the differential tests, which can also rebuild the
//! nested span tree ([`MemorySnapshot::tree`]).

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Duration;

use crate::hist::Histogram;
use crate::recorder::Recorder;
use crate::trace::SpanId;

/// Aggregate of all closings of one span path.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Times the span closed.
    pub count: u64,
    /// Total wall time across closings.
    pub total: Duration,
}

#[derive(Debug, Default)]
struct State {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    spans: BTreeMap<String, SpanStat>,
    /// Open span id → its full `/`-joined path, removed on close.
    open: HashMap<SpanId, String>,
}

/// An aggregating in-memory [`Recorder`].
///
/// # Example
///
/// ```
/// use anonet_obs::{MemoryRecorder, Recorder};
///
/// let rec = MemoryRecorder::new();
/// rec.counter("engine.messages", 12);
/// rec.counter("engine.messages", 3);
/// rec.histogram("engine.messages_per_round", 4);
/// let snap = rec.snapshot();
/// assert_eq!(snap.counter("engine.messages"), 15);
/// assert_eq!(snap.histogram("engine.messages_per_round").unwrap().count(), 1);
/// ```
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    state: Mutex<State>,
}

impl MemoryRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        MemoryRecorder::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        // A panicking instrumented job must not take observability down
        // with it; all updates are atomic under the lock.
        self.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Clones the current aggregates out.
    pub fn snapshot(&self) -> MemorySnapshot {
        let s = self.lock();
        MemorySnapshot {
            counters: s.counters.clone(),
            histograms: s.histograms.clone(),
            spans: s.spans.clone(),
        }
    }

    /// Drops all aggregates (open spans keep their paths and survive).
    pub fn reset(&self) {
        let mut s = self.lock();
        s.counters.clear();
        s.histograms.clear();
        s.spans.clear();
    }
}

impl Recorder for MemoryRecorder {
    fn span_open(&self, id: SpanId, parent: Option<SpanId>, name: &str) {
        let mut s = self.lock();
        // A parent that is not open here (already closed, or recorded by
        // another backend) degrades to a root — never a lost event.
        let path = match parent.and_then(|p| s.open.get(&p)) {
            Some(parent_path) => format!("{parent_path}/{name}"),
            None => name.to_string(),
        };
        s.open.insert(id, path);
    }

    fn span_close(&self, id: SpanId, _parent: Option<SpanId>, name: &str, wall: Duration) {
        let mut s = self.lock();
        let path = s.open.remove(&id).unwrap_or_else(|| name.to_string());
        let stat = s.spans.entry(path).or_default();
        stat.count += 1;
        stat.total += wall;
    }

    fn counter(&self, name: &str, delta: u64) {
        let mut s = self.lock();
        *s.counters.entry(name.to_string()).or_default() += delta;
    }

    fn histogram(&self, name: &str, value: u64) {
        let mut s = self.lock();
        s.histograms.entry(name.to_string()).or_default().record(value);
    }
}

/// A point-in-time clone of a [`MemoryRecorder`]'s aggregates.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemorySnapshot {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    spans: BTreeMap<String, SpanStat>,
}

/// One node of a reconstructed span tree ([`MemorySnapshot::tree`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanNode {
    /// The leaf name.
    pub name: String,
    /// The full `/`-joined path.
    pub path: String,
    /// Aggregate closings at exactly this path (zero for a synthesized
    /// intermediate whose own closings were never recorded).
    pub stat: SpanStat,
    /// Child nodes, sorted by name.
    pub children: Vec<SpanNode>,
}

impl MemorySnapshot {
    /// The value of a counter (`0` if never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// A histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The aggregate of one exact span path (e.g. `pipeline/coloring`).
    pub fn span(&self, path: &str) -> Option<&SpanStat> {
        self.spans.get(path)
    }

    /// All span aggregates, sorted by path.
    pub fn spans(&self) -> impl Iterator<Item = (&str, &SpanStat)> {
        self.spans.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Sums every span path whose **leaf** name is `leaf`, across parents
    /// (a `views` span shows up under `pipeline/derandomize/views` and
    /// `derandomize/views` alike).
    pub fn span_total(&self, leaf: &str) -> SpanStat {
        let mut out = SpanStat::default();
        for (path, stat) in &self.spans {
            if path.rsplit('/').next() == Some(leaf) {
                out.count += stat.count;
                out.total += stat.total;
            }
        }
        out
    }

    /// Reconstructs the nested span tree from the aggregated paths.
    /// Intermediate nodes that never closed themselves (still open at
    /// snapshot time, or closed only under other parents) are synthesized
    /// with zero stats so their children still hang in the right place.
    pub fn tree(&self) -> Vec<SpanNode> {
        fn insert(nodes: &mut Vec<SpanNode>, prefix: &str, segments: &[&str], stat: &SpanStat) {
            let name = segments[0];
            let path =
                if prefix.is_empty() { name.to_string() } else { format!("{prefix}/{name}") };
            let pos = match nodes.iter().position(|n| n.name == name) {
                Some(pos) => pos,
                None => {
                    nodes.push(SpanNode {
                        name: name.to_string(),
                        path: path.clone(),
                        stat: SpanStat::default(),
                        children: Vec::new(),
                    });
                    nodes.len() - 1
                }
            };
            if segments.len() == 1 {
                nodes[pos].stat.count += stat.count;
                nodes[pos].stat.total += stat.total;
            } else {
                insert(&mut nodes[pos].children, &path, &segments[1..], stat);
            }
        }
        let mut roots = Vec::new();
        for (path, stat) in &self.spans {
            let segments: Vec<&str> = path.split('/').collect();
            insert(&mut roots, "", &segments, stat);
        }
        roots
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty() && self.spans.is_empty()
    }

    /// Multi-line human-readable rendering (spans, counters, histograms
    /// with p50/p90/p99 bucket-bound estimates).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (path, stat) in &self.spans {
            let _ = writeln!(out, "span      {path:<40} x{:<6} {:.3?}", stat.count, stat.total);
        }
        for (name, v) in &self.counters {
            let _ = writeln!(out, "counter   {name:<40} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "histogram {name:<40} n={} min={} mean={:.2} p50={} p90={} p99={} max={}",
                h.count(),
                h.min().unwrap_or(0),
                h.mean().unwrap_or(0.0),
                h.p50().unwrap_or(0),
                h.p90().unwrap_or(0),
                h.p99().unwrap_or(0),
                h.max().unwrap_or(0),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Span;

    #[test]
    fn spans_nest_into_paths() {
        let rec = MemoryRecorder::new();
        {
            let _a = Span::new(&rec, "pipeline");
            {
                let _b = Span::new(&rec, "coloring");
            }
            {
                let _c = Span::new(&rec, "derandomize");
            }
        }
        let snap = rec.snapshot();
        assert_eq!(snap.span("pipeline").unwrap().count, 1);
        assert_eq!(snap.span("pipeline/coloring").unwrap().count, 1);
        assert_eq!(snap.span("pipeline/derandomize").unwrap().count, 1);
        assert!(snap.span("coloring").is_none());
        assert_eq!(snap.span_total("coloring").count, 1);
    }

    #[test]
    fn threads_get_independent_stacks() {
        let rec = MemoryRecorder::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let _outer = Span::new(&rec, "job");
                    let _inner = Span::new(&rec, "work");
                });
            }
        });
        let snap = rec.snapshot();
        assert_eq!(snap.span("job").unwrap().count, 4);
        assert_eq!(snap.span("job/work").unwrap().count, 4);
    }

    #[test]
    fn contexts_link_worker_spans_to_their_submitter() {
        let rec = MemoryRecorder::new();
        {
            let batch = Span::new(&rec, "batch_run");
            let ctx = batch.context();
            std::thread::scope(|scope| {
                for _ in 0..3 {
                    scope.spawn(|| {
                        let job = Span::child_of(&rec, "job", ctx);
                        let _inner = Span::child_of(&rec, "step", job.context());
                    });
                }
            });
        }
        let snap = rec.snapshot();
        assert_eq!(snap.span("batch_run").unwrap().count, 1);
        assert_eq!(snap.span("batch_run/job").unwrap().count, 3);
        assert_eq!(snap.span("batch_run/job/step").unwrap().count, 3);
        assert!(snap.span("job").is_none(), "no orphan per-thread roots");
    }

    #[test]
    fn tree_reconstructs_nesting_and_synthesizes_open_parents() {
        let rec = MemoryRecorder::new();
        let root = Span::new(&rec, "campaign");
        {
            let _cell = Span::new(&rec, "cell");
            let _work = Span::new(&rec, "work");
        }
        // `campaign` is still open at snapshot time.
        let snap = rec.snapshot();
        let tree = snap.tree();
        assert_eq!(tree.len(), 1);
        let campaign = &tree[0];
        assert_eq!(campaign.name, "campaign");
        assert_eq!(campaign.stat.count, 0, "open parent is synthesized");
        assert_eq!(campaign.children.len(), 1);
        let cell = &campaign.children[0];
        assert_eq!((cell.path.as_str(), cell.stat.count), ("campaign/cell", 1));
        assert_eq!(cell.children[0].path, "campaign/cell/work");
        drop(root);
    }

    #[test]
    fn counters_and_histograms_aggregate() {
        let rec = MemoryRecorder::new();
        rec.counter("c", 1);
        rec.counter("c", 2);
        rec.histogram("h", 10);
        rec.histogram("h", 20);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("c"), 3);
        assert_eq!(snap.counter("missing"), 0);
        let h = snap.histogram("h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 30);
        assert!(snap.render().contains("counter   c"));
        assert!(snap.render().contains("p50="));
        assert!(!snap.is_empty());
    }

    #[test]
    fn reset_clears_aggregates() {
        let rec = MemoryRecorder::new();
        rec.counter("c", 1);
        rec.reset();
        assert!(rec.snapshot().is_empty());
    }
}
