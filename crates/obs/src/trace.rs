//! Span identities and cross-thread causality.
//!
//! Every enabled span gets a process-unique [`SpanId`] and an explicit
//! `parent: Option<SpanId>`, so backends can reconstruct the span *tree*
//! even when a child closes on a different thread than its parent opened
//! on. Parents are found two ways:
//!
//! * **Ambient** — [`Span::new`](crate::Span::new) adopts the innermost
//!   span the *same recorder* has open on the calling thread (tracked
//!   here in a thread-local stack keyed by recorder identity, so two
//!   recorders live on one thread never cross-pollute).
//! * **Explicit** — a [`TraceContext`] captured from a span with
//!   [`Span::context`](crate::Span::context) is `Copy + Send`; hand it
//!   across a thread boundary and open children with
//!   [`Span::child_of`](crate::Span::child_of). This is how scheduler
//!   jobs stay parented under the submitting span instead of becoming
//!   fresh per-thread roots.
//!
//! Nothing here allocates an id, touches the thread-local, or reads a
//! clock when the recorder is disabled — the no-op path stays free.

use std::cell::RefCell;
use std::num::NonZeroU64;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::recorder::Recorder;

/// A process-unique span identity, allocated from one global counter the
/// moment an *enabled* span opens. The numeric value is what JSONL traces
/// carry in their `id`/`parent` fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(NonZeroU64);

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ORDINAL: AtomicU64 = AtomicU64::new(1);

impl SpanId {
    /// Allocates the next id. Wrapping 2^64 allocations is unreachable in
    /// any real process; the fallback keeps the function total anyway.
    pub(crate) fn fresh() -> SpanId {
        let raw = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        SpanId(NonZeroU64::new(raw).unwrap_or(NonZeroU64::MIN))
    }

    /// The numeric value, as emitted in trace `id`/`parent` fields.
    pub fn get(self) -> u64 {
        self.0.get()
    }
}

/// A causality handle that crosses thread boundaries: `Copy + Send`,
/// carrying the span new work should be parented under.
///
/// # Example
///
/// ```
/// use anonet_obs::{MemoryRecorder, Span};
///
/// let rec = MemoryRecorder::new();
/// let batch = Span::new(&rec, "batch_run");
/// let ctx = batch.context();
/// std::thread::scope(|scope| {
///     scope.spawn(|| {
///         let _job = Span::child_of(&rec, "job", ctx);
///     });
/// });
/// drop(batch);
/// let snap = rec.snapshot();
/// assert_eq!(snap.span("batch_run/job").unwrap().count, 1);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceContext {
    parent: Option<SpanId>,
}

impl TraceContext {
    /// The empty context: children opened under it become roots.
    pub const NONE: TraceContext = TraceContext { parent: None };

    /// A context parenting children under `id`.
    pub fn under(id: SpanId) -> TraceContext {
        TraceContext { parent: Some(id) }
    }

    /// The parent a child span opened with this context adopts.
    pub fn parent(self) -> Option<SpanId> {
        self.parent
    }
}

thread_local! {
    /// The calling thread's open enabled spans: `(recorder key, id)`,
    /// innermost last. Spans borrow their recorder, so a frame can never
    /// outlive the recorder its key points at.
    static AMBIENT: RefCell<Vec<(usize, SpanId)>> = const { RefCell::new(Vec::new()) };
    static THREAD_ORDINAL: u64 = NEXT_THREAD_ORDINAL.fetch_add(1, Ordering::Relaxed);
}

/// A small process-unique ordinal for the calling thread (1, 2, 3, … in
/// first-use order) — the `tid` stamped on JSONL and flight-recorder
/// events, stable for the thread's lifetime.
pub fn thread_ordinal() -> u64 {
    THREAD_ORDINAL.with(|&t| t)
}

/// The identity key distinguishing recorders on the ambient stack: the
/// recorder's address.
pub(crate) fn recorder_key(rec: &dyn Recorder) -> usize {
    rec as *const dyn Recorder as *const () as usize
}

/// The innermost span `key`'s recorder has open on this thread.
pub(crate) fn ambient_parent(key: usize) -> Option<SpanId> {
    AMBIENT.with(|stack| stack.borrow().iter().rev().find(|&&(k, _)| k == key).map(|&(_, id)| id))
}

pub(crate) fn push_ambient(key: usize, id: SpanId) {
    AMBIENT.with(|stack| stack.borrow_mut().push((key, id)));
}

/// Removes the frame `(key, id)` if this thread holds it. A span guard
/// moved to (and dropped on) another thread leaves no frame here — the
/// close still carries its explicit parent, so causality survives.
pub(crate) fn pop_ambient(key: usize, id: SpanId) {
    AMBIENT.with(|stack| {
        let mut stack = stack.borrow_mut();
        if let Some(pos) = stack.iter().rposition(|&frame| frame == (key, id)) {
            stack.remove(pos);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_ids_are_unique_across_threads() {
        let mut ids: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| (0..100).map(|_| SpanId::fresh().get()).collect::<Vec<_>>())
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 400);
    }

    #[test]
    fn thread_ordinals_are_stable_and_distinct() {
        let here = thread_ordinal();
        assert_eq!(here, thread_ordinal());
        let there = std::thread::spawn(thread_ordinal).join().unwrap();
        assert_ne!(here, there);
    }

    #[test]
    fn context_carries_its_parent() {
        assert_eq!(TraceContext::NONE.parent(), None);
        let id = SpanId::fresh();
        assert_eq!(TraceContext::under(id).parent(), Some(id));
        assert_eq!(TraceContext::default(), TraceContext::NONE);
    }
}
