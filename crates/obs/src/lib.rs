//! # mnc-obs — observability for estimation sessions
//!
//! A zero-external-dependency, thread-safe observability layer for the MNC
//! workspace. The paper's whole value proposition is quantitative —
//! estimator accuracy (Section 5's SparsEst suite) versus construction and
//! estimation overhead (Figures 8–16) — so every estimation session can be
//! traced, metered, and accuracy-audited through three channels:
//!
//! * **spans** ([`span`]) — hierarchical wall-clock spans recording the op,
//!   nnz in/out, and synopsis bytes. Spans are finished per-thread and merged
//!   into the shared [`Recorder`] with a single lock-free push on drop;
//! * **metrics** ([`metrics`]) — a named registry of monotone counters,
//!   gauges, and log₂-bucketed histograms (build/estimate/propagate
//!   latencies, cache hit/miss, synopsis memory), safe to update from any
//!   thread without locks on the hot path;
//! * **accuracy telemetry** ([`accuracy`]) — `(case, op, estimator,
//!   estimated, actual, relative error)` records emitted whenever ground
//!   truth is available (the SparsEst runner, eval paths), feeding the
//!   accuracy-regression check in `mnc-sparsest`.
//!
//! Everything funnels into a [`Report`] that the [`export`] module renders
//! as a human table, a JSONL event stream, or a Chrome `trace_event` JSON
//! loadable in `chrome://tracing` / [Perfetto](https://ui.perfetto.dev).
//!
//! ## Cost when disabled
//!
//! A [`Recorder::disabled()`] recorder is a `None` behind a cheap handle:
//! spans skip the clock read entirely, metric handles skip the atomic, and
//! no allocation happens anywhere. Instrumented code pays one branch — the
//! ≤2 % overhead budget asserted by `cache_bench --check-overhead` holds
//! even with the recorder *enabled*, because enabled spans cost two `Instant`
//! reads plus one lock-free push.
//!
//! ```
//! use mnc_obs::{span, Recorder};
//!
//! let rec = Recorder::enabled();
//! {
//!     let _outer = span!(rec, "estimate", op = "matmul");
//!     let _inner = span!(rec, "build").nnz_in(42);
//! } // both spans merge into the recorder here
//! let report = rec.report();
//! assert_eq!(report.spans.len(), 2);
//! assert!(report.to_chrome_trace().contains("traceEvents"));
//! ```

pub mod accuracy;
pub mod alloc;
pub mod attribution;
pub mod export;
pub mod json;
pub mod metrics;
pub mod prometheus;
pub mod request;
pub mod ring;
pub mod span;

pub use accuracy::AccuracyRecord;
pub use alloc::{AllocDelta, AllocScope, AllocSnapshot};
pub use attribution::{attribute, render_attribution, AttributionRow};
pub use export::{ObsFormat, Report};
pub use metrics::{Counter, Gauge, Histogram, LatencyHisto, MetricSnapshot, MetricsRegistry};
pub use prometheus::render_prometheus;
pub use request::{parse_traceparent, RequestContext, RequestSpan, TraceId};
pub use ring::RecordRing;
pub use span::{SpanGuard, SpanRecord};

use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// A live tap on the record streams of an enabled [`Recorder`]: every
/// finished span and every accuracy record is offered to the sink *before*
/// it reaches the recorder's own storage. This is the feed for always-on
/// telemetry services (`mnc-obsd`'s flight recorder and accuracy-drift
/// monitor) — implementations must be cheap and non-blocking, they run on
/// the estimation hot path.
pub trait RecordSink: Send + Sync + 'static {
    /// Called with each finished span.
    fn on_span(&self, _span: &SpanRecord) {}
    /// Called with each accuracy record (after `ts_ns` stamping).
    fn on_accuracy(&self, _rec: &AccuracyRecord) {}
}

// ---------------------------------------------------------------------------
// Lock-free record list (Treiber stack)
// ---------------------------------------------------------------------------

struct ListNode<T> {
    value: T,
    next: *mut ListNode<T>,
}

/// An append-only lock-free list: finished spans and accuracy records are
/// pushed with one compare-exchange; snapshots traverse without blocking
/// writers (nodes are only freed when the list is dropped).
pub(crate) struct LockFreeList<T> {
    head: AtomicPtr<ListNode<T>>,
}

// SAFETY: nodes are heap-allocated, reachable only through `head`, pushed
// with release ordering and read with acquire ordering; nothing is freed
// before `Drop`, so concurrent push + traverse never observes a dangling
// pointer.
unsafe impl<T: Send> Send for LockFreeList<T> {}
unsafe impl<T: Send + Sync> Sync for LockFreeList<T> {}

impl<T> LockFreeList<T> {
    fn new() -> Self {
        LockFreeList {
            head: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    fn push(&self, value: T) {
        let node = Box::into_raw(Box::new(ListNode {
            value,
            next: std::ptr::null_mut(),
        }));
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            // SAFETY: `node` is exclusively ours until the CAS succeeds.
            unsafe { (*node).next = head };
            match self
                .head
                .compare_exchange_weak(head, node, Ordering::Release, Ordering::Acquire)
            {
                Ok(_) => return,
                Err(actual) => head = actual,
            }
        }
    }

    /// Clones every record, oldest first (push order).
    fn collect(&self) -> Vec<T>
    where
        T: Clone,
    {
        let mut out = Vec::new();
        let mut cur = self.head.load(Ordering::Acquire);
        while !cur.is_null() {
            // SAFETY: nodes are never freed while the list is alive.
            let node = unsafe { &*cur };
            out.push(node.value.clone());
            cur = node.next;
        }
        out.reverse(); // the list is newest-first
        out
    }

    fn len(&self) -> usize {
        let mut n = 0;
        let mut cur = self.head.load(Ordering::Acquire);
        while !cur.is_null() {
            n += 1;
            cur = unsafe { (*cur).next };
        }
        n
    }
}

impl<T> Drop for LockFreeList<T> {
    fn drop(&mut self) {
        let mut cur = *self.head.get_mut();
        while !cur.is_null() {
            // SAFETY: `&mut self` means no concurrent access remains.
            let node = unsafe { Box::from_raw(cur) };
            cur = node.next;
        }
    }
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

static RECORDER_TOKENS: AtomicU64 = AtomicU64::new(1);

pub(crate) struct RecorderShared {
    /// Unique token distinguishing this recorder's spans in the per-thread
    /// parent tracking (two interleaved sessions must not cross-link).
    pub(crate) token: u64,
    pub(crate) epoch: Instant,
    pub(crate) next_span_id: AtomicU64,
    /// Retained records; `None` for a [forwarding](Recorder::forwarding)
    /// recorder, which hands records only to its sink.
    pub(crate) spans: Option<LockFreeList<SpanRecord>>,
    pub(crate) accuracy: Option<LockFreeList<AccuracyRecord>>,
    pub(crate) registry: MetricsRegistry,
    /// Optional live tap, set once (see [`Recorder::set_sink`]).
    pub(crate) sink: OnceLock<Arc<dyn RecordSink>>,
}

/// The entry point: a cheap, cloneable handle that is either enabled (shared
/// state behind an `Arc`) or a no-op. All instrumented code takes a
/// `&Recorder` and works identically either way.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<RecorderShared>>,
}

impl Recorder {
    /// A recorder that records: spans, metrics, and accuracy telemetry all
    /// collect into shared, thread-safe state. Storage is unbounded — right
    /// for batch runs that export a full report at the end; long-running
    /// services should use [`Recorder::forwarding`].
    pub fn enabled() -> Recorder {
        Self::build(true)
    }

    /// A recorder that keeps its metrics registry but retains no records:
    /// every finished span and accuracy record goes only to the installed
    /// [`RecordSink`] (and is dropped when there is none). This is the mode
    /// for long-running services, whose sink — `mnc-obsd`'s flight ring —
    /// already keeps the most recent records in fixed memory.
    pub fn forwarding() -> Recorder {
        Self::build(false)
    }

    fn build(retain: bool) -> Recorder {
        Recorder {
            inner: Some(Arc::new(RecorderShared {
                token: RECORDER_TOKENS.fetch_add(1, Ordering::Relaxed),
                epoch: Instant::now(),
                next_span_id: AtomicU64::new(1),
                spans: retain.then(LockFreeList::new),
                accuracy: retain.then(LockFreeList::new),
                registry: MetricsRegistry::new(),
                sink: OnceLock::new(),
            })),
        }
    }

    /// The no-op recorder: every call is a branch on `None` and nothing
    /// else — no clock reads, no allocation, no atomics.
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// Whether this recorder collects anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Installs a live [`RecordSink`] tap: every finished span and accuracy
    /// record is offered to the sink before it reaches storage. The sink
    /// can be set **once** per recorder; returns `false` when the recorder
    /// is disabled or a sink is already installed.
    pub fn set_sink(&self, sink: Arc<dyn RecordSink>) -> bool {
        match &self.inner {
            Some(s) => s.sink.set(sink).is_ok(),
            None => false,
        }
    }

    /// Whether a [`RecordSink`] is installed.
    pub fn has_sink(&self) -> bool {
        self.inner.as_ref().is_some_and(|s| s.sink.get().is_some())
    }

    /// Two handles to the same underlying recorder?
    pub fn same_as(&self, other: &Recorder) -> bool {
        match (&self.inner, &other.inner) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        }
    }

    /// Opens a span; finish it by dropping the guard. Prefer the [`span!`]
    /// macro, which reads like the field list it sets.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        SpanGuard::open(self.inner.clone(), name)
    }

    /// Nanoseconds since the recorder was created (0 when disabled).
    pub fn elapsed_ns(&self) -> u64 {
        self.inner.as_ref().map_or(0, |s| {
            u64::try_from(s.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
    }

    /// Records one accuracy observation (no-op when disabled). The record's
    /// `ts_ns` is stamped with the recorder clock if left at 0, and an
    /// installed [`RecordSink`] sees the record before storage.
    pub fn record_accuracy(&self, mut rec: AccuracyRecord) {
        if let Some(shared) = &self.inner {
            if rec.ts_ns == 0 {
                rec.ts_ns = self.elapsed_ns();
            }
            if let Some(sink) = shared.sink.get() {
                sink.on_accuracy(&rec);
            }
            if let Some(list) = &shared.accuracy {
                list.push(rec);
            }
        }
    }

    /// Handle to the named monotone counter (a no-op handle when disabled).
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            Some(s) => s.registry.counter(name),
            None => Counter::noop(),
        }
    }

    /// Handle to the named gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            Some(s) => s.registry.gauge(name),
            None => Gauge::noop(),
        }
    }

    /// Handle to the named log-scale histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        match &self.inner {
            Some(s) => s.registry.histogram(name),
            None => Histogram::noop(),
        }
    }

    /// The metrics registry, when enabled.
    pub fn registry(&self) -> Option<&MetricsRegistry> {
        self.inner.as_deref().map(|s| &s.registry)
    }

    /// All retained finished spans, in start order (none for a disabled or
    /// forwarding recorder).
    pub fn spans(&self) -> Vec<SpanRecord> {
        let list = self.inner.as_deref().and_then(|s| s.spans.as_ref());
        let mut v = list.map_or_else(Vec::new, LockFreeList::collect);
        v.sort_by_key(|r| (r.start_ns, r.id));
        v
    }

    /// Number of retained finished spans (cheap-ish; walks the list).
    pub fn span_count(&self) -> usize {
        let list = self.inner.as_deref().and_then(|s| s.spans.as_ref());
        list.map_or(0, LockFreeList::len)
    }

    /// All retained accuracy records, in emission order.
    pub fn accuracy(&self) -> Vec<AccuracyRecord> {
        let list = self.inner.as_deref().and_then(|s| s.accuracy.as_ref());
        list.map_or_else(Vec::new, LockFreeList::collect)
    }

    /// Snapshot of spans, metrics, and accuracy records, ready to export.
    pub fn report(&self) -> Report {
        Report {
            spans: self.spans(),
            metrics: self.registry().map(|r| r.snapshot()).unwrap_or_default(),
            accuracy: self.accuracy(),
        }
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(_) => write!(f, "Recorder(enabled, {} spans)", self.span_count()),
            None => write!(f, "Recorder(disabled)"),
        }
    }
}

/// Opens a span on a recorder, optionally presetting fields:
/// `span!(rec, "estimate", op = "matmul", nnz_in = 42)`. Accepted fields are
/// the [`SpanGuard`] builder methods: `op`, `nnz_in`, `nnz_out`, `bytes`.
#[macro_export]
macro_rules! span {
    ($rec:expr, $name:expr $(,)?) => {
        $rec.span($name)
    };
    ($rec:expr, $name:expr, $($field:ident = $value:expr),+ $(,)?) => {{
        #[allow(unused_mut)]
        let mut guard = $rec.span($name);
        $(guard = guard.$field($value);)+
        guard
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_free_and_empty() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        {
            let _g = span!(rec, "estimate", op = "matmul", nnz_in = 3);
        }
        rec.counter("x").incr();
        rec.histogram("h").record(5);
        rec.record_accuracy(AccuracyRecord::new("B1.1", "matmul", "MNC", 0.5, 0.5));
        assert!(rec.spans().is_empty());
        assert!(rec.accuracy().is_empty());
        assert!(rec.registry().is_none());
        let report = rec.report();
        assert!(report.spans.is_empty() && report.accuracy.is_empty());
    }

    #[test]
    fn spans_record_fields_and_order() {
        let rec = Recorder::enabled();
        {
            let _g = span!(
                rec,
                "build",
                op = "MNC",
                nnz_in = 10,
                nnz_out = 10,
                bytes = 80
            );
        }
        {
            let _g = span!(rec, "estimate", op = "matmul");
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "build");
        assert_eq!(spans[0].op.as_deref(), Some("MNC"));
        assert_eq!(spans[0].nnz_in, Some(10));
        assert_eq!(spans[0].synopsis_bytes, Some(80));
        assert_eq!(spans[1].name, "estimate");
        assert!(spans[1].start_ns >= spans[0].start_ns);
    }

    #[test]
    fn nesting_links_parents_within_a_thread() {
        let rec = Recorder::enabled();
        {
            let outer = rec.span("outer");
            let outer_id = outer.id();
            {
                let inner = rec.span("inner");
                assert_eq!(inner.parent(), outer_id);
                let inner_id = inner.id();
                let leaf = rec.span("leaf");
                assert_eq!(leaf.parent(), inner_id);
            }
            // Back at outer depth: a sibling of "inner".
            let sibling = rec.span("sibling");
            assert_eq!(sibling.parent(), outer_id);
        }
        let spans = rec.spans();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(outer.parent, 0, "top-level span has no parent");
    }

    #[test]
    fn two_recorders_do_not_cross_link() {
        let a = Recorder::enabled();
        let b = Recorder::enabled();
        let _ga = a.span("a-outer");
        let gb = b.span("b-inner");
        // b's span must not claim a's span as parent: different recorders.
        assert_eq!(gb.parent(), 0);
    }

    #[test]
    fn accuracy_channel_round_trips() {
        let rec = Recorder::enabled();
        rec.record_accuracy(AccuracyRecord::new("B1.2", "matmul", "MNC", 0.1, 0.2));
        rec.record_accuracy(AccuracyRecord::new("B1.3", "ew_add", "DMap", 0.3, 0.3));
        let acc = rec.accuracy();
        assert_eq!(acc.len(), 2);
        assert_eq!(acc[0].case, "B1.2");
        assert!(acc[0].relative_error > 1.9 && acc[0].relative_error < 2.1);
        assert_eq!(acc[1].relative_error, 1.0);
    }

    #[test]
    fn lock_free_list_survives_concurrent_pushes() {
        let list = LockFreeList::new();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let list = &list;
                scope.spawn(move || {
                    for i in 0..500u64 {
                        list.push(t * 1000 + i);
                    }
                });
            }
        });
        let mut all = list.collect();
        assert_eq!(all.len(), 4000);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000, "no push may be lost or duplicated");
    }

    #[test]
    fn sink_sees_spans_and_accuracy_before_storage() {
        use std::sync::atomic::AtomicUsize;

        #[derive(Default)]
        struct CountingSink {
            spans: AtomicUsize,
            accuracy: AtomicUsize,
        }
        impl RecordSink for CountingSink {
            fn on_span(&self, span: &SpanRecord) {
                assert!(span.dur_ns > 0 || span.start_ns > 0 || span.id > 0);
                self.spans.fetch_add(1, Ordering::Relaxed);
            }
            fn on_accuracy(&self, rec: &AccuracyRecord) {
                assert!(rec.ts_ns > 0, "sink runs after ts stamping");
                self.accuracy.fetch_add(1, Ordering::Relaxed);
            }
        }

        let rec = Recorder::enabled();
        assert!(!rec.has_sink());
        let sink = Arc::new(CountingSink::default());
        assert!(rec.set_sink(Arc::clone(&sink) as Arc<dyn RecordSink>));
        assert!(rec.has_sink());
        // Second install is rejected (set-once semantics).
        assert!(!rec.set_sink(Arc::new(CountingSink::default())));
        {
            let _a = rec.span("estimate");
            let _b = rec.span("build");
        }
        rec.record_accuracy(AccuracyRecord::new("B1.1", "matmul", "MNC", 0.5, 0.25));
        assert_eq!(sink.spans.load(Ordering::Relaxed), 2);
        assert_eq!(sink.accuracy.load(Ordering::Relaxed), 1);
        // The recorder's own storage still has everything.
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.accuracy().len(), 1);
        // A disabled recorder rejects sinks.
        assert!(!Recorder::disabled().set_sink(Arc::new(CountingSink::default())));
    }

    #[test]
    fn recorder_identity() {
        let a = Recorder::enabled();
        let b = a.clone();
        assert!(a.same_as(&b));
        assert!(!a.same_as(&Recorder::enabled()));
        assert!(Recorder::disabled().same_as(&Recorder::disabled()));
    }
}
