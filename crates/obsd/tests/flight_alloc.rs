//! Proof of the flight recorder's fixed-memory guarantee: once the rings
//! are at capacity, recording a payload-free span allocates **nothing** —
//! records move into pre-allocated slots and the overwritten record drops
//! in place.
//!
//! Requires the `alloc-track` feature (the counting global allocator).
//! This test lives alone in its own integration binary on purpose: the
//! allocation counters are process-global, so any concurrently running
//! test would attribute its allocations to our measurement scope.

#![cfg(feature = "alloc-track")]

use mnc_obs::alloc::AllocScope;
use mnc_obs::Recorder;
use mnc_obsd::{ObsDaemon, ObsdConfig};

#[test]
fn span_recording_at_ring_capacity_allocates_nothing() {
    const CAPACITY: usize = 64;
    let daemon = ObsDaemon::new(ObsdConfig {
        flight_capacity: CAPACITY,
        ..ObsdConfig::default()
    });
    // A forwarding recorder: it stores nothing itself, so the whole hot
    // path — guard open, sink tap, flight push — is allocation-free at
    // capacity.
    let rec = Recorder::forwarding();
    assert!(daemon.install(&rec));

    // Warm-up: fill both rings past capacity and touch every thread-local
    // and lazy initialization on this thread.
    for _ in 0..CAPACITY * 2 {
        let _g = rec.span("estimate");
    }
    assert_eq!(daemon.flight().span_len(), CAPACITY);

    // Measure: N more spans through the full pipeline. Spans without an
    // `op` label carry no heap payload, so zero gross allocation is the
    // exact expectation, not an approximation.
    let scope = AllocScope::start();
    for _ in 0..1000 {
        let _g = rec.span("estimate");
    }
    let delta = scope.measure();
    assert_eq!(
        delta.gross_bytes, 0,
        "flight recording at capacity must not allocate (delta: {delta:?})"
    );
    assert_eq!(delta.allocs, 0, "no allocation events either: {delta:?}");

    // The rings kept rotating: all 1000 spans were offered and retained
    // count stayed fixed.
    assert_eq!(daemon.flight().spans_pushed(), (CAPACITY * 2 + 1000) as u64);
    assert_eq!(daemon.flight().span_len(), CAPACITY);
}
