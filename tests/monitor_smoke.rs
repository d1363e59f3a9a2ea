//! Monitor smoke: a store-ingest pass with the online monitor attached to
//! a live registry works and records checker metrics, and the monitor's
//! working set stays a small multiple of the history it watches. What the
//! instrumentation costs in wall-clock is measured by xbench
//! (`obs.attach_overhead_pct`), not asserted here.

use xability::core::xable::IncrementalState;
use xability::obs::Obs;
use xability::store::TraceStore;
use xability_bench::{n_mixed_requests, n_retried_requests};

#[test]
fn instrumented_ingest_smoke() {
    let (h, ops) = n_retried_requests(500);
    let obs = Obs::new();
    let mut store = TraceStore::new();
    let mut monitor = IncrementalState::new();
    monitor.attach_obs(&obs);
    for (a, iv) in &ops {
        monitor.declare(a.clone(), iv.clone());
    }
    for ev in h.iter() {
        monitor.observe(ev);
        store.push(ev);
    }
    assert!(monitor.verdict_over(&store.view()).is_xable());
    let snapshot = obs.snapshot();
    assert!(snapshot.counter("checker.verdicts").unwrap_or(0) >= 1);
    assert!(snapshot.counter("checker.refreshes").unwrap_or(0) >= 1);
    assert!(snapshot.histogram("checker.dirty_ops").is_some());
}

/// The byte pin, as a count: on the four request shapes of xbench's
/// `verify_online` the monitor — interner excluded (its size is the
/// trace's distinct keys, not the monitor's representation) — holds under
/// 80 bytes per observed event, allocated capacity included. The chain /
/// `u32`-column layout reads ≈50; the `Vec`-per-group layout before it
/// read ≈157.
#[test]
fn monitor_holds_under_eighty_bytes_per_event() {
    let requests = 20_000;
    let (h, ops) = n_mixed_requests(requests);
    let mut store = TraceStore::new();
    let mut monitor = IncrementalState::new();
    let per_request = h.len() / requests;
    for (k, (a, iv)) in ops.iter().enumerate() {
        monitor.declare(a.clone(), iv.clone());
        if k % 4 == 3 {
            // One cycle of the four shapes: 16 events, request-aligned.
            let events = &h.events()[(k - 3) * per_request..(k + 1) * per_request];
            monitor.observe_batch(events);
            store.push_batch(events);
        }
        if k % 2_000 == 1_999 {
            assert!(monitor.verdict_over(&store.view()).is_xable());
        }
    }
    assert_eq!(monitor.consumed(), h.len());
    assert_eq!(monitor.declared_len(), requests);

    let parts = monitor.approx_bytes_by_part();
    let total: usize = parts.iter().map(|(_, bytes)| bytes).sum();
    assert_eq!(total, monitor.approx_bytes(), "the table adds up");
    let interner = parts
        .iter()
        .find(|(part, _)| *part == "engine interner")
        .expect("the interner has a row")
        .1;
    let per_event = (total - interner) as f64 / h.len() as f64;
    assert!(
        per_event < 80.0,
        "{per_event:.1} bytes per event without the interner: {parts:?}"
    );
}
