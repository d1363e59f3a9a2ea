//! Instrumented-ingest smoke: a store-ingest pass with the online
//! monitor attached to a live registry works and records checker
//! metrics. What the instrumentation costs in wall-clock is measured by
//! xbench (`obs.attach_overhead_pct`), not asserted here.

use xability::core::xable::IncrementalState;
use xability::obs::Obs;
use xability::store::TraceStore;
use xability_bench::n_retried_requests;

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
