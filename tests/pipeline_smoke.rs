//! The pipelined-monitor CI gate (DESIGN.md §12): a pinned
//! byte-identity check at 4 workers — the acceptance bar of the
//! pipelined merge — directly and through the ledger's opt-in monitor
//! mode. Wall-clock throughput is measured by xbench
//! (`services.pipelined_speedup_2w`), not asserted here.

use xability::core::xable::{IncrementalState, SearchBudget};
use xability::core::{Event, Value};
use xability::services::pipeline::PipelinedMonitor;
use xability::services::Ledger;
use xability::sim::SimTime;
use xability::store::TraceStore;
use xability_bench::{n_requests_with_cancelled_rounds, n_retried_requests};

/// A mixed protocol-shaped workload: retried idempotent requests,
/// undoable requests with a cancelled and a committed round, and one
/// trailing in-flight (started, not completed) request.
fn mixed_workload() -> (Vec<Event>, Vec<(xability::core::ActionId, Value)>) {
    let (idem_h, idem_ops) = n_retried_requests(120);
    let (undo_h, undo_ops) = n_requests_with_cancelled_rounds(40);
    let mut events: Vec<Event> = idem_h.iter().cloned().collect();
    events.extend(undo_h.iter().cloned());
    let mut ops = idem_ops;
    ops.extend(undo_ops);
    // One more declared request whose execution is still in flight.
    let (a, _) = &ops[0];
    let tail_key = Value::from("in-flight");
    events.push(Event::start(a.clone(), tail_key.clone()));
    ops.push((a.clone(), tail_key));
    (events, ops)
}

/// Pinned acceptance check: pipelined verdicts at 4 workers are
/// byte-identical — verdict variant *and* reason strings — to the
/// sequential monitor at every checkpoint, for a window that closes
/// mid-request (7) and a window larger than most batches (64).
#[test]
fn pipelined_verdicts_byte_identical_at_4_workers() {
    let (events, ops) = mixed_workload();
    for window in [7usize, 64] {
        let mut seq_store = TraceStore::new();
        let mut seq = IncrementalState::new();
        let mut pipe_store = TraceStore::new();
        let mut pipe = PipelinedMonitor::with_config(4, window, SearchBudget::small());
        for (a, iv) in &ops {
            seq.declare(a.clone(), iv.clone());
            pipe.declare(a.clone(), iv.clone());
        }
        for (k, batch) in events.chunks(23).enumerate() {
            seq.observe_batch(batch);
            seq_store.push_batch(batch);
            pipe.observe_batch(batch);
            pipe_store.push_batch(batch);
            pipe.publish(&pipe_store);
            let sequential = seq.verdict_over(&seq_store.view());
            let pipelined = pipe.verdict_over(&pipe_store);
            assert_eq!(
                pipelined, sequential,
                "window={window}, checkpoint {k}: pipelined and sequential verdicts diverged"
            );
        }
        // The final prefix ends on an in-flight request: R3's
        // abandoned-last-request fallback applies, and a lone start does
        // not erase — the pinned final verdict is NotXable, identically
        // worded on both sides.
        let last = seq.verdict_over(&seq_store.view());
        assert!(
            !last.is_xable(),
            "expected the in-flight tail to block x-ability, got {last}"
        );
    }
}

/// The same byte-identity through the ledger's opt-in monitor mode.
#[test]
fn ledger_pipelined_mode_matches_sequential_ledger() {
    let (events, ops) = mixed_workload();
    let mut seq = Ledger::new();
    let mut pipe = Ledger::without_monitor();
    pipe.attach_pipelined_monitor(4)
        .expect("fresh ledger has no monitor");
    let requests: Vec<xability::core::Request> = ops
        .iter()
        .map(|(a, iv)| xability::core::Request::new(a.clone(), iv.clone()))
        .collect();
    seq.declare_requests(&requests);
    pipe.declare_requests(&requests);
    for batch in events.chunks(64) {
        seq.record_batch(batch, SimTime::ZERO, "svc");
        pipe.record_batch(batch, SimTime::ZERO, "svc");
    }
    let sequential = seq.monitor_verdict().expect("sequential monitor");
    let pipelined = pipe.monitor_verdict().expect("pipelined monitor");
    assert_eq!(pipelined, sequential);
}
