//! # xability-bench — trace builders
//!
//! Three deterministic generators of protocol-shaped histories (retried,
//! cancelled-round and mixed requests) shared by the cross-crate
//! integration tests under `tests/`. Nothing here measures anything:
//! wall-clock numbers come from the standalone `xbench` package
//! (`xbench/README.md`, `BENCHMARK.json`), which carries its own
//! generators.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use xability_core::{ActionId, ActionName, Event, History, Value};

/// A protocol-shaped history of `n` sequential idempotent requests, each
/// retried once (failed attempt, then success) — the bulk shape of
/// heavy-traffic traces. 3 events per request.
pub fn n_retried_requests(n: usize) -> (History, Vec<(ActionId, Value)>) {
    let a = ActionId::base(ActionName::idempotent("put"));
    let mut events = Vec::with_capacity(n * 3);
    let mut ops = Vec::with_capacity(n);
    for i in 0..n {
        let key = Value::from(format!("r{i}"));
        events.push(Event::start(a.clone(), key.clone()));
        events.push(Event::start(a.clone(), key.clone()));
        events.push(Event::complete(a.clone(), Value::from(i as i64)));
        ops.push((a.clone(), key));
    }
    (History::from_events(events), ops)
}

/// A protocol-shaped history of `n` sequential requests, each with one
/// cancelled round and one committed round — what crash/cleaning runs
/// produce.
pub fn n_requests_with_cancelled_rounds(n: usize) -> (History, Vec<(ActionId, Value)>) {
    let base = ActionName::undoable("xfer");
    let a = ActionId::base(base.clone());
    let cancel = ActionId::Cancel(base.clone());
    let commit = ActionId::Commit(base);
    let mut events = Vec::new();
    let mut ops = Vec::new();
    for i in 0..n {
        let key = Value::from(format!("r{i}"));
        let iv1 = Value::pair(key.clone(), Value::from(1));
        let iv2 = Value::pair(key.clone(), Value::from(2));
        // Round 1: attempt, cancelled.
        events.push(Event::start(a.clone(), iv1.clone()));
        events.push(Event::start(cancel.clone(), iv1.clone()));
        events.push(Event::complete(cancel.clone(), Value::Nil));
        // Round 2: success + commit.
        events.push(Event::start(a.clone(), iv2.clone()));
        events.push(Event::complete(a.clone(), Value::from("ok")));
        events.push(Event::start(commit.clone(), iv2.clone()));
        events.push(Event::complete(commit.clone(), Value::Nil));
        ops.push((a.clone(), key));
    }
    (History::from_events(events), ops)
}

/// A protocol-shaped history of `n` sequential requests cycling through
/// the four request shapes of xbench's `verify_online` trace — idempotent
/// clean (2 events), idempotent retried (3), undoable committed in round 1
/// (4), undoable with round 1 cancelled and round 2 committed (7): 16
/// events and 5 groups per 4 requests.
pub fn n_mixed_requests(n: usize) -> (History, Vec<(ActionId, Value)>) {
    let put = ActionId::base(ActionName::idempotent("put"));
    let base = ActionName::undoable("xfer");
    let xfer = ActionId::base(base.clone());
    let cancel = ActionId::Cancel(base.clone());
    let commit = ActionId::Commit(base);
    let mut events = Vec::with_capacity(n * 4);
    let mut ops = Vec::with_capacity(n);
    for i in 0..n {
        let key = Value::from(format!("r{i}"));
        let output = Value::from(i as i64);
        let round = |k: i64| Value::pair(key.clone(), Value::from(k));
        let shape = i % 4;
        if shape < 2 {
            if shape == 1 {
                events.push(Event::start(put.clone(), key.clone()));
            }
            events.push(Event::start(put.clone(), key.clone()));
            events.push(Event::complete(put.clone(), output));
            ops.push((put.clone(), key));
            continue;
        }
        let mut committed = 1;
        if shape == 3 {
            events.push(Event::start(xfer.clone(), round(1)));
            events.push(Event::start(cancel.clone(), round(1)));
            events.push(Event::complete(cancel.clone(), Value::Nil));
            committed = 2;
        }
        events.push(Event::start(xfer.clone(), round(committed)));
        events.push(Event::complete(xfer.clone(), output));
        events.push(Event::start(commit.clone(), round(committed)));
        events.push(Event::complete(commit.clone(), Value::Nil));
        ops.push((xfer.clone(), key));
    }
    (History::from_events(events), ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xability_core::xable::{Checker, FastChecker};

    #[test]
    fn generators_produce_xable_histories() {
        let (h, ops) = n_requests_with_cancelled_rounds(3);
        assert_eq!(h.len(), 21);
        assert!(FastChecker::default().check(&h, &ops, &[]).is_xable());
        let (h, ops) = n_retried_requests(4);
        assert_eq!(h.len(), 12);
        assert!(FastChecker::default().check(&h, &ops, &[]).is_xable());
        let (h, ops) = n_mixed_requests(8);
        assert_eq!(h.len(), 32);
        assert!(FastChecker::default().check(&h, &ops, &[]).is_xable());
    }
}
