//! Property tests for the trace store: interning is lossless, store-backed
//! views decide exactly like owned histories (batch and incremental), and
//! the binary trace format round-trips bit-for-bit.
//!
//! Shares the event alphabet of `incremental_props.rs` /
//! `checker_agreement.rs`: one idempotent and one undoable action (with
//! cancel/commit), one input, two outputs — the soup that exercises every
//! reduction rule.

use proptest::prelude::*;

use xability::core::xable::{Checker, FastChecker, IncrementalChecker, IncrementalState};
use xability::core::{ActionId, ActionName, Event, History, Request, Value};
use xability::store::{read_trace, write_trace, TraceStore};

fn idem() -> ActionId {
    ActionId::base(ActionName::idempotent("i"))
}

fn undo() -> ActionId {
    ActionId::base(ActionName::undoable("u"))
}

fn arb_event() -> impl Strategy<Value = Event> {
    let i = idem();
    let u = undo();
    let cancel = u.cancel().expect("undoable");
    let commit = u.commit().expect("undoable");
    prop_oneof![
        Just(Event::start(i.clone(), Value::from(1))),
        Just(Event::complete(i.clone(), Value::from(7))),
        Just(Event::complete(i, Value::from(8))),
        Just(Event::start(u.clone(), Value::from(1))),
        Just(Event::complete(u, Value::from(7))),
        Just(Event::start(cancel.clone(), Value::from(1))),
        Just(Event::complete(cancel, Value::Nil)),
        Just(Event::start(commit.clone(), Value::from(1))),
        Just(Event::complete(commit, Value::Nil)),
    ]
}

fn arb_requests() -> impl Strategy<Value = Vec<Request>> {
    let i = Request::new(idem(), Value::from(1));
    let u = Request::new(undo(), Value::from(1));
    prop_oneof![
        Just(vec![]),
        Just(vec![i.clone()]),
        Just(vec![u.clone()]),
        Just(vec![i.clone(), u.clone()]),
        Just(vec![u, i]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Interning is lossless: history → store → view → history is the
    /// identity, event by event.
    #[test]
    fn store_round_trip_is_lossless(
        events in prop::collection::vec(arb_event(), 0..24),
    ) {
        let h = History::from_events(events);
        let store = TraceStore::from_history(&h);
        prop_assert_eq!(store.len(), h.len());
        for i in 0..h.len() {
            prop_assert_eq!(&store.event(i), &h[i], "event {} diverged", i);
        }
        prop_assert_eq!(store.view().to_history(), h);
    }

    /// The fast checker's verdict on a store-backed view equals its
    /// verdict on the owned history — exactly, including reasons.
    #[test]
    fn view_backed_fast_verdict_equals_owned(
        events in prop::collection::vec(arb_event(), 0..12),
        requests in arb_requests(),
    ) {
        let h = History::from_events(events);
        let store = TraceStore::from_history(&h);
        let checker = FastChecker;
        let owned = checker.check_requests(&h, &requests);
        let viewed = checker.check_requests(&store.view(), &requests);
        prop_assert_eq!(&owned, &viewed, "owned={} viewed={}", &owned, &viewed);
    }

    /// A storage-free `IncrementalState` monitoring a shared store agrees
    /// with the self-contained `IncrementalChecker` at every prefix (the
    /// store-backed monitor is the ledger's production posture).
    #[test]
    fn store_backed_incremental_equals_owned_at_every_prefix(
        events in prop::collection::vec(arb_event(), 0..12),
        requests in arb_requests(),
    ) {
        let mut store = TraceStore::new();
        let mut monitor = IncrementalState::new();
        let mut owned = IncrementalChecker::new();
        for r in &requests {
            monitor.declare_request(r);
            owned.declare_request(r);
        }
        prop_assert_eq!(monitor.verdict_over(&store.view()), owned.verdict());
        for ev in events {
            monitor.observe(&ev);
            store.push(&ev);
            owned.push(ev);
            let store_backed = monitor.verdict_over(&store.view());
            let self_contained = owned.verdict();
            prop_assert_eq!(
                &store_backed, &self_contained,
                "prefix {} diverged: store-backed={} owned={}",
                store.len(), &store_backed, &self_contained
            );
        }
    }

    /// Record → replay → re-check: serializing a trace and reading it
    /// back preserves the requests, the events, and the verdict.
    #[test]
    fn trace_record_replay_recheck_round_trip(
        events in prop::collection::vec(arb_event(), 0..16),
        requests in arb_requests(),
    ) {
        let h = History::from_events(events);
        let store = TraceStore::from_history(&h);
        let mut bytes = Vec::new();
        write_trace(&mut bytes, &requests, &store).expect("in-memory write");
        let replayed = read_trace(&mut bytes.as_slice()).expect("well-formed trace");
        prop_assert_eq!(&replayed.requests, &requests);
        prop_assert_eq!(replayed.store.view().to_history(), h);
        let checker = FastChecker;
        prop_assert_eq!(
            checker.check_requests(&store.view(), &requests),
            checker.check_requests(&replayed.store.view(), &replayed.requests)
        );
    }

    /// O(1) view slicing agrees with owned slicing for every bound pair.
    #[test]
    fn view_slices_agree_with_owned_slices(
        events in prop::collection::vec(arb_event(), 0..10),
        a in 0usize..11,
        b in 0usize..11,
    ) {
        let h = History::from_events(events);
        let (start, end) = (a.min(b).min(h.len()), b.max(a).min(h.len()));
        let store = TraceStore::from_history(&h);
        prop_assert_eq!(
            store.view().slice(start, end).to_history(),
            h.slice(start, end)
        );
    }
}
