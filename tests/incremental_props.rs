//! Property tests for the online checker: feeding a random
//! protocol-shaped history event by event into [`IncrementalChecker`] must
//! agree with the batch [`FastChecker`] — the same checker fed the whole
//! prefix at once — at *every* prefix, and with the exhaustive
//! [`SearchChecker`] oracle on the final verdict of small histories. And
//! the batch ingest contract: `observe_batch` over any chunking of a
//! stream leaves the state verdict-equivalent to per-event `observe`,
//! anomalies (orphan completions, undeclared groups, cancelled rounds)
//! included.

use proptest::prelude::*;

use xability::core::xable::{
    Checker, FastChecker, IncrementalChecker, IncrementalState, SearchChecker, Verdict,
};
use xability::core::{ActionId, ActionName, Event, History, Request, Value};
use xability::store::TraceStore;

fn idem() -> ActionId {
    ActionId::base(ActionName::idempotent("i"))
}

fn undo() -> ActionId {
    ActionId::base(ActionName::undoable("u"))
}

/// Event alphabet shared with `checker_agreement.rs`: one idempotent and
/// one undoable action (with cancel/commit), one input, two outputs.
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

/// A declared request sequence: none, the idempotent request, the
/// undoable request, or both (in either order).
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

    /// THE contract of the incremental checker: at every prefix, its
    /// verdict equals the batch fast checker's `check_requests` on that
    /// prefix — exactly, including reasons.
    #[test]
    fn incremental_equals_batch_at_every_prefix(
        events in prop::collection::vec(arb_event(), 0..10),
        requests in arb_requests(),
    ) {
        let batch = FastChecker;
        let mut inc = IncrementalChecker::new();
        for r in &requests {
            inc.declare_request(r);
        }
        // Prefix 0 (empty history) first, then after every push.
        let mut prefix = History::empty();
        prop_assert_eq!(inc.verdict(), batch.check_requests(&prefix, &requests));
        for ev in events {
            inc.push(ev.clone());
            prefix.push(ev);
            let online = inc.verdict();
            let offline = batch.check_requests(&prefix, &requests);
            prop_assert_eq!(
                &online, &offline,
                "prefix of {} events diverged: online={} offline={}",
                prefix.len(), &online, &offline
            );
        }
    }

    /// Requests may also be declared *interleaved* with pushes (the
    /// client submits Rᵢ₊₁ only after Rᵢ succeeded); the final verdict
    /// still equals the batch answer for the final (history, requests).
    #[test]
    fn late_declaration_matches_batch(
        events in prop::collection::vec(arb_event(), 0..10),
        split in 0usize..11,
    ) {
        let requests = vec![
            Request::new(idem(), Value::from(1)),
            Request::new(undo(), Value::from(1)),
        ];
        let mut inc = IncrementalChecker::new();
        inc.declare_request(&requests[0]);
        for (k, ev) in events.iter().enumerate() {
            if k == split {
                inc.declare_request(&requests[1]);
            }
            inc.push(ev.clone());
        }
        if split >= events.len() {
            inc.declare_request(&requests[1]);
        }
        let offline = FastChecker
            .check_requests(&History::from_events(events), &requests);
        prop_assert_eq!(inc.verdict(), offline);
    }

    /// Final-verdict agreement with the exhaustive oracle on small
    /// single-request histories (where the fast tier's effect-ordered
    /// reading coincides with the strict reading): wherever both are
    /// definite, they agree.
    #[test]
    fn final_verdict_agrees_with_search_oracle(
        events in prop::collection::vec(arb_event(), 0..8),
        undoable in prop_oneof![Just(false), Just(true)],
    ) {
        let request = if undoable {
            Request::new(undo(), Value::from(1))
        } else {
            Request::new(idem(), Value::from(1))
        };
        let requests = vec![request];
        let mut inc = IncrementalChecker::new();
        inc.declare_request(&requests[0]);
        inc.push_all(events.clone());
        let online = inc.verdict();
        let oracle = SearchChecker::default()
            .check_requests(&History::from_events(events), &requests);
        match (&oracle, &online) {
            (Verdict::Xable { .. }, Verdict::NotXable { cause }) => {
                prop_assert!(
                    false,
                    "incremental says NotXable ({}) but the oracle reduced: {}",
                    cause, inc.history()
                );
            }
            (Verdict::NotXable { .. }, Verdict::Xable { .. }) => {
                prop_assert!(
                    false,
                    "incremental says Xable but the oracle exhausted: {}",
                    inc.history()
                );
            }
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `observe_batch` over any chunking equals per-event `observe`:
    /// byte-identical verdicts at every chunk boundary.
    #[test]
    fn observe_batch_equals_observe_at_every_chunk(
        events in prop::collection::vec(arb_event(), 0..40),
        requests in arb_requests(),
        chunk in 1usize..11,
    ) {
        let mut store = TraceStore::new();
        let mut batched = IncrementalState::new();
        let mut per_event = IncrementalState::new();
        for r in &requests {
            batched.declare_request(r);
            per_event.declare_request(r);
        }
        for batch in events.chunks(chunk) {
            batched.observe_batch(batch);
            for ev in batch {
                per_event.observe(ev);
            }
            store.push_batch(batch);
            let b: Verdict = batched.verdict_over(&store.view());
            let p: Verdict = per_event.verdict_over(&store.view());
            prop_assert_eq!(
                &b, &p,
                "batched and per-event verdicts diverged at prefix {}",
                store.len()
            );
        }
    }

    /// Requests declared *between* batches (mid-stream, as the protocol
    /// submits them) keep the batched path equivalent to per-event too.
    #[test]
    fn observe_batch_with_interleaved_declares(
        events in prop::collection::vec(arb_event(), 0..30),
        split in 0usize..31,
        chunk in 1usize..7,
    ) {
        let requests = [
            Request::new(idem(), Value::from(1)),
            Request::new(undo(), Value::from(1)),
        ];
        let mut store = TraceStore::new();
        let mut batched = IncrementalState::new();
        let mut per_event = IncrementalState::new();
        batched.declare_request(&requests[0]);
        per_event.declare_request(&requests[0]);
        let mut declared_late = false;
        for batch in events.chunks(chunk) {
            if !declared_late && store.len() >= split {
                batched.declare_request(&requests[1]);
                per_event.declare_request(&requests[1]);
                declared_late = true;
            }
            batched.observe_batch(batch);
            for ev in batch {
                per_event.observe(ev);
            }
            store.push_batch(batch);
        }
        if !declared_late {
            batched.declare_request(&requests[1]);
            per_event.declare_request(&requests[1]);
        }
        let b = batched.verdict_over(&store.view());
        let p = per_event.verdict_over(&store.view());
        prop_assert_eq!(b, p);
    }
}
