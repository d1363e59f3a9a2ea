//! The O(dirty) contract of the checker engine.
//!
//! The dirty-tracked aggregate behind `IncrementalChecker::verdict` must
//! be *invisible*: a verdict after **every** push equals the batch
//! `FastChecker` on the same prefix — exactly, including reasons — on
//! protocol-shaped traces with retried idempotent requests, round-stamped
//! undoable transactions, injected anomalies, and undeclared tails
//! (proptest), and on a 10k-event heavy-traffic trace (deterministic test;
//! the batch oracle is sampled there because re-checking every prefix from
//! scratch is exactly the O(n²) behaviour the aggregate removes — per-push
//! verdicts themselves run at every prefix).

use proptest::prelude::*;

use xability::core::xable::{Checker, FastChecker, IncrementalChecker};
use xability::core::{ActionId, ActionName, Event, History, Request, Value};
use xability_bench::n_retried_requests;

fn requests_of(ops: &[(ActionId, Value)]) -> Vec<Request> {
    ops.iter()
        .map(|(a, iv)| Request::new(a.clone(), iv.clone()))
        .collect()
}

/// One generated request: an idempotent retry ladder or a round-stamped
/// undoable transaction, with optional injected anomalies.
#[derive(Debug, Clone)]
enum ReqSpec {
    Idem {
        retries: u8,
        /// Emit a second completion with a *different* output (the group
        /// can then neither reduce nor erase).
        disagree: bool,
    },
    Undo {
        cancelled_rounds: u8,
        /// Whether the final round commits (false = abandoned: only the
        /// R3 last-request fallback can accept it).
        commit: bool,
    },
}

fn arb_spec() -> impl Strategy<Value = ReqSpec> {
    prop_oneof![
        (0u8..3).prop_map(|retries| ReqSpec::Idem {
            retries,
            disagree: false
        }),
        (0u8..3).prop_map(|retries| ReqSpec::Idem {
            retries,
            disagree: true
        }),
        (0u8..3).prop_map(|cancelled_rounds| ReqSpec::Undo {
            cancelled_rounds,
            commit: true
        }),
        (0u8..3).prop_map(|cancelled_rounds| ReqSpec::Undo {
            cancelled_rounds,
            commit: false
        }),
    ]
}

fn arb_bool() -> impl Strategy<Value = bool> {
    prop_oneof![Just(false), Just(true)]
}

/// Materializes one request's event block and its declared op.
fn events_for(i: usize, spec: &ReqSpec) -> (Vec<Event>, (ActionId, Value)) {
    let key = Value::from(format!("k{i}"));
    match spec {
        ReqSpec::Idem { retries, disagree } => {
            let a = ActionId::base(ActionName::idempotent("put"));
            let mut events = Vec::new();
            for _ in 0..*retries {
                events.push(Event::start(a.clone(), key.clone()));
            }
            events.push(Event::start(a.clone(), key.clone()));
            events.push(Event::complete(a.clone(), Value::from(i as i64)));
            if *disagree {
                events.push(Event::start(a.clone(), key.clone()));
                events.push(Event::complete(a.clone(), Value::from(i as i64 + 1)));
            }
            (events, (a, key))
        }
        ReqSpec::Undo {
            cancelled_rounds,
            commit,
        } => {
            let base = ActionName::undoable("xfer");
            let a = ActionId::base(base.clone());
            let cancel = ActionId::Cancel(base.clone());
            let commit_a = ActionId::Commit(base);
            let mut events = Vec::new();
            for r in 0..*cancelled_rounds {
                let iv = Value::pair(key.clone(), Value::from(r as i64));
                events.push(Event::start(a.clone(), iv.clone()));
                events.push(Event::start(cancel.clone(), iv.clone()));
                events.push(Event::complete(cancel.clone(), Value::Nil));
            }
            let iv = Value::pair(key.clone(), Value::from(*cancelled_rounds as i64));
            events.push(Event::start(a.clone(), iv.clone()));
            if *commit {
                events.push(Event::complete(a.clone(), Value::from("ok")));
                events.push(Event::start(commit_a.clone(), iv.clone()));
                events.push(Event::complete(commit_a.clone(), Value::Nil));
            }
            (events, (a, key))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// THE O(dirty) soundness contract: the aggregate-maintained verdict
    /// after every single push equals the batch fast checker on that
    /// prefix — exactly, including reasons — over protocol-shaped traces
    /// with round-stamped rounds, anomalies, undeclared tails, and a
    /// trailing duplicate of the first request.
    #[test]
    fn dirty_tracked_verdict_equals_batch_after_every_push(
        specs in prop::collection::vec(arb_spec(), 1..6),
        junk_tail in arb_bool(),
        trailing_duplicate in arb_bool(),
    ) {
        let mut events: Vec<Event> = Vec::new();
        let mut ops: Vec<(ActionId, Value)> = Vec::new();
        let mut first_block: Vec<Event> = Vec::new();
        for (i, spec) in specs.iter().enumerate() {
            let (block, op) = events_for(i, spec);
            if i == 0 {
                first_block = block.clone();
            }
            events.extend(block);
            ops.push(op);
        }
        if junk_tail {
            // An undeclared group: erases only if it never completed.
            let junk = ActionId::base(ActionName::idempotent("junk"));
            events.push(Event::start(junk.clone(), Value::from(0)));
            events.push(Event::complete(junk, Value::from(0)));
        }
        if trailing_duplicate {
            events.extend(first_block);
        }
        let requests = requests_of(&ops);
        let batch = FastChecker::default();
        let mut inc = IncrementalChecker::new();
        for r in &requests {
            inc.declare_request(r);
        }
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
}

/// A 10k-event heavy-traffic trace with a verdict read after **every**
/// push. Were the verdict still O(#groups), this single test would
/// perform ~16M group re-decisions (3,334 groups × 10k verdicts) and
/// crawl; with the dirty aggregate it re-decides only the touched group
/// per push. The batch oracle is asserted at 64 evenly spaced checkpoints
/// and at every one of the last 32 prefixes (batch itself is O(prefix),
/// so a full per-prefix sweep would reintroduce the very O(n²) the
/// aggregate removes).
#[test]
fn ten_thousand_event_trace_verdict_after_every_push() {
    const EVENTS: usize = 10_002; // 3,334 requests × 3 events
    let (h, ops) = n_retried_requests(EVENTS / 3);
    let requests = requests_of(&ops);
    let batch = FastChecker::default();
    let checkpoint_stride = h.len() / 64;
    let mut inc = IncrementalChecker::new();
    for (a, iv) in &ops {
        inc.declare(a.clone(), iv.clone());
    }
    let mut xable_count = 0usize;
    for (k, ev) in h.iter().enumerate() {
        inc.push(ev.clone());
        let online = inc.verdict();
        if online.is_xable() {
            xable_count += 1;
        }
        let end = k + 1;
        if end % checkpoint_stride == 0 || end + 32 >= h.len() {
            let offline = batch.check_requests_source(&h.window(0, end), &requests);
            assert_eq!(online, offline, "prefix of {end} events diverged");
        }
    }
    // Mid-run prefixes are rejected (an unexecuted *middle* request is
    // never excusable, and a bare start of the in-flight last request
    // does not erase — no rule removes it); only two prefixes are
    // x-able: the one where every request but the declared-but-unstarted
    // last is complete (the R3 fallback excuses the last entirely), and
    // the complete trace.
    assert_eq!(xable_count, 2, "exactly the quiescent prefixes are x-able");
    assert!(inc.verdict().is_xable());
}
