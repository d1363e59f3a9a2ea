//! Property tests: the polynomial fast checker agrees with the exhaustive
//! search checker (the reference semantics) wherever it gives a definite
//! answer, and R3's escalated verdict (`spec::check_r3`) never contradicts
//! either tier.

use proptest::prelude::*;

use xability::core::spec::check_r3;
use xability::core::xable::{
    search_reduction, Cause, Checker, FastChecker, IncrementalChecker, SearchBudget, SearchChecker,
    SearchResult, Verdict,
};
use xability::core::{ActionId, ActionName, Event, History, Request, Value};

/// Event alphabet: one idempotent action and one undoable action (with its
/// cancel/commit), one input, two possible outputs — small enough for the
/// exhaustive checker, expressive enough to hit every reduction rule.
fn arb_event() -> impl Strategy<Value = Event> {
    let idem = ActionId::base(ActionName::idempotent("i"));
    let undo = ActionId::base(ActionName::undoable("u"));
    let cancel = undo.cancel().expect("undoable");
    let commit = undo.commit().expect("undoable");
    prop_oneof![
        Just(Event::start(idem.clone(), Value::from(1))),
        Just(Event::complete(idem.clone(), Value::from(7))),
        Just(Event::complete(idem, Value::from(8))),
        Just(Event::start(undo.clone(), Value::from(1))),
        Just(Event::complete(undo, Value::from(7))),
        Just(Event::start(cancel.clone(), Value::from(1))),
        Just(Event::complete(cancel, Value::Nil)),
        Just(Event::start(commit.clone(), Value::from(1))),
        Just(Event::complete(commit, Value::Nil)),
    ]
}

fn arb_history(max_len: usize) -> impl Strategy<Value = History> {
    prop::collection::vec(arb_event(), 0..max_len).prop_map(History::from_events)
}

/// Fails the property if the fast tier's definite verdict contradicts the
/// search tier's definite verdict on the same single-request question.
fn assert_no_contradiction(
    h: &History,
    search: &Verdict,
    fast: &Verdict,
) -> Result<(), TestCaseError> {
    match (search, fast) {
        (Verdict::Xable { .. }, Verdict::NotXable { cause }) => {
            prop_assert!(
                false,
                "fast says NotXable ({cause}) but search reduced: {h}"
            );
        }
        (Verdict::NotXable { .. }, Verdict::Xable { .. }) => {
            prop_assert!(false, "fast says Xable but search exhausted: {h}");
        }
        _ => {}
    }
    Ok(())
}

/// Protocol-plausible histories: a concatenation of complete event pairs
/// (executions, cancellations, commits). Compared to uniformly random
/// event soup, this hits the multi-request effect-ordering shapes —
/// cancel-then-retry, help commits, trailing duplicates — with meaningful
/// probability.
fn arb_paired_history(max_pairs: usize) -> impl Strategy<Value = History> {
    let idem = ActionId::base(ActionName::idempotent("i"));
    let undo = ActionId::base(ActionName::undoable("u"));
    let cancel = undo.cancel().expect("undoable");
    let commit = undo.commit().expect("undoable");
    let pair = prop_oneof![
        Just(vec![
            Event::start(idem.clone(), Value::from(1)),
            Event::complete(idem, Value::from(7)),
        ]),
        Just(vec![
            Event::start(undo.clone(), Value::from(1)),
            Event::complete(undo, Value::from(7)),
        ]),
        Just(vec![
            Event::start(cancel.clone(), Value::from(1)),
            Event::complete(cancel, Value::Nil),
        ]),
        Just(vec![
            Event::start(commit.clone(), Value::from(1)),
            Event::complete(commit, Value::Nil),
        ]),
    ];
    prop::collection::vec(pair, 0..max_pairs + 1)
        .prop_map(|pairs| History::from_events(pairs.into_iter().flatten().collect()))
}

/// The indices of `op`'s base-action completions in `h`.
fn base_completions(h: &History, op: &ActionId) -> Vec<usize> {
    (0..h.len())
        .filter(|&i| h[i].is_complete() && h[i].action() == op)
        .collect()
}

/// `op`'s *surviving-effect anchor*, derived independently of the fast
/// checker's internals. Rule 19 only ever erases the group's first
/// remaining attempt, so an undoable request's surviving execution is its
/// *last* attempt: the anchor is the first base completion at or after the
/// last base start. An idempotent request's completions are all the same
/// effect, observable from the first one. Exact over this file's
/// one-input-per-action alphabet, where the action identifies a group.
fn surviving_anchor(h: &History, op: &ActionId) -> Option<usize> {
    let from = if op.is_undoable_base() {
        (0..h.len())
            .rfind(|&i| h[i].is_start() && h[i].action() == op)
            .unwrap_or(0)
    } else {
        0
    };
    base_completions(h, op).into_iter().find(|&i| i >= from)
}

/// Two-request agreement: the fast tier's effect-ordered reading may
/// diverge from the strict search reading only in the documented
/// duplicate classes (DESIGN.md §4.3), and in each divergence the fast
/// verdict must match the *surviving-effect order* derived independently
/// here: a fast accept against a search reject is benign only when the
/// surviving effects really are in submission order (trailing duplicates
/// made the strict target unreachable), and a fast reject against a
/// search accept is benign only when they really are out of order (the
/// strict reading erased an early effect copy against a later duplicate).
/// Anything else is a checker bug.
fn assert_two_request_agreement(h: &History, undoable_first: bool) -> Result<(), TestCaseError> {
    let i = ActionId::base(ActionName::idempotent("i"));
    let u = ActionId::base(ActionName::undoable("u"));
    let (a1, a2) = if undoable_first { (u, i) } else { (i, u) };
    let ops = [(a1.clone(), Value::from(1)), (a2.clone(), Value::from(1))];
    let search = SearchChecker::default().check(h, &ops, &[]);
    let fast = FastChecker.check(h, &ops, &[]);
    let anchors = (surviving_anchor(h, &a1), surviving_anchor(h, &a2));
    match (&search, &fast) {
        (Verdict::Xable { .. }, Verdict::NotXable { cause }) => {
            let out_of_order = matches!(anchors, (Some(x1), Some(x2)) if x1 >= x2);
            prop_assert!(
                *cause == Cause::OutOfOrder && out_of_order,
                "fast says NotXable ({cause}) but search reduced and the \
                 surviving effects {anchors:?} are in order: {h}"
            );
        }
        (Verdict::NotXable { .. }, Verdict::Xable { .. }) => {
            let in_order = matches!(anchors, (Some(x1), Some(x2)) if x1 < x2);
            prop_assert!(
                in_order,
                "fast says Xable but search exhausted and the surviving \
                 effects {anchors:?} are not in order: {h}"
            );
        }
        _ => {}
    }
    Ok(())
}

/// Regression for the cancel-then-retry unsoundness: a request that
/// completed, was cancelled, and was only retried (and committed) after a
/// later request's effect has its *surviving* effect out of submission
/// order. The fast tier must not anchor the effect at the cancelled first
/// completion — every tier, including the online checker, rejects.
#[test]
fn cancel_then_retry_after_later_request_rejected_by_every_tier() {
    let u = ActionId::base(ActionName::undoable("u"));
    let b = ActionId::base(ActionName::idempotent("i"));
    let cancel = u.cancel().expect("undoable");
    let commit = u.commit().expect("undoable");
    let h: History = [
        Event::start(u.clone(), Value::from(1)),
        Event::complete(u.clone(), Value::from(7)),
        Event::start(cancel.clone(), Value::from(1)),
        Event::complete(cancel, Value::Nil),
        Event::start(b.clone(), Value::from(1)),
        Event::complete(b.clone(), Value::from(8)),
        Event::start(u.clone(), Value::from(1)),
        Event::complete(u.clone(), Value::from(7)),
        Event::start(commit.clone(), Value::from(1)),
        Event::complete(commit, Value::Nil),
    ]
    .into_iter()
    .collect();
    let ops = [(u.clone(), Value::from(1)), (b.clone(), Value::from(1))];

    let search = SearchChecker::default().check(&h, &ops, &[]);
    assert!(search.is_not_xable(), "search reference: {search}");
    let fast = FastChecker.check(&h, &ops, &[]);
    assert!(fast.is_not_xable(), "fast: {fast}");
    let requests = ops.map(|(a, iv)| Request::new(a, iv));
    let r3 = check_r3(&requests, &h);
    assert!(r3.is_not_xable(), "check_r3: {r3}");
    let mut online = IncrementalChecker::default();
    online.declare(u, Value::from(1));
    online.declare(b, Value::from(1));
    online.push_all(h.iter().cloned());
    let v = online.verdict();
    assert!(v.is_not_xable(), "incremental: {v}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Fast checker verdicts agree with the exhaustive search on single
    /// idempotent requests — asked alone, and with two erasable requests
    /// beside it (one whose events the history holds, one it lacks). The
    /// search ignores `erasable`: its strict target already demands that
    /// every other event reduces away.
    #[test]
    fn fast_agrees_with_search_idempotent(h in arb_history(8)) {
        let a = ActionId::base(ActionName::idempotent("i"));
        let u = ActionId::base(ActionName::undoable("u"));
        let ops = [(a, Value::from(1))];
        let two_erasable = [(u.clone(), Value::from(1)), (u, Value::from(2))];
        for erasable in [&[][..], &two_erasable] {
            let search = SearchChecker::default().check(&h, &ops, erasable);
            let fast = FastChecker.check(&h, &ops, erasable);
            assert_no_contradiction(&h, &search, &fast)?;
        }
    }

    /// Same agreement for single undoable requests.
    #[test]
    fn fast_agrees_with_search_undoable(h in arb_history(8)) {
        let u = ActionId::base(ActionName::undoable("u"));
        let ops = [(u, Value::from(1))];
        let search = SearchChecker::default().check(&h, &ops, &[]);
        let fast = FastChecker.check(&h, &ops, &[]);
        assert_no_contradiction(&h, &search, &fast)?;
    }

    /// Two-request agreement: the fast tier's effect-ordered reading may
    /// diverge from the strict search reading only in the documented
    /// duplicate classes (DESIGN.md §4.3), and in each divergence the fast
    /// verdict must match the *surviving-effect order* derived
    /// independently here: a fast accept against a search reject is benign
    /// only when the surviving effects really are in submission order
    /// (trailing duplicates made the strict target unreachable), and a
    /// fast reject against a search accept is benign only when they really
    /// are out of order (the strict reading erased an early effect copy
    /// against a later duplicate). Anything else is a checker bug.
    #[test]
    fn fast_agrees_with_search_on_two_requests(
        h in arb_history(10),
        undoable_first in prop_oneof![Just(true), Just(false)],
    ) {
        assert_two_request_agreement(&h, undoable_first)?;
    }

    /// The erasable path agrees with reducibility-to-empty.
    #[test]
    fn fast_erasable_agrees_with_search(h in arb_history(6)) {
        let u = ActionId::base(ActionName::undoable("u"));
        let i = ActionId::base(ActionName::idempotent("i"));
        let erasable = [(u, Value::from(1)), (i, Value::from(1))];
        let fast = FastChecker.check(&h, &[], &erasable);
        let search = search_reduction(&h, History::is_empty, 0, SearchBudget::default());
        match (&search, &fast) {
            (SearchResult::Reached(_), Verdict::NotXable { cause }) => {
                prop_assert!(false, "fast says NotXable ({cause}) but history erases: {h}");
            }
            (SearchResult::Exhausted, Verdict::Xable { .. }) => {
                prop_assert!(false, "fast says erasable but search exhausted: {h}");
            }
            _ => {}
        }
    }

    /// R3's two-tier verdict preserves definite fast-tier answers
    /// verbatim and only ever *adds* information: an escalated `Unknown`
    /// implies the fast tier was undecided too.
    #[test]
    fn tiered_refines_fast(h in arb_history(8)) {
        let requests = [Request::new(ActionId::base(ActionName::idempotent("i")), Value::from(1))];
        let fast = FastChecker.check_requests(&h, &requests);
        let tiered = check_r3(&requests, &h);
        if !fast.is_unknown() {
            prop_assert_eq!(&tiered, &fast, "escalation must pass definite fast answers through");
        }
        if tiered.is_unknown() {
            prop_assert!(fast.is_unknown(), "escalated Unknown without fast Unknown: {}", h);
        }
    }

    /// On the single-request questions (where the fast tier's
    /// effect-ordered reading coincides with the strict reading), R3's
    /// two-tier verdict agrees with the search reference wherever both are
    /// definite.
    #[test]
    fn tiered_agrees_with_search_reference(h in arb_history(8)) {
        let requests = [Request::new(ActionId::base(ActionName::idempotent("i")), Value::from(1))];
        let search = SearchChecker::default().check_requests(&h, &requests);
        let tiered = check_r3(&requests, &h);
        assert_no_contradiction(&h, &search, &tiered)?;
    }
}

proptest! {
    // Pair sequences are short (≤ 14 events) and highly structured, so a
    // much larger case count stays cheap — large enough that the
    // five-pair cancel-then-retry shapes (execution, cancel, other
    // request, retry, commit) occur in the deterministic case stream.
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Same two-request agreement over protocol-plausible histories of
    /// complete pairs, which exercise the cancel-then-retry and
    /// help-commit orderings much more densely than random event soup.
    #[test]
    fn fast_agrees_with_search_on_two_requests_paired(
        h in arb_paired_history(6),
        undoable_first in prop_oneof![Just(true), Just(false)],
    ) {
        assert_two_request_agreement(&h, undoable_first)?;
    }
}

// ---------------------------------------------------------------------------
// Fault-matrix agreement on recorded protocol histories: for every fault
// dimension the simulator can schedule (quiet baseline, message loss,
// duplication, reordering, a replica crash, a partition window, transient
// service failures) × {plain workload, round-stamped workload}, every
// decision procedure that speaks the recorded history's language must
// agree on the verdict.
// ---------------------------------------------------------------------------

use xability::harness::explore::{tier_disagreement, FaultPlan, PartitionSpec};
use xability::harness::{Scenario, Scheme, Workload};
use xability::sim::SimTime;

/// One plan per fault dimension, all derived from the same quiet plan so
/// each row isolates a single fault type.
fn fault_matrix() -> Vec<(&'static str, FaultPlan)> {
    let quiet = FaultPlan::quiet(11);
    let mut loss = quiet.clone();
    loss.drop_bp = 900;
    let mut dup = quiet.clone();
    dup.dup_bp = 900;
    let mut reorder = quiet.clone();
    reorder.reorder_bp = 1_500;
    reorder.reorder_extra_us = 20_000;
    let mut crash = quiet.clone();
    crash.crashes = vec![(0, 600_000)];
    let mut partition = quiet.clone();
    partition.partitions = vec![PartitionSpec {
        members: vec![1],
        from_us: 300_000,
        until_us: 1_500_000,
    }];
    let mut transient = quiet.clone();
    transient.fail_bp = 2_000;
    vec![
        ("quiet", quiet),
        ("loss", loss),
        ("dup", dup),
        ("reorder", reorder),
        ("crash", crash),
        ("partition", partition),
        ("transient", transient),
    ]
}

#[test]
fn fault_matrix_checkers_agree_on_recorded_histories() {
    let bases = [
        (
            "kv",
            false, // plain histories: idempotent puts are never round-stamped
            Scenario::new(Scheme::XAble, Workload::KvPuts { count: 3 })
                .horizon(SimTime::from_secs(5)),
        ),
        (
            "reservations",
            true, // undoable reserves run as §5.4 round-stamped transactions
            Scenario::new(Scheme::XAble, Workload::Reservations { count: 2, seats: 1 })
                .horizon(SimTime::from_secs(5)),
        ),
    ];
    for (fault, plan) in fault_matrix() {
        for (workload, stamped, base) in &bases {
            let report = plan.apply(base).run();
            let history = report.ledger.borrow().history().to_history();
            let requests = report.submitted.clone();
            let cell = format!("[{fault}/{workload}]");

            let fast = FastChecker.check_requests(&history, &requests);
            let tiered = check_r3(&requests, &history);

            // The online checker replaying the same event stream answers
            // byte-identically to the batch fast tier.
            let mut inc = IncrementalChecker::new();
            for r in &requests {
                inc.declare_request(r);
            }
            for e in history.iter() {
                inc.push(e.clone());
            }
            assert_eq!(
                fast,
                inc.verdict(),
                "{cell} online checker diverged from batch fast tier"
            );

            // Escalation refines fast: definite fast answers pass through
            // unchanged, and on round-stamped histories an undecided fast
            // answer must never escalate into a definite search verdict.
            if !fast.is_unknown() {
                assert_eq!(fast, tiered, "{cell} escalation rewrote a definite verdict");
            } else if *stamped {
                assert!(
                    tiered.is_unknown(),
                    "{cell} a round-stamped history escalated: {tiered}"
                );
            }

            // No undocumented definite fast-vs-search conflict (the oracle
            // skips stamped histories and the two divergences DESIGN.md
            // §4.3 documents as deliberate).
            assert_eq!(
                tier_disagreement(&requests, &history),
                None,
                "{cell} undocumented fast-vs-search disagreement"
            );

            // The quiet row is the control: no faults, so the run finishes
            // and every checker accepts it outright.
            if fault == "quiet" {
                assert!(report.finished, "{cell} quiet run must finish");
                assert!(fast.is_xable(), "{cell} quiet run must be x-able: {fast}");
            }
        }
    }
}
