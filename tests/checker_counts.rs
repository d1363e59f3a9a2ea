//! The monitor's dirty sets are an id list and one mark bit per row; a
//! verdict drains them in ascending order, and a declaration that adopts
//! an unwatched group unmarks it. These tests pin that the representation
//! changes no count and no verdict: the refreshes and the dirty-set sizes
//! a fixed ledger replay records are the ones the ordered sets recorded,
//! and a group adopted by a late declaration is never reported as an
//! undeclared failure afterwards.

use xability::core::xable::{Cause, Erasing, Verdict};
use xability::core::{ActionId, ActionName, Event, Request, Value};
use xability::obs::Obs;
use xability::services::Ledger;
use xability::sim::SimTime;
use xability_bench::n_mixed_requests;

/// Whether `verdict` reports an undeclared group as failing to erase —
/// definitely, or after an ambiguous attribution.
fn reports_an_undeclared_group(verdict: &Verdict) -> bool {
    let cause = match verdict.cause() {
        Some(Cause::AfterAmbiguity(cause)) => Some(&**cause),
        cause => cause,
    };
    matches!(
        cause,
        Some(Cause::NotErasing {
            what: Erasing::UndeclaredGroup(_),
            ..
        })
    )
}

/// 2 000 mixed requests (8 000 events) through a monitored ledger bound to
/// a registry, in 16-event batches of four requests each. Batch `k` is
/// declared ahead of its events when `k % 3 == 0`, half of it when
/// `k % 3 == 2`, and only once the next batch is declared when
/// `k % 3 == 1` — so there are pending keys, and groups seen before their
/// request, some adopted while dirty and some after a verdict reported
/// them. A verdict follows every fifth batch, and one the end.
#[test]
fn a_fixed_replay_records_the_pinned_refreshes_and_dirty_set_sizes() {
    let (history, ops) = n_mixed_requests(2_000);
    let requests: Vec<Request> = (ops.into_iter())
        .map(|(a, iv)| Request::new(a, iv))
        .collect();
    let obs = Obs::new();
    let mut ledger = Ledger::new();
    ledger.attach_obs(&obs);
    let mut late_reports = 0;
    for (k, batch) in history.events().chunks(16).enumerate() {
        let declared = match k % 3 {
            0 => 4 * k + 4,
            1 => 4 * k,
            _ => 4 * k + 2,
        };
        ledger.declare_requests(&requests[..declared]);
        ledger.record_batch(batch, SimTime::from_micros(k as u64), "svc");
        if k % 5 == 4 {
            let verdict = ledger.monitor_verdict().expect("default monitor");
            late_reports += usize::from(reports_an_undeclared_group(&verdict));
        }
    }
    ledger.declare_requests(&requests);
    let verdict = ledger.monitor_verdict().expect("default monitor");
    assert!(verdict.is_xable(), "{verdict}");
    assert!(
        late_reports > 0,
        "some verdict met a group before its request"
    );

    let snapshot = obs.snapshot();
    let refreshes = snapshot.counter("checker.refreshes");
    let sizes = |name: &str| {
        let histogram = snapshot.histogram(name).expect("recorded");
        (histogram.count, histogram.sum)
    };
    let actual = (
        refreshes,
        sizes("checker.dirty_ops"),
        sizes("checker.dirty_undeclared"),
    );
    assert_eq!(actual, (Some(101), (101, 2_000), (101, 269)));
}

/// An unwatched group whose events do not erase — a completed `put/2` —
/// is adopted by a declaration that arrives after its events: while the
/// group is still dirty, and after a verdict has reported it. No verdict
/// after the declaration reports it.
#[test]
fn a_late_declaration_adopts_a_group_that_fails_to_erase() {
    let put = ActionId::base(ActionName::idempotent("put"));
    let request = |input: i64| Request::new(put.clone(), Value::from(input));
    let executed = |input: i64| {
        [
            Event::start(put.clone(), Value::from(input)),
            Event::complete(put.clone(), Value::from(10 * input)),
        ]
    };
    let requests = [request(1), request(2), request(3)];
    let mut ledger = Ledger::new();
    ledger.declare_requests(&requests[..1]);
    ledger.record_batch(&executed(1), SimTime::ZERO, "svc");
    assert!(ledger.monitor_verdict().expect("monitor").is_xable());

    // Adopted while dirty: no verdict ran since its events.
    ledger.record_batch(&executed(2), SimTime::ZERO, "svc");
    ledger.declare_requests(&requests[..2]);
    let verdict = ledger.monitor_verdict().expect("monitor");
    assert!(verdict.is_xable(), "{verdict}");

    // Adopted after a verdict reported it.
    ledger.record_batch(&executed(3), SimTime::ZERO, "svc");
    let before = ledger.monitor_verdict().expect("monitor");
    assert!(reports_an_undeclared_group(&before), "{before}");
    ledger.declare_requests(&requests);
    for _ in 0..2 {
        let verdict = ledger.monitor_verdict().expect("monitor");
        assert!(!reports_an_undeclared_group(&verdict), "{verdict}");
        let outputs = [10, 20, 30].map(Value::from).to_vec();
        assert_eq!(verdict, Verdict::xable(outputs));
    }
}
