//! End-to-end tests of the x-able replication protocol: full systems on
//! the deterministic simulator, evaluated against R1–R4 and the ledger.

use xability_harness::{Scenario, Scheme, Workload};
use xability_services::FailurePlan;
use xability_sim::{LatencyModel, SimTime};

#[test]
fn crash_free_bank_transfer_is_exactly_once() {
    let report = Scenario::new(
        Scheme::XAble,
        Workload::BankTransfers {
            count: 1,
            amount: 50,
        },
    )
    .seed(1)
    .run();
    assert!(report.finished, "client did not finish: {report:?}");
    assert!(
        report.is_correct(),
        "violations: {:?} r3: {:?}",
        report.exactly_once_violations,
        report.r3_violation
    );
    assert_eq!(report.completed_requests, 1);
    // Crash-free: exactly one round, one execution, one commit.
    assert_eq!(report.replica_metrics.rounds_owned, 1);
    assert_eq!(report.replica_metrics.executions, 1);
    assert_eq!(report.replica_metrics.commits, 1);
    assert_eq!(report.replica_metrics.cancels, 0);
    assert_eq!(report.replica_metrics.cleanings, 0);
}

#[test]
fn crash_free_sequence_of_mixed_requests() {
    for workload in [
        Workload::KvPuts { count: 5 },
        Workload::TokenIssues { count: 5 },
        Workload::Reservations { count: 4, seats: 2 },
        Workload::BankTransfers {
            count: 5,
            amount: 10,
        },
    ] {
        let report = Scenario::new(Scheme::XAble, workload).seed(7).run();
        assert!(
            report.is_correct(),
            "workload {workload:?}: violations={:?} r3={:?}",
            report.exactly_once_violations,
            report.r3_violation
        );
        assert_eq!(report.completed_requests, workload.count());
    }
}

#[test]
fn primary_crash_mid_request_preserves_exactly_once() {
    // Crash replica 0 (likely first contact) shortly after the run starts,
    // while the first transfer is processed.
    for seed in 0..5 {
        let report = Scenario::new(
            Scheme::XAble,
            Workload::BankTransfers {
                count: 2,
                amount: 25,
            },
        )
        .seed(seed)
        .crash(0, SimTime::from_millis(3))
        .run();
        assert!(
            report.finished,
            "seed {seed}: client starved: completed {}/{}",
            report.completed_requests, report.total_requests
        );
        assert!(
            report.is_correct(),
            "seed {seed}: violations={:?} r3={:?}",
            report.exactly_once_violations,
            report.r3_violation
        );
    }
}

#[test]
fn staggered_crashes_with_majority_alive() {
    let report = Scenario::new(
        Scheme::XAble,
        Workload::BankTransfers {
            count: 3,
            amount: 10,
        },
    )
    .seed(11)
    .replicas(5)
    .crash(0, SimTime::from_millis(5))
    .crash(1, SimTime::from_millis(120))
    .run();
    assert!(report.finished, "completed {}", report.completed_requests);
    assert!(
        report.is_correct(),
        "violations={:?} r3={:?}",
        report.exactly_once_violations,
        report.r3_violation
    );
}

#[test]
fn service_transient_failures_are_retried_exactly_once() {
    let report = Scenario::new(
        Scheme::XAble,
        Workload::BankTransfers {
            count: 3,
            amount: 10,
        },
    )
    .seed(13)
    .service_failures(FailurePlan::probabilistic(0.3))
    .run();
    assert!(report.finished);
    assert!(
        report.is_correct(),
        "violations={:?} r3={:?}",
        report.exactly_once_violations,
        report.r3_violation
    );
    // Retries happened (with prob 0.3 over ≥9 invocations, virtually
    // certain for this seed).
    assert!(
        report.replica_metrics.transient_failures > 0,
        "expected injected failures to be exercised"
    );
}

#[test]
fn false_suspicions_stay_exactly_once() {
    // Partial synchrony: spikes until 400ms cause false suspicions; the
    // protocol slides toward active replication but must stay correct.
    for seed in 0..5 {
        let report = Scenario::new(
            Scheme::XAble,
            Workload::BankTransfers {
                count: 2,
                amount: 20,
            },
        )
        .seed(seed)
        .latency(LatencyModel::partially_synchronous(
            0.25,
            SimTime::from_millis(400),
        ))
        .run();
        assert!(report.finished, "seed {seed} starved");
        assert!(
            report.is_correct(),
            "seed {seed}: violations={:?} r3={:?}",
            report.exactly_once_violations,
            report.r3_violation
        );
    }
}

#[test]
fn idempotent_workload_under_crash_and_faults() {
    let report = Scenario::new(Scheme::XAble, Workload::TokenIssues { count: 3 })
        .seed(17)
        .crash(0, SimTime::from_millis(10))
        .service_failures(FailurePlan::probabilistic(0.2))
        .run();
    assert!(report.finished);
    assert!(
        report.is_correct(),
        "violations={:?} r3={:?}",
        report.exactly_once_violations,
        report.r3_violation
    );
    // All tokens distinct (per-request non-determinism preserved).
    let mut tokens: Vec<&str> = report
        .results
        .iter()
        .filter_map(|(_, v)| v.as_str())
        .collect();
    tokens.sort_unstable();
    tokens.dedup();
    assert_eq!(tokens.len(), 3);
}

#[test]
fn client_crash_gives_at_most_once() {
    // The client crashes mid-sequence: all *successfully submitted*
    // requests are exactly-once; the in-flight request is at-most-once.
    let report = Scenario::new(
        Scheme::XAble,
        Workload::BankTransfers {
            count: 5,
            amount: 10,
        },
    )
    .seed(19)
    .crash_client(SimTime::from_millis(40))
    .run();
    // The client never finishes (it crashed)…
    assert!(!report.finished);
    // …but the server-side history remains x-able for the submitted
    // prefix, and completed requests are exactly-once.
    assert!(
        report.r3_violation.is_none(),
        "r3: {:?}",
        report.r3_violation
    );
    assert!(
        report.exactly_once_violations.is_empty(),
        "{:?}",
        report.exactly_once_violations
    );
}

/// The online incremental monitor (fed event by event during the run)
/// must agree with a from-scratch batch check of the final ledger history
/// on every harness-produced trace — including crashy ones.
#[test]
fn online_monitor_agrees_with_batch_checker_on_harness_traces() {
    use xability_core::xable::{Checker, FastChecker};
    use xability_core::Request;

    let scenarios = [
        Scenario::new(Scheme::XAble, Workload::KvPuts { count: 3 }).seed(7),
        Scenario::new(
            Scheme::XAble,
            Workload::BankTransfers {
                count: 2,
                amount: 10,
            },
        )
        .seed(11)
        .crash(0, SimTime::from_millis(5)),
        Scenario::new(Scheme::XAble, Workload::TokenIssues { count: 2 })
            .seed(13)
            .service_failures(FailurePlan::first_n(2)),
    ];
    for scenario in scenarios {
        let report = scenario.run();
        assert!(report.r3_checked_online, "monitor was attached for the run");
        let ledger = report.ledger.borrow();
        let monitor = ledger.monitor().expect("monitor attached");
        let requests: Vec<Request> = monitor
            .requests()
            .map(|(a, iv)| Request::new(a, iv))
            .collect();
        let online = ledger.monitor_verdict().expect("monitor attached");
        // The batch checker reads the same shared store through a
        // zero-copy view — no owned copy of the trace is materialized.
        let batch = FastChecker.check_requests(&ledger.history(), &requests);
        assert_eq!(
            online, batch,
            "online and batch R3 verdicts diverged (seed {})",
            report.seed
        );
    }
}

/// The path where the monitor does not decide: `S(a,1) S(a,2) C(a,7)
/// C(a,7)` leaves the completions' attribution ambiguous, so the online
/// monitor answers `Unknown`, and `r3_violation_for` escalates that
/// verdict — decided by the exhaustive search on the short history, left
/// undecided once 60 junk `S C` pairs push it past the escalation cutoff.
#[test]
fn an_undecided_monitor_verdict_is_escalated() {
    use std::cell::RefCell;
    use std::rc::Rc;

    use xability_core::xable::{Cause, Verdict};
    use xability_core::{ActionId, ActionName, Event, Request, Value};
    use xability_harness::scenario::r3_violation_for;
    use xability_services::Ledger;

    let idem = |name: &str| ActionId::base(ActionName::idempotent(name));
    let a = idem("a");
    let requests = [
        Request::new(a.clone(), Value::from(1)),
        Request::new(a.clone(), Value::from(2)),
    ];
    let r3_of = |pad: usize| {
        let mut events = vec![
            Event::start(a.clone(), Value::from(1)),
            Event::start(a.clone(), Value::from(2)),
            Event::complete(a.clone(), Value::from(7)),
            Event::complete(a.clone(), Value::from(7)),
        ];
        for i in 0..pad {
            let junk = idem(&format!("junk{i}"));
            events.push(Event::start(junk.clone(), Value::from(1)));
            events.push(Event::complete(junk, Value::from(1)));
        }
        let mut ledger = Ledger::new();
        ledger.record_batch(&events, SimTime::from_millis(1), "svc");
        ledger.declare_requests(&requests);
        let online = ledger.monitor_verdict().expect("a monitor is attached");
        (
            online,
            r3_violation_for(&Rc::new(RefCell::new(ledger)), &requests),
        )
    };

    let (online, outcome) = r3_of(0);
    assert_eq!(
        online.to_string(),
        "unknown: (after ambiguous completion attribution) request effects occur out of \
         submission order",
        "precondition: the monitor is undecided"
    );
    assert_eq!(outcome.verdict.to_string(), "x-able (2 outputs)");
    assert!(!outcome.decided_online);
    assert_eq!(outcome.violation, None);

    let (online, outcome) = r3_of(60);
    assert!(online.is_unknown(), "precondition: {online}");
    assert!(!outcome.decided_online);
    let Verdict::Unknown { cause } = &outcome.verdict else {
        panic!(
            "past the cutoff the verdict stays undecided: {}",
            outcome.verdict
        );
    };
    assert!(
        matches!(
            cause,
            Cause::TooLongToEscalate {
                len: 124,
                max: 48,
                ..
            }
        ),
        "{cause}"
    );
}

#[test]
fn runs_are_deterministic_per_seed() {
    let run = |seed| {
        let r = Scenario::new(
            Scheme::XAble,
            Workload::BankTransfers {
                count: 2,
                amount: 10,
            },
        )
        .seed(seed)
        .crash(0, SimTime::from_millis(5))
        .run();
        (
            r.completed_requests,
            r.results,
            r.history_len,
            r.replica_metrics,
            r.end_time,
            r.metrics,
        )
    };
    let first = run(23);
    let second = run(23);
    // The metrics snapshot serializes byte-identically, and it carries
    // real instrumentation: transport and replica counters, request spans.
    let metrics = &first.5;
    assert_eq!(metrics.to_json(), second.5.to_json());
    assert!(metrics.counter_total("sim.link.delivered") > 0);
    assert!(metrics.counter_total("replica.executions") > 0);
    assert!(metrics.spans.iter().any(|s| s.scope == "request"));
    assert_eq!(first, second);
}

#[test]
fn run_trace_dumps_and_replays_to_the_same_verdict() {
    use xability_core::xable::{Checker, FastChecker};
    use xability_obs::MetricsSnapshot;
    use xability_store::RecordedTrace;

    // A run with a crash, so the trace contains retries/cancels worth
    // replaying, dumped through the versioned binary format and
    // re-checked from disk.
    let report = Scenario::new(
        Scheme::XAble,
        Workload::BankTransfers {
            count: 2,
            amount: 10,
        },
    )
    .seed(7)
    .crash(0, SimTime::from_millis(5))
    .run();
    assert!(report.is_correct(), "r3: {:?}", report.r3_violation);

    let dir = std::env::temp_dir().join("xability-e2e-trace");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("run-seed7-{}.xtrace", std::process::id()));
    report.write_trace(&path).expect("dump trace");

    let replayed = RecordedTrace::read_from_file(&path).expect("replay trace");
    std::fs::remove_file(&path).ok();
    // The run's provenance rides along in the meta section.
    assert_eq!(replayed.meta_value("scheme"), Some("XAble"));
    assert_eq!(replayed.meta_value("seed"), Some("7"));
    let metrics = replayed.meta_value("metrics").expect("metrics meta pair");
    assert_eq!(
        MetricsSnapshot::from_json(metrics).as_ref(),
        Some(&report.metrics),
        "the metrics meta pair is the run's snapshot"
    );
    assert_eq!(replayed.requests, report.submitted);
    assert_eq!(replayed.store.len(), report.history_len);
    assert_eq!(
        replayed.store.view().to_history(),
        report.ledger.borrow().history().to_history(),
        "replayed events diverge from the ledger's stream"
    );
    let verdict = FastChecker.check_requests(&replayed.store.view(), &replayed.requests);
    assert!(verdict.is_xable(), "replayed re-check: {verdict}");
}
