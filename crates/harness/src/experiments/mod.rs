//! Experiment definitions: one function per figure/claim of EXPERIMENTS.md.
//!
//! The paper has no measurement tables (it is a theory paper); each
//! "figure" F1–F7 is a definition or algorithm, which we regenerate as an
//! executable artifact and characterize quantitatively. C1–C3 quantify the
//! paper's three central claims (exactly-once under faults, the
//! primary-backup ↔ active-replication spectrum, and composition).
//!
//! Micro experiments (F1, F4) measure wall-clock time of the theory
//! algorithms; system experiments (F5–F7, C1–C3) report *simulated* time
//! and event counts, which are deterministic per seed.

use std::time::Instant;

use xability_core::reduce;
use xability_core::xable::{Checker, FastChecker, SearchChecker};
use xability_core::{
    failure_free::eventsof, ActionId, ActionName, Event, History, Pattern, SimplePattern, Value,
};
use xability_services::FailurePlan;
use xability_sim::{LatencyModel, SimTime};

use crate::report::Table;
use crate::scenario::{Scenario, Scheme, Workload};
use crate::three_tier::ThreeTier;

fn idem(name: &str) -> ActionId {
    ActionId::base(ActionName::idempotent(name))
}

/// Builds a history with `k` failed attempts before one success.
fn retried_history(k: usize) -> History {
    let a = idem("a");
    let mut events = Vec::new();
    for _ in 0..k {
        events.push(Event::start(a.clone(), Value::from(1)));
    }
    events.push(Event::start(a.clone(), Value::from(1)));
    events.push(Event::complete(a.clone(), Value::from(2)));
    History::from_events(events)
}

/// F1 — pattern matching (Fig. 1–2): match cost versus history length.
pub fn f1_patterns() -> Table {
    let a = idem("a");
    let sp1 = SimplePattern::maybe(a.clone(), Value::from(1), Value::from(2));
    let sp2 = SimplePattern::required(a.clone(), Value::from(1), Value::from(2));
    let mut rows = Vec::new();
    for len in [4usize, 16, 64, 256, 1024] {
        // History: (len-2)/2 junk pairs, one failed attempt, one success.
        let mut events = Vec::new();
        let junk = idem("junk");
        for i in 0..(len.saturating_sub(3)) / 2 {
            events.push(Event::start(junk.clone(), Value::from(i as i64)));
            events.push(Event::complete(junk.clone(), Value::from(i as i64)));
        }
        events.push(Event::start(a.clone(), Value::from(1)));
        events.push(Event::start(a.clone(), Value::from(1)));
        events.push(Event::complete(a.clone(), Value::from(2)));
        let h = History::from_events(events);
        let pattern = Pattern::Interleaved(sp1.clone(), sp2.clone());
        let start = Instant::now();
        let mut matches = 0u32;
        let iters = 200;
        for _ in 0..iters {
            if pattern.matches(&h) {
                matches += 1;
            }
        }
        let per = start.elapsed().as_nanos() / iters as u128;
        rows.push(vec![
            h.len().to_string(),
            format!("{per}"),
            (matches == iters).to_string(),
        ]);
    }
    Table {
        title: "F1 — pattern matching (Fig. 1–2)".into(),
        paper_claim: "the matching relation ⊨ decides whether a window contains a (possibly \
                      failed) attempt interleaved with a successful execution"
            .into(),
        header: vec![
            "history length".into(),
            "match time (ns)".into(),
            "matched".into(),
        ],
        rows,
        notes: "matching is polynomial in the window length; every row matched, as the \
                windows all embed a retried execution"
            .into(),
    }
}

/// F4 — history reduction (Fig. 4): x-ability decision cost vs duplicate
/// count, exhaustive search vs the fast checker (one group, so one
/// per-group search either way).
pub fn f4_reduction() -> Table {
    let a = idem("a");
    let ops = [(a.clone(), Value::from(1))];
    let mut rows = Vec::new();
    for k in [1usize, 2, 4, 8, 16] {
        let h = retried_history(k);
        let start = Instant::now();
        let reached = SearchChecker::default().check(&h, &ops, &[]).is_xable();
        let search_us = start.elapsed().as_micros();
        let start = Instant::now();
        let fast = FastChecker.check(&h, &ops, &[]).is_xable();
        let fast_us = start.elapsed().as_micros();
        let steps = reduce::reduction_steps(&h).len();
        rows.push(vec![
            k.to_string(),
            h.len().to_string(),
            steps.to_string(),
            format!("{search_us}"),
            format!("{fast_us}"),
            (reached && fast).to_string(),
        ]);
    }
    Table {
        title: "F4 — history reduction ⇒ (Fig. 4)".into(),
        paper_claim: "a history with duplicated attempts reduces, under rules 17–20, to a \
                      failure-free history; reduction mechanically witnesses exactly-once"
            .into(),
        header: vec![
            "failed attempts k".into(),
            "events".into(),
            "one-step reductions".into(),
            "search (µs)".into(),
            "fast checker (µs)".into(),
            "x-able".into(),
        ],
        rows,
        notes: "both columns grow quickly with k: each history is a single group, so the fast \
                checker runs the same per-group search once (its shape memo pays when a shape \
                repeats, and only for groups of at most 12 events — the 18-event group of \
                k = 16 is past that cap and still searches); both agree on every row"
            .into(),
    }
}

/// F5 — client stub (Fig. 5): failover latency versus primary crash time.
pub fn f5_client_failover() -> Table {
    let mut rows = Vec::new();
    for crash_ms in [0u64, 2, 5, 10, 20] {
        let report = Scenario::new(
            Scheme::XAble,
            Workload::BankTransfers {
                count: 1,
                amount: 10,
            },
        )
        .seed(5)
        .crash(0, SimTime::from_millis(crash_ms))
        .run();
        rows.push(vec![
            format!("{crash_ms} ms"),
            format!("{}", report.mean_latency_micros() / 1000),
            report.client.submissions.to_string(),
            report.client.failures.to_string(),
            report.is_correct().to_string(),
        ]);
    }
    Table {
        title: "F5 — client-side submit with failover (Fig. 5)".into(),
        paper_claim: "the client retries submit against the next replica when it suspects \
                      the contacted one; submit stays idempotent (R1) and eventually \
                      succeeds (R2)"
            .into(),
        header: vec![
            "replica-0 crash at".into(),
            "request latency (ms, simulated)".into(),
            "submissions".into(),
            "failed submits".into(),
            "correct".into(),
        ],
        rows,
        notes: "latency jumps by roughly the failure-detector timeout when the contacted \
                replica crashes mid-request, and every run remains exactly-once"
            .into(),
    }
}

/// F6 — server algorithm (Fig. 6): cost versus replica-group size.
pub fn f6_server_scaling() -> Table {
    let mut rows = Vec::new();
    for n in [1usize, 3, 5, 7] {
        let report = Scenario::new(
            Scheme::XAble,
            Workload::BankTransfers {
                count: 5,
                amount: 10,
            },
        )
        .seed(6)
        .replicas(n)
        .run();
        rows.push(vec![
            n.to_string(),
            format!("{}", report.mean_latency_micros() / 1000),
            report.sim.messages_sent.to_string(),
            report.replica_metrics.rounds_owned.to_string(),
            report.is_correct().to_string(),
        ]);
    }
    Table {
        title: "F6 — server-side algorithm (Fig. 6)".into(),
        paper_claim: "in nice runs the protocol behaves like primary-backup: one owner per \
                      request executes; consensus instances cost messages that grow with n"
            .into(),
        header: vec![
            "replicas n".into(),
            "mean latency (ms, simulated)".into(),
            "protocol messages".into(),
            "rounds owned (total)".into(),
            "correct".into(),
        ],
        rows,
        notes: "rounds stay at one per request regardless of n (single owner in nice runs); \
                message count grows with n due to consensus dissemination"
            .into(),
    }
}

/// F7 — execute-until-success / result-coordination (Fig. 7): retries and
/// cancellations versus action failure probability.
pub fn f7_retry_coordination() -> Table {
    let mut rows = Vec::new();
    for p in [0.0f64, 0.1, 0.3, 0.5] {
        let report = Scenario::new(
            Scheme::XAble,
            Workload::BankTransfers {
                count: 5,
                amount: 10,
            },
        )
        .seed(7)
        .service_failures(FailurePlan::probabilistic(p))
        .run();
        rows.push(vec![
            format!("{p:.1}"),
            report.replica_metrics.executions.to_string(),
            report.replica_metrics.cancels.to_string(),
            report.replica_metrics.rounds_owned.to_string(),
            report.replica_metrics.transient_failures.to_string(),
            report.is_correct().to_string(),
        ]);
    }
    Table {
        title: "F7 — execute-until-success and result coordination (Fig. 7)".into(),
        paper_claim: "failed undoable actions are cancelled and retried until they succeed, \
                      coordinated so the composite history stays exactly-once"
            .into(),
        header: vec![
            "action failure prob".into(),
            "executions".into(),
            "cancellations".into(),
            "rounds".into(),
            "transient failures".into(),
            "correct".into(),
        ],
        rows,
        notes: "executions, cancellations and rounds grow with the failure probability while \
                every run remains exactly-once — the retry logic is doing its job"
            .into(),
    }
}

/// C1 — exactly-once under adversity: the x-able protocol vs both baselines
/// across seeds with crashes.
pub fn c1_exactly_once(seeds: u64) -> Table {
    let mut rows = Vec::new();
    for scheme in [Scheme::XAble, Scheme::PrimaryBackup, Scheme::Active] {
        let mut violating = 0u64;
        let mut starved = 0u64;
        for seed in 0..seeds {
            let report = Scenario::new(
                scheme,
                Workload::BankTransfers {
                    count: 2,
                    amount: 10,
                },
            )
            .seed(seed)
            .crash(0, SimTime::from_millis(4 + (seed % 4) * 2))
            .run();
            if !report.exactly_once_violations.is_empty() {
                violating += 1;
            }
            if !report.finished {
                starved += 1;
            }
        }
        rows.push(vec![
            scheme.to_string(),
            seeds.to_string(),
            violating.to_string(),
            starved.to_string(),
        ]);
    }
    Table {
        title: "C1 — exactly-once side-effects under primary crashes".into(),
        paper_claim: "the x-able protocol executes actions with external side-effects \
                      exactly once despite crashes; primary-backup and active replication \
                      do not"
            .into(),
        header: vec![
            "scheme".into(),
            "runs".into(),
            "runs with duplicated/lost effects".into(),
            "runs where the client starved".into(),
        ],
        rows,
        notes: "only the x-able protocol has zero violating runs; active replication \
                violates in every run (n commits), primary-backup whenever the crash \
                window catches the commit/reply race"
            .into(),
    }
}

/// C2 — the primary-backup ↔ active-replication spectrum: redundant work
/// versus false-suspicion pressure.
pub fn c2_spectrum(seeds: u64) -> Table {
    let mut rows = Vec::new();
    for spike in [0.0f64, 0.05, 0.15, 0.30, 0.50] {
        let mut rounds = 0u64;
        let mut cleanings = 0u64;
        let mut cancels = 0u64;
        let mut executions = 0u64;
        let mut latency_ms = 0u64;
        let mut correct = 0u64;
        for seed in 0..seeds {
            let report = Scenario::new(
                Scheme::XAble,
                Workload::BankTransfers {
                    count: 2,
                    amount: 10,
                },
            )
            .seed(seed)
            .latency(LatencyModel::partially_synchronous(
                spike,
                SimTime::from_millis(700),
            ))
            .run();
            rounds += report.replica_metrics.rounds_owned;
            cleanings += report.replica_metrics.cleanings;
            cancels += report.replica_metrics.cancels;
            executions += report.replica_metrics.executions;
            latency_ms += report.mean_latency_micros() / 1000;
            if report.is_correct() {
                correct += 1;
            }
        }
        rows.push(vec![
            format!("{spike:.2}"),
            format!("{:.2}", rounds as f64 / (2.0 * seeds as f64)),
            format!("{:.2}", executions as f64 / (2.0 * seeds as f64)),
            format!("{:.2}", cancels as f64 / (2.0 * seeds as f64)),
            format!("{:.2}", cleanings as f64 / (2.0 * seeds as f64)),
            format!("{}", latency_ms / seeds),
            format!("{correct}/{seeds}"),
        ]);
    }
    Table {
        title: "C2 — the asynchronous spectrum (§5.1)".into(),
        paper_claim: "the protocol varies at run-time between primary-backup (no \
                      suspicions: one replica executes) and active replication (false \
                      suspicions: several replicas execute concurrently), preserving \
                      correctness throughout"
            .into(),
        header: vec![
            "pre-GST spike prob".into(),
            "rounds / request".into(),
            "executions / request".into(),
            "cancels / request".into(),
            "cleanings / request".into(),
            "mean latency (ms)".into(),
            "correct runs".into(),
        ],
        rows,
        notes: "with no spikes the protocol is primary-backup-like (1 round, 1 execution \
                per request); as false suspicions increase, redundant rounds, executions \
                and cancellations climb — active-replication-like — while every run stays \
                exactly-once"
            .into(),
    }
}

/// C3 — composition: three-tier end-to-end exactly-once.
pub fn c3_three_tier() -> Table {
    let mut rows = Vec::new();
    let cases: Vec<(&str, ThreeTier)> = vec![
        ("crash-free", ThreeTier::new(3).seed(31)),
        (
            "app replica crash",
            ThreeTier::new(3)
                .seed(32)
                .crash(0, 0, SimTime::from_millis(5)),
        ),
        (
            "backend replica crash",
            ThreeTier::new(3)
                .seed(33)
                .crash(1, 0, SimTime::from_millis(5)),
        ),
        (
            "crashes in both tiers",
            ThreeTier::new(3)
                .seed(34)
                .crash(0, 0, SimTime::from_millis(5))
                .crash(1, 0, SimTime::from_millis(30)),
        ),
    ];
    for (name, config) in cases {
        let report = config.run();
        rows.push(vec![
            name.into(),
            format!("{}/{}", report.completed, report.total),
            (report.app_r3.is_none()).to_string(),
            (report.backend_r3.is_none()).to_string(),
            report.exactly_once_violations.is_empty().to_string(),
        ]);
    }
    Table {
        title: "C3 — composition: replicated app tier over replicated back-end (§4, fn. 1)".into(),
        paper_claim: "x-ability is local: a replicated service that invokes an x-able \
                      replicated service can treat the invocation as an idempotent action, \
                      so correctness composes tier by tier"
            .into(),
        header: vec![
            "scenario".into(),
            "completed".into(),
            "app tier x-able".into(),
            "back-end x-able".into(),
            "bank exactly-once".into(),
        ],
        rows,
        notes: "both tiers' histories are independently x-able and the bank records exactly \
                one committed transfer per request, under crashes in either or both tiers"
            .into(),
    }
}

/// Small sanity harness used by tests: F4's agreement column must be all
/// true.
pub fn checkers_agree_on_retried_histories(max_k: usize) -> bool {
    let a = idem("a");
    let ops = [(a, Value::from(1))];
    (1..=max_k).all(|k| {
        let h = retried_history(k);
        let search = SearchChecker::default().check(&h, &ops, &[]).is_xable();
        let fast = FastChecker.check(&h, &ops, &[]).is_xable();
        search == fast
    })
}

/// The failure-free history of Fig. eventsof — exercised by the xreport
/// binary header to show the artifacts exist.
pub fn f3_eventsof_demo() -> (History, History) {
    let i = idem("lookup");
    let u = ActionId::base(ActionName::undoable("transfer"));
    (
        eventsof(&i, &Value::from(1), &Value::from(42)),
        eventsof(&u, &Value::from(2), &Value::from("ok")),
    )
}

/// A1 — ablation: failure-detector timeout. The central tuning knob of the
/// protocol trades failover speed against false-suspicion overhead.
pub fn a1_fd_timeout_ablation(seeds: u64) -> Table {
    use xability_sim::FdConfig;
    let mut rows = Vec::new();
    for timeout_ms in [15u64, 40, 80, 160] {
        let mut latency_ms = 0u64;
        let mut cleanings = 0u64;
        let mut rounds = 0u64;
        let mut correct = 0u64;
        for seed in 0..seeds {
            let report = Scenario::new(
                Scheme::XAble,
                Workload::BankTransfers {
                    count: 2,
                    amount: 10,
                },
            )
            .seed(seed)
            .crash(0, SimTime::from_millis(5))
            .latency(LatencyModel::partially_synchronous(
                0.15,
                SimTime::from_millis(500),
            ))
            .fd(FdConfig {
                heartbeat_every: xability_sim::SimDuration::from_millis(5),
                timeout: xability_sim::SimDuration::from_millis(timeout_ms),
            })
            .run();
            latency_ms += report.mean_latency_micros() / 1000;
            cleanings += report.replica_metrics.cleanings;
            rounds += report.replica_metrics.rounds_owned;
            if report.is_correct() {
                correct += 1;
            }
        }
        rows.push(vec![
            format!("{timeout_ms} ms"),
            format!("{}", latency_ms / seeds),
            format!("{:.2}", cleanings as f64 / seeds as f64),
            format!("{:.2}", rounds as f64 / (2.0 * seeds as f64)),
            format!("{correct}/{seeds}"),
        ]);
    }
    Table {
        title:
            "A1 — ablation: failure-detector timeout (with a crash at 5 ms and 15% pre-GST spikes)"
                .into(),
        paper_claim: "the protocol tolerates *unreliable* failure detection: timeout tuning \
                      affects performance only, never safety (§5.2)"
            .into(),
        header: vec![
            "FD timeout".into(),
            "mean latency (ms)".into(),
            "cleanings / run".into(),
            "rounds / request".into(),
            "correct runs".into(),
        ],
        rows,
        notes: "aggressive timeouts recover from the crash quickly but pay false-suspicion \
                overhead (extra cleanings/rounds) under pre-GST spikes; conservative \
                timeouts are calm but slow to fail over — correctness is unaffected either \
                way, which is precisely the claim"
            .into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f1_rows_all_match() {
        let t = f1_patterns();
        assert_eq!(t.rows.len(), 5);
        for row in &t.rows {
            assert_eq!(row[2], "true");
        }
    }

    #[test]
    fn f4_checkers_agree() {
        let t = f4_reduction();
        for row in &t.rows {
            assert_eq!(row[5], "true", "{row:?}");
        }
        assert!(checkers_agree_on_retried_histories(8));
    }

    #[test]
    fn f3_demo_shapes() {
        let (idem_h, undo_h) = f3_eventsof_demo();
        assert_eq!(idem_h.len(), 2);
        assert_eq!(undo_h.len(), 4);
    }
}
