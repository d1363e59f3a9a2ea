//! Behaviour pin for the replication protocol: a fixed set of seeded
//! scenarios, each fingerprinted as an FNV-1a hash over the bytes of its
//! written trace, its `MetricsSnapshot` JSON, the simulator counters and
//! what the client and the audit saw (results, latencies, exactly-once
//! strings, R4), compared against the checked-in table `protocol_pin.txt`.
//!
//! The table is what the code produced when the pin was recorded; a change
//! that claims "byte-identical protocol behaviour" (an index replacing a
//! scan, a refactor of the replica) must leave every row alone. A change
//! that *means* to alter behaviour regenerates the table from the file
//! this test writes on mismatch and says so in its description.

use std::fmt::Write as _;

use xability_harness::explore::PartitionSpec;
use xability_harness::{FaultPlan, RunReport, Scenario, Scheme, Workload};
use xability_services::FailurePlan;
use xability_sim::{FdConfig, LatencyModel, NetFaultConfig, SimDuration, SimTime};

const TABLE: &str = include_str!("protocol_pin.txt");

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn fingerprint(report: &RunReport) -> u64 {
    let mut trace = Vec::new();
    xability_store::write_trace(
        &mut trace,
        &report.submitted,
        report.ledger.borrow().store(),
    )
    .expect("writing a trace to memory cannot fail");
    let mut hash = 0xcbf2_9ce4_8422_2325;
    fnv1a(&mut hash, &trace);
    fnv1a(&mut hash, report.metrics.to_json().as_bytes());
    fnv1a(&mut hash, format!("{:?}", report.sim).as_bytes());
    let verdicts = (
        &report.results,
        &report.latencies,
        &report.exactly_once_violations,
        report.r4_ok,
        report.quiescent,
        report.end_time,
    );
    fnv1a(&mut hash, format!("{verdicts:?}").as_bytes());
    hash
}

fn bank(count: usize) -> Scenario {
    Scenario::new(Scheme::XAble, Workload::BankTransfers { count, amount: 5 })
}

fn reservations(count: usize) -> Scenario {
    Scenario::new(Scheme::XAble, Workload::Reservations { count, seats: 1 })
}

fn kv(count: usize) -> Scenario {
    Scenario::new(Scheme::XAble, Workload::KvPuts { count })
}

fn tokens(count: usize) -> Scenario {
    Scenario::new(Scheme::XAble, Workload::TokenIssues { count })
}

fn ms(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

fn scenarios() -> Vec<(String, Scenario)> {
    let mut out: Vec<(String, Scenario)> = Vec::new();
    let mut add = |name: &str, s: Scenario| out.push((name.to_owned(), s));

    // Fault-free long sessions: the tick runs thousands of times over a
    // growing set of retained requests and decided instances.
    add("steady-bank-n3", bank(150).seed(1));
    add("steady-kv-n5", kv(150).seed(2).replicas(5));
    add("steady-tokens-n3", tokens(80).seed(3));
    add(
        "steady-reservations-n5",
        reservations(80).seed(4).replicas(5),
    );

    // Failing invocations: retries inside a round (idempotent) and
    // round-per-attempt with cancels (undoable).
    let failing = |s: Scenario, p: f64| s.service_failures(FailurePlan::probabilistic(p));
    add("failing-bank", failing(bank(12).seed(13), 0.3));
    add(
        "failing-reservations-n5",
        failing(reservations(12).seed(5).replicas(5), 0.25),
    );
    add("failing-kv", failing(kv(12).seed(6), 0.3));
    add("failing-counter", {
        let s = Scenario::new(Scheme::XAble, Workload::CounterBumps { count: 8 }).seed(3);
        failing(s, 0.3)
    });

    // A replica crash swept across the first request's lifetime: before
    // execution, between execution and outcome agreement, at agreement,
    // and after it but before the commit or the reply lands — the cleaner
    // cancels, helps the commit, or only owes the reply.
    for at in [3, 6, 8, 9, 10, 11, 12, 14] {
        add(
            &format!("crash-bank-{at}ms"),
            bank(4).seed(at).crash(0, ms(at)),
        );
    }
    for at in [4, 7, 9] {
        add(
            &format!("crash-tokens-{at}ms"),
            tokens(4).seed(17).crash(0, ms(at)),
        );
    }
    add(
        "crash-two-of-five",
        bank(5)
            .seed(11)
            .replicas(5)
            .crash(0, ms(5))
            .crash(1, ms(120)),
    );

    // An owner that dies (or is cut off and comes back) mid-session: every
    // request it ever owned stays filed under a suspected owner, so each
    // cleaner pass walks the whole backlog.
    add("crash-mid-session-bank", bank(60).seed(7).crash(0, ms(300)));
    add(
        "crash-mid-session-kv-n5",
        kv(60)
            .seed(8)
            .replicas(5)
            .crash(0, ms(200))
            .crash(2, ms(500)),
    );
    add(
        "partition-mid-session-reservations",
        reservations(60)
            .seed(9)
            .partition(vec![0], ms(250), ms(600)),
    );
    add(
        "partition-mid-session-tokens",
        tokens(60)
            .seed(10)
            .partition(vec![0], ms(150), ms(400))
            .partition(vec![1], ms(700), ms(900)),
    );

    // Duplicated and reordered messages.
    let shuffled = |dup: f64, reorder: f64| NetFaultConfig {
        drop_prob: 0.0,
        dup_prob: dup,
        reorder_prob: reorder,
        reorder_max_extra: SimDuration::from_millis(30),
    };
    add("dup-bank", bank(10).seed(21).net_faults(shuffled(0.2, 0.0)));
    add("reorder-kv", kv(10).seed(22).net_faults(shuffled(0.0, 0.3)));
    add(
        "dup-reorder-reservations-n5",
        reservations(10)
            .seed(23)
            .replicas(5)
            .net_faults(shuffled(0.15, 0.2)),
    );

    // False suspicions: latency spikes past the detector's timeout, and a
    // detector tuned tighter than the healthy round trip.
    let spiky = LatencyModel::partially_synchronous(0.25, ms(400));
    add("spikes-bank", bank(6).seed(2).latency(spiky));
    add("spikes-kv", kv(6).seed(3).latency(spiky));
    add("tight-fd-bank", {
        let fd = FdConfig {
            heartbeat_every: SimDuration::from_millis(10),
            timeout: SimDuration::from_millis(12),
        };
        bank(6).seed(4).latency(spiky).fd(fd)
    });

    // Explorer-style fault plans (loss, partitions, crashes, failing
    // invocations combined), on an undoable and an idempotent base.
    let undoable_base = reservations(3).horizon(SimTime::from_secs(5));
    let idempotent_base = tokens(3).horizon(SimTime::from_secs(5));
    let plan = |seed: u64, fail: u16, drop: u16, dup: u16, reorder: u16| FaultPlan {
        fail_bp: fail,
        drop_bp: drop,
        dup_bp: dup,
        reorder_bp: reorder,
        reorder_extra_us: 25_000,
        ..FaultPlan::quiet(seed)
    };
    let cut = |members: Vec<usize>, from_ms: u64, until_ms: u64| PartitionSpec {
        members,
        from_us: from_ms * 1_000,
        until_us: until_ms * 1_000,
    };
    let plans = [
        plan(31, 0, 0, 0, 0),
        plan(32, 2_500, 0, 0, 0),
        plan(33, 0, 800, 0, 0),
        plan(34, 1_500, 500, 1_000, 1_500),
        FaultPlan {
            crashes: vec![(0, 9_000)],
            ..plan(35, 2_000, 0, 0, 0)
        },
        FaultPlan {
            crashes: vec![(1, 4_000)],
            ..plan(36, 0, 300, 500, 0)
        },
        FaultPlan {
            partitions: vec![cut(vec![0], 5, 200)],
            ..plan(37, 0, 0, 0, 0)
        },
        FaultPlan {
            partitions: vec![cut(vec![0], 8, 150), cut(vec![1], 300, 420)],
            ..plan(38, 1_000, 0, 0, 1_000)
        },
        FaultPlan {
            crashes: vec![(0, 11_000)],
            partitions: vec![cut(vec![2], 2, 90)],
            ..plan(39, 1_500, 200, 0, 0)
        },
    ];
    for p in &plans {
        add(
            &format!("plan-{}-undoable", p.seed),
            p.apply(&undoable_base),
        );
    }
    for p in &plans[3..6] {
        add(
            &format!("plan-{}-idempotent", p.seed),
            p.apply(&idempotent_base),
        );
    }
    // The planted weakness (abort without cancel) is behaviour too.
    add(
        "plan-32-weakened",
        plans[1].apply(&undoable_base.clone().weaken_retry()),
    );
    out
}

#[test]
fn seeded_scenarios_match_the_pinned_table() {
    let mut actual = String::new();
    let (mut cleanings, mut cancels, mut retransmits, mut suspicions) = (0, 0, 0, 0);
    for (name, scenario) in scenarios() {
        let report = scenario.run();
        writeln!(actual, "{name} {:016x}", fingerprint(&report)).expect("write to String");
        cleanings += report.replica_metrics.cleanings;
        cancels += report.replica_metrics.cancels;
        retransmits += report.replica_metrics.invoke_retransmits;
        suspicions += report.sim.suspicion_changes;
    }
    // The set drives the paths the pin exists for, not only happy runs.
    assert!(cleanings > 0 && cancels > 0 && retransmits > 0 && suspicions > 0);

    if actual != TABLE {
        let path =
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("protocol_pin.actual.txt");
        std::fs::write(&path, &actual).expect("write the actual table");
        let changed: Vec<&str> = actual
            .lines()
            .zip(TABLE.lines().chain(std::iter::repeat("")))
            .filter(|(a, t)| a != t)
            .map(|(a, _)| a)
            .collect();
        panic!(
            "protocol behaviour differs from crates/harness/tests/protocol_pin.txt in {} row(s): \
             {changed:?}\n(full actual table written to {})",
            changed.len(),
            path.display()
        );
    }
}
