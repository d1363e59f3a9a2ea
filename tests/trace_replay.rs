//! Trace-corpus replay regression: the small recorded traces under
//! `tests/corpus/` must keep replaying bit-for-bit and re-checking to the
//! same verdicts on every build — the committed corpus pins the binary
//! trace format (magic, version, encodings) against accidental drift.
//!
//! To regenerate the corpus after a *deliberate* format change (bump
//! `TRACE_FORMAT_VERSION` first):
//!
//! ```text
//! UPDATE_TRACE_CORPUS=1 cargo test --test trace_replay
//! ```

use std::path::Path;

use xability::core::xable::{Checker, FastChecker};
use xability::core::{ActionId, ActionName, Event, History, Request, Value};
use xability::harness::{
    dangling_round_violation, Explorer, ExplorerConfig, ReasonClass, Scenario, Scheme, Shrinker,
    ShrunkViolation, ViolationKind, Workload,
};
use xability::sim::SimTime;
use xability::store::{write_trace_with_meta, RecordedTrace, TraceStore};
use xability_bench::{n_requests_with_cancelled_rounds, n_retried_requests};

const CORPUS_DIR: &str = "tests/corpus";

/// Expected verdict class of a corpus entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    Xable,
    NotXable,
}

/// One corpus entry: its file name, how to (re)build it, the event/request
/// counts it must hold, and the verdict it must re-check to.
struct CorpusEntry {
    file: &'static str,
    build: fn() -> (Vec<Request>, History),
    events: usize,
    requests: usize,
    expect: Expect,
}

fn requests_of(ops: Vec<(ActionId, Value)>) -> Vec<Request> {
    ops.into_iter().map(|(a, iv)| Request::new(a, iv)).collect()
}

/// 40 idempotent requests, each retried once: the bulk heavy-traffic shape.
fn retried_idempotent() -> (Vec<Request>, History) {
    let (h, ops) = n_retried_requests(40);
    (requests_of(ops), h)
}

/// 20 undoable requests, each with a cancelled round before the committed
/// one: what crash/cleaning runs record.
fn cancelled_rounds() -> (Vec<Request>, History) {
    let (h, ops) = n_requests_with_cancelled_rounds(20);
    (requests_of(ops), h)
}

/// A duplicated effect with disagreeing outputs: irreducible, the
/// regression pin for a definite NotXable replay.
fn duplicated_effect() -> (Vec<Request>, History) {
    let a = ActionId::base(ActionName::idempotent("put"));
    let h: History = [
        Event::start(a.clone(), Value::from(1)),
        Event::complete(a.clone(), Value::from(5)),
        Event::start(a.clone(), Value::from(1)),
        Event::complete(a.clone(), Value::from(6)),
    ]
    .into_iter()
    .collect();
    (vec![Request::new(a, Value::from(1))], h)
}

const CORPUS: [CorpusEntry; 3] = [
    CorpusEntry {
        file: "retried_idempotent.xtrace",
        build: retried_idempotent,
        events: 120,
        requests: 40,
        expect: Expect::Xable,
    },
    CorpusEntry {
        file: "cancelled_rounds.xtrace",
        build: cancelled_rounds,
        events: 140,
        requests: 20,
        expect: Expect::Xable,
    },
    CorpusEntry {
        file: "duplicated_effect.xtrace",
        build: duplicated_effect,
        events: 4,
        requests: 1,
        expect: Expect::NotXable,
    },
];

#[test]
fn corpus_replays_and_rechecks() {
    if std::env::var_os("UPDATE_TRACE_CORPUS").is_some() {
        std::fs::create_dir_all(CORPUS_DIR).expect("create corpus dir");
        for entry in &CORPUS {
            let (requests, history) = (entry.build)();
            let recorded = RecordedTrace {
                requests,
                store: TraceStore::from_history(&history),
                meta: vec![(
                    "generator".to_string(),
                    "tests/trace_replay.rs (UPDATE_TRACE_CORPUS=1)".to_string(),
                )],
            };
            recorded
                .write_to_file(Path::new(CORPUS_DIR).join(entry.file))
                .expect("write corpus entry");
        }
        return;
    }

    let checker = FastChecker;
    for entry in &CORPUS {
        let path = Path::new(CORPUS_DIR).join(entry.file);
        let replayed = RecordedTrace::read_from_file(&path)
            .unwrap_or_else(|e| panic!("corpus entry {} failed to replay: {e}", entry.file));
        assert_eq!(
            replayed.store.len(),
            entry.events,
            "{}: event count",
            entry.file
        );
        assert_eq!(
            replayed.requests.len(),
            entry.requests,
            "{}: request count",
            entry.file
        );

        // The recorded bytes decode to exactly the generator's history…
        let (expected_requests, expected_history) = (entry.build)();
        assert_eq!(
            replayed.requests, expected_requests,
            "{}: requests",
            entry.file
        );
        assert_eq!(
            replayed.store.view().to_history(),
            expected_history,
            "{}: events",
            entry.file
        );

        // …and re-check to the pinned verdict, zero-copy off the view.
        let verdict = checker.check_requests(&replayed.store.view(), &replayed.requests);
        match entry.expect {
            Expect::Xable => assert!(verdict.is_xable(), "{}: {verdict}", entry.file),
            Expect::NotXable => assert!(verdict.is_not_xable(), "{}: {verdict}", entry.file),
        }
    }
}

// ---------------------------------------------------------------------------
// The machine-grown half of the corpus: reproducers discovered by the
// coverage-guided explorer against the deliberately weakened protocol
// (`Scenario::weaken_retry`) and shrunk to 1-minimal traces. Each entry
// pins the explorer configuration that (re)grows it, so
// `UPDATE_TRACE_CORPUS=1` regenerates the exact same bytes.
// ---------------------------------------------------------------------------

/// One machine-grown corpus entry: the file it lives in plus the pinned
/// explorer run that grows it.
struct ExploredEntry {
    file: &'static str,
    master_seed: u64,
    runs: usize,
    base: fn() -> Scenario,
}

fn weakened_reservations() -> Scenario {
    Scenario::new(Scheme::XAble, Workload::Reservations { count: 2, seats: 1 })
        .horizon(SimTime::from_secs(5))
        .weaken_retry()
}

fn weakened_bank() -> Scenario {
    Scenario::new(
        Scheme::XAble,
        Workload::BankTransfers {
            count: 2,
            amount: 5,
        },
    )
    .horizon(SimTime::from_secs(5))
    .weaken_retry()
}

const EXPLORED: [ExploredEntry; 2] = [
    ExploredEntry {
        file: "dangling_round_reservations.xtrace",
        master_seed: 0xC0FFEE,
        runs: 60,
        base: weakened_reservations,
    },
    ExploredEntry {
        file: "dangling_round_bank.xtrace",
        master_seed: 0xC0FFEE,
        runs: 60,
        base: weakened_bank,
    },
];

/// Runs the entry's pinned exploration and shrinks its planted-weakness
/// discovery — the deterministic pipeline that grew the committed file.
fn grow(entry: &ExploredEntry) -> ShrunkViolation {
    let base = (entry.base)();
    let report = Explorer::new(ExplorerConfig::new(
        base.clone(),
        entry.master_seed,
        entry.runs,
    ))
    .run();
    let shrinker = Shrinker::new(base);
    report
        .distinct_violations()
        .into_iter()
        .filter(|v| {
            v.class.kind == ViolationKind::R3 && v.class.reason == ReasonClass::DanglingRound
        })
        .filter_map(|v| shrinker.shrink(v))
        .next()
        .expect("the pinned master seed deterministically discovers the planted weakness")
}

#[test]
fn explored_corpus_replays_and_rechecks() {
    if std::env::var_os("UPDATE_TRACE_CORPUS").is_some() {
        std::fs::create_dir_all(CORPUS_DIR).expect("create corpus dir");
        for entry in &EXPLORED {
            grow(entry)
                .write_trace(Path::new(CORPUS_DIR).join(entry.file))
                .expect("write explored corpus entry");
        }
        return;
    }

    for entry in &EXPLORED {
        let path = Path::new(CORPUS_DIR).join(entry.file);
        let replayed = RecordedTrace::read_from_file(&path)
            .unwrap_or_else(|e| panic!("corpus entry {} failed to replay: {e}", entry.file));

        // Provenance metadata survives the round trip.
        assert_eq!(
            replayed.meta_value("generator"),
            Some("harness::explore"),
            "{}: generator",
            entry.file
        );
        assert_eq!(
            replayed.meta_value("violation_kind"),
            Some("R3"),
            "{}: violation kind",
            entry.file
        );
        assert_eq!(
            replayed.meta_value("reason_class"),
            Some("DanglingRound"),
            "{}: reason class",
            entry.file
        );
        assert_eq!(
            replayed.meta_value("events"),
            Some(replayed.store.len().to_string().as_str()),
            "{}: events meta matches the store",
            entry.file
        );

        // Shrunk means shrunk.
        assert!(
            replayed.store.len() <= 20,
            "{}: minimal reproducer, got {} events",
            entry.file,
            replayed.store.len()
        );

        // The committed reproducer still witnesses the violation class it
        // was grown for: structurally (the attribution-independent
        // dangling-round oracle)…
        let history = replayed.store.view().to_history();
        let class = dangling_round_violation(&replayed.requests, &history)
            .unwrap_or_else(|| panic!("{}: dangling round must persist", entry.file));
        assert_eq!(class.kind, ViolationKind::R3, "{}: kind", entry.file);
        assert_eq!(
            class.reason,
            ReasonClass::DanglingRound,
            "{}: reason",
            entry.file
        );

        // …and under the checker, which must not certify it x-able
        // (the fast tier answers `Unknown` here — the completion
        // attribution on these round-stamped traces is ambiguous, which
        // is exactly why the structural oracle exists).
        let verdict = FastChecker.check_requests(&replayed.store.view(), &replayed.requests);
        assert!(
            !verdict.is_xable(),
            "{}: a shrunk violation must not re-check x-able: {verdict}",
            entry.file
        );
    }
}

#[test]
fn every_corpus_file_parses_under_the_current_format() {
    if std::env::var_os("UPDATE_TRACE_CORPUS").is_some() {
        return; // regeneration pass: siblings are mid-rewrite
    }
    let mut seen = 0;
    for entry in std::fs::read_dir(CORPUS_DIR).expect("corpus dir exists") {
        let path = entry.expect("read corpus dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("xtrace") {
            continue;
        }
        seen += 1;
        let replayed = RecordedTrace::read_from_file(&path)
            .unwrap_or_else(|e| panic!("{} failed to parse: {e}", path.display()));
        // …and what was read writes back to the committed bytes: symbol
        // order, value encodings and meta all survive the in-memory form.
        let mut rewritten = Vec::new();
        let snapshot = replayed.store.snapshot();
        write_trace_with_meta(
            &mut rewritten,
            &replayed.requests,
            &snapshot,
            &replayed.meta,
        )
        .unwrap_or_else(|e| panic!("{} failed to re-encode: {e}", path.display()));
        let committed = std::fs::read(&path).expect("read corpus entry");
        assert!(rewritten == committed, "{} re-encodes", path.display());
    }
    assert!(
        seen >= CORPUS.len() + EXPLORED.len(),
        "corpus hygiene: every committed entry is covered, found {seen}"
    );
}
