//! Crash-safety and re-check-equality integration tests for the durable
//! spill (`xability::store::segfile`, written and reopened through the
//! services ledger).
//!
//! The contract under test: a segment directory is *always* recoverable —
//! any torn write (simulated by truncating a sealed segment at **every**
//! byte boundary) and any single-byte corruption yields either the full
//! chain or a shorter valid prefix with the damage quarantined, never a
//! panic and never silently wrong events — and checker verdicts over a
//! reopened history are identical to in-memory ones, compressed or not.

use std::fs;
use std::path::PathBuf;

use xability::core::xable::{Checker, FastChecker, TieredChecker};
use xability::core::{ActionId, ActionName, Event, Request, Value};
use xability::services::Ledger;
use xability::sim::SimTime;
use xability::store::{recover_store, Codec, SegmentLog, TierConfig, TraceStore};
use xability_bench::n_retried_requests;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xability-tiertest-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A small mixed workload: idempotent retries plus an undoable
/// cancel/commit round, as both requests and events.
fn small_workload() -> (Vec<Request>, Vec<Event>) {
    let (history, ops) = n_retried_requests(6);
    let mut requests: Vec<Request> = ops.into_iter().map(|(a, iv)| Request::new(a, iv)).collect();
    let mut events: Vec<Event> = history.events().to_vec();
    let undo = ActionId::base(ActionName::undoable("reserve"));
    let cancel = undo.cancel().expect("undoable");
    requests.push(Request::new(undo.clone(), Value::from(9)));
    events.extend([
        Event::start(undo.clone(), Value::from(9)),
        Event::start(cancel.clone(), Value::from(9)),
        Event::complete(cancel, Value::Nil),
        Event::start(undo.clone(), Value::from(9)),
        Event::complete(undo.clone(), Value::from(9)),
        Event::start(undo.commit().expect("undoable"), Value::from(9)),
        Event::complete(undo.commit().expect("undoable"), Value::Nil),
    ]);
    (requests, events)
}

fn flat_store(events: &[Event]) -> TraceStore {
    let mut store = TraceStore::new();
    store.push_batch(events);
    store
}

fn ops_of(requests: &[Request]) -> Vec<(ActionId, Value)> {
    requests
        .iter()
        .map(|r| (r.action().clone(), r.input().clone()))
        .collect()
}

/// Builds a two-segment chain and returns the directory plus the flat
/// in-memory mirror.
fn sealed_chain(tag: &str, codec: Codec) -> (PathBuf, TraceStore, Vec<Event>) {
    let (_, events) = small_workload();
    let dir = tmpdir(tag);
    let flat = flat_store(&events);
    let snap = flat.snapshot();
    let mut log = SegmentLog::create(&dir, codec).expect("create chain");
    let half = snap.len() / 2;
    log.seal(snap.interner(), half, &mut (0..half).map(|i| snap.repr(i)))
        .expect("seal first half");
    log.seal(
        snap.interner(),
        snap.len() - half,
        &mut (half..snap.len()).map(|i| snap.repr(i)),
    )
    .expect("seal second half");
    (dir, flat, events)
}

/// Torn-write simulation: truncate the tail segment at every byte
/// boundary. Recovery must never panic, never fabricate events, and must
/// recover exactly the first segment whenever the tail is damaged.
#[test]
fn every_truncation_of_the_tail_segment_recovers_a_valid_prefix() {
    for codec in [Codec::None, Codec::Lz] {
        let (dir, flat, _) = sealed_chain(&format!("torn-{codec}"), codec);
        let tail = dir.join("seg-000001.xtrace");
        let pristine = fs::read(&tail).expect("read tail segment");
        let half = flat.len() / 2;

        for cut in 0..pristine.len() {
            fs::write(&tail, &pristine[..cut]).expect("truncate tail");
            let (store, report) = recover_store(&dir)
                .unwrap_or_else(|e| panic!("codec {codec}, cut {cut}: recovery errored: {e}"));
            assert_eq!(
                report.segments_recovered, 1,
                "codec {codec}, cut {cut}: a truncated tail must not validate"
            );
            assert_eq!(store.len(), half, "codec {codec}, cut {cut}");
            for i in 0..half {
                assert_eq!(store.event(i), flat.event(i), "codec {codec}, cut {cut}");
            }
            // The torn file was quarantined; put it back for the next cut.
            assert_eq!(report.quarantined.len(), 1, "codec {codec}, cut {cut}");
            fs::remove_file(&report.quarantined[0]).expect("drop quarantined tail");
            fs::write(&tail, &pristine).expect("restore tail");
        }
        // Sanity: the pristine chain still recovers in full.
        let (store, report) = recover_store(&dir).expect("pristine recovery");
        assert_eq!(report.segments_recovered, 2);
        assert_eq!(store.len(), flat.len());
        fs::remove_dir_all(&dir).ok();
    }
}

/// Checksum coverage: flipping any single byte of a sealed segment must
/// never panic and never yield different events without quarantining the
/// segment.
#[test]
fn every_single_byte_corruption_is_rejected_or_quarantined() {
    let (dir, flat, _) = sealed_chain("flip", Codec::Lz);
    let tail = dir.join("seg-000001.xtrace");
    let pristine = fs::read(&tail).expect("read tail segment");
    let half = flat.len() / 2;

    for i in 0..pristine.len() {
        let mut bytes = pristine.clone();
        bytes[i] ^= 0xFF;
        fs::write(&tail, &bytes).expect("corrupt tail");
        let (store, report) =
            recover_store(&dir).unwrap_or_else(|e| panic!("flip at {i}: recovery errored: {e}"));
        assert_eq!(
            report.segments_recovered, 1,
            "flip at {i}: a corrupted segment joined the chain"
        );
        assert_eq!(store.len(), half, "flip at {i}");
        for q in &report.quarantined {
            fs::remove_file(q).expect("drop quarantined tail");
        }
        fs::write(&tail, &pristine).expect("restore tail");
    }
    fs::remove_dir_all(&dir).ok();
}

/// The acceptance bar: verdicts over a reopened spill are identical to
/// in-memory verdicts — across codecs, across a drop and reopen of the
/// ledger, and for the fast, tiered and online checkers alike.
#[test]
fn reopened_views_recheck_byte_identically_to_memory() {
    let (requests, events) = small_workload();
    let ops = ops_of(&requests);
    let flat = flat_store(&events);
    let fast = FastChecker;
    let tiered_checker = TieredChecker::default();
    let memory_fast = fast.check(&flat.view(), &ops, &[]);
    let memory_tiered = tiered_checker.check(&flat.view(), &ops, &[]);
    let memory_r3 = fast.check_requests(&flat.view(), &requests);
    // Uneven on purpose: the flushed final segment is a partial one.
    let threshold = 7;
    assert_ne!(events.len() % threshold, 0);

    for codec in [Codec::None, Codec::Lz] {
        let dir = tmpdir(&format!("recheck-{codec}"));
        let config = TierConfig {
            spill_threshold: threshold,
            codec,
            ..TierConfig::default()
        };
        let mut ledger = Ledger::new();
        ledger.attach_spill(&dir, config).expect("attach");
        ledger.declare_requests(&requests);
        for (k, chunk) in events.chunks(5).enumerate() {
            ledger.record_batch(chunk, SimTime::from_micros(k as u64), "svc");
        }
        assert_eq!(
            ledger.monitor_verdict().as_ref(),
            Some(&memory_r3),
            "codec {codec}: the live monitor"
        );
        assert_eq!(ledger.flush_spill().expect("flush"), events.len());
        // A restart: nothing of the writing ledger survives but its directory.
        drop(ledger);

        let (mut reopened, report) = Ledger::reopen_spill(&dir).expect("reopen");
        assert!(report.quarantined.is_empty());
        assert_eq!(report.events_recovered, events.len());
        assert_eq!(report.segments_recovered, events.len().div_ceil(threshold));
        let view = reopened.history();

        assert_eq!(
            fast.check(&view, &ops, &[]),
            memory_fast,
            "codec {codec}: FastChecker over the reopened history"
        );
        assert_eq!(
            tiered_checker.check(&view, &ops, &[]),
            memory_tiered,
            "codec {codec}: TieredChecker over the reopened history"
        );
        // The reopened ledger's monitor caught up with the recovered
        // events; re-declaring the run's requests gives the R3 verdict.
        reopened.declare_requests(&requests);
        assert_eq!(
            reopened.monitor_verdict().as_ref(),
            Some(&memory_r3),
            "codec {codec}: the reopened monitor"
        );
        fs::remove_dir_all(&dir).ok();
    }
}
