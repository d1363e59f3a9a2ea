//! Two feeds, one answer. A cold fast check over a store view reads the
//! symbols the store already assigned ([`HistoryRead::feed_symbols`]); over
//! an owned `History` it interns every event into a cold
//! `IncrementalState`. Both feed the same decider, so for the same
//! question they must answer alike — by `==` and by `to_string()` — on
//! the corpus traces, on a reopened spill chain, and on sub-views that
//! start past the store's first event, where the store's interner knows
//! keys that no event of the view carries.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

use xability::core::xable::{Cause, Checker, Decider, FastChecker, Verdict};
use xability::core::{ActionId, ActionName, Event, HistoryRead, Request, Value};
use xability::services::Ledger;
use xability::sim::SimTime;
use xability::store::{Codec, HistoryView, RecordedTrace, TierConfig, TraceStore};
use xability_bench::n_mixed_requests;

/// Asks `requests`' questions of `view` through both feeds — R3 over the
/// whole list, and three explicit `(ops, erasable)` splits of it — and
/// returns how many verdict pairs agreed.
fn assert_feeds_agree(view: HistoryView<'_>, requests: &[Request], what: &str) -> usize {
    let owned = view.to_history();
    assert!(view.feed_symbols(&mut Decider::new()).is_some());
    assert!(owned.feed_symbols(&mut Decider::new()).is_none());
    let mut agreed = 0;
    let mut agree = |question: String, symbols: Verdict, interned: Verdict| {
        assert_eq!(symbols, interned, "{what}: {question}");
        assert_eq!(
            symbols.to_string(),
            interned.to_string(),
            "{what}: {question}"
        );
        agreed += 1;
    };
    agree(
        "check_requests".to_owned(),
        FastChecker.check_requests(&view, requests),
        FastChecker.check_requests(&owned, requests),
    );
    let ops: Vec<(ActionId, Value)> = (requests.iter())
        .map(|r| (r.action().clone(), r.input().clone()))
        .collect();
    let n = ops.len();
    for (executed, erasing) in [
        (n, 0),
        (n.saturating_sub(1), n.min(1)),
        (n / 2, (n - n / 2).min(2)),
    ] {
        let (run, erase) = (&ops[..executed], &ops[executed..executed + erasing]);
        agree(
            format!("check({executed} ops, {erasing} erasable)"),
            FastChecker.check(&view, run, erase),
            FastChecker.check(&owned, run, erase),
        );
    }
    agreed
}

/// [`assert_feeds_agree`] on `view` and on sub-views of it starting at
/// `1`, a third, a half and two thirds of the way in, each asked about
/// every request and about the requests whose base start it holds.
fn assert_feeds_agree_on_slices(view: HistoryView<'_>, requests: &[Request], what: &str) -> usize {
    let mut agreed = assert_feeds_agree(view, requests, what);
    let len = view.len();
    for start in [1, len / 3, len / 2, 2 * len / 3] {
        for end in [len, len - len / 7, (start + len) / 2] {
            if start == 0 || start > end || end > len {
                continue;
            }
            let slice = view.slice(start, end);
            let what = format!("{what}[{start}..{end}]");
            agreed += assert_feeds_agree(slice, requests, &what);
            let held: BTreeSet<(ActionId, Value)> = (slice.iter())
                .filter(Event::is_start)
                .map(|e| (e.action().clone(), e.value().clone()))
                .collect();
            let started: Vec<Request> = (requests.iter())
                .filter(|r| held.contains(&(r.action().clone(), r.input().clone())))
                .cloned()
                .collect();
            agreed += assert_feeds_agree(slice, &started, &format!("{what} started"));
        }
    }
    agreed
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xability-feeds-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Spills `events` into a segment chain of `threshold`-event segments,
/// then reopens the chain in a fresh ledger.
fn reopened(tag: &str, events: &[Event], threshold: usize, codec: Codec) -> (PathBuf, Ledger) {
    let dir = tmpdir(tag);
    let mut ledger = Ledger::without_monitor();
    let config = TierConfig {
        spill_threshold: threshold,
        codec,
        evict_on_seal: true,
    };
    ledger.attach_spill(&dir, config).expect("attach spill");
    for batch in events.chunks(37) {
        ledger.record_batch(batch, SimTime::ZERO, "svc");
    }
    ledger.flush_spill().expect("flush");
    let segments = ledger.spill_segments().map_or(0, <[_]>::len);
    assert!(segments > 1, "{tag}: a chain of several segments");
    drop(ledger);
    let (reopened, report) = Ledger::reopen_spill(&dir).expect("reopen");
    assert_eq!(report.events_recovered, events.len());
    (dir, reopened)
}

/// `n` mixed requests, with every `drop_every`-th event left out (none for
/// 0), so that some verdicts fail.
fn mixed(n: usize, drop_every: usize) -> (Vec<Request>, Vec<Event>) {
    let (history, ops) = n_mixed_requests(n);
    let requests = ops.into_iter().map(|(a, iv)| Request::new(a, iv)).collect();
    let events = (history.events().iter().enumerate())
        .filter(|(i, _)| drop_every == 0 || i % drop_every != drop_every - 1)
        .map(|(_, e)| e.clone())
        .collect();
    (requests, events)
}

#[test]
fn corpus_traces_answer_alike_through_both_feeds() {
    let mut files: Vec<PathBuf> = (fs::read_dir("tests/corpus").expect("corpus").flatten())
        .map(|entry| entry.path())
        .filter(|path| path.extension().is_some_and(|e| e == "xtrace"))
        .collect();
    files.sort();
    assert!(files.len() >= 3, "the corpus holds its traces");
    for path in files {
        let trace = RecordedTrace::read_from_file(&path).expect("corpus entry parses");
        let what = path.display().to_string();
        assert!(assert_feeds_agree_on_slices(trace.store.view(), &trace.requests, &what) > 4);
    }
}

#[test]
fn a_reopened_spill_chain_answers_alike_through_both_feeds() {
    for codec in [Codec::None, Codec::Lz] {
        for drop_every in [0, 29] {
            let (requests, events) = mixed(120, drop_every);
            let tag = format!("{codec}-{drop_every}");
            let (dir, ledger) = reopened(&tag, &events, 64, codec);
            assert_feeds_agree_on_slices(ledger.history(), &requests, &tag);
            fs::remove_dir_all(dir).expect("remove chain");
        }
    }
}

/// The store's interner knows `put/1` and the bare base and stamp of
/// `xfer/9`'s round — the events before the slice carried them — but no
/// event in the slice does: a request for either key is answered as the
/// interning path, which never saw them, answers it.
#[test]
fn a_key_only_an_event_outside_the_slice_interned_is_answered_as_the_interning_path_answers() {
    let put = ActionId::base(ActionName::idempotent("put"));
    let xfer = ActionId::base(ActionName::undoable("xfer"));
    let stamp = Value::round_stamped(Value::from(9), 0);
    let commit = xfer.commit().expect("undoable");
    let events = [
        Event::start(put.clone(), Value::from(1)),
        Event::complete(put.clone(), Value::from(10)),
        Event::start(xfer.clone(), Value::from(9)),
        Event::start(xfer.clone(), stamp.clone()),
        Event::complete(xfer.clone(), Value::from(90)),
        Event::start(commit.clone(), stamp.clone()),
        Event::complete(commit, Value::Nil),
        Event::start(put.clone(), Value::from(2)),
        Event::complete(put.clone(), Value::from(20)),
    ];
    let mut store = TraceStore::new();
    store.push_batch(&events);
    let slice = store.view().slice(7, 9);
    for known in [Value::from(1), Value::from(9), stamp] {
        assert!(store.interner().lookup_value(&known).is_some());
        assert!(!slice.to_history().iter().any(|e| e.value() == &known));
    }
    let (one, two) = (
        Request::new(put.clone(), 1.into()),
        Request::new(put, 2.into()),
    );
    let nine = Request::new(xfer, 9.into());
    for requests in [
        vec![one.clone()],
        vec![two.clone(), one.clone()],
        vec![one.clone(), two.clone()],
        vec![two.clone(), nine.clone()],
        vec![nine.clone(), two.clone()],
    ] {
        assert_feeds_agree(slice, &requests, &format!("{requests:?}"));
    }
    for missing in [one, nine] {
        let ops = [(missing.action().clone(), missing.input().clone())];
        let verdict = FastChecker.check(&slice, &ops, &[]);
        assert_eq!(verdict.cause(), Some(&Cause::NeverExecuted(missing)));
    }
}

/// The same comparison on a larger reopened chain — 40 000 requests,
/// clean and with every 997th event dropped. Seconds in release (CI runs
/// it), minutes in debug.
#[test]
#[ignore = "a larger trace: run in release (CI does)"]
fn a_larger_reopened_chain_answers_alike_through_both_feeds() {
    for drop_every in [0, 997] {
        let (requests, events) = mixed(40_000, drop_every);
        let tag = format!("large-{drop_every}");
        let (dir, ledger) = reopened(&tag, &events, 16_384, Codec::Lz);
        let agreed = assert_feeds_agree_on_slices(ledger.history(), &requests, &tag);
        assert_eq!(agreed, 4 * (1 + 4 * 3 * 2));
        fs::remove_dir_all(dir).expect("remove chain");
    }
}
