//! The verification workloads: a pre-generated mixed trace replayed into
//! the ledger as fast as it accepts it — online with periodic verdicts, or
//! durably with a reopen and a from-scratch recheck — and the probes that
//! drive `store` and `core` directly on the same events.

use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::Instant;

use xability_core::xable::{Checker, FastChecker, IncrementalState, Verdict};
use xability_core::Interner;
use xability_obs::Obs;
use xability_services::Ledger;
use xability_sim::SimTime;
use xability_store::{recover_store, Codec, SegmentLog, TierConfig, TraceStore};

use crate::gen::{Batch, MixedTrace, BATCH_EVENTS};
use crate::report::{Measurements, Outcome};
use crate::span::{end_span, self_time_by, start_span, Recorder};

/// A verdict is asked for after every this many batches, and at the end.
pub const VERDICT_EVERY: usize = 8;

const SERVICE: &str = "xbench";
const ITERATION: &str = "verify.iteration";
const DECLARE: &str = "services.declare_requests";
const RECORD: &str = "services.record_batch";
const VERDICT: &str = "services.monitor_verdict";

fn ns_per(elapsed_s: f64, count: usize) -> f64 {
    elapsed_s * 1e9 / count as f64
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_secs_f64())
}

// ---------------------------------------------------------------------------
// verify_online
// ---------------------------------------------------------------------------

/// One online replay: requests declared as they start, events recorded in
/// request-aligned batches, a verdict every [`VERDICT_EVERY`] batches.
pub struct OnlineRun {
    pub ledger: Ledger,
    pub wall_s: f64,
    /// Wall time of each verdict call.
    pub verdict_ms: Vec<f64>,
    /// `(requests declared, rejection)` at each checkpoint: `None` for an
    /// `Xable` verdict, else the verdict in words. The verdicts themselves
    /// are dropped as they come — each carries every request's output, and
    /// keeping them would make the benchmark's memory the measured peak.
    pub checkpoints: Vec<(usize, Option<String>)>,
    pub final_verdict: Option<Verdict>,
}

/// Replays `trace` into `ledger`. With a recorder, every ledger call gets a
/// span under one iteration span; the verdict calls are timed either way
/// because their latency is an end-to-end metric.
pub fn online_pass(
    trace: &MixedTrace,
    batches: &[Batch],
    mut ledger: Ledger,
    mut rec: Option<&mut Recorder>,
) -> OnlineRun {
    let mut verdict_ms = Vec::new();
    let mut checkpoints = Vec::new();
    let mut final_verdict = None;
    let mut recorded = 0;
    let start = Instant::now();
    let root = start_span(&mut rec, ITERATION, "bench");
    for (k, batch) in batches.iter().enumerate() {
        let span = start_span(&mut rec, DECLARE, "services");
        ledger.declare_requests(&trace.requests[..batch.requests]);
        end_span(&mut rec, span);

        let span = start_span(&mut rec, RECORD, "services");
        let at = SimTime::from_micros(k as u64);
        ledger.record_batch(&trace.events[recorded..batch.events], at, SERVICE);
        end_span(&mut rec, span);
        recorded = batch.events;

        if (k + 1) % VERDICT_EVERY == 0 || k + 1 == batches.len() {
            let span = start_span(&mut rec, VERDICT, "services");
            let (verdict, elapsed_s) = timed(|| ledger.monitor_verdict());
            end_span(&mut rec, span);
            if let Some(verdict) = verdict {
                verdict_ms.push(elapsed_s * 1e3);
                let rejection = (!verdict.is_xable()).then(|| verdict.to_string());
                checkpoints.push((batch.requests, rejection));
                final_verdict = Some(verdict);
            }
        }
    }
    end_span(&mut rec, root);
    OnlineRun {
        wall_s: start.elapsed().as_secs_f64(),
        ledger,
        verdict_ms,
        checkpoints,
        final_verdict,
    }
}

/// Counts the run's checkpoints as operations; one fails when its verdict
/// is not `Xable`.
pub fn account_online(run: &OnlineRun, outcome: &mut Outcome) {
    outcome.attempted += run.checkpoints.len() as u64;
    for (requests, rejection) in &run.checkpoints {
        if let Some(rejection) = rejection {
            outcome.failed += 1;
            outcome.violation(format!("checkpoint after {requests} requests: {rejection}"));
        }
    }
}

/// The end checks of `verify_online` (two operations): the final online
/// verdict equals the batch checker's on the same trace, variant and
/// reason; and a copy of the trace in which one undoable request commits
/// twice is rejected by the first checkpoint after the plant, for that
/// request, the batch checker answering identically.
///
/// "Rejected" is any verdict but `Xable`. The trace's retried and cancelled
/// shapes leave starts open for good, which makes completion attribution
/// ambiguous, and the fast tier downgrades every rejection after an
/// ambiguity from `NotXable` to `Unknown`.
pub fn end_checks(trace: &MixedTrace, run: &OnlineRun, outcome: &mut Outcome) {
    let fast = FastChecker::default();
    let online = run.final_verdict.as_ref();
    let batch = fast.check_requests_source(&run.ledger.history(), &trace.requests);
    outcome.check(online == Some(&batch), || {
        format!("final online verdict {online:?} differs from the batch checker's {batch}")
    });

    let n = trace.requests.len();
    let Some(victim) = trace.first_undo_committed(n / 16) else {
        outcome.check(false, || {
            "the trace has no committed undoable request to plant in".to_owned()
        });
        return;
    };
    // Far enough past the plant to include a periodic checkpoint.
    let through = (victim + VERDICT_EVERY * BATCH_EVENTS / 2).min(n - 1);
    let planted = trace.planted_prefix(victim, through);
    let replay = online_pass(&planted, &planted.batches(), Ledger::new(), None);
    let first_after = replay
        .checkpoints
        .iter()
        .find(|(requests, _)| *requests > victim);
    let batch = fast.check_requests_source(&replay.ledger.history(), &planted.requests);
    let key = format!("{}", planted.requests[victim].input());
    let caught = first_after
        .and_then(|(_, rejection)| rejection.as_ref())
        .is_some_and(|rejection| rejection.contains(&key));
    let agrees = replay.final_verdict.as_ref() == Some(&batch);
    outcome.check(caught && !batch.is_xable() && agrees, || {
        format!(
            "request {victim} ({key}) committed twice: first checkpoint after it {:?}, batch checker {batch}",
            first_after.map(|(_, rejection)| rejection)
        )
    });
}

/// The traced replay's own spans: where one iteration's time went.
pub fn online_layer_metrics(
    rec: &Recorder,
    run: &OnlineRun,
    events: usize,
    untraced_s: f64,
    m: &mut Measurements,
) {
    let by_name = self_time_by(rec.spans(), |s| s.name);
    let ns = |name: &str| by_name.get(name).copied().unwrap_or(0) as f64;
    m.push(
        "services.record_batch_ns_per_event",
        ns(RECORD) / events as f64,
    );
    m.push("services.verdict_share", ns(VERDICT) / 1e9 / run.wall_s);
    m.push(
        "bench.trace_overhead_pct",
        (run.wall_s / untraced_s - 1.0) * 100.0,
    );
    let covered_s = (ns(DECLARE) + ns(RECORD) + ns(VERDICT)) / 1e9;
    m.push(
        "bench.unattributed_pct",
        (untraced_s - covered_s) / untraced_s * 100.0,
    );
    m.set("bench.spans", rec.spans().len() as f64);
}

/// Alternative ledger postures on the same replay: per-event recording, no
/// monitor, a live metrics registry, and the two-worker pipelined monitor.
pub fn online_ledger_probes(
    trace: &MixedTrace,
    batches: &[Batch],
    plain_s: f64,
    nproc: usize,
    m: &mut Measurements,
) {
    let events = trace.events.len();

    let copy = trace.events.clone();
    let mut ledger = Ledger::new();
    ledger.declare_requests(&trace.requests);
    let ((), elapsed_s) = timed(|| {
        for event in copy {
            ledger.record_event(event, SimTime::ZERO, SERVICE);
        }
    });
    m.set(
        "services.record_event_ns_per_event",
        ns_per(elapsed_s, events),
    );
    drop(ledger);

    let mut ledger = Ledger::without_monitor();
    let ((), elapsed_s) = timed(|| {
        for chunk in trace.events.chunks(BATCH_EVENTS) {
            ledger.record_batch(chunk, SimTime::ZERO, SERVICE);
        }
    });
    m.set(
        "services.record_batch_nomonitor_ns_per_event",
        ns_per(elapsed_s, events),
    );
    drop(ledger);

    // Three passes against the median plain pass: one pass alone differs
    // from the next by more than the overhead being measured.
    let mut snapshot = None;
    for _ in 0..3 {
        let obs = Obs::new();
        let mut ledger = Ledger::new();
        ledger.attach_obs(&obs);
        let observed = online_pass(trace, batches, ledger, None);
        m.push(
            "obs.attach_overhead_pct",
            (observed.wall_s / plain_s - 1.0) * 100.0,
        );
        snapshot = Some(obs.snapshot());
    }
    let snapshot = snapshot.expect("three passes ran");
    if let Some(dirty) = snapshot.histogram("checker.dirty_ops") {
        m.set(
            "core.dirty_ops_per_verdict",
            dirty.sum as f64 / dirty.count.max(1) as f64,
        );
    }
    let escalations = snapshot.counter_total("checker.erase_budget_escalations")
        + snapshot.counter_total("checker.op_budget_escalations");
    m.set("core.budget_escalations", escalations as f64);

    // A speed-up over one thread means nothing on one core. Both sides
    // replay the first quarter of the trace, which keeps a monitor several
    // times slower than the sequential one affordable.
    if nproc >= 2 {
        let quarter = &batches[..batches.len().div_ceil(4)];
        let sequential = online_pass(trace, quarter, Ledger::new(), None);
        let mut ledger = Ledger::without_monitor();
        ledger
            .attach_pipelined_monitor(2)
            .expect("a ledger built without a monitor accepts one");
        let pipelined = online_pass(trace, quarter, ledger, None);
        m.set(
            "services.pipelined_speedup_2w",
            sequential.wall_s / pipelined.wall_s,
        );
    }
}

/// `store` and `core` driven directly on the trace's events, outside the
/// ledger: what each costs per event on its own.
pub fn store_core_probes(trace: &MixedTrace, batches: &[Batch], m: &mut Measurements) {
    let events = trace.events.len();

    let push = || {
        let mut store = TraceStore::new();
        let ((), s) = timed(|| {
            for event in &trace.events {
                store.push(event);
            }
        });
        (s, store.approx_bytes())
    };
    let push_batch = || {
        let mut store = TraceStore::new();
        let ((), s) = timed(|| {
            for chunk in trace.events.chunks(BATCH_EVENTS) {
                store.push_batch(chunk);
            }
        });
        s
    };
    // Alternating order, so neither path always runs on the warmer heap.
    let (p1, bytes) = push();
    let b1 = push_batch();
    let b2 = push_batch();
    let (p2, _) = push();
    m.set("store.push_ns_per_event", ns_per((p1 + p2) / 2.0, events));
    m.set(
        "store.push_batch_ns_per_event",
        ns_per((b1 + b2) / 2.0, events),
    );
    m.set("store.mem_bytes_per_event", bytes as f64 / events as f64);

    let mut interner = Interner::new();
    let ((), s) = timed(|| {
        for event in &trace.events {
            black_box(interner.intern_value(event.value()));
        }
    });
    m.set("core.intern_ns_per_value", ns_per(s, events));
    drop(interner);

    let mut state = IncrementalState::new();
    for request in &trace.requests {
        state.declare_request(request);
    }
    let ((), s) = timed(|| {
        for event in &trace.events {
            state.observe(event);
        }
    });
    m.set("core.observe_ns_per_event", ns_per(s, events));
    drop(state);

    // The ledger's replay without the ledger: batched observation with
    // verdicts at the same cadence, over a store that only holds the events.
    let mut state = IncrementalState::new();
    let mut store = TraceStore::new();
    let (mut observe_s, mut verdict_s, mut recorded, mut declared) = (0.0, 0.0, 0, 0);
    for (k, batch) in batches.iter().enumerate() {
        for request in &trace.requests[declared..batch.requests] {
            state.declare_request(request);
        }
        declared = batch.requests;
        let slice = &trace.events[recorded..batch.events];
        recorded = batch.events;
        observe_s += timed(|| state.observe_batch(slice)).1;
        store.push_batch(slice);
        if (k + 1) % VERDICT_EVERY == 0 || k + 1 == batches.len() {
            let (verdict, s) = timed(|| state.verdict_over(&store.view()));
            drop(black_box(verdict));
            verdict_s += s;
        }
    }
    m.set("core.observe_batch_ns_per_event", ns_per(observe_s, events));
    m.set("core.verdict_ns_per_event", ns_per(verdict_s, events));
}

// ---------------------------------------------------------------------------
// verify_durable
// ---------------------------------------------------------------------------

/// A bulk ingest: the ledger it filled, its final verdict, its wall time
/// and the wall time of each `record_batch` call.
pub struct Ingest {
    pub ledger: Ledger,
    pub verdict: Option<Verdict>,
    pub wall_s: f64,
    pub batch_ms: Vec<f64>,
}

/// Bulk ingest: every request declared up front, events recorded in
/// batches, one verdict at the end — durably when `spill` names a directory
/// (then the timed region includes the final flush).
pub fn bulk_ingest(
    trace: &MixedTrace,
    batches: &[Batch],
    spill: Option<(&Path, TierConfig)>,
) -> io::Result<Ingest> {
    let start = Instant::now();
    let mut ledger = Ledger::new();
    if let Some((dir, config)) = spill {
        ledger.attach_spill(dir, config)?;
    }
    ledger.declare_requests(&trace.requests);
    let mut batch_ms = Vec::with_capacity(batches.len());
    let mut recorded = 0;
    for (k, batch) in batches.iter().enumerate() {
        let at = SimTime::from_micros(k as u64);
        let slice = &trace.events[recorded..batch.events];
        batch_ms.push(timed(|| ledger.record_batch(slice, at, SERVICE)).1 * 1e3);
        recorded = batch.events;
    }
    if spill.is_some() {
        ledger.flush_spill()?;
    }
    let verdict = ledger.monitor_verdict();
    Ok(Ingest {
        wall_s: start.elapsed().as_secs_f64(),
        ledger,
        verdict,
        batch_ms,
    })
}

/// One durable iteration's three phases.
#[derive(Debug, Clone)]
pub struct DurableRun {
    pub write_s: f64,
    pub reopen_s: f64,
    pub recheck_s: f64,
    /// Wall time of each `record_batch` of the write phase: most append to
    /// memory, one in 64 also seals, compresses and fsyncs a segment.
    pub batch_ms: Vec<f64>,
    pub disk_bytes: u64,
    pub mem_bytes: usize,
}

impl DurableRun {
    pub fn total_s(&self) -> f64 {
        self.write_s + self.reopen_s + self.recheck_s
    }
}

pub fn spill_config(spill_threshold: usize) -> TierConfig {
    TierConfig {
        spill_threshold,
        codec: Codec::Lz,
        evict_on_seal: true,
    }
}

/// Write (compressed, fsynced segments), reopen the directory in a fresh
/// ledger up to its first verdict, recheck the reopened history from
/// scratch. Each phase is one operation; it fails when it loses events or
/// answers differently from the in-memory verdict. `dir` must not exist;
/// it is removed afterwards.
pub fn durable_pass(
    trace: &MixedTrace,
    batches: &[Batch],
    dir: &Path,
    config: TierConfig,
    mut rec: Option<&mut Recorder>,
    outcome: &mut Outcome,
) -> io::Result<DurableRun> {
    let events = trace.events.len();

    let root = start_span(&mut rec, ITERATION, "bench");
    let span = start_span(&mut rec, "services.durable_write", "services");
    let Ingest {
        ledger,
        verdict: written,
        wall_s: write_s,
        batch_ms,
    } = bulk_ingest(trace, batches, Some((dir, config)))?;
    end_span(&mut rec, span);
    let segments = ledger.spill_segments().unwrap_or_default();
    let disk_bytes: u64 = segments.iter().map(|s| s.bytes).sum();
    let sealed: usize = segments.iter().map(|s| s.events).sum();
    let mem_bytes = ledger.store().approx_bytes();
    outcome.check(
        sealed == events && written.as_ref().is_some_and(Verdict::is_xable),
        || format!("write: sealed {sealed} of {events} events, verdict {written:?}"),
    );
    // A restart: nothing of the writing ledger survives but its directory.
    drop(ledger);

    let span = start_span(&mut rec, "services.reopen_spill", "services");
    let (reopened, reopen_s) = timed(|| -> io::Result<_> {
        let (mut reopened, recovery) = Ledger::reopen_spill(dir)?;
        reopened.declare_requests(&trace.requests);
        let verdict = reopened.monitor_verdict();
        Ok((reopened, recovery, verdict))
    });
    end_span(&mut rec, span);
    let (reopened, recovery, verdict) = reopened?;
    outcome.check(
        recovery.events_recovered == events && verdict == written,
        || {
            format!(
                "reopen: recovered {} of {events} events, verdict {verdict:?} vs {written:?}",
                recovery.events_recovered
            )
        },
    );

    let span = start_span(&mut rec, "core.fast_check", "core");
    let (rechecked, recheck_s) = timed(|| {
        FastChecker::default().check_requests_source(&reopened.history(), &trace.requests)
    });
    end_span(&mut rec, span);
    end_span(&mut rec, root);
    outcome.check(Some(&rechecked) == written.as_ref(), || {
        format!("recheck: {rechecked} vs {written:?}")
    });
    drop(reopened);
    std::fs::remove_dir_all(dir)?;
    Ok(DurableRun {
        write_s,
        reopen_s,
        recheck_s,
        batch_ms,
        disk_bytes,
        mem_bytes,
    })
}

/// The durable path's parts on their own: the ingest without its spill,
/// sealing under each codec, recovery, a scan of the recovered view, the batch checker alone and its
/// two-worker variant. `dir` must not exist; it is removed afterwards.
pub fn durable_probes(
    trace: &MixedTrace,
    batches: &[Batch],
    dir: &Path,
    chunk: usize,
    durable_write_s: f64,
    nproc: usize,
    m: &mut Measurements,
) -> io::Result<()> {
    let events = trace.events.len();
    // What durability adds to the same ingest kept in memory only.
    for _ in 0..3 {
        let plain = bulk_ingest(trace, batches, None)?;
        m.push(
            "services.spill_overhead_ns_per_event",
            ns_per(durable_write_s - plain.wall_s, events),
        );
    }
    let mut store = TraceStore::new();
    for slice in trace.events.chunks(BATCH_EVENTS) {
        store.push_batch(slice);
    }
    let snapshot = store.snapshot();
    let mut disk = [0u64; 2];
    for (i, (codec, metric)) in [
        (Codec::None, "store.seal_none_ns_per_event"),
        (Codec::Lz, "store.seal_lz_ns_per_event"),
    ]
    .into_iter()
    .enumerate()
    {
        let mut log = SegmentLog::create(dir.join(codec.name()), codec)?;
        let (sealed, s) = timed(|| -> io::Result<()> {
            for start in (0..events).step_by(chunk) {
                let end = (start + chunk).min(events);
                let mut reprs = (start..end).map(|i| snapshot.repr(i));
                log.seal(snapshot.interner(), end - start, &mut reprs)?;
            }
            Ok(())
        });
        sealed?;
        m.set(metric, ns_per(s, events));
        disk[i] = log.disk_bytes();
    }
    m.set("store.lz_ratio", disk[0] as f64 / disk[1] as f64);

    let (recovered, s) = timed(|| recover_store(dir.join(Codec::Lz.name())));
    let (recovered, _) = recovered?;
    m.set("store.recover_ns_per_event", ns_per(s, events));
    let (scanned, s) = timed(|| {
        recovered
            .view()
            .iter()
            .map(|e| black_box(e).is_start() as usize)
            .sum::<usize>()
    });
    black_box(scanned);
    m.set("store.view_scan_ns_per_event", ns_per(s, events));
    drop(recovered);
    std::fs::remove_dir_all(dir)?;

    let fast = FastChecker::default();
    let view = store.view();
    let (sequential, sequential_s) = timed(|| fast.check_requests_source(&view, &trace.requests));
    m.set("core.fast_check_ns_per_event", ns_per(sequential_s, events));
    if nproc >= 2 {
        let (sharded, sharded_s) = timed(|| fast.check_requests_sharded(&view, &trace.requests, 2));
        assert_eq!(
            sharded, sequential,
            "sharded and sequential verdicts differ"
        );
        m.set("core.check_sharded_speedup_2w", sequential_s / sharded_s);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sys::work_dir;

    #[test]
    fn online_replay_is_xable_at_every_checkpoint_and_catches_the_plant() {
        let trace = MixedTrace::generate(3, 9_000);
        let batches = trace.batches();
        let mut rec = Recorder::default();
        let run = online_pass(&trace, &batches, Ledger::new(), Some(&mut rec));
        assert_eq!(run.checkpoints.len(), batches.len().div_ceil(VERDICT_EVERY));
        assert_eq!(run.ledger.event_count(), trace.events.len());
        // One iteration span, and one declare + record span per batch plus
        // one verdict span per checkpoint under it.
        assert_eq!(
            rec.spans().len(),
            1 + 2 * batches.len() + run.checkpoints.len()
        );
        assert!(rec.spans()[1..].iter().all(|s| s.parent == Some(0)));

        let mut outcome = Outcome::default();
        account_online(&run, &mut outcome);
        end_checks(&trace, &run, &mut outcome);
        assert_eq!(outcome.attempted, run.checkpoints.len() as u64 + 2);
        assert!(outcome.correct(), "{:?}", outcome.violations);

        let mut m = Measurements::default();
        online_layer_metrics(&rec, &run, trace.events.len(), run.wall_s, &mut m);
        let share = m.summary("services.verdict_share").unwrap().median;
        assert!(share > 0.0 && share < 1.0);
    }

    #[test]
    fn a_broken_trace_fails_its_checkpoints() {
        let trace = MixedTrace::generate(4, 6_000);
        let victim = trace.first_undo_committed(10).unwrap();
        let planted = trace.planted_prefix(victim, trace.requests.len() - 1);
        let run = online_pass(&planted, &planted.batches(), Ledger::new(), None);
        let mut outcome = Outcome::default();
        account_online(&run, &mut outcome);
        assert_eq!(outcome.failed, run.checkpoints.len() as u64);
        assert!(!outcome.correct());
    }

    #[test]
    fn durable_pass_round_trips_and_cleans_up() {
        let trace = MixedTrace::generate(9, 2_000);
        let batches = trace.batches();
        let dir = work_dir().unwrap().join("durable-test");
        let mut outcome = Outcome::default();
        let run = durable_pass(
            &trace,
            &batches,
            &dir,
            spill_config(1_024),
            None,
            &mut outcome,
        )
        .unwrap();
        assert_eq!(outcome.attempted, 3);
        assert!(outcome.correct(), "{:?}", outcome.violations);
        assert!(run.disk_bytes > 0 && run.mem_bytes > 0);
        assert!(!dir.exists());

        let mut m = Measurements::default();
        durable_probes(&trace, &batches, &dir, 1_024, run.write_s, 2, &mut m).unwrap();
        assert!(m.summary("store.lz_ratio").unwrap().median > 1.0);
        assert!(m.summary("core.check_sharded_speedup_2w").is_some());
        assert!(!dir.exists());
    }
}
