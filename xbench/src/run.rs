//! One run of one workload: set-up, a discarded warm-up iteration, then
//! timed iterations of identical work for the requested number of seconds.
//! Untraced runs produce the end-to-end metrics; traced runs pair each
//! untraced iteration with a traced one and add the per-layer probes.

use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::gen::{
    derive, fault_session, steady_session, Batch, DrawSession, MixedTrace, Session, Sizes,
};
use crate::proto::{self, Fingerprint, SharedRecorder};
use crate::report::{Measurements, Outcome, Workload};
use crate::span::Recorder;
use crate::stats::{median, percentile};
use crate::sys::{nproc, proc_status_mb, work_dir, work_root};
use crate::verify;
use xability_services::Ledger;

#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    /// Where the traced run writes its spans (JSON lines); default: the
    /// scratch directory.
    pub trace_out: Option<PathBuf>,
}

pub fn run(workload: Workload, opts: &RunOpts) -> io::Result<Outcome> {
    match workload {
        Workload::ProtoSteady | Workload::ProtoFaults => proto_run(workload, opts),
        Workload::VerifyOnline => online_run(opts),
        Workload::VerifyDurable => durable_run(opts),
    }
}

/// Builds the inputs several times — at least 7, for at least 0.3 s — and
/// keeps the last product, so `setup_s` is a median and not one draw.
fn measure_setup<T>(m: &mut Measurements, mut build: impl FnMut() -> T) -> T {
    let begin = Instant::now();
    let mut repetitions = 0;
    loop {
        let start = Instant::now();
        let product = build();
        m.push("setup_s", start.elapsed().as_secs_f64());
        repetitions += 1;
        if repetitions >= 7 && (begin.elapsed().as_secs_f64() >= 0.3 || repetitions >= 200) {
            return product;
        }
        // Dropped before the next build: one copy of the inputs at a time.
        drop(product);
    }
}

/// Memory the workload itself needed: the process's high-water mark minus
/// what it held once its inputs were built.
struct RssBaseline(f64);

impl RssBaseline {
    fn after_setup() -> RssBaseline {
        RssBaseline(proc_status_mb("VmRSS").expect("/proc/self/status has VmRSS"))
    }

    fn record_peak(&self, m: &mut Measurements) {
        let peak = proc_status_mb("VmHWM").expect("/proc/self/status has VmHWM");
        m.set("peak_rss_mb", peak - self.0);
    }
}

/// Runs `iteration` until `seconds` have passed, at least once.
fn timed_iterations(
    seconds: f64,
    mut iteration: impl FnMut() -> io::Result<()>,
) -> io::Result<usize> {
    let begin = Instant::now();
    let mut count = 0;
    while count == 0 || begin.elapsed().as_secs_f64() < seconds {
        iteration()?;
        count += 1;
    }
    Ok(count)
}

fn write_spans(rec: &Recorder, workload: Workload, opts: &RunOpts) -> io::Result<()> {
    let path = match &opts.trace_out {
        Some(path) => path.clone(),
        None => work_root()?.join(format!("spans-{}.jsonl", workload.name())),
    };
    let mut out = BufWriter::new(std::fs::File::create(&path)?);
    rec.write_jsonl(&mut out)?;
    out.flush()?;
    eprintln!(
        "xbench: {} spans written to {}",
        rec.spans().len(),
        path.display()
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// proto_steady, proto_faults
// ---------------------------------------------------------------------------

/// How often the warm-up redraws one slot before it gives up.
const MAX_REDRAWS: u64 = 3;

fn proto_run(workload: Workload, opts: &RunOpts) -> io::Result<Outcome> {
    let (slots, draw): (usize, DrawSession) = match workload {
        Workload::ProtoSteady => (1, steady_session),
        _ => (opts.sizes.fault_sessions, fault_session),
    };
    let mut outcome = Outcome::default();
    let mut m = Measurements::default();
    let mut sessions: Vec<Session> = measure_setup(&mut m, || {
        (0..slots)
            .map(|slot| draw(opts.seed, &opts.sizes, slot, 0))
            .collect()
    });
    let baseline = RssBaseline::after_setup();

    // The discarded warm-up iteration also settles the inputs: no operation
    // of a benchmark workload may fail, and about one fault session in two
    // thousand ends with R3 undecided — the checker's limit, not the
    // protocol's. Such a slot is redrawn (same schedule, next seed) before
    // anything is timed, so every timed session satisfies `is_correct()`.
    // A definite violation is never redrawn: it fails the run.
    let warm: Vec<_> = (0..slots)
        .map(|slot| {
            let mut run = proto::run_session(&sessions[slot]);
            for attempt in 1..=MAX_REDRAWS {
                if !proto::undecided(&run.0) {
                    break;
                }
                eprintln!("xbench: session {slot}: R3 undecided, redrawing its seed ({attempt})");
                sessions[slot] = draw(opts.seed, &opts.sizes, slot, attempt);
                run = proto::run_session(&sessions[slot]);
            }
            run
        })
        .collect();
    let warm_s = proto::account(&sessions, &warm, &mut outcome).wall_s;
    drop(warm);

    let mut last_rec = None;
    let iterations = timed_iterations(opts.seconds, || {
        let runs = proto::run_untraced(&sessions);
        let totals = proto::account(&sessions, &runs, &mut outcome);
        // The typical session, not the pooled total: a few fault sessions
        // cost ten to twenty times the rest, by an amount that swings with
        // the seed, and a pooled rate is mostly those.
        m.push("requests_per_s", median(&totals.session_requests_per_s));
        m.push("events_per_s", median(&totals.session_events_per_s));
        if totals.completed > 0 {
            proto::deterministic_metrics(&sessions, &runs, &mut m);
        }
        if !opts.trace {
            return Ok(());
        }

        m.push("bench.warmup_ratio", warm_s / totals.wall_s);
        m.push("harness.session_ms_p50", median(&totals.session_ms));
        m.push(
            "harness.session_ms_max",
            percentile(&totals.session_ms, 100.0),
        );
        let rec = SharedRecorder::default();
        let mirrored: Vec<_> = sessions.iter().map(|s| proto::mirror(s, &rec)).collect();
        for (s, (run, (report, _))) in mirrored.iter().zip(&runs).enumerate() {
            // The per-layer numbers describe `Scenario::run` only if the
            // hand-built world is the same program.
            if run.fingerprint != Fingerprint::of(report) {
                outcome.violation(format!(
                    "session {s}: the traced mirror diverged from Scenario::run"
                ));
            }
            outcome.attempted += sessions[s].plan.len() as u64;
            if !run.correct {
                outcome.failed += sessions[s].plan.len() as u64;
                outcome.violation(format!("session {s}: the mirrored run is incorrect"));
            }
        }
        if totals.completed > 0 {
            let untraced_us = totals.wall_s * 1e6 / totals.completed as f64;
            proto::layer_metrics(&rec.borrow(), &mirrored, untraced_us, &mut m);
        }
        last_rec = Some(rec);
        Ok(())
    })?;
    baseline.record_peak(&mut m);
    m.set("bench.timed_iterations", iterations as f64);

    if let Some(rec) = last_rec {
        proto::consensus_probe(opts.sizes.consensus_instances, &mut m, &mut outcome);
        write_spans(&rec.borrow(), workload, opts)?;
    }
    outcome.metrics = m;
    Ok(outcome)
}

// ---------------------------------------------------------------------------
// verify_online
// ---------------------------------------------------------------------------

fn generate_trace(opts: &RunOpts, tag: &str, requests: usize) -> (MixedTrace, Vec<Batch>) {
    let trace = MixedTrace::generate(derive(opts.seed, tag, 0), requests);
    let batches = trace.batches();
    (trace, batches)
}

fn online_run(opts: &RunOpts) -> io::Result<Outcome> {
    let mut outcome = Outcome::default();
    let mut m = Measurements::default();
    let (trace, batches) = measure_setup(&mut m, || {
        generate_trace(opts, "verify_online", opts.sizes.online_requests)
    });
    let baseline = RssBaseline::after_setup();
    let (requests, events) = (trace.requests.len() as f64, trace.events.len());

    let warm = verify::online_pass(&trace, &batches, Ledger::new(), None);
    verify::account_online(&warm, &mut outcome);
    let warm_s = warm.wall_s;
    drop(warm);

    let (mut verdict_ms, mut walls_s) = (Vec::new(), Vec::new());
    let mut last = None;
    let mut last_rec = None;
    let iterations = timed_iterations(opts.seconds, || {
        // The previous iteration's ledger goes first: one ledger at a time.
        last = None;
        let run = verify::online_pass(&trace, &batches, Ledger::new(), None);
        verify::account_online(&run, &mut outcome);
        m.push("requests_per_s", requests / run.wall_s);
        m.push("events_per_s", events as f64 / run.wall_s);
        verdict_ms.extend_from_slice(&run.verdict_ms);
        walls_s.push(run.wall_s);
        last = Some(if opts.trace {
            // The untraced ledger goes before the traced replay starts, so
            // both replays build theirs in memory the previous one freed.
            let untraced_s = run.wall_s;
            drop(run);
            m.push("bench.warmup_ratio", warm_s / untraced_s);
            let mut rec = Recorder::default();
            let traced = verify::online_pass(&trace, &batches, Ledger::new(), Some(&mut rec));
            verify::account_online(&traced, &mut outcome);
            verify::online_layer_metrics(&rec, &traced, events, untraced_s, &mut m);
            last_rec = Some(rec);
            traced
        } else {
            run
        });
        Ok(())
    })?;
    baseline.record_peak(&mut m);
    let last = last.expect("at least one timed iteration ran");
    m.set("bench.timed_iterations", iterations as f64);

    let (p50, p95) = (percentile(&verdict_ms, 50.0), percentile(&verdict_ms, 95.0));
    m.set("latency_ms_p50", p50);
    m.set("latency_ms_tail", p95);
    m.set("verdict_ms_p50", p50);
    m.set("verdict_ms_p95", p95);
    m.set(
        "stored_bytes_per_event",
        last.ledger.store().approx_bytes() as f64 / events as f64,
    );
    verify::end_checks(&trace, &last, &mut outcome);
    drop(last);

    if let Some(rec) = last_rec {
        verify::online_ledger_probes(&trace, &batches, median(&walls_s), nproc(), &mut m);
        verify::store_core_probes(&trace, &batches, &mut m);
        write_spans(&rec, Workload::VerifyOnline, opts)?;
    }
    outcome.metrics = m;
    Ok(outcome)
}

// ---------------------------------------------------------------------------
// verify_durable
// ---------------------------------------------------------------------------

fn durable_run(opts: &RunOpts) -> io::Result<Outcome> {
    let mut outcome = Outcome::default();
    let mut m = Measurements::default();
    let mut scratch: io::Result<PathBuf> = Err(io::ErrorKind::NotFound.into());
    let (trace, batches) = measure_setup(&mut m, || {
        scratch = work_dir();
        generate_trace(opts, "verify_durable", opts.sizes.durable_requests)
    });
    let scratch = scratch?;
    let baseline = RssBaseline::after_setup();
    let (requests, events) = (trace.requests.len() as f64, trace.events.len());
    let config = verify::spill_config(opts.sizes.spill_threshold);
    let segments: &Path = &scratch.join("segments");

    let warm = verify::durable_pass(&trace, &batches, segments, config, None, &mut outcome)?;
    let warm_s = warm.total_s();

    let (mut batch_ms, mut writes_s) = (Vec::new(), Vec::new());
    let mut last = warm;
    let mut last_rec = None;
    let iterations = timed_iterations(opts.seconds, || {
        let run = verify::durable_pass(&trace, &batches, segments, config, None, &mut outcome)?;
        m.push("requests_per_s", requests / run.total_s());
        m.push("events_per_s", events as f64 / run.write_s);
        m.push("durable_events_per_s", events as f64 / run.write_s);
        m.push("reopen_verdict_s", run.reopen_s);
        m.push("recheck_events_per_s", events as f64 / run.recheck_s);
        batch_ms.extend_from_slice(&run.batch_ms);
        writes_s.push(run.write_s);
        if opts.trace {
            m.push("bench.warmup_ratio", warm_s / run.total_s());
            let mut rec = Recorder::default();
            let traced = verify::durable_pass(
                &trace,
                &batches,
                segments,
                config,
                Some(&mut rec),
                &mut outcome,
            )?;
            // The three phases are the whole iteration, so what the traced
            // phases leave uncovered of the untraced one is drift between
            // the two iterations.
            let drift = (traced.total_s() / run.total_s() - 1.0) * 100.0;
            m.push("bench.trace_overhead_pct", drift);
            m.push("bench.unattributed_pct", -drift);
            m.set("bench.spans", rec.spans().len() as f64);
            last_rec = Some(rec);
        }
        last = run;
        Ok(())
    })?;
    baseline.record_peak(&mut m);
    m.set("bench.timed_iterations", iterations as f64);
    // What the writer waits for: one `record_batch`. The median is an
    // append to memory; the 99th percentile is among the one in 64 that
    // also seal, compress and fsync a segment.
    m.set("latency_ms_p50", percentile(&batch_ms, 50.0));
    m.set("latency_ms_tail", percentile(&batch_ms, 99.0));
    m.set(
        "stored_bytes_per_event",
        last.disk_bytes as f64 / events as f64,
    );
    m.set(
        "disk_bytes_per_event",
        last.disk_bytes as f64 / events as f64,
    );
    m.set(
        "store.mem_bytes_per_event",
        last.mem_bytes as f64 / events as f64,
    );

    if let Some(rec) = last_rec {
        verify::durable_probes(
            &trace,
            &batches,
            segments,
            opts.sizes.spill_threshold,
            median(&writes_s),
            nproc(),
            &mut m,
        )?;
        write_spans(&rec, Workload::VerifyDurable, opts)?;
    }
    std::fs::remove_dir_all(&scratch)?;
    outcome.metrics = m;
    Ok(outcome)
}
