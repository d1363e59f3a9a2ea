//! The protocol workloads: `Scenario::run` timed from outside, and a traced
//! mirror that rebuilds the same world from public API with every actor
//! wrapped in a span-recording [`Timed`] shell.

use std::cell::RefCell;
use std::collections::{HashSet, VecDeque};
use std::rc::Rc;
use std::time::Instant;

use xability_consensus::{ConsensusEngine, ConsensusMsg, ConsensusNet, InstanceId};
use xability_core::{ActionId, ActionName, Request, Value};
use xability_harness::scenario::r3_violation_for;
use xability_harness::RunReport;
use xability_obs::Obs;
use xability_protocol::messages::parse_instance;
use xability_protocol::{Client, ProtoMsg, ReplicaMetrics, ServiceActor, XReplica, XReplicaConfig};
use xability_services::{shared_ledger, ServiceConfig, ServiceCore};
use xability_sim::{
    Actor, Context, Metrics as SimMetrics, ProcessId, SimConfig, SimDuration, SimTime, TimerId,
    World,
};

use crate::gen::{logic_of, Session};
use crate::report::{Measurements, Outcome};
use crate::span::{self_time_by, Recorder, Span};
use crate::stats::{median, percentile};

// ---------------------------------------------------------------------------
// Untraced: `Scenario::run` is the timed call
// ---------------------------------------------------------------------------

/// One session: `Scenario::run`, timed alone.
pub fn run_session(session: &Session) -> (RunReport, f64) {
    let start = Instant::now();
    let report = std::hint::black_box(session.scenario.run());
    (report, start.elapsed().as_secs_f64())
}

/// One iteration: every session run once.
pub fn run_untraced(sessions: &[Session]) -> Vec<(RunReport, f64)> {
    sessions.iter().map(run_session).collect()
}

/// A session the checker could not decide: everything it checked directly
/// holds, and R3 came back `Unknown` — rare concurrent rounds whose
/// completions the fast tier cannot attribute, in a history too long for
/// the exhaustive tier. The harness counts that as incorrect.
pub fn undecided(report: &RunReport) -> bool {
    let definite = !report.finished || !report.exactly_once_violations.is_empty() || !report.r4_ok;
    !definite
        && report
            .r3_violation
            .as_ref()
            .is_some_and(|v| v.detail.starts_with("undecided:"))
}

/// One iteration, summed and per session.
#[derive(Debug, Clone, PartialEq)]
pub struct Totals {
    pub wall_s: f64,
    pub completed: u64,
    /// Completed requests and ledger events per wall second of each
    /// session's `Scenario::run`.
    pub session_requests_per_s: Vec<f64>,
    pub session_events_per_s: Vec<f64>,
    pub session_ms: Vec<f64>,
}

/// Checks every session of an iteration and counts its operations: an
/// operation is a client request; it fails when it did not complete or its
/// session broke a correctness obligation (R1–R4, exactly-once).
pub fn account(sessions: &[Session], runs: &[(RunReport, f64)], outcome: &mut Outcome) -> Totals {
    let mut totals = Totals {
        wall_s: 0.0,
        completed: 0,
        session_requests_per_s: Vec::new(),
        session_events_per_s: Vec::new(),
        session_ms: Vec::new(),
    };
    for (s, (session, (report, wall_s))) in sessions.iter().zip(runs).enumerate() {
        let planned = session.plan.len() as u64;
        let completed = report.completed_requests as u64;
        outcome.attempted += planned;
        if report.is_correct() && completed == planned {
            totals.completed += completed;
        } else {
            outcome.failed += if report.is_correct() {
                planned - completed
            } else {
                planned
            };
            outcome.violation(format!(
                "session {s}: completed {completed}/{planned}, finished={} exactly_once={:?} r3={:?} r4={}",
                report.finished, report.exactly_once_violations, report.r3_violation, report.r4_ok
            ));
        }
        totals.wall_s += wall_s;
        totals
            .session_requests_per_s
            .push(completed as f64 / wall_s);
        totals
            .session_events_per_s
            .push(report.history_len as f64 / wall_s);
        totals.session_ms.push(wall_s * 1e3);
    }
    totals
}

/// The figures that depend only on the seed, not on the clock: simulated
/// latency, messages and storage per unit of work, and the failover gap.
pub fn deterministic_metrics(
    sessions: &[Session],
    runs: &[(RunReport, f64)],
    m: &mut Measurements,
) {
    let mut latencies_ms = Vec::new();
    let (mut messages, mut completed, mut events, mut stored) = (0u64, 0u64, 0u64, 0u64);
    let mut gaps_ms = Vec::new();
    for (session, (report, _)) in sessions.iter().zip(runs) {
        latencies_ms.extend(report.latencies.iter().map(|d| d.as_micros() as f64 / 1e3));
        messages += report.sim.messages_sent;
        completed += report.completed_requests as u64;
        events += report.history_len as u64;
        stored += report.ledger.borrow().store().approx_bytes() as u64;
        if let Some(gap) = failover_gap_ms(session, report) {
            gaps_ms.push(gap);
        }
    }
    let p50 = percentile(&latencies_ms, 50.0);
    let p99 = percentile(&latencies_ms, 99.0);
    m.set("latency_ms_p50", p50);
    m.set("latency_ms_tail", p99);
    m.set("sim_latency_ms_p50", p50);
    m.set("sim_latency_ms_p99", p99);
    m.set("stored_bytes_per_event", stored as f64 / events as f64);
    m.set("msgs_per_request", messages as f64 / completed as f64);
    if !gaps_ms.is_empty() {
        m.set("failover_gap_ms", median(&gaps_ms));
    }
}

/// Simulated time from the session's replica crash to the first client
/// request completing after it.
fn failover_gap_ms(session: &Session, report: &RunReport) -> Option<f64> {
    let crash = session.scenario.crashes.first()?.1.as_micros();
    report
        .metrics
        .spans
        .iter()
        .filter(|s| s.scope == "request")
        .filter_map(|s| s.end_tick)
        .filter(|&end| end > crash)
        .min()
        .map(|end| (end - crash) as f64 / 1e3)
}

// ---------------------------------------------------------------------------
// Traced mirror
// ---------------------------------------------------------------------------

pub type SharedRecorder = Rc<RefCell<Recorder>>;

const SESSION: &str = "harness.session";
const SIM_RUN: &str = "sim.run";
const VERDICT: &str = "services.monitor_verdict";
const SNAPSHOT: &str = "obs.snapshot";
const REPLICA: [&str; 3] = [
    "protocol.replica.on_message",
    "protocol.replica.on_timer",
    "protocol.replica.other",
];
const CLIENT: [&str; 3] = [
    "protocol.client.on_message",
    "protocol.client.on_timer",
    "protocol.client.other",
];
const SERVICE: [&str; 3] = [
    "services.actor.on_message",
    "services.actor.on_timer",
    "services.actor.other",
];

/// An actor behind the public `Actor` trait, with a span around each
/// callback. The simulator cannot tell it from the actor it wraps.
struct Timed<A> {
    inner: A,
    rec: SharedRecorder,
    /// Span names of `on_message`, `on_timer` and the other callbacks.
    names: [&'static str; 3],
    layer: &'static str,
}

impl<A> Timed<A> {
    fn span<R>(&mut self, name: usize, request: Option<&str>, f: impl FnOnce(&mut A) -> R) -> R {
        let id = self
            .rec
            .borrow_mut()
            .start(self.names[name], self.layer, request);
        let result = f(&mut self.inner);
        self.rec.borrow_mut().end(id);
        result
    }
}

/// The request a message is about, when it names one.
fn request_of(msg: &ProtoMsg) -> Option<&str> {
    match msg {
        ProtoMsg::ClientRequest { req } | ProtoMsg::Forward { req, .. } => Some(&req.id),
        ProtoMsg::ClientResult { req_id, .. } => Some(req_id),
        ProtoMsg::Consensus(cm) => parse_instance(cm.instance()).map(|(_, req, _)| req),
        ProtoMsg::Invoke { sreq, .. } => sreq.key.as_str(),
        ProtoMsg::InvokeReply { .. } => None,
    }
}

impl<A: Actor<ProtoMsg>> Actor<ProtoMsg> for Timed<A> {
    fn on_start(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        self.span(2, None, |a| a.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ProtoMsg>, from: ProcessId, msg: ProtoMsg) {
        // The request id is copied out because the message moves into the
        // actor; the copy happens before the span opens.
        let request = request_of(&msg).map(str::to_owned);
        self.span(0, request.as_deref(), |a| a.on_message(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ProtoMsg>, timer: TimerId) {
        self.span(1, None, |a| a.on_timer(ctx, timer));
    }

    fn on_suspicion(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        subject: ProcessId,
        suspected: bool,
    ) {
        self.span(2, None, |a| a.on_suspicion(ctx, subject, suspected));
    }
}

/// What the mirror must reproduce byte for byte.
#[derive(Debug, PartialEq)]
pub struct Fingerprint {
    pub sim: SimMetrics,
    pub history_len: usize,
    pub latencies: Vec<SimDuration>,
    pub metrics_json: String,
}

impl Fingerprint {
    pub fn of(report: &RunReport) -> Fingerprint {
        Fingerprint {
            sim: report.sim,
            history_len: report.history_len,
            latencies: report.latencies.clone(),
            metrics_json: report.metrics.to_json(),
        }
    }
}

/// One mirrored session.
pub struct Mirrored {
    pub fingerprint: Fingerprint,
    pub completed: u64,
    pub correct: bool,
    pub replicas: ReplicaMetrics,
    pub invocations: u64,
    pub decides: u64,
}

fn timed<A: Actor<ProtoMsg>>(
    inner: A,
    rec: &SharedRecorder,
    names: [&'static str; 3],
    layer: &'static str,
) -> Box<dyn Actor<ProtoMsg>> {
    Box::new(Timed {
        inner,
        rec: rec.clone(),
        names,
        layer,
    })
}

/// Builds and runs the session's world exactly as `Scenario::run` does —
/// same construction order, same registry attachment order, same run and
/// settle phases, same evaluation — recording spans into `rec`.
pub fn mirror(session: &Session, rec: &SharedRecorder) -> Mirrored {
    let sc = &session.scenario;
    let root = rec.borrow_mut().start(SESSION, "harness", None);

    let ledger = shared_ledger();
    let obs = Obs::new();
    let mut world: World<ProtoMsg> = World::new(SimConfig {
        seed: sc.seed,
        latency: sc.latency,
        fd: sc.fd,
        faults: sc.net_faults,
    });
    world.attach_obs(&obs);
    ledger.borrow_mut().attach_obs(&obs);

    let replica_ids: Vec<ProcessId> = (0..sc.replicas).map(ProcessId).collect();
    let service_id = ProcessId(sc.replicas);
    let client_id = ProcessId(sc.replicas + 1);
    let config = XReplicaConfig {
        unsound_skip_abort_cancel: sc.weakened_retry,
        ..XReplicaConfig::default()
    };
    for &id in &replica_ids {
        let replica = XReplica::new(id, replica_ids.clone(), config);
        let added = world.add_process(
            format!("replica{}", id.0),
            timed(replica, rec, REPLICA, "protocol"),
        );
        assert_eq!(added, id);
    }
    let core = ServiceCore::new(
        logic_of(&sc.workload),
        ServiceConfig {
            failures: sc.service_failures,
            dedup: sc.dedup,
        },
        ledger.clone(),
    );
    let added = world.add_process(
        "service",
        timed(ServiceActor::new(core), rec, SERVICE, "services"),
    );
    assert_eq!(added, service_id);
    let client = Client::new(replica_ids.clone(), session.plan.clone());
    let added = world.add_process("client", timed(client, rec, CLIENT, "protocol"));
    assert_eq!(added, client_id);

    for &id in &replica_ids {
        let replica = world.actor_as_mut::<Timed<XReplica>>(id).expect("replica");
        replica.inner.attach_obs(&obs);
    }
    let client = world
        .actor_as_mut::<Timed<Client>>(client_id)
        .expect("client");
    client.inner.attach_obs(&obs);
    for &(idx, at) in &sc.crashes {
        world.schedule_crash(ProcessId(idx), at);
    }
    assert!(
        sc.client_crash.is_none() && sc.partitions.is_empty(),
        "xbench sessions schedule replica crashes only"
    );

    let run = rec.borrow_mut().start(SIM_RUN, "sim", None);
    world.run_while(
        |w| {
            !w.actor_as::<Timed<Client>>(client_id)
                .is_none_or(|c| c.inner.is_done())
                && w.is_alive(client_id)
        },
        sc.horizon,
    );
    let settle = world.now() + SimDuration::from_millis(500);
    world.run_until(settle);
    rec.borrow_mut().end(run);

    // Evaluation, as `Scenario::evaluate`.
    let client = &world
        .actor_as::<Timed<Client>>(client_id)
        .expect("client")
        .inner;
    let finished = client.is_done();
    let completed = client.completed_requests().to_vec();
    let latencies: Vec<SimDuration> = client.latencies().iter().map(|(_, d)| *d).collect();
    let completed_keys: Vec<(ActionName, Value)> = completed
        .iter()
        .map(|r| (r.action.clone(), r.key()))
        .collect();
    let exactly_once = ledger.borrow().exactly_once_violations(&completed_keys);
    let submitted: Vec<Request> = session
        .plan
        .iter()
        .take((completed.len() + 1).min(session.plan.len()))
        .map(|r| Request::new(ActionId::base(r.action.clone()), r.key()))
        .collect();
    let verdict = rec.borrow_mut().start(VERDICT, "services", None);
    let r3 = r3_violation_for(&ledger, &submitted);
    rec.borrow_mut().end(verdict);
    let service = &world
        .actor_as::<Timed<ServiceActor>>(service_id)
        .expect("service")
        .inner;
    let r4_ok = client.results().iter().all(|(req_id, result)| {
        session
            .plan
            .iter()
            .find(|r| &r.id == req_id)
            .is_none_or(|r| {
                service
                    .core()
                    .is_possible_reply(&r.action, &r.payload, result)
            })
    });
    let mut replicas = ReplicaMetrics::default();
    for &id in &replica_ids {
        let m = world
            .actor_as::<Timed<XReplica>>(id)
            .expect("replica")
            .inner
            .metrics();
        replicas.rounds_owned += m.rounds_owned;
        replicas.cancels += m.cancels;
        replicas.cleanings += m.cleanings;
        replicas.invoke_retransmits += m.invoke_retransmits;
    }
    let history_len = ledger.borrow().event_count();
    let snapshot = rec.borrow_mut().start(SNAPSHOT, "obs", None);
    let metrics = obs.snapshot();
    rec.borrow_mut().end(snapshot);

    let mirrored = Mirrored {
        completed: completed.len() as u64,
        correct: finished && exactly_once.is_empty() && r3.violation.is_none() && r4_ok,
        replicas,
        invocations: service.core().invocations(),
        decides: metrics
            .spans
            .iter()
            .filter(|s| s.scope == "consensus.decide")
            .count() as u64,
        fingerprint: Fingerprint {
            sim: *world.metrics(),
            history_len,
            latencies,
            metrics_json: metrics.to_json(),
        },
    };
    drop(world);
    rec.borrow_mut().end(root);
    mirrored
}

/// Per-layer numbers of one traced iteration (`runs`, recorded in `rec`),
/// per completed request, next to the untraced cost per request.
pub fn layer_metrics(
    rec: &Recorder,
    runs: &[Mirrored],
    untraced_us_per_request: f64,
    m: &mut Measurements,
) {
    let completed: u64 = runs.iter().map(|r| r.completed).sum();
    let per_request = |total: f64| total / completed as f64;
    let spans = rec.spans();
    let by_name = self_time_by(spans, |s| s.name);
    let us = |names: &[&str]| {
        per_request(
            names
                .iter()
                .map(|n| by_name.get(*n).copied().unwrap_or(0))
                .sum::<u64>() as f64
                / 1e3,
        )
    };

    m.push("sim.step_self_us_per_request", us(&[SIM_RUN]));
    m.push("protocol.replica_msg_us_per_request", us(&REPLICA[..1]));
    m.push("protocol.replica_timer_us_per_request", us(&REPLICA[1..2]));
    m.push("protocol.client_us_per_request", us(&CLIENT));
    m.push("services.actor_us_per_request", us(&SERVICE));
    let sessions = runs.len() as f64;
    let duration_ms = |name: &str| {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum::<u64>() as f64
            / 1e6
    };
    m.push("obs.snapshot_ms", duration_ms(SNAPSHOT) / sessions);
    // A session's self time is what the harness does around the simulation:
    // building the world before it, evaluating the outcome after it.
    let (mut build_ns, mut residual_ns) = (0u64, 0u64);
    for (i, root) in spans.iter().enumerate().filter(|(_, s)| s.name == SESSION) {
        let run = spans[i..]
            .iter()
            .find(|s| s.name == SIM_RUN && s.parent == Some(root.id))
            .expect("every session runs the simulation");
        build_ns += run.start_ns - root.start_ns;
        residual_ns += root.end_ns - run.end_ns;
    }
    m.push("harness.build_ms", build_ns as f64 / 1e6 / sessions);
    m.push(
        "harness.residual_ms_per_session",
        residual_ns as f64 / 1e6 / sessions,
    );

    let growth = growth_ratios(spans);
    if !growth.is_empty() {
        m.push("protocol.session_growth_ratio", median(&growth));
    }

    let sum = |f: fn(&Mirrored) -> u64| per_request(runs.iter().map(f).sum::<u64>() as f64);
    m.set(
        "sim.events_per_request",
        sum(|r| r.fingerprint.sim.events_processed),
    );
    m.set(
        "sim.timers_per_request",
        sum(|r| r.fingerprint.sim.timers_fired),
    );
    m.set(
        "sim.heartbeats_per_request",
        sum(|r| r.fingerprint.sim.heartbeats_delivered),
    );
    m.set(
        "protocol.rounds_per_request",
        sum(|r| r.replicas.rounds_owned),
    );
    m.set("protocol.cancels_per_request", sum(|r| r.replicas.cancels));
    m.set(
        "protocol.cleanings_per_request",
        sum(|r| r.replicas.cleanings),
    );
    m.set(
        "protocol.invoke_retransmits_per_request",
        sum(|r| r.replicas.invoke_retransmits),
    );
    m.set("services.invocations_per_request", sum(|r| r.invocations));
    m.set("consensus.decides_per_request", sum(|r| r.decides));
    m.set("bench.spans", spans.len() as f64);

    // Every nanosecond of a session span is some layer's self time and the
    // mirror covers the whole of `Scenario::run`, so the session spans are
    // the traced cost, and what they leave uncovered of the untraced cost is
    // the tracing overhead (and the drift between the two iterations) with
    // the opposite sign.
    let sessions_ns: u64 = spans
        .iter()
        .filter(|s| s.name == SESSION)
        .map(Span::duration_ns)
        .sum();
    let traced_us = per_request(sessions_ns as f64 / 1e3);
    let overhead_pct = (traced_us / untraced_us_per_request - 1.0) * 100.0;
    m.push("bench.trace_overhead_pct", overhead_pct);
    m.push("bench.unattributed_pct", -overhead_pct);
}

/// Wall time per request over the last quarter of each session divided by
/// that over its first quarter; a protocol whose cost does not depend on
/// session length reads about 1.
fn growth_ratios(spans: &[Span]) -> Vec<f64> {
    let mut ratios = Vec::new();
    let mut completions: Vec<u64> = Vec::new();
    let mut seen = HashSet::new();
    let mut flush = |completions: &mut Vec<u64>| {
        let n = completions.len();
        if n >= 8 {
            let q = n / 4;
            let first = (completions[q] - completions[0]) as f64;
            let last = (completions[n - 1] - completions[n - 1 - q]) as f64;
            ratios.push(last / first);
        }
        completions.clear();
    };
    for span in spans {
        if span.name == SESSION {
            flush(&mut completions);
            seen.clear();
        } else if span.name == CLIENT[0] {
            // The first result delivered for a request completes it; later
            // copies are duplicates the client ignores.
            if let Some(request) = span.request {
                if seen.insert(request) {
                    completions.push(span.end_ns);
                }
            }
        }
    }
    flush(&mut completions);
    ratios
}

// ---------------------------------------------------------------------------
// Consensus, driven directly
// ---------------------------------------------------------------------------

/// An in-memory network for three engines: sends queue up and are delivered
/// in order, nobody is suspected and no time passes.
struct MemNet {
    from: ProcessId,
    queue: VecDeque<(ProcessId, ProcessId, ConsensusMsg<u64>)>,
    sent: u64,
}

impl ConsensusNet<u64> for MemNet {
    fn send(&mut self, to: ProcessId, msg: ConsensusMsg<u64>) {
        self.queue.push_back((self.from, to, msg));
        self.sent += 1;
    }

    fn now(&self) -> SimTime {
        SimTime::ZERO
    }

    fn suspects(&self, _p: ProcessId) -> bool {
        false
    }
}

/// Decides `instances` consensus instances one after another at n = 3 with
/// the round-0 coordinator proposing, then times the periodic tick with all
/// of them retained. Separates the engine from the replica that embeds it.
pub fn consensus_probe(instances: usize, m: &mut Measurements, outcome: &mut Outcome) {
    let peers: Vec<ProcessId> = (0..3).map(ProcessId).collect();
    let mut engines: Vec<ConsensusEngine<u64>> = peers
        .iter()
        .map(|&p| ConsensusEngine::new(p, peers.clone(), SimDuration::from_millis(80)))
        .collect();
    let ids: Vec<InstanceId> = (0..instances)
        .map(|k| InstanceId::new(format!("owner/req-{k}/1")))
        .collect();
    let mut net = MemNet {
        from: peers[0],
        queue: VecDeque::new(),
        sent: 0,
    };
    let start = Instant::now();
    for (k, id) in ids.iter().enumerate() {
        net.from = peers[0];
        let _ = engines[0].propose(&mut net, id.clone(), k as u64);
        while let Some((from, to, msg)) = net.queue.pop_front() {
            net.from = to;
            let _ = engines[to.0].on_message(&mut net, from, msg);
        }
    }
    let decide_us = start.elapsed().as_secs_f64() * 1e6 / instances as f64;
    for (p, engine) in engines.iter().enumerate() {
        let agreed = ids
            .iter()
            .enumerate()
            .all(|(k, id)| engine.read(id) == Some(&(k as u64)));
        if !agreed {
            outcome.violation(format!("consensus probe: engine {p} missed a decision"));
        }
    }
    m.push("consensus.decide_us_per_instance", decide_us);
    m.set(
        "consensus.msgs_per_instance",
        net.sent as f64 / instances as f64,
    );

    net.from = peers[0];
    let ticks: Vec<f64> = (0..21)
        .map(|_| {
            let start = Instant::now();
            let _ = std::hint::black_box(engines[0].on_tick(&mut net));
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    m.push("consensus.tick_us_at_2k_instances", median(&ticks));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{fault_session, steady_session, Sizes};

    #[test]
    fn mirror_reproduces_scenario_run_byte_for_byte() {
        let mut sessions = vec![steady_session(5, &Sizes::QUICK, 0, 0)];
        sessions.extend((0..4).map(|s| fault_session(5, &Sizes::QUICK, s, 0)));
        let rec = SharedRecorder::default();
        for session in &sessions {
            let report = session.scenario.run();
            let mirrored = mirror(session, &rec);
            assert_eq!(mirrored.fingerprint, Fingerprint::of(&report));
            assert_eq!(mirrored.correct, report.is_correct());
            assert_eq!(mirrored.completed as usize, report.completed_requests);
            assert_eq!(
                mirrored.replicas.rounds_owned,
                report.replica_metrics.rounds_owned
            );
        }
        let rec = rec.borrow();
        let roots = rec.spans().iter().filter(|s| s.parent.is_none()).count();
        assert_eq!(roots, sessions.len());
        assert!(rec.spans().iter().any(|s| s.request.is_some()));
    }

    #[test]
    fn growth_ratio_compares_last_quarter_with_first() {
        let mk = |id: u32, name: &'static str, request: Option<u32>, end_ns: u64| Span {
            id,
            parent: None,
            name,
            layer: "protocol",
            request,
            start_ns: end_ns,
            end_ns,
        };
        // Eight completions: 10 ns apart in the first quarter, 30 ns apart
        // in the last; request 3's duplicate result is ignored.
        let ends = [0, 10, 20, 30, 40, 50, 80, 110];
        let mut spans = vec![mk(0, SESSION, None, 0)];
        for (i, &end) in ends.iter().enumerate() {
            spans.push(mk(i as u32 + 1, CLIENT[0], Some(i as u32), end));
        }
        spans.push(mk(9, CLIENT[0], Some(3), 200));
        assert_eq!(growth_ratios(&spans), vec![3.0]);
    }

    #[test]
    fn consensus_probe_decides_every_instance() {
        let mut m = Measurements::default();
        let mut outcome = Outcome::default();
        consensus_probe(25, &mut m, &mut outcome);
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
        assert!(m.summary("consensus.msgs_per_instance").unwrap().median >= 4.0);
    }
}
