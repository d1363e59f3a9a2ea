//! Scenario construction and execution.
//!
//! A [`Scenario`] assembles a complete system — client, replica group
//! (x-able protocol or a baseline), external service, ledger — runs it to
//! completion (or a time horizon), and evaluates the outcome against the
//! paper's correctness obligations R1–R4 (§4) plus direct exactly-once
//! accounting on the side-effect ledger.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use xability_core::spec::{check_r3, r3_violation, Violation};
use xability_core::xable::{escalate, Verdict};
use xability_core::{ActionName, Value};
use xability_obs::{MetricsSnapshot, Obs};
use xability_protocol::{
    ActiveReplica, Client, ClientMetrics, LogicalRequest, PbReplica, ProtoMsg, ReplicaMetrics,
    ServiceActor, XReplica, XReplicaConfig,
};
use xability_services::catalog::{Bank, KvStore, NakedCounter, Reservation, TokenIssuer};
use xability_services::{
    shared_ledger, BusinessLogic, FailurePlan, ServiceConfig, ServiceCore, SharedLedger,
};
use xability_sim::{
    FdConfig, LatencyModel, Metrics as SimMetrics, NetFaultConfig, ProcessId, SimConfig,
    SimDuration, SimTime, World,
};
use xability_store::write_trace_file_with_meta;

/// Which replication scheme to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// The paper's §5 algorithm.
    XAble,
    /// Primary-backup baseline \[BMST93\].
    PrimaryBackup,
    /// Active-replication baseline \[Sch93\].
    Active,
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Scheme::XAble => write!(f, "x-able"),
            Scheme::PrimaryBackup => write!(f, "primary-backup"),
            Scheme::Active => write!(f, "active"),
        }
    }
}

/// Which workload (service + request sequence) to drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Undoable bank transfers (escrow, commit/cancel, non-deterministic
    /// receipts).
    BankTransfers {
        /// Number of sequential transfers.
        count: usize,
        /// Amount per transfer.
        amount: i64,
    },
    /// Idempotent KV puts.
    KvPuts {
        /// Number of sequential puts.
        count: usize,
    },
    /// Idempotent, non-deterministic token issuance.
    TokenIssues {
        /// Number of sequential issues.
        count: usize,
    },
    /// Undoable seat reservations.
    Reservations {
        /// Number of sequential reservations.
        count: usize,
        /// Seats per reservation.
        seats: i64,
    },
    /// A counter that is *declared* idempotent but has cumulative effect;
    /// run with `dedup_disabled` to expose retry duplication.
    CounterBumps {
        /// Number of sequential bumps.
        count: usize,
    },
}

impl Workload {
    /// The number of requests this workload submits.
    pub fn count(&self) -> usize {
        match self {
            Workload::BankTransfers { count, .. }
            | Workload::KvPuts { count }
            | Workload::TokenIssues { count }
            | Workload::Reservations { count, .. }
            | Workload::CounterBumps { count } => *count,
        }
    }

    fn build_logic(&self) -> Box<dyn BusinessLogic> {
        match self {
            Workload::BankTransfers { count, amount } => Box::new(Bank::new([
                ("src".to_owned(), *count as i64 * amount + 1_000),
                ("dst".to_owned(), 0),
            ])),
            Workload::KvPuts { .. } => Box::new(KvStore::new()),
            Workload::TokenIssues { .. } => Box::new(TokenIssuer::new()),
            Workload::Reservations { count, seats } => {
                Box::new(Reservation::new(*count as i64 * seats + 10))
            }
            Workload::CounterBumps { .. } => Box::new(NakedCounter::new()),
        }
    }

    fn requests(&self, service: ProcessId) -> Vec<LogicalRequest> {
        let mk = |i: usize, action: ActionName, payload: Value| {
            LogicalRequest::new(format!("req-{i}"), action, payload, service)
        };
        match self {
            Workload::BankTransfers { count, amount } => (0..*count)
                .map(|i| {
                    mk(
                        i,
                        ActionName::undoable("transfer"),
                        Value::list([
                            Value::pair(Value::from("from"), Value::from("src")),
                            Value::pair(Value::from("to"), Value::from("dst")),
                            Value::pair(Value::from("amount"), Value::from(*amount)),
                        ]),
                    )
                })
                .collect(),
            Workload::KvPuts { count } => (0..*count)
                .map(|i| {
                    mk(
                        i,
                        ActionName::idempotent("put"),
                        Value::list([
                            Value::pair(Value::from("k"), Value::from(format!("key-{i}"))),
                            Value::pair(Value::from("v"), Value::from(i as i64)),
                        ]),
                    )
                })
                .collect(),
            Workload::TokenIssues { count } => (0..*count)
                .map(|i| mk(i, ActionName::idempotent("issue"), Value::Nil))
                .collect(),
            Workload::Reservations { count, seats } => (0..*count)
                .map(|i| {
                    mk(
                        i,
                        ActionName::undoable("reserve"),
                        Value::list([Value::pair(Value::from("seats"), Value::from(*seats))]),
                    )
                })
                .collect(),
            Workload::CounterBumps { count } => (0..*count)
                .map(|i| {
                    mk(
                        i,
                        ActionName::idempotent("bump"),
                        Value::list([Value::pair(Value::from("by"), Value::from(1))]),
                    )
                })
                .collect(),
        }
    }
}

/// Full description of one experiment run.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// RNG seed (drives everything).
    pub seed: u64,
    /// Replication scheme under test.
    pub scheme: Scheme,
    /// Number of replicas.
    pub replicas: usize,
    /// Network model.
    pub latency: LatencyModel,
    /// Failure-detector timing.
    pub fd: FdConfig,
    /// The workload.
    pub workload: Workload,
    /// Fault injection at the external service.
    pub service_failures: FailurePlan,
    /// Whether the service deduplicates idempotent actions (disable for
    /// negative experiments).
    pub dedup: bool,
    /// Replica crashes: (replica index, time).
    pub crashes: Vec<(usize, SimTime)>,
    /// Crash the client at this time (at-most-once experiments).
    pub client_crash: Option<SimTime>,
    /// Give up after this much simulated time.
    pub horizon: SimTime,
    /// Message-level network faults (loss / duplication / reordering).
    pub net_faults: NetFaultConfig,
    /// Partition windows: (process indices on one side, from, until).
    /// Indices address the scenario's process layout — replicas are
    /// `0..replicas`, the service is `replicas`, the client `replicas + 1`.
    pub partitions: Vec<(Vec<usize>, SimTime, SimTime)>,
    /// **Test-only planted weakness** (see `harness::explore` and
    /// DESIGN.md §9): when set, replicas skip the cancellation step when
    /// aborting a failed undoable round — the unsound "retry without
    /// cancel" rule the paper's round poisoning exists to rule out. Used
    /// to verify that the explorer deterministically finds and shrinks
    /// the resulting R3 violation; never set outside tests.
    pub weakened_retry: bool,
}

impl Scenario {
    /// A crash-free, synchronous-network scenario with defaults.
    pub fn new(scheme: Scheme, workload: Workload) -> Self {
        Scenario {
            seed: 0,
            scheme,
            replicas: 3,
            latency: LatencyModel::synchronous(),
            fd: FdConfig::default(),
            workload,
            service_failures: FailurePlan::none(),
            dedup: true,
            crashes: Vec::new(),
            client_crash: None,
            horizon: SimTime::from_secs(60),
            net_faults: NetFaultConfig::none(),
            partitions: Vec::new(),
            weakened_retry: false,
        }
    }

    /// Sets the seed (builder style).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the replica count.
    #[must_use]
    pub fn replicas(mut self, n: usize) -> Self {
        self.replicas = n;
        self
    }

    /// Sets the latency model.
    #[must_use]
    pub fn latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Sets the failure-detector timing.
    #[must_use]
    pub fn fd(mut self, fd: FdConfig) -> Self {
        self.fd = fd;
        self
    }

    /// Schedules a replica crash.
    #[must_use]
    pub fn crash(mut self, replica: usize, at: SimTime) -> Self {
        self.crashes.push((replica, at));
        self
    }

    /// Sets service fault injection.
    #[must_use]
    pub fn service_failures(mut self, failures: FailurePlan) -> Self {
        self.service_failures = failures;
        self
    }

    /// Disables service-side deduplication.
    #[must_use]
    pub fn without_dedup(mut self) -> Self {
        self.dedup = false;
        self
    }

    /// Crashes the client at `at`.
    #[must_use]
    pub fn crash_client(mut self, at: SimTime) -> Self {
        self.client_crash = Some(at);
        self
    }

    /// Sets message-level network fault injection.
    #[must_use]
    pub fn net_faults(mut self, faults: NetFaultConfig) -> Self {
        self.net_faults = faults;
        self
    }

    /// Schedules a partition window severing `members` (process indices)
    /// from everyone else between `from` and `until`.
    #[must_use]
    pub fn partition(mut self, members: Vec<usize>, from: SimTime, until: SimTime) -> Self {
        self.partitions.push((members, from, until));
        self
    }

    /// Sets the give-up horizon.
    #[must_use]
    pub fn horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = horizon;
        self
    }

    /// **Test-only**: plants the weakened abort rule (replicas skip the
    /// cancel when aborting a failed undoable round). See the
    /// [`Scenario::weakened_retry`] field docs.
    #[must_use]
    pub fn weaken_retry(mut self) -> Self {
        self.weakened_retry = true;
        self
    }

    /// Builds the world, runs it, and evaluates the outcome.
    pub fn run(&self) -> RunReport {
        // Online R3: the ledger's default monitor observes every recorded
        // event as the simulation emits it — a storage-free cursor over
        // the ledger's shared trace store, so the per-group checker state
        // (and its dirty-tracked aggregate verdict) is built *during* the
        // run without a second copy of the event stream; evaluation then
        // only has to declare the submitted requests and read the verdict
        // off the already-digested prefix.
        let ledger = shared_ledger();
        // One shared metrics registry per run: the simulator's transport,
        // the replicas, the client, and the ledger (with its online
        // monitor) all record into it, and `evaluate` snapshots it onto
        // the report. Everything recorded is keyed to simulated time, so
        // the snapshot is a pure function of (scenario, seed).
        let obs = Obs::new();
        let mut world: World<ProtoMsg> = World::new(SimConfig {
            seed: self.seed,
            latency: self.latency,
            fd: self.fd,
            faults: self.net_faults,
        });
        world.attach_obs(&obs);
        ledger.borrow_mut().attach_obs(&obs);

        // Process ids: replicas first, then the service, then the client.
        let replica_ids: Vec<ProcessId> = (0..self.replicas).map(ProcessId).collect();
        let service_id = ProcessId(self.replicas);
        let client_id = ProcessId(self.replicas + 1);

        let replica_config = XReplicaConfig {
            unsound_skip_abort_cancel: self.weakened_retry,
        };
        for &id in &replica_ids {
            let actor: Box<dyn xability_sim::Actor<ProtoMsg>> = match self.scheme {
                Scheme::XAble => Box::new(XReplica::new(id, replica_ids.clone(), replica_config)),
                Scheme::PrimaryBackup => Box::new(PbReplica::new(id, replica_ids.clone())),
                Scheme::Active => Box::new(ActiveReplica::new(id, replica_ids.clone())),
            };
            let added = world.add_process(format!("replica{}", id.0), actor);
            assert_eq!(added, id);
        }

        let core = ServiceCore::new(
            self.workload.build_logic(),
            ServiceConfig {
                failures: self.service_failures,
                dedup: self.dedup,
            },
            ledger.clone(),
        );
        let added = world.add_process("service", Box::new(ServiceActor::new(core)));
        assert_eq!(added, service_id);

        let requests = self.workload.requests(service_id);
        let added = world.add_process(
            "client",
            Box::new(Client::new(replica_ids.clone(), requests)),
        );
        assert_eq!(added, client_id);

        if self.scheme == Scheme::XAble {
            for &id in &replica_ids {
                if let Some(r) = world.actor_as_mut::<XReplica>(id) {
                    r.attach_obs(&obs);
                }
            }
        }
        if let Some(c) = world.actor_as_mut::<Client>(client_id) {
            c.attach_obs(&obs);
        }

        for &(idx, at) in &self.crashes {
            world.schedule_crash(ProcessId(idx), at);
        }
        if let Some(at) = self.client_crash {
            world.schedule_crash(client_id, at);
        }
        for (members, from, until) in &self.partitions {
            let ids: Vec<ProcessId> = members.iter().map(|&i| ProcessId(i)).collect();
            world.schedule_partition(&ids, *from, *until);
        }

        world.run_while(
            |w| {
                !w.actor_as::<Client>(client_id)
                    .map(Client::is_done)
                    .unwrap_or(true)
                    && w.is_alive(client_id)
            },
            self.horizon,
        );
        // Let in-flight server-side work settle (commits, cleaners) so the
        // ledger reflects a quiescent system.
        let settle = world.now() + SimDuration::from_millis(500);
        world.run_until(settle);

        self.evaluate(world, ledger, client_id, &replica_ids, obs)
    }

    fn evaluate(
        &self,
        world: World<ProtoMsg>,
        ledger: SharedLedger,
        client_id: ProcessId,
        replica_ids: &[ProcessId],
        obs: Obs,
    ) -> RunReport {
        let client = world.actor_as::<Client>(client_id).expect("client exists");
        let finished = client.is_done();
        let requests = client.plan();
        let completed = client.completed_requests().len();
        let client_metrics = *client.metrics();
        let latencies: Vec<SimDuration> = client.latencies().iter().map(|(_, d)| *d).collect();
        let results: Vec<(String, Value)> = client
            .results()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();

        // What the client submitted: the completed prefix of the plan plus
        // the request in flight, each with its formal input value.
        let submitted_prefix = &requests[..(completed + 1).min(requests.len())];
        let keys: Vec<Value> = submitted_prefix.iter().map(LogicalRequest::key).collect();

        // Exactly-once accounting over the ledger, for the *completed*
        // requests (successfully submitted ⇒ exactly once).
        let completed_keys: Vec<(ActionName, Value)> = submitted_prefix[..completed]
            .iter()
            .zip(&keys)
            .map(|(r, key)| (r.action.clone(), key.clone()))
            .collect();
        let exactly_once_violations = ledger.borrow().exactly_once_violations(&completed_keys);

        // R3: the server-side history must be x-able w.r.t. the submitted
        // sequence (the last submitted request may be unfinished).
        let submitted: Vec<xability_core::Request> = submitted_prefix
            .iter()
            .zip(keys)
            .map(|(r, key)| {
                xability_core::Request::new(xability_core::ActionId::base(r.action.clone()), key)
            })
            .collect();
        let r3 = r3_violation_for(&ledger, &submitted);

        // R4: every result delivered to the client is a possible reply.
        let service_actor = world
            .actor_as::<ServiceActor>(ProcessId(self.replicas))
            .expect("service exists");
        let mut by_id: BTreeMap<&str, &LogicalRequest> = BTreeMap::new();
        for req in requests {
            by_id.entry(&req.id).or_insert(req);
        }
        let mut r4_ok = true;
        for (req_id, result) in &results {
            if let Some(req) = by_id.get(req_id.as_str()) {
                if !service_actor
                    .core()
                    .is_possible_reply(&req.action, &req.payload, result)
                {
                    r4_ok = false;
                }
            }
        }

        let mut replica_metrics = ReplicaMetrics::default();
        let mut quiescent = true;
        if self.scheme == Scheme::XAble {
            for &id in replica_ids {
                if let Some(r) = world.actor_as::<XReplica>(id) {
                    // Crashed replicas count too: an invocation stranded by
                    // a crash is an unresolved obligation the cleaner would
                    // eventually resolve (help-commit or cancel) — a cut
                    // before that is mid-recovery, not a complete
                    // execution.
                    if r.pending_invocations() > 0 {
                        quiescent = false;
                    }
                    let m = r.metrics();
                    replica_metrics.executions += m.executions;
                    replica_metrics.cancels += m.cancels;
                    replica_metrics.commits += m.commits;
                    replica_metrics.rounds_owned += m.rounds_owned;
                    replica_metrics.cleanings += m.cleanings;
                    replica_metrics.replies_sent += m.replies_sent;
                    replica_metrics.transient_failures += m.transient_failures;
                    replica_metrics.terminal_failures += m.terminal_failures;
                    replica_metrics.invoke_retransmits += m.invoke_retransmits;
                }
            }
        }

        let history_len = ledger.borrow().event_count();
        // Snapshot last: the R3 evaluation above drives the ledger's
        // monitor, whose verdict-lag histogram must be in the snapshot.
        let metrics = obs.snapshot();
        RunReport {
            scheme: self.scheme,
            seed: self.seed,
            total_requests: requests.len(),
            completed_requests: completed,
            finished,
            client: client_metrics,
            latencies,
            results,
            exactly_once_violations,
            r3_verdict: r3.verdict,
            r3_violation: r3.violation,
            r3_checked_online: r3.decided_online,
            r4_ok,
            replica_metrics,
            sim: *world.metrics(),
            history_len,
            end_time: world.now(),
            quiescent,
            submitted,
            ledger,
            metrics,
        }
    }
}

/// The result of an R3 evaluation against a ledger.
#[derive(Debug)]
pub struct R3Outcome {
    /// The verdict that was evaluated.
    pub verdict: Verdict,
    /// The verdict as a violation, if any (`None` = the history is
    /// x-able): [`r3_violation`] of [`verdict`](Self::verdict).
    pub violation: Option<Violation>,
    /// Whether the ledger's online monitor decided the question (as
    /// opposed to answering `Unknown`, or there being no monitor).
    pub decided_online: bool,
}

/// Evaluates R3 for a submitted request sequence against a ledger.
///
/// The ledger's online [`Decider`](xability_core::xable::Decider)
/// monitor observed every event during the run as a cursor over the
/// ledger's shared trace store, so its verdict is the fast tier's answer
/// over the whole history: a definite one is final, and an `Unknown` is
/// handed to [`escalate`] (reading the same store through a zero-copy
/// view) rather than decided again. Only a ledger without a monitor is
/// checked cold, by [`check_r3`].
///
/// Idempotent across calls on the same ledger as long as `submitted` only
/// ever *extends* the previously evaluated sequence: already-declared
/// requests are not re-declared into the monitor.
pub fn r3_violation_for(ledger: &SharedLedger, submitted: &[xability_core::Request]) -> R3Outcome {
    let online = {
        let mut guard = ledger.borrow_mut();
        guard.declare_requests(submitted);
        guard.monitor_verdict()
    };
    let ledger = ledger.borrow();
    let history = ledger.history();
    let (verdict, decided_online) = match online {
        Some(verdict) if !verdict.is_unknown() => (verdict, true),
        Some(undecided) => (escalate(&history, submitted, undecided), false),
        None => (check_r3(submitted, &history), false),
    };
    R3Outcome {
        violation: r3_violation(&verdict),
        verdict,
        decided_online,
    }
}

/// The outcome of one scenario run.
#[derive(Debug)]
pub struct RunReport {
    /// Scheme that ran.
    pub scheme: Scheme,
    /// Seed that ran.
    pub seed: u64,
    /// Requests planned.
    pub total_requests: usize,
    /// Requests the client completed.
    pub completed_requests: usize,
    /// Whether the client finished before the horizon.
    pub finished: bool,
    /// Client counters.
    pub client: ClientMetrics,
    /// Per-request submit→result latency.
    pub latencies: Vec<SimDuration>,
    /// Results the client received.
    pub results: Vec<(String, Value)>,
    /// Exactly-once violations found in the ledger (empty = exactly-once).
    pub exactly_once_violations: Vec<String>,
    /// The R3 verdict that was evaluated.
    pub r3_verdict: Verdict,
    /// The R3 verdict as a violation (`None` = history is x-able):
    /// [`r3_violation`] of [`r3_verdict`](Self::r3_verdict).
    pub r3_violation: Option<Violation>,
    /// Whether the online incremental monitor *decided* R3 (as opposed to
    /// answering `Unknown`, whose escalation then gave the verdict).
    pub r3_checked_online: bool,
    /// R4 verdict.
    pub r4_ok: bool,
    /// Aggregated replica counters (x-able scheme only).
    pub replica_metrics: ReplicaMetrics,
    /// Simulator counters.
    pub sim: SimMetrics,
    /// Number of formal events observed.
    pub history_len: usize,
    /// Simulated completion time.
    pub end_time: SimTime,
    /// Whether every live replica had resolved all external invocations by
    /// the end of the run. When `false`, the recorded history is a
    /// mid-flight cut of the execution, not a complete one — R3 verdicts on
    /// it reflect the cut, not the protocol (e.g. a commit retransmission
    /// that the horizon interrupted).
    pub quiescent: bool,
    /// The request sequence R3 was evaluated against (for trace dumps and
    /// re-checks).
    pub submitted: Vec<xability_core::Request>,
    /// The shared ledger (for deeper inspection).
    pub ledger: SharedLedger,
    /// The run's deterministic metrics snapshot: transport link counters,
    /// replica round lifecycle, checker dirty-set/verdict histograms,
    /// ledger ingest/spill stats, and causal spans (request, replica
    /// round, consensus decide, monitor verdict). A pure function of
    /// (scenario, seed) — byte-identical across repeat runs.
    pub metrics: MetricsSnapshot,
}

impl RunReport {
    /// Dumps the run's trace — the submitted request sequence plus the
    /// ledger's full event stream — to `path` in the versioned binary
    /// trace format, so the run can be replayed and re-checked offline
    /// (`xability_store::read_trace`). The meta section carries the run's
    /// provenance: `scheme`, `seed`, and the run's metrics snapshot as
    /// JSON under `metrics`, so a dumped trace keeps the observability
    /// record of the run that produced it.
    pub fn write_trace(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let meta = [
            ("scheme".to_string(), format!("{:?}", self.scheme)),
            ("seed".to_string(), self.seed.to_string()),
            ("metrics".to_string(), self.metrics.to_json()),
        ];
        write_trace_file_with_meta(path, &self.submitted, self.ledger.borrow().store(), &meta)
    }

    /// `true` when the run satisfied every checked obligation.
    pub fn is_correct(&self) -> bool {
        self.finished
            && self.exactly_once_violations.is_empty()
            && self.r3_violation.is_none()
            && self.r4_ok
    }

    /// Mean latency in microseconds (0 when no request completed).
    pub fn mean_latency_micros(&self) -> u64 {
        if self.latencies.is_empty() {
            return 0;
        }
        self.latencies.iter().map(|d| d.as_micros()).sum::<u64>() / self.latencies.len() as u64
    }
}
