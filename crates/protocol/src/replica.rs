//! The x-able replica: Figures 6 and 7 of the paper as an event-driven
//! state machine.
//!
//! The paper's pseudo-code is written with blocking calls (`receive`,
//! `propose`, action execution). Our simulator is event-driven, so every
//! blocking point becomes an explicit continuation:
//!
//! | Paper (Fig. 6/7) | Here |
//! |---|---|
//! | `receive [Request,req]` main loop | [`XReplica::on_message`] on [`ProtoMsg::ClientRequest`] |
//! | `owner-agreement[round].propose(my-id,req,client)` | proposal with `Intent::OwnRound` (private); the continuation runs in `on_decision` |
//! | `execute-until-success(req)` | `Pending::Execute` + retry logic in `on_invoke_reply` |
//! | `result-coordination(req, res-val)` (execution mode) | proposals with `Intent::ExecResult` / `Intent::ExecOutcome` |
//! | `result-coordination(req, empty-result)` (cleaning mode) | proposals with `Intent::CleanResult` / `Intent::CleanOutcome` |
//! | `execute-until-success(cancel(req))` / `(commit(req))` | `Pending::Cancel` / `Pending::Commit` with retries |
//! | `cleaner()` loop | the cleaning scan in `on_timer` / `on_suspicion` |
//!
//! ## Deviations from the paper's pseudo-code (see DESIGN.md)
//!
//! 1. **Per-round result agreement.** `result-agreement` is indexed by
//!    `(request, round)` like `outcome-agreement`. With the per-request
//!    reading, a cleaning-mode `empty-result` would permanently prevent any
//!    round from fixing a result, starving the client (violating R2).
//!    Cross-round result consistency is guaranteed by the external
//!    service's request-keyed deduplication — which is also what makes the
//!    resulting event history reducible under rule 18 (equal outputs).
//! 2. **Cleaner delivery.** A cleaner that finds an already-agreed result
//!    delivers it to the client. Otherwise an owner crash between agreement
//!    and reply would starve the client.
//! 3. **Round-per-attempt for undoable actions.** An owner that sees a
//!    transient failure of an undoable action aborts its round (cancel +
//!    outcome agreement) and retries in a fresh round, rather than retrying
//!    inside the round. This is forced by *round poisoning* at the service:
//!    a cancellation must tombstone its round, or a delayed execution
//!    arriving after a cleaner's cancellation would leave a dangling
//!    tentative effect that no one ever cancels (an R3 violation the
//!    paper's pseudo-code does not address).
//!
//! The protocol's "asynchronous flavour" (§5.1) survives intact: in
//! suspicion-free runs a request is processed entirely by the replica that
//! received it (primary-backup flavour); under false suspicions several
//! replicas run rounds concurrently (active-replication flavour), with the
//! consensus objects arbitrating exactly-once semantics.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use xability_consensus::{ConsensusEngine, CtxNet, InstanceId};
use xability_core::Value;
use xability_obs::{Counter, Obs};
use xability_services::InvokeOutcome;
use xability_sim::{Actor, Context, ProcessId, SimDuration, TimerId};

use crate::messages::{
    outcome_instance, owner_instance, parse_instance, result_instance, Decision, LogicalRequest,
    ProtoMsg,
};

/// Counters describing one replica's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaMetrics {
    /// `execute` invocations sent to external services.
    pub executions: u64,
    /// `cancel` invocations sent.
    pub cancels: u64,
    /// `commit` invocations sent.
    pub commits: u64,
    /// Rounds this replica owned (won owner agreement for).
    pub rounds_owned: u64,
    /// Cleaning procedures initiated.
    pub cleanings: u64,
    /// Results sent to clients.
    pub replies_sent: u64,
    /// Transient invocation failures observed.
    pub transient_failures: u64,
    /// Terminal invocation failures observed (poisoned rounds).
    pub terminal_failures: u64,
    /// Invocations retransmitted after going unanswered (lost messages).
    pub invoke_retransmits: u64,
}

/// The replica's activity counters as registry instruments, keyed by the
/// replica id (`"r0"`). A fresh replica binds them against a private
/// registry so [`XReplica::metrics`] works standalone;
/// [`XReplica::attach_obs`] rebinds them to a shared registry before the
/// run starts, turning [`ReplicaMetrics`] into a view over that registry.
#[derive(Debug)]
struct ReplicaObs {
    obs: Obs,
    executions: Counter,
    cancels: Counter,
    commits: Counter,
    rounds_owned: Counter,
    cleanings: Counter,
    replies_sent: Counter,
    transient_failures: Counter,
    terminal_failures: Counter,
    invoke_retransmits: Counter,
}

impl ReplicaObs {
    fn bind(obs: Obs, me: ProcessId) -> Self {
        let key = format!("r{}", me.0);
        ReplicaObs {
            executions: obs.counter_keyed("replica.executions", &key),
            cancels: obs.counter_keyed("replica.cancels", &key),
            commits: obs.counter_keyed("replica.commits", &key),
            rounds_owned: obs.counter_keyed("replica.rounds_owned", &key),
            cleanings: obs.counter_keyed("replica.cleanings", &key),
            replies_sent: obs.counter_keyed("replica.replies_sent", &key),
            transient_failures: obs.counter_keyed("replica.transient_failures", &key),
            terminal_failures: obs.counter_keyed("replica.terminal_failures", &key),
            invoke_retransmits: obs.counter_keyed("replica.invoke_retransmits", &key),
            obs,
        }
    }
}

/// Per-request bookkeeping.
#[derive(Debug)]
struct RequestState {
    /// Shared with the owner-agreement messages that carried it here: one
    /// allocation per submission, not one per replica.
    req: Arc<LogicalRequest>,
    client: ProcessId,
    /// Every client incarnation that submitted this request to this
    /// replica; results are delivered to all of them (resubmitted requests
    /// come from fresh stubs — R1 makes this safe).
    extra_clients: BTreeSet<ProcessId>,
    /// Known owners per round (from owner-agreement decisions).
    rounds: BTreeMap<u64, ProcessId>,
    /// The agreed result, once known.
    result: Option<Value>,
    /// Rounds this replica initiated cleaning for.
    cleaning: BTreeSet<u64>,
    /// Rounds this replica owns and has started executing.
    owned: BTreeSet<u64>,
    /// Whether this replica already sent the result to the client.
    delivered_by_me: bool,
    /// Whether a client submitted this request directly to this replica
    /// (if so, this replica owes a reply once it learns the result).
    received_directly: bool,
}

impl RequestState {
    /// The highest known round and its owner.
    fn top(&self) -> Option<(u64, ProcessId)> {
        self.rounds.iter().next_back().map(|(&r, &o)| (r, o))
    }

    /// Whether a cleaner pass has nothing left to do for this request at
    /// `round`: the result is known and delivered from here, and (for an
    /// undoable action) this replica already ran the round's cleaning. A
    /// round cleaned *before* the result was learned is not inert — the
    /// next pass still owes the client the deviation-2 reply.
    fn inert_at(&self, round: u64) -> bool {
        self.result.is_some()
            && self.delivered_by_me
            && (!self.req.action.is_undoable() || self.cleaning.contains(&round))
    }
}

/// What a consensus decision was proposed *for* (the continuation).
#[derive(Debug, Clone)]
enum Intent {
    /// `process-request`: proposed myself as owner of a round.
    OwnRound,
    /// Execution-mode result coordination (idempotent action).
    ExecResult { req_id: String, round: u64 },
    /// Execution-mode outcome coordination (undoable action, proposing
    /// commit).
    ExecOutcome { req_id: String, round: u64 },
    /// Owner-side abort after a failed execution (undoable action).
    AbortOutcome { req_id: String, round: u64 },
    /// Cleaning-mode result coordination (idempotent action).
    CleanResult { req_id: String, round: u64 },
    /// Cleaning-mode outcome coordination (undoable action, proposing
    /// abort).
    CleanOutcome { req_id: String, round: u64 },
}

/// One in-flight external invocation: the message (kept so it can be
/// retransmitted) plus its continuation.
#[derive(Debug, Clone)]
struct InFlight {
    service: ProcessId,
    sreq: xability_services::ServiceRequest,
    continuation: Pending,
    /// Ticks since the invocation was (re)sent.
    ticks_waiting: u32,
}

/// In-flight external invocations (the blocking points of Fig. 7).
#[derive(Debug, Clone)]
enum Pending {
    Execute {
        req_id: String,
        round: u64,
    },
    Cancel {
        req_id: String,
        round: u64,
    },
    Commit {
        req_id: String,
        round: u64,
        value: Value,
        deliver: bool,
    },
}

/// Configuration of an x-able replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XReplicaConfig {
    /// Periodic driver interval (consensus round timeouts, cleaning scan).
    pub tick: SimDuration,
    /// Consensus round timeout (passed to the engine).
    pub consensus_round_timeout: SimDuration,
    /// Ticks an external invocation may go unanswered before it is
    /// retransmitted. The paper assumes quasi-reliable channels, but the
    /// simulator's fault model can lose an `Invoke` or its reply outright;
    /// `execute-until-success` (Fig. 7) then requires retransmission, or a
    /// single lost message would strand the round forever. Must exceed the
    /// worst-case healthy round trip (two spiked message legs) so healthy
    /// runs never retransmit.
    pub invoke_retry_ticks: u32,
    /// **Test-only planted weakness**: when an outcome agreement decides
    /// *abort*, skip the cancellation invocation and proceed straight to
    /// the next round — the unsound "retry without cancel" rule that
    /// deviation 3 (round-per-attempt, forced by round poisoning) exists
    /// to rule out. A transient failure *after* the effect then leaves a
    /// dangling tentative effect that nothing ever erases: an R3
    /// violation (`NotXable`) and an exactly-once violation. Exists so
    /// the coverage-guided explorer (`harness::explore`) has a real,
    /// deterministically discoverable bug to find and shrink; never set
    /// outside tests.
    pub unsound_skip_abort_cancel: bool,
}

impl Default for XReplicaConfig {
    fn default() -> Self {
        XReplicaConfig {
            tick: SimDuration::from_millis(10),
            consensus_round_timeout: SimDuration::from_millis(80),
            // 600ms at the default 10ms tick: above the ~500ms worst-case
            // spiked round trip, so only genuinely lost messages retry.
            invoke_retry_ticks: 60,
            unsound_skip_abort_cancel: false,
        }
    }
}

/// A replica running the paper's general replication algorithm (§5).
#[derive(Debug)]
pub struct XReplica {
    me: ProcessId,
    engine: ConsensusEngine<Decision>,
    config: XReplicaConfig,
    requests: BTreeMap<String, RequestState>,
    /// The cleaner's index: request ids filed under the owner of their
    /// highest known round, so a pass visits only what suspected owners
    /// left behind. A request is re-filed when a higher round's owner is
    /// learned and dropped once a pass finds it inert at its top round.
    by_owner: BTreeMap<ProcessId, BTreeSet<String>>,
    intents: BTreeMap<InstanceId, Intent>,
    pending: BTreeMap<u64, InFlight>,
    /// Results learned before the request itself (decision reordering).
    orphan_results: BTreeMap<String, Value>,
    next_invocation: u64,
    obs: ReplicaObs,
}

impl XReplica {
    /// Creates a replica. `peers` are the replica processes (not clients or
    /// services), identical at every replica.
    pub fn new(me: ProcessId, peers: Vec<ProcessId>, config: XReplicaConfig) -> Self {
        XReplica {
            me,
            engine: ConsensusEngine::new(me, peers, config.consensus_round_timeout),
            config,
            requests: BTreeMap::new(),
            by_owner: BTreeMap::new(),
            intents: BTreeMap::new(),
            pending: BTreeMap::new(),
            orphan_results: BTreeMap::new(),
            next_invocation: 0,
            obs: ReplicaObs::bind(Obs::new(), me),
        }
    }

    /// Rebinds this replica's counters (and round spans) to a shared
    /// metrics registry, keyed `"r<id>"`. Call before the run starts;
    /// counts recorded against the private default registry are not
    /// carried over.
    pub fn attach_obs(&mut self, obs: &Obs) {
        self.obs = ReplicaObs::bind(obs.clone(), self.me);
    }

    /// This replica's activity counters: a point-in-time view over the
    /// attached metrics registry.
    pub fn metrics(&self) -> ReplicaMetrics {
        ReplicaMetrics {
            executions: self.obs.executions.get(),
            cancels: self.obs.cancels.get(),
            commits: self.obs.commits.get(),
            rounds_owned: self.obs.rounds_owned.get(),
            cleanings: self.obs.cleanings.get(),
            replies_sent: self.obs.replies_sent.get(),
            transient_failures: self.obs.transient_failures.get(),
            terminal_failures: self.obs.terminal_failures.get(),
            invoke_retransmits: self.obs.invoke_retransmits.get(),
        }
    }

    /// The agreed result of a request, if known to this replica.
    pub fn request_result(&self, req_id: &str) -> Option<&Value> {
        self.requests.get(req_id)?.result.as_ref()
    }

    // ---- helpers ----

    fn ensure_request(
        &mut self,
        req: &Arc<LogicalRequest>,
        client: ProcessId,
    ) -> &mut RequestState {
        let orphan = self.orphan_results.remove(&req.id);
        if !self.requests.contains_key(&req.id) {
            let fresh = RequestState {
                req: Arc::clone(req),
                client,
                extra_clients: BTreeSet::new(),
                rounds: BTreeMap::new(),
                result: None,
                cleaning: BTreeSet::new(),
                owned: BTreeSet::new(),
                delivered_by_me: false,
                received_directly: false,
            };
            self.requests.insert(req.id.clone(), fresh);
        }
        let entry = self.requests.get_mut(&req.id).expect("just ensured");
        if entry.result.is_none() {
            entry.result = orphan;
        }
        entry
    }

    /// Delivers a passively learned result to clients that submitted the
    /// request directly to this replica (the owner path replies on its own;
    /// this covers replicas the client contacted that did not win
    /// ownership).
    fn deliver_to_local_submitters(&mut self, ctx: &mut Context<'_, ProtoMsg>, req_id: &str) {
        let Some(st) = self.requests.get(req_id) else {
            return;
        };
        if !st.received_directly || st.delivered_by_me {
            return;
        }
        if let Some(v) = st.result.clone() {
            self.reply(ctx, req_id, v);
        }
    }

    fn record_result(&mut self, req_id: &str, value: Value) {
        match self.requests.get_mut(req_id) {
            Some(st) => {
                if st.result.is_none() {
                    st.result = Some(value);
                }
            }
            None => {
                self.orphan_results
                    .entry(req_id.to_owned())
                    .or_insert(value);
            }
        }
    }

    fn reply(&mut self, ctx: &mut Context<'_, ProtoMsg>, req_id: &str, value: Value) {
        self.record_result(req_id, value.clone());
        let Some(st) = self.requests.get_mut(req_id) else {
            return;
        };
        st.delivered_by_me = true;
        let mut clients = st.extra_clients.clone();
        clients.insert(st.client);
        for client in clients {
            self.obs.replies_sent.inc();
            ctx.send(
                client,
                ProtoMsg::ClientResult {
                    req_id: req_id.to_owned(),
                    result: value.clone(),
                },
            );
        }
    }

    fn propose_with_intent(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        inst: InstanceId,
        value: Decision,
        intent: Intent,
    ) {
        self.intents.insert(inst.clone(), intent);
        let decided = {
            let mut net = CtxNet::new(ctx, ProtoMsg::Consensus);
            self.engine.propose(&mut net, inst.clone(), value)
        };
        if let Some(d) = decided {
            self.on_decision(ctx, inst, d);
        }
    }

    fn invoke(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        service: ProcessId,
        sreq: xability_services::ServiceRequest,
        pending: Pending,
    ) {
        let invocation = self.next_invocation;
        self.next_invocation += 1;
        self.pending.insert(
            invocation,
            InFlight {
                service,
                sreq: sreq.clone(),
                continuation: pending,
                ticks_waiting: 0,
            },
        );
        ctx.send(service, ProtoMsg::Invoke { invocation, sreq });
    }

    /// Retransmits invocations that have gone unanswered for
    /// `invoke_retry_ticks` ticks (lost `Invoke` or lost reply). Safe
    /// against a merely slow original: the service deduplicates effects per
    /// request key and round, and a second reply finds no pending entry.
    fn retransmit_stale_invokes(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        let mut retransmits = 0;
        for (&invocation, inflight) in self.pending.iter_mut() {
            inflight.ticks_waiting += 1;
            if inflight.ticks_waiting >= self.config.invoke_retry_ticks {
                inflight.ticks_waiting = 0;
                retransmits += 1;
                ctx.send(
                    inflight.service,
                    ProtoMsg::Invoke {
                        invocation,
                        sreq: inflight.sreq.clone(),
                    },
                );
            }
        }
        self.obs.invoke_retransmits.add(retransmits);
    }

    /// External invocations still awaiting a reply. A run is only
    /// *quiescent* — i.e. its recorded history is a complete execution
    /// rather than a mid-flight cut — when this is zero on every replica.
    pub fn pending_invocations(&self) -> usize {
        self.pending.len()
    }

    // ---- process-request (Fig. 6) ----

    /// Proposes this replica as owner of `round` for the request. The
    /// continuation (executing if we win) runs when owner agreement
    /// decides.
    fn process_request(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        req: Arc<LogicalRequest>,
        client: ProcessId,
        round: u64,
    ) {
        let inst = owner_instance(&req.id, round);
        self.ensure_request(&req, client);
        let proposal = Decision::Owner {
            owner: self.me,
            req,
            client,
        };
        self.propose_with_intent(ctx, inst, proposal, Intent::OwnRound);
    }

    fn start_execution(&mut self, ctx: &mut Context<'_, ProtoMsg>, req_id: &str, round: u64) {
        let Some(st) = self.requests.get_mut(req_id) else {
            return;
        };
        if st.result.is_some() || !st.owned.insert(round) {
            return;
        }
        let req = Arc::clone(&st.req);
        self.obs.rounds_owned.inc();
        self.obs.executions.inc();
        self.obs
            .obs
            .span_start("replica.round", req_id, round, ctx.now().as_micros());
        self.invoke(
            ctx,
            req.service,
            req.service_request(round),
            Pending::Execute {
                req_id: req_id.to_owned(),
                round,
            },
        );
    }

    /// Closes the `replica.round` span for a round this replica owns
    /// (no-op for rounds executed elsewhere, so helping a commit or
    /// cleaning a foreign round never fabricates a span).
    fn end_round_span(&mut self, ctx: &Context<'_, ProtoMsg>, req_id: &str, round: u64) {
        if self
            .requests
            .get(req_id)
            .is_some_and(|st| st.owned.contains(&round))
        {
            self.obs
                .obs
                .span_end("replica.round", req_id, round, ctx.now().as_micros());
        }
    }

    fn start_next_round(&mut self, ctx: &mut Context<'_, ProtoMsg>, req_id: &str, next: u64) {
        let Some(st) = self.requests.get(req_id) else {
            return;
        };
        if st.result.is_some() || st.rounds.contains_key(&next) {
            return;
        }
        let (req, client) = (Arc::clone(&st.req), st.client);
        self.process_request(ctx, req, client, next);
    }

    // ---- the cleaner (Fig. 6, bottom) ----

    /// One pass of the cleaner: for every request whose highest-round owner
    /// is suspected, run cleaning-mode result coordination (or deliver the
    /// already-known result). Visits the suspected owners' filed requests
    /// in ascending request-id order — the order of a walk over `requests`.
    fn cleaning_scan(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        let mut candidates: Vec<(String, u64, ProcessId)> = Vec::new();
        for &owner in ctx.suspected_set().iter().filter(|&&o| o != self.me) {
            for id in self.by_owner.get(&owner).into_iter().flatten() {
                let (round, _) = self.requests[id].top().expect("filed with a round");
                candidates.push((id.clone(), round, owner));
            }
        }
        candidates.sort_unstable();
        debug_assert!(
            candidates
                .iter()
                .filter(|(id, round, _)| !self.requests[id].inert_at(*round))
                .cloned()
                .eq(self.requests.iter().filter_map(|(id, st)| {
                    let (round, owner) = st.top()?;
                    (owner != self.me && ctx.suspects(owner) && !st.inert_at(round))
                        .then(|| (id.clone(), round, owner))
                })),
            "the index lists what a scan of every request would act on, in its order"
        );
        for (req_id, round, owner) in candidates {
            let st = self.requests.get(&req_id).expect("listed");
            // A pass changes only requests it has already visited.
            debug_assert_eq!(st.top(), Some((round, owner)));
            if st.inert_at(round) {
                if let Some(filed) = self.by_owner.get_mut(&owner) {
                    filed.remove(&req_id);
                }
                continue;
            }
            let undoable = st.req.action.is_undoable();
            if let Some(v) = st.result.clone() {
                // Deviation 2: the owner may have crashed after agreement
                // but before replying; deliver the agreed result once.
                if !st.delivered_by_me {
                    self.reply(ctx, &req_id, v);
                }
                if !undoable {
                    continue;
                }
                // A known result does NOT mean the round is resolved: the
                // owner may have crashed after outcome agreement but
                // before its commit (or cancel) invocation landed,
                // leaving the round's tentative effect dangling (an R3
                // violation if never resolved). Fall through to the
                // cleaning-mode outcome coordination below — its
                // continuation helps the commit (idempotent, rule 20) or
                // cancels the round.
            }
            let st = self.requests.get_mut(&req_id).expect("listed");
            if !st.cleaning.insert(round) {
                continue;
            }
            self.obs.cleanings.inc();
            if undoable {
                self.propose_with_intent(
                    ctx,
                    outcome_instance(&req_id, round),
                    Decision::Outcome {
                        abort: true,
                        value: None,
                    },
                    Intent::CleanOutcome {
                        req_id: req_id.clone(),
                        round,
                    },
                );
            } else {
                self.propose_with_intent(
                    ctx,
                    result_instance(&req_id, round),
                    Decision::ResultAgreed(None),
                    Intent::CleanResult {
                        req_id: req_id.clone(),
                        round,
                    },
                );
            }
        }
    }

    // ---- decision continuations ----

    fn on_decisions(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        decided: Vec<(InstanceId, Decision)>,
    ) {
        for (inst, dec) in decided {
            self.on_decision(ctx, inst, dec);
        }
    }

    fn on_decision(&mut self, ctx: &mut Context<'_, ProtoMsg>, inst: InstanceId, dec: Decision) {
        let intent = self.intents.remove(&inst);

        // Causal waypoint: a decision landing for an instance this replica
        // proposed (one event per proposer, not one per learner).
        if intent.is_some() {
            if let Some((_, req_id, round)) = parse_instance(&inst) {
                self.obs
                    .obs
                    .span_event("consensus.decide", req_id, round, ctx.now().as_micros());
            }
        }

        // Passive learning: every replica tracks owners and results from
        // decisions regardless of who proposed.
        match (&dec, parse_instance(&inst)) {
            (Decision::Owner { owner, req, client }, Some(("owner", _, round))) => {
                let (owner, client) = (*owner, *client);
                let req_id = req.id.as_str();
                let st = self.ensure_request(req, client);
                let prev_top = st.top();
                st.rounds.insert(round, owner);
                if prev_top.map_or(true, |(top, _)| round > top) {
                    if let Some(filed) = prev_top.and_then(|(_, o)| self.by_owner.get_mut(&o)) {
                        filed.remove(req_id);
                    }
                    self.by_owner
                        .entry(owner)
                        .or_default()
                        .insert(req_id.to_owned());
                }
                if owner == self.me {
                    self.start_execution(ctx, req_id, round);
                }
            }
            (Decision::ResultAgreed(Some(v)), Some(("result", req_id, _))) => {
                let (req_id, v) = (req_id.to_owned(), v.clone());
                self.record_result(&req_id, v);
                self.deliver_to_local_submitters(ctx, &req_id);
            }
            (
                Decision::Outcome {
                    abort: false,
                    value: Some(v),
                },
                Some(("outcome", req_id, _)),
            ) => {
                let (req_id, v) = (req_id.to_owned(), v.clone());
                self.record_result(&req_id, v);
                self.deliver_to_local_submitters(ctx, &req_id);
            }
            _ => {}
        }

        // Intent continuations (the blocked pseudo-code resuming).
        match intent {
            None | Some(Intent::OwnRound) => {}
            Some(Intent::ExecResult { req_id, round }) => {
                self.end_round_span(ctx, &req_id, round);
                match dec {
                    Decision::ResultAgreed(Some(v)) => self.reply(ctx, &req_id, v),
                    // A cleaner blocked this round's result; it drives the
                    // next round. We executed, but must not respond
                    // (res-val == empty-result in Fig. 6).
                    Decision::ResultAgreed(None) => {}
                    _ => {}
                }
            }
            Some(Intent::ExecOutcome { req_id, round })
            | Some(Intent::AbortOutcome { req_id, round }) => match dec {
                Decision::Outcome { abort: true, .. } => {
                    self.abort_round(ctx, &req_id, round);
                }
                Decision::Outcome {
                    abort: false,
                    value: Some(v),
                } => {
                    self.start_commit(ctx, &req_id, round, v, true);
                }
                _ => {}
            },
            Some(Intent::CleanResult { req_id, round }) => match dec {
                Decision::ResultAgreed(Some(v)) => self.reply(ctx, &req_id, v),
                Decision::ResultAgreed(None) => {
                    self.start_next_round(ctx, &req_id, round + 1);
                }
                _ => {}
            },
            Some(Intent::CleanOutcome { req_id, round }) => match dec {
                Decision::Outcome { abort: true, .. } => {
                    self.abort_round(ctx, &req_id, round);
                }
                Decision::Outcome {
                    abort: false,
                    value: Some(v),
                } => {
                    // The owner committed; help the commit and deliver.
                    self.start_commit(ctx, &req_id, round, v, true);
                }
                _ => {}
            },
        }
    }

    // ---- execute-until-success / cancel / commit (Fig. 7) ----

    /// An outcome agreement decided abort: cancel the round, then (on
    /// cancel success) retry in a fresh round. With the test-only
    /// [`XReplicaConfig::unsound_skip_abort_cancel`] weakness planted, the
    /// cancel is skipped and its success continuation runs directly —
    /// leaving any post-effect tentative state dangling forever.
    fn abort_round(&mut self, ctx: &mut Context<'_, ProtoMsg>, req_id: &str, round: u64) {
        if self.config.unsound_skip_abort_cancel {
            self.start_next_round(ctx, req_id, round + 1);
        } else {
            self.start_cancel(ctx, req_id, round);
        }
    }

    fn start_cancel(&mut self, ctx: &mut Context<'_, ProtoMsg>, req_id: &str, round: u64) {
        let Some(st) = self.requests.get(req_id) else {
            return;
        };
        let req = Arc::clone(&st.req);
        self.obs.cancels.inc();
        self.invoke(
            ctx,
            req.service,
            req.service_request(round).to_cancel(),
            Pending::Cancel {
                req_id: req_id.to_owned(),
                round,
            },
        );
    }

    fn start_commit(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        req_id: &str,
        round: u64,
        value: Value,
        deliver: bool,
    ) {
        let Some(st) = self.requests.get(req_id) else {
            return;
        };
        let req = Arc::clone(&st.req);
        self.obs.commits.inc();
        self.invoke(
            ctx,
            req.service,
            req.service_request(round).to_commit(),
            Pending::Commit {
                req_id: req_id.to_owned(),
                round,
                value,
                deliver,
            },
        );
    }

    fn on_invoke_reply(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        invocation: u64,
        outcome: InvokeOutcome,
    ) {
        let Some(inflight) = self.pending.remove(&invocation) else {
            return;
        };
        match inflight.continuation {
            Pending::Execute { req_id, round } => match outcome {
                InvokeOutcome::Success(v) => {
                    let undoable = self
                        .requests
                        .get(&req_id)
                        .map(|st| st.req.action.is_undoable())
                        .unwrap_or(false);
                    if undoable {
                        self.propose_with_intent(
                            ctx,
                            outcome_instance(&req_id, round),
                            Decision::Outcome {
                                abort: false,
                                value: Some(v),
                            },
                            Intent::ExecOutcome { req_id, round },
                        );
                    } else {
                        self.propose_with_intent(
                            ctx,
                            result_instance(&req_id, round),
                            Decision::ResultAgreed(Some(v)),
                            Intent::ExecResult { req_id, round },
                        );
                    }
                }
                InvokeOutcome::Failure { terminal, .. } => {
                    if terminal {
                        self.obs.terminal_failures.inc();
                    } else {
                        self.obs.transient_failures.inc();
                    }
                    let undoable = self
                        .requests
                        .get(&req_id)
                        .map(|st| st.req.action.is_undoable())
                        .unwrap_or(false);
                    if undoable {
                        // Deviation 3: abort this round and retry in a fresh
                        // one (round poisoning makes within-round retry
                        // unsound).
                        self.propose_with_intent(
                            ctx,
                            outcome_instance(&req_id, round),
                            Decision::Outcome {
                                abort: true,
                                value: None,
                            },
                            Intent::AbortOutcome { req_id, round },
                        );
                    } else {
                        // Idempotent action: plain retry (Fig. 7).
                        let Some(st) = self.requests.get(&req_id) else {
                            return;
                        };
                        let req = Arc::clone(&st.req);
                        self.obs.executions.inc();
                        self.invoke(
                            ctx,
                            req.service,
                            req.service_request(round),
                            Pending::Execute { req_id, round },
                        );
                    }
                }
            },
            Pending::Cancel { req_id, round } => match outcome {
                InvokeOutcome::Success(_) => {
                    self.end_round_span(ctx, &req_id, round);
                    self.start_next_round(ctx, &req_id, round + 1);
                }
                InvokeOutcome::Failure {
                    terminal: false, ..
                } => {
                    self.obs.transient_failures.inc();
                    self.start_cancel(ctx, &req_id, round);
                }
                InvokeOutcome::Failure { terminal: true, .. } => {
                    // Cancel conflicts with an existing commit: impossible
                    // when outcome agreement decided abort (agreement), so
                    // this indicates a logic error; drop the flow.
                    self.obs.terminal_failures.inc();
                }
            },
            Pending::Commit {
                req_id,
                round,
                value,
                deliver,
            } => match outcome {
                InvokeOutcome::Success(_) => {
                    self.end_round_span(ctx, &req_id, round);
                    if deliver {
                        self.reply(ctx, &req_id, value);
                    } else {
                        self.record_result(&req_id, value);
                    }
                }
                InvokeOutcome::Failure {
                    terminal: false, ..
                } => {
                    self.obs.transient_failures.inc();
                    self.start_commit(ctx, &req_id, round, value, deliver);
                }
                InvokeOutcome::Failure { terminal: true, .. } => {
                    self.obs.terminal_failures.inc();
                }
            },
        }
    }
}

impl Actor<ProtoMsg> for XReplica {
    fn on_start(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        ctx.set_timer(self.config.tick);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ProtoMsg>, from: ProcessId, msg: ProtoMsg) {
        match msg {
            ProtoMsg::ClientRequest { req } => {
                // Fig. 6 main loop: req.round := 1; process-request.
                if let Some(st) = self.requests.get_mut(&req.id) {
                    // Remember this (possibly new) client incarnation.
                    st.received_directly = true;
                    if st.client != from {
                        st.extra_clients.insert(from);
                    }
                    if let Some(v) = st.result.clone() {
                        // Resubmission of a completed request: submit is
                        // idempotent (R1) — answer with the agreed result.
                        self.obs.replies_sent.inc();
                        ctx.send(
                            from,
                            ProtoMsg::ClientResult {
                                req_id: req.id.clone(),
                                result: v,
                            },
                        );
                        return;
                    }
                    // Known and in progress: the owner/cleaner machinery is
                    // already responsible for it.
                    return;
                }
                let req = Arc::new(req);
                self.process_request(ctx, Arc::clone(&req), from, 1);
                if let Some(st) = self.requests.get_mut(&req.id) {
                    st.received_directly = true;
                }
            }
            ProtoMsg::Consensus(cm) => {
                let decided = {
                    let mut net = CtxNet::new(ctx, ProtoMsg::Consensus);
                    self.engine.on_message(&mut net, from, cm)
                };
                self.on_decisions(ctx, decided);
            }
            ProtoMsg::InvokeReply {
                invocation,
                outcome,
            } => {
                self.on_invoke_reply(ctx, invocation, outcome);
            }
            // Not part of this protocol (baseline traffic / client-bound).
            ProtoMsg::ClientResult { .. } | ProtoMsg::Invoke { .. } | ProtoMsg::Forward { .. } => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ProtoMsg>, _timer: TimerId) {
        let decided = {
            let mut net = CtxNet::new(ctx, ProtoMsg::Consensus);
            self.engine.on_tick(&mut net)
        };
        self.on_decisions(ctx, decided);
        self.cleaning_scan(ctx);
        self.retransmit_stale_invokes(ctx);
        ctx.set_timer(self.config.tick);
    }

    fn on_suspicion(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        _subject: ProcessId,
        suspected: bool,
    ) {
        if suspected {
            self.cleaning_scan(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    use rand::rngs::StdRng;
    use xability_consensus::ConsensusMsg;
    use xability_core::ActionName;
    use xability_services::{shared_ledger, BusinessLogic, ServiceConfig, ServiceCore};
    use xability_sim::{SimConfig, SimTime, World};

    use crate::{Client, ServiceActor};

    /// A scripted process: sends each `(delay, to, msg)` of its script and
    /// records what it receives.
    #[derive(Default)]
    struct Puppet {
        script: Vec<(SimDuration, ProcessId, ProtoMsg)>,
        timers: BTreeMap<TimerId, usize>,
        received: Vec<ProtoMsg>,
    }

    impl Actor<ProtoMsg> for Puppet {
        fn on_start(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
            for (i, (delay, _, _)) in self.script.iter().enumerate() {
                self.timers.insert(ctx.set_timer(*delay), i);
            }
        }

        fn on_message(&mut self, _: &mut Context<'_, ProtoMsg>, _: ProcessId, msg: ProtoMsg) {
            self.received.push(msg);
        }

        fn on_timer(&mut self, ctx: &mut Context<'_, ProtoMsg>, timer: TimerId) {
            let (_, to, msg) = self.script[self.timers[&timer]].clone();
            ctx.send(to, msg);
        }
    }

    fn decide(instance: InstanceId, value: Decision) -> ProtoMsg {
        ProtoMsg::Consensus(ConsensusMsg::Decide { instance, value })
    }

    /// The cleaner's late-result obligation (deviation 2): the owner is
    /// suspected, this replica cleans its round with no result known, and
    /// the result is learned passively afterwards — decided in a later
    /// round whose owner this replica has not heard of, so the request
    /// stays under the suspected owner. The next pass owes the client
    /// exactly one reply; an index that forgot the request after its first
    /// visit would starve the client.
    #[test]
    fn result_learned_after_cleaning_is_delivered_by_the_next_pass() {
        let [owner, me, peer, client, service] = [0, 1, 2, 3, 4].map(ProcessId);
        let value = Value::from("the-result");
        for action in [
            ActionName::idempotent("issue"),
            ActionName::undoable("reserve"),
        ] {
            let req = LogicalRequest::new("req-0", action.clone(), Value::Nil, service);
            let late = if action.is_undoable() {
                let commit = Decision::Outcome {
                    abort: false,
                    value: Some(value.clone()),
                };
                decide(outcome_instance("req-0", 2), commit)
            } else {
                let agreed = Decision::ResultAgreed(Some(value.clone()));
                decide(result_instance("req-0", 2), agreed)
            };
            let owned = Decision::Owner {
                owner,
                req: Arc::new(req),
                client,
            };
            let script = vec![
                (
                    SimDuration::from_millis(1),
                    me,
                    decide(owner_instance("req-0", 1), owned),
                ),
                (SimDuration::from_millis(150), me, late),
            ];

            let mut world: World<ProtoMsg> = World::new(SimConfig::with_seed(7));
            world.add_process("owner", Box::new(Puppet::default()));
            let replica = XReplica::new(me, vec![owner, me, peer], XReplicaConfig::default());
            world.add_process("replica", Box::new(replica));
            let scripted = Puppet {
                script,
                ..Puppet::default()
            };
            world.add_process("peer", Box::new(scripted));
            world.add_process("client", Box::new(Puppet::default()));
            world.add_process("service", Box::new(Puppet::default()));
            world.schedule_crash(owner, SimTime::from_millis(5));

            // The owner is suspected and its round cleaned; no result yet,
            // so the request must stay filed under the suspected owner.
            world.run_until(SimTime::from_millis(140));
            let replica = world.actor_as::<XReplica>(me).expect("replica");
            assert!(world.suspected_by(me).contains(&owner));
            assert_eq!(replica.metrics().cleanings, 1);
            assert_eq!(replica.metrics().replies_sent, 0);
            assert!(replica.by_owner[&owner].contains("req-0"));

            // The result arrives; the next pass delivers it once, after
            // which the request is inert and leaves the index.
            world.run_until(SimTime::from_millis(400));
            let replica = world.actor_as::<XReplica>(me).expect("replica");
            assert_eq!(replica.request_result("req-0"), Some(&value));
            assert_eq!(replica.metrics().cleanings, 1);
            assert_eq!(replica.metrics().replies_sent, 1, "{action}");
            assert!(!replica.by_owner[&owner].contains("req-0"));
            let replies: Vec<&ProtoMsg> = world
                .actor_as::<Puppet>(client)
                .expect("client")
                .received
                .iter()
                .collect();
            assert!(
                matches!(replies[..], [ProtoMsg::ClientResult { req_id, result }]
                    if req_id == "req-0" && *result == value),
                "{action}: {replies:?}"
            );
        }
    }

    /// Business logic that keeps the payloads it is asked to apply.
    struct Recorder(Rc<RefCell<Vec<Value>>>);

    impl BusinessLogic for Recorder {
        fn name(&self) -> &str {
            "recorder"
        }

        fn actions(&self) -> Vec<ActionName> {
            vec![ActionName::undoable("reserve")]
        }

        fn apply(&mut self, _: &ActionName, _: &Value, payload: &Value, _: &mut StdRng) -> Value {
            self.0.borrow_mut().push(payload.clone());
            Value::from("done")
        }
    }

    /// The request path shares, end to end: the payload the service
    /// executes is the client's allocation, and all three replicas file the
    /// request under the one `LogicalRequest` the owner agreement decided.
    #[test]
    fn a_request_is_one_allocation_from_client_plan_to_service_and_replicas() {
        let replicas = [0, 1, 2].map(ProcessId);
        let [service, client] = [3, 4].map(ProcessId);
        let payload = Value::list([Value::pair(Value::from("seats"), Value::from(1))]);
        let plan: Vec<LogicalRequest> = (0..3)
            .map(|i| {
                let action = ActionName::undoable("reserve");
                LogicalRequest::new(format!("req-{i}"), action, payload.clone(), service)
            })
            .collect();

        let mut world: World<ProtoMsg> = World::new(SimConfig::with_seed(11));
        for id in replicas {
            let replica = XReplica::new(id, replicas.to_vec(), XReplicaConfig::default());
            world.add_process(format!("replica{}", id.0), Box::new(replica));
        }
        let applied = Rc::new(RefCell::new(Vec::new()));
        let logic = Box::new(Recorder(Rc::clone(&applied)));
        let core = ServiceCore::new(logic, ServiceConfig::default(), shared_ledger());
        world.add_process("service", Box::new(ServiceActor::new(core)));
        world.add_process("client", Box::new(Client::new(replicas.to_vec(), plan)));
        let done = |w: &World<ProtoMsg>| w.actor_as::<Client>(client).expect("client").is_done();
        assert!(world.run_while(|w| !done(w), SimTime::from_secs(10)));
        world.run_until(world.now() + SimDuration::from_millis(500));

        let same_list = |a: &Value, b: &Value| match (a, b) {
            (Value::List(a), Value::List(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        let plan = world.actor_as::<Client>(client).expect("client").plan();
        assert_eq!(applied.borrow().len(), plan.len());
        for (req, executed) in plan.iter().zip(applied.borrow().iter()) {
            assert!(same_list(&req.payload, executed), "{req}");
            assert!(same_list(&req.payload, &payload), "{req}");

            let first = world.actor_as::<XReplica>(replicas[0]).expect("replica");
            let decided = match first.engine.read(&owner_instance(&req.id, 1)) {
                Some(Decision::Owner { req, .. }) => req,
                other => panic!("{req}: owner agreement decided {other:?}"),
            };
            for id in replicas {
                let replica = world.actor_as::<XReplica>(id).expect("replica");
                assert!(Arc::ptr_eq(&replica.requests[&req.id].req, decided), "{id}");
            }
        }
    }
}
