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
//! | `owner-agreement[round].propose(my-id,req,client)` | a proposal on the instance `Owner[req, round]`; the continuation runs in `on_decision` |
//! | `execute-until-success(req)` | an `execute` invocation, retried in `on_invoke_reply` |
//! | `result-coordination(req, res-val)` (execution mode) | a proposal on `Result[req, round]` (idempotent) or `Outcome[req, round]` (undoable) for a round this replica owns |
//! | `result-coordination(req, empty-result)` (cleaning mode) | the same instances, proposed by the cleaner for a round owned elsewhere |
//! | `execute-until-success(cancel(req))` / `(commit(req))` | `cancel` / `commit` invocations with retries |
//! | `cleaner()` loop | the cleaning scan in `on_timer` / `on_suspicion` |
//!
//! A continuation stores nothing of its own: a decision's [`Instance`] key
//! holds its kind, request and round, and an invocation's retransmitted
//! [`ServiceRequest`] its operation, request and round.
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
use std::ops::{Index, IndexMut};
use std::sync::Arc;

use xability_consensus::{ConsensusEngine, CtxNet};
use xability_core::index::{hash_of, SymbolIndex};
use xability_core::Value;
use xability_obs::{Counter, Obs};
use xability_services::{InvokeOutcome, OpKind, ServiceRequest};
use xability_sim::{Actor, Context, ProcessId, SimDuration, TimerId};

use crate::messages::{Agreement, Decision, Instance, LogicalRequest, ProtoMsg, ReqKey};

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

/// Puts `x` at `at` in a sorted `Vec`, growing it one slot at a time: the
/// round sets of a request almost always hold a single entry.
fn insert_at<T>(set: &mut Vec<T>, at: usize, x: T) {
    set.reserve_exact(1);
    set.insert(at, x);
}

/// Inserts `x` into the sorted `set` unless it is there already, and says
/// whether it was new.
fn insert_sorted<T: Ord>(set: &mut Vec<T>, x: T) -> bool {
    match set.binary_search(&x) {
        Ok(_) => false,
        Err(at) => {
            insert_at(set, at, x);
            true
        }
    }
}

/// Per-request bookkeeping. The round sets are sorted `Vec`s.
#[derive(Debug)]
struct RequestState {
    /// Shared with the consensus instances of the request (their keys
    /// carried it here): one allocation per submission, not one per replica.
    req: Arc<LogicalRequest>,
    client: ProcessId,
    /// Every client incarnation that submitted this request to this
    /// replica; results are delivered to all of them (resubmitted requests
    /// come from fresh stubs — R1 makes this safe).
    extra_clients: BTreeSet<ProcessId>,
    /// Known owners per round (from owner-agreement decisions), by round.
    rounds: Vec<(u64, ProcessId)>,
    /// The agreed result, once known.
    result: Option<Value>,
    /// Rounds this replica initiated cleaning for.
    cleaning: Vec<u64>,
    /// Rounds this replica owns and has started executing.
    owned: Vec<u64>,
    /// Whether this replica already sent the result to the client.
    delivered_by_me: bool,
    /// Whether a client submitted this request directly to this replica
    /// (if so, this replica owes a reply once it learns the result).
    received_directly: bool,
}

impl RequestState {
    /// The highest known round and its owner.
    fn top(&self) -> Option<(u64, ProcessId)> {
        self.rounds.last().copied()
    }

    /// Whether the owner of `round` is known.
    fn knows_round(&self, round: u64) -> bool {
        self.rounds
            .binary_search_by_key(&round, |&(r, _)| r)
            .is_ok()
    }

    /// Records the owner of `round` (replacing one already known).
    fn learn_owner(&mut self, round: u64, owner: ProcessId) {
        match self.rounds.binary_search_by_key(&round, |&(r, _)| r) {
            Ok(at) => self.rounds[at].1 = owner,
            Err(at) => insert_at(&mut self.rounds, at, (round, owner)),
        }
    }

    /// Whether a cleaner pass has nothing left to do for this request at
    /// `round`: the result is known and delivered from here, and (for an
    /// undoable action) this replica already ran the round's cleaning. A
    /// round cleaned *before* the result was learned is not inert — the
    /// next pass still owes the client the deviation-2 reply.
    fn inert_at(&self, round: u64) -> bool {
        self.result.is_some()
            && self.delivered_by_me
            && (!self.req.action.is_undoable() || self.cleaning.binary_search(&round).is_ok())
    }
}

/// A replica's requests: a dense column of [`RequestState`]s, in the order
/// this replica first heard of them, and the workspace's id index over it,
/// so finding a request by id is one hashed probe. A request's row is its
/// *slot* at this replica for good: requests are never removed. Nothing
/// iterates the table in an order that reaches a message — the cleaner
/// sorts what it visits by id.
#[derive(Debug, Default)]
struct Requests {
    column: Vec<RequestState>,
    index: SymbolIndex,
}

impl Requests {
    /// The slot of the request with id `req_id`, if it is known here.
    fn slot(&self, req_id: &str) -> Option<u32> {
        let column = &self.column;
        self.index.find(hash_of(req_id), |slot| {
            column[slot as usize].req.id == req_id
        })
    }

    fn get(&self, req_id: &str) -> Option<&RequestState> {
        self.slot(req_id).map(|slot| &self[slot])
    }

    /// Files a request that is not known here, returning its slot.
    fn push(&mut self, st: RequestState) -> u32 {
        let hash = hash_of(st.req.id.as_str());
        let slot = u32::try_from(self.column.len()).expect("fewer than 2^32 requests");
        self.column.push(st);
        let column = &self.column;
        self.index.insert(hash, slot, |filed| {
            Some(hash_of(column[filed as usize].req.id.as_str()))
        });
        slot
    }
}

impl Index<u32> for Requests {
    type Output = RequestState;

    fn index(&self, slot: u32) -> &RequestState {
        &self.column[slot as usize]
    }
}

impl IndexMut<u32> for Requests {
    fn index_mut(&mut self, slot: u32) -> &mut RequestState {
        &mut self.column[slot as usize]
    }
}

/// One in-flight external invocation (a blocking point of Fig. 7): the
/// message, kept so it can be retransmitted, is also its continuation.
#[derive(Debug, Clone)]
struct InFlight {
    service: ProcessId,
    sreq: ServiceRequest,
    /// Ticks since the invocation was (re)sent.
    ticks_waiting: u32,
}

/// Periodic driver interval (consensus round timeouts, cleaning scan).
const TICK: SimDuration = SimDuration::from_millis(10);

/// Consensus round timeout (passed to the engine).
const CONSENSUS_ROUND_TIMEOUT: SimDuration = SimDuration::from_millis(80);

/// Ticks an external invocation may go unanswered before it is
/// retransmitted. The paper assumes quasi-reliable channels, but the
/// simulator's fault model can lose an `Invoke` or its reply outright;
/// `execute-until-success` (Fig. 7) then requires retransmission, or a
/// single lost message would strand the round forever. 600ms at the 10ms
/// [`TICK`] exceeds the ~500ms worst-case healthy round trip (two spiked
/// message legs), so healthy runs never retransmit.
const INVOKE_RETRY_TICKS: u32 = 60;

/// Configuration of an x-able replica.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct XReplicaConfig {
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

/// A replica running the paper's general replication algorithm (§5).
#[derive(Debug)]
pub struct XReplica {
    me: ProcessId,
    engine: ConsensusEngine<Decision, Instance>,
    config: XReplicaConfig,
    requests: Requests,
    /// The cleaner's index: request slots filed under the owner of their
    /// highest known round, so a pass visits only what suspected owners
    /// left behind. A request is re-filed when a higher round's owner is
    /// learned and dropped once a pass finds it inert at its top round.
    by_owner: BTreeMap<ProcessId, BTreeSet<u32>>,
    /// Instances this replica proposed and has not yet seen decided.
    awaiting: BTreeSet<Instance>,
    pending: BTreeMap<u64, InFlight>,
    /// Results learned before the request itself (decision reordering),
    /// keyed by the request their decision's instance carries.
    orphan_results: BTreeMap<ReqKey, Value>,
    next_invocation: u64,
    obs: ReplicaObs,
}

impl XReplica {
    /// Creates a replica. `peers` are the replica processes (not clients or
    /// services), identical at every replica.
    pub fn new(me: ProcessId, peers: Vec<ProcessId>, config: XReplicaConfig) -> Self {
        XReplica {
            me,
            engine: ConsensusEngine::new(me, peers, CONSENSUS_ROUND_TIMEOUT),
            config,
            requests: Requests::default(),
            by_owner: BTreeMap::new(),
            awaiting: BTreeSet::new(),
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

    /// The slot of `req`, filing it on first sight.
    fn ensure_request(&mut self, req: &Arc<LogicalRequest>, client: ProcessId) -> u32 {
        match self.requests.slot(&req.id) {
            Some(slot) => slot,
            None => self.file_request(req, client),
        }
    }

    /// Files a request that is not known here, with any result decided
    /// before it arrived, and returns its slot.
    fn file_request(&mut self, req: &Arc<LogicalRequest>, client: ProcessId) -> u32 {
        let result = self.orphan_results.remove(req.id.as_str());
        self.requests.push(RequestState {
            req: Arc::clone(req),
            client,
            extra_clients: BTreeSet::new(),
            rounds: Vec::new(),
            result,
            cleaning: Vec::new(),
            owned: Vec::new(),
            delivered_by_me: false,
            received_directly: false,
        })
    }

    /// Delivers a passively learned result to clients that submitted the
    /// request directly to this replica (the owner path replies on its own;
    /// this covers replicas the client contacted that did not win
    /// ownership).
    fn deliver_to_local_submitters(&mut self, ctx: &mut Context<'_, ProtoMsg>, slot: u32) {
        let st = &self.requests[slot];
        if !st.received_directly || st.delivered_by_me {
            return;
        }
        if let Some(v) = st.result.clone() {
            self.reply(ctx, slot, v);
        }
    }

    /// Records a decided result: on the request if it is known here
    /// (returning its slot), as an orphan under the decision's request
    /// otherwise.
    fn record_result(&mut self, req: &ReqKey, value: Value) -> Option<u32> {
        let Some(slot) = self.requests.slot(req.id()) else {
            self.orphan_results.entry(req.clone()).or_insert(value);
            return None;
        };
        self.requests[slot].result.get_or_insert(value);
        Some(slot)
    }

    /// Sends `value` to every client of a request, in id order, and
    /// records it as the result unless one is recorded already.
    fn reply(&mut self, ctx: &mut Context<'_, ProtoMsg>, slot: u32, value: Value) {
        let st = &mut self.requests[slot];
        st.result.get_or_insert_with(|| value.clone());
        st.delivered_by_me = true;
        // `extra_clients` never holds `client`: merge it in, in id order.
        let (client, extra) = (st.client, &st.extra_clients);
        let (below, above) = (extra.range(..client), extra.range(client..));
        for &client in below.chain([&client]).chain(above) {
            self.obs.replies_sent.inc();
            ctx.send(
                client,
                ProtoMsg::ClientResult {
                    req_id: st.req.id.clone(),
                    result: value.clone(),
                },
            );
        }
    }

    /// Proposes `value` on `kind[req, round]` of the request in `slot`,
    /// keyed by the request this replica files; the continuation runs in
    /// `on_decision`.
    fn propose(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        (kind, slot, round): (Agreement, u32, u64),
        value: Decision,
    ) {
        let req = ReqKey(Arc::clone(&self.requests[slot].req));
        let inst = Instance { kind, req, round };
        // Await first: a singleton group decides inside `propose`.
        self.awaiting.insert(inst.clone());
        let decided = {
            let mut net = CtxNet::new(ctx, ProtoMsg::Consensus);
            self.engine.propose(&mut net, inst.clone(), value)
        };
        if let Some(d) = decided {
            self.on_decision(ctx, inst, d);
        }
    }

    /// Sends an invocation under a fresh token, counted under its operation.
    fn invoke(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        service: ProcessId,
        sreq: ServiceRequest,
    ) {
        match sreq.op {
            OpKind::Execute => self.obs.executions.inc(),
            OpKind::Cancel => self.obs.cancels.inc(),
            OpKind::Commit => self.obs.commits.inc(),
        }
        let invocation = self.next_invocation;
        self.next_invocation += 1;
        self.pending.insert(
            invocation,
            InFlight {
                service,
                sreq: sreq.clone(),
                ticks_waiting: 0,
            },
        );
        ctx.send(service, ProtoMsg::Invoke { invocation, sreq });
    }

    /// Sends `op` for `round` of the request in `slot`.
    fn invoke_round(&mut self, ctx: &mut Context<'_, ProtoMsg>, slot: u32, round: u64, op: OpKind) {
        let st = &self.requests[slot];
        let (service, sreq) = (st.req.service, st.req.service_request(round));
        self.invoke(ctx, service, ServiceRequest { op, ..sreq });
    }

    /// Retransmits invocations that have gone unanswered for
    /// [`INVOKE_RETRY_TICKS`] ticks (lost `Invoke` or lost reply). Safe
    /// against a merely slow original: the service deduplicates effects per
    /// request key and round, and a second reply finds no pending entry.
    fn retransmit_stale_invokes(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        let mut retransmits = 0;
        for (&invocation, inflight) in self.pending.iter_mut() {
            inflight.ticks_waiting += 1;
            if inflight.ticks_waiting >= INVOKE_RETRY_TICKS {
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

    /// Proposes this replica as owner of `round` for the request in
    /// `slot`, on behalf of its client. The continuation (executing if we
    /// win) runs when owner agreement decides.
    fn process_request(&mut self, ctx: &mut Context<'_, ProtoMsg>, slot: u32, round: u64) {
        let proposal = Decision::Owner {
            owner: self.me,
            client: self.requests[slot].client,
        };
        self.propose(ctx, (Agreement::Owner, slot, round), proposal);
    }

    fn start_execution(&mut self, ctx: &mut Context<'_, ProtoMsg>, slot: u32, round: u64) {
        let st = &mut self.requests[slot];
        if st.result.is_some() || !insert_sorted(&mut st.owned, round) {
            return;
        }
        self.obs.rounds_owned.inc();
        self.obs
            .obs
            .span_start("replica.round", &st.req.id, round, ctx.now().as_micros());
        self.invoke_round(ctx, slot, round, OpKind::Execute);
    }

    /// Closes the `replica.round` span for a round this replica owns
    /// (no-op for rounds executed elsewhere, so helping a commit or
    /// cleaning a foreign round never fabricates a span).
    fn end_round_span(&mut self, ctx: &Context<'_, ProtoMsg>, slot: u32, round: u64) {
        let st = &self.requests[slot];
        if st.owned.binary_search(&round).is_ok() {
            self.obs
                .obs
                .span_end("replica.round", &st.req.id, round, ctx.now().as_micros());
        }
    }

    fn start_next_round(&mut self, ctx: &mut Context<'_, ProtoMsg>, slot: u32, next: u64) {
        let st = &self.requests[slot];
        if st.result.is_some() || st.knows_round(next) {
            return;
        }
        self.process_request(ctx, slot, next);
    }

    // ---- the cleaner (Fig. 6, bottom) ----

    /// One pass of the cleaner: for every request whose highest-round owner
    /// is suspected, run cleaning-mode result coordination (or send the
    /// already-known result). Visits the suspected owners' filed requests
    /// in ascending request-id order.
    fn cleaning_scan(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        let mut candidates: Vec<(u32, u64, ProcessId)> = Vec::new();
        for &owner in ctx.suspected_set().iter().filter(|&&o| o != self.me) {
            for &slot in self.by_owner.get(&owner).into_iter().flatten() {
                let (round, _) = self.requests[slot].top().expect("filed with a round");
                candidates.push((slot, round, owner));
            }
        }
        let requests = &self.requests;
        let id = |&(slot, ..): &(u32, u64, ProcessId)| requests[slot].req.id.as_str();
        candidates.sort_unstable_by(|a, b| id(a).cmp(id(b)));
        debug_assert!(
            {
                // Every request, in id order, that the pass acts on.
                let mut scan: Vec<_> = (0..requests.column.len() as u32)
                    .filter_map(|slot| {
                        let st = &requests[slot];
                        let (round, owner) = st.top()?;
                        (owner != self.me && ctx.suspects(owner) && !st.inert_at(round))
                            .then_some((slot, round, owner))
                    })
                    .collect();
                scan.sort_unstable_by(|a, b| id(a).cmp(id(b)));
                let listed = candidates
                    .iter()
                    .filter(|&&(slot, round, _)| !requests[slot].inert_at(round));
                listed.copied().eq(scan)
            },
            "the index lists what a scan of every request would act on, in its order"
        );
        for (slot, round, owner) in candidates {
            let st = &self.requests[slot];
            // A pass changes only requests it has already visited.
            debug_assert_eq!(st.top(), Some((round, owner)));
            if st.inert_at(round) {
                if let Some(filed) = self.by_owner.get_mut(&owner) {
                    filed.remove(&slot);
                }
                continue;
            }
            let undoable = st.req.action.is_undoable();
            if let Some(v) = st.result.clone() {
                // Deviation 2: the owner may have crashed after agreement
                // but before replying; send the agreed result once.
                if !st.delivered_by_me {
                    self.reply(ctx, slot, v);
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
            let st = &mut self.requests[slot];
            if !insert_sorted(&mut st.cleaning, round) {
                continue;
            }
            self.obs.cleanings.inc();
            if undoable {
                let abort = Decision::Outcome {
                    abort: true,
                    value: None,
                };
                self.propose(ctx, (Agreement::Outcome, slot, round), abort);
            } else {
                let empty = Decision::ResultAgreed(None);
                self.propose(ctx, (Agreement::Result, slot, round), empty);
            }
        }
    }

    // ---- decision continuations ----

    fn on_decisions(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        decided: Vec<(Instance, Decision)>,
    ) {
        for (inst, dec) in decided {
            self.on_decision(ctx, inst, dec);
        }
    }

    fn on_decision(&mut self, ctx: &mut Context<'_, ProtoMsg>, inst: Instance, dec: Decision) {
        let proposed = self.awaiting.remove(&inst);
        let (kind, round) = (inst.kind, inst.round);

        // Causal waypoint: a decision landing for an instance this replica
        // proposed (one event per proposer, not one per learner).
        if proposed {
            self.obs.obs.span_event(
                "consensus.decide",
                inst.req.id(),
                round,
                ctx.now().as_micros(),
            );
        }

        // Passive learning: every replica tracks owners and results from
        // decisions regardless of who proposed. Each arm that learns looks
        // the request up once and keeps its slot for the continuation.
        let learned = match (kind, &dec) {
            (Agreement::Owner, &Decision::Owner { owner, client }) => {
                let slot = self.ensure_request(&inst.req.0, client);
                let st = &mut self.requests[slot];
                let prev_top = st.top();
                st.learn_owner(round, owner);
                if prev_top.map_or(true, |(top, _)| round > top) {
                    if let Some(filed) = prev_top.and_then(|(_, o)| self.by_owner.get_mut(&o)) {
                        filed.remove(&slot);
                    }
                    self.by_owner.entry(owner).or_default().insert(slot);
                }
                if owner == self.me {
                    self.start_execution(ctx, slot, round);
                }
                Some(slot)
            }
            (Agreement::Result, Decision::ResultAgreed(Some(v)))
            | (
                Agreement::Outcome,
                Decision::Outcome {
                    abort: false,
                    value: Some(v),
                },
            ) => {
                let slot = self.record_result(&inst.req, v.clone());
                if let Some(slot) = slot {
                    self.deliver_to_local_submitters(ctx, slot);
                }
                slot
            }
            _ => None,
        };
        if !proposed {
            return;
        }
        // A proposer files the request before it proposes.
        let Some(slot) = learned.or_else(|| self.requests.slot(inst.req.id())) else {
            return;
        };

        // Continuations (the blocked pseudo-code resuming). Owner
        // agreement's continuation, executing a won round, ran above.
        match (kind, dec) {
            (Agreement::Outcome, Decision::Outcome { abort: true, .. }) => {
                self.abort_round(ctx, slot, round);
            }
            (
                Agreement::Outcome,
                Decision::Outcome {
                    abort: false,
                    value: Some(v),
                },
            ) => {
                // The owner commits its round and a cleaner helps it; on
                // success both reply with the value recorded above.
                debug_assert_eq!(self.requests[slot].result, Some(v));
                self.invoke_round(ctx, slot, round, OpKind::Commit);
            }
            (Agreement::Result, Decision::ResultAgreed(v)) => {
                // Only a round's unique owner executes it, and the cleaner
                // cleans only rounds owned elsewhere: `owned` tells
                // execution mode from cleaning mode.
                let executed = self.requests[slot].owned.binary_search(&round).is_ok();
                self.end_round_span(ctx, slot, round);
                match v {
                    Some(v) => self.reply(ctx, slot, v),
                    // A cleaner blocked this round's result and drives the
                    // next round; the owner executed but must not respond
                    // (res-val == empty-result in Fig. 6).
                    None if !executed => self.start_next_round(ctx, slot, round + 1),
                    None => {}
                }
            }
            _ => {}
        }
    }

    // ---- execute-until-success / cancel / commit (Fig. 7) ----

    /// An outcome agreement decided abort: cancel the round, then (on
    /// cancel success) retry in a fresh round. With the test-only
    /// [`XReplicaConfig::unsound_skip_abort_cancel`] weakness planted, the
    /// cancel is skipped and its success continuation runs directly —
    /// leaving any post-effect tentative state dangling forever.
    fn abort_round(&mut self, ctx: &mut Context<'_, ProtoMsg>, slot: u32, round: u64) {
        if self.config.unsound_skip_abort_cancel {
            self.start_next_round(ctx, slot, round + 1);
        } else {
            self.invoke_round(ctx, slot, round, OpKind::Cancel);
        }
    }

    fn on_invoke_reply(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        invocation: u64,
        outcome: InvokeOutcome,
    ) {
        let Some(InFlight { service, sreq, .. }) = self.pending.remove(&invocation) else {
            return;
        };
        // Only a filed request is invoked for, and requests stay filed.
        let Some(slot) = sreq.key.as_str().and_then(|id| self.requests.slot(id)) else {
            return;
        };
        let round = sreq.round;
        match (sreq.op, outcome) {
            (OpKind::Execute, InvokeOutcome::Success(v)) => {
                if sreq.action.is_undoable() {
                    let commit = Decision::Outcome {
                        abort: false,
                        value: Some(v),
                    };
                    self.propose(ctx, (Agreement::Outcome, slot, round), commit);
                } else {
                    let agreed = Decision::ResultAgreed(Some(v));
                    self.propose(ctx, (Agreement::Result, slot, round), agreed);
                }
            }
            (OpKind::Execute, InvokeOutcome::Failure { terminal, .. }) => {
                if terminal {
                    self.obs.terminal_failures.inc();
                } else {
                    self.obs.transient_failures.inc();
                }
                if sreq.action.is_undoable() {
                    // Deviation 3: abort this round and retry in a fresh
                    // one (round poisoning makes within-round retry
                    // unsound).
                    let abort = Decision::Outcome {
                        abort: true,
                        value: None,
                    };
                    self.propose(ctx, (Agreement::Outcome, slot, round), abort);
                } else {
                    // Idempotent action: plain retry (Fig. 7).
                    self.invoke(ctx, service, sreq);
                }
            }
            (OpKind::Cancel, InvokeOutcome::Success(_)) => {
                self.end_round_span(ctx, slot, round);
                self.start_next_round(ctx, slot, round + 1);
            }
            (OpKind::Commit, InvokeOutcome::Success(_)) => {
                self.end_round_span(ctx, slot, round);
                if let Some(v) = self.requests[slot].result.clone() {
                    self.reply(ctx, slot, v);
                }
            }
            (
                _,
                InvokeOutcome::Failure {
                    terminal: false, ..
                },
            ) => {
                self.obs.transient_failures.inc();
                self.invoke(ctx, service, sreq);
            }
            // A cancel conflicting with a commit (or the reverse) is
            // impossible once outcome agreement decided (agreement), so
            // this indicates a logic error; drop the flow.
            (_, InvokeOutcome::Failure { terminal: true, .. }) => {
                self.obs.terminal_failures.inc();
            }
        }
    }
}

impl Actor<ProtoMsg> for XReplica {
    fn on_start(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        ctx.set_timer(TICK);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ProtoMsg>, from: ProcessId, msg: ProtoMsg) {
        match msg {
            ProtoMsg::ClientRequest { req } => {
                // Fig. 6 main loop: req.round := 1; process-request.
                if let Some(slot) = self.requests.slot(&req.id) {
                    let st = &mut self.requests[slot];
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
                                req_id: req.id,
                                result: v,
                            },
                        );
                        return;
                    }
                    // Known and in progress: the owner/cleaner machinery is
                    // already responsible for it.
                    return;
                }
                let slot = self.file_request(&Arc::new(req), from);
                self.process_request(ctx, slot, 1);
                self.requests[slot].received_directly = true;
            }
            ProtoMsg::Consensus(cm) => {
                let decided = {
                    let mut net = CtxNet::new(ctx, ProtoMsg::Consensus);
                    self.engine.on_message(&mut net, from, cm)
                };
                if let Some((inst, dec)) = decided {
                    self.on_decision(ctx, inst, dec);
                }
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
        ctx.set_timer(TICK);
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
    use xability_services::catalog::Bank;
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

    fn decide(kind: Agreement, req: &Arc<LogicalRequest>, round: u64, value: Decision) -> ProtoMsg {
        let req = ReqKey(Arc::clone(req));
        let instance = Instance { kind, req, round };
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
            let req = Arc::new(req);
            let late = if action.is_undoable() {
                let commit = Decision::Outcome {
                    abort: false,
                    value: Some(value.clone()),
                };
                decide(Agreement::Outcome, &req, 2, commit)
            } else {
                let agreed = Decision::ResultAgreed(Some(value.clone()));
                decide(Agreement::Result, &req, 2, agreed)
            };
            let owned = Decision::Owner { owner, client };
            let script = vec![
                (
                    SimDuration::from_millis(1),
                    me,
                    decide(Agreement::Owner, &req, 1, owned),
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
            let slot = replica.requests.slot("req-0").expect("filed");
            assert!(replica.by_owner[&owner].contains(&slot));

            // The result arrives; the next pass delivers it once, after
            // which the request is inert and leaves the index.
            world.run_until(SimTime::from_millis(400));
            let replica = world.actor_as::<XReplica>(me).expect("replica");
            assert_eq!(replica.request_result("req-0"), Some(&value));
            assert_eq!(replica.metrics().cleanings, 1);
            assert_eq!(replica.metrics().replies_sent, 1, "{action}");
            assert!(!replica.by_owner[&owner].contains(&slot));
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

    /// An empty result (`empty-result` in Fig. 6) resumes its two possible
    /// proposers differently, told apart only by whether this replica owns
    /// the round: the owner that executed and proposed a value stays
    /// silent, while the cleaner that proposed the empty result starts the
    /// next round. Consensus traffic to a scripted peer shows which
    /// instances each proposed on.
    #[test]
    fn the_empty_result_continuation_belongs_to_the_cleaner() {
        let [owner, me, peer, client, service] = [0, 1, 2, 3, 4].map(ProcessId);
        let req = LogicalRequest::new(
            "req-0",
            ActionName::idempotent("issue"),
            Value::Nil,
            service,
        );
        let req = Arc::new(req);
        for round_owner in [me, owner] {
            let owned = Decision::Owner {
                owner: round_owner,
                client,
            };
            let empty = Decision::ResultAgreed(None);
            let script = vec![
                (
                    SimDuration::from_millis(1),
                    me,
                    decide(Agreement::Owner, &req, 1, owned),
                ),
                (
                    SimDuration::from_millis(150),
                    me,
                    decide(Agreement::Result, &req, 1, empty),
                ),
            ];
            // The owner's execution succeeds; a cleaner invokes nothing.
            let executed = ProtoMsg::InvokeReply {
                invocation: 0,
                outcome: InvokeOutcome::Success(Value::from("issued")),
            };
            let service_script = vec![(SimDuration::from_millis(20), me, executed)];

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
            let service_puppet = Puppet {
                script: service_script,
                ..Puppet::default()
            };
            world.add_process("service", Box::new(service_puppet));
            if round_owner == owner {
                world.schedule_crash(owner, SimTime::from_millis(5));
            }
            world.run_until(SimTime::from_millis(400));

            let replica = world.actor_as::<XReplica>(me).expect("replica");
            let executing = round_owner == me;
            assert_eq!(replica.metrics().executions, u64::from(executing));
            assert_eq!(replica.metrics().cleanings, u64::from(!executing));
            assert_eq!(replica.metrics().replies_sent, 0);
            let proposed: BTreeSet<(Agreement, &str, u64)> = world
                .actor_as::<Puppet>(peer)
                .expect("peer")
                .received
                .iter()
                .filter_map(|msg| match msg {
                    // Decisions are relayed; only the rest is proposing.
                    ProtoMsg::Consensus(ConsensusMsg::Decide { .. }) => None,
                    ProtoMsg::Consensus(cm) => {
                        let inst = cm.instance();
                        Some((inst.kind, inst.req.id(), inst.round))
                    }
                    _ => None,
                })
                .collect();
            let mut expected = BTreeSet::from([(Agreement::Result, "req-0", 1)]);
            if !executing {
                expected.insert((Agreement::Owner, "req-0", 2));
            }
            assert_eq!(proposed, expected, "owner {round_owner}");
        }
    }

    /// What a finished request leaves behind. After a fault-free n = 3
    /// bank session, every instance each replica's engine saw has decided
    /// and is kept only as its value — two per request, owner and outcome
    /// agreement of round 1 — and each request knows its one round's owner.
    #[test]
    fn a_finished_session_leaves_only_decisions_behind() {
        const REQUESTS: usize = 200;
        let replicas = [0, 1, 2].map(ProcessId);
        let [service, client] = [3, 4].map(ProcessId);
        let transfer = Value::list([
            Value::pair(Value::from("from"), Value::from("src")),
            Value::pair(Value::from("to"), Value::from("dst")),
            Value::pair(Value::from("amount"), Value::from(1)),
        ]);
        let plan: Vec<LogicalRequest> = (0..REQUESTS)
            .map(|i| {
                let action = ActionName::undoable("transfer");
                LogicalRequest::new(format!("req-{i}"), action, transfer.clone(), service)
            })
            .collect();

        let mut world: World<ProtoMsg> = World::new(SimConfig::with_seed(5));
        for id in replicas {
            let replica = XReplica::new(id, replicas.to_vec(), XReplicaConfig::default());
            world.add_process(format!("replica{}", id.0), Box::new(replica));
        }
        let bank = Bank::new([("src".to_owned(), 1_000), ("dst".to_owned(), 0)]);
        let core = ServiceCore::new(Box::new(bank), ServiceConfig::default(), shared_ledger());
        world.add_process("service", Box::new(ServiceActor::new(core)));
        world.add_process("client", Box::new(Client::new(replicas.to_vec(), plan)));
        let done = |w: &World<ProtoMsg>| w.actor_as::<Client>(client).expect("client").is_done();
        assert!(world.run_while(|w| !done(w), SimTime::from_secs(60)));
        world.run_until(world.now() + SimDuration::from_millis(500));

        for id in replicas {
            let replica = world.actor_as::<XReplica>(id).expect("replica");
            // The engine's maps are private to its crate (and its public
            // surface is pinned); its derived `Debug` form shows them.
            let engine = format!("{:?}", replica.engine);
            assert!(engine.contains("running: {}"), "{id}: {engine}");
            assert_eq!(
                replica.engine.decided_instances().count(),
                2 * REQUESTS,
                "{id}"
            );
            assert_eq!(replica.requests.column.len(), REQUESTS, "{id}");
            for st in &replica.requests.column {
                assert_eq!(st.rounds.len(), 1, "{id}: {}", st.req);
            }
        }
    }

    /// Request ids that are prefixes of one another (`req`, `req-1`,
    /// `req-10`) or share their first 8 bytes (`request-…`), submitted
    /// out of id order, through a crash of the replica the client talks
    /// to. The survivors' cleaner visits every request the crashed owner
    /// left behind, sorted by id — in debug builds each pass also checks
    /// that list against a scan of the whole table — and every id finds
    /// its own slot at every survivor.
    #[test]
    fn prefix_sharing_request_ids_survive_a_crash_and_its_cleaning() {
        const IDS: [&str; 8] = [
            "request-0002",
            "req-10",
            "requests",
            "req",
            "request-0001",
            "req-100",
            "req-1",
            "request-",
        ];
        const CLIENT: ProcessId = ProcessId(4);
        let replicas = [0, 1, 2].map(ProcessId);
        let service = ProcessId(3);
        let transfer = Value::list([
            Value::pair(Value::from("from"), Value::from("src")),
            Value::pair(Value::from("to"), Value::from("dst")),
            Value::pair(Value::from("amount"), Value::from(1)),
        ]);
        let plan: Vec<LogicalRequest> = IDS
            .iter()
            .map(|id| {
                let action = ActionName::undoable("transfer");
                LogicalRequest::new(*id, action, transfer.clone(), service)
            })
            .collect();

        let mut world: World<ProtoMsg> = World::new(SimConfig::with_seed(3));
        for id in replicas {
            let replica = XReplica::new(id, replicas.to_vec(), XReplicaConfig::default());
            world.add_process(format!("replica{}", id.0), Box::new(replica));
        }
        let bank = Bank::new([("src".to_owned(), 1_000), ("dst".to_owned(), 0)]);
        let core = ServiceCore::new(Box::new(bank), ServiceConfig::default(), shared_ledger());
        world.add_process("service", Box::new(ServiceActor::new(core)));
        let client = world.add_process("client", Box::new(Client::new(replicas.to_vec(), plan)));
        assert_eq!(client, CLIENT);
        fn client_of(w: &World<ProtoMsg>) -> &Client {
            w.actor_as::<Client>(CLIENT).expect("client")
        }

        // Half the plan completes at r0, which owns each of those rounds;
        // then r0 crashes.
        let half = |w: &World<ProtoMsg>| client_of(w).completed_requests().len() < IDS.len() / 2;
        assert!(world.run_while(half, SimTime::from_secs(10)));
        world.schedule_crash(replicas[0], world.now() + SimDuration::from_millis(1));
        assert!(world.run_while(|w| !client_of(w).is_done(), SimTime::from_secs(60)));
        world.run_until(world.now() + SimDuration::from_millis(500));

        for id in &replicas[1..] {
            let replica = world.actor_as::<XReplica>(*id).expect("replica");
            assert!(replica.metrics().cleanings > 0, "{id}");
            // Every request r0 owned was cleaned and left the index.
            assert_eq!(
                replica.by_owner.get(&replicas[0]).map(BTreeSet::len),
                Some(0)
            );
            let mut slots = BTreeSet::new();
            for req_id in IDS {
                let slot = replica.requests.slot(req_id).expect("filed");
                assert_eq!(replica.requests[slot].req.id, req_id, "{id}");
                assert!(slots.insert(slot), "{id}: {req_id} shares a slot");
                let result = replica.request_result(req_id);
                assert_eq!(
                    result,
                    client_of(&world).result_of(req_id),
                    "{id}: {req_id}"
                );
                assert!(result.is_some(), "{id}: {req_id}");
            }
            for absent in ["re", "req-", "request-000", "request-00011", "requests-"] {
                assert_eq!(replica.requests.slot(absent), None, "{id}: {absent}");
            }
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
    /// executes is the client's allocation, all three replicas file the
    /// request under the one `LogicalRequest` the owner agreement decided,
    /// and every consensus instance a replica decided keys by that same
    /// allocation.
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
            let owner = Instance {
                kind: Agreement::Owner,
                req: ReqKey(Arc::new(req.clone())),
                round: 1,
            };
            let decided = match first.engine.decided_instances().find(|(k, _)| **k == owner) {
                Some((inst, Decision::Owner { .. })) => &inst.req.0,
                other => panic!("{req}: owner agreement decided {other:?}"),
            };
            for id in replicas {
                let replica = world.actor_as::<XReplica>(id).expect("replica");
                let filed = replica.requests.get(&req.id).expect("filed");
                assert!(Arc::ptr_eq(&filed.req, decided), "{id}");
            }
        }
        for id in replicas {
            let replica = world.actor_as::<XReplica>(id).expect("replica");
            assert_eq!(replica.engine.decided_instances().count(), 2 * plan.len());
            for (inst, _) in replica.engine.decided_instances() {
                let filed = replica.requests.get(inst.req.id()).expect("filed");
                assert!(Arc::ptr_eq(&inst.req.0, &filed.req), "{id}: {inst:?}");
            }
        }
    }
}
