//! The multiplexed consensus engine.
//!
//! One [`ConsensusEngine`] lives inside each participant process and manages
//! every consensus *instance* the process takes part in. Each instance runs
//! an independent Chandra–Toueg rotating-coordinator consensus:
//!
//! 1. On entering round `r`, every participant sends its current estimate
//!    (value + timestamp) to all peers; the round's coordinator is
//!    `peers[r mod n]`.
//! 2. The coordinator, upon gathering estimates from a majority, selects the
//!    estimate with the highest timestamp and proposes it.
//! 3. Participants acknowledge the proposal (adopting it with timestamp `r`)
//!    — or, upon suspecting the coordinator or timing out, send a negative
//!    acknowledgement and move to round `r + 1`.
//! 4. A coordinator with a majority of positive acknowledgements decides and
//!    reliably broadcasts the decision; receivers re-broadcast it once.
//!
//! The standard locking argument gives agreement: a value acknowledged by a
//! majority in round `r` has timestamp `r` at a majority, so every later
//! coordinator — which intersects that majority — picks it. Termination
//! holds with a majority of correct processes once the failure detector
//! stops making mistakes (eventually-perfect ◇P suffices for the paper's
//! ◇S requirement). Validity holds because estimates only ever hold
//! proposed values.
//!
//! Estimates are broadcast to *all* peers (not only the coordinator) so that
//! processes which never proposed a value for an instance still join it and
//! contribute to majorities — in the replication protocol of §5, typically
//! only one or two replicas propose to a given instance.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

use xability_core::index::{hash_of, SymbolIndex};
use xability_core::seglog::AppendLog;
use xability_sim::{ProcessId, SimDuration, SimTime};

/// The default instance key, a name (`xbench`'s consensus probe keys by
/// it). Any `Ord + Hash + Clone + Debug` type keys instances; the
/// replication protocol's is the typed `xability_protocol::messages::Instance`.
pub type InstanceId = Arc<String>;

/// Messages exchanged by the consensus engines. The embedding actor wraps
/// these into its own message type and routes incoming ones to
/// [`ConsensusEngine::on_message`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConsensusMsg<V, K = InstanceId> {
    /// A participant's current estimate for a round (phase 1).
    Estimate {
        /// Target instance.
        instance: K,
        /// Round number.
        round: u64,
        /// The estimate value.
        value: V,
        /// The round in which the estimate was last adopted (0 = initial).
        ts: u64,
    },
    /// The coordinator's proposal for a round (phase 2).
    Propose {
        /// Target instance.
        instance: K,
        /// Round number.
        round: u64,
        /// The proposed value.
        value: V,
    },
    /// Positive acknowledgement of a proposal (phase 3).
    Ack {
        /// Target instance.
        instance: K,
        /// Round number.
        round: u64,
    },
    /// Negative acknowledgement: the sender moved past this round.
    Nack {
        /// Target instance.
        instance: K,
        /// Round number.
        round: u64,
    },
    /// Reliable broadcast of a decision (phase 4).
    Decide {
        /// Target instance.
        instance: K,
        /// The decided value.
        value: V,
    },
}

impl<V, K> ConsensusMsg<V, K> {
    /// The instance this message belongs to.
    pub fn instance(&self) -> &K {
        match self {
            ConsensusMsg::Estimate { instance, .. }
            | ConsensusMsg::Propose { instance, .. }
            | ConsensusMsg::Ack { instance, .. }
            | ConsensusMsg::Nack { instance, .. }
            | ConsensusMsg::Decide { instance, .. } => instance,
        }
    }
}

/// The network/oracle interface the engine needs from its embedding actor.
///
/// Implementations wrap a [`xability_sim::Context`], translating
/// [`ConsensusMsg`] into the actor's own message type.
pub trait ConsensusNet<V, K = InstanceId> {
    /// Sends a consensus message to a peer.
    fn send(&mut self, to: ProcessId, msg: ConsensusMsg<V, K>);
    /// The current time.
    fn now(&self) -> SimTime;
    /// The failure-detector query `suspect(p)`.
    fn suspects(&self, p: ProcessId) -> bool;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for the coordinator's proposal (or, as coordinator, for a
    /// majority of estimates).
    Estimating,
    /// Acknowledged the proposal; waiting for the decision.
    Acked,
}

/// A running instance: everything a participant needs until it decides.
/// A decided instance is only its value (see [`ConsensusEngine`]).
#[derive(Debug)]
struct Instance<V> {
    estimate: Option<(V, u64)>,
    round: u64,
    phase: Phase,
    round_started_at: SimTime,
    /// Coordinator state: estimates gathered for the current round.
    estimates: BTreeMap<ProcessId, (V, u64)>,
    /// Coordinator state: positive acks for the current round.
    acks: BTreeSet<ProcessId>,
    /// Coordinator state: whether this round's proposal went out.
    proposed: bool,
    participating: bool,
}

impl<V> Instance<V> {
    fn new(now: SimTime) -> Self {
        Instance {
            estimate: None,
            round: 0,
            phase: Phase::Estimating,
            round_started_at: now,
            estimates: BTreeMap::new(),
            acks: BTreeSet::new(),
            proposed: false,
            participating: false,
        }
    }
}

/// Decided instances per segment of the engine's decision column.
const DECIDED_SEGMENT: usize = 1024;

/// The decided instances: `(key, value)` rows in decision order, an
/// append-only column that never moves a row once written, and the
/// workspace's id index over it, so finding a key is one hashed probe
/// that compares against the one row its tag matches.
#[derive(Debug)]
struct Decisions<K, V> {
    column: AppendLog<(K, V)>,
    index: SymbolIndex,
}

impl<K: Hash + Eq, V> Decisions<K, V> {
    fn new() -> Self {
        Decisions {
            column: AppendLog::new(DECIDED_SEGMENT),
            index: SymbolIndex::default(),
        }
    }

    fn get(&self, id: &K) -> Option<&V> {
        let column = &self.column;
        let row = self
            .index
            .find(hash_of(id), |row| column.get(row as usize).0 == *id)?;
        Some(&column.get(row as usize).1)
    }

    /// Appends the decision of an instance that had none.
    fn push(&mut self, id: K, value: V) {
        debug_assert!(self.get(&id).is_none(), "an instance decides once");
        let hash = hash_of(&id);
        let row = u32::try_from(self.column.len()).expect("fewer than 2^32 decided instances");
        self.column.push((id, value));
        let column = &self.column;
        self.index.insert(hash, row, |filed| {
            Some(hash_of(&column.get(filed as usize).0))
        });
    }

    fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        (0..self.column.len()).map(|row| {
            let (id, value) = self.column.get(row);
            (id, value)
        })
    }
}

/// A multiplexed set of consensus objects for one participant process.
///
/// The engine is transport-agnostic: the embedding actor forwards incoming
/// [`ConsensusMsg`]s to [`ConsensusEngine::on_message`], calls
/// [`ConsensusEngine::on_tick`] periodically (a few times per failure
/// detector timeout), and collects newly decided `(instance, value)` pairs
/// from both calls.
///
/// Instances are keyed by `K` (one key per logical consensus object, equal
/// at every participant), and a tick visits them in `K`'s order.
/// An instance lives in one of two tables: the ordered map `running` until
/// it decides, then `decided`, where it is only its value, filed under its
/// key's hash. The entry point that reaches a decision moves it across
/// before it returns, so a live instance is found among a few entries and
/// everything a late message can still ask of a decided one — its value —
/// is all that stays resident, one hashed probe away.
#[derive(Debug)]
pub struct ConsensusEngine<V, K = InstanceId> {
    me: ProcessId,
    peers: Vec<ProcessId>,
    round_timeout: SimDuration,
    /// Undecided instances: joined, or only heard of from a stray message.
    running: BTreeMap<K, Instance<V>>,
    decided: Decisions<K, V>,
}

/// The engine with its instance maps taken out: what one instance's step
/// reads besides the instance itself, and the decision the step reaches.
/// Each entry point looks its instance up once, hands the `&mut Instance`
/// to these methods, and then moves a reached decision to `decided`.
struct Member<'a, V, K> {
    me: ProcessId,
    peers: &'a [ProcessId],
    /// The decision this step reached (at most one: a step drives one
    /// instance, and nothing moves an instance once it decides).
    decision: Option<(K, V)>,
}

impl<V: Clone + Eq + fmt::Debug, K: Ord + Hash + Clone + fmt::Debug> ConsensusEngine<V, K> {
    /// Creates an engine for participant `me` among `peers` (which must
    /// include `me` and be identical at every participant).
    ///
    /// `round_timeout` bounds how long a participant waits in a round before
    /// nacking an unresponsive coordinator even without a suspicion; it
    /// provides progress when the coordinator is slow rather than crashed.
    ///
    /// # Panics
    ///
    /// Panics if `peers` does not contain `me`.
    pub fn new(me: ProcessId, peers: Vec<ProcessId>, round_timeout: SimDuration) -> Self {
        assert!(peers.contains(&me), "peers must include the local process");
        ConsensusEngine {
            me,
            peers,
            round_timeout,
            running: BTreeMap::new(),
            decided: Decisions::new(),
        }
    }

    /// The one lookup of an entry point: the running instance (created at
    /// `now` if unseen) beside the rest of the engine, or the decision of a
    /// decided one. `running` is probed first, so a message for a live
    /// instance searches only the undecided ones; a miss costs one hashed
    /// probe of `decided`.
    fn instance(
        &mut self,
        id: &K,
        now: SimTime,
    ) -> Result<(&mut Instance<V>, Member<'_, V, K>), &V> {
        let inst = match self.running.entry(id.clone()) {
            Entry::Occupied(live) => live.into_mut(),
            Entry::Vacant(unseen) => match self.decided.get(id) {
                Some(value) => return Err(value),
                None => unseen.insert(Instance::new(now)),
            },
        };
        Ok((inst, Member::new(self.me, &self.peers)))
    }

    /// Moves an instance that just decided from `running` to `decided`.
    fn settle(&mut self, id: &K, value: &V) {
        let live = self.running.remove(id);
        debug_assert!(live.is_some(), "only a running instance decides");
        self.decided.push(id.clone(), value.clone());
    }

    /// The paper's `propose()` (§5.2): proposes `value` for `instance`.
    ///
    /// If the decision is already known locally it is returned immediately;
    /// otherwise the proposal enters the protocol and the decision will be
    /// reported by a later [`ConsensusEngine::on_message`] /
    /// [`ConsensusEngine::on_tick`] call.
    pub fn propose(
        &mut self,
        net: &mut dyn ConsensusNet<V, K>,
        instance: K,
        value: V,
    ) -> Option<V> {
        let (inst, mut member) = match self.instance(&instance, net.now()) {
            Ok(live) => live,
            Err(decided) => return Some(decided.clone()),
        };
        if inst.estimate.is_none() {
            inst.estimate = Some((value, 0));
        }
        member.join(net, &instance, inst);
        // A coordinator alone in a singleton group decides synchronously;
        // the decision is returned here, not reported later.
        let (_, decision) = member.decision?;
        self.settle(&instance, &decision);
        Some(decision)
    }

    /// The paper's `read()` (§5.2): the locally known decision, if any.
    ///
    /// `None` means "no decision known here" — the instance may already be
    /// decided elsewhere; proposing then returns that decision.
    pub fn read(&self, instance: &K) -> Option<&V> {
        self.decided.get(instance)
    }

    /// All instances with locally known decisions, in the order they
    /// decided here.
    pub fn decided_instances(&self) -> impl Iterator<Item = (&K, &V)> {
        self.decided.iter()
    }

    /// Handles an incoming consensus message, returning the
    /// `(instance, value)` it decided, if any (a message drives one
    /// instance, so at most one).
    pub fn on_message(
        &mut self,
        net: &mut dyn ConsensusNet<V, K>,
        from: ProcessId,
        msg: ConsensusMsg<V, K>,
    ) -> Option<(K, V)> {
        let (inst, mut member) = match self.instance(msg.instance(), net.now()) {
            Ok(live) => live,
            Err(decided) => {
                // Help late peers: re-send the decision to the sender.
                if !matches!(msg, ConsensusMsg::Decide { .. }) {
                    net.send(
                        from,
                        ConsensusMsg::Decide {
                            instance: msg.instance().clone(),
                            value: decided.clone(),
                        },
                    );
                }
                return None;
            }
        };

        match msg {
            ConsensusMsg::Decide { instance, value } => {
                member.decide(net, &instance, value);
            }
            ConsensusMsg::Estimate {
                instance,
                round,
                value,
                ts,
            } => {
                // Adopt a value if we have none (lets non-proposers join).
                if inst.estimate.is_none() {
                    inst.estimate = Some((value.clone(), 0));
                }
                member.join(net, &instance, inst);
                member.advance_to(net, &instance, inst, round);
                if round == inst.round && member.me == member.coordinator(round) {
                    inst.estimates.insert(from, (value, ts));
                    member.maybe_propose(net, &instance, inst);
                }
            }
            ConsensusMsg::Propose {
                instance,
                round,
                value,
            } => {
                if inst.estimate.is_none() {
                    inst.estimate = Some((value.clone(), 0));
                }
                member.join(net, &instance, inst);
                member.advance_to(net, &instance, inst, round);
                if round == inst.round && inst.phase == Phase::Estimating {
                    // Adopt the coordinator's value with timestamp = round.
                    inst.estimate = Some((value, round));
                    inst.phase = Phase::Acked;
                    net.send(from, ConsensusMsg::Ack { instance, round });
                }
            }
            ConsensusMsg::Ack { instance, round } => {
                if round == inst.round && member.me == member.coordinator(round) {
                    inst.acks.insert(from);
                    if inst.acks.len() + 1 >= member.majority() {
                        // +1: the coordinator implicitly acks its own proposal.
                        let value = inst
                            .estimate
                            .clone()
                            .map(|(v, _)| v)
                            .expect("coordinator proposed, so it has an estimate");
                        member.decide(net, &instance, value);
                    }
                }
            }
            ConsensusMsg::Nack { instance, round } => {
                if round == inst.round {
                    member.advance_to(net, &instance, inst, round + 1);
                }
            }
        }
        let (id, value) = member.decision?;
        self.settle(&id, &value);
        Some((id, value))
    }

    /// Periodic driver: applies round timeouts and failure-detector
    /// suspicions to every participating running instance, in instance
    /// order, returning newly decided pairs. A tick itself only nacks and
    /// advances rounds: with two or more peers a decision takes a peer's
    /// message, so nothing is decided here. The one path that decides
    /// without a message is a singleton group's coordinator re-proposing
    /// as it enters a round, and that decision is returned here as in
    /// [`ConsensusEngine::on_message`].
    ///
    /// Costs O(undecided instances), not O(instances ever seen).
    pub fn on_tick(&mut self, net: &mut dyn ConsensusNet<V, K>) -> Vec<(K, V)> {
        let (now, round_timeout) = (net.now(), self.round_timeout);
        let mut decided = Vec::new();
        for (id, inst) in self.running.iter_mut().filter(|(_, i)| i.participating) {
            let mut member = Member::new(self.me, &self.peers);
            let coord = member.coordinator(inst.round);
            let timed_out = now.since(inst.round_started_at) > round_timeout;
            let suspected = coord != member.me && net.suspects(coord);
            if timed_out || suspected {
                let round = inst.round;
                net.send(
                    coord,
                    ConsensusMsg::Nack {
                        instance: id.clone(),
                        round,
                    },
                );
                member.advance_to(net, id, inst, round + 1);
            }
            decided.extend(member.decision);
        }
        for (id, value) in &decided {
            self.settle(id, value);
        }
        decided
    }
}

impl<'a, V: Clone, K: Clone> Member<'a, V, K> {
    fn new(me: ProcessId, peers: &'a [ProcessId]) -> Self {
        Member {
            me,
            peers,
            decision: None,
        }
    }

    /// The majority threshold.
    fn majority(&self) -> usize {
        self.peers.len() / 2 + 1
    }

    fn coordinator(&self, round: u64) -> ProcessId {
        self.peers[(round as usize) % self.peers.len()]
    }

    /// Marks the instance as participating and sends the current-round
    /// estimate if not already done.
    fn join(&mut self, net: &mut dyn ConsensusNet<V, K>, id: &K, inst: &mut Instance<V>) {
        if inst.participating {
            return;
        }
        inst.participating = true;
        inst.round_started_at = net.now();
        self.broadcast_estimate(net, id, inst);
    }

    fn broadcast_estimate(
        &mut self,
        net: &mut dyn ConsensusNet<V, K>,
        id: &K,
        inst: &mut Instance<V>,
    ) {
        let me = self.me;
        let Some((value, ts)) = inst.estimate.clone() else {
            return;
        };
        let round = inst.round;
        // Record our own estimate if we coordinate this round.
        if self.coordinator(round) == me {
            inst.estimates.insert(me, (value.clone(), ts));
        }
        for &p in self.peers {
            if p != me {
                net.send(
                    p,
                    ConsensusMsg::Estimate {
                        instance: id.clone(),
                        round,
                        value: value.clone(),
                        ts,
                    },
                );
            }
        }
        self.maybe_propose(net, id, inst);
    }

    /// Coordinator: propose once a majority of estimates is gathered.
    fn maybe_propose(&mut self, net: &mut dyn ConsensusNet<V, K>, id: &K, inst: &mut Instance<V>) {
        let me = self.me;
        let round = inst.round;
        let majority = self.majority();
        if self.coordinator(round) != me || inst.proposed || inst.estimates.len() < majority {
            return;
        }
        let (value, _) = inst
            .estimates
            .values()
            .max_by_key(|(_, ts)| *ts)
            .cloned()
            .expect("majority gathered");
        inst.proposed = true;
        inst.estimate = Some((value.clone(), round));
        inst.phase = Phase::Acked;
        for &p in self.peers {
            if p != me {
                net.send(
                    p,
                    ConsensusMsg::Propose {
                        instance: id.clone(),
                        round,
                        value: value.clone(),
                    },
                );
            }
        }
        // The coordinator implicitly acks its own proposal; in a singleton
        // group that already is a majority.
        if 1 >= majority {
            self.decide(net, id, value);
        }
    }

    /// Moves to a later round (a no-op for an earlier or the current
    /// round, or once this step decided) and, if participating, sends the
    /// estimate for it.
    fn advance_to(
        &mut self,
        net: &mut dyn ConsensusNet<V, K>,
        id: &K,
        inst: &mut Instance<V>,
        round: u64,
    ) {
        if round <= inst.round || self.decision.is_some() {
            return;
        }
        inst.round = round;
        inst.phase = Phase::Estimating;
        inst.estimates.clear();
        inst.acks.clear();
        inst.proposed = false;
        inst.round_started_at = net.now();
        if inst.participating {
            self.broadcast_estimate(net, id, inst);
        }
    }

    /// Records the decision (once) and relays it to every peer; the entry
    /// point then moves the instance to `decided`.
    fn decide(&mut self, net: &mut dyn ConsensusNet<V, K>, id: &K, value: V) {
        let me = self.me;
        if self.decision.is_some() {
            return;
        }
        for &p in self.peers {
            if p != me {
                net.send(
                    p,
                    ConsensusMsg::Decide {
                        instance: id.clone(),
                        value: value.clone(),
                    },
                );
            }
        }
        self.decision = Some((id.clone(), value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_instance_accessor() {
        let id = 7;
        let msgs: Vec<ConsensusMsg<u32, u32>> = vec![
            ConsensusMsg::Estimate {
                instance: id,
                round: 0,
                value: 1,
                ts: 0,
            },
            ConsensusMsg::Propose {
                instance: id,
                round: 0,
                value: 1,
            },
            ConsensusMsg::Ack {
                instance: id,
                round: 0,
            },
            ConsensusMsg::Nack {
                instance: id,
                round: 0,
            },
            ConsensusMsg::Decide {
                instance: id,
                value: 1,
            },
        ];
        for m in msgs {
            assert_eq!(m.instance(), &id);
        }
    }

    #[test]
    #[should_panic(expected = "peers must include")]
    fn engine_requires_membership() {
        let _ = ConsensusEngine::<u32, u32>::new(
            ProcessId(9),
            vec![ProcessId(0), ProcessId(1)],
            SimDuration::from_millis(50),
        );
    }

    /// Instances are keyed by name.
    type Key = &'static str;

    /// A network that records sends, with a settable clock and suspicions.
    #[derive(Default)]
    struct TestNet {
        now: SimTime,
        suspected: BTreeSet<ProcessId>,
        sent: Vec<(ProcessId, ConsensusMsg<u32, Key>)>,
    }

    impl ConsensusNet<u32, Key> for TestNet {
        fn send(&mut self, to: ProcessId, msg: ConsensusMsg<u32, Key>) {
            self.sent.push((to, msg));
        }

        fn now(&self) -> SimTime {
            self.now
        }

        fn suspects(&self, p: ProcessId) -> bool {
            self.suspected.contains(&p)
        }
    }

    /// The decided instances, in decision order.
    fn decided(engine: &ConsensusEngine<u32, Key>) -> Vec<(Key, u32)> {
        engine.decided_instances().map(|(&k, &v)| (k, v)).collect()
    }

    /// The instances a tick acts on: the running ones this process joined.
    fn joined(engine: &ConsensusEngine<u32, Key>) -> Vec<&Key> {
        let running = engine.running.iter();
        running
            .filter(|(_, i)| i.participating)
            .map(|(id, _)| id)
            .collect()
    }

    #[test]
    fn tick_drives_only_participating_undecided_instances() {
        let [p0, p1, p2] = [0, 1, 2].map(ProcessId);
        let mut net = TestNet::default();
        let mut engine = ConsensusEngine::new(p1, vec![p0, p1, p2], SimDuration::from_millis(50));
        let [live, learned, settled, stranger] = ["a", "b", "c", "d"];
        let decide = |instance: Key| ConsensusMsg::Decide { instance, value: 9 };

        // Participating and undecided: the only one a tick may touch.
        assert_eq!(engine.propose(&mut net, live, 1), None);
        // Decided without ever participating (learned from a peer).
        assert!(engine.on_message(&mut net, p0, decide(learned)).is_some());
        // Participating, then decided.
        assert_eq!(engine.propose(&mut net, settled, 3), None);
        assert!(engine.on_message(&mut net, p0, decide(settled)).is_some());
        // Known but never joined: a stray ack creates the entry only.
        let stray = ConsensusMsg::Ack {
            instance: stranger,
            round: 0,
        };
        assert!(engine.on_message(&mut net, p2, stray).is_none());
        assert_eq!(joined(&engine), [&live]);
        // A decided instance is only its value.
        assert_eq!(
            engine.running.keys().collect::<Vec<_>>(),
            [&live, &stranger]
        );
        let settled_first = [(learned, 9), (settled, 9)];
        assert_eq!(decided(&engine), settled_first);

        // Rounds time out and every coordinator but us is suspected, tick
        // after tick: the live instance is nacked and advanced each time,
        // the other three are never mentioned and never move.
        net.sent.clear();
        net.suspected = BTreeSet::from([p0, p2]);
        for tick in 1..=100 {
            net.now = SimTime::from_millis(100 * tick);
            assert!(engine.on_tick(&mut net).is_empty());
        }
        assert!(net.sent.iter().all(|(_, m)| m.instance() == &live));
        let nacks = net
            .sent
            .iter()
            .filter(|(_, m)| matches!(m, ConsensusMsg::Nack { .. }));
        assert_eq!(nacks.count(), 100);
        assert_eq!(engine.running[&live].round, 100);
        assert_eq!(engine.running[&stranger].round, 0);
        assert_eq!(decided(&engine), settled_first);
        assert_eq!(engine.read(&learned), Some(&9));
        assert_eq!(engine.read(&stranger), None);

        // Once decided, the live instance leaves the tick too.
        assert!(engine.on_message(&mut net, p0, decide(live)).is_some());
        assert!(joined(&engine).is_empty());
        assert_eq!(engine.running.keys().collect::<Vec<_>>(), [&stranger]);
        // Decision order, not key order: `live` < `learned` < `settled`.
        assert_eq!(decided(&engine), [(learned, 9), (settled, 9), (live, 9)]);
        net.sent.clear();
        net.now = SimTime::from_secs(60);
        assert!(engine.on_tick(&mut net).is_empty());
        assert!(net.sent.is_empty());
    }

    #[test]
    fn decided_instance_keeps_only_its_decision_and_still_answers_late_peers() {
        let [p0, p1, p2] = [0, 1, 2].map(ProcessId);
        let mut net = TestNet::default();
        // p0 coordinates round 0: its own estimate plus p1's is a majority,
        // and p1's ack on top of its own implicit one decides.
        let mut engine = ConsensusEngine::new(p0, vec![p0, p1, p2], SimDuration::from_millis(50));
        let id: Key = "i";
        assert_eq!(engine.propose(&mut net, id, 7), None);
        let estimate = ConsensusMsg::Estimate {
            instance: id,
            round: 0,
            value: 8,
            ts: 0,
        };
        assert!(engine.on_message(&mut net, p1, estimate).is_none());
        let inst = &engine.running[&id];
        assert!(inst.estimate.is_some() && inst.estimates.len() == 2 && inst.proposed);
        let ack = ConsensusMsg::Ack {
            instance: id,
            round: 0,
        };
        // Equal timestamps: the estimate of the highest process id wins.
        assert_eq!(engine.on_message(&mut net, p1, ack), Some((id, 8)));

        // The deciding entry point moved the instance across: what stays
        // resident is its value, nothing of its rounds.
        assert!(engine.running.is_empty());
        assert_eq!(decided(&engine), [(id, 8)]);

        // Whatever a late peer still sends, at this round or a later one,
        // it gets the decision back and nothing else happens.
        for round in [0, 3] {
            let late = [
                ConsensusMsg::Estimate {
                    instance: id,
                    round,
                    value: 9,
                    ts: round,
                },
                ConsensusMsg::Propose {
                    instance: id,
                    round,
                    value: 9,
                },
                ConsensusMsg::Ack {
                    instance: id,
                    round,
                },
                ConsensusMsg::Nack {
                    instance: id,
                    round,
                },
            ];
            for msg in late {
                net.sent.clear();
                assert!(engine.on_message(&mut net, p2, msg).is_none());
                let decide = ConsensusMsg::Decide {
                    instance: id,
                    value: 8,
                };
                assert_eq!(net.sent, [(p2, decide)]);
            }
        }
        net.sent.clear();
        let other = ConsensusMsg::Decide {
            instance: id,
            value: 8,
        };
        assert!(engine.on_message(&mut net, p2, other).is_none());
        net.now = SimTime::from_secs(60);
        assert!(engine.on_tick(&mut net).is_empty());
        assert!(net.sent.is_empty());
        assert_eq!(engine.propose(&mut net, id, 1), Some(8));
        assert!(engine.running.is_empty());
        assert_eq!(decided(&engine), [(id, 8)]);
    }

    #[test]
    fn a_late_joiner_sends_its_round_zero_then_its_current_round_estimates() {
        let [p0, p1, p2] = [0, 1, 2].map(ProcessId);
        let mut net = TestNet::default();
        // p1 never proposed and coordinates neither round 0 nor round 2.
        let mut engine = ConsensusEngine::new(p1, vec![p0, p1, p2], SimDuration::from_millis(50));
        let id: Key = "late";
        let estimate = ConsensusMsg::Estimate {
            instance: id,
            round: 2,
            value: 5,
            ts: 1,
        };
        assert!(engine.on_message(&mut net, p2, estimate).is_none());
        // It adopts the value with timestamp 0, joins at round 0, then
        // advances to the sender's round: one estimate per peer per round.
        let mine = |round| ConsensusMsg::Estimate {
            instance: id,
            round,
            value: 5,
            ts: 0,
        };
        assert_eq!(
            net.sent,
            [(p0, mine(0)), (p2, mine(0)), (p0, mine(2)), (p2, mine(2))]
        );
        let inst = &engine.running[&id];
        assert_eq!((inst.round, inst.phase), (2, Phase::Estimating));
        assert!(inst.participating && inst.estimates.is_empty());
        assert_eq!(joined(&engine), [&id]);
        net.sent.clear();
        assert!(engine.on_tick(&mut net).is_empty());
        assert!(net.sent.is_empty(), "neither timed out nor suspected yet");
    }

    #[test]
    fn singleton_group_decides_inside_propose_and_ticks_find_nothing() {
        let me = ProcessId(0);
        let mut net = TestNet::default();
        let mut engine = ConsensusEngine::new(me, vec![me], SimDuration::from_millis(50));
        let id: Key = "solo";
        assert_eq!(engine.propose(&mut net, id, 4), Some(4));
        assert!(engine.running.is_empty());
        net.now = SimTime::from_secs(1);
        assert!(engine.on_tick(&mut net).is_empty());
        assert!(net.sent.is_empty());
        assert_eq!(engine.read(&id), Some(&4));
    }
}
