//! # xability-consensus — the consensus objects of §5.2
//!
//! The replication algorithm of *X-Ability: A Theory of Replication* (§5)
//! "simply assumes" consensus objects offering two primitives:
//!
//! * `propose(v)` — proposes `v`, returns the decided value;
//! * `read()` — returns the decided value, or ⊥ if none is known.
//!
//! This crate *builds* that abstraction instead of assuming it: a
//! [`ConsensusEngine`] multiplexes any number of instances, each named by a
//! key of the embedder's choosing, over an asynchronous network, running Chandra–Toueg
//! rotating-coordinator consensus per instance. It tolerates a minority of
//! crash failures and relies only on the eventually-perfect failure detector
//! provided by `xability-sim` (a ◇S detector suffices for safety+liveness;
//! ◇P is what the simulator provides and what the paper assumes among
//! replicas).
//!
//! `read()` answers from *locally learned* decisions — ⊥ means "no decision
//! known here", a permitted weakening of §5.2 (the protocol only uses
//! `read` as a hint in the cleaner; `propose` on a decided instance always
//! returns the decided value, which is what safety rests on).
//!
//! ## Embedding
//!
//! The engine is transport-agnostic. An actor embeds it by
//!
//! 1. wrapping [`ConsensusMsg`] in its own message enum,
//! 2. implementing [`ConsensusNet`] over its [`xability_sim::Context`]
//!    (see [`CtxNet`]),
//! 3. forwarding consensus messages to [`ConsensusEngine::on_message`] and
//!    calling [`ConsensusEngine::on_tick`] on a periodic timer,
//! 4. reacting to the `(instance, value)` decisions both calls return.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod engine;

pub use engine::{ConsensusEngine, ConsensusMsg, ConsensusNet, InstanceId};

use xability_sim::{Context, ProcessId, SimTime};

/// A ready-made [`ConsensusNet`] over a simulator [`Context`], for actors
/// whose message type embeds [`ConsensusMsg`].
///
/// `wrap` converts a consensus message into the actor's message type.
#[derive(Debug)]
pub struct CtxNet<'a, 'b, M, V, K, F>
where
    F: Fn(ConsensusMsg<V, K>) -> M,
{
    ctx: &'a mut Context<'b, M>,
    wrap: F,
    _marker: std::marker::PhantomData<(V, K)>,
}

impl<'a, 'b, M, V, K, F> CtxNet<'a, 'b, M, V, K, F>
where
    F: Fn(ConsensusMsg<V, K>) -> M,
{
    /// Wraps a context.
    pub fn new(ctx: &'a mut Context<'b, M>, wrap: F) -> Self {
        CtxNet {
            ctx,
            wrap,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<M, V, K, F> ConsensusNet<V, K> for CtxNet<'_, '_, M, V, K, F>
where
    F: Fn(ConsensusMsg<V, K>) -> M,
{
    fn send(&mut self, to: ProcessId, msg: ConsensusMsg<V, K>) {
        let wrapped = (self.wrap)(msg);
        self.ctx.send(to, wrapped);
    }

    fn now(&self) -> SimTime {
        self.ctx.now()
    }

    fn suspects(&self, p: ProcessId) -> bool {
        self.ctx.suspects(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xability_sim::{Actor, LatencyModel, SimConfig, SimDuration, TimerId, World};

    /// Test message type: just the consensus traffic, instances keyed by
    /// number.
    type Msg = ConsensusMsg<u64, u32>;

    /// A participant that proposes a fixed value to a set of instances at
    /// start, and records decisions.
    struct Participant {
        engine: ConsensusEngine<u64, u32>,
        proposals: Vec<(u32, u64)>,
        decided: Vec<(u32, u64)>,
        tick: SimDuration,
    }

    impl Participant {
        fn new(me: ProcessId, peers: Vec<ProcessId>, proposals: Vec<(u32, u64)>) -> Self {
            Participant {
                engine: ConsensusEngine::new(me, peers, SimDuration::from_millis(60)),
                proposals,
                decided: Vec::new(),
                tick: SimDuration::from_millis(10),
            }
        }
    }

    impl Actor<Msg> for Participant {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            let mut net = CtxNet::new(ctx, |m| m);
            for (inst, v) in self.proposals.clone() {
                if let Some(d) = self.engine.propose(&mut net, inst, v) {
                    self.decided.push((inst, d));
                }
            }
            ctx.set_timer(self.tick);
        }

        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: ProcessId, msg: Msg) {
            let mut net = CtxNet::new(ctx, |m| m);
            let newly = self.engine.on_message(&mut net, from, msg);
            self.decided.extend(newly);
        }

        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _timer: TimerId) {
            let mut net = CtxNet::new(ctx, |m| m);
            let newly = self.engine.on_tick(&mut net);
            self.decided.extend(newly);
            ctx.set_timer(self.tick);
        }
    }

    fn build(
        n: usize,
        proposals: impl Fn(usize) -> Vec<(u32, u64)>,
        config: SimConfig,
    ) -> (World<Msg>, Vec<ProcessId>) {
        let mut world = World::new(config);
        let ids: Vec<ProcessId> = (0..n).map(ProcessId).collect();
        for (i, &id) in ids.iter().enumerate() {
            let actor = Participant::new(id, ids.clone(), proposals(i));
            let got = world.add_process(format!("part{i}"), Box::new(actor));
            assert_eq!(got, id);
        }
        (world, ids)
    }

    fn decisions_of(world: &World<Msg>, p: ProcessId, inst: u32) -> Option<u64> {
        let part: &Participant = world.actor_as(p).unwrap();
        part.engine.read(&inst).copied()
    }

    #[test]
    fn all_correct_processes_decide_the_same_value() {
        let inst = 1;
        let (mut world, ids) = build(3, |i| vec![(inst, 100 + i as u64)], SimConfig::with_seed(1));
        world.run_until(SimTime::from_secs(2));
        let d0 = decisions_of(&world, ids[0], inst).expect("p0 decided");
        for &p in &ids {
            assert_eq!(decisions_of(&world, p, inst), Some(d0));
        }
        // Validity: the decision is one of the proposals.
        assert!((100..103).contains(&d0));
    }

    #[test]
    fn decides_with_single_proposer() {
        let inst = 2;
        let (mut world, ids) = build(
            5,
            |i| {
                if i == 2 {
                    vec![(inst, 777)]
                } else {
                    vec![]
                }
            },
            SimConfig::with_seed(2),
        );
        world.run_until(SimTime::from_secs(2));
        for &p in &ids {
            assert_eq!(
                decisions_of(&world, p, inst),
                Some(777),
                "{p} missing decision"
            );
        }
    }

    #[test]
    fn survives_coordinator_crash() {
        let inst = 3;
        // Round 0's coordinator is p0; crash it immediately so another
        // coordinator must finish the instance.
        let (mut world, ids) = build(3, |i| vec![(inst, 10 + i as u64)], SimConfig::with_seed(3));
        world.schedule_crash(ids[0], SimTime::from_millis(1));
        world.run_until(SimTime::from_secs(3));
        let d1 = decisions_of(&world, ids[1], inst).expect("p1 decided");
        let d2 = decisions_of(&world, ids[2], inst).expect("p2 decided");
        assert_eq!(d1, d2);
    }

    #[test]
    fn agreement_under_partial_synchrony() {
        let inst = 4;
        let mut config = SimConfig::with_seed(4);
        config.latency = LatencyModel::partially_synchronous(0.3, SimTime::from_millis(500));
        let (mut world, ids) = build(5, |i| vec![(inst, i as u64)], config);
        world.run_until(SimTime::from_secs(5));
        let d: Vec<Option<u64>> = ids.iter().map(|&p| decisions_of(&world, p, inst)).collect();
        let first = d[0].expect("decided despite false suspicions");
        for v in &d {
            assert_eq!(*v, Some(first));
        }
    }

    #[test]
    fn many_concurrent_instances() {
        let instances: Vec<u32> = (100..120).collect();
        let insts = instances.clone();
        let (mut world, ids) = build(
            3,
            move |i| {
                insts
                    .iter()
                    .map(|&inst| (inst, (i * 1000) as u64))
                    .collect()
            },
            SimConfig::with_seed(5),
        );
        world.run_until(SimTime::from_secs(5));
        for &inst in &instances {
            let d0 = decisions_of(&world, ids[0], inst).expect("decided");
            for &p in &ids {
                assert_eq!(decisions_of(&world, p, inst), Some(d0));
            }
        }
    }

    #[test]
    fn propose_after_decision_returns_decided_value() {
        let inst = 6;
        let (mut world, ids) = build(
            3,
            |i| {
                if i == 0 {
                    vec![(inst, 42)]
                } else {
                    vec![]
                }
            },
            SimConfig::with_seed(6),
        );
        world.run_until(SimTime::from_secs(2));
        assert_eq!(decisions_of(&world, ids[1], inst), Some(42));
        // A late proposal must observe the existing decision, not override it.
        let part: &mut Participant = world.actor_as_mut(ids[1]).unwrap();
        // Direct engine access: a decided instance answers immediately.
        struct NullNet;
        impl ConsensusNet<u64, u32> for NullNet {
            fn send(&mut self, _: ProcessId, _: Msg) {
                panic!("decided instance must not send");
            }
            fn now(&self) -> SimTime {
                SimTime::ZERO
            }
            fn suspects(&self, _: ProcessId) -> bool {
                false
            }
        }
        let got = part.engine.propose(&mut NullNet, inst, 9999);
        assert_eq!(got, Some(42));
    }

    #[test]
    fn read_returns_none_before_any_decision() {
        let (world, ids) = build(3, |_| vec![], SimConfig::with_seed(7));
        assert_eq!(decisions_of(&world, ids[0], 7), None);
    }

    #[test]
    fn decided_instances_are_enumerable() {
        let inst = 8;
        let (mut world, ids) = build(3, |_| vec![(inst, 5)], SimConfig::with_seed(8));
        world.run_until(SimTime::from_secs(2));
        let part: &Participant = world.actor_as(ids[0]).unwrap();
        let all: Vec<_> = part.engine.decided_instances().collect();
        assert_eq!(all, vec![(&inst, &5)]);
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let run = |seed| {
            let inst = 9;
            let (mut world, ids) = build(
                4,
                |i| vec![(inst, i as u64 * 7)],
                SimConfig::with_seed(seed),
            );
            world.run_until(SimTime::from_secs(2));
            decisions_of(&world, ids[3], inst)
        };
        assert_eq!(run(9), run(9));
    }
}
