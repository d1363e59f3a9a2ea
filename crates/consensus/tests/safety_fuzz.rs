//! Consensus safety under adversity: agreement and validity must hold for
//! every seed, crash pattern and asynchrony level (termination requires a
//! correct majority and eventual accuracy, which the configs below grant).

use xability_consensus::{ConsensusEngine, ConsensusMsg, CtxNet};
use xability_sim::{
    Actor, Context, LatencyModel, ProcessId, SimConfig, SimDuration, SimTime, TimerId, World,
};

/// Consensus traffic, instances keyed by number.
type Msg = ConsensusMsg<u64, u32>;

struct Participant {
    engine: ConsensusEngine<u64, u32>,
    proposals: Vec<(u32, u64)>,
}

impl Participant {
    fn new(me: ProcessId, peers: Vec<ProcessId>, proposals: Vec<(u32, u64)>) -> Self {
        Participant {
            engine: ConsensusEngine::new(me, peers, SimDuration::from_millis(60)),
            proposals,
        }
    }
}

impl Actor<Msg> for Participant {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        let mut net = CtxNet::new(ctx, |m| m);
        for (inst, v) in self.proposals.clone() {
            let _ = self.engine.propose(&mut net, inst, v);
        }
        ctx.set_timer(SimDuration::from_millis(10));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: ProcessId, msg: Msg) {
        let mut net = CtxNet::new(ctx, |m| m);
        let _ = self.engine.on_message(&mut net, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _timer: TimerId) {
        let mut net = CtxNet::new(ctx, |m| m);
        let _ = self.engine.on_tick(&mut net);
        ctx.set_timer(SimDuration::from_millis(10));
    }
}

/// Runs `n` participants proposing distinct values to `instances` consensus
/// instances, with up to a minority of crashes, and checks agreement +
/// validity + (for the correct majority) termination.
fn check(seed: u64, n: usize, instances: usize, crash_first: bool, spike: f64) {
    let mut config = SimConfig::with_seed(seed);
    config.latency = LatencyModel::partially_synchronous(spike, SimTime::from_millis(400));
    let mut world: World<Msg> = World::new(config);
    let ids: Vec<ProcessId> = (0..n).map(ProcessId).collect();
    let insts: Vec<u32> = (0..instances as u32).collect();
    for (i, &id) in ids.iter().enumerate() {
        let proposals: Vec<(u32, u64)> = insts
            .iter()
            .map(|&inst| (inst, (i * 100 + 1) as u64))
            .collect();
        world.add_process(
            format!("p{i}"),
            Box::new(Participant::new(id, ids.clone(), proposals)),
        );
    }
    if crash_first {
        world.schedule_crash(ids[0], SimTime::from_millis(3));
    }
    world.run_until(SimTime::from_secs(6));

    for inst in &insts {
        let mut decided: Vec<u64> = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            if crash_first && i == 0 {
                continue;
            }
            let p = world
                .actor_as::<Participant>(id)
                .expect("every id is a Participant");
            let d = p.engine.read(inst).copied();
            let v = d.unwrap_or_else(|| {
                panic!("seed {seed}, {inst}: correct process p{i} never decided")
            });
            decided.push(v);
        }
        // Agreement.
        assert!(
            decided.windows(2).all(|w| w[0] == w[1]),
            "seed {seed}, {inst}: disagreement {decided:?}"
        );
        // Validity: the decision is one of the proposals.
        let v = decided[0];
        assert!(
            v % 100 == 1 && (v / 100) < n as u64,
            "seed {seed}, {inst}: decided non-proposed value {v}"
        );
    }
}

#[test]
fn agreement_across_seeds_synchronous() {
    for seed in 0..8 {
        check(seed, 3, 4, false, 0.0);
    }
}

#[test]
fn agreement_with_crashed_coordinator() {
    for seed in 0..8 {
        check(seed, 5, 3, true, 0.0);
    }
}

#[test]
fn agreement_under_partial_synchrony() {
    for seed in 0..6 {
        check(seed, 3, 3, false, 0.3);
    }
}

#[test]
fn agreement_with_crash_and_asynchrony() {
    for seed in 0..6 {
        check(seed, 5, 2, true, 0.25);
    }
}
