//! Simulator-level integration tests: determinism and failure-detector
//! axioms across seeds and adversarial network conditions.

use xability_sim::{
    Actor, Context, LatencyModel, ProcessId, SimConfig, SimDuration, SimTime, TimerId, World,
};

/// A process that gossips counters and records everything it sees.
struct Gossip {
    peers: Vec<ProcessId>,
    sent: u64,
    received: Vec<(ProcessId, u64)>,
    suspicion_log: Vec<(ProcessId, bool)>,
}

impl Gossip {
    fn new(peers: Vec<ProcessId>) -> Self {
        Gossip {
            peers,
            sent: 0,
            received: Vec::new(),
            suspicion_log: Vec::new(),
        }
    }
}

impl Actor<u64> for Gossip {
    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        ctx.set_timer(SimDuration::from_millis(7));
    }

    fn on_message(&mut self, _ctx: &mut Context<'_, u64>, from: ProcessId, msg: u64) {
        self.received.push((from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, u64>, _timer: TimerId) {
        for &p in &self.peers.clone() {
            if p != ctx.me() {
                self.sent += 1;
                ctx.send(p, self.sent);
            }
        }
        ctx.set_timer(SimDuration::from_millis(7));
    }

    fn on_suspicion(&mut self, _ctx: &mut Context<'_, u64>, subject: ProcessId, suspected: bool) {
        self.suspicion_log.push((subject, suspected));
    }
}

fn run(seed: u64, spike: f64, crash: Option<(usize, u64)>) -> Vec<Vec<(ProcessId, u64)>> {
    let mut config = SimConfig::with_seed(seed);
    config.latency = LatencyModel::partially_synchronous(spike, SimTime::from_millis(300));
    let mut world: World<u64> = World::new(config);
    let ids: Vec<ProcessId> = (0..4).map(ProcessId).collect();
    for &id in &ids {
        world.add_process(format!("g{}", id.0), Box::new(Gossip::new(ids.clone())));
    }
    if let Some((idx, ms)) = crash {
        world.schedule_crash(ids[idx], SimTime::from_millis(ms));
    }
    world.run_until(SimTime::from_millis(800));
    ids.iter()
        .map(|&id| {
            world
                .actor_as::<Gossip>(id)
                .expect("every id is a Gossip")
                .received
                .clone()
        })
        .collect()
}

#[test]
fn identical_runs_are_bit_identical() {
    for seed in [0u64, 7, 99] {
        assert_eq!(
            run(seed, 0.3, Some((1, 100))),
            run(seed, 0.3, Some((1, 100))),
            "seed {seed} diverged"
        );
    }
}

#[test]
fn different_seeds_diverge() {
    assert_ne!(run(1, 0.3, None), run(2, 0.3, None));
}

#[test]
fn crashed_processes_stop_receiving_and_sending() {
    let mut config = SimConfig::with_seed(5);
    config.latency = LatencyModel::synchronous();
    let mut world: World<u64> = World::new(config);
    let ids: Vec<ProcessId> = (0..3).map(ProcessId).collect();
    for &id in &ids {
        world.add_process(format!("g{}", id.0), Box::new(Gossip::new(ids.clone())));
    }
    world.schedule_crash(ids[2], SimTime::from_millis(50));
    world.run_until(SimTime::from_millis(600));
    // Messages from the crashed process stop: the live processes'
    // receptions from p2 all have low payloads.
    for &id in &ids[..2] {
        let g = world.actor_as::<Gossip>(id).unwrap();
        let from_crashed: Vec<u64> = g
            .received
            .iter()
            .filter(|(p, _)| *p == ids[2])
            .map(|(_, m)| *m)
            .collect();
        // ~7 timer fires before the crash, 2 messages per fire.
        assert!(!from_crashed.is_empty());
        assert!(
            from_crashed.iter().all(|&m| m <= 20),
            "crashed process kept sending: {from_crashed:?}"
        );
    }
}

#[test]
fn fd_strong_completeness_holds_across_seeds() {
    for seed in 0..10u64 {
        let mut config = SimConfig::with_seed(seed);
        config.latency = LatencyModel::partially_synchronous(0.2, SimTime::from_millis(200));
        let mut world: World<u64> = World::new(config);
        let ids: Vec<ProcessId> = (0..3).map(ProcessId).collect();
        for &id in &ids {
            world.add_process(format!("g{}", id.0), Box::new(Gossip::new(ids.clone())));
        }
        world.schedule_crash(ids[0], SimTime::from_millis(40));
        world.run_until(SimTime::from_secs(1));
        for &id in &ids[1..] {
            assert!(
                world.suspected_by(id).contains(&ids[0]),
                "seed {seed}: {id} never suspected the crashed process"
            );
        }
    }
}

#[test]
fn fd_eventual_accuracy_holds_across_seeds() {
    for seed in 0..10u64 {
        let mut config = SimConfig::with_seed(seed);
        config.latency = LatencyModel::partially_synchronous(0.35, SimTime::from_millis(250));
        let mut world: World<u64> = World::new(config);
        let ids: Vec<ProcessId> = (0..3).map(ProcessId).collect();
        for &id in &ids {
            world.add_process(format!("g{}", id.0), Box::new(Gossip::new(ids.clone())));
        }
        // Run well past GST + timeout: all suspicions must have cleared.
        world.run_until(SimTime::from_secs(2));
        for &id in &ids {
            assert!(
                world.suspected_by(id).is_empty(),
                "seed {seed}: lingering suspicion after GST at {id}"
            );
        }
    }
}

#[test]
fn suspicion_callbacks_come_in_matched_pairs_after_gst() {
    let mut config = SimConfig::with_seed(11);
    config.latency = LatencyModel::partially_synchronous(0.4, SimTime::from_millis(200));
    let mut world: World<u64> = World::new(config);
    let ids: Vec<ProcessId> = (0..3).map(ProcessId).collect();
    for &id in &ids {
        world.add_process(format!("g{}", id.0), Box::new(Gossip::new(ids.clone())));
    }
    world.run_until(SimTime::from_secs(2));
    for &id in &ids {
        let g = world.actor_as::<Gossip>(id).unwrap();
        // Every suspicion of a live process is eventually retracted: per
        // subject, (suspect=true) events equal (suspect=false) events.
        for &subject in &ids {
            let ups = g
                .suspicion_log
                .iter()
                .filter(|&&(s, v)| s == subject && v)
                .count();
            let downs = g
                .suspicion_log
                .iter()
                .filter(|&&(s, v)| s == subject && !v)
                .count();
            assert_eq!(ups, downs, "{id} has unbalanced suspicions of {subject}");
        }
    }
}
