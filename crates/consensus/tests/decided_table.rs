//! The engine's decided table against a `BTreeMap` model: a seeded walk
//! over more than 10 000 instances decides them through peers' `Decide`
//! messages, probes them with `read`, with late messages and with
//! proposals, and checks every answer against the model — and that
//! `decided_instances` lists them in the order they decided.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::hash::Hash;
use std::sync::Arc;

use xability_consensus::{ConsensusEngine, ConsensusMsg, ConsensusNet};
use xability_sim::{ProcessId, SimDuration, SimTime};

/// Decisions the walk reaches before it stops.
const DECISIONS: usize = 10_500;

/// A network that records what the engine sends; time stands still and
/// nobody is suspected.
struct Net<K> {
    sent: Vec<(ProcessId, ConsensusMsg<u64, K>)>,
}

impl<K> ConsensusNet<u64, K> for Net<K> {
    fn send(&mut self, to: ProcessId, msg: ConsensusMsg<u64, K>) {
        self.sent.push((to, msg));
    }

    fn now(&self) -> SimTime {
        SimTime::ZERO
    }

    fn suspects(&self, _: ProcessId) -> bool {
        false
    }
}

/// A fixed multiplicative walk: `next(bound)` is a number below `bound`.
struct Walk(u64);

impl Walk {
    fn next(&mut self, bound: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % bound
    }
}

/// Drives one engine (`p1` of three) with keys `key(0)`, `key(1)`, … and
/// checks each answer against the model.
fn agrees_with_a_btree_map_model<K: Ord + Hash + Clone + Debug>(key: impl Fn(u64) -> K) {
    let [p0, p1, p2] = [0, 1, 2].map(ProcessId);
    let mut engine = ConsensusEngine::new(p1, vec![p0, p1, p2], SimDuration::from_millis(50));
    let mut net = Net { sent: Vec::new() };
    let mut model: BTreeMap<K, u64> = BTreeMap::new();
    let mut order: Vec<K> = Vec::new();
    let mut walk = Walk(1);
    let mut step = 0u64;
    while order.len() < DECISIONS {
        step += 1;
        // Drawn from twice the decided count: about half the keys drawn
        // have decided, the rest are running or never seen.
        let id = key(walk.next(2 * order.len() as u64 + 16));
        let known = model.get(&id).copied();
        net.sent.clear();
        let decided = match walk.next(4) {
            // A peer relays a decision: learned once, ignored after.
            0 => {
                let value = walk.next(1_000);
                let decide = ConsensusMsg::Decide {
                    instance: id.clone(),
                    value,
                };
                let got = engine.on_message(&mut net, p0, decide);
                if known.is_some() {
                    assert_eq!(got, None, "step {step}");
                    assert!(net.sent.is_empty(), "step {step}: {:?}", net.sent);
                } else {
                    assert_eq!(got, Some((id.clone(), value)), "step {step}");
                }
                got
            }
            // A late message for a decided instance: answered with its
            // decision and nothing else. (For an undecided one, the walk
            // reads instead: a message no peer would send, such as an ack
            // of a proposal never made, is outside the engine's contract.)
            1 => {
                let Some(value) = known else {
                    assert_eq!(engine.read(&id), None, "step {step}");
                    continue;
                };
                let (instance, round) = (id.clone(), walk.next(4));
                let late = match walk.next(4) {
                    0 => ConsensusMsg::Estimate {
                        instance,
                        round,
                        value: 7,
                        ts: 0,
                    },
                    1 => ConsensusMsg::Propose {
                        instance,
                        round,
                        value: 7,
                    },
                    2 => ConsensusMsg::Ack { instance, round },
                    _ => ConsensusMsg::Nack { instance, round },
                };
                assert_eq!(engine.on_message(&mut net, p2, late), None, "step {step}");
                let decide = ConsensusMsg::Decide {
                    instance: id.clone(),
                    value,
                };
                assert_eq!(net.sent, [(p2, decide)], "step {step}");
                None
            }
            // A proposal: a decided instance returns its decision and
            // sends nothing; in a group of three no proposal decides alone.
            2 => {
                let got = engine.propose(&mut net, id.clone(), 5);
                assert_eq!(got, known, "step {step}");
                if known.is_some() {
                    assert!(net.sent.is_empty(), "step {step}: {:?}", net.sent);
                }
                None
            }
            _ => {
                assert_eq!(engine.read(&id).copied(), known, "step {step}");
                None
            }
        };
        if let Some((instance, value)) = decided {
            assert_eq!(instance, id, "step {step}");
            assert!(model.insert(instance.clone(), value).is_none());
            order.push(instance);
        }
        if step % 4_096 == 0 {
            assert_listed_in_decision_order(&engine, &model, &order);
        }
    }
    assert_listed_in_decision_order(&engine, &model, &order);
    // Every key the walk could draw, and some past it.
    for n in 0..2 * DECISIONS as u64 + 64 {
        let id = key(n);
        assert_eq!(engine.read(&id), model.get(&id), "{id:?}");
    }
}

fn assert_listed_in_decision_order<K: Ord + Hash + Clone + Debug>(
    engine: &ConsensusEngine<u64, K>,
    model: &BTreeMap<K, u64>,
    order: &[K],
) {
    let listed: Vec<(&K, &u64)> = engine.decided_instances().collect();
    let expected: Vec<(&K, &u64)> = order.iter().map(|id| (id, &model[id])).collect();
    assert_eq!(listed, expected);
}

#[test]
fn decided_table_agrees_with_a_btree_map_model_under_sparse_u32_keys() {
    // Every key's low 16 bits are zero.
    agrees_with_a_btree_map_model(|n| u32::try_from(n << 16).expect("fits"));
}

#[test]
fn decided_table_agrees_with_a_btree_map_model_under_long_shared_prefixes() {
    // 48 shared bytes (six whole hash words), and ids that are prefixes
    // of one another (`…-1`, `…-10`, `…-100`).
    const PREFIX: &str = "owner/a-request-id-that-shares-six-whole-words--";
    agrees_with_a_btree_map_model(|n| Arc::new(format!("{PREFIX}{n}")));
}
