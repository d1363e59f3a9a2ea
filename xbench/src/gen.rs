//! Seeded input generation. Everything a workload feeds the program under
//! test is built here from `--seed`; the program itself never sees the seed
//! of the benchmark, only the generated scenarios and traces.

use xability_core::{ActionId, ActionName, Event, Request, Value};
use xability_harness::{Scenario, Scheme, Workload as Service};
use xability_protocol::LogicalRequest;
use xability_services::catalog::{Bank, Reservation};
use xability_services::{BusinessLogic, FailurePlan};
use xability_sim::{LatencyModel, NetFaultConfig, ProcessId, SimTime};

/// Input sizes. The full sizes are the benchmark; `--quick` shrinks them
/// about fifty-fold for a smoke run that never counts as a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    pub steady_requests: usize,
    pub fault_sessions: usize,
    pub fault_requests: usize,
    pub online_requests: usize,
    pub durable_requests: usize,
    pub spill_threshold: usize,
    pub consensus_instances: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        steady_requests: 2_000,
        fault_sessions: 40,
        fault_requests: 200,
        online_requests: 300_000,
        durable_requests: 150_000,
        spill_threshold: 65_536,
        consensus_instances: 2_000,
    };

    pub const QUICK: Sizes = Sizes {
        steady_requests: 40,
        fault_sessions: 4,
        fault_requests: 40,
        online_requests: 6_000,
        durable_requests: 3_000,
        spill_threshold: 2_048,
        consensus_instances: 40,
    };
}

/// SplitMix64: the one source of randomness for generated inputs.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The seed of stream `index` of the workload tagged `tag`, derived from
/// the run's master seed.
pub fn derive(master: u64, tag: &str, index: u64) -> u64 {
    let mut h = SplitMix::new(master);
    for b in tag.bytes() {
        h = SplitMix::new(h.next_u64() ^ u64::from(b));
    }
    SplitMix::new(h.next_u64() ^ index).next_u64()
}

// ---------------------------------------------------------------------------
// Protocol sessions
// ---------------------------------------------------------------------------

/// One protocol session: the scenario `Scenario::run` executes, plus the
/// request plan it implies (the traced mirror rebuilds the same world from
/// the two).
#[derive(Debug, Clone)]
pub struct Session {
    pub scenario: Scenario,
    pub plan: Vec<LogicalRequest>,
}

/// Draws the session of one slot of a proto workload:
/// `(master seed, sizes, slot, attempt)`.
pub type DrawSession = fn(u64, &Sizes, usize, u64) -> Session;

/// Slot `slot` of a workload, draw `attempt`: the warm-up redraws a slot
/// whose session the checker could not decide (see `run.rs`).
fn slot_seed(master: u64, tag: &str, slot: usize, attempt: u64) -> u64 {
    derive(master, tag, slot as u64 | attempt << 32)
}

/// `proto_steady`: one long fault-free session at n = 3.
pub fn steady_session(master: u64, sizes: &Sizes, _slot: usize, attempt: u64) -> Session {
    let service = Service::BankTransfers {
        count: sizes.steady_requests,
        amount: 1,
    };
    let scenario = Scenario::new(Scheme::XAble, service)
        .seed(slot_seed(master, "proto_steady", 0, attempt))
        .replicas(3)
        .latency(LatencyModel::synchronous())
        .horizon(SimTime::from_secs(3600));
    session(scenario)
}

/// `proto_faults`, session `s`: short sessions alternating n = 3 / 5 and
/// bank transfers / reservations, each with pre-GST latency spikes, failing
/// service invocations, duplicated and reordered messages and one replica
/// crash. Message loss stays 0: the paper assumes reliable channels.
pub fn fault_session(master: u64, sizes: &Sizes, s: usize, attempt: u64) -> Session {
    let replicas = if s.is_multiple_of(2) { 3 } else { 5 };
    let count = sizes.fault_requests;
    let service = if s % 4 < 2 {
        Service::BankTransfers { count, amount: 1 }
    } else {
        Service::Reservations { count, seats: 1 }
    };
    let crash_at = SimTime::from_millis(200 + (37 * s as u64) % 1500);
    let scenario = Scenario::new(Scheme::XAble, service)
        .seed(slot_seed(master, "proto_faults", s, attempt))
        .replicas(replicas)
        .latency(LatencyModel::partially_synchronous(
            0.05,
            SimTime::from_secs(1),
        ))
        .service_failures(FailurePlan::probabilistic(0.2))
        .net_faults(NetFaultConfig {
            dup_prob: 0.02,
            reorder_prob: 0.05,
            ..NetFaultConfig::none()
        })
        .crash(s % replicas, crash_at)
        .horizon(SimTime::from_secs(600));
    session(scenario)
}

fn session(scenario: Scenario) -> Session {
    let plan = plan_of(&scenario.workload, ProcessId(scenario.replicas));
    Session { scenario, plan }
}

/// The request plan `Scenario::run` submits for `service` (its private
/// `Workload::requests`); the mirror self-check fails if the two diverge.
fn plan_of(service: &Service, service_id: ProcessId) -> Vec<LogicalRequest> {
    let (count, action, payload) = match *service {
        Service::BankTransfers { count, amount } => (
            count,
            ActionName::undoable("transfer"),
            Value::list([
                Value::pair(Value::from("from"), Value::from("src")),
                Value::pair(Value::from("to"), Value::from("dst")),
                Value::pair(Value::from("amount"), Value::from(amount)),
            ]),
        ),
        Service::Reservations { count, seats } => (
            count,
            ActionName::undoable("reserve"),
            Value::list([Value::pair(Value::from("seats"), Value::from(seats))]),
        ),
        other => panic!("xbench generates no {other:?} sessions"),
    };
    (0..count)
        .map(|i| {
            LogicalRequest::new(
                format!("req-{i}"),
                action.clone(),
                payload.clone(),
                service_id,
            )
        })
        .collect()
}

/// The business logic `Scenario::run` installs for `service` (its private
/// `Workload::build_logic`).
pub fn logic_of(service: &Service) -> Box<dyn BusinessLogic> {
    match *service {
        Service::BankTransfers { count, amount } => Box::new(Bank::new([
            ("src".to_owned(), count as i64 * amount + 1_000),
            ("dst".to_owned(), 0),
        ])),
        Service::Reservations { count, seats } => {
            Box::new(Reservation::new(count as i64 * seats + 10))
        }
        other => panic!("xbench generates no {other:?} sessions"),
    }
}

// ---------------------------------------------------------------------------
// Verification traces
// ---------------------------------------------------------------------------

/// Upper bound on the events of one recorded batch.
pub const BATCH_EVENTS: usize = 1024;

/// The four request shapes of the mixed trace, with their event counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Idempotent, first attempt succeeds (2 events).
    IdemClean,
    /// Idempotent, one failed attempt then a success (3 events).
    IdemRetried,
    /// Undoable, executed and committed in round 1 (4 events).
    UndoCommitted,
    /// Undoable, round 1 cancelled, round 2 committed (7 events).
    UndoCancelledThenCommitted,
}

/// A seeded trace of sequential requests, each with a fresh key and one of
/// four equiprobable shapes, plus the request-aligned batching it is
/// replayed in.
#[derive(Debug, Clone)]
pub struct MixedTrace {
    pub events: Vec<Event>,
    pub requests: Vec<Request>,
    pub shapes: Vec<Shape>,
    /// `request_end[i]` = index one past the last event of request `i`.
    pub request_end: Vec<usize>,
}

/// One replay step: declare requests up to `requests`, then record events
/// up to `events` (both exclusive prefix lengths).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Batch {
    pub requests: usize,
    pub events: usize,
}

impl MixedTrace {
    pub fn generate(seed: u64, requests: usize) -> MixedTrace {
        let mut rng = SplitMix::new(seed);
        let put = ActionId::base(ActionName::idempotent("put"));
        let xfer_name = ActionName::undoable("xfer");
        let xfer = ActionId::base(xfer_name.clone());
        let cancel = ActionId::Cancel(xfer_name.clone());
        let commit = ActionId::Commit(xfer_name);
        let mut trace = MixedTrace {
            events: Vec::with_capacity(requests * 4),
            requests: Vec::with_capacity(requests),
            shapes: Vec::with_capacity(requests),
            request_end: Vec::with_capacity(requests),
        };
        for i in 0..requests {
            let draw = rng.next_u64();
            let shape = match draw & 3 {
                0 => Shape::IdemClean,
                1 => Shape::IdemRetried,
                2 => Shape::UndoCommitted,
                _ => Shape::UndoCancelledThenCommitted,
            };
            let key = Value::from(format!("r{i}"));
            let output = Value::from((draw >> 2) as i64 & 0xFFFF_FFFF);
            let events = &mut trace.events;
            let round = |n: i64| Value::pair(key.clone(), Value::from(n));
            let committed_round = |events: &mut Vec<Event>, iv: Value| {
                events.push(Event::start(xfer.clone(), iv.clone()));
                events.push(Event::complete(xfer.clone(), output.clone()));
                events.push(Event::start(commit.clone(), iv));
                events.push(Event::complete(commit.clone(), Value::Nil));
            };
            let action = match shape {
                Shape::IdemClean | Shape::IdemRetried => {
                    if shape == Shape::IdemRetried {
                        events.push(Event::start(put.clone(), key.clone()));
                    }
                    events.push(Event::start(put.clone(), key.clone()));
                    events.push(Event::complete(put.clone(), output.clone()));
                    &put
                }
                Shape::UndoCommitted => {
                    committed_round(events, round(1));
                    &xfer
                }
                Shape::UndoCancelledThenCommitted => {
                    let iv1 = round(1);
                    events.push(Event::start(xfer.clone(), iv1.clone()));
                    events.push(Event::start(cancel.clone(), iv1));
                    events.push(Event::complete(cancel.clone(), Value::Nil));
                    committed_round(events, round(2));
                    &xfer
                }
            };
            trace.requests.push(Request::new(action.clone(), key));
            trace.shapes.push(shape);
            trace.request_end.push(trace.events.len());
        }
        trace
    }

    /// Request-aligned batches of at most [`BATCH_EVENTS`] events: a cut in
    /// the middle of a request legitimately answers `Unknown`, so every
    /// checkpoint falls between requests.
    pub fn batches(&self) -> Vec<Batch> {
        let mut batches = Vec::new();
        let mut start = 0;
        let mut last = Batch {
            requests: 0,
            events: 0,
        };
        for (i, &end) in self.request_end.iter().enumerate() {
            if end - start > BATCH_EVENTS && last.events > start {
                batches.push(last);
                start = last.events;
            }
            last = Batch {
                requests: i + 1,
                events: end,
            };
        }
        if last.events > start {
            batches.push(last);
        }
        batches
    }

    /// A copy of the trace up to the end of request `through`, in which
    /// undoable request `victim` — committed in round 1 — is executed and
    /// committed again in a round 2: its effect applied twice, which no
    /// reduction rule removes.
    pub fn planted_prefix(&self, victim: usize, through: usize) -> MixedTrace {
        assert_eq!(self.shapes[victim], Shape::UndoCommitted);
        assert!(victim <= through);
        let end = self.request_end[victim];
        let round_1 = &self.events[end - 4..end];
        let round_2_input = Value::pair(self.requests[victim].input().clone(), Value::from(2));
        let mut events = self.events[..end].to_vec();
        events.extend(round_1.iter().map(|event| {
            if event.is_start() {
                Event::start(event.action().clone(), round_2_input.clone())
            } else {
                event.clone()
            }
        }));
        events.extend_from_slice(&self.events[end..self.request_end[through]]);
        let request_end = self.request_end[..=through]
            .iter()
            .enumerate()
            .map(|(i, &end)| if i >= victim { end + 4 } else { end })
            .collect();
        MixedTrace {
            events,
            requests: self.requests[..=through].to_vec(),
            shapes: self.shapes[..=through].to_vec(),
            request_end,
        }
    }

    /// The first committed-in-round-1 undoable request at or after `from`.
    pub fn first_undo_committed(&self, from: usize) -> Option<usize> {
        (from..self.shapes.len()).find(|&i| self.shapes[i] == Shape::UndoCommitted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xability_core::xable::{Checker, FastChecker, SearchBudget, SearchChecker};
    use xability_core::History;

    #[test]
    fn generated_inputs_depend_only_on_the_seed() {
        let a = MixedTrace::generate(7, 500);
        let b = MixedTrace::generate(7, 500);
        assert_eq!(a.events, b.events);
        assert_eq!(a.requests, b.requests);
        assert_ne!(a.events, MixedTrace::generate(8, 500).events);

        let seeds = |master: u64, attempt: u64| -> Vec<u64> {
            let mut seeds: Vec<u64> = (0..4)
                .map(|s| {
                    fault_session(master, &Sizes::QUICK, s, attempt)
                        .scenario
                        .seed
                })
                .collect();
            seeds.push(
                steady_session(master, &Sizes::QUICK, 0, attempt)
                    .scenario
                    .seed,
            );
            seeds
        };
        assert_eq!(seeds(1, 0), seeds(1, 0));
        let mut all = [seeds(1, 0), seeds(2, 0), seeds(1, 1)].concat();
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len(),
            15,
            "every slot, master seed and redraw has its own seed"
        );
        assert_ne!(derive(1, "a", 0), derive(1, "b", 0));
        assert_ne!(derive(1, "a", 0), derive(1, "a", 1));
    }

    #[test]
    fn fault_sessions_follow_the_stated_schedule() {
        for s in 0..Sizes::FULL.fault_sessions {
            let session = fault_session(3, &Sizes::FULL, s, 0);
            let sc = &session.scenario;
            assert_eq!(sc.replicas, if s % 2 == 0 { 3 } else { 5 });
            assert_eq!(session.plan.len(), 200);
            assert_eq!(
                sc.crashes,
                vec![(
                    s % sc.replicas,
                    SimTime::from_millis(200 + (37 * s as u64) % 1500)
                )]
            );
            assert_eq!(sc.net_faults.drop_prob, 0.0);
        }
    }

    #[test]
    fn mixed_trace_has_all_four_shapes_and_fresh_keys() {
        let trace = MixedTrace::generate(11, 4_000);
        assert_eq!(trace.requests.len(), 4_000);
        for shape in [
            Shape::IdemClean,
            Shape::IdemRetried,
            Shape::UndoCommitted,
            Shape::UndoCancelledThenCommitted,
        ] {
            let share = trace.shapes.iter().filter(|&&s| s == shape).count();
            assert!((800..1200).contains(&share), "{shape:?}: {share}");
        }
        let mut previous = 0;
        for (shape, &end) in trace.shapes.iter().zip(&trace.request_end) {
            let expected = match shape {
                Shape::IdemClean => 2,
                Shape::IdemRetried => 3,
                Shape::UndoCommitted => 4,
                Shape::UndoCancelledThenCommitted => 7,
            };
            assert_eq!(end - previous, expected);
            previous = end;
        }
        assert_eq!(previous, trace.events.len());
    }

    #[test]
    fn batches_are_request_aligned_and_bounded() {
        let trace = MixedTrace::generate(5, 3_000);
        let batches = trace.batches();
        assert!(batches.len() > 10);
        let mut previous = Batch {
            requests: 0,
            events: 0,
        };
        for batch in &batches {
            assert!(batch.events > previous.events);
            assert!(batch.events - previous.events <= BATCH_EVENTS);
            assert_eq!(batch.events, trace.request_end[batch.requests - 1]);
            previous = *batch;
        }
        assert_eq!(previous.events, trace.events.len());
        assert_eq!(previous.requests, trace.requests.len());
        // All but the last batch are full: one more request would overflow.
        let mut start = 0;
        for batch in &batches[..batches.len() - 1] {
            assert!(trace.request_end[batch.requests] - start > BATCH_EVENTS);
            start = batch.events;
        }
    }

    /// The question as rules 17–20 read it literally. The exhaustive search
    /// has no rule adopting a round-stamped execution into its request: the
    /// committed round is the operation and a cancelled round must erase.
    type Ops = Vec<(ActionId, Value)>;

    fn literal_question(trace: &MixedTrace) -> (Ops, Ops) {
        let (mut ops, mut erasable) = (Vec::new(), Vec::new());
        for (request, shape) in trace.requests.iter().zip(&trace.shapes) {
            let round = |n: i64| {
                let input = Value::pair(request.input().clone(), Value::from(n));
                (request.action().clone(), input)
            };
            match shape {
                Shape::IdemClean | Shape::IdemRetried => {
                    ops.push((request.action().clone(), request.input().clone()));
                }
                Shape::UndoCommitted => ops.push(round(1)),
                Shape::UndoCancelledThenCommitted => {
                    erasable.push(round(1));
                    ops.push(round(2));
                }
            }
        }
        (ops, erasable)
    }

    #[test]
    fn mixed_trace_is_xable_and_the_planted_variant_is_not() {
        let fast = FastChecker::default();
        let search = SearchChecker::new(SearchBudget::small());
        for seed in 0..8 {
            let trace = MixedTrace::generate(seed, 3);
            let h = History::from_events(trace.events.clone());
            assert!(fast.check_requests(&h, &trace.requests).is_xable());
            let (ops, erasable) = literal_question(&trace);
            let verdict = search.check(&h, &ops, &erasable);
            assert!(
                verdict.is_xable(),
                "seed {seed}: {:?}: {verdict}",
                trace.shapes
            );
        }
        let trace = MixedTrace::generate(21, 400);
        let h = History::from_events(trace.events.clone());
        assert!(fast.check_requests(&h, &trace.requests).is_xable());

        let victim = trace
            .first_undo_committed(100)
            .expect("a committed undoable");
        let planted = trace.planted_prefix(victim, victim + 50);
        assert_eq!(planted.events.len(), trace.request_end[victim + 50] + 4);
        assert_eq!(
            planted.batches().last().unwrap().events,
            planted.events.len()
        );
        let h = History::from_events(planted.events.clone());
        // Not `NotXable`: the starts that retried and cancelled shapes leave
        // open make completion attribution ambiguous, and the fast tier then
        // downgrades every rejection to `Unknown`. The reason still names
        // the request.
        let verdict = fast.check_requests(&h, &planted.requests);
        assert!(!verdict.is_xable());
        let reason = verdict.reason().unwrap();
        assert!(
            reason.contains(&format!("\"r{victim}\"")) && reason.contains("2 rounds"),
            "{reason}"
        );

        // The same plant on a trace small enough for the exhaustive oracle:
        // the second committed round neither is an operation nor erases.
        let small = (0..64)
            .map(|seed| MixedTrace::generate(seed, 2))
            .find(|t| t.shapes[0] == Shape::UndoCommitted)
            .expect("some seed starts with a committed undoable");
        let planted = small.planted_prefix(0, 1);
        let h = History::from_events(planted.events.clone());
        assert!(!fast.check_requests(&h, &planted.requests).is_xable());
        let (ops, mut erasable) = literal_question(&planted);
        erasable.push((
            ops[0].0.clone(),
            Value::pair(planted.requests[0].input().clone(), Value::from(2)),
        ));
        assert!(search.check(&h, &ops, &erasable).is_not_xable());
    }
}
