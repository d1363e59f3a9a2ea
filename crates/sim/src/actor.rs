//! Actors and their execution context.
//!
//! A simulated process is an [`Actor`]: an event-driven state machine that
//! reacts to message deliveries, timer expirations, and failure-detector
//! suspicion changes. During a callback the actor interacts with the world
//! exclusively through its [`Context`], which records the effects (sends,
//! timers) for the kernel to apply afterwards — this keeps callbacks pure
//! with respect to the event queue and preserves determinism.

use std::any::Any;
use std::collections::BTreeSet;
use std::fmt;

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::time::{SimDuration, SimTime};

/// Identifies a simulated process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ProcessId(pub usize);

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Identifies a timer set by an actor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub u64);

impl fmt::Display for TimerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "timer#{}", self.0)
    }
}

/// A simulated process: an event-driven state machine.
///
/// The message type `M` is chosen by the system being simulated; all actors
/// in one [`crate::World`] share it (a system-wide message enum is the usual
/// choice).
///
/// `Actor` requires [`Any`] so that tests and harnesses can downcast a
/// process back to its concrete type for inspection after a run (see
/// [`crate::World::actor_as`]).
pub trait Actor<M>: Any {
    /// Called once when the simulation starts (at time zero, before any
    /// message can be delivered).
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        let _ = ctx;
    }

    /// Called when a message from `from` is delivered to this process.
    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: ProcessId, msg: M);

    /// Called when a timer set through [`Context::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Context<'_, M>, timer: TimerId) {
        let _ = (ctx, timer);
    }

    /// Called when this process's failure detector changes its suspicion of
    /// `subject`: `suspected` is the new state.
    fn on_suspicion(&mut self, ctx: &mut Context<'_, M>, subject: ProcessId, suspected: bool) {
        let _ = (ctx, subject, suspected);
    }
}

/// The interface through which an actor interacts with the world during a
/// callback.
///
/// Effects (message sends, timers) are buffered and applied by the kernel
/// after the callback returns; queries (time, failure-detector state,
/// randomness) are answered immediately.
#[derive(Debug)]
pub struct Context<'a, M> {
    pub(crate) now: SimTime,
    pub(crate) me: ProcessId,
    pub(crate) rng: &'a mut StdRng,
    pub(crate) suspected: &'a BTreeSet<ProcessId>,
    pub(crate) next_timer: &'a mut u64,
    pub(crate) outbox: Vec<(ProcessId, M)>,
    pub(crate) new_timers: Vec<(SimDuration, TimerId)>,
}

impl<M> Context<'_, M> {
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This process's id.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Sends `msg` to `to` over the (reliable, asynchronous) network.
    ///
    /// Delivery latency is sampled from the world's [`crate::LatencyModel`];
    /// messages between correct processes are delivered exactly once.
    /// Sending to oneself is allowed and also goes through the network.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.outbox.push((to, msg));
    }

    /// Sets a one-shot timer that fires after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration) -> TimerId {
        let id = TimerId(*self.next_timer);
        *self.next_timer += 1;
        self.new_timers.push((delay, id));
        id
    }

    /// The paper's `suspect(p)` predicate (§5.3): does this process's
    /// failure detector currently suspect `subject`?
    pub fn suspects(&self, subject: ProcessId) -> bool {
        self.suspected.contains(&subject)
    }

    /// The set of currently suspected processes.
    pub fn suspected_set(&self) -> &BTreeSet<ProcessId> {
        self.suspected
    }

    /// Deterministic randomness for non-deterministic actions.
    ///
    /// All randomness in a run flows from the world's seed, so runs are
    /// reproducible.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn context_buffers_effects() {
        let mut rng = StdRng::seed_from_u64(0);
        let suspected = BTreeSet::from([ProcessId(3)]);
        let mut next_timer = 5u64;
        let mut ctx: Context<'_, &'static str> = Context {
            now: SimTime::from_millis(2),
            me: ProcessId(1),
            rng: &mut rng,
            suspected: &suspected,
            next_timer: &mut next_timer,
            outbox: Vec::new(),
            new_timers: Vec::new(),
        };
        assert_eq!(ctx.me(), ProcessId(1));
        assert_eq!(ctx.now(), SimTime::from_millis(2));
        assert!(ctx.suspects(ProcessId(3)));
        assert!(!ctx.suspects(ProcessId(2)));
        assert_eq!(ctx.suspected_set().len(), 1);

        ctx.send(ProcessId(2), "hello");
        let t1 = ctx.set_timer(SimDuration::from_millis(1));
        let t2 = ctx.set_timer(SimDuration::from_millis(2));
        assert_eq!(t1, TimerId(5));
        assert_eq!(t2, TimerId(6));
        assert_eq!(ctx.outbox.len(), 1);
        assert_eq!(ctx.new_timers.len(), 2);
        assert_eq!(next_timer, 7);
    }

    #[test]
    fn ids_display() {
        assert_eq!(format!("{}", ProcessId(4)), "p4");
        assert_eq!(format!("{}", TimerId(9)), "timer#9");
    }
}
