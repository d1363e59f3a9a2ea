//! The simulation kernel: a deterministic discrete-event executor.
//!
//! The [`World`] owns every simulated process, the event queue, the clock,
//! the network, and the failure-detection machinery. Determinism: all
//! randomness flows from the configured seed, and events with equal
//! timestamps are processed in scheduling order, so two runs of the same
//! program with the same [`crate::SimConfig`] are bit-identical.
//!
//! ## Built-in failure detection
//!
//! Every process broadcasts heartbeats every `fd.heartbeat_every`; a process
//! that has not heard from `q` for `fd.timeout` suspects `q`. With a
//! partially synchronous [`crate::LatencyModel`], pre-GST latency spikes
//! cause *false* suspicions; after GST the detector is accurate. Together
//! with the fact that a crashed process stops sending heartbeats, this
//! implements the eventually-perfect failure detector ◇P that the paper
//! assumes among replicas, and the strong-completeness-only detector it
//! assumes at the client (§5.2).

use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use xability_obs::{Counter, Obs};

use crate::actor::{Actor, Context, ProcessId, TimerId};
use crate::config::SimConfig;
use crate::time::{SimDuration, SimTime};

/// Counters describing what happened during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Protocol messages handed to the network.
    pub messages_sent: u64,
    /// Protocol messages delivered to live processes.
    pub messages_delivered: u64,
    /// Protocol messages dropped because the destination had crashed.
    pub messages_dropped: u64,
    /// Timers that fired at a live process.
    pub timers_fired: u64,
    /// Heartbeats delivered (failure-detector traffic, counted separately).
    pub heartbeats_delivered: u64,
    /// Individual suspicion flips (either direction) across all processes.
    pub suspicion_changes: u64,
    /// Total kernel events processed.
    pub events_processed: u64,
    /// Protocol messages lost to injected message loss
    /// ([`crate::NetFaultConfig::drop_prob`]).
    pub messages_lost: u64,
    /// Protocol messages duplicated by injected duplication (each counts
    /// one extra delivery attempt).
    pub messages_duplicated: u64,
    /// Protocol messages delayed by injected reordering.
    pub messages_reordered: u64,
    /// Messages (protocol and heartbeat) dropped at a partition boundary.
    pub partition_dropped: u64,
}

/// The kinds of per-link traffic the transport counts.
#[derive(Debug, Clone, Copy)]
enum LinkKind {
    Sent,
    Delivered,
    DroppedDead,
    PartitionDropped,
    Lost,
    Reordered,
    Duplicated,
}

impl LinkKind {
    const COUNT: usize = 7;

    /// The counter name in the metrics snapshot.
    fn name(self) -> &'static str {
        match self {
            LinkKind::Sent => "sim.link.sent",
            LinkKind::Delivered => "sim.link.delivered",
            LinkKind::DroppedDead => "sim.link.dropped_dead",
            LinkKind::PartitionDropped => "sim.link.partition_dropped",
            LinkKind::Lost => "sim.link.lost",
            LinkKind::Reordered => "sim.link.reordered",
            LinkKind::Duplicated => "sim.link.duplicated",
        }
    }
}

/// Per-link transport counters over an attached [`Obs`] registry: a
/// `[from][to]` table of one handle per [`LinkKind`].
///
/// Counter handles are registered lazily the first time a link carries the
/// corresponding kind of traffic; the link key string (`"p0->p1"`) is
/// formatted at registration time only, never on the record path. With no
/// registry attached ([`Obs::noop`]) the whole thing is one branch.
#[derive(Debug)]
struct LinkObs {
    obs: Obs,
    counters: Vec<Vec<[Option<Counter>; LinkKind::COUNT]>>,
}

impl LinkObs {
    fn new(obs: Obs) -> Self {
        LinkObs {
            obs,
            counters: Vec::new(),
        }
    }

    fn bump(&mut self, kind: LinkKind, from: ProcessId, to: ProcessId) {
        if !self.obs.is_enabled() {
            return;
        }
        if self.counters.len() <= from.0 {
            self.counters.resize_with(from.0 + 1, Vec::new);
        }
        let row = &mut self.counters[from.0];
        if row.len() <= to.0 {
            row.resize_with(to.0 + 1, Default::default);
        }
        let obs = &self.obs;
        row[to.0][kind as usize]
            .get_or_insert_with(|| {
                obs.counter_keyed(kind.name(), &format!("p{}->p{}", from.0, to.0))
            })
            .inc();
    }
}

/// A scheduled network partition: while active, messages between a member
/// and a non-member are dropped (both directions, heartbeats included).
/// Healing is implicit — the window simply ends.
#[derive(Debug, Clone)]
struct PartitionWindow {
    members: BTreeSet<ProcessId>,
    from: SimTime,
    until: SimTime,
}

impl PartitionWindow {
    fn severs(&self, now: SimTime, a: ProcessId, b: ProcessId) -> bool {
        now >= self.from
            && now < self.until
            && (self.members.contains(&a) != self.members.contains(&b))
    }
}

#[derive(Debug)]
enum EventKind<M> {
    Start(ProcessId),
    Deliver {
        from: ProcessId,
        to: ProcessId,
        msg: M,
    },
    Timer {
        process: ProcessId,
        timer: TimerId,
    },
    Crash(ProcessId),
    HeartbeatTick(ProcessId),
    HeartbeatArrival {
        from: ProcessId,
        to: ProcessId,
    },
    FdCheck(ProcessId),
}

/// A queue entry: when the event fires and where its payload waits in
/// [`World`]'s payload table. Ordered by `(time, seq)`; `seq` is unique,
/// so the payload index never decides an order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct QueuedEvent {
    time: SimTime,
    seq: u64,
    payload: usize,
}

#[derive(Debug, Default)]
struct FdState {
    last_heard: BTreeMap<ProcessId, SimTime>,
    suspected: BTreeSet<ProcessId>,
}

struct Slot<M> {
    name: String,
    actor: Option<Box<dyn Actor<M>>>,
    alive: bool,
    fd: FdState,
}

impl<M> std::fmt::Debug for Slot<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slot")
            .field("name", &self.name)
            .field("alive", &self.alive)
            .field("suspected", &self.fd.suspected)
            .finish()
    }
}

/// The deterministic discrete-event world.
///
/// # Examples
///
/// ```
/// use xability_sim::{Actor, Context, ProcessId, SimConfig, SimTime, World};
///
/// struct Echo;
/// impl Actor<String> for Echo {
///     fn on_message(&mut self, ctx: &mut Context<'_, String>, from: ProcessId, msg: String) {
///         if msg == "ping" {
///             ctx.send(from, "pong".to_owned());
///         }
///     }
/// }
///
/// struct Caller {
///     peer: ProcessId,
///     pub reply: Option<String>,
/// }
/// impl Actor<String> for Caller {
///     fn on_start(&mut self, ctx: &mut Context<'_, String>) {
///         ctx.send(self.peer, "ping".to_owned());
///     }
///     fn on_message(&mut self, _ctx: &mut Context<'_, String>, _from: ProcessId, msg: String) {
///         self.reply = Some(msg);
///     }
/// }
///
/// let mut world = World::new(SimConfig::with_seed(42));
/// let echo = world.add_process("echo", Box::new(Echo));
/// let caller = world.add_process("caller", Box::new(Caller { peer: echo, reply: None }));
/// world.run_until(SimTime::from_secs(1));
/// let caller_state: &Caller = world.actor_as(caller).unwrap();
/// assert_eq!(caller_state.reply.as_deref(), Some("pong"));
/// ```
pub struct World<M> {
    config: SimConfig,
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<QueuedEvent>>,
    /// The queued events' payloads, indexed by [`QueuedEvent::payload`];
    /// `None` in the entries listed in `free_payloads`, ready for reuse.
    payloads: Vec<Option<EventKind<M>>>,
    free_payloads: Vec<usize>,
    slots: Vec<Slot<M>>,
    rng: StdRng,
    metrics: Metrics,
    next_timer: u64,
    partitions: Vec<PartitionWindow>,
    link_obs: LinkObs,
    /// The effect buffers a callback's [`Context`] fills, lent to each
    /// dispatch and drained after it, so they are allocated once per world.
    outbox: Vec<(ProcessId, M)>,
    new_timers: Vec<(SimDuration, TimerId)>,
}

impl<M> std::fmt::Debug for World<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("now", &self.now)
            .field("processes", &self.slots)
            .field("queued_events", &self.queue.len())
            .field("metrics", &self.metrics)
            .finish()
    }
}

impl<M: std::fmt::Debug + Clone + 'static> World<M> {
    /// Creates an empty world.
    pub fn new(config: SimConfig) -> Self {
        World {
            config,
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            payloads: Vec::new(),
            free_payloads: Vec::new(),
            slots: Vec::new(),
            rng: StdRng::seed_from_u64(config.seed),
            metrics: Metrics::default(),
            next_timer: 0,
            partitions: Vec::new(),
            link_obs: LinkObs::new(Obs::noop()),
            outbox: Vec::new(),
            new_timers: Vec::new(),
        }
    }

    /// Attaches a metrics registry: from here on the transport records
    /// per-link sent/delivered/lost/duplicated/reordered/partition-dropped
    /// counters into it. The default is [`Obs::noop`], which costs one
    /// branch per message.
    pub fn attach_obs(&mut self, obs: &Obs) {
        self.link_obs = LinkObs::new(obs.clone());
    }

    /// Adds a process to the world and schedules its start, heartbeat and
    /// failure-detection activity.
    pub fn add_process(&mut self, name: impl Into<String>, actor: Box<dyn Actor<M>>) -> ProcessId {
        let id = ProcessId(self.slots.len());
        let mut fd = FdState::default();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            slot.fd.last_heard.insert(id, self.now);
            fd.last_heard.insert(ProcessId(i), self.now);
        }
        self.slots.push(Slot {
            name: name.into(),
            actor: Some(actor),
            alive: true,
            fd,
        });
        self.push_event(self.now, EventKind::Start(id));
        self.push_event(
            self.now + self.config.fd.heartbeat_every,
            EventKind::HeartbeatTick(id),
        );
        self.push_event(
            self.now + self.config.fd.heartbeat_every,
            EventKind::FdCheck(id),
        );
        id
    }

    /// Schedules `process` to crash at `at` (crash-stop: it never recovers),
    /// validating the time.
    ///
    /// # Errors
    ///
    /// Fails if `at` is in the simulated past; the error carries the
    /// current simulated time.
    pub fn try_schedule_crash(&mut self, process: ProcessId, at: SimTime) -> Result<(), SimTime> {
        if at < self.now {
            return Err(self.now);
        }
        self.push_event(at, EventKind::Crash(process));
        Ok(())
    }

    /// Schedules `process` to crash at `at` (crash-stop: it never recovers).
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the simulated past; use
    /// [`World::try_schedule_crash`] for a fallible variant.
    pub fn schedule_crash(&mut self, process: ProcessId, at: SimTime) {
        if let Err(now) = self.try_schedule_crash(process, at) {
            panic!("cannot schedule a crash in the past (at {at}, now {now})");
        }
    }

    /// Schedules a network partition: from `from` until `until`, every
    /// message (heartbeats included) between a member of `members` and a
    /// non-member is dropped, in both directions. The partition heals
    /// implicitly when the window ends. Windows may overlap; a message is
    /// dropped if *any* active window severs its endpoints.
    ///
    /// # Errors
    ///
    /// Fails if `from` is in the simulated past or the window is empty
    /// (`until <= from`); the error carries the current simulated time.
    pub fn try_schedule_partition(
        &mut self,
        members: &[ProcessId],
        from: SimTime,
        until: SimTime,
    ) -> Result<(), SimTime> {
        if from < self.now || until <= from {
            return Err(self.now);
        }
        self.partitions.push(PartitionWindow {
            members: members.iter().copied().collect(),
            from,
            until,
        });
        Ok(())
    }

    /// Schedules a network partition (see [`World::try_schedule_partition`]).
    ///
    /// # Panics
    ///
    /// Panics if the window is in the simulated past or empty; use
    /// [`World::try_schedule_partition`] for a fallible variant.
    pub fn schedule_partition(&mut self, members: &[ProcessId], from: SimTime, until: SimTime) {
        if let Err(now) = self.try_schedule_partition(members, from, until) {
            panic!("invalid partition window [{from}, {until}) at sim time {now}");
        }
    }

    /// `true` when some active partition window currently severs `a`
    /// from `b`.
    pub fn partitioned(&self, a: ProcessId, b: ProcessId) -> bool {
        self.partitions.iter().any(|w| w.severs(self.now, a, b))
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The number of processes ever added.
    pub fn process_count(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` if the process has not crashed.
    pub fn is_alive(&self, process: ProcessId) -> bool {
        self.slots[process.0].alive
    }

    /// The name given to a process at [`World::add_process`] time.
    pub fn process_name(&self, process: ProcessId) -> &str {
        &self.slots[process.0].name
    }

    /// The set of processes currently suspected by `process`'s failure
    /// detector.
    pub fn suspected_by(&self, process: ProcessId) -> &BTreeSet<ProcessId> {
        &self.slots[process.0].fd.suspected
    }

    /// Run metrics so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Downcasts a process's actor to its concrete type for inspection.
    ///
    /// Returns `None` if the type does not match.
    pub fn actor_as<T: Actor<M>>(&self, process: ProcessId) -> Option<&T> {
        let actor = self.slots[process.0].actor.as_deref()?;
        (actor as &dyn Any).downcast_ref::<T>()
    }

    /// Mutable variant of [`World::actor_as`] (useful to inject state
    /// between runs in tests).
    pub fn actor_as_mut<T: Actor<M>>(&mut self, process: ProcessId) -> Option<&mut T> {
        let actor = self.slots[process.0].actor.as_deref_mut()?;
        (actor as &mut dyn Any).downcast_mut::<T>()
    }

    /// Processes a single event, if any remains. Returns `false` when the
    /// queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(Reverse(event)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(event.time >= self.now, "time went backwards");
        let kind = self.payloads[event.payload]
            .take()
            .expect("a queued event's payload is present");
        self.free_payloads.push(event.payload);
        self.now = event.time;
        self.metrics.events_processed += 1;
        self.handle(kind);
        true
    }

    /// Runs every event scheduled at or before `deadline`, then advances the
    /// clock to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(Reverse(ev)) = self.queue.peek() {
            if ev.time > deadline {
                break;
            }
            self.step();
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Runs until `pred` returns `false` (checked between events) or the
    /// deadline passes. Returns `true` if the predicate turned false before
    /// the deadline (i.e. the awaited condition was reached).
    pub fn run_while<F: FnMut(&Self) -> bool>(&mut self, mut pred: F, deadline: SimTime) -> bool {
        loop {
            if !pred(self) {
                return true;
            }
            match self.queue.peek() {
                Some(Reverse(ev)) if ev.time <= deadline => {
                    self.step();
                }
                _ => {
                    if self.now < deadline {
                        self.now = deadline;
                    }
                    return !pred(self);
                }
            }
        }
    }

    fn push_event(&mut self, time: SimTime, kind: EventKind<M>) {
        let seq = self.seq;
        self.seq += 1;
        let payload = match self.free_payloads.pop() {
            Some(free) => {
                self.payloads[free] = Some(kind);
                free
            }
            None => {
                self.payloads.push(Some(kind));
                self.payloads.len() - 1
            }
        };
        self.queue.push(Reverse(QueuedEvent { time, seq, payload }));
    }

    fn handle(&mut self, kind: EventKind<M>) {
        match kind {
            EventKind::Start(p) => {
                self.dispatch(p, |actor, ctx| actor.on_start(ctx));
            }
            EventKind::Deliver { from, to, msg } => {
                if self.slots[to.0].alive {
                    self.metrics.messages_delivered += 1;
                    self.link_obs.bump(LinkKind::Delivered, from, to);
                    self.dispatch(to, |actor, ctx| actor.on_message(ctx, from, msg));
                } else {
                    self.metrics.messages_dropped += 1;
                    self.link_obs.bump(LinkKind::DroppedDead, from, to);
                }
            }
            EventKind::Timer { process, timer } => {
                if self.slots[process.0].alive {
                    self.metrics.timers_fired += 1;
                    self.dispatch(process, |actor, ctx| actor.on_timer(ctx, timer));
                }
            }
            EventKind::Crash(p) => {
                self.slots[p.0].alive = false;
            }
            EventKind::HeartbeatTick(p) => {
                if !self.slots[p.0].alive {
                    return;
                }
                for q in 0..self.slots.len() {
                    if q == p.0 {
                        continue;
                    }
                    let to = ProcessId(q);
                    // Heartbeats share the physical network: partitions
                    // sever them (that is what makes a partition look like
                    // a crash to ◇P) and injected loss applies. Duplication
                    // and reordering are not sampled for heartbeats — the
                    // detector's `last_heard` is monotone, so a duplicate
                    // is absorbed and keeping the draw count down keeps
                    // heartbeat traffic cheap.
                    if self.partitioned(p, to) {
                        self.metrics.partition_dropped += 1;
                        self.link_obs.bump(LinkKind::PartitionDropped, p, to);
                        continue;
                    }
                    if self.config.faults.drop_prob > 0.0
                        && self.rng.random_bool(self.config.faults.drop_prob)
                    {
                        self.metrics.messages_lost += 1;
                        continue;
                    }
                    let delay = self.config.latency.sample(self.now, &mut self.rng);
                    let at = self.now + delay;
                    self.push_event(at, EventKind::HeartbeatArrival { from: p, to });
                }
                let next = self.now + self.config.fd.heartbeat_every;
                self.push_event(next, EventKind::HeartbeatTick(p));
            }
            EventKind::HeartbeatArrival { from, to } => {
                if !self.slots[to.0].alive {
                    return;
                }
                self.metrics.heartbeats_delivered += 1;
                let entry = self.slots[to.0]
                    .fd
                    .last_heard
                    .entry(from)
                    .or_insert(self.now);
                if *entry < self.now {
                    *entry = self.now;
                }
            }
            EventKind::FdCheck(p) => {
                if !self.slots[p.0].alive {
                    return;
                }
                let timeout = self.config.fd.timeout;
                let now = self.now;
                let mut changes: Vec<(ProcessId, bool)> = Vec::new();
                {
                    let fd = &mut self.slots[p.0].fd;
                    for q in 0..fd.last_heard.len() + 1 {
                        let q = ProcessId(q);
                        if q == p {
                            continue;
                        }
                        let Some(&last) = fd.last_heard.get(&q) else {
                            continue;
                        };
                        let suspect_now = now.since(last) > timeout;
                        let suspect_before = fd.suspected.contains(&q);
                        if suspect_now != suspect_before {
                            if suspect_now {
                                fd.suspected.insert(q);
                            } else {
                                fd.suspected.remove(&q);
                            }
                            changes.push((q, suspect_now));
                        }
                    }
                }
                for (subject, suspected) in changes {
                    self.metrics.suspicion_changes += 1;
                    self.dispatch(p, |actor, ctx| actor.on_suspicion(ctx, subject, suspected));
                }
                let next = self.now + self.config.fd.heartbeat_every;
                self.push_event(next, EventKind::FdCheck(p));
            }
        }
    }

    /// Routes one protocol message through the (possibly faulty) network.
    ///
    /// The sampling order is fixed — partition check (no draw), loss draw,
    /// latency draw, reordering draw (plus one extra-delay draw), then
    /// duplication draw (plus one latency draw for the copy) — and every
    /// fault draw is gated on its probability being non-zero, so a
    /// fault-free configuration consumes exactly one latency sample per
    /// message, the same stream as before fault injection existed.
    fn route_message(&mut self, from: ProcessId, to: ProcessId, msg: M) {
        if self.partitioned(from, to) {
            self.metrics.partition_dropped += 1;
            self.link_obs.bump(LinkKind::PartitionDropped, from, to);
            return;
        }
        let faults = self.config.faults;
        if faults.drop_prob > 0.0 && self.rng.random_bool(faults.drop_prob) {
            self.metrics.messages_lost += 1;
            self.link_obs.bump(LinkKind::Lost, from, to);
            return;
        }
        let mut delay = self.config.latency.sample(self.now, &mut self.rng);
        if faults.reorder_prob > 0.0 && self.rng.random_bool(faults.reorder_prob) {
            let extra_us = faults.reorder_max_extra.as_micros();
            if extra_us > 0 {
                delay = delay + SimDuration::from_micros(self.rng.random_range(0..=extra_us));
            }
            self.metrics.messages_reordered += 1;
            self.link_obs.bump(LinkKind::Reordered, from, to);
        }
        let duplicate = faults.dup_prob > 0.0 && self.rng.random_bool(faults.dup_prob);
        if duplicate {
            self.metrics.messages_duplicated += 1;
            self.link_obs.bump(LinkKind::Duplicated, from, to);
            let copy_delay = self.config.latency.sample(self.now, &mut self.rng);
            self.push_event(
                self.now + copy_delay,
                EventKind::Deliver {
                    from,
                    to,
                    msg: msg.clone(),
                },
            );
        }
        self.push_event(self.now + delay, EventKind::Deliver { from, to, msg });
    }

    /// Runs `f` on the actor of `p` with a fresh context, then applies the
    /// buffered effects. Skips crashed processes.
    fn dispatch<F>(&mut self, p: ProcessId, f: F)
    where
        F: FnOnce(&mut dyn Actor<M>, &mut Context<'_, M>),
    {
        if !self.slots[p.0].alive {
            return;
        }
        let Some(mut actor) = self.slots[p.0].actor.take() else {
            return;
        };
        let mut ctx = Context {
            now: self.now,
            me: p,
            rng: &mut self.rng,
            suspected: &self.slots[p.0].fd.suspected,
            next_timer: &mut self.next_timer,
            outbox: std::mem::take(&mut self.outbox),
            new_timers: std::mem::take(&mut self.new_timers),
        };
        f(actor.as_mut(), &mut ctx);
        let Context {
            mut outbox,
            mut new_timers,
            ..
        } = ctx;
        self.slots[p.0].actor = Some(actor);

        for (to, msg) in outbox.drain(..) {
            assert!(
                to.0 < self.slots.len(),
                "send to unknown process {to} from {p}"
            );
            self.metrics.messages_sent += 1;
            self.link_obs.bump(LinkKind::Sent, p, to);
            self.route_message(p, to, msg);
        }
        for (delay, timer) in new_timers.drain(..) {
            let at = self.now + delay;
            self.push_event(at, EventKind::Timer { process: p, timer });
        }
        // Applying effects never dispatches, so the buffers come back empty.
        self.outbox = outbox;
        self.new_timers = new_timers;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[derive(Debug, Clone, PartialEq)]
    enum Msg {
        Ping,
        Pong,
    }

    /// Replies to every ping; counts pings received.
    struct Responder {
        pings: u32,
    }

    impl Actor<Msg> for Responder {
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: ProcessId, msg: Msg) {
            if msg == Msg::Ping {
                self.pings += 1;
                ctx.send(from, Msg::Pong);
            }
        }
    }

    /// Sends pings on a timer; records pongs and suspicion callbacks.
    struct Pinger {
        peer: ProcessId,
        pongs: u32,
        suspicions: Vec<(ProcessId, bool)>,
        period: SimDuration,
    }

    impl Actor<Msg> for Pinger {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            ctx.send(self.peer, Msg::Ping);
            ctx.set_timer(self.period);
        }

        fn on_message(&mut self, _ctx: &mut Context<'_, Msg>, _from: ProcessId, msg: Msg) {
            if msg == Msg::Pong {
                self.pongs += 1;
            }
        }

        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _timer: TimerId) {
            ctx.send(self.peer, Msg::Ping);
            ctx.set_timer(self.period);
        }

        fn on_suspicion(&mut self, _ctx: &mut Context<'_, Msg>, subject: ProcessId, s: bool) {
            self.suspicions.push((subject, s));
        }
    }

    fn build() -> (World<Msg>, ProcessId, ProcessId) {
        let mut world = World::new(SimConfig::with_seed(7));
        let responder = world.add_process("responder", Box::new(Responder { pings: 0 }));
        let pinger = world.add_process(
            "pinger",
            Box::new(Pinger {
                peer: responder,
                pongs: 0,
                suspicions: Vec::new(),
                period: SimDuration::from_millis(20),
            }),
        );
        (world, responder, pinger)
    }

    #[test]
    fn messages_flow_and_time_advances() {
        let (mut world, responder, pinger) = build();
        world.run_until(SimTime::from_millis(200));
        assert_eq!(world.now(), SimTime::from_millis(200));
        let r: &Responder = world.actor_as(responder).unwrap();
        let p: &Pinger = world.actor_as(pinger).unwrap();
        assert!(r.pings >= 9, "pings: {}", r.pings);
        assert_eq!(r.pings, p.pongs + (r.pings - p.pongs)); // sanity
        assert!(p.pongs >= 8);
        assert!(world.metrics().messages_delivered >= 17);
    }

    #[test]
    fn attached_obs_records_per_link_counters() {
        let (mut world, responder, pinger) = build();
        let obs = Obs::new();
        world.attach_obs(&obs);
        world.run_until(SimTime::from_millis(200));
        let snap = obs.snapshot();
        let p2r = format!("p{}->p{}", pinger.0, responder.0);
        let r2p = format!("p{}->p{}", responder.0, pinger.0);
        // Fault-free run: everything sent per link is delivered per link,
        // save at most one message still in flight at the deadline.
        let sent_p2r = snap.counter_with_key("sim.link.sent", &p2r).unwrap();
        let delivered_p2r = snap.counter_with_key("sim.link.delivered", &p2r).unwrap();
        assert!(sent_p2r >= 9, "sent {sent_p2r}");
        assert!(
            delivered_p2r == sent_p2r || delivered_p2r + 1 == sent_p2r,
            "delivered {delivered_p2r} vs sent {sent_p2r}"
        );
        assert!(snap.counter_with_key("sim.link.sent", &r2p).is_some());
        // And the per-link totals agree with the legacy aggregate counters.
        assert_eq!(
            snap.counter_total("sim.link.sent"),
            world.metrics().messages_sent
        );
        assert_eq!(
            snap.counter_total("sim.link.delivered"),
            world.metrics().messages_delivered
        );
        assert_eq!(snap.counter_total("sim.link.lost"), 0);
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        let run = |seed: u64| {
            let mut world = World::new(SimConfig::with_seed(seed));
            let responder = world.add_process("r", Box::new(Responder { pings: 0 }));
            let _pinger = world.add_process(
                "p",
                Box::new(Pinger {
                    peer: responder,
                    pongs: 0,
                    suspicions: Vec::new(),
                    period: SimDuration::from_millis(3),
                }),
            );
            world.run_until(SimTime::from_millis(500));
            (
                *world.metrics(),
                world.actor_as::<Responder>(responder).unwrap().pings,
            )
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11).0.events_processed, 0);
    }

    #[test]
    fn crashed_process_stops_responding_and_drops_messages() {
        let (mut world, responder, pinger) = build();
        world.schedule_crash(responder, SimTime::from_millis(50));
        world.run_until(SimTime::from_millis(400));
        assert!(!world.is_alive(responder));
        assert!(world.is_alive(pinger));
        let p: &Pinger = world.actor_as(pinger).unwrap();
        // Pings keep being sent but go nowhere.
        assert!(world.metrics().messages_dropped > 0);
        // Pongs stop shortly after the crash.
        assert!(p.pongs <= 4, "pongs: {}", p.pongs);
    }

    #[test]
    fn fd_strong_completeness_crashed_process_is_suspected() {
        let (mut world, responder, pinger) = build();
        world.schedule_crash(responder, SimTime::from_millis(30));
        world.run_until(SimTime::from_millis(300));
        assert!(world.suspected_by(pinger).contains(&responder));
        let p: &Pinger = world.actor_as(pinger).unwrap();
        assert!(p.suspicions.contains(&(responder, true)));
    }

    #[test]
    fn fd_accuracy_no_suspicions_in_synchronous_runs() {
        let (mut world, responder, pinger) = build();
        world.run_until(SimTime::from_millis(500));
        assert!(world.suspected_by(pinger).is_empty());
        assert!(world.suspected_by(responder).is_empty());
        assert_eq!(world.metrics().suspicion_changes, 0);
    }

    #[test]
    fn fd_eventual_accuracy_under_partial_synchrony() {
        // Pre-GST latency spikes make false suspicions *likely* for any
        // one seed, never certain, so scan a handful of seeds: eventual
        // accuracy must hold for every one of them, and at least one must
        // actually exhibit pre-GST flips (or the test would be vacuous).
        let mut flips_before_gst = 0;
        for seed in 0..8 {
            let mut config = SimConfig::with_seed(seed);
            config.latency =
                crate::config::LatencyModel::partially_synchronous(0.4, SimTime::from_millis(400));
            let mut world: World<Msg> = World::new(config);
            let a = world.add_process("a", Box::new(Responder { pings: 0 }));
            let b = world.add_process(
                "b",
                Box::new(Pinger {
                    peer: a,
                    pongs: 0,
                    suspicions: Vec::new(),
                    period: SimDuration::from_millis(10),
                }),
            );
            world.run_until(SimTime::from_millis(350));
            flips_before_gst += world.metrics().suspicion_changes;
            // After GST plus one timeout, suspicions clear and stay clear.
            world.run_until(SimTime::from_secs(1));
            assert!(world.suspected_by(b).is_empty(), "seed {seed}");
            assert!(world.suspected_by(a).is_empty(), "seed {seed}");
        }
        assert!(
            flips_before_gst > 0,
            "expected pre-GST false suspicions from latency spikes"
        );
    }

    #[test]
    fn equal_time_events_fire_in_scheduling_order_across_slot_reuse() {
        /// Sets four timers due at one instant; the last of them to fire
        /// sets four more, due at one later instant, into the payload
        /// entries the fired events just freed (most recently freed first,
        /// i.e. in the reverse of their scheduling order).
        struct Burst {
            set: Vec<TimerId>,
            fired: Vec<(SimTime, TimerId)>,
        }
        impl Burst {
            fn set_four(&mut self, ctx: &mut Context<'_, Msg>) {
                for _ in 0..4 {
                    self.set.push(ctx.set_timer(SimDuration::from_millis(5)));
                }
            }
        }
        impl Actor<Msg> for Burst {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                self.set_four(ctx);
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: ProcessId, _: Msg) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, timer: TimerId) {
                self.fired.push((ctx.now(), timer));
                if self.fired.len() == 4 {
                    self.set_four(ctx);
                }
            }
        }
        let mut world = World::new(SimConfig::with_seed(1));
        let p = world.add_process(
            "burst",
            Box::new(Burst {
                set: Vec::new(),
                fired: Vec::new(),
            }),
        );
        world.run_until(SimTime::from_millis(20));
        let burst = world.actor_as::<Burst>(p).unwrap();
        let due = |i: usize| SimTime::from_millis(if i < 4 { 5 } else { 10 });
        let expected: Vec<(SimTime, TimerId)> = burst
            .set
            .iter()
            .enumerate()
            .map(|(i, &t)| (due(i), t))
            .collect();
        assert_eq!(expected.len(), 8);
        assert_eq!(burst.fired, expected, "one instant fires in `seq` order");
        assert!(
            world.payloads.len() < world.seq as usize,
            "freed payload entries were reused"
        );
    }

    #[test]
    fn run_while_stops_at_condition() {
        let (mut world, responder, _pinger) = build();
        let reached = world.run_while(
            |w| w.actor_as::<Responder>(responder).unwrap().pings < 3,
            SimTime::from_secs(5),
        );
        assert!(reached);
        assert!(world.now() < SimTime::from_secs(5));
        assert_eq!(world.actor_as::<Responder>(responder).unwrap().pings, 3);
    }

    #[test]
    fn run_while_reports_deadline_expiry() {
        let (mut world, responder, _pinger) = build();
        let reached = world.run_while(
            |w| w.actor_as::<Responder>(responder).unwrap().pings < 1_000_000,
            SimTime::from_millis(50),
        );
        assert!(!reached);
        assert_eq!(world.now(), SimTime::from_millis(50));
    }

    #[test]
    fn process_metadata() {
        let (world, responder, pinger) = build();
        assert_eq!(world.process_count(), 2);
        assert_eq!(world.process_name(responder), "responder");
        assert_eq!(world.process_name(pinger), "pinger");
        assert!(world.is_alive(responder));
    }

    #[test]
    fn world_debug_is_nonempty() {
        let (world, ..) = build();
        assert!(!format!("{world:?}").is_empty());
    }

    fn faulty_config(seed: u64, faults: crate::config::NetFaultConfig) -> SimConfig {
        SimConfig {
            faults,
            ..SimConfig::with_seed(seed)
        }
    }

    #[test]
    fn quiet_faults_leave_seeded_runs_bit_identical() {
        // The gate on non-zero probabilities means a default (quiet) fault
        // config draws nothing extra from the RNG: metrics equal a run of
        // the same seed with an explicitly quiet config.
        let run = |config: SimConfig| {
            let mut world = World::new(config);
            let responder = world.add_process("r", Box::new(Responder { pings: 0 }));
            world.add_process(
                "p",
                Box::new(Pinger {
                    peer: responder,
                    pongs: 0,
                    suspicions: Vec::new(),
                    period: SimDuration::from_millis(5),
                }),
            );
            world.run_until(SimTime::from_millis(300));
            *world.metrics()
        };
        let quiet = faulty_config(9, crate::config::NetFaultConfig::none());
        assert_eq!(run(quiet), run(SimConfig::with_seed(9)));
    }

    #[test]
    fn message_loss_is_counted_and_deterministic() {
        let faults = crate::config::NetFaultConfig {
            drop_prob: 0.4,
            ..crate::config::NetFaultConfig::none()
        };
        let run = |seed: u64| {
            let mut world = World::new(faulty_config(seed, faults));
            let responder = world.add_process("r", Box::new(Responder { pings: 0 }));
            world.add_process(
                "p",
                Box::new(Pinger {
                    peer: responder,
                    pongs: 0,
                    suspicions: Vec::new(),
                    period: SimDuration::from_millis(5),
                }),
            );
            world.run_until(SimTime::from_millis(400));
            *world.metrics()
        };
        let m = run(3);
        assert!(m.messages_lost > 0, "{m:?}");
        assert!(m.messages_delivered > 0, "{m:?}");
        assert_eq!(m, run(3));
    }

    #[test]
    fn duplication_delivers_extra_copies() {
        let faults = crate::config::NetFaultConfig {
            dup_prob: 1.0,
            ..crate::config::NetFaultConfig::none()
        };
        let mut world = World::new(faulty_config(5, faults));
        let responder = world.add_process("r", Box::new(Responder { pings: 0 }));
        let pinger = world.add_process(
            "p",
            Box::new(Pinger {
                peer: responder,
                pongs: 0,
                suspicions: Vec::new(),
                period: SimDuration::from_millis(50),
            }),
        );
        world.run_until(SimTime::from_millis(40));
        // One ping sent, duplicated once; each copy provokes a pong, which
        // is duplicated too.
        let m = *world.metrics();
        assert!(m.messages_duplicated >= 2, "{m:?}");
        let r: &Responder = world.actor_as(responder).unwrap();
        assert_eq!(r.pings, 2, "one ping delivered twice");
        let p: &Pinger = world.actor_as(pinger).unwrap();
        assert_eq!(p.pongs, 4, "two pongs delivered twice each");
    }

    #[test]
    fn reordering_is_bounded_and_counted() {
        let faults = crate::config::NetFaultConfig {
            reorder_prob: 1.0,
            reorder_max_extra: SimDuration::from_millis(30),
            ..crate::config::NetFaultConfig::none()
        };
        let mut world = World::new(faulty_config(6, faults));
        let responder = world.add_process("r", Box::new(Responder { pings: 0 }));
        world.add_process(
            "p",
            Box::new(Pinger {
                peer: responder,
                pongs: 0,
                suspicions: Vec::new(),
                period: SimDuration::from_millis(10),
            }),
        );
        world.run_until(SimTime::from_millis(200));
        let m = *world.metrics();
        assert!(m.messages_reordered > 0, "{m:?}");
        // Bounded: every message still arrives (none lost to reordering).
        assert_eq!(m.messages_lost, 0);
        assert_eq!(m.partition_dropped, 0);
    }

    #[test]
    fn partition_severs_messages_then_heals() {
        let (mut world, responder, pinger) = build();
        world.schedule_partition(
            &[responder],
            SimTime::from_millis(50),
            SimTime::from_millis(150),
        );
        world.run_until(SimTime::from_millis(40));
        let before = world.actor_as::<Pinger>(pinger).unwrap().pongs;
        assert!(before > 0, "messages flow before the window");
        world.run_until(SimTime::from_millis(145));
        let during = world.actor_as::<Pinger>(pinger).unwrap().pongs;
        assert!(world.metrics().partition_dropped > 0);
        world.run_until(SimTime::from_millis(400));
        let after = world.actor_as::<Pinger>(pinger).unwrap().pongs;
        assert!(after > during, "traffic resumes after healing");
    }

    #[test]
    fn partition_blocks_heartbeats_and_drives_suspicion() {
        // A partitioned (but alive) process looks crashed to ◇P: its
        // heartbeats stop arriving, so it is suspected — and unsuspected
        // again after the partition heals.
        let (mut world, responder, pinger) = build();
        world.schedule_partition(
            &[responder],
            SimTime::from_millis(50),
            SimTime::from_millis(250),
        );
        world.run_until(SimTime::from_millis(200));
        assert!(world.is_alive(responder));
        assert!(world.suspected_by(pinger).contains(&responder));
        world.run_until(SimTime::from_millis(500));
        assert!(
            world.suspected_by(pinger).is_empty(),
            "suspicion clears after heal"
        );
    }

    #[test]
    fn partitions_only_sever_across_the_boundary() {
        let (mut world, responder, pinger) = build();
        // Both endpoints inside the member set: traffic is untouched.
        world.schedule_partition(
            &[responder, pinger],
            SimTime::from_millis(10),
            SimTime::from_millis(300),
        );
        world.run_until(SimTime::from_millis(300));
        assert_eq!(world.metrics().partition_dropped, 0);
        assert!(world.actor_as::<Pinger>(pinger).unwrap().pongs > 0);
    }

    #[test]
    fn invalid_partition_windows_are_recoverable_errors() {
        let (mut world, responder, _) = build();
        world.run_until(SimTime::from_millis(10));
        // Window starting in the past.
        assert!(world
            .try_schedule_partition(
                &[responder],
                SimTime::from_millis(5),
                SimTime::from_millis(20)
            )
            .is_err());
        // Empty window.
        assert!(world
            .try_schedule_partition(
                &[responder],
                SimTime::from_millis(20),
                SimTime::from_millis(20)
            )
            .is_err());
        assert!(world
            .try_schedule_partition(
                &[responder],
                SimTime::from_millis(20),
                SimTime::from_millis(30)
            )
            .is_ok());
    }

    #[test]
    fn faulty_runs_are_deterministic_per_seed() {
        let faults = crate::config::NetFaultConfig {
            drop_prob: 0.2,
            dup_prob: 0.2,
            reorder_prob: 0.3,
            reorder_max_extra: SimDuration::from_millis(25),
        };
        let run = |seed: u64| {
            let mut world = World::new(faulty_config(seed, faults));
            let responder = world.add_process("r", Box::new(Responder { pings: 0 }));
            world.schedule_partition(
                &[responder],
                SimTime::from_millis(100),
                SimTime::from_millis(200),
            );
            world.add_process(
                "p",
                Box::new(Pinger {
                    peer: responder,
                    pongs: 0,
                    suspicions: Vec::new(),
                    period: SimDuration::from_millis(7),
                }),
            );
            world.run_until(SimTime::from_millis(500));
            (
                *world.metrics(),
                world.actor_as::<Responder>(responder).unwrap().pings,
            )
        };
        assert_eq!(run(13), run(13));
        let (m, _) = run(13);
        assert!(m.messages_lost > 0 && m.messages_duplicated > 0, "{m:?}");
        assert!(m.messages_reordered > 0 && m.partition_dropped > 0, "{m:?}");
        assert_ne!(run(13), run(14), "different seeds explore differently");
    }

    #[test]
    fn scheduling_a_crash_in_the_past_is_a_recoverable_error() {
        let (mut world, responder, _) = build();
        world.run_until(SimTime::from_millis(10));
        let err = world
            .try_schedule_crash(responder, SimTime::from_millis(5))
            .unwrap_err();
        assert_eq!(err, SimTime::from_millis(10));
        assert!(world
            .try_schedule_crash(responder, SimTime::from_millis(20))
            .is_ok());
    }
}
