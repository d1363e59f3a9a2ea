//! The side-effect ledger: the materialized "hypothetical event observer"
//! of §2.2.
//!
//! The x-ability theory reasons about the history of start/completion events
//! of action executions and about externally visible side-effects. The
//! ledger records both, in global observation order, so that after a
//! simulation run the harness can (a) hand the formal history to the
//! x-ability checkers and (b) verify exactly-once side-effect semantics
//! directly against effect records.
//!
//! The event stream itself lives in **one** interned
//! [`TraceStore`], under **one** interner: the attached online monitor is
//! a [`Decider`] — a cursor over that store that owns neither events nor
//! symbol tables — fed each new event as the symbols the store assigned
//! ([`TraceStore::repr`]), and resolving them through the store's
//! interner, which it never writes into (DESIGN.md §7). [`Ledger::history`]
//! is a zero-copy [`HistoryView`], and [`Ledger::store`] feeds the binary
//! trace recorder. Recording has one body: [`Ledger::record_event`] is a
//! batch of one through the path [`Ledger::record_batch`] takes — the
//! store appends the slice, then the monitor reads what was appended, then
//! the spill seals what is due — and only `record_batch` counts batches.
//! An event's time and observing service are not kept: nothing reads
//! them.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::Path;
use std::rc::Rc;
use std::slice;

use xability_core::xable::{Decider, EventSymbols, Verdict};
use xability_core::{ActionId, ActionName, Event, Interner, Request, Value};

use xability_obs::{Counter, Histogram, Obs};
use xability_sim::SimTime;
use xability_store::{
    recover_store, EventRepr, HistoryView, RecoveryReport, SegmentLog, TierConfig, TraceStore,
};

/// What kind of externally visible effect a record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EffectKind {
    /// An idempotent action's effect was applied (permanent immediately).
    Applied,
    /// An undoable action's effect was applied tentatively.
    Tentative,
    /// A tentative effect was reverted by a cancellation.
    Reverted,
    /// A tentative effect was made permanent by a commit.
    Committed,
}

impl fmt::Display for EffectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EffectKind::Applied => "applied",
            EffectKind::Tentative => "tentative",
            EffectKind::Reverted => "reverted",
            EffectKind::Committed => "committed",
        };
        write!(f, "{s}")
    }
}

/// An externally visible side-effect record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EffectRecord {
    /// The action whose execution had the effect.
    pub action: ActionName,
    /// The logical request key the effect belongs to.
    pub key: Value,
    /// The protocol round the effect belongs to (0 for idempotent actions).
    pub round: u64,
    /// The kind of effect.
    pub kind: EffectKind,
    /// When the effect happened.
    pub at: SimTime,
}

/// The error [`Ledger::attach_monitor`] returns when a monitor is already
/// attached: re-attaching would silently discard the previous monitor's
/// declared request sequence and warm per-group state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorAlreadyAttached;

impl fmt::Display for MonitorAlreadyAttached {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "the ledger already has an online monitor attached; replacing it would \
             discard the previous monitor's declared requests and warm group state"
        )
    }
}

impl std::error::Error for MonitorAlreadyAttached {}

/// What the effect log holds for one `(action, key)`: the counts
/// [`Ledger::applied_count`], [`Ledger::committed_count`] and
/// [`Ledger::dangling_tentative_count`] would each scan the log for.
#[derive(Debug, Default)]
struct EffectTally {
    applied: usize,
    committed: usize,
    /// Per round: tentative effects, and reverted + committed ones.
    rounds: BTreeMap<u64, (usize, usize)>,
}

/// The global ledger of events, effects, and detected service-level protocol
/// violations.
///
/// One ledger is shared (via [`SharedLedger`]) by every external service in
/// a simulation; append order equals simulated-time order because the
/// simulator is single-threaded and time is monotone.
///
/// The formal event stream is stored once, interned and packed, in a
/// [`TraceStore`]; the attached monitor reads the store's symbols, and
/// every reader works over views of that store.
///
/// A ledger carries an online R3 monitor **by default**: the incremental
/// checker's dirty-tracked aggregate makes a per-event observation (and a
/// verdict at any moment) cheap enough to be always on. Use
/// [`Ledger::without_monitor`] for a bare ledger and
/// [`Ledger::attach_monitor`] to install a custom (e.g. pre-declared)
/// monitor on one.
#[derive(Debug)]
pub struct Ledger {
    store: TraceStore,
    effects: Vec<EffectRecord>,
    violations: Vec<String>,
    monitor: Option<Decider>,
    spill: Option<Spill>,
    obs: LedgerObs,
}

/// The ledger's online monitor, read through the store's interner — what
/// [`Ledger::monitor`] returns.
#[derive(Debug, Clone, Copy)]
pub struct MonitorView<'a> {
    decider: &'a Decider,
    interner: &'a Interner,
}

impl<'a> MonitorView<'a> {
    /// How many of the store's events the monitor has consumed.
    pub fn consumed(&self) -> usize {
        self.decider.consumed()
    }

    /// How many requests have been declared.
    pub fn declared_len(&self) -> usize {
        self.decider.declared_len()
    }

    /// The declared request sequence, in declaration order.
    pub fn requests(&self) -> impl Iterator<Item = (ActionId, Value)> + 'a {
        self.decider.requests(self.interner)
    }

    /// The monitor's heap bytes, part by part
    /// ([`Decider::approx_bytes_by_part`]): the store's interner, which
    /// the monitor only reads, is not among them.
    pub fn approx_bytes_by_part(&self) -> Vec<(&'static str, usize)> {
        self.decider.approx_bytes_by_part()
    }
}

/// The symbols a store gave one event, as the monitor reads them.
fn symbols(repr: EventRepr) -> EventSymbols {
    EventSymbols {
        name: repr.action_symbol(),
        role: repr.role(),
        input: (!repr.is_complete()).then(|| repr.value_symbol()),
    }
}

/// Feeds `monitor` the events of `store` past its cursor, as the symbols
/// the store assigned — no event is decoded and nothing is interned.
fn catch_up(monitor: &mut Decider, store: &TraceStore) {
    for index in monitor.consumed()..store.len() {
        monitor.observe(store.interner(), symbols(store.repr(index)));
    }
}

/// Ledger instruments: inert (noop handles) until
/// [`Ledger::attach_obs`] binds them to a shared registry.
#[derive(Debug, Default)]
struct LedgerObs {
    obs: Obs,
    /// Events ingested (single or batched).
    events: Counter,
    /// `record_batch` calls.
    batches: Counter,
    /// Events per `record_batch` call.
    batch_size: Histogram,
    /// Cold segments sealed by the spill (threshold chunks + tail).
    spill_seals: Counter,
    /// Events made durable across those seals.
    spill_sealed_events: Counter,
    /// Simulated ticks (µs) of history each monitor verdict had to cover
    /// since the previous verdict — the verdict's staleness window.
    verdict_lag_ticks: Histogram,
    /// First-unverdicted-record tick: the left edge of the next verdict's
    /// lag window. `Cell` because `monitor_verdict` is `&self`.
    dirty_since: Cell<Option<SimTime>>,
    /// Tick of the most recently recorded event.
    last_at: Cell<SimTime>,
}

impl LedgerObs {
    fn bind(obs: &Obs) -> Self {
        LedgerObs {
            obs: obs.clone(),
            events: obs.counter("ledger.events"),
            batches: obs.counter("ledger.batches"),
            batch_size: obs.histogram("ledger.batch_size"),
            spill_seals: obs.counter("ledger.spill_seals"),
            spill_sealed_events: obs.counter("ledger.spill_sealed_events"),
            verdict_lag_ticks: obs.histogram("ledger.verdict_lag_ticks"),
            dirty_since: Cell::new(None),
            last_at: Cell::new(SimTime::ZERO),
        }
    }

    fn record_ingest(&self, at: SimTime, count: u64) {
        self.events.add(count);
        if self.dirty_since.get().is_none() {
            self.dirty_since.set(Some(at));
        }
        self.last_at.set(at);
    }
}

/// The ledger's durable-spill state: a cold-segment chain the recorded
/// events are mirrored into, `spill_threshold` events at a time.
///
/// The in-memory store stays the authority (checkers and views read it);
/// the chain is the *retention* copy a crashed run recovers from via
/// [`Ledger::reopen_spill`]. Because [`Ledger::record_event`] is
/// infallible by design (every sim service calls it on the hot path), an
/// IO failure during a background seal is made *sticky* and surfaced by
/// [`Ledger::flush_spill`] rather than panicking mid-run.
#[derive(Debug)]
struct Spill {
    log: SegmentLog,
    threshold: usize,
    error: Option<io::Error>,
}

impl Spill {
    /// Seals the store's events from the end of the chain up to `end` as
    /// the next cold segment and counts the seal.
    fn seal_through(&mut self, end: usize, store: &TraceStore, obs: &LedgerObs) -> io::Result<()> {
        let start = self.log.next_first_event();
        self.log.seal(
            store.interner(),
            end - start,
            &mut (start..end).map(|i| store.repr(i)),
        )?;
        obs.spill_seals.inc();
        obs.spill_sealed_events.add((end - start) as u64);
        Ok(())
    }

    /// Surfaces the sticky error of a failed background seal. The error
    /// stays stored — the chain stays frozen rather than sealing past a
    /// hole — so every call reports the original failure's kind and text.
    fn sticky_error(&self) -> io::Result<()> {
        match &self.error {
            Some(e) => Err(io::Error::new(e.kind(), e.to_string())),
            None => Ok(()),
        }
    }
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger::new()
    }
}

impl Ledger {
    /// Creates an empty ledger with a default online monitor attached.
    pub fn new() -> Self {
        Ledger {
            monitor: Some(Decider::new()),
            ..Ledger::without_monitor()
        }
    }

    /// Creates an empty ledger with no online monitor (batch-only R3
    /// evaluation, or a custom monitor attached later).
    pub fn without_monitor() -> Self {
        Ledger {
            store: TraceStore::default(),
            effects: Vec::new(),
            violations: Vec::new(),
            monitor: None,
            spill: None,
            obs: LedgerObs::default(),
        }
    }

    /// Binds this ledger's instruments (ingest/batch counters, spill-seal
    /// counters, verdict-lag histogram) — and the attached monitor's, if
    /// any — to a shared metrics registry. Inert until called.
    pub fn attach_obs(&mut self, obs: &Obs) {
        self.obs = LedgerObs::bind(obs);
        if let Some(monitor) = &mut self.monitor {
            monitor.attach_obs(obs);
        }
    }

    /// Records a formal event observation — a batch of one. When an
    /// online monitor is attached, it observes the event too (amortized
    /// O(1)), so the R3 obligation is tracked *while* the run executes
    /// instead of by re-reducing the full history afterwards. The event
    /// itself is stored and interned exactly once, in the shared
    /// [`TraceStore`].
    ///
    /// `service` is not read; the argument stays only because the
    /// benchmark passes it, and goes in its next refresh (ROADMAP item 1).
    pub fn record_event(&mut self, event: Event, at: SimTime, service: &str) {
        let _ = service;
        self.ingest(slice::from_ref(&event), at);
    }

    /// Records a slice of events observed together (same instant, same
    /// service) through the store's batch-amortized interning
    /// ([`TraceStore::push_batch`]), feeds the monitor the appended
    /// events' symbols, and counts the batch. `service` is not read, as in
    /// [`Ledger::record_event`].
    pub fn record_batch(&mut self, events: &[Event], at: SimTime, service: &str) {
        let _ = service;
        self.ingest(events, at);
        self.obs.batches.inc();
        self.obs.batch_size.record(events.len() as u64);
    }

    /// The one recording body: the store interns and appends the slice,
    /// the monitor reads the appended events' symbols, and the spill seals
    /// what is due.
    fn ingest(&mut self, events: &[Event], at: SimTime) {
        self.store.push_batch(events);
        if let Some(monitor) = &mut self.monitor {
            catch_up(monitor, &self.store);
        }
        self.obs.record_ingest(at, events.len() as u64);
        self.maybe_spill();
    }

    /// Attaches a durable spill: from now on, every `spill_threshold`
    /// recorded events are sealed as one cold segment in `dir` (see
    /// [`SegmentLog`]), making the run's history recoverable after a
    /// crash via [`Ledger::reopen_spill`]. Events already recorded spill
    /// immediately. The policy is event-count based — no clocks.
    ///
    /// The spill is a *mirror*: the in-memory store keeps every event, so
    /// of `config` only `spill_threshold` and `codec` apply and
    /// `evict_on_seal` is ignored.
    ///
    /// # Errors
    ///
    /// Fails if a spill is already attached, the config's threshold is
    /// zero, or `dir` already holds a segment chain.
    pub fn attach_spill(&mut self, dir: impl AsRef<Path>, config: TierConfig) -> io::Result<()> {
        if self.spill.is_some() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "the ledger already spills to a segment directory",
            ));
        }
        if config.spill_threshold == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "spill_threshold must be non-zero",
            ));
        }
        self.spill = Some(Spill {
            log: SegmentLog::create(dir, config.codec)?,
            threshold: config.spill_threshold,
            error: None,
        });
        self.maybe_spill();
        self.spill.as_ref().map_or(Ok(()), Spill::sticky_error)
    }

    /// Seals every full `spill_threshold` chunk that accumulated beyond
    /// the chain. Infallible on purpose (the recording hot path must not
    /// return `Result`): the first IO failure is kept and re-surfaced by
    /// [`Ledger::flush_spill`].
    fn maybe_spill(&mut self) {
        let Some(spill) = &mut self.spill else {
            return;
        };
        while spill.error.is_none()
            && self.store.len() - spill.log.next_first_event() >= spill.threshold
        {
            let end = spill.log.next_first_event() + spill.threshold;
            spill.error = spill.seal_through(end, &self.store, &self.obs).err();
        }
    }

    /// Seals the not-yet-spilled tail (a partial segment), making every
    /// recorded event durable — the end-of-run path. Returns how many
    /// events the chain now holds.
    ///
    /// # Errors
    ///
    /// Fails if no spill is attached, if a background seal failed earlier
    /// (the sticky error is surfaced here), or if the tail seal fails.
    pub fn flush_spill(&mut self) -> io::Result<usize> {
        let Some(spill) = &mut self.spill else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "no spill attached to flush",
            ));
        };
        spill.sticky_error()?;
        let end = self.store.len();
        if end > spill.log.next_first_event() {
            spill.seal_through(end, &self.store, &self.obs)?;
        }
        Ok(spill.log.next_first_event())
    }

    /// The spill chain's sealed segments, if a spill is attached.
    pub fn spill_segments(&self) -> Option<&[xability_store::SegmentInfo]> {
        self.spill.as_ref().map(|s| s.log.segments())
    }

    /// Rebuilds a ledger from a spill directory after a crash or
    /// shutdown: recovers the longest valid segment chain (quarantining a
    /// torn tail, see [`recover_store`]) and feeds a fresh online monitor
    /// the recovered events' symbols — none is decoded.
    ///
    /// The monitor starts with no declared requests — re-declare the run's
    /// submitted sequence with [`Ledger::declare_requests`] before asking
    /// for a verdict.
    ///
    /// The reopened ledger does **not** keep spilling; attach a fresh
    /// spill (to a new directory) to continue durably.
    ///
    /// # Errors
    ///
    /// Fails with [`io::ErrorKind::NotFound`] if `dir` does not exist
    /// (nothing is created), and with any IO error recovery meets.
    pub fn reopen_spill(dir: impl AsRef<Path>) -> io::Result<(Ledger, RecoveryReport)> {
        let (store, report) = recover_store(dir)?;
        let mut monitor = Decider::new();
        catch_up(&mut monitor, &store);
        let mut ledger = Ledger::without_monitor();
        ledger.store = store;
        ledger.monitor = Some(monitor);
        Ok((ledger, report))
    }

    /// Attaches an online R3 monitor. Events already recorded are fed to
    /// it from the store, as the store's symbols, so attaching mid-run
    /// observes the same prefix a monitor attached at creation would have.
    /// `monitor` must know the store's symbols only: whatever it declared
    /// or observed before went through this store's interner (a fresh
    /// [`Decider`], or one with declarations only, always qualifies). When [`Ledger::attach_obs`] bound the ledger to a live
    /// registry, the monitor's instruments are bound to it too, as they
    /// would have been had the monitor been there first; a monitor
    /// attached to a bare ledger keeps whatever registry its caller bound.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorAlreadyAttached`] when the ledger already has a
    /// monitor (including the default one [`Ledger::new`] installs):
    /// replacing it would silently discard the previous monitor's declared
    /// request sequence and warm per-group state. Build the ledger with
    /// [`Ledger::without_monitor`] to control attachment explicitly.
    pub fn attach_monitor(&mut self, mut monitor: Decider) -> Result<(), MonitorAlreadyAttached> {
        if self.monitor.is_some() {
            return Err(MonitorAlreadyAttached);
        }
        if self.obs.obs.is_enabled() {
            monitor.attach_obs(&self.obs.obs);
        }
        catch_up(&mut monitor, &self.store);
        self.monitor = Some(monitor);
        Ok(())
    }

    /// [`Ledger::attach_monitor`] with a default [`Decider`], under its old
    /// pipelined name: `workers` is ignored, and there is no code path of
    /// its own. Kept only because the benchmark's
    /// `services.pipelined_speedup_2w` probe calls it; the method goes
    /// together with that probe in the next benchmark refresh (ROADMAP
    /// item 1).
    ///
    /// # Errors
    ///
    /// Returns [`MonitorAlreadyAttached`] exactly when
    /// [`Ledger::attach_monitor`] does.
    pub fn attach_pipelined_monitor(
        &mut self,
        _workers: usize,
    ) -> Result<(), MonitorAlreadyAttached> {
        self.attach_monitor(Decider::new())
    }

    /// The attached online monitor, if any, read through the store's
    /// interner.
    pub fn monitor(&self) -> Option<MonitorView<'_>> {
        let interner = self.store.interner();
        (self.monitor.as_ref()).map(|decider| MonitorView { decider, interner })
    }

    /// The monitor's R3 verdict over the shared store, if a monitor is
    /// attached. The monitor reads the prefix it has consumed through a
    /// zero-copy view and the store's interner — it never owns a second
    /// copy of the trace or of its symbols.
    pub fn monitor_verdict(&self) -> Option<Verdict> {
        let monitor = self.monitor.as_ref()?;
        let verdict = monitor.verdict_over(self.store.interner(), &self.store.view());
        // The verdict's staleness window: ticks of history consumed since
        // the previous verdict (the anchor is the last recorded event's
        // tick — the registry itself never reads a clock).
        if let Some(since) = self.obs.dirty_since.take() {
            let last = self.obs.last_at.get();
            self.obs
                .verdict_lag_ticks
                .record(last.since(since).as_micros());
            self.obs
                .obs
                .span_event("monitor.verdict", "ledger", 0, last.as_micros());
        }
        Some(verdict)
    }

    /// Declares every not-yet-declared request of `submitted` into the
    /// attached monitor. `submitted` must *extend* the monitor's declared
    /// sequence (debug builds assert it): re-declaring a reordered or
    /// shortened sequence would silently diverge from the monitor's warm
    /// state. No-op when no monitor is attached. A request's key is looked
    /// up in the store's interner, never interned: until an event carries
    /// it, the monitor holds the request's pair.
    pub fn declare_requests(&mut self, submitted: &[Request]) {
        // A release build reads the declared count only; the debug check
        // walks the monitor's request iterator and materialises nothing.
        fn assert_extends(
            declared: usize,
            requests: impl Iterator<Item = (ActionId, Value)>,
            submitted: &[Request],
        ) {
            debug_assert!(
                declared <= submitted.len()
                    && requests.zip(submitted).all(|((action, input), request)| {
                        action == *request.action() && input == *request.input()
                    }),
                "`submitted` must extend the monitor's declared request sequence"
            );
        }
        if let Some(monitor) = self.monitor.as_mut() {
            let interner = self.store.interner();
            let declared = monitor.declared_len();
            assert_extends(declared, monitor.requests(interner), submitted);
            for request in submitted.iter().skip(declared) {
                monitor.declare(interner, request.action().clone(), request.input().clone());
            }
        }
    }

    /// Records an externally visible effect.
    pub fn record_effect(
        &mut self,
        action: ActionName,
        key: Value,
        round: u64,
        kind: EffectKind,
        at: SimTime,
    ) {
        self.effects.push(EffectRecord {
            action,
            key,
            round,
            kind,
            at,
        });
    }

    /// Records a service-level protocol violation (e.g. commit after
    /// cancel). A correct replication protocol never triggers these; the
    /// baselines do.
    pub fn record_violation(&mut self, detail: impl Into<String>) {
        self.violations.push(detail.into());
    }

    /// The formal history of all recorded events, in observation order, as
    /// a zero-copy view over the shared store.
    ///
    /// The view implements [`xability_core::HistoryRead`], so every
    /// checker consumes it directly; call
    /// [`to_history`](HistoryView::to_history) only where an owned
    /// [`xability_core::History`] is genuinely needed (the exhaustive
    /// search tier).
    pub fn history(&self) -> HistoryView<'_> {
        self.store.view()
    }

    /// The number of formal events recorded so far.
    pub fn event_count(&self) -> usize {
        self.store.len()
    }

    /// The trace store backing this ledger (for the binary trace recorder
    /// and other whole-trace consumers).
    pub fn store(&self) -> &TraceStore {
        &self.store
    }

    /// All effect records.
    pub fn effects(&self) -> &[EffectRecord] {
        &self.effects
    }

    /// Detected protocol violations.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// How many times the effect of the idempotent action `(action, key)`
    /// was (re-)applied. Exactly-once semantics requires 1 for every
    /// successfully submitted request.
    pub fn applied_count(&self, action: &ActionName, key: &Value) -> usize {
        self.effects
            .iter()
            .filter(|e| e.kind == EffectKind::Applied && &e.action == action && &e.key == key)
            .count()
    }

    /// How many rounds of the undoable action `(action, key)` were
    /// committed. Exactly-once semantics requires 1 for every successfully
    /// submitted request.
    pub fn committed_count(&self, action: &ActionName, key: &Value) -> usize {
        self.effects
            .iter()
            .filter(|e| e.kind == EffectKind::Committed && &e.action == action && &e.key == key)
            .count()
    }

    /// How many tentative effects of `(action, key)` were left neither
    /// reverted nor committed (dangling holds — a liveness bug).
    pub fn dangling_tentative_count(&self, action: &ActionName, key: &Value) -> usize {
        let mut dangling = 0usize;
        for round in self
            .effects
            .iter()
            .filter(|e| &e.action == action && &e.key == key)
            .map(|e| e.round)
            .collect::<std::collections::BTreeSet<_>>()
        {
            let of_round = |kind: EffectKind| {
                self.effects
                    .iter()
                    .filter(|e| {
                        &e.action == action && &e.key == key && e.round == round && e.kind == kind
                    })
                    .count()
            };
            let tentative = of_round(EffectKind::Tentative);
            let resolved = of_round(EffectKind::Reverted) + of_round(EffectKind::Committed);
            dangling += tentative.saturating_sub(resolved);
        }
        dangling
    }

    /// Checks exactly-once semantics for a set of successfully submitted
    /// logical requests, returning a human-readable description of every
    /// violation found.
    ///
    /// Each entry of `requests` is `(action, key)`; idempotence/undoability
    /// is taken from the [`ActionName`].
    pub fn exactly_once_violations(&self, requests: &[(ActionName, Value)]) -> Vec<String> {
        // One pass over the effect log, then a lookup per request — the
        // log and the request list both grow with the session.
        let mut tallies: BTreeMap<(&ActionName, &Value), EffectTally> = BTreeMap::new();
        for e in &self.effects {
            let tally = tallies.entry((&e.action, &e.key)).or_default();
            match e.kind {
                EffectKind::Applied => tally.applied += 1,
                EffectKind::Tentative => tally.rounds.entry(e.round).or_default().0 += 1,
                EffectKind::Reverted => tally.rounds.entry(e.round).or_default().1 += 1,
                EffectKind::Committed => {
                    tally.committed += 1;
                    tally.rounds.entry(e.round).or_default().1 += 1;
                }
            }
        }
        let absent = EffectTally::default();
        let mut out = Vec::new();
        for (action, key) in requests {
            let tally = tallies.get(&(action, key)).unwrap_or(&absent);
            if action.is_idempotent() {
                let n = tally.applied;
                if n != 1 {
                    out.push(format!(
                        "idempotent request ({action}, {key}) applied its effect {n} times (want 1)"
                    ));
                }
            } else {
                let n = tally.committed;
                if n != 1 {
                    out.push(format!(
                        "undoable request ({action}, {key}) committed {n} times (want 1)"
                    ));
                }
                let dangling: usize = tally
                    .rounds
                    .values()
                    .map(|(tentative, resolved)| tentative.saturating_sub(*resolved))
                    .sum();
                if dangling != 0 {
                    out.push(format!(
                        "undoable request ({action}, {key}) left {dangling} dangling tentative effect(s)"
                    ));
                }
            }
        }
        out.extend(self.violations.iter().cloned());
        out
    }
}

/// A ledger shared by every service of a (single-threaded) simulation.
pub type SharedLedger = Rc<RefCell<Ledger>>;

/// Creates a fresh shared ledger.
pub fn shared_ledger() -> SharedLedger {
    Rc::new(RefCell::new(Ledger::new()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xability_core::xable::{Cause, Checker, Erasing, FastChecker};

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn events_accumulate_in_order() {
        let mut ledger = Ledger::new();
        let a = ActionId::base(ActionName::idempotent("a"));
        ledger.record_event(Event::start(a.clone(), Value::from(1)), t(1), "svc");
        ledger.record_event(Event::complete(a.clone(), Value::from(2)), t(2), "svc");
        let h = ledger.history();
        assert_eq!(h.len(), 2);
        assert_eq!(ledger.event_count(), 2);
        assert_eq!(h.event(0), Event::start(a, Value::from(1)));
        assert!(h.event(1).is_complete());
    }

    #[test]
    fn store_is_shared_not_copied() {
        // The (default) monitor consumes events as a cursor over the
        // ledger's store.
        let mut ledger = Ledger::new();
        let a = ActionId::base(ActionName::idempotent("a"));
        ledger.record_event(Event::start(a.clone(), Value::from(1)), t(1), "svc");
        ledger.record_event(Event::complete(a, Value::from(2)), t(2), "svc");
        assert_eq!(ledger.monitor().unwrap().consumed(), ledger.event_count());
        assert_eq!(ledger.store().len(), 2);
    }

    #[test]
    fn applied_and_committed_counts() {
        let mut ledger = Ledger::new();
        let idem = ActionName::idempotent("put");
        let undo = ActionName::undoable("xfer");
        ledger.record_effect(idem.clone(), Value::from(1), 0, EffectKind::Applied, t(1));
        ledger.record_effect(idem.clone(), Value::from(1), 0, EffectKind::Applied, t(2));
        ledger.record_effect(undo.clone(), Value::from(2), 1, EffectKind::Tentative, t(3));
        ledger.record_effect(undo.clone(), Value::from(2), 1, EffectKind::Committed, t(4));
        assert_eq!(ledger.applied_count(&idem, &Value::from(1)), 2);
        assert_eq!(ledger.applied_count(&idem, &Value::from(9)), 0);
        assert_eq!(ledger.committed_count(&undo, &Value::from(2)), 1);
        assert_eq!(ledger.dangling_tentative_count(&undo, &Value::from(2)), 0);
    }

    #[test]
    fn dangling_tentative_detection() {
        let mut ledger = Ledger::new();
        let undo = ActionName::undoable("xfer");
        ledger.record_effect(undo.clone(), Value::from(1), 1, EffectKind::Tentative, t(1));
        ledger.record_effect(undo.clone(), Value::from(1), 1, EffectKind::Reverted, t(2));
        ledger.record_effect(undo.clone(), Value::from(1), 2, EffectKind::Tentative, t(3));
        assert_eq!(ledger.dangling_tentative_count(&undo, &Value::from(1)), 1);
    }

    #[test]
    fn exactly_once_report() {
        let mut ledger = Ledger::new();
        let idem = ActionName::idempotent("put");
        let undo = ActionName::undoable("xfer");
        // put applied twice: violation. xfer committed once: fine.
        ledger.record_effect(idem.clone(), Value::from(1), 0, EffectKind::Applied, t(1));
        ledger.record_effect(idem.clone(), Value::from(1), 0, EffectKind::Applied, t(2));
        ledger.record_effect(undo.clone(), Value::from(2), 1, EffectKind::Tentative, t(3));
        ledger.record_effect(undo.clone(), Value::from(2), 1, EffectKind::Committed, t(4));
        ledger.record_violation("commit after cancel on xfer/7");
        let violations =
            ledger.exactly_once_violations(&[(idem, Value::from(1)), (undo, Value::from(2))]);
        assert_eq!(violations.len(), 2);
        assert!(violations[0].contains("2 times"));
        assert!(violations[1].contains("commit after cancel"));
    }

    #[test]
    fn monitor_tracks_events_online_and_replays_on_late_attach() {
        let mut ledger = Ledger::without_monitor();
        let a = ActionId::base(ActionName::idempotent("a"));
        // One event recorded *before* the monitor exists…
        ledger.record_event(Event::start(a.clone(), Value::from(1)), t(1), "svc");
        let mut monitor = Decider::new();
        monitor.declare(ledger.store().interner(), a.clone(), Value::from(1));
        ledger.attach_monitor(monitor).expect("no monitor yet");
        // …and one after: the monitor must see both.
        ledger.record_event(Event::complete(a.clone(), Value::from(2)), t(2), "svc");
        let m = ledger.monitor().expect("attached");
        assert_eq!(m.consumed(), 2);
        assert!(ledger.monitor_verdict().expect("attached").is_xable());
    }

    #[test]
    fn a_monitor_attached_after_the_registry_records_into_it() {
        let obs = Obs::new();
        let mut ledger = Ledger::without_monitor();
        ledger.attach_obs(&obs);
        let a = ActionId::base(ActionName::idempotent("a"));
        let mut monitor = Decider::new();
        monitor.declare(ledger.store().interner(), a.clone(), Value::from(1));
        ledger.attach_monitor(monitor).expect("no monitor yet");
        ledger.record_event(Event::start(a.clone(), Value::from(1)), t(1), "svc");
        ledger.record_event(Event::complete(a, Value::from(2)), t(2), "svc");
        assert!(ledger.monitor_verdict().expect("attached").is_xable());
        assert_eq!(obs.snapshot().counter("checker.verdicts"), Some(1));
    }

    #[test]
    fn double_attach_is_a_proper_error() {
        // A default ledger already carries a monitor…
        let mut ledger = Ledger::new();
        let err = ledger
            .attach_monitor(Decider::new())
            .expect_err("default monitor already attached");
        assert_eq!(err, MonitorAlreadyAttached);
        assert!(format!("{err}").contains("already has an online monitor"));
        // …and the refusal really did preserve the original monitor's
        // state (here: its consumed prefix).
        let a = ActionId::base(ActionName::idempotent("a"));
        ledger.record_event(Event::start(a, Value::from(1)), t(1), "svc");
        assert_eq!(ledger.monitor().expect("original").consumed(), 1);
        // A bare ledger accepts exactly one attachment.
        let mut bare = Ledger::without_monitor();
        bare.attach_monitor(Decider::new()).expect("first");
        bare.attach_monitor(Decider::new()).expect_err("second");
    }

    #[test]
    fn declare_requests_skips_already_declared_prefix() {
        let mut ledger = Ledger::new(); // default monitor
        let a = ActionId::base(ActionName::idempotent("a"));
        let b = ActionId::base(ActionName::idempotent("b"));
        let first = vec![Request::new(a.clone(), Value::from(1))];
        ledger.declare_requests(&first);
        let both = vec![
            Request::new(a, Value::from(1)),
            Request::new(b, Value::from(2)),
        ];
        ledger.declare_requests(&both);
        assert_eq!(ledger.monitor().unwrap().declared_len(), 2);
        // Without a monitor, declaring is a no-op.
        let mut bare = Ledger::without_monitor();
        bare.declare_requests(&both);
        assert!(bare.monitor_verdict().is_none());
    }

    #[test]
    fn missing_effects_are_violations() {
        let ledger = Ledger::new();
        let idem = ActionName::idempotent("put");
        let violations = ledger.exactly_once_violations(&[(idem, Value::from(1))]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("0 times"));
    }

    #[test]
    fn shared_ledger_is_shareable() {
        let ledger = shared_ledger();
        let clone = Rc::clone(&ledger);
        clone.borrow_mut().record_violation("x");
        assert_eq!(ledger.borrow().violations().len(), 1);
    }

    #[test]
    fn record_batch_equals_sequential_record() {
        let a = ActionId::base(ActionName::idempotent("a"));
        let events: Vec<Event> = (0..7)
            .map(|i| {
                if i % 2 == 0 {
                    Event::start(a.clone(), Value::from(i))
                } else {
                    Event::complete(a.clone(), Value::from(i))
                }
            })
            .collect();
        let mut batched = Ledger::new();
        batched.record_batch(&events[..3], t(5), "svc");
        batched.record_batch(&events[3..], t(5), "svc");
        let mut sequential = Ledger::new();
        for ev in &events {
            sequential.record_event(ev.clone(), t(5), "svc");
        }
        assert_eq!(
            batched.history().to_history(),
            sequential.history().to_history()
        );
        assert_eq!(
            batched.monitor().unwrap().consumed(),
            sequential.monitor().unwrap().consumed()
        );
    }

    /// One idempotent request `(a, 1)` started `n` times, then completed
    /// `n` times with one output.
    fn retried_then_completed(n: usize) -> Vec<Event> {
        let a = ActionId::base(ActionName::idempotent("a"));
        let starts = (0..n).map(|_| Event::start(a.clone(), Value::from(1)));
        let completions = (0..n).map(|_| Event::complete(a.clone(), Value::from(5)));
        starts.chain(completions).collect()
    }

    /// The fast tier's budget path, driven through a verdict: 8 starts and
    /// 8 completions are 16 events, past the shape memo's 12, so every
    /// question about the group is a search — and it exhausts the fixed
    /// per-group budget. Declared, the exec question gives up; undeclared,
    /// the erase question does; each is counted once. A decider without a
    /// budget must decide this history.
    #[test]
    #[ignore = "budget-exhausting searches: seconds in release (CI runs it), minutes in debug"]
    fn the_fast_tier_budget_path_is_driven_end_to_end() {
        let a = ActionId::base(ActionName::idempotent("a"));
        let events = retried_then_completed(8);
        let requests = [Request::new(a.clone(), Value::from(1))];
        let exhausted = Cause::ExecBudget(requests[0].clone());
        let undeclared = Cause::NotErasing {
            what: Erasing::UndeclaredGroup(requests[0].clone()),
            budget: true,
        };
        let h = xability_core::History::from_events(events.clone());
        let verdict = FastChecker.check(&h, &[(a.clone(), Value::from(1))], &[]);
        assert_eq!(verdict.cause(), Some(&exhausted), "{verdict}");

        let counter = |obs: &Obs, name| obs.snapshot().counter(name).unwrap_or(0);
        for declared in [true, false] {
            let obs = Obs::new();
            let mut ledger = Ledger::new();
            ledger.attach_obs(&obs);
            if declared {
                ledger.declare_requests(&requests);
            }
            ledger.record_batch(&events, t(1), "svc");
            let verdict = ledger.monitor_verdict().expect("default monitor");
            let (cause, op, erase) = if declared {
                (&exhausted, 1, 0)
            } else {
                (&undeclared, 0, 1)
            };
            assert_eq!(verdict.cause(), Some(cause), "{verdict}");
            assert_eq!(counter(&obs, "checker.op_budget_escalations"), op);
            assert_eq!(counter(&obs, "checker.erase_budget_escalations"), erase);
        }

        // One start and one completion fewer, the fast tier decides.
        let h = xability_core::History::from_events(retried_then_completed(7));
        assert!(FastChecker.check_requests(&h, &requests).is_xable());
    }

    #[test]
    fn a_late_monitor_catches_up_in_chunks() {
        // More than two catch-up chunks (1 024 events each), not a
        // multiple of the chunk size: the chunked catch-up must leave the
        // monitor exactly where a monitor attached from the start is.
        let a = ActionId::base(ActionName::idempotent("a"));
        let n = (2 * 1024 + 7) as i64;
        let requests: Vec<Request> = (0..n)
            .map(|k| Request::new(a.clone(), Value::from(k)))
            .collect();
        let mut live = Ledger::new();
        let mut late = Ledger::without_monitor();
        for k in 0..n {
            for ledger in [&mut live, &mut late] {
                ledger.record_event(Event::start(a.clone(), Value::from(k)), t(1), "svc");
                ledger.record_event(Event::complete(a.clone(), Value::from(-k)), t(1), "svc");
            }
        }
        late.attach_monitor(Decider::new()).expect("bare");
        assert_eq!(late.monitor().unwrap().consumed(), 2 * n as usize);
        live.declare_requests(&requests);
        late.declare_requests(&requests);
        let verdict = late.monitor_verdict().expect("attached");
        assert!(verdict.is_xable(), "{verdict}");
        assert_eq!(Some(verdict), live.monitor_verdict());
    }

    /// `n` requests cycling through four shapes — idempotent clean,
    /// idempotent retried, undoable committed, undoable cancelled then
    /// committed — each with its events; request `double` (an undoable
    /// one) commits a second round.
    fn mixed_requests(n: usize, double: Option<usize>) -> Vec<(Request, Vec<Event>)> {
        let put = ActionId::base(ActionName::idempotent("put"));
        let xfer = ActionId::base(ActionName::undoable("xfer"));
        let (cancel, commit) = (xfer.cancel().unwrap(), xfer.commit().unwrap());
        (0..n)
            .map(|i| {
                let key = Value::from(format!("r{i}"));
                let round = |k: i64| Value::pair(key.clone(), Value::from(k));
                let output = Value::from(i as i64);
                let mut events = Vec::new();
                if i % 4 < 2 {
                    events.extend((0..=i % 4).map(|_| Event::start(put.clone(), key.clone())));
                    events.push(Event::complete(put.clone(), output));
                    return (Request::new(put.clone(), key), events);
                }
                if i % 4 == 3 {
                    events.push(Event::start(xfer.clone(), round(1)));
                    events.push(Event::start(cancel.clone(), round(1)));
                    events.push(Event::complete(cancel.clone(), Value::Nil));
                }
                let committed = if double == Some(i) { 2..4 } else { 2..3 };
                for k in committed {
                    events.push(Event::start(xfer.clone(), round(k)));
                    events.push(Event::complete(xfer.clone(), output.clone()));
                    events.push(Event::start(commit.clone(), round(k)));
                    events.push(Event::complete(commit.clone(), Value::Nil));
                }
                (Request::new(xfer.clone(), key), events)
            })
            .collect()
    }

    #[test]
    fn a_cold_check_of_the_history_equals_the_warm_monitor() {
        // The batch check is the online checker fed all at once: over
        // the ledger's own history it answers what the monitor, warm from
        // a verdict every few requests, answers — for an x-able trace and
        // for one with a planted double commit.
        for double in [None, Some(6)] {
            let mut ledger = Ledger::new();
            let mut requests = Vec::new();
            for (i, (request, events)) in mixed_requests(40, double).into_iter().enumerate() {
                requests.push(request);
                ledger.declare_requests(&requests);
                ledger.record_batch(&events, t(i as u64), "svc");
                if i % 8 == 7 {
                    let warm = ledger.monitor_verdict().expect("default monitor");
                    let cold = FastChecker.check_requests(&ledger.history(), &requests);
                    assert_eq!(cold, warm, "after request {i}");
                }
            }
            let verdict = ledger.monitor_verdict().expect("default monitor");
            assert_eq!(verdict.is_xable(), double.is_none(), "{verdict}");
        }
    }

    #[test]
    fn the_pipelined_name_attaches_an_ordinary_monitor() {
        let mut ledger = Ledger::new();
        assert_eq!(
            ledger.attach_pipelined_monitor(2),
            Err(MonitorAlreadyAttached)
        );
        // Attached mid-trace, the forward and `attach_monitor` catch up
        // with the same prefix and answer alike from then on.
        let (mut forwarded, mut attached) = (Ledger::without_monitor(), Ledger::without_monitor());
        let trace = mixed_requests(16, Some(10));
        for (i, (_, events)) in trace.iter().enumerate() {
            if i == 5 {
                forwarded.attach_pipelined_monitor(2).expect("bare ledger");
                attached
                    .attach_monitor(Decider::new())
                    .expect("bare ledger");
            }
            for ledger in [&mut forwarded, &mut attached] {
                ledger.record_batch(events, t(i as u64), "svc");
            }
        }
        let requests: Vec<Request> = trace.into_iter().map(|(request, _)| request).collect();
        for ledger in [&mut forwarded, &mut attached] {
            ledger.declare_requests(&requests);
            assert_eq!(
                ledger.attach_pipelined_monitor(2),
                Err(MonitorAlreadyAttached)
            );
        }
        let verdict = forwarded.monitor_verdict().expect("attached");
        assert!(!verdict.is_xable(), "{verdict}");
        assert_eq!(Some(verdict), attached.monitor_verdict());
        assert_eq!(
            forwarded.monitor().unwrap().consumed(),
            attached.monitor().unwrap().consumed()
        );
    }

    /// A ledger script: the requests, in submission order, and the
    /// batches of events recorded.
    struct Script {
        requests: Vec<Request>,
        batches: Vec<Vec<Event>>,
    }

    /// Every way to declare `n` requests in order around `m` batches: the
    /// batch each request is declared before (`m` is after the last), as
    /// a non-decreasing sequence.
    fn schedules(n: usize, m: usize) -> Vec<Vec<usize>> {
        let mut all = vec![Vec::new()];
        for _ in 0..n {
            all = (all.into_iter())
                .flat_map(|at: Vec<usize>| {
                    let from = at.last().copied().unwrap_or(0);
                    (from..=m).map(move |b| [at.as_slice(), &[b]].concat())
                })
                .collect();
        }
        all
    }

    /// Replays `script` with the declarations placed by `at`, one request
    /// per `declare_requests` call, and checks at every checkpoint — after
    /// each declaration and each batch — that the monitor, which reads the
    /// store's symbols and finds keys by content, answers what a cold
    /// check of the ledger's history answers, that it lists the declared
    /// requests, and that the store interned exactly what a ledger without
    /// a monitor interns.
    fn replay_agrees(script: &Script, at: &[usize]) {
        let mut ledger = Ledger::new();
        let mut bare = Ledger::without_monitor();
        let mut declared = 0;
        let check = |ledger: &Ledger, bare: &Ledger, declared: usize, when: &str| {
            let requests = &script.requests[..declared];
            let online = ledger.monitor_verdict().expect("default monitor");
            let cold = FastChecker.check_requests(&ledger.history(), requests);
            let context = format!("declared at {at:?}, {when}");
            assert_eq!(online, cold, "{context}");
            assert_eq!(online.to_string(), cold.to_string(), "{context}");
            let listed: Vec<Request> = (ledger.monitor().expect("default monitor").requests())
                .map(|(action, input)| Request::new(action, input))
                .collect();
            assert_eq!(listed, requests, "{context}");
            let values = |l: &Ledger| l.store().interner().value_count();
            assert_eq!(values(ledger), values(bare), "{context}");
        };
        for (b, batch) in script.batches.iter().chain([&Vec::new()]).enumerate() {
            while declared < at.len() && at[declared] == b {
                declared += 1;
                ledger.declare_requests(&script.requests[..declared]);
                check(
                    &ledger,
                    &bare,
                    declared,
                    &format!("request {declared} declared"),
                );
            }
            if b < script.batches.len() {
                ledger.record_batch(batch, t(b as u64), "svc");
                bare.record_batch(batch, t(b as u64), "svc");
                check(&ledger, &bare, declared, &format!("batch {b} recorded"));
            }
        }
    }

    #[test]
    fn declarations_anywhere_around_recording_agree_with_a_cold_check() {
        let put = ActionId::base(ActionName::idempotent("put"));
        let get = ActionId::base(ActionName::idempotent("get"));
        let xfer = ActionId::base(ActionName::undoable("xfer"));
        let (cancel, commit) = (xfer.cancel().unwrap(), xfer.commit().unwrap());
        let key = |k: &str| Value::from(k);
        let round = |k: &str, r: i64| Value::round_stamped(key(k), r);
        let s = |a: &ActionId, v: Value| Event::start(a.clone(), v);
        let c = |a: &ActionId, v: Value| Event::complete(a.clone(), v);
        let request = |a: &ActionId, k: &str| Request::new(a.clone(), key(k));
        let committed = |k: &str, r: i64, output: i64| {
            vec![
                s(&xfer, round(k, r)),
                c(&xfer, Value::from(output)),
                s(&commit, round(k, r)),
                c(&commit, Value::Nil),
            ]
        };
        let scripts = [
            // k1 runs at once, and its output is k5's key: the store holds
            // that value before k5 is declared, in no group. k2's first
            // round is cancelled, its second committed. k3 starts in one
            // batch and completes in the next. k4 runs plain, then stamped.
            // k5 never executes.
            Script {
                requests: vec![
                    request(&put, "k1"),
                    request(&xfer, "k2"),
                    request(&put, "k3"),
                    request(&xfer, "k4"),
                    request(&put, "k5"),
                ],
                batches: vec![
                    vec![s(&put, key("k1")), c(&put, key("k5"))],
                    vec![
                        s(&xfer, round("k2", 1)),
                        s(&cancel, round("k2", 1)),
                        c(&cancel, Value::Nil),
                    ],
                    [committed("k2", 2, 7), vec![s(&put, key("k3"))]].concat(),
                    vec![
                        c(&put, Value::from(3)),
                        s(&xfer, key("k4")),
                        c(&xfer, Value::from(4)),
                    ],
                    committed("k4", 1, 4),
                ],
            },
            // An orphan completion between two requests.
            Script {
                requests: vec![request(&put, "k1"), request(&put, "k2")],
                batches: vec![
                    vec![s(&put, key("k1")), c(&put, Value::from(1))],
                    vec![c(&get, Value::from(0))],
                    vec![s(&put, key("k2")), c(&put, Value::from(2))],
                ],
            },
            // A duplicate declaration, and a non-base one.
            Script {
                requests: vec![
                    request(&put, "k1"),
                    request(&xfer, "k2"),
                    request(&put, "k1"),
                    request(&cancel, "k3"),
                ],
                batches: vec![
                    vec![s(&put, key("k1")), c(&put, Value::from(1))],
                    committed("k2", 1, 2),
                    vec![s(&put, key("k1")), c(&put, Value::from(1))],
                ],
            },
        ];
        let mut replayed = 0;
        for script in &scripts {
            for at in schedules(script.requests.len(), script.batches.len()) {
                replay_agrees(script, &at);
                replayed += 1;
            }
        }
        // C(5 + 5, 5) + C(2 + 3, 2) + C(4 + 3, 4) placements.
        assert_eq!(replayed, 252 + 10 + 35);
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("xability-ledger-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn spill_reopen_recovers_history_and_verdict() {
        let dir = tmpdir("spill");
        let a = ActionId::base(ActionName::idempotent("put"));
        let requests = vec![
            Request::new(a.clone(), Value::from(1)),
            Request::new(a.clone(), Value::from(2)),
        ];

        let mut ledger = Ledger::new();
        let config = TierConfig {
            spill_threshold: 3,
            ..TierConfig::default()
        };
        ledger.attach_spill(&dir, config).expect("attach");
        ledger.declare_requests(&requests);
        for key in [1i64, 2] {
            ledger.record_event(Event::start(a.clone(), Value::from(key)), t(1), "svc");
            ledger.record_event(Event::complete(a.clone(), Value::from(key)), t(2), "svc");
        }
        // 4 events, threshold 3: one segment sealed, 1 event hot.
        assert_eq!(ledger.spill_segments().expect("attached").len(), 1);
        assert_eq!(ledger.flush_spill().expect("flush"), 4);
        assert_eq!(ledger.spill_segments().expect("attached").len(), 2);
        let live_verdict = ledger.monitor_verdict().expect("monitor");

        let (mut reopened, report) = Ledger::reopen_spill(&dir).expect("reopen");
        assert_eq!(report.events_recovered, 4);
        assert!(report.quarantined.is_empty());
        assert_eq!(
            reopened.history().to_history(),
            ledger.history().to_history()
        );
        // Re-declare the run's requests; the recovered verdict matches.
        reopened.declare_requests(&requests);
        assert_eq!(reopened.monitor_verdict(), Some(live_verdict));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopening_a_missing_spill_directory_fails_and_creates_nothing() {
        let missing = tmpdir("spill-missing");
        let err = Ledger::reopen_spill(&missing).expect_err("nothing to reopen");
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        let err = recover_store(&missing).expect_err("nothing to recover");
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(!missing.exists(), "a reopen must not create the directory");
    }

    #[test]
    fn failed_seal_error_is_sticky_and_stable_across_flushes() {
        let dir = tmpdir("spill-sticky");
        let a = ActionId::base(ActionName::idempotent("put"));
        let mut ledger = Ledger::new();
        let config = TierConfig {
            spill_threshold: 2,
            ..TierConfig::default()
        };
        ledger.attach_spill(&dir, config).expect("attach");
        // Pull the directory out from under the chain: the background
        // seal of the first full chunk fails inside `record_event`.
        std::fs::remove_dir_all(&dir).expect("remove spill dir");
        ledger.record_event(Event::start(a.clone(), Value::from(1)), t(1), "svc");
        ledger.record_event(Event::complete(a.clone(), Value::from(1)), t(2), "svc");

        let first = ledger.flush_spill().expect_err("sticky error surfaces");
        // Another full chunk arrives: the chain must not seal past the hole.
        ledger.record_event(Event::start(a.clone(), Value::from(2)), t(3), "svc");
        ledger.record_event(Event::complete(a, Value::from(2)), t(4), "svc");
        let second = ledger.flush_spill().expect_err("and stays");
        assert_eq!(first.kind(), second.kind());
        assert_eq!(first.to_string(), second.to_string());
        assert!(ledger.spill_segments().expect("attached").is_empty());
    }

    #[test]
    fn spill_attach_is_exclusive_and_validated() {
        let dir = tmpdir("spill-excl");
        let mut ledger = Ledger::new();
        ledger
            .attach_spill(&dir, TierConfig::default())
            .expect("first attach");
        assert!(ledger.attach_spill(&dir, TierConfig::default()).is_err());
        assert!(Ledger::new()
            .attach_spill(
                &dir,
                TierConfig {
                    spill_threshold: 0,
                    ..TierConfig::default()
                }
            )
            .is_err());
        let mut bare = Ledger::without_monitor();
        assert!(bare.flush_spill().is_err(), "flush without a spill");
        std::fs::remove_dir_all(&dir).ok();
    }
}
