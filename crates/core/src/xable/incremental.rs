//! The fast checker's one decider: decide R3 *while* the history is being
//! produced, or — fed a whole history at once — after it.
//!
//! The [`IncrementalChecker`] (and its storage-free core,
//! [`IncrementalState`]) maintains the fast checker's state machine
//! online:
//!
//! * [`push`](IncrementalChecker::push) consumes one event in amortized
//!   O(1): a single streaming attribution step (`Engine::observe` in the
//!   crate-private `fast` module) links the event's index into the chain
//!   of its symbol-keyed `(base action, input)` group and marks the
//!   requests watching the group *dirty*.
//! * [`declare`](IncrementalChecker::declare) appends an expected request
//!   to the R3 sequence (requests arrive over time too: the client submits
//!   `Rᵢ₊₁` only after `Rᵢ` succeeded).
//! * [`verdict`](IncrementalChecker::verdict) answers the R3 question for
//!   the *current prefix* at any moment — in **O(dirty groups)**, not
//!   O(all groups): the checker maintains an aggregate verdict (per-request
//!   decisions, the first failing request, the set of undeclared groups
//!   that fail to erase, and the effect-order violations between adjacent
//!   requests) and a verdict call re-decides only the requests whose
//!   groups were touched since the last call. The aggregate also *owns*
//!   the answer's bulk, every request's agreed output, in one persistent
//!   vector ([`Outputs`]) that a re-decided request overwrites; a positive
//!   verdict's witness is a clone of it — O(n / segment) `Rc` clones for
//!   `n` requests, sharing every segment with the previous verdict but
//!   the ones written since. In steady state — events arriving for the
//!   newest request while earlier requests sit clean — a verdict therefore
//!   costs O(dirty + n / 1024) and does not slow down as the history
//!   grows.
//!
//! **One decider, two owners of an interner.** The [`Decider`] holds the
//! whole state machine but no interner: it is fed each event as the
//! [`EventSymbols`] some [`Interner`] assigned, and borrows that interner
//! whenever it resolves a symbol — never writing into it. A service
//! ledger's monitor is a `Decider` reading the symbols its trace store
//! already assigned, so every event is interned once. An
//! [`IncrementalState`] is a `Decider` plus an interner of its own, into
//! which it interns exactly what an event carries — its base name and, for
//! a start, its input — before feeding the decider.
//!
//! **One decision path.** This module holds the only assembly of per-group
//! outcomes into a verdict: the per-request case analysis, one attempt
//! over the first `n` declared requests executing and a range of declared
//! requests erasing, and the R3 combination of two attempts. The batch
//! [`super::FastChecker`] is a *cold* state — the question's requests
//! declared, the whole source fed through
//! [`catch_up`](IncrementalState::catch_up) — read once. So the online
//! verdict at any prefix equals `FastChecker::check_requests` on that
//! prefix because both are this code; what the property tests in
//! `tests/incremental_props.rs` and `tests/checker_scaling.rs` still pin,
//! prefix by prefix, is that a *warm* aggregate (event by event, a verdict
//! after every push, requests declared late) answers like a cold one.
//!
//! **What a request costs.** A declared request is found by *content*:
//! its key's input is hashed and compared, so a key needs no symbol — and
//! the interner, someone else's, gets none. Once an event of the request
//! has been seen, its key is the key of the group it landed in (its plain
//! group, or its rounds' parent) and the request keeps no copy of it;
//! until then its `(name, input)` pair is *pending* in a side map (invalid
//! declarations — non-base or duplicate — sit in a side list). Beside that
//! a request has a 4-byte hash of its key, a 20-byte cached decision (its
//! plain group, the head of its round chain, the committed-round count,
//! an 8-byte state whose `Ok` keeps only the anchor), a 24-byte slot of
//! the outputs, and its share of the key index — the same
//! 5-bytes-a-slot `SymbolIndex` the engine and the interner use, which
//! grows by re-filing the hashes, never re-reading a key. A group adds 8
//! bytes here: its two watching requests.
//! Every index is a `u32` with `NONE` for "absent"; the `u32::MAX - 1`
//! limit is the engine's (DESIGN.md §7). [`Decider::approx_bytes_by_part`]
//! is the table that adds up.
//!
//! The per-group state carried online, the dirty-set/aggregate invariant,
//! and the reason cross-group reduction never occurs (rules 18–20 relate
//! events of one group only) are spelled out in DESIGN.md §4.3.
//!
//! # Examples
//!
//! ```
//! use xability_core::xable::IncrementalChecker;
//! use xability_core::{ActionId, ActionName, Event, Value};
//!
//! let get = ActionId::base(ActionName::idempotent("get"));
//! let mut checker = IncrementalChecker::new();
//! checker.declare(get.clone(), Value::from(1));
//!
//! checker.push(Event::start(get.clone(), Value::from(1)));
//! assert!(!checker.verdict().is_xable()); // started, not yet completed
//!
//! checker.push(Event::complete(get, Value::from(42)));
//! assert!(checker.verdict().is_xable()); // the prefix is now x-able
//! ```

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::mem::size_of;
use std::ops::Range;
use std::slice;

use xability_obs::{Counter, Histogram, Obs};

use crate::action::{ActionId, ActionName, Request};
use crate::event::Event;
use crate::history::{History, HistoryRead};
use crate::intern::{hash_of, short_hash, BatchMemo, Interner, SymbolIndex};
use crate::value::Value;
use crate::xable::checker::{combine_r3_attempts, Cause, Erasing, Verdict, Witness};
use crate::xable::fast::{id32, Engine, EraseOutcome, ExecOutcome, GroupSym, Observed, NONE};
use crate::xable::outputs::Outputs;

/// Events per [`IncrementalState::observe_batch`] call while
/// [`IncrementalState::catch_up`] feeds a source.
const CATCH_UP_CHUNK: usize = 1024;

/// One observed event as the [`Decider`] reads it: the symbols an
/// [`Interner`] gave its base action name and — for a start — its input,
/// and its action's role. A completion's output is not among them: no
/// decision reads it by symbol (an agreed output is re-read from the
/// history).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventSymbols {
    /// The base action name's symbol.
    pub name: u32,
    /// The action's role, as [`ActionId::role`] codes it: 0, 1 or 2.
    pub role: u8,
    /// The input's symbol for a start event; `None` for a completion.
    pub input: Option<u32>,
}

impl EventSymbols {
    /// The symbols of `event`, interned into `interner` through the batch's
    /// `memo` — only what the event carries.
    pub(crate) fn intern<'a>(
        memo: &mut BatchMemo<'a>,
        interner: &mut Interner,
        event: &'a Event,
    ) -> Self {
        let action = event.action();
        EventSymbols {
            name: memo.action(interner, action.base_name()),
            role: action.role(),
            input: event
                .is_start()
                .then(|| memo.value(interner, event.value())),
        }
    }
}

/// Which declared requests read a group's decision — the fan-out of one
/// dirty group, as two request indices with [`NONE`] for "no such
/// request". A group is *plain* for the request whose key equals the group
/// key, and/or a *round-stamped transaction* of the undoable request whose
/// key equals the group's stamped parent; a group watched by neither is
/// undeclared and must erase.
#[derive(Debug, Clone, Copy)]
struct Watchers {
    plain_op: u32,
    stamped_op: u32,
}

impl Watchers {
    fn is_undeclared(&self) -> bool {
        self.plain_op == NONE && self.stamped_op == NONE
    }
}

/// The cached decision of one declared request.
#[derive(Debug)]
struct OpEntry {
    /// The group whose key equals the request key, or [`NONE`].
    plain: GroupSym,
    /// The first-seen round-stamped transaction group of this (undoable)
    /// request, or [`NONE`]: the head of the engine's sibling chain, which
    /// lists the rounds in group-symbol (first-seen) order.
    stamped: GroupSym,
    /// How many stamped transactions have a commit completion.
    committed: u32,
    /// The memoized decision (recomputed only while the request is dirty).
    state: OpState,
}

impl Default for OpEntry {
    fn default() -> Self {
        OpEntry {
            plain: NONE,
            stamped: NONE,
            committed: 0,
            state: OpState::Pending,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum OpState {
    /// Not yet computed (freshly declared).
    Pending,
    /// The request's events reduce to a failure-free execution with its
    /// effect anchored at this history index; the agreed output is the
    /// request's entry of [`Aggregate::outputs`].
    Ok { anchor: u32 },
    /// The request fails (or is undecidable) for this reason; the
    /// verdict's [`Cause`] is built only for the failure a verdict
    /// reports.
    Bad(OpFail),
}

impl OpState {
    fn anchor(&self) -> Option<u32> {
        match self {
            OpState::Ok { anchor } => Some(*anchor),
            _ => None,
        }
    }
}

/// Why a request's decision is not `Ok` — the compact per-request code
/// that becomes a [`Cause`] when a verdict reports it.
#[derive(Debug, Clone, Copy)]
enum OpFail {
    NeverExecuted,
    /// Both plain and round-stamped events exist (→ `Unknown`).
    PlainAndStamped,
    /// `n != 1` rounds committed.
    CommittedRounds(u32),
    /// A cancelled round's events do not erase.
    RoundNotErasing(GroupSym),
    /// A cancelled round's erase search ran out of budget (→ `Unknown`).
    RoundEraseBudget(GroupSym),
    /// The executing group does not reduce to a failure-free execution.
    Stuck,
    /// The executing group's search ran out of budget (→ `Unknown`).
    ExecBudget,
}

/// How an undeclared group fails to erase.
#[derive(Debug, Clone, Copy)]
enum EraseFail {
    Stuck,
    Budget,
}

/// The maintained aggregate behind O(dirty) verdicts. The invariant — the
/// reason a verdict may skip every clean request — is:
///
/// > For every request not in `dirty_ops`, `entries[op].state` equals what
/// > `decide_op` computes for that request on the current prefix, and
/// > when that is `Ok`, `outputs[op]` is the output it found; for every
/// > group not in `dirty_undeclared` that no request
/// > watches, `undeclared_fail` records exactly whether (and how) its
/// > erase search fails; and `order_bad` holds exactly the adjacent
/// > request pairs whose effect anchors are out of submission order.
///
/// Pushing an event touches one group and therefore dirties at most two
/// requests (its plain watcher and its stamped watcher) or one undeclared
/// group; a verdict drains the dirty sets and re-decides only those.
#[derive(Debug, Default)]
struct Aggregate {
    /// The declared requests no event has joined yet: their keys, by
    /// request index. A request leaves when its plain group or its first
    /// round is seen — from then on its key is that group's.
    pending: BTreeMap<u32, (ActionName, Value)>,
    /// The invalid declarations — a non-base action, or a key an earlier
    /// request already declared; the first one makes every verdict
    /// `Unknown` with its cause, so there is a handful at most —
    /// ascending by request index.
    invalid: Vec<(usize, ActionId, Value)>,
    /// Per-request [`short_hash`] of the key's input (of no meaning for an
    /// invalid declaration).
    op_hashes: Vec<u32>,
    /// A request's key hash → request index, probed against the requests'
    /// keys by content ([`Aggregate::key_of`]); every valid request is
    /// filed. A round-stamped parent's key carries an undoable name by
    /// construction, so this is also how a new round finds its request.
    op_lookup: SymbolIndex,
    /// Per-request cached decisions, index-aligned with the declared
    /// sequence.
    entries: Vec<OpEntry>,
    /// Per-request agreed output, index-aligned with `entries`: written
    /// when a request is re-decided `Ok`, `Nil` until the first time, and
    /// left as it was while the request is not `Ok` — a verdict reads the
    /// outputs only after finding no such request in the range it reports.
    /// Verdicts share its segments instead of copying them.
    outputs: Outputs,
    /// Per-group watcher fan-out, index-aligned with the engine's groups.
    watchers: Vec<Watchers>,
    /// The group tracked last since the dirty sets were drained: another
    /// event of it that neither creates nor commits would only re-insert
    /// the same dirty marks.
    last_tracked: Option<GroupSym>,
    /// Requests whose groups changed since the last verdict.
    dirty_ops: BTreeSet<usize>,
    /// Unwatched groups that changed since the last verdict.
    dirty_undeclared: BTreeSet<GroupSym>,
    /// Unwatched groups currently failing to erase (ascending symbol
    /// order: a verdict reports the first-seen one).
    undeclared_fail: BTreeMap<GroupSym, EraseFail>,
    /// Requests whose state is `Bad` (ascending: the first failure in
    /// submission order wins).
    failing_ops: BTreeSet<usize>,
    /// Indices `i ≥ 1` where both anchors are defined and
    /// `anchor[i-1] >= anchor[i]`.
    order_bad: BTreeSet<usize>,
}

impl Aggregate {
    /// The key `(name, input)` of the declared request `op`, by content:
    /// the key of its plain group, or of its rounds' parent, once one has
    /// been seen, and its pending pair before; `None` for an invalid
    /// declaration.
    fn key_of<'a>(
        &'a self,
        op: u32,
        engine: &Engine,
        interner: &'a Interner,
    ) -> Option<(&'a ActionName, &'a Value)> {
        let entry = &self.entries[op as usize];
        if entry.plain != NONE {
            let (ns, vs) = engine.key(entry.plain);
            Some((interner.action(ns), interner.value(vs)))
        } else if entry.stamped != NONE {
            Some(engine.round_key(interner, entry.stamped).0)
        } else {
            self.pending.get(&op).map(|(name, input)| (name, input))
        }
    }

    /// The request declared with the key `(name, input)`, or [`NONE`].
    /// `key_hash` is the [`short_hash`] of the key's input.
    fn op_with_key(
        &self,
        engine: &Engine,
        interner: &Interner,
        key: (&ActionName, &Value),
        key_hash: u32,
    ) -> u32 {
        self.op_lookup
            .find(hash_of(&key_hash), |op| {
                self.op_hashes[op as usize] == key_hash
                    && self.key_of(op, engine, interner) == Some(key)
            })
            .unwrap_or(NONE)
    }

    /// Records what one observed event did to the partition: a new group
    /// finds the requests whose keys equal its key and its parent's, by
    /// content, and a changed group dirties its watchers.
    fn track(&mut self, obs: Observed, engine: &Engine, interner: &Interner) {
        let sym = obs.group;
        if !obs.created && !obs.commit_completed && self.last_tracked == Some(sym) {
            return;
        }
        self.last_tracked = Some(sym);
        if obs.created {
            let (ns, vs) = engine.key(sym);
            let (name, input) = (interner.action(ns), interner.value(vs));
            // A cold check declares after the events: nothing to hash for.
            let plain_op = if self.entries.is_empty() {
                NONE
            } else {
                self.op_with_key(engine, interner, (name, input), short_hash(hash_of(input)))
            };
            if plain_op != NONE {
                self.entries[plain_op as usize].plain = sym;
                self.pending.remove(&plain_op);
            }
            let stamped_op = if obs.round_head == sym {
                // The parent's first round: its request, by content. The
                // engine chains the later rounds in first-seen order; the
                // request only needs to know where they start.
                let (key, base_hash) = engine.round_key(interner, sym);
                let op = self.op_with_key(engine, interner, key, base_hash);
                if op != NONE {
                    self.entries[op as usize].stamped = sym;
                    self.pending.remove(&op);
                }
                op
            } else if obs.round_head != NONE {
                self.watchers[obs.round_head as usize].stamped_op
            } else {
                NONE
            };
            self.watchers.push(Watchers {
                plain_op,
                stamped_op,
            });
        }
        let w = self.watchers[sym as usize];
        if obs.commit_completed && w.stamped_op != NONE {
            self.entries[w.stamped_op as usize].committed += 1;
        }
        for op in [w.plain_op, w.stamped_op] {
            if op != NONE {
                self.dirty_ops.insert(op as usize);
            }
        }
        if w.is_undeclared() {
            self.dirty_undeclared.insert(sym);
        }
    }

    /// Re-derives the order-violation membership of the adjacent pairs
    /// around `op` after its anchor may have changed.
    fn refresh_order_pairs(&mut self, op: usize) {
        for i in [op, op + 1] {
            if i == 0 || i >= self.entries.len() {
                continue;
            }
            let bad = match (
                self.entries[i - 1].state.anchor(),
                self.entries[i].state.anchor(),
            ) {
                (Some(prev), Some(next)) => prev >= next,
                _ => false,
            };
            if bad {
                self.order_bad.insert(i);
            } else {
                self.order_bad.remove(&i);
            }
        }
    }
}

/// The online checker's state machine without an interner: the
/// symbol-keyed engine (attribution state, per-group partition and shape
/// memo) and the dirty-tracked aggregate verdict — everything the
/// incremental verdict needs *except* the events and their symbol tables.
///
/// A `Decider` is a **cursor** over an event stream that lives elsewhere,
/// fed as the symbols an [`Interner`] that also lives elsewhere assigned:
/// [`observe`](Decider::observe) consumes the next event's
/// [`EventSymbols`] (amortized O(1)), and
/// [`verdict_over`](Decider::verdict_over) answers the R3 question
/// against any [`HistoryRead`] holding the consumed prefix. Every call
/// that takes an interner must be given the one the symbols came from (it
/// may have grown since); the decider only reads it. A service ledger's
/// monitor is a `Decider` over its trace store's symbols;
/// [`IncrementalState`] is one with an interner of its own.
///
/// # Examples
///
/// ```
/// use xability_core::xable::{Decider, EventSymbols};
/// use xability_core::{ActionId, ActionName, Event, History, Interner, Value};
///
/// let get = ActionId::base(ActionName::idempotent("get"));
/// let (mut shared, mut interner) = (History::empty(), Interner::new());
/// let mut monitor = Decider::new();
/// monitor.declare(&interner, get.clone(), Value::from(1));
///
/// let name = interner.intern_action(get.base_name());
/// let input = interner.intern_value(&Value::from(1));
/// monitor.observe(&interner, EventSymbols { name, role: 0, input: Some(input) });
/// shared.push(Event::start(get.clone(), Value::from(1)));
/// monitor.observe(&interner, EventSymbols { name, role: 0, input: None });
/// shared.push(Event::complete(get, Value::from(42)));
/// assert!(monitor.verdict_over(&interner, &shared).is_xable());
/// ```
#[derive(Debug)]
pub struct Decider {
    /// The cursor position is the engine's own event count.
    engine: Engine,
    /// First completion observed without any start of its action — a
    /// permanent violation of the event axioms (§2.2).
    orphan: Option<Cause>,
    /// Interior mutability: a verdict drains the dirty sets and refreshes
    /// the cached per-request decisions, which is logically a cache fill
    /// behind the `&self` query API.
    agg: RefCell<Aggregate>,
    obs: CheckerObs,
}

/// Checker-engine instruments: inert by default (every handle is a noop),
/// bound to a shared registry by [`Decider::attach_obs`]. Every handle
/// records through a shared `Cell`, so recording works through the `&self`
/// verdict path.
#[derive(Debug, Default)]
struct CheckerObs {
    /// Dirty undeclared-group set size at each refresh.
    dirty_undeclared: Histogram,
    /// Dirty request set size at each refresh.
    dirty_ops: Histogram,
    /// Refresh passes (one per verdict/decision query).
    refreshes: Counter,
    /// Verdict assemblies.
    verdicts: Counter,
    /// Fast-tier budget exhaustions while erasing undeclared groups — each
    /// is a question the fast tier gave up on (the answer
    /// [`escalate`](super::escalate) hands to the search tier).
    erase_budget_escalations: Counter,
    /// Per-request decisions lost to a search-budget exhaustion (exec or
    /// cancelled-round erase).
    op_budget_escalations: Counter,
}

impl CheckerObs {
    fn bind(obs: &Obs) -> Self {
        CheckerObs {
            dirty_undeclared: obs.histogram("checker.dirty_undeclared"),
            dirty_ops: obs.histogram("checker.dirty_ops"),
            refreshes: obs.counter("checker.refreshes"),
            verdicts: obs.counter("checker.verdicts"),
            erase_budget_escalations: obs.counter("checker.erase_budget_escalations"),
            op_budget_escalations: obs.counter("checker.op_budget_escalations"),
        }
    }
}

impl Default for Decider {
    fn default() -> Self {
        Decider::new()
    }
}

impl Decider {
    /// An empty decider. Every per-group search runs under the fast tier's
    /// one constant budget,
    /// [`SearchBudget::small`](crate::xable::SearchBudget::small).
    pub fn new() -> Self {
        Decider {
            engine: Engine::default(),
            orphan: None,
            agg: RefCell::new(Aggregate::default()),
            obs: CheckerObs::default(),
        }
    }

    /// Binds this decider's instruments (dirty-set size histograms,
    /// refresh/verdict counters, budget-escalation counters) to a shared
    /// metrics registry. Inert (noop handles) until called.
    pub fn attach_obs(&mut self, obs: &Obs) {
        self.obs = CheckerObs::bind(obs);
    }

    /// Appends an expected request to the declared R3 sequence, wiring
    /// any groups that already belong to it (a request may be declared
    /// after its first events were observed) into the aggregate. The key
    /// is looked up in `interner`, never interned: a key no observed event
    /// carries stays pending until one does.
    ///
    /// # Panics
    ///
    /// Panics past `u32::MAX - 1` declared requests (DESIGN.md §7).
    pub fn declare(&mut self, interner: &Interner, action: ActionId, input: Value) {
        let agg = self.agg.get_mut();
        let idx = id32(agg.entries.len(), "declared requests");
        let op = idx as usize;
        agg.entries.push(OpEntry::default());
        agg.outputs.push(Value::Nil);
        agg.dirty_ops.insert(op);
        let input_hash = short_hash(hash_of(&input));
        agg.op_hashes.push(input_hash);
        let name = match &action {
            ActionId::Base(name)
                if agg.op_with_key(&self.engine, interner, (name, &input), input_hash) == NONE =>
            {
                name.clone()
            }
            _ => {
                agg.invalid.push((op, action, input));
                return;
            }
        };
        let mut adopt = |sym: GroupSym| {
            agg.dirty_undeclared.remove(&sym);
            agg.undeclared_fail.remove(&sym);
        };
        let ns = interner.lookup_action(&name);
        let plain =
            (ns.zip(interner.lookup_value(&input))).and_then(|key| self.engine.group_with_key(key));
        if let Some(sym) = plain {
            agg.entries[op].plain = sym;
            agg.watchers[sym as usize].plain_op = idx;
            adopt(sym);
        }
        if let Some(ns) = ns.filter(|_| name.is_undoable()) {
            // Rounds observed before their request was declared: adopt the
            // engine's chain, in first-seen order.
            agg.entries[op].stamped =
                self.engine
                    .first_round_of(interner, ns, (&input, input_hash));
            for sym in self.engine.siblings(agg.entries[op].stamped) {
                agg.watchers[sym as usize].stamped_op = idx;
                if self.engine.has_commit_completion(sym) {
                    agg.entries[op].committed += 1;
                }
                adopt(sym);
            }
        }
        if plain.is_none() && agg.entries[op].stamped == NONE {
            agg.pending.insert(idx, (name, input));
        }
        let (op_hashes, invalid) = (&agg.op_hashes, &agg.invalid);
        agg.op_lookup.insert(hash_of(&input_hash), idx, |row| {
            let filed = invalid.binary_search_by_key(&(row as usize), |(op, ..)| *op);
            filed.is_err().then(|| hash_of(&op_hashes[row as usize]))
        });
    }

    /// Consumes the next event of the stream, given as the symbols
    /// `interner` assigned, in amortized O(1): one attribution step, one
    /// chain link, one dirty mark. Only the event's index joins the
    /// partition.
    ///
    /// # Panics
    ///
    /// Panics past `u32::MAX - 1` events (DESIGN.md §7).
    pub fn observe(&mut self, interner: &Interner, event: EventSymbols) {
        match self.engine.observe(interner, event) {
            Ok(obs) => self.agg.get_mut().track(obs, &self.engine, interner),
            Err(cause) => {
                self.orphan.get_or_insert(cause);
            }
        }
    }

    /// The cursor position: how many events have been consumed.
    pub fn consumed(&self) -> usize {
        self.engine.observed()
    }

    /// How many requests have been declared.
    pub fn declared_len(&self) -> usize {
        self.agg.borrow().entries.len()
    }

    /// The declared request sequence, in declaration order, with keys
    /// resolved through `interner`. The decider keeps no pair for a
    /// request an event has joined, so the pairs are materialised as the
    /// iterator goes (an `O(1)` clone each).
    pub fn requests<'a>(
        &'a self,
        interner: &'a Interner,
    ) -> impl Iterator<Item = (ActionId, Value)> + 'a {
        (0..self.declared_len()).map(move |op| self.request_at(&self.agg.borrow(), interner, op))
    }

    /// The declared request `op`, from its key (or, for an invalid
    /// declaration, from the side list).
    fn request_at(&self, agg: &Aggregate, interner: &Interner, op: usize) -> (ActionId, Value) {
        if let Some((name, input)) = agg.key_of(op as u32, &self.engine, interner) {
            return (ActionId::base(name.clone()), input.clone());
        }
        let at = agg
            .invalid
            .binary_search_by_key(&op, |(declared, ..)| *declared)
            .expect("a keyless request is in the invalid list");
        let (_, action, input) = &agg.invalid[at];
        (action.clone(), input.clone())
    }

    /// The decider's heap bytes, part by part (DESIGN.md §4.3 has the
    /// table). Allocated capacity is counted, not length, and payload
    /// another holder also references is counted at most once: the
    /// `outputs` row is its segments only (each output's payload belongs
    /// to the event that carried it), and the pending keys and the ordered
    /// dirty/failing sets are charged their element bytes. There is no
    /// interner row: the decider holds none.
    pub fn approx_bytes_by_part(&self) -> Vec<(&'static str, usize)> {
        let agg = self.agg.borrow();
        let sets = (agg.dirty_ops.len() + agg.failing_ops.len() + agg.order_bad.len())
            * size_of::<usize>()
            + agg.dirty_undeclared.len() * size_of::<GroupSym>()
            + agg.undeclared_fail.len() * size_of::<(GroupSym, EraseFail)>();
        let mut parts = self.engine.byte_parts().to_vec();
        parts.extend([
            (
                "request index + held keys",
                agg.op_hashes.capacity() * size_of::<u32>()
                    + agg.pending.len() * size_of::<(u32, (ActionName, Value))>()
                    + agg.invalid.capacity() * size_of::<(usize, ActionId, Value)>()
                    + agg.op_lookup.heap_bytes(),
            ),
            (
                "request entries",
                agg.entries.capacity() * size_of::<OpEntry>(),
            ),
            ("outputs", agg.outputs.segment_bytes()),
            ("watchers", agg.watchers.capacity() * size_of::<Watchers>()),
            ("dirty and failing sets", sets),
        ]);
        parts
    }

    /// Drains the dirty sets: re-runs the erase check of each touched
    /// undeclared group and the decision of each touched request, each
    /// group question answered by the engine's shape memo. O(dirty),
    /// independent of the total group count.
    fn refresh<H: HistoryRead + ?Sized>(&self, interner: &Interner, h: &H) {
        let mut agg = self.agg.borrow_mut();
        let agg = &mut *agg;
        agg.last_tracked = None;
        self.obs.refreshes.inc();
        self.obs
            .dirty_undeclared
            .record(agg.dirty_undeclared.len() as u64);
        self.obs.dirty_ops.record(agg.dirty_ops.len() as u64);
        while let Some(sym) = agg.dirty_undeclared.pop_first() {
            match self.engine.erases(interner, sym, h) {
                EraseOutcome::Erases => {
                    agg.undeclared_fail.remove(&sym);
                }
                EraseOutcome::Stuck => {
                    agg.undeclared_fail.insert(sym, EraseFail::Stuck);
                }
                EraseOutcome::Budget => {
                    self.obs.erase_budget_escalations.inc();
                    agg.undeclared_fail.insert(sym, EraseFail::Budget);
                }
            }
        }
        while let Some(op) = agg.dirty_ops.pop_first() {
            agg.entries[op].state = match self.decide_op(&agg.entries[op], interner, h) {
                Ok((output, anchor)) => {
                    agg.outputs.set(op, output);
                    agg.failing_ops.remove(&op);
                    OpState::Ok { anchor }
                }
                Err(fail) => {
                    if matches!(fail, OpFail::ExecBudget | OpFail::RoundEraseBudget(_)) {
                        self.obs.op_budget_escalations.inc();
                    }
                    agg.failing_ops.insert(op);
                    OpState::Bad(fail)
                }
            };
            agg.refresh_order_pairs(op);
        }
    }

    /// One request's decision, `(output, effect anchor)` or why not: its
    /// plain group executes, or — an undoable request run as §5.4
    /// round-stamped transactions — exactly one round commits and
    /// executes while every other round erases.
    fn decide_op<H: HistoryRead + ?Sized>(
        &self,
        entry: &OpEntry,
        interner: &Interner,
        h: &H,
    ) -> Result<(Value, u32), OpFail> {
        let exec_sym = match (entry.plain != NONE, entry.stamped != NONE) {
            (true, true) => return Err(OpFail::PlainAndStamped),
            (true, false) => entry.plain,
            (false, false) => return Err(OpFail::NeverExecuted),
            (false, true) => {
                if entry.committed != 1 {
                    return Err(OpFail::CommittedRounds(entry.committed));
                }
                let committed = self
                    .engine
                    .siblings(entry.stamped)
                    .find(|&sym| self.engine.has_commit_completion(sym))
                    .expect("committed count is 1");
                for sym in self.engine.siblings(entry.stamped) {
                    if sym == committed {
                        continue;
                    }
                    match self.engine.erases(interner, sym, h) {
                        EraseOutcome::Erases => {}
                        EraseOutcome::Stuck => return Err(OpFail::RoundNotErasing(sym)),
                        EraseOutcome::Budget => return Err(OpFail::RoundEraseBudget(sym)),
                    }
                }
                committed
            }
        };
        match self.engine.exec(interner, exec_sym, h) {
            // The anchor indexes an observed event, so it fits (`id32`
            // bounded the event count).
            ExecOutcome::Reduced { output, anchor, .. } => Ok((output, anchor as u32)),
            ExecOutcome::Stuck => Err(OpFail::Stuck),
            ExecOutcome::Budget => Err(OpFail::ExecBudget),
        }
    }

    /// A rejection, as the attribution quality allows: once some
    /// completion's attribution was ambiguous, a negative verdict is
    /// unreliable (another attribution might have succeeded), so it is
    /// downgraded to `Unknown`.
    fn fail(&self, cause: Cause) -> Verdict {
        if self.engine.ambiguous {
            Verdict::Unknown {
                cause: Cause::AfterAmbiguity(Box::new(cause)),
            }
        } else {
            Verdict::NotXable { cause }
        }
    }

    /// The verdict for events of `what` that must erase and do not:
    /// `Unknown` when the search ran out of `budget`, a rejection when it
    /// was exhausted.
    fn not_erasing(&self, what: Erasing, budget: bool) -> Verdict {
        let cause = Cause::NotErasing { what, budget };
        if budget {
            Verdict::Unknown { cause }
        } else {
            self.fail(cause)
        }
    }

    /// The declared request `op`, as a [`Request`].
    fn request(&self, agg: &Aggregate, interner: &Interner, op: usize) -> Request {
        let (action, input) = self.request_at(agg, interner, op);
        Request::new(action, input)
    }

    /// The verdict reporting the failing request `op`.
    fn op_fail_verdict(&self, agg: &Aggregate, interner: &Interner, op: usize) -> Verdict {
        let request = self.request(agg, interner, op);
        let OpState::Bad(fail) = agg.entries[op].state else {
            unreachable!("only failing requests are materialized")
        };
        match fail {
            OpFail::NeverExecuted => self.fail(Cause::NeverExecuted(request)),
            OpFail::PlainAndStamped => Verdict::Unknown {
                cause: Cause::PlainAndStamped(request),
            },
            OpFail::CommittedRounds(rounds) => {
                self.fail(Cause::CommittedRounds { request, rounds })
            }
            OpFail::RoundNotErasing(sym) | OpFail::RoundEraseBudget(sym) => {
                let stamp = interner.value(self.engine.key(sym).1);
                let (_, round) = stamp
                    .round_stamp()
                    .expect("a round's input is a round stamp");
                let budget = matches!(fail, OpFail::RoundEraseBudget(_));
                self.not_erasing(Erasing::CancelledRound { request, round }, budget)
            }
            OpFail::Stuck => self.fail(Cause::DoesNotReduce(request)),
            OpFail::ExecBudget => Verdict::Unknown {
                cause: Cause::ExecBudget(request),
            },
        }
    }

    /// Assembles one attempt from the aggregate: the first `executed`
    /// declared requests execute, and the groups of the declared requests
    /// in `erasable` erase instead. Checked in this order, the first
    /// failure reported: the declarations' validity, the executed requests
    /// (first failure in submission order), the erasable requests, the
    /// undeclared groups (first-seen first), the effect order.
    fn assemble<H: HistoryRead + ?Sized>(
        &self,
        agg: &Aggregate,
        interner: &Interner,
        h: &H,
        executed: usize,
        erasable: Range<usize>,
    ) -> Verdict {
        if let Some((_, action, input)) = agg.invalid.first() {
            let cause = if matches!(action, ActionId::Base(_)) {
                Cause::DuplicateRequest(Request::new(action.clone(), input.clone()))
            } else {
                Cause::NotBaseAction(action.clone())
            };
            return Verdict::Unknown { cause };
        }
        if let Some(&op) = agg.failing_ops.range(..executed).next() {
            return self.op_fail_verdict(agg, interner, op);
        }
        for op in erasable {
            let entry = &agg.entries[op];
            let plain = (entry.plain != NONE).then_some(entry.plain);
            for sym in plain.into_iter().chain(self.engine.siblings(entry.stamped)) {
                let budget = match self.engine.erases(interner, sym, h) {
                    EraseOutcome::Erases => continue,
                    EraseOutcome::Stuck => false,
                    EraseOutcome::Budget => true,
                };
                let what = Erasing::AbandonedRequest(self.request(agg, interner, op));
                return self.not_erasing(what, budget);
            }
        }
        if let Some((&sym, how)) = agg.undeclared_fail.iter().next() {
            let (ns, vs) = self.engine.key(sym);
            let key = Request::new(
                ActionId::base(interner.action(ns).clone()),
                interner.value(vs).clone(),
            );
            return self.not_erasing(
                Erasing::UndeclaredGroup(key),
                matches!(how, EraseFail::Budget),
            );
        }
        // The paper's multi-request criterion (reduction to the ordered
        // concatenation of failure-free histories) implicitly assumes the
        // system quiesces between requests: rules 18/20 always keep the
        // *latest* duplicate, so a harmless trailing duplicate (a slow
        // replica's deduplicated re-execution or help-commit landing after
        // the next request started) would make the ordered target
        // unreachable even though every effect happened exactly once and
        // in order. So the order checked is *effect* order: each request's
        // surviving effect anchor must follow submission order (DESIGN.md
        // §4.3).
        if executed > 1 && agg.order_bad.range(1..executed).next().is_some() {
            return self.fail(Cause::OutOfOrder);
        }
        // Every request below `executed` is `Ok` here (none is failing, and
        // `refresh` left none pending), so its entry of the outputs is current.
        let mut outputs = agg.outputs.clone();
        outputs.truncate(executed);
        Verdict::Xable {
            witness: Witness::from_outputs(outputs),
        }
    }

    /// `answer` read from the aggregate once it is up to date with the
    /// consumed prefix `h` holds — or the permanent rejection an orphan
    /// completion earned.
    fn with_refreshed<H: HistoryRead + ?Sized>(
        &self,
        interner: &Interner,
        h: &H,
        answer: impl FnOnce(&Aggregate) -> Verdict,
    ) -> Verdict {
        debug_assert_eq!(
            h.len(),
            self.consumed(),
            "a verdict's source must hold exactly the consumed prefix"
        );
        if let Some(cause) = &self.orphan {
            return Verdict::NotXable {
                cause: cause.clone(),
            };
        }
        self.obs.verdicts.inc();
        self.refresh(interner, h);
        answer(&self.agg.borrow())
    }

    /// The R3 verdict for the consumed prefix, read from `h` — the stream
    /// this decider has been observing, which must hold exactly the
    /// [`consumed`](Decider::consumed) events in order — and from
    /// `interner`, the one its symbols came from: x-able with respect to
    /// [`requests()`](Self::requests) `R₁…Rₙ`, or to `R₁…Rₙ₋₁` with `Rₙ`'s
    /// events erasing.
    ///
    /// Computed in O(groups touched since the last verdict); a cold
    /// decider fed the whole prefix answers exactly what
    /// `FastChecker::check_requests` does, because that is how
    /// `FastChecker` answers.
    pub fn verdict_over<H: HistoryRead + ?Sized>(&self, interner: &Interner, h: &H) -> Verdict {
        self.with_refreshed(interner, h, |agg| {
            combine_r3_attempts(agg.entries.len(), |executed, abandoned| {
                let erasable = abandoned.map_or(0..0, |last| last..last + 1);
                self.assemble(agg, interner, h, executed, erasable)
            })
        })
    }

    /// One explicit attempt over the consumed prefix held by `h`, with no
    /// R3 fallback: the first `executed` declared requests execute and the
    /// declared requests in `erasable` erase — `FastChecker::check`'s
    /// `(ops, erasable)` question, declared as `ops` then `erasable`.
    fn attempt_over<H: HistoryRead + ?Sized>(
        &self,
        interner: &Interner,
        h: &H,
        executed: usize,
        erasable: Range<usize>,
    ) -> Verdict {
        self.with_refreshed(interner, h, |agg| {
            self.assemble(agg, interner, h, executed, erasable)
        })
    }
}

/// The storage-free core of the online checker: a [`Decider`] and the
/// interner its symbols come from — everything the incremental verdict
/// needs *except* the events themselves.
///
/// An `IncrementalState` is a **cursor** over an event stream that lives
/// elsewhere: [`observe`](IncrementalState::observe) consumes the next
/// event (amortized O(1)) and advances the cursor, and
/// [`verdict_over`](IncrementalState::verdict_over) answers the R3
/// question against any [`HistoryRead`] holding the consumed prefix. The
/// self-contained [`IncrementalChecker`] wraps one of these around an
/// owned [`History`], and [`super::FastChecker`] builds a cold one per
/// question and [`catch_up`](IncrementalState::catch_up)s it with the
/// whole source. Where the events already sit interned — a service
/// ledger's trace store — a bare [`Decider`] reads the store's symbols
/// instead, and nothing is interned twice.
///
/// # Examples
///
/// ```
/// use xability_core::xable::IncrementalState;
/// use xability_core::{ActionId, ActionName, Event, History, Value};
///
/// let get = ActionId::base(ActionName::idempotent("get"));
/// let mut shared = History::empty(); // stand-in for a shared store
/// let mut monitor = IncrementalState::new();
/// monitor.declare(get.clone(), Value::from(1));
///
/// for event in [
///     Event::start(get.clone(), Value::from(1)),
///     Event::complete(get, Value::from(42)),
/// ] {
///     monitor.observe(&event); // O(1), no event copy retained
///     shared.push(event);
/// }
/// assert!(monitor.verdict_over(&shared).is_xable());
/// ```
#[derive(Debug, Default)]
pub struct IncrementalState {
    /// The symbols of the events consumed so far, and only theirs — the
    /// base names and the start inputs: declared keys and round bases are
    /// matched by content, as under a store's interner.
    interner: Interner,
    decider: Decider,
}

impl IncrementalState {
    /// An empty state. Every per-group search runs under the fast tier's
    /// one constant budget,
    /// [`SearchBudget::small`](crate::xable::SearchBudget::small).
    pub fn new() -> Self {
        IncrementalState::default()
    }

    /// Binds this checker's instruments (dirty-set size histograms,
    /// refresh/verdict counters, budget-escalation counters) to a shared
    /// metrics registry. Inert (noop handles) until called.
    pub fn attach_obs(&mut self, obs: &Obs) {
        self.decider.attach_obs(obs);
    }

    /// Appends an expected request to the declared R3 sequence (see
    /// [`Decider::declare`]).
    ///
    /// # Panics
    ///
    /// Panics past `u32::MAX - 1` declared requests (DESIGN.md §7).
    pub fn declare(&mut self, action: ActionId, input: Value) {
        self.decider.declare(&self.interner, action, input);
    }

    /// Appends an expected [`Request`] to the declared R3 sequence.
    pub fn declare_request(&mut self, request: &Request) {
        self.declare(request.action().clone(), request.input().clone());
    }

    /// Consumes the next event of the stream, in amortized O(1): one
    /// attribution step, one chain link, one dirty mark — a batch of one
    /// through [`observe_batch`](Self::observe_batch). The event itself is
    /// not retained — only its index joins the partition.
    ///
    /// # Panics
    ///
    /// Panics past `u32::MAX - 1` events (DESIGN.md §7).
    pub fn observe(&mut self, event: &Event) {
        self.observe_batch(slice::from_ref(event));
    }

    /// Consumes a slice of events — the state's one ingest path; how the
    /// slice is cut never changes a later verdict (pinned by the
    /// `observe_batch` proptests). Each event's name and start input are
    /// interned through one [`BatchMemo`] per slice (one hash probe per
    /// *distinct* name/input in the batch instead of one per event) and
    /// the symbols fed to the decider.
    ///
    /// # Panics
    ///
    /// Panics past `u32::MAX - 1` events (DESIGN.md §7).
    pub fn observe_batch(&mut self, events: &[Event]) {
        let mut memo = BatchMemo::default();
        for event in events {
            let symbols = EventSymbols::intern(&mut memo, &mut self.interner, event);
            self.decider.observe(&self.interner, symbols);
        }
    }

    /// Consumes the events of `h` past the cursor — `h` holds the
    /// consumed prefix and maybe more — through
    /// [`observe_batch`](Self::observe_batch), a chunk of 1 024 events at
    /// a time. How [`super::FastChecker`] reads a whole source into a
    /// cold state.
    ///
    /// # Panics
    ///
    /// Panics past `u32::MAX - 1` events (DESIGN.md §7).
    pub fn catch_up<H: HistoryRead + ?Sized>(&mut self, h: &H) {
        let unread = self.consumed()..h.len();
        let mut chunk = Vec::with_capacity(unread.len().min(CATCH_UP_CHUNK));
        for index in unread {
            chunk.push(h.event_at(index));
            if chunk.len() == CATCH_UP_CHUNK {
                self.observe_batch(&chunk);
                chunk.clear();
            }
        }
        self.observe_batch(&chunk);
    }

    /// The cursor position: how many events have been consumed.
    pub fn consumed(&self) -> usize {
        self.decider.consumed()
    }

    /// Returns `true` if no event has been consumed yet.
    pub fn is_empty(&self) -> bool {
        self.consumed() == 0
    }

    /// How many requests have been declared.
    pub fn declared_len(&self) -> usize {
        self.decider.declared_len()
    }

    /// The declared request sequence, in declaration order (see
    /// [`Decider::requests`]).
    pub fn requests(&self) -> impl Iterator<Item = (ActionId, Value)> + '_ {
        self.decider.requests(&self.interner)
    }

    /// Approximate heap bytes the state holds — the sum of
    /// [`approx_bytes_by_part`](Self::approx_bytes_by_part).
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes_by_part()
            .iter()
            .map(|(_, bytes)| bytes)
            .sum()
    }

    /// The state's heap bytes, part by part: the `engine interner` row —
    /// [`Interner::approx_bytes`], an upper bound, since it includes value
    /// payload shared with the event source — and then the decider's
    /// ([`Decider::approx_bytes_by_part`]).
    pub fn approx_bytes_by_part(&self) -> Vec<(&'static str, usize)> {
        let mut parts = vec![("engine interner", self.interner.approx_bytes())];
        parts.extend(self.decider.approx_bytes_by_part());
        parts
    }

    /// The R3 verdict for the consumed prefix, read from `h` — the stream
    /// this state has been observing, which must hold exactly the
    /// [`consumed`](IncrementalState::consumed) events in order (see
    /// [`Decider::verdict_over`]).
    pub fn verdict_over<H: HistoryRead + ?Sized>(&self, h: &H) -> Verdict {
        self.decider.verdict_over(&self.interner, h)
    }

    /// One explicit attempt over the consumed prefix held by `h`, with no
    /// R3 fallback (see [`Decider`]'s private `attempt_over`).
    pub(crate) fn attempt_over<H: HistoryRead + ?Sized>(
        &self,
        h: &H,
        executed: usize,
        erasable: Range<usize>,
    ) -> Verdict {
        self.decider
            .attempt_over(&self.interner, h, executed, erasable)
    }
}

/// An online R3 checker: push events as they are observed, declare
/// requests as they are submitted, ask for a verdict at any prefix.
///
/// Answers what [`super::FastChecker`]'s `check_requests` answers on the
/// full current prefix — `FastChecker` is this checker's state fed all at
/// once — but with the partition maintained across pushes, per-request
/// decisions cached, and the verdict assembled from a dirty-tracked
/// aggregate (O(dirty groups) per call).
///
/// This is the self-contained flavour: it owns its copy of the consumed
/// prefix. When the events already live in a shared store (the service
/// ledger's `TraceStore`), use the storage-free [`IncrementalState`]
/// directly and keep a single copy of the trace.
#[derive(Debug, Default)]
pub struct IncrementalChecker {
    state: IncrementalState,
    history: History,
}

impl IncrementalChecker {
    /// An empty checker.
    pub fn new() -> Self {
        IncrementalChecker::default()
    }

    /// Binds the underlying engine's instruments to a shared metrics
    /// registry (see [`IncrementalState::attach_obs`]).
    pub fn attach_obs(&mut self, obs: &xability_obs::Obs) {
        self.state.attach_obs(obs);
    }

    /// Appends an expected request to the declared R3 sequence.
    pub fn declare(&mut self, action: ActionId, input: Value) {
        self.state.declare(action, input);
    }

    /// Appends an expected [`Request`] to the declared R3 sequence.
    pub fn declare_request(&mut self, request: &Request) {
        self.state.declare_request(request);
    }

    /// Consumes one observed event, in amortized O(1): one attribution
    /// step, one group-cell append, one dirty mark.
    pub fn push(&mut self, event: Event) {
        self.state.observe(&event);
        self.history.push(event);
    }

    /// Consumes a sequence of observed events.
    pub fn push_all<I: IntoIterator<Item = Event>>(&mut self, events: I) {
        for event in events {
            self.push(event);
        }
    }

    /// The number of events consumed so far.
    pub fn len(&self) -> usize {
        self.history.len()
    }

    /// Returns `true` if no event has been consumed yet.
    pub fn is_empty(&self) -> bool {
        self.history.is_empty()
    }

    /// The prefix consumed so far.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// How many requests have been declared.
    pub fn declared_len(&self) -> usize {
        self.state.declared_len()
    }

    /// The declared request sequence, in declaration order (see
    /// [`IncrementalState::requests`]).
    pub fn requests(&self) -> impl Iterator<Item = (ActionId, Value)> + '_ {
        self.state.requests()
    }

    /// The R3 verdict for the current prefix and declared request
    /// sequence: x-able with respect to `R₁…Rₙ` or `R₁…Rₙ₋₁`.
    ///
    /// Equals `FastChecker::check_requests` on
    /// ([`history()`](Self::history), [`requests()`](Self::requests)),
    /// computed in O(groups touched since the last verdict).
    pub fn verdict(&self) -> Verdict {
        self.state.verdict_over(&self.history)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionName;
    use crate::xable::checker::{Checker, FastChecker};
    use crate::xable::fast::SHAPE_MAX_LEN;
    use crate::xable::outputs::OUTPUT_SEGMENT;
    use std::rc::Rc;

    fn idem(name: &str) -> ActionId {
        ActionId::base(ActionName::idempotent(name))
    }

    fn undo(name: &str) -> ActionId {
        ActionId::base(ActionName::undoable(name))
    }

    fn s(a: &ActionId, v: i64) -> Event {
        Event::start(a.clone(), Value::from(v))
    }

    fn c(a: &ActionId, v: i64) -> Event {
        Event::complete(a.clone(), Value::from(v))
    }

    fn cnil(a: &ActionId) -> Event {
        Event::complete(a.clone(), Value::Nil)
    }

    /// The cold verdict — a fresh state fed the checker's whole prefix at
    /// once — for warm-vs-cold agreement checks.
    fn batch(inc: &IncrementalChecker) -> Verdict {
        let requests: Vec<Request> = inc.requests().map(|(a, iv)| Request::new(a, iv)).collect();
        FastChecker.check_requests(inc.history(), &requests)
    }

    #[test]
    fn empty_checker_with_no_requests_is_xable() {
        let inc = IncrementalChecker::new();
        assert!(inc.is_empty());
        assert!(inc.verdict().is_xable());
    }

    #[test]
    fn verdict_evolves_across_a_retried_request() {
        let a = idem("a");
        let ops = [(a.clone(), Value::from(1))];
        let mut inc = IncrementalChecker::new();
        inc.declare(a.clone(), Value::from(1));
        let strict = |inc: &IncrementalChecker| FastChecker.check(inc.history(), &ops, &[]);
        // Strictly (no abandonment fallback), an unexecuted request is not
        // x-able; under R3 the last request may always be abandoned.
        assert!(!strict(&inc).is_xable());
        assert!(
            inc.verdict().is_xable(),
            "R3 allows an unsubmitted last request"
        );

        inc.push(s(&a, 1));
        assert!(!strict(&inc).is_xable(), "started, not completed");

        inc.push(s(&a, 1));
        inc.push(c(&a, 5));
        let v = inc.verdict();
        assert!(v.is_xable(), "{v}");
        assert_eq!(v.outputs(), Some(&vec![Value::from(5)].into()));

        // A duplicate completion with a *different* output breaks it for
        // good: the group can neither reduce nor erase.
        inc.push(s(&a, 1));
        inc.push(c(&a, 6));
        assert!(!inc.verdict().is_xable());
    }

    #[test]
    fn declared_sequence_supports_last_request_abandonment() {
        let a = idem("a");
        let u = undo("u");
        let cancel = u.cancel().unwrap();
        let mut inc = IncrementalChecker::new();
        inc.declare_request(&Request::new(a.clone(), Value::from(1)));
        inc.push(s(&a, 1));
        inc.push(c(&a, 5));
        assert!(inc.verdict().is_xable());

        // Second request starts, gets cancelled, never retried: the R3
        // fallback (last request abandoned) keeps the prefix x-able.
        inc.declare_request(&Request::new(u.clone(), Value::from(2)));
        inc.push(Event::start(u.clone(), Value::from(2)));
        inc.push(Event::start(cancel.clone(), Value::from(2)));
        inc.push(cnil(&cancel));
        let v = inc.verdict();
        assert!(v.is_xable(), "{v}");
        assert_eq!(v, batch(&inc));
    }

    #[test]
    fn orphan_completion_is_permanently_not_xable() {
        let a = idem("a");
        let mut inc = IncrementalChecker::new();
        inc.declare(a.clone(), Value::from(1));
        inc.push(c(&a, 5)); // completion with no start
        assert!(inc.verdict().is_not_xable());
        assert_eq!(inc.verdict(), batch(&inc));
        // Later legitimate events do not cure the axiom violation.
        inc.push(s(&a, 1));
        inc.push(c(&a, 5));
        assert!(inc.verdict().is_not_xable());
        assert_eq!(inc.verdict(), batch(&inc));
    }

    /// One step of a producer script: declare a request, or push an event.
    enum Step {
        Declare(ActionId, i64),
        Push(Event),
    }

    /// Replays `script` into a fresh checker with a verdict before each
    /// step `at` names (`script.len()` means after the last; a position
    /// may repeat), each equal to the cold verdict of its prefix.
    fn replay(script: &[Step], at: &[usize]) -> IncrementalChecker {
        let mut inc = IncrementalChecker::new();
        for k in 0..=script.len() {
            for _ in at.iter().filter(|&&a| a == k) {
                assert_eq!(inc.verdict(), batch(&inc), "verdicts at {at:?}, step {k}");
            }
            match script.get(k) {
                Some(Step::Declare(action, input)) => {
                    inc.declare(action.clone(), Value::from(*input));
                }
                Some(Step::Push(event)) => inc.push(event.clone()),
                None => {}
            }
        }
        assert_eq!(inc.verdict(), batch(&inc), "verdicts at {at:?}, end");
        inc
    }

    #[test]
    fn agrees_with_batch_at_every_prefix_of_a_protocol_trace() {
        let u = undo("xfer");
        let cancel = u.cancel().unwrap();
        let commit = u.commit().unwrap();
        let b = idem("get");
        // An undoable request with a cancelled round, then an idempotent
        // request, with a trailing deduplicated retry of the first.
        let retried = vec![
            Step::Declare(u.clone(), 1),
            Step::Declare(b.clone(), 2),
            Step::Push(s(&u, 1)),
            Step::Push(Event::start(cancel.clone(), Value::from(1))),
            Step::Push(cnil(&cancel)),
            Step::Push(s(&u, 1)),
            Step::Push(c(&u, 7)),
            Step::Push(Event::start(commit.clone(), Value::from(1))),
            Step::Push(cnil(&commit)),
            Step::Push(s(&b, 2)),
            Step::Push(c(&b, 9)),
            Step::Push(s(&b, 2)),
            Step::Push(c(&b, 9)), // trailing duplicate
        ];
        // An idempotent request runs; then an undoable one is declared and
        // its only round cancelled: as the last declared request it counts
        // as abandoned (R3).
        let abandoned = vec![
            Step::Declare(b.clone(), 2),
            Step::Push(s(&b, 2)),
            Step::Push(c(&b, 9)),
            Step::Declare(u.clone(), 1),
            Step::Push(s(&u, 1)),
            Step::Push(Event::start(cancel.clone(), Value::from(1))),
            Step::Push(cnil(&cancel)),
        ];
        for (script, placements) in [(retried, 560), (abandoned, 120)] {
            let n = script.len();
            let every: Vec<usize> = (1..=n).collect();
            assert!(replay(&script, &every).verdict().is_xable());
            // Three verdicts at each of the C(n + 3, 3) placements among
            // the steps: each drains the dirty sets at a different point,
            // and the steps after it must re-dirty exactly the right
            // entries.
            let mut placed = 0;
            for first in 0..=n {
                for second in first..=n {
                    for third in second..=n {
                        replay(&script, &[first, second, third]);
                        placed += 1;
                    }
                }
            }
            assert_eq!(placed, placements);
        }
    }

    #[test]
    fn round_stamped_rounds_agree_with_batch_even_when_declared_late() {
        // Round-stamped transactions land *before* their undoable request
        // is declared: the aggregate must adopt the existing rounds at
        // declaration time.
        let u = undo("xfer");
        let cancel = u.cancel().unwrap();
        let commit = u.commit().unwrap();
        let key = Value::from("r0");
        let iv1 = Value::pair(key.clone(), Value::from(1));
        let iv2 = Value::pair(key.clone(), Value::from(2));
        let events = vec![
            Event::start(u.clone(), iv1.clone()),
            Event::start(cancel.clone(), iv1.clone()),
            Event::complete(cancel.clone(), Value::Nil),
            Event::start(u.clone(), iv2.clone()),
            Event::complete(u.clone(), Value::from("ok")),
            Event::start(commit.clone(), iv2.clone()),
            Event::complete(commit.clone(), Value::Nil),
        ];
        let mut inc = IncrementalChecker::new();
        for (k, ev) in events.into_iter().enumerate() {
            if k == 4 {
                // Declare mid-stream, after both rounds already exist.
                inc.declare(u.clone(), key.clone());
            }
            inc.push(ev);
            assert_eq!(inc.verdict(), batch(&inc), "prefix {}", inc.len());
        }
        assert!(inc.verdict().is_xable());
    }

    #[test]
    fn storage_free_state_agrees_with_owned_checker() {
        // An IncrementalState observing the same stream as an owned
        // IncrementalChecker, with the events living in one shared
        // History, must produce identical verdicts at every prefix.
        let u = undo("xfer");
        let cancel = u.cancel().unwrap();
        let b = idem("get");
        let events = [
            s(&u, 1),
            Event::start(cancel.clone(), Value::from(1)),
            cnil(&cancel),
            s(&b, 2),
            c(&b, 9),
        ];
        let mut shared = History::empty();
        let mut state = IncrementalState::new();
        let mut owned = IncrementalChecker::new();
        for who in [&u, &b] {
            state.declare(who.clone(), Value::from(if *who == u { 1 } else { 2 }));
            owned.declare(who.clone(), Value::from(if *who == u { 1 } else { 2 }));
        }
        assert!(state.is_empty());
        for ev in events {
            state.observe(&ev);
            owned.push(ev.clone());
            shared.push(ev);
            assert_eq!(state.consumed(), shared.len());
            assert_eq!(state.verdict_over(&shared), owned.verdict());
            assert!(state.requests().eq(owned.requests()));
        }
        // The explicit question over the shared events: b executes and
        // u's cancelled round erases.
        let ops = [(b.clone(), Value::from(2))];
        let erasable = [(u.clone(), Value::from(1))];
        assert_eq!(
            FastChecker.check(&shared, &ops, &erasable),
            Verdict::xable(vec![Value::from(9)])
        );
    }

    #[test]
    fn memoization_is_invalidated_by_new_group_events() {
        let a = idem("a");
        let mut inc = IncrementalChecker::new();
        inc.declare(a.clone(), Value::from(1));
        inc.push_all([s(&a, 1), c(&a, 5)]);
        assert!(inc.verdict().is_xable()); // memoizes the group as reduced
        inc.push_all([s(&a, 1), c(&a, 6)]); // disagreeing retry
        assert!(inc.verdict().is_not_xable(), "stale memo would say x-able");
    }

    #[test]
    fn duplicate_and_non_base_declarations_are_sticky_unknown() {
        let a = idem("a");
        let mut inc = IncrementalChecker::new();
        inc.declare(a.clone(), Value::from(1));
        inc.declare(a.clone(), Value::from(1)); // duplicate identity
        inc.push_all([s(&a, 1), c(&a, 5)]);
        let v = inc.verdict();
        assert!(v.is_unknown(), "{v}");
        assert_eq!(v, batch(&inc));

        let mut inc = IncrementalChecker::new();
        let cancel = undo("u").cancel().unwrap();
        inc.declare(cancel, Value::from(1)); // not a base action
        let v = inc.verdict();
        assert!(v.is_unknown(), "{v}");
        assert_eq!(v, batch(&inc));
    }

    /// The outputs of a positive verdict, as a vector.
    fn outputs(v: &Verdict) -> Vec<Value> {
        v.outputs().expect("x-able").iter().cloned().collect()
    }

    #[test]
    fn consecutive_verdicts_share_their_full_output_segments() {
        // The flat-cost pin, by count: a verdict hands out the aggregate's
        // outputs, not a copy of them, so what two verdicts have in
        // common they hold once.
        let a = idem("a");
        let full = 3;
        let n = (full * OUTPUT_SEGMENT + 100) as i64;
        let mut inc = IncrementalChecker::new();
        let request = |inc: &mut IncrementalChecker, k: i64| {
            inc.declare(a.clone(), Value::from(k));
            inc.push_all([s(&a, k), c(&a, 10 * k)]);
        };
        (0..n).for_each(|k| request(&mut inc, k));
        let first = inc.verdict();
        request(&mut inc, n);
        let second = inc.verdict();
        assert_eq!(second, batch(&inc));
        let (one, two) = (first.outputs().unwrap(), second.outputs().unwrap());
        assert_eq!((one.len(), two.len()), (n as usize, n as usize + 1));
        let shared = |x: &Outputs, y: &Outputs| -> Vec<bool> {
            (x.segments().iter().zip(y.segments()))
                .map(|(p, q)| Rc::ptr_eq(p, q))
                .collect()
        };
        // The new request's output went into the open fourth segment,
        // which `first` aliased: that one was copied, the full ones not.
        assert_eq!(shared(one, two), [true, true, true, false]);
        assert_eq!(*one.get(n as usize - 1), Value::from(10 * (n - 1)));

        // Re-deciding an old request (a trailing duplicate completion)
        // copies its segment and no other.
        inc.push_all([s(&a, 5), c(&a, 50)]);
        let third = inc.verdict();
        assert_eq!(third, second);
        assert_eq!(
            shared(two, third.outputs().unwrap()),
            [false, true, true, true]
        );
    }

    #[test]
    fn a_redecided_request_shows_its_current_output_and_old_witnesses_keep_theirs() {
        let a = idem("a");
        let u = undo("xfer");
        let (cancel, commit) = (u.cancel().unwrap(), u.commit().unwrap());
        let key = Value::from("r0");
        let round = |k: i64| Value::pair(key.clone(), Value::from(k));
        let mut inc = IncrementalChecker::new();
        inc.declare(a.clone(), Value::from(1));
        inc.declare(u.clone(), key.clone());
        inc.push_all([s(&a, 1), c(&a, 5)]);
        // The undoable request is declared and not executed: R3 abandons
        // it, and the witness is exactly one output short.
        let unexecuted = inc.verdict();
        assert_eq!(outputs(&unexecuted), [Value::from(5)]);

        // Round 1 returns 7 and is cancelled: still abandoned.
        inc.push_all([
            Event::start(u.clone(), round(1)),
            c(&u, 7),
            Event::start(cancel.clone(), round(1)),
            cnil(&cancel),
        ]);
        let cancelled = inc.verdict();
        assert_eq!(cancelled, batch(&inc));
        assert_eq!(outputs(&cancelled), [Value::from(5)]);

        // The retry returns 8 and commits; then a trailing duplicate
        // completion re-decides the first request.
        inc.push_all([
            Event::start(u.clone(), round(2)),
            c(&u, 8),
            Event::start(commit.clone(), round(2)),
            cnil(&commit),
        ]);
        let committed = inc.verdict();
        assert_eq!(committed, batch(&inc));
        assert_eq!(outputs(&committed), [Value::from(5), Value::from(8)]);
        inc.push_all([s(&a, 1), c(&a, 5)]);
        let duplicated = inc.verdict();
        assert_eq!(duplicated, batch(&inc));
        assert_eq!(duplicated, committed);

        // Every earlier witness still reads what it read when it was made.
        assert_eq!(outputs(&unexecuted), [Value::from(5)]);
        assert_eq!(outputs(&cancelled), [Value::from(5)]);
        assert_eq!(outputs(&committed), [Value::from(5), Value::from(8)]);
    }

    #[test]
    fn a_request_that_is_not_ok_contributes_no_output() {
        let a = idem("a");
        let b = idem("b");
        let mut inc = IncrementalChecker::new();
        inc.declare(a.clone(), Value::from(1));
        inc.push_all([s(&a, 1), c(&a, 5)]);
        assert_eq!(outputs(&inc.verdict()), [Value::from(5)]);

        // An open retry: the request's slot still holds 5, the request is
        // not `Ok`, and no verdict reports the 5 — neither as the last
        // request (it cannot be abandoned: its effect happened) …
        inc.push(s(&a, 1));
        assert_eq!(inc.verdict(), batch(&inc));
        assert_eq!(inc.verdict().outputs(), None);
        // … nor behind a later one.
        inc.declare(b.clone(), Value::from(2));
        inc.push_all([s(&b, 2), c(&b, 9)]);
        assert_eq!(inc.verdict(), batch(&inc));
        assert_eq!(inc.verdict().outputs(), None);

        // The retry completes: both requests report, in order.
        inc.push(c(&a, 5));
        assert_eq!(inc.verdict(), batch(&inc));
        assert_eq!(outputs(&inc.verdict()), [Value::from(5), Value::from(9)]);

        // A declared, never-executed last request is abandoned, and its
        // never-written slot stays out of the witness.
        inc.declare(b.clone(), Value::from(3));
        assert_eq!(outputs(&inc.verdict()).len(), 2);
    }

    #[test]
    fn a_committed_round_redecided_later_reports_the_same_output() {
        // Cancelled round → verdict → committed round → verdict → a
        // trailing duplicate cancel of round 1 (dirties the request while
        // the committed round is unchanged: the re-decision asks the shape
        // memo again and re-reads the output from the history) → verdict →
        // an unrelated request's events → verdict. Every one equals the
        // batch checker's.
        let u = undo("xfer");
        let (cancel, commit) = (u.cancel().unwrap(), u.commit().unwrap());
        let b = idem("get");
        let key = Value::from("r0");
        let round = |k: i64| Value::pair(key.clone(), Value::from(k));
        let mut inc = IncrementalChecker::new();
        inc.declare(u.clone(), key.clone());
        let steps = [
            vec![
                Event::start(u.clone(), round(1)),
                Event::start(cancel.clone(), round(1)),
                cnil(&cancel),
            ],
            vec![
                Event::start(u.clone(), round(2)),
                Event::complete(u.clone(), Value::from("ok")),
                Event::start(commit.clone(), round(2)),
                cnil(&commit),
            ],
            vec![Event::start(cancel.clone(), round(1)), cnil(&cancel)],
            vec![s(&b, 2), c(&b, 9)],
        ];
        for (step, events) in steps.into_iter().enumerate() {
            if step == 3 {
                inc.declare(b.clone(), Value::from(2));
            }
            inc.push_all(events);
            assert_eq!(inc.verdict(), batch(&inc), "step {step}");
        }
        let v = inc.verdict();
        assert_eq!(outputs(&v), [Value::from("ok"), Value::from(9)]);
    }

    /// Replays `requests` requests cycling through the four shapes of
    /// xbench's `verify_online` trace (idempotent clean, idempotent
    /// retried, undoable committed, undoable cancelled then committed; a
    /// fresh key per request), a verdict every 32 requests and at the end
    /// — and, with `verdict_every_event`, one after every event too — and
    /// returns the monitor.
    fn replay_mixed(requests: usize, verdict_every_event: bool) -> IncrementalChecker {
        let put = idem("put");
        let xfer = undo("xfer");
        let (cancel, commit) = (xfer.cancel().unwrap(), xfer.commit().unwrap());
        let mut inc = IncrementalChecker::new();
        for i in 0..requests {
            let key = Value::from(format!("r{i}"));
            let round = |k: i64| Value::pair(key.clone(), Value::from(k));
            let output = Value::from(i as i64);
            let shape = i % 4;
            let mut events = Vec::new();
            if shape < 2 {
                inc.declare(put.clone(), key.clone());
                events.extend((0..=shape).map(|_| Event::start(put.clone(), key.clone())));
                events.push(Event::complete(put.clone(), output));
            } else {
                inc.declare(xfer.clone(), key.clone());
                let committed = if shape == 3 {
                    events.extend([
                        Event::start(xfer.clone(), round(1)),
                        Event::start(cancel.clone(), round(1)),
                        cnil(&cancel),
                    ]);
                    2
                } else {
                    1
                };
                events.extend([
                    Event::start(xfer.clone(), round(committed)),
                    Event::complete(xfer.clone(), output),
                    Event::start(commit.clone(), round(committed)),
                    cnil(&commit),
                ]);
            }
            for event in events {
                inc.push(event);
                if verdict_every_event {
                    let _ = inc.verdict();
                }
            }
            if i % 32 == 31 {
                assert!(inc.verdict().is_xable(), "after request {i}");
            }
        }
        assert!(inc.verdict().is_xable());
        inc
    }

    #[test]
    fn searches_run_once_per_shape_however_long_the_replay() {
        // The flat cost, pinned by count: ten times the requests, the
        // same handful of reduction searches — the three exec shapes (a
        // committed round looks the same in round 1 and in round 2) and
        // the cancelled round's erase.
        let searches = |requests, verdict_every_event| {
            let inc = replay_mixed(requests, verdict_every_event);
            inc.state.decider.engine.searches_run()
        };
        assert_eq!(searches(200, false), searches(2_000, false));
        assert_eq!(searches(2_000, false), 4);
        // A verdict after every event asks again about what has not
        // changed — the committed request's sibling rounds, the unfinished
        // last request as an erasable one — and about every prefix of
        // each group: more shapes, and still a fixed number of them.
        assert_eq!(searches(200, true), searches(2_000, true));
        assert_eq!(searches(2_000, true), 12);

        // A group longer than the memo's cap still decides — through the
        // search, every time: two such requests, two more searches.
        let a = idem("put");
        let mut inc = replay_mixed(8, false);
        for key in [100, 101] {
            inc.declare(a.clone(), Value::from(key));
            inc.push_all((0..SHAPE_MAX_LEN).map(|_| s(&a, key)));
            inc.push(c(&a, 5));
            assert_eq!(inc.verdict(), batch(&inc));
            assert!(inc.verdict().is_xable());
        }
        assert_eq!(inc.state.decider.engine.searches_run(), 4 + 2);
    }

    #[test]
    fn late_declaration_adopts_the_observed_rounds_in_order() {
        let u = undo("xfer");
        let (cancel, commit) = (u.cancel().unwrap(), u.commit().unwrap());
        let round = |key: &str, k: i64| Value::pair(Value::from(key), Value::from(k));
        let mut inc = IncrementalChecker::new();
        // Two requests' rounds interleaved, all before any declaration:
        // r0 cancels round 1 and commits round 2, r1 commits round 1.
        inc.push_all([
            Event::start(u.clone(), round("r0", 1)),
            Event::start(u.clone(), round("r1", 1)),
            Event::complete(u.clone(), Value::from("one")),
            Event::start(cancel.clone(), round("r0", 1)),
            cnil(&cancel),
            Event::start(commit.clone(), round("r1", 1)),
            cnil(&commit),
            Event::start(u.clone(), round("r0", 2)),
            Event::complete(u.clone(), Value::from("zero")),
            Event::start(commit.clone(), round("r0", 2)),
            cnil(&commit),
        ]);
        // Nothing is declared: the committed rounds cannot erase.
        let v = inc.verdict();
        assert!(!v.is_xable());
        assert_eq!(v, batch(&inc));
        assert_eq!(
            inc.state
                .decider
                .agg
                .borrow()
                .undeclared_fail
                .keys()
                .copied()
                .collect::<Vec<_>>(),
            [1, 2],
            "both committed rounds fail as undeclared groups"
        );

        inc.declare(u.clone(), Value::from("r0"));
        {
            let agg = inc.state.decider.agg.borrow();
            let entry = &agg.entries[0];
            assert_eq!((entry.plain, entry.stamped, entry.committed), (NONE, 0, 1));
            let rounds: Vec<_> = inc.state.decider.engine.siblings(entry.stamped).collect();
            assert_eq!(rounds, [0, 2], "first-seen order, the other parent skipped");
            assert_eq!(agg.watchers[2].stamped_op, 0);
            assert_eq!(
                agg.undeclared_fail.keys().copied().collect::<Vec<_>>(),
                [1],
                "the adopted rounds left; r1's, never declared, stays"
            );
        }
        let v = inc.verdict();
        assert_eq!(v, batch(&inc));
        // Two rounds were open when `one` completed: every rejection is
        // downgraded to an ambiguous one.
        let ambiguous = |cause| Some(Cause::AfterAmbiguity(Box::new(cause)));
        let r1_round = Request::new(u.clone(), round("r1", 1));
        let undeclared = Cause::NotErasing {
            what: Erasing::UndeclaredGroup(r1_round),
            budget: false,
        };
        assert_eq!(v.cause().cloned(), ambiguous(undeclared), "{v}");

        inc.declare(u.clone(), Value::from("r1"));
        let v = inc.verdict();
        assert_eq!(v, batch(&inc));
        // Declared in the order their effects occurred? No: r1 committed
        // first. Declared the other way round the prefix is x-able.
        assert_eq!(v.cause().cloned(), ambiguous(Cause::OutOfOrder), "{v}");
        assert!(inc.state.decider.agg.borrow().undeclared_fail.is_empty());
    }

    #[test]
    fn requests_round_trip_base_non_base_and_duplicate_declarations() {
        let a = idem("a");
        let u = undo("u");
        let cancel = u.cancel().unwrap();
        let declared = [
            (a.clone(), Value::from(1)),
            (cancel.clone(), Value::from(1)), // not a base action
            (u.clone(), Value::pair(Value::from("k"), Value::from(2))),
            (a.clone(), Value::from(1)),       // duplicate identity
            (u.commit().unwrap(), Value::Nil), // not a base action
            (ActionId::base(ActionName::undoable("a")), Value::from(1)), // kind differs
        ];
        let mut state = IncrementalState::new();
        assert_eq!(state.declared_len(), 0);
        assert_eq!(state.requests().count(), 0);
        for (k, (action, input)) in declared.iter().enumerate() {
            state.declare(action.clone(), input.clone());
            assert_eq!(state.declared_len(), k + 1);
            assert!(state.requests().eq(declared[..=k].iter().cloned()));
        }
        // The first invalid declaration is the sticky cause.
        let v = state.verdict_over(&History::empty());
        assert_eq!(v.cause(), Some(&Cause::NotBaseAction(cancel)));
        assert_eq!(size_of::<Watchers>(), 8);
        assert!(size_of::<OpEntry>() <= 24);
    }

    #[test]
    fn clean_groups_are_not_redecided() {
        // Whitebox-ish: after a verdict, the dirty sets are empty; a new
        // event dirties exactly one request.
        let a = idem("a");
        let b = idem("b");
        let mut inc = IncrementalChecker::new();
        inc.declare(a.clone(), Value::from(1));
        inc.declare(b.clone(), Value::from(2));
        inc.push_all([s(&a, 1), c(&a, 5)]);
        let _ = inc.verdict();
        assert!(inc.state.decider.agg.borrow().dirty_ops.is_empty());
        assert!(inc.state.decider.agg.borrow().dirty_undeclared.is_empty());
        inc.push(s(&b, 2));
        assert_eq!(
            inc.state
                .decider
                .agg
                .borrow()
                .dirty_ops
                .iter()
                .copied()
                .collect::<Vec<_>>(),
            vec![1],
            "only request b is dirty"
        );
        inc.push(c(&b, 6));
        assert!(inc.verdict().is_xable());
        assert_eq!(inc.verdict(), batch(&inc));
    }
}
