//! The partition and per-group engine behind the polynomial x-ability
//! checker for protocol-shaped histories.
//!
//! The exhaustive checker ([`super::search`]) explores the whole reduction
//! closure and is exponential in the worst case. Replication protocols,
//! however, produce histories with a lot of structure: every event belongs
//! to the processing of one request, and requests are submitted one after
//! another (§4 considers a single client that submits `Rᵢ₊₁` only after `Rᵢ`
//! succeeds). The checker exploits that structure in three steps; this
//! module does the first two, and the aggregate in [`super::incremental`]
//! assembles them and does the third:
//!
//! 1. **Grouping.** Events are partitioned by `(base action, input)` —
//!    cancellations and commits join the group of their base action. All the
//!    side conditions of reduction rules (18)–(20) relate events of a single
//!    group, so reduction steps never cross groups (only the interleaving
//!    moves).
//! 2. **Per-group decision.** Each group's sub-history is decided by a
//!    (small, bounded) exhaustive search: request groups must reduce to a
//!    failure-free `eventsof` history; groups listed as *erasable* must
//!    reduce to `Λ`. The search runs once per group *shape*, not once per
//!    group (below).
//! 3. **Ordering.** Request effects must occur in submission order: each
//!    group's first surviving completion must precede the next group's.
//!    For histories whose groups occupy disjoint index ranges this is
//!    equivalent to reducibility to the ordered concatenation of
//!    failure-free histories (reduction is congruent with respect to
//!    concatenation of group blocks, and compaction moves interleaved
//!    events before surviving pairs). For histories with *trailing
//!    duplicates* — deduplicated re-executions or help-commits landing
//!    after a later request began — the strict ordered-concatenation
//!    target is unreachable by construction (rules 18/20 keep the latest
//!    duplicate), so the checker deliberately applies this per-request,
//!    effect-ordered reading; see DESIGN.md §4.3.
//!
//! The engine is **symbol-keyed**: it reads each event as the dense `u32`
//! symbols an [`Interner`] gave its action name and input, a group is the
//! symbol pair `(name, input)`, and the per-group state lives in dense
//! columns indexed by a dense group symbol. The per-event hot path is
//! therefore an index probe and two `u32` writes — no per-event
//! `ActionName` or `Value` clone, no ordered-map walk. The engine owns no
//! interner: every call that resolves a symbol borrows the one the symbols
//! came from — a ledger's trace store, or an
//! [`IncrementalState`](super::IncrementalState)'s own — and never writes
//! into it.
//!
//! **What a group and an event cost.** Every column holds `u32`s, with
//! `NONE` (`u32::MAX`) for "absent", so the engine indexes at most
//! `u32::MAX - 1` events, groups and round parents and panics, saying so,
//! past that (DESIGN.md §7 states the limit once):
//!
//! * an **event** costs 4 bytes: its entry of the engine-wide `prev`
//!   column, the index of the previous event *of its group*. A group's
//!   events are that chain, walked back from the cell's `last` for `len`
//!   hops; the ascending index list exists only while a search runs
//!   (`Engine::indices_of`). The engine numbers events itself — an event's
//!   index is the count observed before it, orphan completions included
//!   (they take an index and link to nothing) — so the chain invariant
//!   `prev[i] < i`, `prev[first] = NONE` holds without trusting a caller.
//! * a **group** costs at most 28 bytes of columns and its share of the key
//!   index (5 bytes a slot, 5.7–11.4 per group at the index's load): a
//!   12-byte `GroupCell` (chain tail and length, the commit bit), its
//!   8-byte key, and two 4-byte links of the round chain — the `parents`
//!   entry a round-stamped group belongs to, and the next-seen round of the
//!   same parent. The rounds of one undoable request are that chain,
//!   appended at the parent's tail as groups are created, so it is in
//!   group-symbol order and no `Vec` per request is ever built. A parent
//!   (16 bytes) has no symbol for its base input — no event need carry the
//!   bare base — so it is found by content: the base's hash, kept beside
//!   it, and then the round stamp of its head round's input. A cell
//!   keeps no outcome: request-aligned verdicts decide each group about
//!   once, and the shape memo (below) answers a repeated question without
//!   a search.
//! * every **lookup** — group by key, round parent by key — is the
//!   crate's one open-addressed index type, `index::SymbolIndex`: 5 bytes
//!   a slot, no stored key, probed against the column that holds the keys.
//!
//! **The shape memo.** A protocol run produces hundreds of thousands of
//! groups and a handful of *shapes*. The shape of a group (of at most
//! `SHAPE_MAX_LEN` events, all carrying the group's base name) is the
//! question asked (exec or erase), the kind of the name, whether the key's
//! input is `Nil`, and per event its start/completion bit, its role and
//! the *class* of its value — 0 for `Nil`, every other value numbered by
//! first occurrence, the key's input first
//! ([`HistoryRead::shape_codes`]). Every per-group search runs under one
//! constant budget, [`SearchBudget::small`] — no caller ever wanted
//! another — so the budget is not part of the shape, and a key is 16
//! bytes. The outcome of the per-group search is a function of the shape:
//!
//! * `reduce::reduction_steps` reads events only through event equality,
//!   the action's role, the name's kind and `Value::is_nil`, and lists its
//!   steps in an order fixed by event *positions*;
//! * `failure_free_output` and `History::is_empty` — the two goals — read
//!   them through equality with `(Base(name), input)` and `Nil` alone;
//! * `search_reduction`'s breadth-first order, its visited set and both
//!   budget counters depend on those steps and on history equality only;
//! * so two groups of one shape — which differ by an injective,
//!   `Nil`-fixing renaming of the name and the values — are searched in
//!   lock-step: same outcome, same budget verdict, and a witness that is
//!   the other's, renamed, *position for position*;
//! * and the anchor and the output's index are computed from positions,
//!   roles and the witness's output, so they too are the shape's.
//!
//! So the engine keeps one bounded shape → outcome memo (`ShapeMemo`),
//! the outcome stored as *positions* within the group; every per-group
//! question asks it first, and a hit maps the positions through the group's
//! chain and re-reads the agreed output from the history — the value of a
//! base completion of the group itself, which exists because rules 18–20
//! only delete events. No event of the group is decoded, nothing is
//! allocated. The search stays the only decision procedure: a miss runs
//! it, debug builds run it beside every hit and compare, and the
//! exhaustive and metamorphic tests below pin hit ≡ search in release
//! builds too. The two caps are constants, not options: `SHAPE_MAX_LEN`
//! (12) covers every group a protocol run produces — a longer group (a
//! request retried a dozen times) just searches, as every group did
//! before; `SHAPE_MAX_ENTRIES` (1 024) is never reached by a protocol run
//! (dozens of shapes) and only bounds what a hostile trace can make an
//! engine hold. No workload wants either at another value.
//!
//! **One client.** The engine sits under [`super::Decider`] alone: the
//! decider feeds it one event's symbols at a time (`Engine::observe`, the
//! one ingest path) and asks it for the per-group outcomes of the groups
//! that changed since the last verdict.
//! The per-request case analysis, the abandoned-request
//! erasure and the effect-order check are the state's, written once.
//! [`super::FastChecker`] is that state fed a whole source at once, so a
//! batch verdict and an online one are one computation, not two that are
//! kept equal.
//!
//! Soundness is argued in the doc comments above each step and validated by
//! property tests that compare this checker against the exhaustive one on
//! randomly generated histories (`tests/checker_agreement.rs`,
//! `tests/incremental_props.rs`).

use std::cell::RefCell;
use std::mem::size_of;

use crate::action::{ActionId, ActionKind, ActionName};
use crate::event::Event;
use crate::failure_free::failure_free_output;
use crate::history::{History, HistoryRead};
use crate::index::{hash_of, short_hash, SymbolIndex};
use crate::intern::Interner;
use crate::seglog::AppendLog;
use crate::value::Value;
use crate::xable::checker::Cause;
use crate::xable::incremental::EventSymbols;
use crate::xable::search::{search_reduction, SearchBudget, SearchResult};

/// Dense index of a `(base action, input)` group in an [`Engine`].
pub(crate) type GroupSym = u32;

/// Interned group key: `(action-name symbol, input-value symbol)`.
pub(crate) type KeySyms = (u32, u32);

/// "No such index" in every `u32` column of the monitor (event, group,
/// request and round-parent ids): the columns hold a `u32` with this
/// sentinel where an `Option<usize>` would cost four times as much.
pub(crate) const NONE: u32 = u32::MAX;

/// `n` as a `u32` id below the [`NONE`] sentinel.
///
/// # Panics
///
/// Panics past `u32::MAX - 1` (DESIGN.md §7 states the limit once).
pub(crate) fn id32(n: usize, what: &str) -> u32 {
    match u32::try_from(n) {
        Ok(id) if id != NONE => id,
        _ => panic!("more than u32::MAX - 1 {what} in one checker engine"),
    }
}

/// Outcome of the per-group "reduces to a failure-free execution" search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ExecOutcome {
    /// The group reduces to `eventsof(a, iv, output)`; `anchor` is the
    /// index (into the full history) of the group's surviving base
    /// completion — the moment its side-effect became observable.
    Reduced {
        /// Agreed output of the surviving execution.
        output: Value,
        /// History index of the group's effect anchor.
        anchor: usize,
    },
    /// The whole reachable closure was explored; the group does not reduce.
    Stuck,
    /// The per-group search budget ran out.
    Budget,
}

/// The budget of every per-group search: [`SearchBudget::small`], as a
/// constant. Not an option and not part of a shape key — no caller ever
/// asked for another.
const GROUP_BUDGET: SearchBudget = SearchBudget::SMALL;

/// Outcome of the per-group "reduces to `Λ`" search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EraseOutcome {
    /// The group's events reduce to nothing.
    Erases,
    /// The group's events definitely do not erase.
    Stuck,
    /// The per-group search budget ran out.
    Budget,
}

/// Longest group the shape memo keys; a longer group is searched every
/// time it is asked about. 12 covers every protocol-shaped group — a start,
/// a handful of retries and their completions; a cancelled or a committed
/// round — and makes a key's event codes 12 bytes. A constant, not an
/// option: no workload wants another value.
pub(crate) const SHAPE_MAX_LEN: usize = 12;

/// Most shapes one memo remembers; past it a new shape is searched and not
/// kept. A protocol run produces a few dozen shapes (a few KiB), so the cap
/// only bounds what an adversarial trace can make an engine hold (≈ 66 KiB).
const SHAPE_MAX_ENTRIES: usize = 1024;

/// Which per-group question a search answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum SearchKind {
    /// Does the group reduce to a failure-free execution of its key?
    Exec,
    /// Does the group reduce to `Λ`?
    Erase,
}

/// Everything a per-group search can observe of a group of at most
/// [`SHAPE_MAX_LEN`] events that all carry one base name (module docs,
/// "the shape memo"): the question, the kind of the name, whether the
/// target input is `Nil`, and the per-event codes of
/// [`HistoryRead::shape_codes`] — 16 bytes. Every search runs under
/// [`GROUP_BUDGET`], so the budget is no part of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ShapeKey {
    /// Zero past `len`.
    codes: [u8; SHAPE_MAX_LEN],
    len: u8,
    question: SearchKind,
    name_kind: ActionKind,
    target_is_nil: bool,
}

/// What a per-group search found, in *positions* of the searched
/// sub-history — so one memo entry answers every group of the shape,
/// wherever its events sit in the full history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShapeOutcome {
    /// The exec question's yes: where the effect anchors, and a base
    /// completion whose value is the agreed output.
    Reduced { anchor: usize, output_at: usize },
    /// The erase question's yes.
    Erases,
    /// The whole reachable closure was explored without reaching the goal.
    Stuck,
    /// The search budget ran out.
    Budget,
}

/// The shape → outcome memo: each distinct group shape is searched once
/// per memo. An [`Engine`] owns one (so there is one per ledger monitor
/// and per batch check); it is bounded by [`SHAPE_MAX_LEN`] and
/// [`SHAPE_MAX_ENTRIES`], past which [`ShapeMemo::answer`] just searches.
#[derive(Debug, Default)]
struct ShapeMemo {
    entries: Vec<(ShapeKey, ShapeOutcome)>,
    /// Shape → entry of `entries`, probed against it.
    index: SymbolIndex,
    /// How many reduction searches this memo ran (misses, and groups it
    /// cannot key) — what the flat-cost test counts.
    searches: usize,
}

impl ShapeMemo {
    /// The key of the group at `indices`, or `None` where the memo does
    /// not apply: the group is longer than [`SHAPE_MAX_LEN`], or some
    /// event carries another name than `name`.
    fn key_of<H: HistoryRead + ?Sized>(
        h: &H,
        indices: &[usize],
        question: SearchKind,
        name: &ActionName,
        target: &Value,
    ) -> Option<ShapeKey> {
        if indices.len() > SHAPE_MAX_LEN {
            return None;
        }
        let mut codes = [0u8; SHAPE_MAX_LEN];
        h.shape_codes(indices, name, target, &mut codes[..indices.len()])
            .then_some(ShapeKey {
                codes,
                len: indices.len() as u8,
                question,
                name_kind: name.kind(),
                target_is_nil: target.is_nil(),
            })
    }

    fn get(&self, key: &ShapeKey) -> Option<ShapeOutcome> {
        let entries = &self.entries;
        self.index
            .find(hash_of(key), |at| entries[at as usize].0 == *key)
            .map(|at| entries[at as usize].1)
    }

    /// Remembers the outcome of a shape [`get`](Self::get) just missed,
    /// unless the memo is full.
    fn put(&mut self, key: ShapeKey, outcome: ShapeOutcome) {
        if self.entries.len() >= SHAPE_MAX_ENTRIES {
            return;
        }
        let at = self.entries.len() as u32;
        self.entries.push((key, outcome));
        let entries = &self.entries;
        self.index.insert(hash_of(&key), at, |filed| {
            Some(hash_of(&entries[filed as usize].0))
        });
    }

    /// Answers `question` for the group at `indices` (ascending) of `h`,
    /// whose events carry the base name `name`: from the memo when the
    /// group's shape was searched before — no event is decoded then — and
    /// by [`search_group`] under [`GROUP_BUDGET`] otherwise. Debug builds
    /// run the search beside every hit and compare.
    fn answer<H: HistoryRead + ?Sized>(
        &mut self,
        h: &H,
        indices: &[usize],
        question: SearchKind,
        name: &ActionName,
        target: &Value,
    ) -> ShapeOutcome {
        let search = || search_group(&h.gather(indices), question, name, target);
        let key = Self::key_of(h, indices, question, name, target);
        if let Some(hit) = key.as_ref().and_then(|key| self.get(key)) {
            debug_assert_eq!(hit, search(), "shape memo diverged from the search");
            return hit;
        }
        self.searches += 1;
        let found = search();
        if let Some(key) = key {
            self.put(key, found);
        }
        found
    }

    fn heap_bytes(&self) -> usize {
        self.entries.capacity() * size_of::<(ShapeKey, ShapeOutcome)>() + self.index.heap_bytes()
    }
}

/// The per-group reduction search itself, uncached — the oracle every memo
/// answer is pinned to. `sub` holds one group's events in order; positions
/// in the outcome are into `sub`. `target` is the group key's input for
/// the exec question and unused by the erase question. It runs under
/// [`GROUP_BUDGET`].
fn search_group(
    sub: &History,
    question: SearchKind,
    name: &ActionName,
    target: &Value,
) -> ShapeOutcome {
    match question {
        SearchKind::Exec => search_exec(sub, name, target),
        SearchKind::Erase => match search_reduction(sub, History::is_empty, 0, GROUP_BUDGET) {
            SearchResult::Reached(_) => ShapeOutcome::Erases,
            SearchResult::Exhausted => ShapeOutcome::Stuck,
            SearchResult::BudgetExceeded => ShapeOutcome::Budget,
        },
    }
}

/// Does `sub` reduce to a failure-free execution of `(Base(name), input)`,
/// and if so where — as positions of `sub` — does the effect anchor and
/// which completion carries the agreed output?
fn search_exec(sub: &History, name: &ActionName, input: &Value) -> ShapeOutcome {
    let action = ActionId::base(name.clone());
    let min_len = if name.is_undoable() { 4 } else { 2 };
    let goal = |cand: &History| failure_free_output(&action, input, cand).is_some();
    let output = match search_reduction(sub, goal, min_len, GROUP_BUDGET) {
        SearchResult::Reached(witness) => failure_free_output(&action, input, &witness)
            .expect("goal predicate guarantees failure-free shape"),
        SearchResult::Exhausted => return ShapeOutcome::Stuck,
        SearchResult::BudgetExceeded => return ShapeOutcome::Budget,
    };
    // The request's *effect anchor*: the completion of the *surviving*
    // execution. For an undoable request, rule 19 only ever erases the
    // group's first remaining start (its side condition demands
    // `(aᵘ, iv) ∉ h₁`), so cancelled attempts are erased strictly
    // left-to-right and the execution that survives into the failure-free
    // target is the *last* attempt: the anchor is the first base
    // completion at or after the group's last base start. A
    // cancelled-then-retried request therefore anchors at the retry's
    // completion, not the undone original's. For an idempotent request
    // (no cancellations) every completion is the same effect and the
    // first one is when it became observable; later ones are
    // deduplicated copies.
    let is_base_completion =
        |pos: &usize| matches!(sub[*pos], Event::Complete(ActionId::Base(_), _));
    let surviving_from = if name.is_undoable() {
        (0..sub.len())
            .rev()
            .find(|&pos| matches!(sub[pos], Event::Start(ActionId::Base(_), _)))
            .unwrap_or(0)
    } else {
        0
    };
    let anchor = (surviving_from..sub.len())
        .find(is_base_completion)
        .or_else(|| (0..sub.len()).find(is_base_completion))
        .unwrap_or(0);
    let output_at = sub
        .iter()
        .position(|ev| matches!(ev, Event::Complete(a, ov) if *a == action && *ov == output))
        .expect("reduction only deletes events: the target's completion is the group's");
    ShapeOutcome::Reduced { anchor, output_at }
}

/// A [`ShapeOutcome`] of the exec question as the [`ExecOutcome`] of the
/// group at `indices`: positions become history indices, and the agreed
/// output is re-read from `h`.
fn exec_outcome<H: HistoryRead + ?Sized>(
    h: &H,
    indices: &[usize],
    found: ShapeOutcome,
) -> ExecOutcome {
    match found {
        ShapeOutcome::Reduced { anchor, output_at } => ExecOutcome::Reduced {
            output: h.event_at(indices[output_at]).value().clone(),
            anchor: indices[anchor],
        },
        ShapeOutcome::Stuck => ExecOutcome::Stuck,
        ShapeOutcome::Budget => ExecOutcome::Budget,
        ShapeOutcome::Erases => unreachable!("an exec search never answers `Erases`"),
    }
}

fn erase_outcome(found: ShapeOutcome) -> EraseOutcome {
    match found {
        ShapeOutcome::Erases => EraseOutcome::Erases,
        ShapeOutcome::Stuck => EraseOutcome::Stuck,
        ShapeOutcome::Budget => EraseOutcome::Budget,
        ShapeOutcome::Reduced { .. } => unreachable!("an erase search never answers `Reduced`"),
    }
}

/// The per-group "reduces to a failure-free execution of `(name, input)`"
/// decision of the group at `indices` (ascending; every event carries the
/// base name `name`) — a pure function of the group's sub-history, what
/// [`Engine::exec`] answers. The search runs once per shape and `memo`.
fn run_exec_search<H: HistoryRead + ?Sized>(
    memo: &mut ShapeMemo,
    h: &H,
    indices: &[usize],
    name: &ActionName,
    input: &Value,
) -> ExecOutcome {
    let found = memo.answer(h, indices, SearchKind::Exec, name, input);
    exec_outcome(h, indices, found)
}

/// The per-group "reduces to `Λ`" decision — like [`run_exec_search`], what
/// [`Engine::erases`] answers.
fn run_erase_search<H: HistoryRead + ?Sized>(
    memo: &mut ShapeMemo,
    h: &H,
    indices: &[usize],
    name: &ActionName,
) -> EraseOutcome {
    erase_outcome(memo.answer(h, indices, SearchKind::Erase, name, &Value::Nil))
}

/// One `(base action, input)` group: the tail of its event chain and the
/// commit bit — 12 bytes, no heap.
///
/// The group's events are a chain through the engine-wide
/// [`Engine::prev`] column: `last` is the history index of the group's
/// newest event, `prev[last]` the one before it, and so on for `len` hops.
/// The ascending index list a search needs is materialised only when a
/// search runs ([`Engine::indices_of`]).
#[derive(Debug)]
struct GroupCell {
    /// History index of the group's newest event.
    last: u32,
    /// How many events the group holds (the chain's length).
    len: u32,
    /// Whether the group contains a completed commit (which never erases).
    has_commit_completion: bool,
}

impl Default for GroupCell {
    fn default() -> Self {
        GroupCell {
            last: NONE,
            len: 0,
            has_commit_completion: false,
        }
    }
}

/// The open starts of one `(action, role)`: a stack of input-value
/// symbols, with the number of adjacent entries that differ kept beside it.
/// Two or more distinct inputs are open exactly when that count is above
/// zero, so a completion's ambiguity test is O(1) and costs no memory that
/// scales with the value symbols (the streaming checker asks it on every
/// completion, and retried requests leak one abandoned open start each).
#[derive(Debug, Default)]
struct OpenStarts {
    stack: Vec<u32>,
    /// Adjacent `stack` entries that differ.
    changes: usize,
}

impl OpenStarts {
    fn push(&mut self, input: u32) {
        if self.stack.last().is_some_and(|&top| top != input) {
            self.changes += 1;
        }
        self.stack.push(input);
    }

    fn pop(&mut self) -> Option<u32> {
        let input = self.stack.pop()?;
        if self.stack.last().is_some_and(|&top| top != input) {
            self.changes -= 1;
        }
        Some(input)
    }

    /// Whether two or more distinct inputs are open.
    fn ambiguous(&self) -> bool {
        self.changes > 0
    }
}

/// Streaming attribution state: which starts of each action are still open,
/// and the input of each action's most recent start — all symbol-keyed
/// (`(name symbol, role)` for actions, value symbols for inputs), so one
/// attribution step clones nothing.
///
/// A completion event does not carry the input value. We attribute each
/// completion to the *nearest open start* of its action (the most recent
/// start whose execution has not completed yet). For histories recorded by
/// an atomic observer — such as the service ledger, where a completion
/// immediately follows its start — this attribution is exact. When several
/// distinct inputs are open at a completion the choice is heuristic; the
/// caller remembers the ambiguity and later downgrades a `NotXable` verdict
/// to `Unknown` (a different attribution might have succeeded), while an
/// `Xable` verdict remains sound (it exhibits a concrete witness).
#[derive(Debug, Default)]
struct AttributionState {
    /// Indexed by `name symbol * 3 + role`: action symbols are dense and
    /// the alphabet is small, so the attribution step is an array index —
    /// no hash probe on the per-event path.
    open: Vec<OpenStarts>,
    /// Same indexing; the input symbol of the slot's most recent start.
    last_start_input: Vec<Option<u32>>,
}

impl AttributionState {
    /// The dense slot of `(name symbol, role)`, growing the tables on
    /// first sight of a new action symbol.
    fn slot(&mut self, ns: u32, role: u8) -> usize {
        let slot = ns as usize * 3 + role as usize;
        if slot >= self.open.len() {
            self.open.resize_with(slot + 1, OpenStarts::default);
            self.last_start_input.resize(slot + 1, None);
        }
        slot
    }
}

/// What [`Engine::observe`] did with one event — the hooks the decider's
/// dirty tracking needs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Observed {
    /// The group the event was attributed to.
    pub(crate) group: GroupSym,
    /// The first-seen round of the group's round-stamped parent — the
    /// group itself when this event created the parent — or [`NONE`] for a
    /// group without the stamped shape.
    pub(crate) round_head: GroupSym,
    /// Whether this event created the group.
    pub(crate) created: bool,
    /// Whether this event flipped the group's `has_commit_completion`.
    pub(crate) commit_completed: bool,
}

/// The parent of a run of round-stamped groups (§5.4): the name the
/// rounds' undoable request would be declared under, and the ends of
/// their sibling chain. The parent's base input has no symbol — no event
/// need carry the bare base — so a parent is known by content: its base
/// is the round stamp's first half in its head round's input, and its
/// hash is kept beside it.
#[derive(Debug, Clone, Copy)]
struct RoundParent {
    /// The name symbol — undoable by construction.
    name: u32,
    /// The base input's [`short_hash`].
    base_hash: u32,
    /// First-seen round; the chain continues through `Engine::sibling_next`.
    head: GroupSym,
    /// Last-seen round, where the next one is linked.
    tail: GroupSym,
}

/// Entries per segment of [`Engine::prev`].
const PREV_SEGMENT: usize = 1024;

/// [`ActionId::role`]'s code for a commit.
const ROLE_COMMIT: u8 = 2;

/// The base input of the round-stamped group `round`, whose key `keys`
/// holds: the first half of its input's stamp.
fn round_base<'i>(interner: &'i Interner, keys: &[KeySyms], round: GroupSym) -> &'i Value {
    let (base, _) = (interner.value(keys[round as usize].1).round_stamp())
        .expect("a round's input is a round stamp");
    base
}

/// The symbol-keyed partition/attribution engine under every
/// [`super::Decider`] — and so under every fast verdict, online or batch:
/// the dense group table, the per-event chain column and the streaming
/// attribution state, over symbols an interner it does not own assigned.
///
/// What it costs: 4 bytes per observed event (`prev`), and per group a
/// 12-byte [`GroupCell`], an 8-byte key, two 4-byte round-chain links and
/// a 5-byte index slot — every column a `u32` with [`NONE`] for "absent".
/// The engine counts its own events: the index of an observed event is the
/// number observed before it, so the chains need no caller's word for it.
#[derive(Debug)]
pub(crate) struct Engine {
    /// `(name symbol, input symbol)` → dense group index, probed against
    /// `keys`.
    group_lookup: SymbolIndex,
    /// Group index → its key symbols.
    keys: Vec<KeySyms>,
    /// Group index → its entry of `parents`, when the group's name is
    /// undoable and its input has the round-stamped shape
    /// `Pair(base input, round)` (§5.4); [`NONE`] otherwise.
    stamped_of: Vec<u32>,
    /// Group index → the next-seen round of the same parent, or [`NONE`].
    sibling_next: Vec<GroupSym>,
    /// The round parents, in first-seen order of their first round.
    parents: Vec<RoundParent>,
    /// A parent's base hash → entry of `parents`, probed by content
    /// against the head rounds' stamps.
    parent_lookup: SymbolIndex,
    /// Group index → its chain tail, length and commit bit.
    cells: Vec<GroupCell>,
    /// Per observed event: the previous event of its group, or [`NONE`]
    /// for a group's first event and for an orphan completion (which joins
    /// no group but keeps its index, so later links stay right).
    prev: AppendLog<u32>,
    attribution: AttributionState,
    /// The last group an event joined: an `S S C` run lands in one cell
    /// with one key comparison.
    last_group: Option<(KeySyms, GroupSym)>,
    /// Whether any completion attribution was ambiguous.
    pub(crate) ambiguous: bool,
    /// Group shape → search outcome: what every per-group question asks
    /// before it searches. Behind a `RefCell` because a verdict reads the
    /// engine by shared reference.
    shapes: RefCell<ShapeMemo>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine {
            group_lookup: SymbolIndex::default(),
            keys: Vec::new(),
            stamped_of: Vec::new(),
            sibling_next: Vec::new(),
            parents: Vec::new(),
            parent_lookup: SymbolIndex::default(),
            cells: Vec::new(),
            prev: AppendLog::new(PREV_SEGMENT),
            attribution: AttributionState::default(),
            last_group: None,
            ambiguous: false,
            shapes: RefCell::default(),
        }
    }
}

impl Engine {
    /// How many events have been observed — the index the next one gets.
    pub(crate) fn observed(&self) -> usize {
        self.prev.len()
    }

    /// Consumes one event, given as the symbols `interner` assigned — the
    /// engine's one ingest path: one streaming attribution step and one
    /// chain link, amortized O(1), no name or value clone. `interner` is
    /// read only to place a new group: the kind of its name, and whether
    /// its input is a round stamp.
    ///
    /// Returns what happened (for dirty tracking), or `Err(cause)` for a
    /// completion whose action has never started (a violation of the event
    /// axioms of §2.2 — definitely not x-able, independent of any
    /// ambiguity), which joins no group.
    pub(crate) fn observe(
        &mut self,
        interner: &Interner,
        event: EventSymbols,
    ) -> Result<Observed, Cause> {
        let EventSymbols { name, role, input } = event;
        let vs = match input {
            Some(vs) => {
                self.attribute_start(name, role, vs);
                vs
            }
            None => self.attribute_completion(interner, name, role)?,
        };
        let key = (name, vs);
        let (group, created) = match self.last_group {
            Some((k, sym)) if k == key => (sym, false),
            _ => {
                let (sym, created) = self.group_of(interner, key);
                self.last_group = Some((key, sym));
                (sym, created)
            }
        };
        let is_commit_completion = input.is_none() && role == ROLE_COMMIT;
        Ok(self.record_in_cell(group, created, is_commit_completion))
    }

    /// Attribution step for a start: opens `(ns, role)` with input `vs`.
    fn attribute_start(&mut self, ns: u32, role: u8, vs: u32) {
        let slot = self.attribution.slot(ns, role);
        self.attribution.open[slot].push(vs);
        self.attribution.last_start_input[slot] = Some(vs);
    }

    /// Attribution step for a completion: the input symbol of the nearest
    /// open start (or of the most recent start, flagging the ambiguity),
    /// or `Err` for an orphan completion — which takes its index here,
    /// with no predecessor, so the chain column stays dense.
    fn attribute_completion(
        &mut self,
        interner: &Interner,
        ns: u32,
        role: u8,
    ) -> Result<u32, Cause> {
        let slot = self.attribution.slot(ns, role);
        let open = &mut self.attribution.open[slot];
        if open.ambiguous() {
            self.ambiguous = true;
        }
        match open.pop() {
            Some(vs) => Ok(vs),
            // Duplicate completion after all starts closed: attribute to
            // the most recent start.
            None => match self.attribution.last_start_input[slot] {
                Some(vs) => {
                    self.ambiguous = true;
                    Ok(vs)
                }
                None => {
                    let index = self.prev.len();
                    self.prev.push(NONE);
                    Err(Cause::OrphanCompletion {
                        action: ActionId::with_role(interner.action(ns).clone(), role),
                        index,
                    })
                }
            },
        }
    }

    /// The dense group of `key`, created on first sight.
    fn group_of(&mut self, interner: &Interner, key: KeySyms) -> (GroupSym, bool) {
        let hash = hash_of(&key);
        let keys = &self.keys;
        if let Some(sym) = self
            .group_lookup
            .find(hash, |sym| keys[sym as usize] == key)
        {
            return (sym, false);
        }
        let sym = id32(self.cells.len(), "groups");
        let parent = match interner.value(key.1).round_stamp() {
            Some((base, _)) if interner.action(key.0).is_undoable() => {
                let base_hash = short_hash(hash_of(base));
                self.link_round(interner, key.0, (base, base_hash), sym)
            }
            _ => NONE,
        };
        self.keys.push(key);
        let keys = &self.keys;
        self.group_lookup
            .insert(hash, sym, |filed| Some(hash_of(&keys[filed as usize])));
        self.stamped_of.push(parent);
        self.sibling_next.push(NONE);
        self.cells.push(GroupCell::default());
        (sym, true)
    }

    /// The parent `(name, base)`, found by content; the base comes with
    /// its [`short_hash`].
    fn round_parent(
        &self,
        interner: &Interner,
        name: u32,
        (base, base_hash): (&Value, u32),
    ) -> Option<u32> {
        self.parent_lookup.find(hash_of(&base_hash), |p| {
            let parent = &self.parents[p as usize];
            parent.base_hash == base_hash
                && parent.name == name
                && round_base(interner, &self.keys, parent.head) == base
        })
    }

    /// Appends the new group `sym` to the sibling chain of the parent
    /// `(name, base)` (creating the parent on its first round) and returns
    /// the parent's entry. New symbols are assigned in ascending order, so
    /// every chain is in group-symbol order.
    fn link_round(
        &mut self,
        interner: &Interner,
        name: u32,
        base: (&Value, u32),
        sym: GroupSym,
    ) -> u32 {
        if let Some(parent) = self.round_parent(interner, name, base) {
            let tail = &mut self.parents[parent as usize].tail;
            self.sibling_next[*tail as usize] = sym;
            *tail = sym;
            return parent;
        }
        let parent = id32(self.parents.len(), "round-stamped requests");
        let base_hash = base.1;
        self.parents.push(RoundParent {
            name,
            base_hash,
            head: sym,
            tail: sym,
        });
        let parents = &self.parents;
        self.parent_lookup.insert(hash_of(&base_hash), parent, |p| {
            Some(hash_of(&parents[p as usize].base_hash))
        });
        parent
    }

    /// Links the next event index into its group's chain and packages the
    /// [`Observed`] record.
    fn record_in_cell(
        &mut self,
        group: GroupSym,
        created: bool,
        is_commit_completion: bool,
    ) -> Observed {
        let parent = self.stamped_of[group as usize];
        let round_head = if parent == NONE {
            NONE
        } else {
            self.parents[parent as usize].head
        };
        let index = id32(self.prev.len(), "events");
        let cell = &mut self.cells[group as usize];
        let commit_completed = is_commit_completion && !cell.has_commit_completion;
        self.prev.push(cell.last);
        cell.last = index;
        cell.len += 1;
        cell.has_commit_completion |= is_commit_completion;
        Observed {
            group,
            round_head,
            created,
            commit_completed,
        }
    }

    /// The key symbols of a group.
    pub(crate) fn key(&self, sym: GroupSym) -> KeySyms {
        self.keys[sym as usize]
    }

    /// The group with exactly the key `syms`, if any.
    pub(crate) fn group_with_key(&self, syms: KeySyms) -> Option<GroupSym> {
        self.group_lookup
            .find(hash_of(&syms), |sym| self.keys[sym as usize] == syms)
    }

    /// The first-seen round of the parent `(name, base)`, or [`NONE`] —
    /// the head [`siblings`](Self::siblings) walks from. The base comes
    /// with its [`short_hash`].
    pub(crate) fn first_round_of(
        &self,
        interner: &Interner,
        name: u32,
        base: (&Value, u32),
    ) -> GroupSym {
        self.round_parent(interner, name, base)
            .map_or(NONE, |p| self.parents[p as usize].head)
    }

    /// The parent key `(name, base)` of the round-stamped group `round`,
    /// resolved — what its undoable request is declared as — and the
    /// base's [`short_hash`].
    pub(crate) fn round_key<'i>(
        &self,
        interner: &'i Interner,
        round: GroupSym,
    ) -> ((&'i ActionName, &'i Value), u32) {
        let name = interner.action(self.keys[round as usize].0);
        let parent = self.stamped_of[round as usize];
        let base_hash = self.parents[parent as usize].base_hash;
        ((name, round_base(interner, &self.keys, round)), base_hash)
    }

    /// The round `head` and every round of the same parent seen after it,
    /// in first-seen (= group-symbol) order; nothing for [`NONE`].
    pub(crate) fn siblings(&self, head: GroupSym) -> impl Iterator<Item = GroupSym> + '_ {
        let some = |sym: GroupSym| (sym != NONE).then_some(sym);
        std::iter::successors(some(head), move |&sym| {
            some(self.sibling_next[sym as usize])
        })
    }

    /// Whether the group contains a completed commit.
    pub(crate) fn has_commit_completion(&self, sym: GroupSym) -> bool {
        self.cells[sym as usize].has_commit_completion
    }

    /// The group's event indices into the full history, ascending —
    /// materialised from the chain, for a search about to run.
    fn indices_of(&self, sym: GroupSym) -> Vec<usize> {
        let mut indices = vec![0usize; self.cells[sym as usize].len as usize];
        self.fill_indices(sym, &mut indices);
        indices
    }

    /// Walks the group's chain back from its tail into `indices`, which
    /// holds exactly the group's length.
    fn fill_indices(&self, sym: GroupSym, indices: &mut [usize]) {
        let mut at = self.cells[sym as usize].last;
        for slot in indices.iter_mut().rev() {
            *slot = at as usize;
            at = *self.prev.get(at as usize);
        }
        debug_assert_eq!(at, NONE, "a group's chain is exactly `len` links long");
    }

    /// Runs `f` over the group's ascending index list, built on the stack
    /// for a group the shape memo can key — so a question the memo answers
    /// allocates nothing — and on the heap for a longer one.
    fn with_indices<R>(&self, sym: GroupSym, f: impl FnOnce(&[usize]) -> R) -> R {
        let len = self.cells[sym as usize].len as usize;
        if len > SHAPE_MAX_LEN {
            return f(&self.indices_of(sym));
        }
        let mut indices = [0usize; SHAPE_MAX_LEN];
        self.fill_indices(sym, &mut indices[..len]);
        f(&indices[..len])
    }

    /// The group's key, resolved: every event of the group carries this
    /// base name, and `(Base(name), input)` is its exec target.
    fn resolved_key<'i>(
        &self,
        interner: &'i Interner,
        sym: GroupSym,
    ) -> (&'i ActionName, &'i Value) {
        let (ns, vs) = self.keys[sym as usize];
        (interner.action(ns), interner.value(vs))
    }

    /// Whether the group's events reduce to `Λ`, as the shape memo answers.
    pub(crate) fn erases<H: HistoryRead + ?Sized>(
        &self,
        interner: &Interner,
        sym: GroupSym,
        h: &H,
    ) -> EraseOutcome {
        let (name, _) = self.resolved_key(interner, sym);
        self.with_indices(sym, |indices| {
            run_erase_search(&mut self.shapes.borrow_mut(), h, indices, name)
        })
    }

    /// Whether the group's events reduce to a failure-free execution of its
    /// key's action/input, as the shape memo answers. The target is fully
    /// determined by the group key: the action is `Base(name)` and the
    /// input is the key's value (for round-stamped groups the stamped pair
    /// *is* the input, §5.4).
    pub(crate) fn exec<H: HistoryRead + ?Sized>(
        &self,
        interner: &Interner,
        sym: GroupSym,
        h: &H,
    ) -> ExecOutcome {
        let (name, input) = self.resolved_key(interner, sym);
        self.with_indices(sym, |indices| {
            run_exec_search(&mut self.shapes.borrow_mut(), h, indices, name, input)
        })
    }

    /// How many reduction searches the engine's shape memo ran.
    #[cfg(test)]
    pub(crate) fn searches_run(&self) -> usize {
        self.shapes.borrow().searches
    }

    /// Heap bytes held, part by part — allocated capacity, not length.
    pub(crate) fn byte_parts(&self) -> [(&'static str, usize); 6] {
        let attribution = &self.attribution;
        let open_heap: usize = (attribution.open.iter())
            .map(|open| open.stack.capacity() * size_of::<u32>())
            .sum();
        [
            (
                "group cells",
                self.cells.capacity() * size_of::<GroupCell>(),
            ),
            ("event chain", self.prev.segment_bytes()),
            (
                "group keys + index",
                self.keys.capacity() * size_of::<KeySyms>() + self.group_lookup.heap_bytes(),
            ),
            (
                "round chains",
                (self.stamped_of.capacity() + self.sibling_next.capacity()) * size_of::<u32>()
                    + self.parents.capacity() * size_of::<RoundParent>()
                    + self.parent_lookup.heap_bytes(),
            ),
            (
                "attribution",
                attribution.open.capacity() * size_of::<OpenStarts>()
                    + attribution.last_start_input.capacity() * size_of::<Option<u32>>()
                    + open_heap,
            ),
            ("shape memo", self.shapes.borrow().heap_bytes()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{ActionKind, ActionName, Request};
    use crate::event::Event;
    use crate::failure_free::eventsof;
    use crate::intern::BatchMemo;
    use crate::xable::checker::{Checker, FastChecker, Verdict};
    use crate::xable::IncrementalState;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

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

    /// One enumeration alphabet twice over: `original[i]` and `renamed[i]`
    /// are the same event up to an injective, `Nil`-fixing renaming of the
    /// base name, the key input and the two outputs.
    struct Alphabet {
        original: (ActionName, Value, Vec<Event>),
        renamed: (ActionName, Value, Vec<Event>),
    }

    /// `{S(a,k), C(a,o1), C(a,o2)}` for an idempotent `a`, plus — for an
    /// undoable one — `{S(a⁻¹,k), C(a⁻¹,nil), S(aᶜ,k), C(aᶜ,nil)}`.
    fn letters(name: &ActionName, input: &Value, outputs: [Value; 2]) -> Vec<Event> {
        let base = ActionId::base(name.clone());
        let [o1, o2] = outputs;
        let mut letters = vec![
            Event::start(base.clone(), input.clone()),
            Event::complete(base.clone(), o1),
            Event::complete(base.clone(), o2),
        ];
        if name.is_undoable() {
            for derived in [base.cancel(), base.commit()] {
                let derived = derived.expect("undoable actions have both");
                letters.push(Event::start(derived.clone(), input.clone()));
                letters.push(cnil(&derived));
            }
        }
        letters
    }

    fn alphabet(kind: ActionKind) -> Alphabet {
        let of = |name: &str, input: Value, outputs: [Value; 2]| {
            let name = ActionName::new(name, kind);
            let letters = letters(&name, &input, outputs);
            (name, input, letters)
        };
        Alphabet {
            original: of("a", Value::from(7), [Value::from(1), Value::from(2)]),
            // The old input is a new output and the old outputs trade
            // places with strings: nothing keeps its value but `Nil`.
            renamed: of(
                "b",
                Value::pair(Value::from("k"), Value::from(1)),
                [Value::from("x"), Value::from(7)],
            ),
        }
    }

    /// The soundness check of the shape memo by enumeration: *every*
    /// sequence of up to `max_len` letters is decided once — a miss, which
    /// searches — and then again under the renaming, with junk interleaved
    /// so positions and indices differ — a hit, which must not search —
    /// and the hit is compared, outcome, anchor and output value, with an
    /// uncached search of the renamed history. Returns how many sequences
    /// were checked.
    fn memo_hits_equal_fresh_searches(kind: ActionKind, max_len: usize) -> usize {
        let Alphabet { original, renamed } = alphabet(kind);
        let junk = Event::start(idem("junk"), Value::from(0));
        let mut checked = 0usize;
        let mut stack: Vec<Vec<usize>> = vec![Vec::new()];
        while let Some(picks) = stack.pop() {
            let (name, input, letters) = &original;
            let first: History = picks.iter().map(|&i| letters[i].clone()).collect();
            let positions: Vec<usize> = (0..picks.len()).collect();
            let mut memo = ShapeMemo::default();
            run_exec_search(&mut memo, &first, &positions, name, input);
            run_erase_search(&mut memo, &first, &positions, name);
            assert_eq!(memo.searches, 2, "both questions miss on {first}");

            let (name, input, letters) = &renamed;
            let second: History = (picks.iter())
                .flat_map(|&i| [junk.clone(), letters[i].clone()])
                .collect();
            let indices: Vec<usize> = (0..picks.len()).map(|k| 2 * k + 1).collect();
            let sub = second.select(&indices);
            let hit = run_exec_search(&mut memo, &second, &indices, name, input);
            let fresh = search_group(&sub, SearchKind::Exec, name, input);
            assert_eq!(hit, exec_outcome(&second, &indices, fresh), "exec of {sub}");
            let hit = run_erase_search(&mut memo, &second, &indices, name);
            let fresh = search_group(&sub, SearchKind::Erase, name, &Value::Nil);
            assert_eq!(hit, erase_outcome(fresh), "erase of {sub}");
            assert_eq!(memo.searches, 2, "both questions hit on {sub}");

            checked += 1;
            if picks.len() < max_len {
                for next in 0..letters.len() {
                    let mut longer = picks.clone();
                    longer.push(next);
                    stack.push(longer);
                }
            }
        }
        checked
    }

    #[test]
    fn shape_memo_hit_equals_a_fresh_search() {
        // Σ 3^l for l ≤ 6, Σ 7^l for l ≤ 5: seconds in a debug build.
        assert_eq!(
            memo_hits_equal_fresh_searches(ActionKind::Idempotent, 6),
            1_093
        );
        assert_eq!(
            memo_hits_equal_fresh_searches(ActionKind::Undoable, 5),
            19_608
        );
    }

    /// The same enumeration one letter further for the undoable alphabet
    /// and three further for the idempotent one (past the 8 events the
    /// hand-derived closed forms this memo replaced were proved for) —
    /// about a minute in release, where CI runs it.
    #[test]
    #[ignore = "exhaustive at a larger k: run in release (CI does)"]
    fn shape_memo_hit_equals_a_fresh_search_at_a_larger_k() {
        assert_eq!(
            memo_hits_equal_fresh_searches(ActionKind::Idempotent, 9),
            29_524
        );
        assert_eq!(
            memo_hits_equal_fresh_searches(ActionKind::Undoable, 6),
            137_257
        );
    }

    /// What the memo must *decline* — and still decide, through the
    /// search: groups past [`SHAPE_MAX_LEN`], groups with a foreign name,
    /// shapes past [`SHAPE_MAX_ENTRIES`]; and what it must keep apart:
    /// the two questions, the name's kind.
    #[test]
    fn shape_memo_declines_what_it_cannot_key() {
        let name = ActionName::idempotent("a");
        let a = ActionId::base(name.clone());
        let one = Value::from(1);
        let mut memo = ShapeMemo::default();

        // An over-long group has no key: searched every time, never kept.
        let long: History = (0..SHAPE_MAX_LEN)
            .map(|_| s(&a, 1))
            .chain([c(&a, 5)])
            .collect();
        let all: Vec<usize> = (0..long.len()).collect();
        for searches in 1..=2 {
            let outcome = run_exec_search(&mut memo, &long, &all, &name, &one);
            assert!(
                matches!(outcome, ExecOutcome::Reduced { anchor, .. } if anchor == SHAPE_MAX_LEN)
            );
            assert_eq!((memo.searches, memo.entries.len()), (searches, 0));
        }

        // Nor has a group in which some event carries another name — the
        // engine never builds one, the search still answers.
        let mixed: History = [s(&a, 1), c(&idem("b"), 5)].into_iter().collect();
        assert_eq!(
            run_exec_search(&mut memo, &mixed, &[0, 1], &name, &one),
            ExecOutcome::Stuck
        );
        assert_eq!((memo.searches, memo.entries.len()), (3, 0));

        // A foreign start input is a shape like any other (the target is
        // class 1, the start's value class 2): stuck, kept, and not the
        // entry of the matching-input group.
        let h: History = [s(&a, 2), c(&a, 5)].into_iter().collect();
        let two = [0, 1];
        let exec = |memo: &mut ShapeMemo, input: i64| {
            run_exec_search(memo, &h, &two, &name, &Value::from(input))
        };
        assert_eq!(exec(&mut memo, 1), ExecOutcome::Stuck);
        assert!(matches!(exec(&mut memo, 2), ExecOutcome::Reduced { .. }));
        assert_eq!((memo.searches, memo.entries.len()), (5, 2));
        // The question and the kind of the name are part of the key: the
        // same three codes, asked to execute, asked to erase, and carried
        // by an undoable name.
        let retried: History = [s(&a, 1), s(&a, 1), c(&a, 5)].into_iter().collect();
        let three = [0, 1, 2];
        assert!(matches!(
            run_exec_search(&mut memo, &retried, &three, &name, &one),
            ExecOutcome::Reduced { .. }
        ));
        assert_eq!(
            run_erase_search(&mut memo, &retried, &three, &name),
            EraseOutcome::Stuck
        );
        let u_name = ActionName::undoable("a");
        let u = ActionId::base(u_name.clone());
        let undoable: History = [s(&u, 1), s(&u, 1), c(&u, 5)].into_iter().collect();
        assert_eq!(
            run_exec_search(&mut memo, &undoable, &three, &u_name, &one),
            ExecOutcome::Stuck
        );
        assert_eq!((memo.searches, memo.entries.len()), (8, 5));

        // A full memo searches and keeps nothing more; what it holds
        // still answers.
        for k in 0..SHAPE_MAX_ENTRIES as u32 {
            // Distinct shapes: the bits of `k` as a run of completions,
            // `Nil` for a set bit. No rule applies without a start, so each
            // search is a single expansion.
            let bits: History = (0..10)
                .map(|bit| {
                    if k >> bit & 1 == 1 {
                        cnil(&a)
                    } else {
                        c(&a, 5)
                    }
                })
                .collect();
            let ten: Vec<usize> = (0..10).collect();
            run_erase_search(&mut memo, &bits, &ten, &name);
        }
        assert_eq!(memo.entries.len(), SHAPE_MAX_ENTRIES);
        let searches = memo.searches;
        assert_eq!(exec(&mut memo, 1), ExecOutcome::Stuck);
        assert_eq!(
            memo.searches, searches,
            "an entry made before the memo filled"
        );
        let unseen: History = [s(&a, 1), c(&a, 5), c(&a, 5)].into_iter().collect();
        for extra in 1..=2 {
            assert_eq!(
                run_erase_search(&mut memo, &unseen, &three, &name),
                EraseOutcome::Stuck
            );
            assert_eq!(memo.searches, searches + extra);
        }
        assert_eq!(memo.entries.len(), SHAPE_MAX_ENTRIES);
        assert!(memo.heap_bytes() < 100 << 10, "{}", memo.heap_bytes());
    }

    /// One of the 24 events a single base name and four values allow:
    /// role × start/completion × value, the value `Nil` for `pick / 6 == 0`.
    fn letter(name: &ActionName, values: &[Value; 4], pick: usize) -> Event {
        let action = match pick % 3 {
            0 => ActionId::Base(name.clone()),
            1 => ActionId::Cancel(name.clone()),
            _ => ActionId::Commit(name.clone()),
        };
        let value = values[pick / 6 % 4].clone();
        if pick / 3 % 2 == 0 {
            Event::start(action, value)
        } else {
            Event::complete(action, value)
        }
    }

    /// Both per-group searches of `picks` spelled with `name` and `values`,
    /// the exec target being `values[target]`, each witness spelled back
    /// as picks — so two spellings compare position for position.
    fn searches_as_picks(
        name: &ActionName,
        values: &[Value; 4],
        picks: &[usize],
        target: usize,
        budget: SearchBudget,
    ) -> [Result<Vec<usize>, SearchResult>; 2] {
        let h: History = picks.iter().map(|&p| letter(name, values, p)).collect();
        let as_picks = |result: SearchResult| match result {
            SearchResult::Reached(witness) => Ok(witness
                .iter()
                .map(|ev| {
                    (0..24)
                        .find(|&p| letter(name, values, p) == *ev)
                        .expect("reduction creates no event the history lacks")
                })
                .collect()),
            other => Err(other),
        };
        let action = ActionId::base(name.clone());
        let goal = |cand: &History| failure_free_output(&action, &values[target], cand).is_some();
        let min_len = if name.is_undoable() { 4 } else { 2 };
        [
            as_picks(search_reduction(&h, goal, min_len, budget)),
            as_picks(search_reduction(&h, History::is_empty, 0, budget)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// What justifies the memo's key on its own: for a history of one
        /// base name, `search_reduction` — outcome *and* witness, position
        /// for position — is invariant under an injective renaming of the
        /// name and the values that keeps the name's kind and fixes `Nil`,
        /// under a comfortable budget and under one that runs out.
        #[test]
        fn search_is_invariant_under_nil_fixing_renamings(
            draws in prop::collection::vec(0usize..56, 0..5),
            target in 0usize..6,
            undoable in 0usize..2,
        ) {
            // A draw is a phrase — an attempt, a completed attempt, a
            // cancellation, a commit, over the input 1 and the outputs 2
            // and 3 — or any single letter: uniform letters alone
            // hardly ever reduce.
            const PHRASES: [&[usize]; 8] =
                [&[6], &[6, 15], &[6, 15], &[15], &[6, 21], &[7, 4], &[8, 5], &[8, 5]];
            let picks: Vec<usize> = (draws.iter())
                .flat_map(|&d| match d.checked_sub(24) {
                    Some(phrase) => PHRASES[phrase % 8].to_vec(),
                    None => vec![d],
                })
                .collect();
            let target = [1, 1, 1, 0, 2, 3][target];
            let kind = [ActionKind::Idempotent, ActionKind::Undoable][undoable];
            let values = [Value::Nil, Value::from(1), Value::from(2), Value::from(3)];
            // 1 is renamed to a value the original also uses: injective,
            // not the identity anywhere but on `Nil`.
            let renamed = [
                Value::Nil,
                Value::from("x"),
                Value::pair(Value::from("k"), Value::from(2)),
                Value::from(1),
            ];
            let tight = SearchBudget { max_expansions: 3, max_visited: 6 };
            for budget in [SearchBudget::small(), tight] {
                prop_assert_eq!(
                    searches_as_picks(&ActionName::new("a", kind), &values, &picks, target, budget),
                    searches_as_picks(&ActionName::new("b", kind), &renamed, &picks, target, budget)
                );
            }
        }
    }

    /// …and *not* under anything coarser: merging two value classes,
    /// renaming `Nil`, or changing the name's kind each flip a search, so
    /// the key can drop none of them.
    #[test]
    fn search_is_not_invariant_when_classes_merge_or_nil_is_renamed() {
        let budget = SearchBudget::small();
        let idempotent = ActionName::idempotent("a");
        let undoable = ActionName::undoable("a");
        let values = [Value::Nil, Value::from(1), Value::from(2), Value::from(3)];
        let reached = |name, values, picks: &[usize]| {
            searches_as_picks(name, values, picks, 1, budget).map(|found| found.is_ok())
        };
        // picks: 0 = S(a, nil)…; +6 per value, +3 for a completion, +1/+2
        // for the cancel/commit role.
        let (s1, c2, c3) = (6, 15, 21);
        // S(a,1) C(a,2) S(a,1) C(a,3): outputs disagree — until 3 ↦ 2.
        let disagreeing = [s1, c2, s1, c3];
        assert_eq!(reached(&idempotent, &values, &disagreeing), [false, false]);
        let merged = [Value::Nil, Value::from(1), Value::from(2), Value::from(2)];
        assert_eq!(reached(&idempotent, &merged, &disagreeing), [true, false]);
        // S(u,1) S(u⁻¹,1) C(u⁻¹,nil) erases by rule 19 — until nil ↦ 3.
        let (cancel_s1, cancel_c_nil) = (7, 4);
        let cancelled = [s1, cancel_s1, cancel_c_nil];
        assert_eq!(reached(&undoable, &values, &cancelled), [false, true]);
        let nil_renamed = [Value::from(3), Value::from(1), Value::from(2), Value::Nil];
        assert_eq!(reached(&undoable, &nil_renamed, &cancelled), [false, false]);
        // S(a,1) S(a,1) C(a,2) reduces by rule 18 — for an idempotent `a`.
        let retried = [s1, s1, c2];
        assert_eq!(reached(&idempotent, &values, &retried), [true, false]);
        assert_eq!(reached(&undoable, &values, &retried), [false, false]);
    }

    #[test]
    fn accepts_failure_free_single_request() {
        let a = idem("a");
        let h = eventsof(&a, &Value::from(1), &Value::from(5));
        let v = FastChecker.check(&h, &[(a, Value::from(1))], &[]);
        assert_eq!(v, Verdict::xable(vec![Value::from(5)]));
    }

    #[test]
    fn accepts_retried_idempotent_request() {
        let a = idem("a");
        let h: History = [s(&a, 1), s(&a, 1), c(&a, 5), s(&a, 1), c(&a, 5)]
            .into_iter()
            .collect();
        assert!(FastChecker
            .check(&h, &[(a, Value::from(1))], &[])
            .is_xable());
    }

    #[test]
    fn rejects_disagreeing_outputs() {
        let a = idem("a");
        let h: History = [s(&a, 1), c(&a, 5), s(&a, 1), c(&a, 6)]
            .into_iter()
            .collect();
        assert!(FastChecker
            .check(&h, &[(a, Value::from(1))], &[])
            .is_not_xable());
    }

    #[test]
    fn rejects_missing_request() {
        let a = idem("a");
        let v = FastChecker.check(&History::empty(), &[(a, Value::from(1))], &[]);
        assert!(v.is_not_xable());
    }

    #[test]
    fn rejects_undeclared_events() {
        let a = idem("a");
        let b = idem("b");
        let h = eventsof(&a, &Value::from(1), &Value::from(5)).concat(&eventsof(
            &b,
            &Value::from(2),
            &Value::from(6),
        ));
        let v = FastChecker.check(&h, &[(a, Value::from(1))], &[]);
        assert!(v.is_not_xable());
    }

    #[test]
    fn rejects_completion_without_start() {
        let a = idem("a");
        let h: History = [c(&a, 5)].into_iter().collect();
        let v = FastChecker.check(&h, &[(a, Value::from(1))], &[]);
        assert!(v.is_not_xable());
    }

    #[test]
    fn ambiguous_completion_attribution_is_unknown() {
        let a = idem("a");
        // Two different inputs for the same action plus a completion:
        // attribution is ambiguous.
        let h: History = [s(&a, 1), s(&a, 2), c(&a, 5), c(&a, 5)]
            .into_iter()
            .collect();
        let v = FastChecker.check(&h, &[(a.clone(), Value::from(1)), (a, Value::from(2))], &[]);
        assert!(matches!(v, Verdict::Unknown { .. }));
    }

    #[test]
    fn undoable_request_with_cancelled_round_is_xable() {
        let u = undo("u");
        let cancel = u.cancel().unwrap();
        let commit = u.commit().unwrap();
        let h: History = [
            s(&u, 1),
            s(&cancel, 1),
            cnil(&cancel),
            s(&u, 1),
            c(&u, 7),
            s(&commit, 1),
            cnil(&commit),
        ]
        .into_iter()
        .collect();
        let v = FastChecker.check(&h, &[(u, Value::from(1))], &[]);
        assert_eq!(v, Verdict::xable(vec![Value::from(7)]));
    }

    #[test]
    fn sequence_in_order_is_xable() {
        let a = idem("a");
        let b = undo("b");
        let h = eventsof(&a, &Value::from(1), &Value::from(5)).concat(&eventsof(
            &b,
            &Value::from(2),
            &Value::from(6),
        ));
        let ops = [(a, Value::from(1)), (b, Value::from(2))];
        let v = FastChecker.check(&h, &ops, &[]);
        assert_eq!(v, Verdict::xable(vec![Value::from(5), Value::from(6)]));
    }

    #[test]
    fn sequence_out_of_order_is_rejected() {
        let a = idem("a");
        let b = idem("b");
        let h = eventsof(&b, &Value::from(2), &Value::from(6)).concat(&eventsof(
            &a,
            &Value::from(1),
            &Value::from(5),
        ));
        let ops = [(a, Value::from(1)), (b, Value::from(2))];
        assert!(FastChecker.check(&h, &ops, &[]).is_not_xable());
    }

    #[test]
    fn overlapping_blocks_with_ordered_effects_are_xable() {
        // S(a) S(b) C(a) C(b): b's compaction moves C(a) in front of its
        // pair, reaching the ordered concatenation — and the effect
        // anchors (C(a) before C(b)) agree.
        let a = idem("a");
        let b = idem("b");
        let h: History = [s(&a, 1), s(&b, 2), c(&a, 5), c(&b, 6)]
            .into_iter()
            .collect();
        let ops = [(a, Value::from(1)), (b, Value::from(2))];
        assert!(FastChecker.check(&h, &ops, &[]).is_xable());
    }

    #[test]
    fn cancelled_then_retried_after_later_request_is_rejected() {
        // u completed, was cancelled, and was only re-executed (and
        // committed) after b's effect: u's first completion was undone by
        // the cancellation, so its *surviving* effect postdates b's —
        // effects are out of submission order (the search reference
        // agrees; see tests/checker_agreement.rs).
        let u = undo("u");
        let b = idem("b");
        let cancel = u.cancel().unwrap();
        let commit = u.commit().unwrap();
        let h: History = [
            s(&u, 1),
            c(&u, 7),
            s(&cancel, 1),
            cnil(&cancel),
            s(&b, 2),
            c(&b, 6),
            s(&u, 1),
            c(&u, 7),
            s(&commit, 1),
            cnil(&commit),
        ]
        .into_iter()
        .collect();
        let ops = [(u, Value::from(1)), (b, Value::from(2))];
        assert!(FastChecker.check(&h, &ops, &[]).is_not_xable());
    }

    #[test]
    fn cancelled_then_retried_before_later_request_is_xable() {
        // Same cancel-then-retry shape, but the retry (and commit) lands
        // before b: the surviving effects are in submission order.
        let u = undo("u");
        let b = idem("b");
        let cancel = u.cancel().unwrap();
        let commit = u.commit().unwrap();
        let h: History = [
            s(&u, 1),
            c(&u, 7),
            s(&cancel, 1),
            cnil(&cancel),
            s(&u, 1),
            c(&u, 7),
            s(&commit, 1),
            cnil(&commit),
            s(&b, 2),
            c(&b, 6),
        ]
        .into_iter()
        .collect();
        let ops = [(u, Value::from(1)), (b, Value::from(2))];
        let v = FastChecker.check(&h, &ops, &[]);
        assert_eq!(v, Verdict::xable(vec![Value::from(7), Value::from(6)]));
    }

    #[test]
    fn trailing_duplicate_after_next_request_is_accepted() {
        // A deduplicated retry of request a lands after b completed; the
        // effects still happened exactly once and in order.
        let a = idem("a");
        let b = idem("b");
        let h: History = [s(&a, 1), c(&a, 5), s(&b, 2), c(&b, 6), s(&a, 1), c(&a, 5)]
            .into_iter()
            .collect();
        let ops = [(a, Value::from(1)), (b, Value::from(2))];
        assert!(FastChecker.check(&h, &ops, &[]).is_xable());
    }

    #[test]
    fn erasable_group_may_vanish() {
        let a = idem("a");
        let u = undo("u");
        let cancel = u.cancel().unwrap();
        let h = eventsof(&a, &Value::from(1), &Value::from(5)).concat(&History::from_events(vec![
            s(&u, 2),
            s(&cancel, 2),
            cnil(&cancel),
        ]));
        let v = FastChecker.check(&h, &[(a, Value::from(1))], &[(u, Value::from(2))]);
        assert_eq!(v, Verdict::xable(vec![Value::from(5)]));
    }

    #[test]
    fn erasable_group_that_committed_is_rejected() {
        let a = idem("a");
        let u = undo("u");
        let h = eventsof(&a, &Value::from(1), &Value::from(5)).concat(&eventsof(
            &u,
            &Value::from(2),
            &Value::from(7),
        ));
        // u committed, so its events cannot erase.
        let v = FastChecker.check(&h, &[(a, Value::from(1))], &[(u, Value::from(2))]);
        assert!(v.is_not_xable());
    }

    #[test]
    fn request_sequence_helper_tries_prefix() {
        let a = idem("a");
        let u = undo("u");
        let cancel = u.cancel().unwrap();
        let requests = vec![
            Request::new(a.clone(), Value::from(1)),
            Request::new(u.clone(), Value::from(2)),
        ];
        // Last request started but was cancelled and never retried: x-able
        // via the R1…Rₙ₋₁ case.
        let h = eventsof(&a, &Value::from(1), &Value::from(5)).concat(&History::from_events(vec![
            s(&u, 2),
            s(&cancel, 2),
            cnil(&cancel),
        ]));
        assert!(FastChecker.check_requests(&h, &requests).is_xable());
        // But a *middle* request cannot be abandoned.
        let requests_rev = vec![
            Request::new(u, Value::from(2)),
            Request::new(a, Value::from(1)),
        ];
        let v = FastChecker.check_requests(&h, &requests_rev);
        assert!(!v.is_xable());
    }

    #[test]
    fn empty_request_sequence_accepts_empty_history() {
        assert!(FastChecker
            .check_requests(&History::empty(), &[])
            .is_xable());
    }

    #[test]
    fn round_stamped_rounds_decide_like_the_old_key_scheme() {
        // One cancelled round, one committed round, stamped as
        // Pair(input, round) — the §5.4 shape the protocol produces.
        let u = undo("xfer");
        let cancel = u.cancel().unwrap();
        let commit = u.commit().unwrap();
        let key = Value::from("r0");
        let iv1 = Value::pair(key.clone(), Value::from(1));
        let iv2 = Value::pair(key.clone(), Value::from(2));
        let h: History = [
            Event::start(u.clone(), iv1.clone()),
            Event::start(cancel.clone(), iv1.clone()),
            Event::complete(cancel.clone(), Value::Nil),
            Event::start(u.clone(), iv2.clone()),
            Event::complete(u.clone(), Value::from("ok")),
            Event::start(commit.clone(), iv2.clone()),
            Event::complete(commit.clone(), Value::Nil),
        ]
        .into_iter()
        .collect();
        let v = FastChecker.check(&h, &[(u.clone(), key.clone())], &[]);
        assert_eq!(v, Verdict::xable(vec![Value::from("ok")]));
        // Declaring the request erasable erases both rounds… except the
        // committed one cannot erase. (The cancelled round leaves an open
        // base start, so attribution is ambiguous and the rejection is
        // reported as `Unknown` rather than a definite negative.)
        let v = FastChecker.check(&h, &[], &[(u, key)]);
        assert!(!v.is_xable());
    }

    /// A small alphabet that reaches every way an event is placed: three
    /// actions over three inputs (ambiguous attributions), completions of
    /// an action that may never have started (orphans), and round-stamped
    /// inputs under two parents (sibling chains).
    fn arb_chain_event() -> impl Strategy<Value = Event> {
        let u = undo("u");
        let cancel = u.cancel().expect("undoable");
        let commit = u.commit().expect("undoable");
        let stamped =
            |parent: &str, round: i64| Value::pair(Value::from(parent), Value::from(round));
        let actions = [idem("a"), idem("b"), u, cancel, commit];
        let inputs = [
            Value::from(1),
            Value::from(2),
            stamped("p", 1),
            stamped("p", 2),
            stamped("q", 1),
        ];
        (0usize..50).prop_map(move |pick| {
            let (action, value) = (actions[pick % 5].clone(), inputs[pick / 5 % 5].clone());
            if pick < 25 {
                Event::start(action, value)
            } else {
                Event::complete(action, value)
            }
        })
    }

    /// What the engine's chains must equal: every group's index list and
    /// every parent's round list, kept in plain vectors from the
    /// [`Observed`] records and — for the parents, found by content — from
    /// the events themselves.
    #[derive(Default)]
    struct ChainReference {
        next_index: usize,
        groups: Vec<Vec<usize>>,
        rounds: Vec<((ActionName, Value), Vec<GroupSym>)>,
    }

    impl ChainReference {
        fn record(&mut self, event: &Event, result: Result<Observed, Cause>) {
            let index = self.next_index;
            self.next_index += 1;
            match result {
                Ok(obs) => {
                    if obs.created {
                        assert_eq!(obs.group as usize, self.groups.len());
                        self.groups.push(Vec::new());
                        let name = event.action().base_name();
                        let stamp = event.value().round_stamp();
                        if let Some((base, _)) = stamp.filter(|_| name.is_undoable()) {
                            let parent = (name.clone(), base.clone());
                            match self.rounds.iter_mut().find(|(key, _)| *key == parent) {
                                Some((_, rounds)) => rounds.push(obs.group),
                                None => self.rounds.push((parent, vec![obs.group])),
                            }
                        }
                    }
                    let head = (self.rounds.iter())
                        .find(|(_, rounds)| rounds.contains(&obs.group))
                        .map_or(NONE, |(_, rounds)| rounds[0]);
                    assert_eq!(obs.round_head, head, "the round head of {event}");
                    self.groups[obs.group as usize].push(index);
                }
                // An orphan joins no group but has taken its index.
                Err(cause) => assert!(
                    matches!(cause, Cause::OrphanCompletion { index: at, .. } if at == index),
                    "{cause}"
                ),
            }
        }

        fn assert_matches(&self, eng: &Engine, interner: &Interner) {
            assert_eq!(eng.observed(), self.next_index);
            assert_eq!(eng.cells.len(), self.groups.len());
            for (sym, indices) in self.groups.iter().enumerate() {
                assert_eq!(&eng.indices_of(sym as GroupSym), indices, "group {sym}");
                assert_eq!(eng.cells[sym].len as usize, indices.len());
            }
            for ((name, base), rounds) in &self.rounds {
                let ns = interner
                    .lookup_action(name)
                    .expect("a round's name is interned");
                let base_hash = short_hash(hash_of(base));
                let head = eng.first_round_of(interner, ns, (base, base_hash));
                let chained: Vec<GroupSym> = eng.siblings(head).collect();
                assert_eq!(&chained, rounds, "rounds of {name}/{base}");
                assert_eq!(eng.round_key(interner, head), ((name, base), base_hash));
            }
        }
    }

    /// Feeds `batch` to `eng`, interning it into `interner` the way an
    /// `IncrementalState` does, and records each outcome.
    fn feed(eng: &mut Engine, interner: &mut Interner, batch: &[Event], r: &mut ChainReference) {
        let mut memo = BatchMemo::default();
        for event in batch {
            let symbols = EventSymbols::intern(&mut memo, interner, event);
            r.record(event, eng.observe(interner, symbols));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Chain ≡ vector: however events are attributed — orphans and
        /// ambiguous completions included — and whether they are interned
        /// in batches of one or in longer batches, each group's materialised
        /// index list and each parent's round chain equal the reference
        /// partition, and each parent is found by its content.
        #[test]
        fn chain_equals_the_reference_partition(
            events in prop::collection::vec(arb_chain_event(), 0..40),
            cut in 0usize..40,
        ) {
            let (mut single, mut interner) = (Engine::default(), Interner::new());
            let mut reference = ChainReference::default();
            for event in &events {
                feed(&mut single, &mut interner, std::slice::from_ref(event), &mut reference);
                reference.assert_matches(&single, &interner);
            }

            let (mut batched, mut batch_interner) = (Engine::default(), Interner::new());
            let mut batch_reference = ChainReference::default();
            let (head, tail) = events.split_at(cut.min(events.len()));
            for batch in [head, tail] {
                feed(&mut batched, &mut batch_interner, batch, &mut batch_reference);
                batch_reference.assert_matches(&batched, &batch_interner);
            }
            prop_assert_eq!(&batch_reference.groups, &reference.groups);
            prop_assert_eq!(&batch_reference.rounds, &reference.rounds);
            prop_assert_eq!(batched.ambiguous, single.ambiguous);
        }
    }

    /// The O(1) ambiguity test against its definition, over every
    /// push/pop sequence of three inputs up to length 8 (prefixes are
    /// checked step by step): the count of differing neighbours is above
    /// zero exactly when two or more distinct inputs are open.
    #[test]
    fn open_starts_flag_exactly_two_or_more_distinct_open_inputs() {
        const STEPS: u32 = 8;
        for code in 0..4u32.pow(STEPS) {
            let (mut open, mut reference) = (OpenStarts::default(), Vec::new());
            let mut ops = code;
            for _ in 0..STEPS {
                // 0..=2 push that input; 3 pops.
                match ops % 4 {
                    3 => assert_eq!(open.pop(), reference.pop(), "{code:#x}"),
                    input => {
                        open.push(input);
                        reference.push(input);
                    }
                }
                ops /= 4;
                let distinct = reference.iter().collect::<BTreeSet<_>>().len();
                assert_eq!(open.ambiguous(), distinct >= 2, "{code:#x}: {reference:?}");
            }
        }
    }

    /// Retried requests leak one open start each. What the attribution
    /// holds for them follows the starts still open, not the number of
    /// values interned before them.
    #[test]
    fn attribution_bytes_follow_the_open_starts_not_the_value_symbols() {
        let a = idem("a");
        let attribution = |closed: i64, leaked: i64| {
            let mut events = Vec::new();
            for v in 0..closed {
                events.extend([s(&a, v), c(&a, v)]);
            }
            events.extend((closed..closed + leaked).map(|v| s(&a, v)));
            let mut state = IncrementalState::new();
            state.observe_batch(&events);
            let parts = state.approx_bytes_by_part();
            let row = parts.iter().find(|(part, _)| *part == "attribution");
            row.expect("an attribution row").1
        };
        let leaked = 1_000;
        let alone = attribution(0, leaked);
        assert_eq!(attribution(20_000, leaked), alone);
        assert!(alone <= 256 + 8 * leaked as usize, "{alone} bytes");
    }

    #[test]
    fn a_group_cell_is_at_most_12_bytes() {
        assert!(size_of::<GroupCell>() <= 12, "{}", size_of::<GroupCell>());
    }

    #[test]
    fn a_shape_key_is_16_bytes() {
        assert_eq!(size_of::<ShapeKey>(), 16);
    }
}
