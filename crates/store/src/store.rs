//! The append-only segmented trace store and its zero-copy views.
//!
//! One [`TraceStore`] holds a run's whole event stream, interned and
//! packed (12 bytes per event). It has one append path,
//! [`TraceStore::push_batch`], interning through a per-batch
//! [`BatchMemo`]; a single [`push`](TraceStore::push) is a batch of one,
//! so both number symbols identically. Components that need to *read* the
//! stream — the online monitor, the batch checkers, the exactly-once
//! accountants, the trace writer — borrow the store: `&TraceStore`, or a
//! [`HistoryView`] (a `Copy` range over a borrowed store), which
//! implements [`HistoryRead`] so every checker runs on it without a
//! `Vec<Event>` copy ever being materialized. A view cannot outlive a
//! change to its store: the borrow checker rejects an append while one
//! is alive.

use std::fmt;
use std::slice;

use xability_core::intern::BatchMemo;
use xability_core::seglog::AppendLog;
use xability_core::xable::{Decider, EventSymbols};
use xability_core::{ActionId, ActionName, Event, History, HistoryRead, Interner, Value};

/// Events per store segment. 64k × 12 bytes ≈ 768 KiB per segment: large
/// enough that a million-event trace is ~16 segments, small enough that a
/// short run does not reserve much it never fills (the first segment
/// grows like a `Vec` up to this size).
pub(crate) const EVENT_SEGMENT: usize = 1 << 16;

/// Role tag: the base action `a`.
const ROLE_BASE: u8 = 0;
/// Role tag: the commit action `aᶜ`.
const ROLE_COMMIT: u8 = 2;

/// The packed per-event record: 12 bytes instead of an owned [`Event`]
/// (~120 bytes of enum + heap on a 64-bit target).
///
/// Layout: an event tag (start/completion), the action's role
/// (base/cancel/commit), the interned [`ActionName`] symbol, and the
/// interned [`Value`] symbol (the input of a start, the output of a
/// completion).
///
/// [`ActionName`]: xability_core::ActionName
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRepr {
    /// Bit 0: 1 for completion events. Bits 1–2: the action role.
    tag: u8,
    _pad: [u8; 3],
    action: u32,
    value: u32,
}

impl EventRepr {
    /// Packs the tag byte.
    fn new(is_complete: bool, role: u8, action: u32, value: u32) -> Self {
        EventRepr {
            tag: u8::from(is_complete) | (role << 1),
            _pad: [0; 3],
            action,
            value,
        }
    }

    /// Returns `true` for completion events.
    pub fn is_complete(&self) -> bool {
        self.tag & 1 == 1
    }

    /// The action's role, as [`ActionId::role`] codes it (0 base, 1
    /// cancel, 2 commit).
    pub fn role(&self) -> u8 {
        (self.tag >> 1) & 0b11
    }

    /// The interned action-name symbol.
    pub fn action_symbol(&self) -> u32 {
        self.action
    }

    /// The interned value symbol.
    pub fn value_symbol(&self) -> u32 {
        self.value
    }

    /// The symbols a [`Decider`] reads off this event: its name, its role
    /// and — for a start — its input. A completion's output is not among
    /// them.
    pub fn symbols(&self) -> EventSymbols {
        EventSymbols {
            name: self.action,
            role: self.role(),
            input: (!self.is_complete()).then_some(self.value),
        }
    }

    /// The raw tag byte (for the trace format).
    pub(crate) fn tag_byte(&self) -> u8 {
        self.tag
    }

    /// Rebuilds a repr from its serialized parts, validating the tag.
    pub(crate) fn from_parts(tag: u8, action: u32, value: u32) -> Option<Self> {
        if tag & !0b111 != 0 || (tag >> 1) > ROLE_COMMIT {
            return None;
        }
        Some(EventRepr {
            tag,
            _pad: [0; 3],
            action,
            value,
        })
    }
}

/// The append-only, interned, segmented store for one event stream.
///
/// Appends are amortized O(1) and never move old segments; see
/// [`TraceStore::view`] for the read side.
///
/// # Examples
///
/// ```
/// use xability_core::{ActionId, ActionName, Event, HistoryRead, Value};
/// use xability_store::TraceStore;
///
/// let a = ActionId::base(ActionName::idempotent("a"));
/// let mut store = TraceStore::new();
/// let index = store.push(&Event::start(a.clone(), Value::from(1)));
/// assert_eq!(index, 0);
/// assert_eq!(store.event(0), Event::start(a, Value::from(1)));
/// ```
#[derive(Debug, Clone)]
pub struct TraceStore {
    interner: Interner,
    events: AppendLog<EventRepr>,
}

impl Default for TraceStore {
    fn default() -> Self {
        TraceStore::new()
    }
}

impl TraceStore {
    /// An empty store.
    pub fn new() -> Self {
        TraceStore {
            interner: Interner::new(),
            events: AppendLog::new(EVENT_SEGMENT),
        }
    }

    /// Appends one event, returning its index in the stream — a batch of
    /// one.
    pub fn push(&mut self, event: &Event) -> usize {
        self.push_batch(slice::from_ref(event))
    }

    /// Appends every event of an iterator.
    pub fn extend<'a, I: IntoIterator<Item = &'a Event>>(&mut self, events: I) {
        for event in events {
            self.push(event);
        }
    }

    /// Appends a slice of events, returning the index of the first one
    /// (`len()` if the slice is empty).
    ///
    /// The one append path ([`push`](Self::push) is a batch of one).
    /// Event streams overwhelmingly repeat a small action alphabet, and
    /// adjacent events frequently carry the same value (a start and its
    /// retries, request keys), so a [`BatchMemo`] answers most symbol
    /// queries with a direct equality check instead of the interner's
    /// hash-and-probe — with the symbols the interner would give.
    pub fn push_batch(&mut self, events: &[Event]) -> usize {
        let first = self.events.len();
        let mut memo = BatchMemo::default();
        for event in events {
            let (is_complete, action, value) = match event {
                Event::Start(a, iv) => (false, a, iv),
                Event::Complete(a, ov) => (true, a, ov),
            };
            let action_sym = memo.action(&mut self.interner, action.base_name());
            let value_sym = memo.value(&mut self.interner, value);
            self.events.push(EventRepr::new(
                is_complete,
                action.role(),
                action_sym,
                value_sym,
            ));
        }
        first
    }

    /// A store holding the events of `h` — the lossless owned→interned
    /// conversion ([`HistoryView::to_history`] is its inverse).
    pub fn from_history(h: &History) -> Self {
        let mut store = TraceStore::new();
        store.extend(h.iter());
        store
    }

    /// The number of events appended so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if no event has been appended.
    pub fn is_empty(&self) -> bool {
        self.events.len() == 0
    }

    /// Decodes the event at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn event(&self, index: usize) -> Event {
        let repr = self.repr(index);
        decode(
            repr,
            self.interner.action(repr.action_symbol()).clone(),
            self.interner.value(repr.value_symbol()).clone(),
        )
    }

    /// The packed repr at `index` (no decode).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn repr(&self, index: usize) -> EventRepr {
        *self.events.get(index)
    }

    /// The interner backing this store.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// The store itself. A whole-trace reader borrows the store and reads
    /// through [`repr`](Self::repr) and [`interner`](Self::interner); this
    /// forward keeps callers that still spell `store.snapshot()` building.
    pub fn snapshot(&self) -> &TraceStore {
        self
    }

    /// A zero-copy [`HistoryRead`] view of the whole current stream.
    pub fn view(&self) -> HistoryView<'_> {
        HistoryView {
            store: self,
            start: 0,
            end: self.len(),
        }
    }

    /// Approximate resident bytes: packed event segments plus the
    /// interner's tables. The per-event cost approaches
    /// `size_of::<EventRepr>()` (12 bytes) as the trace grows, because
    /// the symbol tables are bounded by *distinct* names/values.
    pub fn approx_bytes(&self) -> usize {
        self.events.segment_bytes() + self.interner.approx_bytes()
    }

    /// Appends a raw repr whose symbols were produced by this store's
    /// interner (the trace reader's fast path).
    pub(crate) fn push_repr(&mut self, repr: EventRepr) -> Result<(), String> {
        if (repr.action_symbol() as usize) >= self.interner.action_count() {
            return Err(format!(
                "event references action symbol {} but only {} are interned",
                repr.action_symbol(),
                self.interner.action_count()
            ));
        }
        if (repr.value_symbol() as usize) >= self.interner.value_count() {
            return Err(format!(
                "event references value symbol {} but only {} are interned",
                repr.value_symbol(),
                self.interner.value_count()
            ));
        }
        // Only undoable base actions have cancel/commit derived actions
        // (§3.1); a cancel/commit role on an idempotent name encodes an
        // event no real system can emit.
        if repr.role() != ROLE_BASE && !self.interner.action(repr.action_symbol()).is_undoable() {
            return Err(format!(
                "event has a cancel/commit role for idempotent action {:?}",
                self.interner.action(repr.action_symbol()).name()
            ));
        }
        self.events.push(repr);
        Ok(())
    }

    /// Mutable access to the interner (the trace reader re-interns the
    /// symbol tables before pushing raw reprs).
    pub(crate) fn interner_mut(&mut self) -> &mut Interner {
        &mut self.interner
    }

    /// An empty store resolving symbols through an already-populated
    /// interner — segment recovery rebuilds the interner from the chained
    /// delta tables first, then replays each segment's packed events into
    /// one of these via [`TraceStore::push_repr`].
    pub(crate) fn with_interner(interner: Interner) -> Self {
        TraceStore {
            interner,
            events: AppendLog::new(EVENT_SEGMENT),
        }
    }
}

/// [`HistoryRead::shape_codes`] over packed events, without decoding one:
/// the role and start/completion bits are the repr's tag byte as it
/// stands, one base name is one action symbol, and — within one interner,
/// symbol equality is value equality — a value's class is looked up by its
/// symbol. The interner is read once per *distinct* symbol, to ask whether
/// the value is `Nil` or the target.
fn packed_shape_codes(
    interner: &Interner,
    reprs: impl ExactSizeIterator<Item = EventRepr>,
    name: &ActionName,
    target: &Value,
    codes: &mut [u8],
) -> bool {
    const MAX: usize = 30;
    assert!(
        reprs.len() == codes.len() && codes.len() <= MAX,
        "shape_codes: one code per index, at most {MAX}"
    );
    // The distinct value symbols met so far and their classes.
    let mut seen = [(0u32, 0u8); MAX];
    let mut distinct = 0usize;
    // Class 1 is the target's when it is not `Nil`, met or not.
    let mut next_class = 1 + u8::from(!target.is_nil());
    let mut action: Option<u32> = None;
    for (code, repr) in codes.iter_mut().zip(reprs) {
        match action {
            Some(sym) if sym == repr.action_symbol() => {}
            None if interner.action(repr.action_symbol()) == name => {
                action = Some(repr.action_symbol());
            }
            _ => return false,
        }
        let sym = repr.value_symbol();
        let class = match seen[..distinct].iter().find(|(s, _)| *s == sym) {
            Some(&(_, class)) => class,
            None => {
                let value = interner.value(sym);
                let class = if value.is_nil() {
                    0
                } else if value == target {
                    1
                } else {
                    next_class += 1;
                    next_class - 1
                };
                seen[distinct] = (sym, class);
                distinct += 1;
                class
            }
        };
        *code = class << 3 | repr.tag_byte();
    }
    true
}

/// Decodes a packed repr given its resolved action name and value.
fn decode(repr: EventRepr, name: xability_core::ActionName, value: Value) -> Event {
    let action = ActionId::with_role(name, repr.role());
    if repr.is_complete() {
        Event::complete(action, value)
    } else {
        Event::start(action, value)
    }
}

/// A zero-copy history over a range of a borrowed [`TraceStore`],
/// implementing [`HistoryRead`] — the input every checker accepts.
///
/// A view is a store reference and two indices, so it is `Copy`; slicing
/// ([`HistoryView::slice`]) is O(1); only [`HistoryView::to_history`] (for
/// the exhaustive search tier) materializes owned events.
///
/// # Examples
///
/// ```
/// use xability_core::{ActionId, ActionName, Event, HistoryRead, Value};
/// use xability_store::TraceStore;
///
/// let a = ActionId::base(ActionName::idempotent("a"));
/// let mut store = TraceStore::new();
/// store.push(&Event::start(a.clone(), Value::from(1)));
/// store.push(&Event::complete(a, Value::from(2)));
///
/// let view = store.view();
/// let prefix = view.slice(0, 1); // O(1), no copy
/// assert_eq!(prefix.len(), 1);
/// assert!(prefix.event_at(0).is_start());
/// ```
///
/// A view borrows its store, so the store cannot change while the view
/// is alive:
///
/// ```compile_fail,E0502
/// use xability_core::{ActionId, ActionName, Event, Value};
/// use xability_store::TraceStore;
///
/// let e = Event::start(ActionId::base(ActionName::idempotent("a")), Value::from(1));
/// let mut store = TraceStore::new();
/// let v = store.view();
/// store.push(&e);
/// v.len();
/// ```
#[derive(Debug, Clone, Copy)]
pub struct HistoryView<'a> {
    store: &'a TraceStore,
    start: usize,
    end: usize,
}

impl<'a> HistoryView<'a> {
    /// The number of events in the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Returns `true` if the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Decodes the event at `index` (view-relative).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn event(&self, index: usize) -> Event {
        assert!(
            index < self.len(),
            "HistoryView index {index} out of bounds"
        );
        self.store.event(self.start + index)
    }

    /// A sub-view over `start..end` (view-relative), in O(1) without
    /// copying any event.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted.
    #[must_use]
    pub fn slice(&self, start: usize, end: usize) -> HistoryView<'a> {
        assert!(start <= end && end <= self.len(), "slice out of bounds");
        HistoryView {
            store: self.store,
            start: self.start + start,
            end: self.start + end,
        }
    }

    /// Iterates the view's events in order (each decoded once).
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        (0..self.len()).map(move |i| self.event(i))
    }

    /// Materializes the view as an owned [`History`] — the lossless
    /// interned→owned conversion ([`TraceStore::from_history`] is its
    /// inverse).
    pub fn to_history(&self) -> History {
        self.iter().collect()
    }
}

impl HistoryRead for HistoryView<'_> {
    fn len(&self) -> usize {
        HistoryView::len(self)
    }

    fn event_at(&self, index: usize) -> Event {
        HistoryView::event(self, index)
    }

    fn to_history(&self) -> History {
        HistoryView::to_history(self)
    }

    fn shape_codes(
        &self,
        indices: &[usize],
        name: &ActionName,
        target: &Value,
        codes: &mut [u8],
    ) -> bool {
        let reprs = indices.iter().map(|&index| {
            assert!(index < HistoryView::len(self), "index out of bounds");
            self.store.repr(self.start + index)
        });
        packed_shape_codes(self.store.interner(), reprs, name, target, codes)
    }

    /// The store's symbols for the events past the decider's cursor, and
    /// the store's interner — which may hold values no event of this
    /// view carries; the decider matches keys by content, so it answers as
    /// if it had interned the view alone.
    fn feed_symbols(&self, decider: &mut Decider) -> Option<&Interner> {
        let interner = self.store.interner();
        for index in self.start + decider.consumed()..self.end {
            decider.observe(interner, self.store.repr(index).symbols());
        }
        Some(interner)
    }
}

impl fmt::Display for HistoryView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "Λ");
        }
        for i in 0..self.len() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}", self.event(i))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xability_core::xable::{Checker, FastChecker};

    fn idem(name: &str) -> ActionId {
        ActionId::base(ActionName::idempotent(name))
    }

    fn undo(name: &str) -> ActionId {
        ActionId::base(ActionName::undoable(name))
    }

    fn sample_history() -> History {
        let u = undo("xfer");
        let cancel = u.cancel().unwrap();
        let commit = u.commit().unwrap();
        let b = idem("get");
        [
            Event::start(u.clone(), Value::from(1)),
            Event::start(cancel.clone(), Value::from(1)),
            Event::complete(cancel, Value::Nil),
            Event::start(u.clone(), Value::from(1)),
            Event::complete(u, Value::from(7)),
            Event::start(commit.clone(), Value::from(1)),
            Event::complete(commit, Value::Nil),
            Event::start(b.clone(), Value::from(2)),
            Event::complete(b, Value::from(9)),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn repr_is_12_bytes() {
        assert_eq!(std::mem::size_of::<EventRepr>(), 12);
    }

    #[test]
    fn role_tags_are_the_action_role_codes() {
        // The tags are the trace format's; `ActionId::role` is what every
        // writer packs and `ActionId::with_role` what the reader decodes,
        // so the tags the store validates must be theirs.
        let u = undo("xfer");
        let actions = [u.clone(), u.cancel().unwrap(), u.commit().unwrap()];
        for action in &actions {
            let name = action.base_name().clone();
            assert_eq!(&ActionId::with_role(name, action.role()), action);
        }
        assert_eq!(actions.map(|a| a.role()), [ROLE_BASE, 1, ROLE_COMMIT]);
    }

    #[test]
    fn round_trip_through_store_is_lossless() {
        let h = sample_history();
        let store = TraceStore::from_history(&h);
        assert_eq!(store.len(), h.len());
        for (i, ev) in h.iter().enumerate() {
            assert_eq!(&store.event(i), ev);
        }
        assert_eq!(store.view().to_history(), h);
    }

    #[test]
    fn push_batch_equals_sequential_push() {
        let h = sample_history();
        let batched: Vec<Event> = h.iter().cloned().collect();
        let mut one_by_one = TraceStore::new();
        for ev in h.iter() {
            one_by_one.push(ev);
        }
        let mut batch = TraceStore::new();
        // Split across two batches so the memo resets mid-stream.
        let first = batch.push_batch(&batched[..4]);
        assert_eq!(first, 0);
        let second = batch.push_batch(&batched[4..]);
        assert_eq!(second, 4);
        assert_eq!(batch.push_batch(&[]), batch.len());
        assert_eq!(batch.len(), one_by_one.len());
        assert_eq!(
            batch.interner().action_count(),
            one_by_one.interner().action_count()
        );
        assert_eq!(
            batch.interner().value_count(),
            one_by_one.interner().value_count()
        );
        for i in 0..batch.len() {
            assert_eq!(batch.repr(i), one_by_one.repr(i));
        }
        assert_eq!(batch.view().to_history(), h);
    }

    #[test]
    fn interning_dedupes_symbols() {
        let h = sample_history();
        let store = TraceStore::from_history(&h);
        // 2 base names; values 1, nil, 7, 2, 9.
        assert_eq!(store.interner().action_count(), 2);
        assert_eq!(store.interner().value_count(), 5);
    }

    #[test]
    fn views_slice_in_constant_time_and_agree_with_owned_slices() {
        let h = sample_history();
        let store = TraceStore::from_history(&h);
        let view = store.view();
        let sub = view.slice(2, 7);
        assert_eq!(sub.len(), 5);
        assert_eq!(sub.to_history(), h.slice(2, 7));
        let subsub = sub.slice(1, 3);
        assert_eq!(subsub.to_history(), h.slice(3, 5));
        assert!(sub.slice(0, 0).is_empty());
    }

    /// Every event two base names, three roles and four values (`Nil`
    /// among them) allow: 48 letters, the first 24 carrying the undoable
    /// name `u`, the rest the idempotent name `a`.
    fn letters() -> History {
        let names = [ActionName::undoable("u"), ActionName::idempotent("a")];
        let values = [
            Value::Nil,
            Value::from(1),
            Value::from("x"),
            Value::pair(Value::from("k"), Value::from(1)),
        ];
        let mut events = Vec::new();
        for name in &names {
            for value in &values {
                for action in [
                    ActionId::Base(name.clone()),
                    ActionId::Cancel(name.clone()),
                    ActionId::Commit(name.clone()),
                ] {
                    events.push(Event::start(action.clone(), value.clone()));
                    events.push(Event::complete(action, value.clone()));
                }
            }
        }
        History::from_events(events)
    }

    #[test]
    fn packed_shape_codes_equal_the_decoded_ones() {
        // The view answers from tag bits and symbols, the owned history by
        // comparing values: same verdict, same codes, for every index list
        // of up to three letters (one foreign-named letter among them),
        // every target — `Nil`, three values the letters carry, one none
        // does — and both names.
        let h = letters();
        let store = TraceStore::from_history(&h);
        let view = store.view();
        let (name, foreign) = (ActionName::undoable("u"), ActionName::idempotent("a"));
        let targets = [
            Value::Nil,
            Value::from(1),
            Value::from("x"),
            Value::pair(Value::from("k"), Value::from(1)),
            Value::from(99),
        ];
        let alphabet: Vec<usize> = (0..24).chain([24 + 7]).collect();
        let mut lists: Vec<Vec<usize>> = vec![Vec::new()];
        let mut compared = 0usize;
        while let Some(indices) = lists.pop() {
            for target in &targets {
                for name in [&name, &foreign] {
                    let (mut packed, mut decoded) = ([0u8; 3], [0u8; 3]);
                    let (packed, decoded) =
                        (&mut packed[..indices.len()], &mut decoded[..indices.len()]);
                    let keyed = view.shape_codes(&indices, name, target, packed);
                    assert_eq!(
                        keyed,
                        h.shape_codes(&indices, name, target, decoded),
                        "{indices:?} as {name} / {target}"
                    );
                    if keyed {
                        assert_eq!(packed, decoded, "{indices:?} as {name} / {target}");
                    }
                    compared += 1;
                }
            }
            if indices.len() < 3 {
                for &next in &alphabet {
                    let mut longer = indices.clone();
                    longer.push(next);
                    lists.push(longer);
                }
            }
        }
        assert_eq!(compared, (1 + 25 + 25 * 25 + 25 * 25 * 25) * 10);

        // At the longest list the method takes — every letter of `u`,
        // six of them twice — and through a sub-view's offset.
        let long: Vec<usize> = (0..30).map(|k| (k * 7) % 24).collect();
        let (mut packed, mut decoded) = ([0u8; 30], [0u8; 30]);
        assert!(view.shape_codes(&long, &name, &targets[4], &mut packed));
        assert!(h.shape_codes(&long, &name, &targets[4], &mut decoded));
        assert_eq!(packed, decoded);
        let tail = view.slice(6, 24);
        let shifted: Vec<usize> = long.iter().map(|i| i % 18).collect();
        let unshifted: Vec<usize> = shifted.iter().map(|i| i + 6).collect();
        assert!(tail.shape_codes(&shifted, &name, &targets[1], &mut packed));
        assert!(h.shape_codes(&unshifted, &name, &targets[1], &mut decoded));
        assert_eq!(packed, decoded);
    }

    #[test]
    fn checks_through_a_view_hit_the_shape_memo_like_owned_ones() {
        // Every sequence of up to four letters of the undoable protocol
        // alphabet, followed by itself under a renaming: the second group
        // is answered by the shape memo (debug builds run the search
        // beside the hit), and the view — which builds the shape without
        // decoding — must answer like the owned history, whether the two
        // requests are to execute or to erase.
        let spell = |name: &str, input: Value, o1: Value, o2: Value| {
            let base = ActionId::base(ActionName::undoable(name));
            let (cancel, commit) = (base.cancel().unwrap(), base.commit().unwrap());
            let letters = vec![
                Event::start(base.clone(), input.clone()),
                Event::complete(base.clone(), o1),
                Event::complete(base.clone(), o2),
                Event::start(cancel.clone(), input.clone()),
                Event::complete(cancel, Value::Nil),
                Event::start(commit.clone(), input.clone()),
                Event::complete(commit, Value::Nil),
            ];
            (base, input, letters)
        };
        let first = spell("u", Value::from(7), Value::from(1), Value::from(2));
        let second = spell("v", Value::from("k"), Value::from(7), Value::from("x"));
        let ops = [
            (first.0.clone(), first.1.clone()),
            (second.0.clone(), second.1.clone()),
        ];
        let checker = FastChecker;
        let mut sequences: Vec<Vec<usize>> = vec![Vec::new()];
        let mut checked = 0usize;
        while let Some(picks) = sequences.pop() {
            let h: History = [&first.2, &second.2]
                .into_iter()
                .flat_map(|letters| picks.iter().map(|&i| letters[i].clone()))
                .collect();
            let store = TraceStore::from_history(&h);
            let view = store.view();
            assert_eq!(
                checker.check(&view, &ops, &[]),
                checker.check(&h, &ops, &[]),
                "executing {h}"
            );
            assert_eq!(
                checker.check(&view, &[], &ops),
                checker.check(&h, &[], &ops),
                "erasing {h}"
            );
            checked += 1;
            if picks.len() < 4 {
                for next in 0..7 {
                    let mut longer = picks.clone();
                    longer.push(next);
                    sequences.push(longer);
                }
            }
        }
        assert_eq!(checked, 2_801);
    }

    #[test]
    fn display_matches_owned_history() {
        let h = sample_history();
        let store = TraceStore::from_history(&h);
        assert_eq!(format!("{}", store.view()), format!("{h}"));
        assert_eq!(format!("{}", TraceStore::new().view()), "Λ");
    }

    #[test]
    fn approx_bytes_is_far_below_owned_size_for_repetitive_traces() {
        let a = idem("put");
        let mut store = TraceStore::new();
        let mut h = History::empty();
        for i in 0..10_000i64 {
            let s = Event::start(a.clone(), Value::from(i % 16));
            let c = Event::complete(a.clone(), Value::from(i % 16));
            store.push(&s);
            store.push(&c);
            h.push(s);
            h.push(c);
        }
        let owned = h.len() * std::mem::size_of::<Event>();
        assert!(
            store.approx_bytes() < owned,
            "store {} bytes >= owned inline {} bytes",
            store.approx_bytes(),
            owned
        );
    }
}
