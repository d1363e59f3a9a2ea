//! Histories (§2.3): totally ordered sequences of events.
//!
//! The paper's history syntax is
//!
//! ```text
//! h ::= Λ | e₁…eₙ | h₁ • … • hₙ
//! ```
//!
//! with concatenation `•` concatenating the underlying event sequences
//! (eq. 3), and the appearance predicate `(a, iv) ∈ h` holding when `h`
//! contains the start event `S(a, iv)` (§2.3).

use std::fmt;
use std::ops::Index;

use serde::{Deserialize, Serialize};

use crate::action::{ActionId, ActionName};
use crate::event::Event;
use crate::intern::Interner;
use crate::value::Value;
use crate::xable::Decider;

/// The longest index list [`HistoryRead::shape_codes`] accepts: 30 events
/// and a non-nil target carry at most 31 distinct values, which is what
/// the five class bits of a code can number.
const SHAPE_CODES_MAX: usize = 30;

/// [`HistoryRead::shape_codes`] over borrowed events — what every
/// implementation that holds (or has decoded) owned [`Event`]s shares.
fn shape_codes_of<'a>(
    events: impl ExactSizeIterator<Item = &'a Event>,
    name: &ActionName,
    target: &Value,
    codes: &mut [u8],
) -> bool {
    assert!(
        events.len() == codes.len() && codes.len() <= SHAPE_CODES_MAX,
        "shape_codes: one code per index, at most {SHAPE_CODES_MAX}"
    );
    // The distinct non-nil values met so far, `target` first: the value at
    // `seen[p]` is class `p + 1`.
    let mut seen = [target; SHAPE_CODES_MAX + 1];
    let mut distinct = usize::from(!target.is_nil());
    for (code, event) in codes.iter_mut().zip(events) {
        let (completion, action, value) = match event {
            Event::Start(a, iv) => (0u8, a, iv),
            Event::Complete(a, ov) => (1u8, a, ov),
        };
        if action.base_name() != name {
            return false;
        }
        let class = if value.is_nil() {
            0
        } else {
            match seen[..distinct].iter().position(|v| *v == value) {
                Some(p) => p + 1,
                None => {
                    seen[distinct] = value;
                    distinct += 1;
                    distinct
                }
            }
        };
        *code = (class as u8) << 3 | action.role() << 1 | completion;
    }
    true
}

/// Read-only access to a totally ordered event sequence — the checker
/// input abstraction.
///
/// Every x-ability decision procedure is ultimately a function of one
/// event stream, but the stream may live in different representations: an
/// owned [`History`] (the theory's value type) or a compact interned store
/// (the `xability-store` crate's `HistoryView`). `HistoryRead` is exactly
/// what the checkers read — length, per-index decode, index-set gathering,
/// full iteration, an owned copy for the search tier, the shape codes the
/// fast checker keys its memo with, and — from a source that has them —
/// the symbols its events were interned under — so they can run over
/// either without the caller materializing a `Vec<Event>` copy first.
///
/// The trait is object safe: checkers accept `&dyn HistoryRead`.
///
/// # Examples
///
/// ```
/// use xability_core::{ActionId, ActionName, Event, History, HistoryRead, Value};
///
/// let a = ActionId::base(ActionName::idempotent("get"));
/// let h: History = [
///     Event::start(a.clone(), Value::from(1)),
///     Event::complete(a, Value::from(42)),
/// ]
/// .into_iter()
/// .collect();
///
/// let source: &dyn HistoryRead = &h;
/// assert_eq!(source.len(), 2);
/// assert!(source.event_at(0).is_start());
/// assert_eq!(source.to_history(), h);
/// ```
pub trait HistoryRead {
    /// The number of events in the sequence.
    fn len(&self) -> usize;

    /// Returns `true` if the sequence is empty (`Λ`).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The event at `index`, decoded to an owned [`Event`].
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    fn event_at(&self, index: usize) -> Event;

    /// Calls `f` for each event in order with its index, stopping early
    /// when `f` returns `false`.
    ///
    /// Implementations that store events directly pass borrows without
    /// cloning; implementations over packed representations decode each
    /// event once.
    fn scan_events(&self, f: &mut dyn FnMut(usize, &Event) -> bool) {
        for i in 0..self.len() {
            let ev = self.event_at(i);
            if !f(i, &ev) {
                return;
            }
        }
    }

    /// Materializes the sub-history formed by the events at `indices` (in
    /// the order given) — the view-level counterpart of
    /// [`History::select`].
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    fn gather(&self, indices: &[usize]) -> History {
        indices.iter().map(|&i| self.event_at(i)).collect()
    }

    /// Materializes the whole sequence as an owned [`History`] (for the
    /// search tier, which explores by rewriting owned histories).
    fn to_history(&self) -> History {
        let mut events = Vec::with_capacity(self.len());
        self.scan_events(&mut |_, ev| {
            events.push(ev.clone());
            true
        });
        History::from_events(events)
    }

    /// Writes the *shape* of the sub-history at `indices` into `codes`,
    /// one byte per event, or returns `false` (leaving `codes`
    /// unspecified) when some event does not carry the base name `name`.
    ///
    /// The shape is everything reduction rules 18–20 and the failure-free
    /// test against `(name, target)` can tell apart in a sub-history of one
    /// base name: `codes[k]` is `class << 3 | role << 1 | completion` for
    /// the event at `indices[k]` — bit 0 set for a completion, bits 1–2
    /// the action's role (0 base, 1 cancel, 2 commit), and the class of
    /// the event's value: 0 for `Nil`, otherwise the rank (from 1) of the
    /// value's first occurrence among the non-nil values of `target,
    /// value at indices[0], value at indices[1], …`. Two sub-histories
    /// with equal codes (and equal `target.is_nil()` and name kind) differ
    /// by an injective, `Nil`-fixing renaming of the name and the values,
    /// which no rule can observe; the fast checker searches each shape
    /// once and remembers the outcome.
    ///
    /// The default decodes every event; packed representations answer
    /// from tag bits and symbols without decoding.
    ///
    /// # Panics
    ///
    /// Panics if `codes.len() != indices.len()`, if there are more than 30
    /// indices (a class must fit five bits), or if an index is out of
    /// bounds.
    fn shape_codes(
        &self,
        indices: &[usize],
        name: &ActionName,
        target: &Value,
        codes: &mut [u8],
    ) -> bool {
        let events: Vec<Event> = indices.iter().map(|&i| self.event_at(i)).collect();
        shape_codes_of(events.iter(), name, target, codes)
    }

    /// For a source whose events already sit interned: feeds `decider` the
    /// events past its cursor as the symbols they were interned under, and
    /// lends it that interner — the one every later call on `decider`
    /// about this source must be given. Nothing is decoded or interned.
    ///
    /// The default has no symbols: it feeds nothing and answers `None`, and
    /// the caller interns the events itself (an
    /// [`IncrementalState`](crate::xable::IncrementalState) does). A store
    /// view answers from the store's own symbols.
    fn feed_symbols(&self, decider: &mut Decider) -> Option<&Interner> {
        let _ = decider;
        None
    }
}

/// A history: a finite sequence of [`Event`]s in observation order.
///
/// Histories are ordinary values: they can be concatenated, sliced, compared,
/// hashed and iterated. The empty history is the paper's `Λ`.
///
/// # Examples
///
/// ```
/// use xability_core::{ActionId, ActionName, Event, History, Value};
///
/// let a = ActionId::base(ActionName::idempotent("get"));
/// let h: History = [
///     Event::start(a.clone(), Value::from(1)),
///     Event::complete(a.clone(), Value::from(42)),
/// ]
/// .into_iter()
/// .collect();
///
/// assert_eq!(h.len(), 2);
/// assert!(h.appears(&a, &Value::from(1))); // (a, 1) ∈ h
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct History {
    events: Vec<Event>,
}

impl History {
    /// The empty history `Λ`.
    pub fn empty() -> Self {
        History { events: Vec::new() }
    }

    /// Creates a history from a vector of events.
    pub fn from_events(events: Vec<Event>) -> Self {
        History { events }
    }

    /// The number of events in the history.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if this is the empty history `Λ`.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events of the history, in observation order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Iterates over the events in observation order.
    pub fn iter(&self) -> std::slice::Iter<'_, Event> {
        self.events.iter()
    }

    /// Appends an event to the history.
    pub fn push(&mut self, event: Event) {
        self.events.push(event);
    }

    /// Concatenation `self • other` (eq. 3).
    ///
    /// # Examples
    ///
    /// ```
    /// use xability_core::History;
    /// let h = History::empty().concat(&History::empty());
    /// assert!(h.is_empty());
    /// ```
    #[must_use]
    pub fn concat(&self, other: &History) -> History {
        let mut events = Vec::with_capacity(self.len() + other.len());
        events.extend_from_slice(&self.events);
        events.extend_from_slice(&other.events);
        History { events }
    }

    /// Concatenates a sequence of histories `h₁ • … • hₙ`.
    pub fn concat_all<'a, I: IntoIterator<Item = &'a History>>(parts: I) -> History {
        let mut events = Vec::new();
        for part in parts {
            events.extend_from_slice(&part.events);
        }
        History { events }
    }

    /// The appearance predicate `(a, iv) ∈ h` (§2.3): `true` iff the history
    /// contains the start event `S(a, iv)`.
    ///
    /// Note that, as in the paper, only *start* events witness appearance;
    /// completion events do not carry the input value.
    pub fn appears(&self, action: &ActionId, input: &Value) -> bool {
        self.events.iter().any(|e| e.is_start_of(action, input))
    }

    /// The event `first(h)` selects (Fig. 3), borrowed: the first event,
    /// or `None` for `Λ`. Use this wherever a view suffices; [`first`]
    /// (returning an owned sub-history) exists for paper fidelity.
    ///
    /// [`first`]: History::first
    pub fn first_event(&self) -> Option<&Event> {
        self.events.first()
    }

    /// The event `second(h)` selects (Fig. 3), borrowed: the second event
    /// of a two-event history, the only event of a one-event history, and
    /// `None` otherwise (mirroring the paper's slightly surprising
    /// `second(e) = e` case for singletons).
    pub fn second_event(&self) -> Option<&Event> {
        match self.events.len() {
            1 => self.events.first(),
            2 => self.events.get(1),
            _ => None,
        }
    }

    /// `first(h)` (Fig. 3): the first event of the history as a (sub-)history,
    /// or `Λ` if the history is empty.
    ///
    /// Materializes a one-event history; prefer [`History::first_event`]
    /// where a borrowed view suffices.
    #[must_use]
    pub fn first(&self) -> History {
        match self.first_event() {
            Some(e) => History::from_events(vec![e.clone()]),
            None => History::empty(),
        }
    }

    /// `second(h)` (Fig. 3): the second event of a two-event history, the
    /// only event of a one-event history, and `Λ` otherwise.
    ///
    /// Materializes a one-event history; prefer [`History::second_event`]
    /// where a borrowed view suffices.
    #[must_use]
    pub fn second(&self) -> History {
        match self.second_event() {
            Some(e) => History::from_events(vec![e.clone()]),
            None => History::empty(),
        }
    }

    /// Returns the contiguous sub-history `h[start..end]`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds, like slice indexing.
    #[must_use]
    pub fn slice(&self, start: usize, end: usize) -> History {
        History::from_events(self.events[start..end].to_vec())
    }

    /// Returns the sub-history formed by the events at `indices`
    /// (in the order given).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    #[must_use]
    pub fn select(&self, indices: &[usize]) -> History {
        History::from_events(indices.iter().map(|&i| self.events[i].clone()).collect())
    }

    /// Returns the sub-history of events whose indices are *not* in
    /// `excluded` (which must be sorted ascending).
    #[must_use]
    pub fn without_sorted(&self, excluded: &[usize]) -> History {
        debug_assert!(excluded.windows(2).all(|w| w[0] < w[1]));
        let mut out = Vec::with_capacity(self.len().saturating_sub(excluded.len()));
        let mut ex = excluded.iter().peekable();
        for (i, e) in self.events.iter().enumerate() {
            if ex.peek() == Some(&&i) {
                ex.next();
            } else {
                out.push(e.clone());
            }
        }
        History { events: out }
    }

    /// Counts the start events of `(action, input)`.
    pub fn count_starts(&self, action: &ActionId, input: &Value) -> usize {
        self.events
            .iter()
            .filter(|e| e.is_start_of(action, input))
            .count()
    }

    /// Counts the completion events of `action` (any output).
    pub fn count_completions(&self, action: &ActionId) -> usize {
        self.events
            .iter()
            .filter(|e| e.is_completion_of(action))
            .count()
    }
}

impl HistoryRead for History {
    fn len(&self) -> usize {
        self.events.len()
    }

    fn event_at(&self, index: usize) -> Event {
        self.events[index].clone()
    }

    fn scan_events(&self, f: &mut dyn FnMut(usize, &Event) -> bool) {
        for (i, ev) in self.events.iter().enumerate() {
            if !f(i, ev) {
                return;
            }
        }
    }

    fn gather(&self, indices: &[usize]) -> History {
        self.select(indices)
    }

    fn to_history(&self) -> History {
        self.clone()
    }

    fn shape_codes(
        &self,
        indices: &[usize],
        name: &ActionName,
        target: &Value,
        codes: &mut [u8],
    ) -> bool {
        let events = indices.iter().map(|&i| &self.events[i]);
        shape_codes_of(events, name, target, codes)
    }
}

impl Index<usize> for History {
    type Output = Event;

    fn index(&self, index: usize) -> &Event {
        &self.events[index]
    }
}

impl FromIterator<Event> for History {
    fn from_iter<I: IntoIterator<Item = Event>>(iter: I) -> Self {
        History {
            events: iter.into_iter().collect(),
        }
    }
}

impl Extend<Event> for History {
    fn extend<I: IntoIterator<Item = Event>>(&mut self, iter: I) {
        self.events.extend(iter);
    }
}

impl IntoIterator for History {
    type Item = Event;
    type IntoIter = std::vec::IntoIter<Event>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.into_iter()
    }
}

impl<'a> IntoIterator for &'a History {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

impl From<Vec<Event>> for History {
    fn from(events: Vec<Event>) -> Self {
        History { events }
    }
}

impl fmt::Display for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "Λ");
        }
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{e}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionName;

    fn a() -> ActionId {
        ActionId::base(ActionName::idempotent("a"))
    }

    fn b() -> ActionId {
        ActionId::base(ActionName::undoable("b"))
    }

    fn s(action: ActionId, v: i64) -> Event {
        Event::start(action, Value::from(v))
    }

    fn c(action: ActionId, v: i64) -> Event {
        Event::complete(action, Value::from(v))
    }

    #[test]
    fn empty_history_is_lambda() {
        let h = History::empty();
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
        assert_eq!(format!("{h}"), "Λ");
        assert_eq!(h, History::default());
    }

    #[test]
    fn concat_matches_sequence_concatenation() {
        let h1: History = [s(a(), 1), c(a(), 2)].into_iter().collect();
        let h2: History = [s(b(), 3)].into_iter().collect();
        let h = h1.concat(&h2);
        assert_eq!(h.len(), 3);
        assert_eq!(h[0], s(a(), 1));
        assert_eq!(h[2], s(b(), 3));
        // Λ is the identity of •.
        assert_eq!(h1.concat(&History::empty()), h1);
        assert_eq!(History::empty().concat(&h1), h1);
    }

    #[test]
    fn concat_all_folds_left_to_right() {
        let h1: History = [s(a(), 1)].into_iter().collect();
        let h2: History = [s(b(), 2)].into_iter().collect();
        let h3: History = [c(a(), 3)].into_iter().collect();
        let h = History::concat_all([&h1, &h2, &h3]);
        assert_eq!(h.events(), &[s(a(), 1), s(b(), 2), c(a(), 3)]);
    }

    #[test]
    fn appearance_predicate_only_counts_starts() {
        let h: History = [c(a(), 1), s(a(), 1)].into_iter().collect();
        assert!(h.appears(&a(), &Value::from(1)));
        assert!(!h.appears(&a(), &Value::from(2)));
        // A completion alone does not witness appearance.
        let h2: History = [c(a(), 1)].into_iter().collect();
        assert!(!h2.appears(&a(), &Value::from(1)));
    }

    #[test]
    fn first_and_second_match_figure_3() {
        let e1 = s(a(), 1);
        let e2 = c(a(), 2);

        let empty = History::empty();
        assert_eq!(empty.first(), History::empty());
        assert_eq!(empty.second(), History::empty());

        let single: History = [e1.clone()].into_iter().collect();
        assert_eq!(single.first().events(), std::slice::from_ref(&e1));
        // second(e) = e for singleton histories.
        assert_eq!(single.second().events(), std::slice::from_ref(&e1));

        let double: History = [e1.clone(), e2.clone()].into_iter().collect();
        assert_eq!(double.first().events(), std::slice::from_ref(&e1));
        assert_eq!(double.second().events(), std::slice::from_ref(&e2));

        // Histories longer than two events: second is Λ per the paper.
        let triple: History = [e1.clone(), e2.clone(), e1].into_iter().collect();
        assert_eq!(triple.second(), History::empty());
    }

    #[test]
    fn slice_and_select() {
        let h: History = [s(a(), 1), c(a(), 2), s(b(), 3)].into_iter().collect();
        assert_eq!(h.slice(1, 3).events(), &[c(a(), 2), s(b(), 3)]);
        assert_eq!(h.select(&[2, 0]).events(), &[s(b(), 3), s(a(), 1)]);
        assert!(h.slice(1, 1).is_empty());
    }

    #[test]
    fn without_sorted_removes_exactly_those_indices() {
        let h: History = [s(a(), 1), c(a(), 2), s(b(), 3), c(b(), 4)]
            .into_iter()
            .collect();
        let out = h.without_sorted(&[0, 2]);
        assert_eq!(out.events(), &[c(a(), 2), c(b(), 4)]);
        assert_eq!(h.without_sorted(&[]), h);
        assert!(h.without_sorted(&[0, 1, 2, 3]).is_empty());
    }

    #[test]
    fn counting_helpers() {
        let h: History = [s(a(), 1), s(a(), 1), c(a(), 7), s(a(), 2)]
            .into_iter()
            .collect();
        assert_eq!(h.count_starts(&a(), &Value::from(1)), 2);
        assert_eq!(h.count_starts(&a(), &Value::from(2)), 1);
        assert_eq!(h.count_completions(&a()), 1);
        assert_eq!(h.count_completions(&b()), 0);
    }

    #[test]
    fn duplicate_event_values_are_allowed() {
        // Retries produce textually identical events; histories are
        // sequences, not sets.
        let h: History = [s(a(), 1), s(a(), 1)].into_iter().collect();
        assert_eq!(h.len(), 2);
        assert_eq!(h[0], h[1]);
    }

    #[test]
    fn borrowed_first_and_second_match_owned() {
        let e1 = s(a(), 1);
        let e2 = c(a(), 2);
        for events in [
            vec![],
            vec![e1.clone()],
            vec![e1.clone(), e2.clone()],
            vec![e1.clone(), e2, e1],
        ] {
            let h = History::from_events(events);
            assert_eq!(h.first().events(), h.first_event().cloned().as_slice_opt());
            assert_eq!(
                h.second().events(),
                h.second_event().cloned().as_slice_opt()
            );
        }
    }

    /// Helper: an `Option<Event>` as the slice its one-event history holds.
    trait AsSliceOpt {
        fn as_slice_opt(&self) -> &[Event];
    }
    impl AsSliceOpt for Option<Event> {
        fn as_slice_opt(&self) -> &[Event] {
            self.as_ref().map(std::slice::from_ref).unwrap_or(&[])
        }
    }

    #[test]
    fn history_read_object_matches_inherent_surface() {
        let h: History = [s(a(), 1), c(a(), 2), s(b(), 3)].into_iter().collect();
        let src: &dyn HistoryRead = &h;
        assert_eq!(src.len(), 3);
        assert_eq!(src.event_at(2), h[2]);
        assert_eq!(src.gather(&[2, 0]), h.select(&[2, 0]));
        assert_eq!(src.to_history(), h);
        let mut seen = Vec::new();
        src.scan_events(&mut |i, ev| {
            seen.push((i, ev.clone()));
            i < 1 // stop after the second event
        });
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[1].1, h[1]);
    }

    #[test]
    fn display_is_never_empty() {
        assert_eq!(format!("{}", History::empty()), "Λ");
        let h: History = [s(a(), 1)].into_iter().collect();
        assert!(format!("{h}").contains("S(aⁱ, 1)"));
    }
}
