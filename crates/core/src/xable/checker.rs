//! The unified x-ability decision API: one [`Verdict`] vocabulary, one
//! [`Checker`] trait, three deciders.
//!
//! Historically the crate exposed two mismatched surfaces — the exhaustive
//! search returned `SearchResult` while the polynomial checker returned its
//! own `Verdict` — and every caller hand-rolled the "try fast, fall back to
//! search" escalation. This module is the single entry point:
//!
//! * [`SearchChecker`] — the reference semantics (breadth-first exploration
//!   of the reduction closure ⇒\*, Fig. 4 rule 17). Complete up to an
//!   explicit [`SearchBudget`], exponential in the worst case.
//! * [`FastChecker`] — the polynomial checker for protocol-shaped
//!   histories (per-group decisions plus effect ordering, DESIGN.md §4.3).
//!   Answers [`Verdict::Unknown`] outside its class. It has no decision
//!   code of its own: each question builds a cold
//!   [`IncrementalState`], declares the question's requests, feeds it the
//!   whole source and reads the online checker's aggregate once.
//! * [`TieredChecker`] — the escalation policy: ask the fast checker
//!   first, and escalate an `Unknown` to the exhaustive search when the
//!   history is small enough for the search to be affordable.
//!
//! For online verification — deciding x-ability *while* a history is still
//! being produced — keep that state warm instead:
//! [`super::incremental::IncrementalChecker`] maintains it across
//! `push`es.
//!
//! # Examples
//!
//! ```
//! use xability_core::xable::{Checker, TieredChecker};
//! use xability_core::{ActionId, ActionName, Event, History, Value};
//!
//! let ping = ActionId::base(ActionName::idempotent("ping"));
//! let h: History = [
//!     Event::start(ping.clone(), Value::Nil),             // failed attempt
//!     Event::start(ping.clone(), Value::Nil),             // retry
//!     Event::complete(ping.clone(), Value::from("pong")), // success
//! ]
//! .into_iter()
//! .collect();
//!
//! let verdict = TieredChecker::default().check(&h, &[(ping, Value::Nil)], &[]);
//! assert!(verdict.is_xable());
//! assert_eq!(verdict.outputs(), Some(&vec![Value::from("pong")].into()));
//! ```

use std::fmt;

use crate::action::{ActionId, Request};
use crate::failure_free::failure_free_sequence_outputs;
use crate::history::{History, HistoryRead};
use crate::seglog::LogView;
use crate::value::Value;
use crate::xable::incremental::IncrementalState;
use crate::xable::search::{is_xable_search, SearchBudget, SearchResult};

/// Evidence accompanying a positive verdict.
///
/// Every decider reports the agreed output of each surviving request; the
/// exhaustive search additionally materializes the failure-free history it
/// reduced to.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Witness {
    /// Output value of each surviving request, in submission order — a
    /// view, so that the online checker's verdicts share the outputs they
    /// have in common instead of each copying all of them. Views compare
    /// by content: a batch verdict (one owned vector) equals an online
    /// one (shared segments) exactly when the outputs are equal.
    pub outputs: LogView<Value>,
    /// The failure-free history reached by reduction, when the decider
    /// materializes one (the fast checker decides per group and does not).
    pub reduced: Option<History>,
}

impl Witness {
    /// A witness carrying only the per-request outputs.
    pub fn from_outputs(outputs: LogView<Value>) -> Self {
        Witness {
            outputs,
            reduced: None,
        }
    }
}

/// The answer of an x-ability decision procedure.
///
/// This is the one verdict vocabulary shared by every checker in the crate
/// (the historical `xable::fast::Verdict` is a re-export of this type).
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use = "a verdict reports nothing by itself; inspect or propagate it"]
pub enum Verdict {
    /// The history is x-able; the witness carries the evidence.
    Xable {
        /// Outputs (and, for the search tier, the reduced history).
        witness: Witness,
    },
    /// The history is definitely not x-able.
    NotXable {
        /// Human-readable explanation of the first violation found.
        reason: String,
    },
    /// The decider could not decide (out of class, or out of budget).
    Unknown {
        /// Why the decider could not decide.
        reason: String,
    },
}

impl Verdict {
    /// A positive verdict carrying only request outputs.
    pub fn xable(outputs: Vec<Value>) -> Self {
        Verdict::Xable {
            witness: Witness::from_outputs(outputs.into()),
        }
    }

    /// Returns `true` if the verdict is [`Verdict::Xable`].
    #[must_use]
    pub fn is_xable(&self) -> bool {
        matches!(self, Verdict::Xable { .. })
    }

    /// Returns `true` if the verdict is [`Verdict::NotXable`].
    #[must_use]
    pub fn is_not_xable(&self) -> bool {
        matches!(self, Verdict::NotXable { .. })
    }

    /// Returns `true` if the verdict is [`Verdict::Unknown`].
    #[must_use]
    pub fn is_unknown(&self) -> bool {
        matches!(self, Verdict::Unknown { .. })
    }

    /// The surviving requests' outputs, when the verdict is positive.
    #[must_use]
    pub fn outputs(&self) -> Option<&LogView<Value>> {
        match self {
            Verdict::Xable { witness } => Some(&witness.outputs),
            _ => None,
        }
    }

    /// The explanation, when the verdict is negative or indefinite.
    #[must_use]
    pub fn reason(&self) -> Option<&str> {
        match self {
            Verdict::Xable { .. } => None,
            Verdict::NotXable { reason } | Verdict::Unknown { reason } => Some(reason),
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Xable { witness } => {
                write!(f, "x-able ({} outputs)", witness.outputs.len())
            }
            Verdict::NotXable { reason } => write!(f, "not x-able: {reason}"),
            Verdict::Unknown { reason } => write!(f, "unknown: {reason}"),
        }
    }
}

/// A decision procedure for the x-able predicate (§3.2, eq. 23) and its
/// multi-request extension (§4, R3).
///
/// Implementations differ in completeness and cost, not in vocabulary:
/// every checker consumes the same query shape and produces a [`Verdict`].
pub trait Checker {
    /// A short name identifying the decision procedure (for reports).
    fn name(&self) -> &'static str;

    /// Decides whether `h` is x-able with respect to the ordered request
    /// sequence `ops`, additionally allowing the requests in `erasable` to
    /// have left events that reduce to nothing (the R3 "last request may
    /// have been abandoned" case).
    fn check(
        &self,
        h: &History,
        ops: &[(ActionId, Value)],
        erasable: &[(ActionId, Value)],
    ) -> Verdict;

    /// The R3 obligation (§4) for a sequence of client requests: `h` must
    /// be x-able with respect to `R₁…Rₙ` *or* `R₁…Rₙ₋₁` (the last request
    /// may have been abandoned if the client failed before retrying).
    ///
    /// Tries the full sequence first, then the prefix with the last
    /// request erasable. [`Verdict::Unknown`] propagates only if neither
    /// attempt gives a definite positive.
    fn check_requests(&self, h: &History, requests: &[Request]) -> Verdict {
        let ops: Vec<(ActionId, Value)> = requests
            .iter()
            .map(|r| (r.action().clone(), r.input().clone()))
            .collect();
        combine_r3_over(&ops, |ops, erasable| self.check(h, ops, erasable))
    }

    /// [`check`](Checker::check) over any [`HistoryRead`] source — a
    /// zero-copy store view, a borrowed window, or an owned history.
    ///
    /// The default implementation materializes the source once and
    /// delegates; deciders that can run directly over a view (the fast
    /// tier) override it to avoid the copy.
    fn check_source(
        &self,
        h: &dyn HistoryRead,
        ops: &[(ActionId, Value)],
        erasable: &[(ActionId, Value)],
    ) -> Verdict {
        self.check(&h.to_history(), ops, erasable)
    }

    /// [`check_requests`](Checker::check_requests) over any
    /// [`HistoryRead`] source.
    fn check_requests_source(&self, h: &dyn HistoryRead, requests: &[Request]) -> Verdict {
        self.check_requests(&h.to_history(), requests)
    }
}

/// Shared R3 combination logic over a declared sequence of `declared`
/// requests: try the full sequence, then the prefix with the last request
/// erasable, and pick the more informative verdict. `attempt(executed,
/// abandoned)` answers for the first `executed` requests executing and —
/// on the second attempt — request `abandoned` erasing.
///
/// Shared by the trait's default [`Checker::check_requests`] and the
/// incremental state behind the fast tier, so every decider combines the
/// two attempts identically; it runs over lengths so the incremental
/// state, which keeps no request list, needs none.
pub(crate) fn combine_r3_attempts(
    declared: usize,
    mut attempt: impl FnMut(usize, Option<usize>) -> Verdict,
) -> Verdict {
    let full = attempt(declared, None);
    if full.is_xable() || declared == 0 {
        return full;
    }
    let last = declared - 1;
    let partial = attempt(last, Some(last));
    if partial.is_xable() {
        return partial;
    }
    // Prefer a definite negative; otherwise report the more informative
    // indefinite answer.
    match (&full, &partial) {
        (Verdict::NotXable { .. }, Verdict::NotXable { .. }) => full,
        (Verdict::Unknown { .. }, _) => full,
        (_, Verdict::Unknown { .. }) => partial,
        _ => full,
    }
}

/// [`combine_r3_attempts`] for a decider that takes its question as
/// `(ops, erasable)` slices of one request list.
pub(crate) fn combine_r3_over(
    ops: &[(ActionId, Value)],
    mut attempt: impl FnMut(&[(ActionId, Value)], &[(ActionId, Value)]) -> Verdict,
) -> Verdict {
    combine_r3_attempts(ops.len(), |executed, abandoned| {
        let erasable = abandoned.map_or(&[][..], |last| std::slice::from_ref(&ops[last]));
        attempt(&ops[..executed], erasable)
    })
}

/// The reference decider: exhaustive breadth-first search for a reduction
/// of the whole history to the ordered concatenation of failure-free
/// histories (the strict reading of eq. 23 / R3).
///
/// Complete up to its [`SearchBudget`]; exponential in the worst case, so
/// only suitable for small histories (unit tests, escalation of fast-tier
/// `Unknown`s, cross-validation oracles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchChecker {
    /// Budget for the breadth-first exploration.
    pub budget: SearchBudget,
}

impl SearchChecker {
    /// A search checker with an explicit budget.
    pub fn new(budget: SearchBudget) -> Self {
        SearchChecker { budget }
    }
}

impl Checker for SearchChecker {
    fn name(&self) -> &'static str {
        "search"
    }

    /// Note that `erasable` is ignored: the strict reduction target —
    /// `eventsof(op₁) • … • eventsof(opₙ)` — already demands that every
    /// event outside the request groups reduces away, so declaring a
    /// request erasable neither widens nor narrows the target.
    fn check(
        &self,
        h: &History,
        ops: &[(ActionId, Value)],
        _erasable: &[(ActionId, Value)],
    ) -> Verdict {
        match is_xable_search(h, ops, self.budget) {
            SearchResult::Reached(witness) => {
                let outputs = failure_free_sequence_outputs(ops, &witness)
                    .expect("search goal guarantees failure-free shape");
                Verdict::Xable {
                    witness: Witness {
                        outputs: outputs.into(),
                        reduced: Some(witness),
                    },
                }
            }
            SearchResult::Exhausted => Verdict::NotXable {
                reason: "the reduction closure contains no ordered concatenation of \
                         failure-free histories for the request sequence"
                    .to_owned(),
            },
            SearchResult::BudgetExceeded => Verdict::Unknown {
                reason: "exhaustive search budget exceeded".to_owned(),
            },
        }
    }
}

/// The polynomial decider for protocol-shaped histories (DESIGN.md §4.3):
/// per-`(action, input)` group decisions by small bounded searches, plus
/// the effect-ordering condition across groups.
///
/// Sound in both directions where definite; answers [`Verdict::Unknown`]
/// when a history falls outside its class or a per-group search runs out
/// of `group_budget`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastChecker {
    /// Budget for each per-group reduction search.
    pub group_budget: SearchBudget,
}

impl FastChecker {
    /// A fast checker with an explicit per-group budget.
    pub fn new(group_budget: SearchBudget) -> Self {
        FastChecker { group_budget }
    }

    /// [`Checker::check_requests_source`] under its old parallel name:
    /// `workers` is ignored, and there is no code path of its own. Kept
    /// only because the benchmark's `core.check_sharded_speedup_2w` probe
    /// calls it; the method goes together with that probe in the next
    /// benchmark refresh (ROADMAP item 7).
    pub fn check_requests_sharded<H: HistoryRead>(
        &self,
        h: &H,
        requests: &[Request],
        _workers: usize,
    ) -> Verdict {
        self.check_requests_source(h, requests)
    }

    /// The one decider fed all at once: a cold [`IncrementalState`] with
    /// this checker's budget, `requests` declared in order, and every
    /// event of `h` consumed.
    fn cold_state<'a>(
        &self,
        h: &dyn HistoryRead,
        requests: impl Iterator<Item = (&'a ActionId, &'a Value)>,
    ) -> IncrementalState {
        let mut state = IncrementalState::with_budget(self.group_budget);
        for (action, input) in requests {
            state.declare(action.clone(), input.clone());
        }
        state.catch_up(h);
        state
    }
}

impl Default for FastChecker {
    fn default() -> Self {
        FastChecker {
            group_budget: SearchBudget::small(),
        }
    }
}

impl Checker for FastChecker {
    fn name(&self) -> &'static str {
        "fast"
    }

    fn check(
        &self,
        h: &History,
        ops: &[(ActionId, Value)],
        erasable: &[(ActionId, Value)],
    ) -> Verdict {
        self.check_source(h, ops, erasable)
    }

    /// Overridden to partition once and share the per-group memo cells
    /// between the full-sequence and last-request-abandoned attempts.
    fn check_requests(&self, h: &History, requests: &[Request]) -> Verdict {
        self.check_requests_source(h, requests)
    }

    /// Overridden to run natively over the view: the partition and every
    /// per-group search read events through [`HistoryRead`], so no owned
    /// copy of the source is ever built. `ops` are declared first and
    /// `erasable` after them, and one attempt is read.
    fn check_source(
        &self,
        h: &dyn HistoryRead,
        ops: &[(ActionId, Value)],
        erasable: &[(ActionId, Value)],
    ) -> Verdict {
        let declared = ops.iter().chain(erasable).map(|(a, v)| (a, v));
        let executed = ops.len();
        self.cold_state(h, declared)
            .attempt_over(h, executed, executed..executed + erasable.len())
    }

    /// Overridden to read the view once into one state, whose per-group
    /// memo cells the full-sequence and last-request-abandoned attempts
    /// share.
    fn check_requests_source(&self, h: &dyn HistoryRead, requests: &[Request]) -> Verdict {
        let declared = requests.iter().map(|r| (r.action(), r.input()));
        self.cold_state(h, declared).verdict_over(h)
    }
}

/// The escalation policy callers used to hand-roll: ask the fast tier,
/// and escalate an [`Verdict::Unknown`] to the exhaustive search when the
/// history is short enough for the search to be affordable.
///
/// Definite fast-tier answers are final — the fast checker is sound where
/// definite, and on single-group questions the two tiers coincide. An
/// escalated answer is the *strict* ordered-concatenation reading of R3
/// (see DESIGN.md §4.3 for where that is deliberately narrower than the
/// fast tier's effect-ordered reading).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TieredChecker {
    /// Tier 1: the polynomial checker.
    pub fast: FastChecker,
    /// Tier 2: the exhaustive search, consulted on fast-tier `Unknown`s.
    pub search: SearchChecker,
    /// Do not escalate histories longer than this: the search frontier
    /// grows exponentially with history length, so past a few dozen
    /// events even a budgeted search wastes its whole budget to answer
    /// `Unknown` slowly.
    pub max_search_events: usize,
}

impl TieredChecker {
    /// A tiered checker with explicit per-tier budgets.
    pub fn new(fast: FastChecker, search: SearchChecker, max_search_events: usize) -> Self {
        TieredChecker {
            fast,
            search,
            max_search_events,
        }
    }
}

impl Default for TieredChecker {
    fn default() -> Self {
        TieredChecker {
            fast: FastChecker::default(),
            search: SearchChecker::default(),
            max_search_events: 48,
        }
    }
}

/// `true` when the history contains a §5.4 round-stamped event: a start
/// of an undoable base action whose input has the `Pair(base input,
/// round)` shape the fast tier adopts into its parent request. The strict
/// search tier has no adoption rule — it reads each stamped round as an
/// unrelated request and condemns histories the fast tier merely finds
/// ambiguous — so escalation must not cross this language boundary.
fn contains_round_stamped(h: &dyn HistoryRead) -> bool {
    let mut found = false;
    h.scan_events(&mut |_, e| {
        found = e.action().is_undoable_base()
            && e.is_start()
            && matches!(e.value(), Value::Pair(p) if matches!(p.1, Value::Int(_)));
        !found
    });
    found
}

impl TieredChecker {
    /// The escalation policy shared by both entry points: pass a definite
    /// fast-tier verdict through, refuse to escalate long or round-stamped
    /// histories, and otherwise consult the search tier, combining reasons
    /// if it is undecided too.
    fn escalate(
        &self,
        history_len: usize,
        fast: Verdict,
        stamped: impl FnOnce() -> bool,
        search_tier: impl FnOnce(&SearchChecker) -> Verdict,
    ) -> Verdict {
        let Verdict::Unknown { reason } = fast else {
            return fast;
        };
        if history_len > self.max_search_events {
            return Verdict::Unknown {
                reason: format!(
                    "{reason}; history too long to escalate to exhaustive search \
                     ({history_len} > {} events)",
                    self.max_search_events
                ),
            };
        }
        if stamped() {
            return Verdict::Unknown {
                reason: format!(
                    "{reason}; history contains round-stamped events outside the \
                     search tier's language (§5.4 adoption is a fast-tier rule), \
                     not escalating"
                ),
            };
        }
        match search_tier(&self.search) {
            Verdict::Unknown {
                reason: search_reason,
            } => Verdict::Unknown {
                reason: format!("fast tier: {reason}; search tier: {search_reason}"),
            },
            definite => definite,
        }
    }
}

impl Checker for TieredChecker {
    fn name(&self) -> &'static str {
        "tiered"
    }

    fn check(
        &self,
        h: &History,
        ops: &[(ActionId, Value)],
        erasable: &[(ActionId, Value)],
    ) -> Verdict {
        let fast = self.fast.check(h, ops, erasable);
        self.escalate(
            h.len(),
            fast,
            || contains_round_stamped(h),
            |search| search.check(h, ops, erasable),
        )
    }

    /// Overridden so the fast tier partitions once and shares its
    /// per-group memo cells between the full-sequence and
    /// last-request-abandoned attempts; the search tier is consulted only
    /// if the combined fast answer is `Unknown` (and the history is short
    /// enough to escalate).
    fn check_requests(&self, h: &History, requests: &[Request]) -> Verdict {
        let fast = self.fast.check_requests(h, requests);
        self.escalate(
            h.len(),
            fast,
            || contains_round_stamped(h),
            |search| search.check_requests(h, requests),
        )
    }

    /// Overridden so the fast tier runs zero-copy over the view; the
    /// source is materialized only when a small `Unknown` actually
    /// escalates to the search tier.
    fn check_source(
        &self,
        h: &dyn HistoryRead,
        ops: &[(ActionId, Value)],
        erasable: &[(ActionId, Value)],
    ) -> Verdict {
        let fast = self.fast.check_source(h, ops, erasable);
        self.escalate(
            h.len(),
            fast,
            || contains_round_stamped(h),
            |search| search.check(&h.to_history(), ops, erasable),
        )
    }

    /// Overridden so the fast tier runs zero-copy over the view; the
    /// source is materialized only when a small `Unknown` actually
    /// escalates to the search tier.
    fn check_requests_source(&self, h: &dyn HistoryRead, requests: &[Request]) -> Verdict {
        let fast = self.fast.check_requests_source(h, requests);
        self.escalate(
            h.len(),
            fast,
            || contains_round_stamped(h),
            |search| search.check_requests(&h.to_history(), requests),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionName;
    use crate::event::Event;
    use crate::failure_free::eventsof;

    fn idem(name: &str) -> ActionId {
        ActionId::base(ActionName::idempotent(name))
    }

    fn s(a: &ActionId, v: i64) -> Event {
        Event::start(a.clone(), Value::from(v))
    }

    fn c(a: &ActionId, v: i64) -> Event {
        Event::complete(a.clone(), Value::from(v))
    }

    #[test]
    fn all_checkers_accept_a_failure_free_history() {
        let a = idem("a");
        let h = eventsof(&a, &Value::from(1), &Value::from(5));
        let ops = [(a, Value::from(1))];
        for checker in [
            &SearchChecker::default() as &dyn Checker,
            &FastChecker::default(),
            &TieredChecker::default(),
        ] {
            let v = checker.check(&h, &ops, &[]);
            assert!(v.is_xable(), "{}: {v}", checker.name());
            assert_eq!(v.outputs(), Some(&vec![Value::from(5)].into()));
        }
    }

    #[test]
    fn all_checkers_reject_disagreeing_outputs() {
        let a = idem("a");
        let h: History = [s(&a, 1), c(&a, 5), s(&a, 1), c(&a, 6)]
            .into_iter()
            .collect();
        let ops = [(a, Value::from(1))];
        for checker in [
            &SearchChecker::default() as &dyn Checker,
            &FastChecker::default(),
            &TieredChecker::default(),
        ] {
            let v = checker.check(&h, &ops, &[]);
            assert!(v.is_not_xable(), "{}: {v}", checker.name());
            assert!(v.reason().is_some());
        }
    }

    #[test]
    fn search_checker_materializes_the_reduced_history() {
        let a = idem("a");
        let h: History = [s(&a, 1), s(&a, 1), c(&a, 5)].into_iter().collect();
        let ops = [(a.clone(), Value::from(1))];
        let v = SearchChecker::default().check(&h, &ops, &[]);
        let Verdict::Xable { witness } = v else {
            panic!("expected x-able, got {v}");
        };
        let reduced = witness.reduced.expect("search materializes a witness");
        assert_eq!(reduced, eventsof(&a, &Value::from(1), &Value::from(5)));
    }

    #[test]
    fn tiered_checker_escalates_fast_unknowns() {
        // Ambiguous completion attribution: two distinct inputs open when a
        // completion arrives. The fast tier answers Unknown; the search
        // tier can still decide the small history definitively.
        let a = idem("a");
        let h: History = [
            Event::start(a.clone(), Value::from(1)),
            Event::start(a.clone(), Value::from(2)),
            Event::complete(a.clone(), Value::from(7)),
            Event::complete(a.clone(), Value::from(7)),
        ]
        .into_iter()
        .collect();
        let ops = [(a.clone(), Value::from(1)), (a, Value::from(2))];
        let fast = FastChecker::default().check(&h, &ops, &[]);
        assert!(
            fast.is_unknown(),
            "precondition: fast tier undecided ({fast})"
        );
        let tiered = TieredChecker::default().check(&h, &ops, &[]);
        assert!(!tiered.is_unknown(), "escalation must decide: {tiered}");
    }

    #[test]
    fn tiered_checker_refuses_to_escalate_long_histories() {
        let a = idem("a");
        // Ambiguous shape as above, padded far past the escalation cutoff.
        let mut events = vec![
            Event::start(a.clone(), Value::from(1)),
            Event::start(a.clone(), Value::from(2)),
            Event::complete(a.clone(), Value::from(7)),
            Event::complete(a.clone(), Value::from(7)),
        ];
        for i in 0..60 {
            let junk = idem(&format!("junk{i}"));
            events.push(Event::start(junk.clone(), Value::from(1)));
            events.push(Event::complete(junk, Value::from(1)));
        }
        let h = History::from_events(events);
        let ops = [(a.clone(), Value::from(1)), (a, Value::from(2))];
        let v = TieredChecker::default().check(&h, &ops, &[]);
        let Verdict::Unknown { reason } = v else {
            panic!("expected Unknown, got {v}");
        };
        assert!(reason.contains("too long"), "{reason}");
    }

    #[test]
    fn tiered_checker_refuses_to_escalate_round_stamped_histories() {
        // A §5.4 round-stamped round that started but never resolved. The
        // fast tier adopts the stamped group into its parent request and
        // answers Unknown (the run is still in flight); the raw search
        // tier has no adoption rule, reads the stamped identity as an
        // unrelated request, and would condemn the same events. Escalating
        // would launder that category error into a definite NotXable.
        let reserve = ActionId::base(ActionName::undoable("reserve"));
        let round1 = Value::pair(Value::from("req-0"), Value::from(1));
        let round2 = Value::pair(Value::from("req-0"), Value::from(2));
        let h: History = [
            Event::start(reserve.clone(), round1),
            Event::start(reserve.clone(), round2),
            Event::complete(reserve.clone(), Value::from("ok")),
        ]
        .into_iter()
        .collect();
        let requests = [Request::new(reserve, Value::from("req-0"))];

        let tiered = TieredChecker::default();
        let fast = tiered.fast.check_requests(&h, &requests);
        assert!(fast.is_unknown(), "precondition: fast undecided ({fast})");
        let search = tiered.search.check_requests(&h, &requests);
        assert!(
            search.is_not_xable(),
            "precondition: raw search misreads stamping ({search})"
        );

        for v in [
            tiered.check_requests(&h, &requests),
            tiered.check_requests_source(&h, &requests),
        ] {
            let Verdict::Unknown { reason } = v else {
                panic!("stamped history must not escalate, got {v}");
            };
            assert!(reason.contains("round-stamped"), "{reason}");
        }
    }

    #[test]
    fn check_requests_allows_abandoned_last_request() {
        let a = idem("a");
        let b = idem("b");
        let requests = vec![
            Request::new(a.clone(), Value::from(1)),
            Request::new(b, Value::from(2)),
        ];
        // b never ran at all: x-able via the R₁…Rₙ₋₁ case.
        let h = eventsof(&a, &Value::from(1), &Value::from(5));
        for checker in [
            &SearchChecker::default() as &dyn Checker,
            &FastChecker::default(),
            &TieredChecker::default(),
        ] {
            let v = checker.check_requests(&h, &requests);
            assert!(v.is_xable(), "{}: {v}", checker.name());
        }
    }

    #[test]
    fn source_entry_points_agree_with_owned() {
        let a = idem("a");
        let h: History = [s(&a, 1), s(&a, 1), c(&a, 5)].into_iter().collect();
        let ops = [(a.clone(), Value::from(1))];
        let requests = vec![Request::new(a, Value::from(1))];
        let view = h.window(0, h.len());
        for checker in [
            &SearchChecker::default() as &dyn Checker,
            &FastChecker::default(),
            &TieredChecker::default(),
        ] {
            assert_eq!(
                checker.check(&h, &ops, &[]),
                checker.check_source(&view, &ops, &[]),
                "{}: check vs check_source",
                checker.name()
            );
            assert_eq!(
                checker.check_requests(&h, &requests),
                checker.check_requests_source(&view, &requests),
                "{}: check_requests vs check_requests_source",
                checker.name()
            );
        }
    }

    #[test]
    fn verdict_accessors_and_display() {
        let v = Verdict::xable(vec![Value::from(1)]);
        assert!(v.is_xable() && !v.is_not_xable() && !v.is_unknown());
        assert_eq!(v.reason(), None);
        assert!(format!("{v}").contains("x-able"));
        let v = Verdict::NotXable {
            reason: "boom".into(),
        };
        assert_eq!(v.reason(), Some("boom"));
        assert!(format!("{v}").contains("boom"));
        let v = Verdict::Unknown {
            reason: "fog".into(),
        };
        assert!(v.is_unknown());
        assert!(format!("{v}").contains("fog"));
    }
}
