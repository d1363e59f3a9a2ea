//! The unified x-ability decision API: one [`Verdict`] vocabulary, one
//! [`Checker`] trait, two deciders and one escalation rule.
//!
//! * [`SearchChecker`] — the reference semantics (breadth-first exploration
//!   of the reduction closure ⇒\*, Fig. 4 rule 17). Complete up to an
//!   explicit [`SearchBudget`], exponential in the worst case: the oracle.
//! * [`FastChecker`] — the polynomial checker for protocol-shaped
//!   histories (per-group decisions plus effect ordering, DESIGN.md §4.3).
//!   Answers [`Verdict::Unknown`] outside its class. It has no decision
//!   code of its own: each question builds a cold [`Decider`], feeds it
//!   the whole source — as the symbols a store view already holds, or
//!   interned into a cold [`IncrementalState`] — declares the question's
//!   requests and reads the online checker's aggregate once.
//! * [`escalate`] — the R3 escalation rule over a fast-tier verdict the
//!   caller already holds (batch or online alike): a definite verdict is
//!   final, and an `Unknown` goes to the exhaustive search when the
//!   history is short and unstamped enough for the search to answer the
//!   same question. [`crate::spec::check_r3`] is the two in sequence.
//!
//! Each question has one entry point over any [`HistoryRead`] source — an
//! owned [`History`] or a zero-copy store view alike:
//! [`check`](Checker::check) for an explicit `(ops, erasable)` question and
//! [`check_requests`](Checker::check_requests) for R3. The search tier,
//! which explores by rewriting owned histories, searches a copy
//! ([`HistoryRead::to_history`]); the fast tier reads the source where it
//! lies.
//!
//! For online verification — deciding x-ability *while* a history is still
//! being produced — keep that state warm instead:
//! [`super::incremental::IncrementalChecker`] maintains it across
//! `push`es.
//!
//! # Examples
//!
//! ```
//! use xability_core::xable::{Checker, FastChecker, SearchChecker};
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
//! let ops = [(ping, Value::Nil)];
//! let verdict = FastChecker.check(&h, &ops, &[]);
//! assert!(verdict.is_xable());
//! assert_eq!(verdict.outputs(), Some(&vec![Value::from("pong")].into()));
//! // The oracle agrees.
//! assert!(SearchChecker::default().check(&h, &ops, &[]).is_xable());
//! ```

use std::fmt;

use crate::action::{ActionId, Request};
use crate::failure_free::failure_free_sequence_outputs;
use crate::history::{History, HistoryRead};
use crate::intern::Interner;
use crate::value::Value;
use crate::xable::incremental::{Decider, IncrementalState};
use crate::xable::outputs::Outputs;
use crate::xable::search::{is_xable_search, SearchBudget, SearchResult};

/// Evidence accompanying a positive verdict.
///
/// Every decider reports the agreed output of each surviving request; the
/// exhaustive search additionally materializes the failure-free history it
/// reduced to.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Witness {
    /// Output value of each surviving request, in submission order —
    /// shared, so that the online checker's verdicts hold the outputs they
    /// have in common once instead of each copying all of them. Outputs
    /// compare by content: a search verdict equals an online one exactly
    /// when the outputs are equal.
    pub outputs: Outputs,
    /// The failure-free history reached by reduction, when the decider
    /// materializes one (the fast checker decides per group and does not).
    pub reduced: Option<History>,
}

impl Witness {
    /// A witness carrying only the per-request outputs.
    pub fn from_outputs(outputs: Outputs) -> Self {
        Witness {
            outputs,
            reduced: None,
        }
    }
}

/// The answer of an x-ability decision procedure.
///
/// This is the one verdict vocabulary shared by every checker in the crate.
/// A verdict that is computed and dropped is a check that never happened,
/// so the type is `#[must_use]` and a discarded one does not compile under
/// the workspace's `-D warnings`:
///
/// ```compile_fail
/// #![deny(unused_must_use)]
/// use xability_core::xable::{Checker, FastChecker};
///
/// FastChecker.check_requests(&xability_core::History::empty(), &[]);
/// ```
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
        /// The first violation found.
        cause: Cause,
    },
    /// The decider could not decide (out of class, or out of budget).
    Unknown {
        /// Why the decider could not decide.
        cause: Cause,
    },
}

/// Why a verdict is not positive: which request or group, which R3
/// obligation (§4) or reduction rule (17–20) it fails, and whether a
/// search gave up. Its [`Display`](fmt::Display) is the one place the
/// reason text is built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cause {
    /// A declared request names a cancellation or commit, not a base
    /// action.
    NotBaseAction(ActionId),
    /// A declared request repeats an earlier request's identity.
    DuplicateRequest(Request),
    /// The completion of `action` at history index `index` has no start
    /// event — a violation of the event axioms of §2.2.
    OrphanCompletion {
        /// The completed action.
        action: ActionId,
        /// The completion's index in the history.
        index: usize,
    },
    /// A declared request left no events.
    NeverExecuted(Request),
    /// A request has both plain and §5.4 round-stamped events.
    PlainAndStamped(Request),
    /// A round-stamped request committed in `rounds` rounds, not exactly 1.
    CommittedRounds {
        /// The request.
        request: Request,
        /// How many of its rounds committed.
        rounds: u32,
    },
    /// A request's events do not reduce to a failure-free execution.
    DoesNotReduce(Request),
    /// The per-group search ran out of budget on a request's events.
    ExecBudget(Request),
    /// Events that must erase do not — or, with `budget`, the per-group
    /// search ran out of budget deciding whether they do.
    NotErasing {
        /// Whose events.
        what: Erasing,
        /// `true` when the search gave up rather than being exhausted.
        budget: bool,
    },
    /// Request effects occur out of submission order.
    OutOfOrder,
    /// A rejection after some completion's attribution was ambiguous:
    /// another attribution might have succeeded, so it does not decide.
    AfterAmbiguity(Box<Cause>),
    /// The reduction closure holds no ordered concatenation of
    /// failure-free histories for the request sequence.
    SearchExhausted,
    /// The exhaustive search ran out of its budget.
    SearchBudget,
    /// The fast tier's cause, not escalated: the history has `len`
    /// events, more than the `max` [`escalate`] hands to the search.
    TooLongToEscalate {
        /// The fast tier's cause.
        fast: Box<Cause>,
        /// The history's length.
        len: usize,
        /// The escalation cutoff.
        max: usize,
    },
    /// The fast tier's cause, not escalated: the history holds
    /// round-stamped events, outside the search tier's language.
    RoundStampedNotEscalated(Box<Cause>),
    /// Both tiers were undecided.
    BothUndecided {
        /// The fast tier's cause.
        fast: Box<Cause>,
        /// The search tier's cause.
        search: Box<Cause>,
    },
}

/// The events a [`Cause::NotErasing`] names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Erasing {
    /// A cancelled §5.4 round of a request: the group whose input is the
    /// round stamp `(request input, round)`.
    CancelledRound {
        /// The request the round belongs to.
        request: Request,
        /// The round number.
        round: i64,
    },
    /// The last request, abandoned under R3.
    AbandonedRequest(Request),
    /// A group no declared request watches, by its key.
    UndeclaredGroup(Request),
}

impl fmt::Display for Cause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cause::NotBaseAction(action) => {
                write!(f, "request action {action} is not a base action")
            }
            Cause::DuplicateRequest(r) => {
                write!(f, "duplicate request identity {}/{}", r.action(), r.input())
            }
            Cause::OrphanCompletion { action, index } => write!(
                f,
                "completion of {action} at index {index} has no start event \
                 (violates the event axioms of §2.2)"
            ),
            Cause::NeverExecuted(r) => write!(f, "request {r} was never executed"),
            Cause::PlainAndStamped(r) => {
                write!(f, "request {r} has both plain and round-stamped events")
            }
            Cause::CommittedRounds { request, rounds } => {
                write!(
                    f,
                    "request {request} committed in {rounds} rounds (want exactly 1)"
                )
            }
            Cause::DoesNotReduce(r) => write!(
                f,
                "events of request {r} do not reduce to a failure-free execution"
            ),
            Cause::ExecBudget(r) => write!(f, "per-group search budget exceeded for request {r}"),
            Cause::NotErasing { what, budget } => {
                if *budget {
                    f.write_str("per-group search budget exceeded erasing ")?;
                }
                match what {
                    Erasing::CancelledRound { request, round } => {
                        let input = request.input();
                        write!(f, "cancelled round ({input}, {round}) of {request}")?;
                    }
                    Erasing::AbandonedRequest(r) => write!(f, "abandoned request {r}")?,
                    Erasing::UndeclaredGroup(r) => {
                        write!(f, "undeclared request {}/{}", r.action(), r.input())?;
                    }
                }
                if *budget {
                    Ok(())
                } else {
                    f.write_str(" left events that do not erase")
                }
            }
            Cause::OutOfOrder => f.write_str("request effects occur out of submission order"),
            Cause::AfterAmbiguity(cause) => {
                write!(f, "(after ambiguous completion attribution) {cause}")
            }
            Cause::SearchExhausted => f.write_str(
                "the reduction closure contains no ordered concatenation of \
                 failure-free histories for the request sequence",
            ),
            Cause::SearchBudget => f.write_str("exhaustive search budget exceeded"),
            Cause::TooLongToEscalate { fast, len, max } => write!(
                f,
                "{fast}; history too long to escalate to exhaustive search \
                 ({len} > {max} events)"
            ),
            Cause::RoundStampedNotEscalated(fast) => write!(
                f,
                "{fast}; history contains round-stamped events outside the \
                 search tier's language (§5.4 adoption is a fast-tier rule), \
                 not escalating"
            ),
            Cause::BothUndecided { fast, search } => {
                write!(f, "fast tier: {fast}; search tier: {search}")
            }
        }
    }
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
    pub fn outputs(&self) -> Option<&Outputs> {
        match self {
            Verdict::Xable { witness } => Some(&witness.outputs),
            _ => None,
        }
    }

    /// The cause, when the verdict is negative or indefinite.
    #[must_use]
    pub fn cause(&self) -> Option<&Cause> {
        match self {
            Verdict::Xable { .. } => None,
            Verdict::NotXable { cause } | Verdict::Unknown { cause } => Some(cause),
        }
    }

    /// The cause rendered as text, when the verdict is negative or
    /// indefinite.
    #[must_use]
    pub fn reason(&self) -> Option<String> {
        self.cause().map(Cause::to_string)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Xable { witness } => {
                write!(f, "x-able ({} outputs)", witness.outputs.len())
            }
            Verdict::NotXable { cause } => write!(f, "not x-able: {cause}"),
            Verdict::Unknown { cause } => write!(f, "unknown: {cause}"),
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
        h: &dyn HistoryRead,
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
    fn check_requests(&self, h: &dyn HistoryRead, requests: &[Request]) -> Verdict {
        let ops: Vec<(ActionId, Value)> = requests
            .iter()
            .map(|r| (r.action().clone(), r.input().clone()))
            .collect();
        combine_r3_over(&ops, |ops, erasable| self.check(h, ops, erasable))
    }

    /// [`check_requests`](Checker::check_requests) under its old name, with
    /// no code of its own. Kept only because the benchmark calls it; it
    /// goes with the `*_speedup_2w` probes in the next benchmark refresh
    /// (ROADMAP item 1).
    fn check_requests_source(&self, h: &dyn HistoryRead, requests: &[Request]) -> Verdict {
        self.check_requests(h, requests)
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
        h: &dyn HistoryRead,
        ops: &[(ActionId, Value)],
        _erasable: &[(ActionId, Value)],
    ) -> Verdict {
        match is_xable_search(&h.to_history(), ops, self.budget) {
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
                cause: Cause::SearchExhausted,
            },
            SearchResult::BudgetExceeded => Verdict::Unknown {
                cause: Cause::SearchBudget,
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
/// of its budget — [`SearchBudget::small`], a constant of the fast tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FastChecker;

impl FastChecker {
    /// [`Checker::check_requests`] under its old parallel name: `workers`
    /// is ignored, and there is no code path of its own. Kept only because
    /// the benchmark's `core.check_sharded_speedup_2w` probe calls it; the
    /// method goes together with that probe in the next benchmark refresh
    /// (ROADMAP item 1).
    pub fn check_requests_sharded<H: HistoryRead>(
        &self,
        h: &H,
        requests: &[Request],
        _workers: usize,
    ) -> Verdict {
        self.check_requests(h, requests)
    }

    /// The one decider fed all at once: a cold [`Decider`] with every
    /// event of `h` consumed and then `requests` declared in order, read
    /// once by `answer`. A source whose events sit interned feeds the
    /// decider its own symbols ([`HistoryRead::feed_symbols`]); any other
    /// is interned into a cold [`IncrementalState`]. Declared after the
    /// events, a key no event carries waits as a pending pair, under
    /// either interner.
    fn cold<'a>(
        &self,
        h: &dyn HistoryRead,
        requests: impl Iterator<Item = (&'a ActionId, &'a Value)>,
        answer: impl FnOnce(&Decider, &Interner) -> Verdict,
    ) -> Verdict {
        let mut fed = Decider::new();
        let mut owned: IncrementalState;
        let (decider, interner) = match h.feed_symbols(&mut fed) {
            Some(interner) => (&mut fed, interner),
            None => {
                owned = IncrementalState::new();
                owned.catch_up(h);
                owned.parts_mut()
            }
        };
        for (action, input) in requests {
            decider.declare(interner, action.clone(), input.clone());
        }
        answer(decider, interner)
    }
}

impl Checker for FastChecker {
    fn name(&self) -> &'static str {
        "fast"
    }

    /// `ops` are declared first and `erasable` after them, and one attempt
    /// is read. The partition and every per-group search read events
    /// through [`HistoryRead`], so no owned copy of the source is built.
    fn check(
        &self,
        h: &dyn HistoryRead,
        ops: &[(ActionId, Value)],
        erasable: &[(ActionId, Value)],
    ) -> Verdict {
        let declared = ops.iter().chain(erasable).map(|(a, v)| (a, v));
        let executed = ops.len();
        let erasing = executed..executed + erasable.len();
        self.cold(h, declared, |decider, interner| {
            decider.attempt_over(interner, h, executed, erasing)
        })
    }

    /// Overridden to read the source once into one state, whose aggregate
    /// the full-sequence and last-request-abandoned attempts share.
    fn check_requests(&self, h: &dyn HistoryRead, requests: &[Request]) -> Verdict {
        let declared = requests.iter().map(|r| (r.action(), r.input()));
        self.cold(h, declared, |decider, interner| {
            decider.verdict_over(interner, h)
        })
    }
}

/// [`escalate`] leaves histories longer than this undecided: the search
/// frontier grows exponentially with history length, so past a few dozen
/// events even a budgeted search wastes its whole budget to answer
/// `Unknown` slowly.
pub const ESCALATE_MAX_EVENTS: usize = 48;

/// The R3 escalation rule over a fast-tier verdict `fast` for `requests`
/// on `h`, computed by the caller — batch ([`crate::spec::check_r3`]) or
/// by an online monitor that has already read `h`.
///
/// A definite verdict is final: the fast checker is sound where definite,
/// and on single-group questions the two tiers coincide. An `Unknown`
/// stays undecided when `h` has more than [`ESCALATE_MAX_EVENTS`] events
/// or holds round-stamped events ([`contains_round_stamped`]); otherwise
/// the default [`SearchChecker`] answers, and when it is undecided too
/// both causes are nested. An escalated answer is the *strict*
/// ordered-concatenation reading of R3 (see DESIGN.md §4.3 for where that
/// is deliberately narrower than the fast tier's effect-ordered reading).
pub fn escalate(h: &dyn HistoryRead, requests: &[Request], fast: Verdict) -> Verdict {
    let Verdict::Unknown { cause } = fast else {
        return fast;
    };
    let fast = Box::new(cause);
    let cause = if h.len() > ESCALATE_MAX_EVENTS {
        Cause::TooLongToEscalate {
            fast,
            len: h.len(),
            max: ESCALATE_MAX_EVENTS,
        }
    } else if contains_round_stamped(h) {
        Cause::RoundStampedNotEscalated(fast)
    } else {
        match SearchChecker::default().check_requests(h, requests) {
            Verdict::Unknown { cause } => Cause::BothUndecided {
                fast,
                search: Box::new(cause),
            },
            definite => return definite,
        }
    };
    Verdict::Unknown { cause }
}

/// `true` when `h` holds a §5.4 round-stamped event: a start of an
/// undoable action — base, cancellation or commit — whose input is a
/// round stamp `Pair(base input, round)` ([`Value::round_stamp`]). These
/// are exactly the events the fast tier adopts into their parent request.
/// The strict search tier has no adoption rule — it reads each stamped
/// round as an unrelated request and condemns histories the fast tier
/// merely finds ambiguous — so escalation must not cross this language
/// boundary, and the explorer does not compare the two tiers across it.
pub fn contains_round_stamped(h: &dyn HistoryRead) -> bool {
    let mut found = false;
    h.scan_events(&mut |_, e| {
        found = e.is_start()
            && e.action().base_name().is_undoable()
            && e.value().round_stamp().is_some();
        !found
    });
    found
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
        for checker in [&SearchChecker::default() as &dyn Checker, &FastChecker] {
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
        for checker in [&SearchChecker::default() as &dyn Checker, &FastChecker] {
            let v = checker.check(&h, &ops, &[]);
            assert!(v.is_not_xable(), "{}: {v}", checker.name());
            assert!(v.cause().is_some());
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

    /// `S(a,1) S(a,2) C(a,7) C(a,7)`, then `pad` junk `S C` pairs, with
    /// `(a,1), (a,2)` declared.
    fn ambiguous_pair(pad: usize) -> (History, [Request; 2]) {
        let a = idem("a");
        let mut events = vec![
            Event::start(a.clone(), Value::from(1)),
            Event::start(a.clone(), Value::from(2)),
            Event::complete(a.clone(), Value::from(7)),
            Event::complete(a.clone(), Value::from(7)),
        ];
        for i in 0..pad {
            let junk = idem(&format!("junk{i}"));
            events.push(Event::start(junk.clone(), Value::from(1)));
            events.push(Event::complete(junk, Value::from(1)));
        }
        let requests = [
            Request::new(a.clone(), Value::from(1)),
            Request::new(a, Value::from(2)),
        ];
        (History::from_events(events), requests)
    }

    #[test]
    fn escalate_decides_a_small_fast_unknown() {
        // Ambiguous completion attribution: two distinct inputs open when a
        // completion arrives. The fast tier answers Unknown; the search
        // tier can still decide the small history definitively.
        let (h, requests) = ambiguous_pair(0);
        let fast = FastChecker.check_requests(&h, &requests);
        assert!(
            fast.is_unknown(),
            "precondition: fast tier undecided ({fast})"
        );
        let v = escalate(&h, &requests, fast);
        assert_eq!(v.to_string(), "x-able (2 outputs)");
        assert_eq!(crate::spec::check_r3(&requests, &h), v);
    }

    #[test]
    fn escalate_refuses_long_histories() {
        // The ambiguous shape above, padded far past the escalation cutoff.
        let (h, requests) = ambiguous_pair(60);
        let v = crate::spec::check_r3(&requests, &h);
        let Verdict::Unknown { cause } = v else {
            panic!("expected Unknown, got {v}");
        };
        assert!(
            matches!(
                cause,
                Cause::TooLongToEscalate {
                    len: 124,
                    max: 48,
                    ..
                }
            ),
            "{cause}"
        );
    }

    #[test]
    fn escalate_refuses_round_stamped_histories() {
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

        let fast = FastChecker.check_requests(&h, &requests);
        assert!(fast.is_unknown(), "precondition: fast undecided ({fast})");
        let search = SearchChecker::default().check_requests(&h, &requests);
        assert!(
            search.is_not_xable(),
            "precondition: raw search misreads stamping ({search})"
        );

        let v = escalate(&h, &requests, fast);
        let Verdict::Unknown { cause } = v else {
            panic!("stamped history must not escalate, got {v}");
        };
        assert!(
            matches!(cause, Cause::RoundStampedNotEscalated(_)),
            "{cause}"
        );
    }

    #[test]
    fn round_stamped_means_a_stamped_start_of_any_undoable_role() {
        let u = ActionId::base(ActionName::undoable("u"));
        let stamp = Value::round_stamped(Value::from("req-0"), 1);
        let stamped = |events: Vec<Event>| contains_round_stamped(&History::from_events(events));
        for action in [u.clone(), u.cancel().unwrap(), u.commit().unwrap()] {
            assert!(stamped(vec![Event::start(action, stamp.clone())]));
        }
        // Not a completion's output, not an idempotent name, not a pair
        // whose second half is no round number.
        assert!(!stamped(vec![Event::complete(u.clone(), stamp.clone())]));
        assert!(!stamped(vec![Event::start(idem("a"), stamp)]));
        let unstamped = Value::pair(Value::from("req-0"), Value::from("x"));
        assert!(!stamped(vec![Event::start(u, unstamped)]));
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
        for checker in [&SearchChecker::default() as &dyn Checker, &FastChecker] {
            let v = checker.check_requests(&h, &requests);
            assert!(v.is_xable(), "{}: {v}", checker.name());
        }
    }

    #[test]
    fn verdict_accessors_and_display() {
        let v = Verdict::xable(vec![Value::from(1)]);
        assert!(v.is_xable() && !v.is_not_xable() && !v.is_unknown());
        assert_eq!((v.cause(), v.reason()), (None, None));
        assert_eq!(v.to_string(), "x-able (1 outputs)");
        let v = Verdict::NotXable {
            cause: Cause::OutOfOrder,
        };
        assert_eq!(v.cause(), Some(&Cause::OutOfOrder));
        assert_eq!(v.reason(), Some(Cause::OutOfOrder.to_string()));
        let v = Verdict::Unknown {
            cause: Cause::SearchBudget,
        };
        assert!(v.is_unknown());
        assert_eq!(
            v.reason().as_deref(),
            Some("exhaustive search budget exceeded")
        );
    }

    #[test]
    fn every_cause_renders_the_pinned_text() {
        // The edge text, byte for byte: what a verdict's reason, a report's
        // R3 violation and a log line show for each cause.
        let x = idem("x");
        let u = ActionId::base(ActionName::undoable("u"));
        let cancel = u.cancel().unwrap();
        let x1 = Request::new(x.clone(), Value::from(1));
        let r0 = Request::new(u.clone(), Value::from("r0"));
        let erasing = |what, budget| Cause::NotErasing { what, budget };
        let cancelled = || Erasing::CancelledRound {
            request: r0.clone(),
            round: 1,
        };
        let undeclared = || Erasing::UndeclaredGroup(Request::new(x.clone(), Value::from(2)));
        let committed = |rounds| Cause::CommittedRounds {
            request: r0.clone(),
            rounds,
        };
        let rows: Vec<(Cause, &str)> = vec![
            (
                Cause::NotBaseAction(cancel),
                "request action u⁻¹ is not a base action",
            ),
            (
                Cause::DuplicateRequest(x1.clone()),
                "duplicate request identity xⁱ/1",
            ),
            (
                Cause::OrphanCompletion {
                    action: x.clone(),
                    index: 3,
                },
                "completion of xⁱ at index 3 has no start event (violates the event axioms of §2.2)",
            ),
            (
                Cause::NeverExecuted(x1.clone()),
                "request (xⁱ, 1) was never executed",
            ),
            (
                Cause::PlainAndStamped(r0.clone()),
                "request (uᵘ, \"r0\") has both plain and round-stamped events",
            ),
            (
                committed(2),
                "request (uᵘ, \"r0\") committed in 2 rounds (want exactly 1)",
            ),
            (
                committed(0),
                "request (uᵘ, \"r0\") committed in 0 rounds (want exactly 1)",
            ),
            (
                Cause::DoesNotReduce(x1.clone()),
                "events of request (xⁱ, 1) do not reduce to a failure-free execution",
            ),
            (
                Cause::ExecBudget(x1.clone()),
                "per-group search budget exceeded for request (xⁱ, 1)",
            ),
            (
                erasing(cancelled(), false),
                "cancelled round (\"r0\", 1) of (uᵘ, \"r0\") left events that do not erase",
            ),
            (
                erasing(cancelled(), true),
                "per-group search budget exceeded erasing cancelled round (\"r0\", 1) of (uᵘ, \"r0\")",
            ),
            (
                erasing(Erasing::AbandonedRequest(x1.clone()), false),
                "abandoned request (xⁱ, 1) left events that do not erase",
            ),
            (
                erasing(Erasing::AbandonedRequest(x1.clone()), true),
                "per-group search budget exceeded erasing abandoned request (xⁱ, 1)",
            ),
            (
                erasing(undeclared(), false),
                "undeclared request xⁱ/2 left events that do not erase",
            ),
            (
                erasing(undeclared(), true),
                "per-group search budget exceeded erasing undeclared request xⁱ/2",
            ),
            (
                Cause::OutOfOrder,
                "request effects occur out of submission order",
            ),
            (
                Cause::AfterAmbiguity(Box::new(committed(2))),
                "(after ambiguous completion attribution) request (uᵘ, \"r0\") committed in 2 \
                 rounds (want exactly 1)",
            ),
            (
                Cause::SearchExhausted,
                "the reduction closure contains no ordered concatenation of failure-free \
                 histories for the request sequence",
            ),
            (Cause::SearchBudget, "exhaustive search budget exceeded"),
            (
                Cause::TooLongToEscalate {
                    fast: Box::new(Cause::AfterAmbiguity(Box::new(Cause::NeverExecuted(x1.clone())))),
                    len: 124,
                    max: 48,
                },
                "(after ambiguous completion attribution) request (xⁱ, 1) was never executed; \
                 history too long to escalate to exhaustive search (124 > 48 events)",
            ),
            (
                Cause::RoundStampedNotEscalated(Box::new(Cause::PlainAndStamped(r0.clone()))),
                "request (uᵘ, \"r0\") has both plain and round-stamped events; history contains \
                 round-stamped events outside the search tier's language (§5.4 adoption is a \
                 fast-tier rule), not escalating",
            ),
            (
                Cause::BothUndecided {
                    fast: Box::new(Cause::DuplicateRequest(x1)),
                    search: Box::new(Cause::SearchBudget),
                },
                "fast tier: duplicate request identity xⁱ/1; search tier: exhaustive search \
                 budget exceeded",
            ),
        ];
        for (cause, text) in rows {
            assert_eq!(cause.to_string(), text);
            let rejected = Verdict::NotXable {
                cause: cause.clone(),
            };
            assert_eq!(rejected.to_string(), format!("not x-able: {text}"));
            assert_eq!(crate::spec::r3_violation(&rejected).unwrap().detail, text);
            let undecided = Verdict::Unknown { cause };
            assert_eq!(undecided.to_string(), format!("unknown: {text}"));
            let detail = crate::spec::r3_violation(&undecided).unwrap().detail;
            assert_eq!(detail, format!("undecided: {text}"));
        }
    }

    #[test]
    fn a_request_naming_a_cancellation_is_decided_without_panicking() {
        // `S(xfer⁻¹, 1) C(xfer⁻¹, nil)` against a declared request naming
        // `xfer⁻¹`: eqs. 21–22 give a cancellation no failure-free
        // history, so the search finds no goal instead of building one.
        let cancel = ActionId::base(ActionName::undoable("xfer"))
            .cancel()
            .unwrap();
        let h = History::from_events(vec![
            Event::start(cancel.clone(), Value::from(1)),
            Event::complete(cancel.clone(), Value::Nil),
        ]);
        let ops = [(cancel.clone(), Value::from(1))];
        let requests = [Request::new(cancel.clone(), Value::from(1))];
        let invalid = Verdict::Unknown {
            cause: Cause::NotBaseAction(cancel),
        };
        assert_eq!(FastChecker.check(&h, &ops, &[]), invalid);
        assert_eq!(FastChecker.check_requests(&h, &requests), invalid);
        let search = SearchChecker::default();
        let v = search.check(&h, &ops, &[]);
        assert!(
            matches!(
                v,
                Verdict::NotXable {
                    cause: Cause::SearchExhausted
                }
            ),
            "{v}"
        );
        // Under R3 the request may be abandoned, and the lone cancellation
        // erases (rule 19); escalation reaches the same answer.
        let v = search.check_requests(&h, &requests);
        assert!(v.is_xable(), "{v}");
        assert_eq!(crate::spec::check_r3(&requests, &h), v);
    }
}
