//! The x-able predicate (§3.2, eq. 23) and its decision procedures.
//!
//! A history `h` is *x-able* relative to an action/input pair — or, more
//! generally, a sequence of such pairs (§4, R3) — if it can be reduced under
//! the ⇒ relation of Fig. 4 to a failure-free history of that sequence.
//!
//! All deciders share one API: the [`Checker`] trait and the unified
//! [`Verdict`] type (defined in [`checker`]), one entry point per question
//! over any [`HistoryRead`](crate::HistoryRead) source. A negative or
//! undecided verdict carries a structured [`Cause`], which becomes text
//! only when it is displayed. Two batch deciders implement [`Checker`],
//! one rule escalates between them, and one decider runs online:
//!
//! * [`SearchChecker`] — the reference semantics: an exhaustive
//!   breadth-first exploration of the reduction closure. Complete (up to an
//!   explicit [`SearchBudget`]), exponential in the worst case; the oracle.
//! * [`FastChecker`] — a polynomial checker for the class of histories
//!   produced by retry-based replication protocols. It decomposes the
//!   history into per-request groups, decides each group with a (small,
//!   bounded) search, and checks the cross-group ordering. It answers
//!   [`Verdict::Unknown`] when a history falls outside its class; the
//!   property tests in the crate cross-validate it against the search.
//! * [`escalate`] — R3's fast→search escalation of a fast-tier `Unknown`
//!   the caller already holds (short, unstamped histories only, up to
//!   [`ESCALATE_MAX_EVENTS`]).
//! * [`IncrementalChecker`] — the online decider: `push(event)` in
//!   amortized O(1), a verdict at any prefix. Its storage-free core,
//!   [`IncrementalState`], is a cursor over an event stream owned by
//!   someone else (a shared trace store), for monitoring without a
//!   second copy of the trace — and it is [`FastChecker`]'s decider too:
//!   a fast check is a cold state fed the whole history at once.
//!
//! The submodule [`search`] and the crate-private `fast` hold the
//! respective engines; [`incremental`] assembles the fast engine's
//! per-group outcomes into verdicts.

pub mod checker;
mod fast;
pub mod incremental;
mod outputs;
pub mod search;

pub use checker::{
    contains_round_stamped, escalate, Cause, Checker, Erasing, FastChecker, SearchChecker, Verdict,
    Witness, ESCALATE_MAX_EVENTS,
};
pub use incremental::{IncrementalChecker, IncrementalState};
pub use outputs::Outputs;
pub use search::{is_xable_search, search_reduction, SearchBudget, SearchResult};
