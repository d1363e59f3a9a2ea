//! The x-able service specification (§4): requirements R1–R4 and the
//! vocabulary needed to state them.
//!
//! A replicated service consists of a *sequencer* `S` (the functionality,
//! held by every server process) and an action `submit` used by clients. The
//! service is x-able if:
//!
//! * **R1** — `submit` is idempotent.
//! * **R2** — the client can eventually execute `submit` successfully
//!   (liveness / non-blocking).
//! * **R3** — if the client submits `R₁…Rₙ`, each after the previous
//!   succeeded, the server-side history is x-able with respect to `R₁…Rₙ`
//!   or `R₁…Rₙ₋₁`.
//! * **R4** — a successful `submit(R)` returns a value in
//!   `PossibleReply(S, R)`.
//!
//! The history-level content of R3 is implemented here (over the theory in
//! [`crate::xable`]); the protocol-level validations of R1, R2 and R4 need a
//! running system and live in the `xability-harness` crate, which consumes
//! the [`Requirement`]/[`Violation`] vocabulary defined here.

use std::fmt;

use crate::action::Request;
use crate::history::HistoryRead;
use crate::value::Value;
use crate::xable::{Checker, TieredChecker, Verdict};

/// The four obligations of an x-able service (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Requirement {
    /// `submit` is idempotent.
    R1,
    /// `submit` eventually succeeds.
    R2,
    /// The server-side history is x-able w.r.t. the submitted sequence.
    R3,
    /// Replies are possible replies of the state machine.
    R4,
}

impl fmt::Display for Requirement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Requirement::R1 => write!(f, "R1 (submit is idempotent)"),
            Requirement::R2 => write!(f, "R2 (submit eventually succeeds)"),
            Requirement::R3 => write!(f, "R3 (server-side history is x-able)"),
            Requirement::R4 => write!(f, "R4 (reply is a possible reply)"),
        }
    }
}

/// A detected violation of one of the requirements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which requirement was violated.
    pub requirement: Requirement,
    /// Human-readable description of the violation.
    pub detail: String,
}

impl Violation {
    /// Creates a violation record.
    pub fn new(requirement: Requirement, detail: impl Into<String>) -> Self {
        Violation {
            requirement,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.requirement, self.detail)
    }
}

/// The sequencer abstraction of §4: maps the `i`-th client request to the
/// sequence of state-machine actions the service must execute for it.
///
/// In the common case a request maps to a single action — the default
/// implementation of [`Sequencer::actions_for`] does exactly that — but the
/// paper allows a request to expand into a sequence of actions.
pub trait Sequencer {
    /// The actions to execute for the `index`-th request (0-based).
    ///
    /// The returned list must be the same for every replica given the same
    /// request position and request (agreement on non-deterministic *results*
    /// is the protocol's job; agreement on the action *list* is the
    /// sequencer's contract).
    fn actions_for(&self, index: usize, request: &Request) -> Vec<Request> {
        let _ = index;
        vec![request.clone()]
    }
}

/// The trivial sequencer: each request is executed as a single action.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdentitySequencer;

impl Sequencer for IdentitySequencer {}

/// An oracle for `PossibleReply(S, R₁…Rₙ)` (§3.4): which reply values are
/// possible for the last request of a sequence, given that the state machine
/// executed the earlier requests.
pub trait PossibleReply {
    /// Returns `true` if `reply` is a possible reply to the last request of
    /// `requests` after the preceding requests executed.
    fn is_possible(&self, requests: &[Request], reply: &Value) -> bool;
}

/// A permissive oracle that accepts every reply; useful as a default when a
/// service has no reply model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnyReply;

impl PossibleReply for AnyReply {
    fn is_possible(&self, _requests: &[Request], _reply: &Value) -> bool {
        true
    }
}

/// Converts an R3 verdict into the harness's violation vocabulary:
/// `Xable` is no violation, `NotXable` is a definite one, and `Unknown` is
/// reported as a violation too (an undecided obligation is not discharged),
/// its detail prefixed `undecided: `.
pub fn r3_violation(verdict: &Verdict) -> Option<Violation> {
    let detail = match verdict {
        Verdict::Xable { .. } => return None,
        Verdict::NotXable { cause } => cause.to_string(),
        Verdict::Unknown { cause } => format!("undecided: {cause}"),
    };
    Some(Violation::new(Requirement::R3, detail))
}

/// Evaluates the history-level part of requirement R3 for a sequencer `S`
/// and a submitted request sequence, using the default [`TieredChecker`]
/// (fast tier, escalating small undecided histories to exhaustive search).
///
/// Expands each request through the sequencer and checks that the
/// server-side history is x-able with respect to the full expanded sequence,
/// or the sequence with the *last request's* actions abandoned.
///
/// # Examples
///
/// ```
/// use xability_core::spec::{check_r3, IdentitySequencer};
/// use xability_core::{failure_free::eventsof, ActionId, ActionName, Request, Value};
///
/// let a = ActionId::base(ActionName::idempotent("get"));
/// let reqs = vec![Request::new(a.clone(), Value::from(1))];
/// let h = eventsof(&a, &Value::from(1), &Value::from(5));
/// assert!(check_r3(&IdentitySequencer, &reqs, &h).is_none());
/// ```
pub fn check_r3<S: Sequencer>(
    sequencer: &S,
    requests: &[Request],
    server_history: &dyn HistoryRead,
) -> Option<Violation> {
    check_r3_with(
        &TieredChecker::default(),
        sequencer,
        requests,
        server_history,
    )
}

/// [`check_r3`] with an explicit decision procedure — any [`Checker`],
/// including a custom-budgeted [`TieredChecker`].
///
/// # Examples
///
/// ```
/// use xability_core::spec::{check_r3_with, IdentitySequencer};
/// use xability_core::xable::FastChecker;
/// use xability_core::{failure_free::eventsof, ActionId, ActionName, Request, Value};
///
/// let a = ActionId::base(ActionName::idempotent("get"));
/// let reqs = vec![Request::new(a.clone(), Value::from(1))];
/// let h = eventsof(&a, &Value::from(1), &Value::from(5));
/// assert!(check_r3_with(&FastChecker, &IdentitySequencer, &reqs, &h).is_none());
/// ```
pub fn check_r3_with<C: Checker + ?Sized, S: Sequencer>(
    checker: &C,
    sequencer: &S,
    requests: &[Request],
    server_history: &dyn HistoryRead,
) -> Option<Violation> {
    let mut expanded: Vec<Request> = Vec::new();
    for (i, r) in requests.iter().enumerate() {
        expanded.extend(sequencer.actions_for(i, r));
    }
    r3_violation(&checker.check_requests(server_history, &expanded))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{ActionId, ActionName};
    use crate::failure_free::eventsof;

    fn idem(name: &str) -> ActionId {
        ActionId::base(ActionName::idempotent(name))
    }

    #[test]
    fn identity_sequencer_maps_request_to_itself() {
        let r = Request::new(idem("a"), Value::from(1));
        assert_eq!(IdentitySequencer.actions_for(3, &r), vec![r.clone()]);
    }

    #[test]
    fn any_reply_accepts_everything() {
        assert!(AnyReply.is_possible(&[], &Value::Nil));
    }

    #[test]
    fn r3_holds_for_failure_free_history() {
        let a = idem("a");
        let reqs = vec![Request::new(a.clone(), Value::from(1))];
        let h = eventsof(&a, &Value::from(1), &Value::from(5));
        assert_eq!(check_r3(&IdentitySequencer, &reqs, &h), None);
    }

    #[test]
    fn r3_violation_for_duplicated_effect() {
        let a = idem("a");
        let reqs = vec![Request::new(a.clone(), Value::from(1))];
        // Two completions with different outputs: irreducible duplicate.
        let h = eventsof(&a, &Value::from(1), &Value::from(5)).concat(&eventsof(
            &a,
            &Value::from(1),
            &Value::from(6),
        ));
        let v = check_r3(&IdentitySequencer, &reqs, &h).expect("violation");
        assert_eq!(v.requirement, Requirement::R3);
    }

    #[test]
    fn r3_allows_abandoned_last_request() {
        let a = idem("a");
        let b = idem("b");
        let reqs = vec![
            Request::new(a.clone(), Value::from(1)),
            Request::new(b, Value::from(2)),
        ];
        // b never ran at all.
        let h = eventsof(&a, &Value::from(1), &Value::from(5));
        assert_eq!(check_r3(&IdentitySequencer, &reqs, &h), None);
    }

    #[test]
    fn violation_display_mentions_requirement() {
        let v = Violation::new(Requirement::R2, "stalled");
        let text = format!("{v}");
        assert!(text.contains("R2") && text.contains("stalled"));
    }

    #[test]
    fn requirement_display_is_informative() {
        for (r, needle) in [
            (Requirement::R1, "idempotent"),
            (Requirement::R2, "eventually"),
            (Requirement::R3, "x-able"),
            (Requirement::R4, "possible"),
        ] {
            assert!(format!("{r}").contains(needle));
        }
    }
}
