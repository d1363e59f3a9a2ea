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
//! * **R4** — a successful `submit(R)` returns one of the replies `S` can
//!   possibly give to `R` (§3.4).
//!
//! The history-level content of R3 is implemented here (over the theory in
//! [`crate::xable`]): [`check_r3`] is its one batch entry point and
//! [`r3_violation`] its rendering as a [`Violation`]. Each request is one
//! state-machine action. The protocol-level validations of R1, R2 and R4
//! need a running system and live in the `xability-harness` crate, which
//! consumes the [`Requirement`]/[`Violation`] vocabulary defined here; R4's
//! reply oracle is each service's `BusinessLogic::is_possible_reply`.

use std::fmt;

use crate::action::Request;
use crate::history::HistoryRead;
use crate::xable::{escalate, Checker, FastChecker, Verdict};

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

/// The R3 verdict for a submitted request sequence: is the server-side
/// history x-able with respect to `R₁…Rₙ` or `R₁…Rₙ₋₁`?
///
/// The [`FastChecker`]'s verdict, with an `Unknown` handed to
/// [`escalate`] — the same rule a caller holding an online monitor's
/// verdict applies to it. [`r3_violation`] turns the verdict into a
/// [`Violation`].
///
/// # Examples
///
/// ```
/// use xability_core::spec::check_r3;
/// use xability_core::{failure_free::eventsof, ActionId, ActionName, Request, Value};
///
/// let a = ActionId::base(ActionName::idempotent("get"));
/// let reqs = vec![Request::new(a.clone(), Value::from(1))];
/// let h = eventsof(&a, &Value::from(1), &Value::from(5));
/// assert!(check_r3(&reqs, &h).is_xable());
/// ```
pub fn check_r3(requests: &[Request], server_history: &dyn HistoryRead) -> Verdict {
    let fast = FastChecker.check_requests(server_history, requests);
    escalate(server_history, requests, fast)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{ActionId, ActionName};
    use crate::failure_free::eventsof;
    use crate::value::Value;

    fn idem(name: &str) -> ActionId {
        ActionId::base(ActionName::idempotent(name))
    }

    #[test]
    fn r3_holds_for_failure_free_history() {
        let a = idem("a");
        let reqs = vec![Request::new(a.clone(), Value::from(1))];
        let h = eventsof(&a, &Value::from(1), &Value::from(5));
        assert_eq!(r3_violation(&check_r3(&reqs, &h)), None);
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
        let v = r3_violation(&check_r3(&reqs, &h)).expect("violation");
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
        assert_eq!(r3_violation(&check_r3(&reqs, &h)), None);
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
