//! Failure-free histories and `eventsof` (§3.2).
//!
//! A failure-free history is one that could have been produced by a
//! failure-free execution of a single state-machine action:
//!
//! ```text
//! eventsof(aᵘ, iv, ov) = S(aᵘ, iv) C(aᵘ, ov) S(aᶜ, iv) C(aᶜ, nil)   (eq. 21)
//! eventsof(aⁱ, iv, ov) = S(aⁱ, iv) C(aⁱ, ov)                        (eq. 22)
//! ```
//!
//! Because actions may be non-deterministic, `FailureFree(a, iv)` is the set
//! of all such histories over every possible output value. The set is
//! infinite in general; we expose a membership test and a constructor for a
//! given output instead of enumerating it.

use crate::action::ActionId;
use crate::event::Event;
use crate::history::History;
use crate::value::Value;

/// `eventsof(a, iv, ov)`: the failure-free history of a single execution of
/// `a` on input `iv` producing output `ov` (eqs. 21–22).
///
/// For an undoable action the history includes the commit of the action; for
/// an idempotent action it is just the start/completion pair.
///
/// # Panics
///
/// Panics if `action` is not a base action (cancellations and commits are
/// not submitted on their own; they only appear inside `eventsof` of their
/// undoable base action).
///
/// # Examples
///
/// ```
/// use xability_core::{failure_free::eventsof, ActionId, ActionName, Value};
///
/// let a = ActionId::base(ActionName::undoable("transfer"));
/// let h = eventsof(&a, &Value::from(1), &Value::from("ok"));
/// assert_eq!(h.len(), 4); // S C S(commit) C(commit)
/// ```
pub fn eventsof(action: &ActionId, input: &Value, output: &Value) -> History {
    match action {
        ActionId::Base(name) if name.is_idempotent() => History::from_events(vec![
            Event::start(action.clone(), input.clone()),
            Event::complete(action.clone(), output.clone()),
        ]),
        ActionId::Base(_) => {
            let commit = action.commit().expect("undoable base actions have commits");
            History::from_events(vec![
                Event::start(action.clone(), input.clone()),
                Event::complete(action.clone(), output.clone()),
                Event::start(commit.clone(), input.clone()),
                Event::complete(commit, Value::Nil),
            ])
        }
        ActionId::Cancel(_) | ActionId::Commit(_) => {
            panic!("eventsof is defined for base actions only, got {action}")
        }
    }
}

/// Membership test for `FailureFree(a, iv)` (§3.2): is `h` equal to
/// `eventsof(a, iv, ov)` for *some* output value `ov`?
///
/// Returns the output value when the history is failure-free. A
/// cancellation or commit has no failure-free history (eqs. 21–22 define
/// `eventsof` for base actions only), so it gets `None`.
pub fn failure_free_output(action: &ActionId, input: &Value, h: &History) -> Option<Value> {
    if !matches!(action, ActionId::Base(_)) {
        return None;
    }
    let expected_len = if action.is_undoable_base() { 4 } else { 2 };
    if h.len() != expected_len {
        return None;
    }
    let ov = match &h[1] {
        Event::Complete(a, ov) if a == action => ov.clone(),
        _ => return None,
    };
    if &eventsof(action, input, &ov) == h {
        Some(ov)
    } else {
        None
    }
}

/// Membership test for the failure-free histories of a *sequence* of
/// actions: is `h` the concatenation `eventsof(a₁,iv₁,ov₁) • … •
/// eventsof(aₙ,ivₙ,ovₙ)` for some outputs `ov₁…ovₙ`?
///
/// This is the generalization used by requirement R3 (§4) for request
/// sequences. Returns the output values when the history is failure-free.
pub fn failure_free_sequence_outputs(ops: &[(ActionId, Value)], h: &History) -> Option<Vec<Value>> {
    let mut outputs = Vec::with_capacity(ops.len());
    let mut pos = 0usize;
    for (action, input) in ops {
        let span = if action.is_undoable_base() { 4 } else { 2 };
        if pos + span > h.len() {
            return None;
        }
        let window = h.slice(pos, pos + span);
        let ov = failure_free_output(action, input, &window)?;
        outputs.push(ov);
        pos += span;
    }
    if pos == h.len() {
        Some(outputs)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionName;

    fn idem(name: &str) -> ActionId {
        ActionId::base(ActionName::idempotent(name))
    }

    fn undo(name: &str) -> ActionId {
        ActionId::base(ActionName::undoable(name))
    }

    #[test]
    fn eventsof_idempotent_is_start_complete() {
        let a = idem("a");
        let h = eventsof(&a, &Value::from(1), &Value::from(2));
        assert_eq!(
            h.events(),
            &[
                Event::start(a.clone(), Value::from(1)),
                Event::complete(a, Value::from(2)),
            ]
        );
    }

    #[test]
    fn eventsof_undoable_includes_commit() {
        let u = undo("u");
        let commit = u.commit().unwrap();
        let h = eventsof(&u, &Value::from(1), &Value::from(2));
        assert_eq!(
            h.events(),
            &[
                Event::start(u.clone(), Value::from(1)),
                Event::complete(u, Value::from(2)),
                Event::start(commit.clone(), Value::from(1)),
                Event::complete(commit, Value::Nil),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "base actions only")]
    fn eventsof_rejects_derived_actions() {
        let u = undo("u");
        let cancel = u.cancel().unwrap();
        let _ = eventsof(&cancel, &Value::Nil, &Value::Nil);
    }

    #[test]
    fn failure_free_output_accepts_any_output_value() {
        let a = idem("a");
        for ov in [Value::Nil, Value::from(7), Value::from("x")] {
            let h = eventsof(&a, &Value::from(1), &ov);
            assert_eq!(failure_free_output(&a, &Value::from(1), &h), Some(ov));
        }
    }

    #[test]
    fn failure_free_output_rejects_wrong_shapes() {
        let a = idem("a");
        let u = undo("u");
        assert_eq!(
            failure_free_output(&a, &Value::from(1), &History::empty()),
            None
        );
        // Wrong input.
        let h = eventsof(&a, &Value::from(2), &Value::from(9));
        assert_eq!(failure_free_output(&a, &Value::from(1), &h), None);
        // Idempotent shape offered for undoable action.
        let h = eventsof(&a, &Value::from(1), &Value::from(9));
        assert_eq!(failure_free_output(&u, &Value::from(1), &h), None);
        // Extra trailing event.
        let mut h = eventsof(&a, &Value::from(1), &Value::from(9));
        h.push(Event::start(a.clone(), Value::from(1)));
        assert_eq!(failure_free_output(&a, &Value::from(1), &h), None);
    }

    #[test]
    fn sequence_membership() {
        let a = idem("a");
        let u = undo("u");
        let ops = vec![(a.clone(), Value::from(1)), (u.clone(), Value::from(2))];
        let h = eventsof(&a, &Value::from(1), &Value::from(10)).concat(&eventsof(
            &u,
            &Value::from(2),
            &Value::from(20),
        ));
        assert_eq!(
            failure_free_sequence_outputs(&ops, &h),
            Some(vec![Value::from(10), Value::from(20)])
        );
        // Order matters.
        let swapped = eventsof(&u, &Value::from(2), &Value::from(20)).concat(&eventsof(
            &a,
            &Value::from(1),
            &Value::from(10),
        ));
        assert_eq!(failure_free_sequence_outputs(&ops, &swapped), None);
        // Empty op list matches only the empty history.
        assert_eq!(
            failure_free_sequence_outputs(&[], &History::empty()),
            Some(vec![])
        );
        assert_eq!(failure_free_sequence_outputs(&[], &h), None);
    }
}
