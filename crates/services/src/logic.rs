//! The business-logic interface of an external service.
//!
//! The service *framework* ([`crate::core::ServiceCore`]) owns the semantics
//! that the x-ability theory relies on — request-keyed deduplication for
//! idempotent actions, tentative effects with commit/cancel for undoable
//! actions, fault injection, and event/effect recording. A
//! [`BusinessLogic`] implementation only supplies the domain behaviour:
//! what an action does to domain state and what it returns.
//!
//! Domain-level rejections (say, insufficient funds) are *outputs*, not
//! failures: an execution that rejects has executed successfully and
//! returned a rejection value. Only transient faults (injected by the
//! framework) and protocol-state conflicts (cancel after commit, …) are
//! failures. This matches the paper's model, where action results are
//! values and "every action is eventually successful" (§5.2).

use std::any::Any;
use std::fmt;

use rand::rngs::StdRng;
use xability_core::{ActionName, Value};

/// Domain behaviour of an external service.
///
/// Implementations may be non-deterministic (draw from `rng`); determinism
/// of the overall simulation is preserved because the rng is seeded.
///
/// The framework guarantees:
///
/// * [`BusinessLogic::apply`] is called at most once per idempotent
///   `(action, key)` (deduplication) and at most once per undoable
///   `(action, key, round)` (tentative application);
/// * [`BusinessLogic::revert`] / [`BusinessLogic::finalize`] are called at
///   most once per tentative application, and only after it.
pub trait BusinessLogic: Any {
    /// A short service name used in ledger records.
    fn name(&self) -> &str;

    /// The actions this service exports, with their kinds.
    fn actions(&self) -> Vec<ActionName>;

    /// Applies the effect of `action` and returns its output value.
    ///
    /// For idempotent actions this is the permanent effect; for undoable
    /// actions it is the tentative effect (to be reverted or finalized
    /// later). Domain rejections are encoded in the returned value, with
    /// the tentative state acting as a no-op.
    fn apply(
        &mut self,
        action: &ActionName,
        key: &Value,
        payload: &Value,
        rng: &mut StdRng,
    ) -> Value;

    /// Reverts a tentative effect (undoable actions only).
    fn revert(&mut self, action: &ActionName, key: &Value, payload: &Value) {
        let _ = (action, key, payload);
    }

    /// Makes a tentative effect permanent (undoable actions only).
    fn finalize(&mut self, action: &ActionName, key: &Value, payload: &Value) {
        let _ = (action, key, payload);
    }

    /// The possible-reply oracle of §3.4 for requirement R4: is `reply` a
    /// value this service could possibly return for `action` on `payload`?
    fn is_possible_reply(&self, action: &ActionName, payload: &Value, reply: &Value) -> bool {
        let _ = (action, payload);
        let _ = reply;
        true
    }
}

impl fmt::Debug for dyn BusinessLogic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BusinessLogic({})", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Null;

    impl BusinessLogic for Null {
        fn name(&self) -> &str {
            "null"
        }
        fn actions(&self) -> Vec<ActionName> {
            vec![]
        }
        fn apply(&mut self, _: &ActionName, _: &Value, _: &Value, _: &mut StdRng) -> Value {
            Value::Nil
        }
    }

    #[test]
    fn default_hooks_are_no_ops() {
        let mut null = Null;
        let a = ActionName::undoable("x");
        null.revert(&a, &Value::Nil, &Value::Nil);
        null.finalize(&a, &Value::Nil, &Value::Nil);
        assert!(null.is_possible_reply(&a, &Value::Nil, &Value::from(3)));
    }

    #[test]
    fn dyn_debug_mentions_name() {
        let null: Box<dyn BusinessLogic> = Box::new(Null);
        assert!(format!("{null:?}").contains("null"));
    }
}
