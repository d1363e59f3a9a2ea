//! # xability-services — the external world of the replication protocol
//!
//! The paper's central contribution is handling replicated services whose
//! actions have **external side-effects** — invocations of third-party
//! entities (§1). This crate builds those third parties:
//!
//! * [`ServiceCore`] — the framework that gives actions the semantics the
//!   theory requires: request-keyed deduplication for idempotent actions,
//!   tentative-effect / commit / cancel transaction semantics for undoable
//!   actions (with round poisoning), transient fault injection, and
//!   recording of every observable event into the shared [`Ledger`].
//! * [`BusinessLogic`] — the interface concrete services implement.
//! * [`catalog`] — concrete services: a bank, a key-value store, a token
//!   issuer, a seat-reservation system, and a deliberately misbehaving
//!   counter for negative tests.
//! * [`Ledger`] — the materialized event observer of §2.2: records the
//!   formal event stream once into a shared, interned
//!   [`xability_store::TraceStore`], hands out zero-copy history views to
//!   the x-ability deciders, and keeps direct exactly-once accounting of
//!   side-effects.
//!
//! ```
//! use rand::SeedableRng;
//! use xability_core::Value;
//! use xability_services::catalog::KvStore;
//! use xability_services::{shared_ledger, InvokeOutcome, ServiceConfig, ServiceCore, ServiceRequest};
//! use xability_sim::SimTime;
//!
//! let ledger = shared_ledger();
//! let mut svc = ServiceCore::new(
//!     Box::new(KvStore::new()),
//!     ServiceConfig::default(),
//!     ledger.clone(),
//! );
//! let put = ServiceRequest::execute(
//!     xability_core::ActionName::idempotent("put"),
//!     Value::from("req-1"),
//!     0,
//!     Value::list([
//!         Value::pair(Value::from("k"), Value::from("x")),
//!         Value::pair(Value::from("v"), Value::from(1)),
//!     ]),
//! );
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let out = svc.handle(&put, SimTime::ZERO, &mut rng);
//! assert!(out.is_success());
//! // The ledger observed a failure-free execution: S(put) C(put).
//! assert_eq!(ledger.borrow().history().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod catalog;
pub mod core;
pub mod ledger;
pub mod logic;

pub use core::{FailurePlan, InvokeOutcome, OpKind, ServiceConfig, ServiceCore, ServiceRequest};
pub use ledger::{
    shared_ledger, EffectKind, EffectRecord, Ledger, MonitorAlreadyAttached, RecordedEvent,
    SharedLedger,
};
pub use logic::BusinessLogic;

#[cfg(test)]
mod tests {
    use super::catalog::{Bank, NakedCounter, TokenIssuer};
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xability_core::xable::{is_xable_search, SearchBudget};
    use xability_core::{ActionId, ActionName, Value};
    use xability_sim::SimTime;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn transfer_req(key: &str, round: u64, amount: i64) -> ServiceRequest {
        ServiceRequest::execute(
            ActionName::undoable("transfer"),
            Value::from(key),
            round,
            Value::list([
                Value::pair(Value::from("from"), Value::from("a")),
                Value::pair(Value::from("to"), Value::from("b")),
                Value::pair(Value::from("amount"), Value::from(amount)),
            ]),
        )
    }

    fn bank_core(ledger: &SharedLedger, failures: FailurePlan) -> ServiceCore {
        ServiceCore::new(
            Box::new(Bank::new([("a".into(), 100), ("b".into(), 0)])),
            ServiceConfig {
                failures,
                dedup: true,
            },
            ledger.clone(),
        )
    }

    #[test]
    fn successful_undoable_flow_is_xable() {
        let ledger = shared_ledger();
        let mut svc = bank_core(&ledger, FailurePlan::none());
        let mut r = rng();
        let req = transfer_req("t1", 1, 25);
        let out = svc.handle(&req, SimTime::from_millis(1), &mut r);
        assert!(out.is_success());
        let out = svc.handle(&req.to_commit(), SimTime::from_millis(2), &mut r);
        assert!(out.is_success());

        let h = ledger.borrow().history().to_history();
        // Formal inputs are round-stamped (§5.4): the surviving execution
        // ran in round 1.
        let ops = [(
            ActionId::base(ActionName::undoable("transfer")),
            Value::pair(Value::from("t1"), Value::from(1)),
        )];
        assert!(is_xable_search(&h, &ops, SearchBudget::default()).is_reached());
        assert_eq!(
            ledger
                .borrow()
                .committed_count(&ActionName::undoable("transfer"), &Value::from("t1")),
            1
        );
    }

    #[test]
    fn cancelled_round_plus_retry_is_xable() {
        let ledger = shared_ledger();
        // First invocation fails after the tentative effect.
        let mut svc = bank_core(
            &ledger,
            FailurePlan {
                fail_first_n: 2,
                ..FailurePlan::none()
            },
        );
        let mut r = rng();
        let req1 = transfer_req("t1", 1, 25);
        // Round 1: execute fails (invocation 1: before effect), retry the
        // execution (invocation 2: after effect) — still a failure.
        assert!(!svc
            .handle(&req1, SimTime::from_millis(1), &mut r)
            .is_success());
        assert!(!svc
            .handle(&req1, SimTime::from_millis(2), &mut r)
            .is_success());
        // Cancel round 1, then run round 2 to completion.
        assert!(svc
            .handle(&req1.to_cancel(), SimTime::from_millis(3), &mut r)
            .is_success());
        let req2 = transfer_req("t1", 2, 25);
        assert!(svc
            .handle(&req2, SimTime::from_millis(4), &mut r)
            .is_success());
        assert!(svc
            .handle(&req2.to_commit(), SimTime::from_millis(5), &mut r)
            .is_success());

        let h = ledger.borrow().history().to_history();
        // Round 2 survives; round 1's attempt/cancel erases under rule 19.
        let ops = [(
            ActionId::base(ActionName::undoable("transfer")),
            Value::pair(Value::from("t1"), Value::from(2)),
        )];
        assert!(
            is_xable_search(&h, &ops, SearchBudget::default()).is_reached(),
            "history not x-able: {h}"
        );
        let violations = ledger
            .borrow()
            .exactly_once_violations(&[(ActionName::undoable("transfer"), Value::from("t1"))]);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn poisoned_round_rejects_late_execution_without_events() {
        let ledger = shared_ledger();
        let mut svc = bank_core(&ledger, FailurePlan::none());
        let mut r = rng();
        let req = transfer_req("t1", 1, 25);
        // A cleaner cancels round 1 before the owner's execute arrives.
        assert!(svc
            .handle(&req.to_cancel(), SimTime::from_millis(1), &mut r)
            .is_success());
        let events_before = ledger.borrow().history().len();
        let out = svc.handle(&req, SimTime::from_millis(2), &mut r);
        assert!(out.is_terminal_failure());
        // No event was recorded for the rejected execution.
        assert_eq!(ledger.borrow().history().len(), events_before);
        // Money never moved.
        let logic: &Bank = (svc.logic() as &dyn std::any::Any).downcast_ref().unwrap();
        assert_eq!(logic.balance("a"), 100);
        assert_eq!(logic.total(), 100);
    }

    #[test]
    fn idempotent_dedup_returns_stored_reply() {
        let ledger = shared_ledger();
        let mut svc = ServiceCore::new(
            Box::new(TokenIssuer::new()),
            ServiceConfig::default(),
            ledger.clone(),
        );
        let mut r = rng();
        let req = ServiceRequest::execute(
            ActionName::idempotent("issue"),
            Value::from("req-9"),
            0,
            Value::Nil,
        );
        let out1 = svc.handle(&req, SimTime::from_millis(1), &mut r);
        let out2 = svc.handle(&req, SimTime::from_millis(2), &mut r);
        assert_eq!(out1, out2, "retries must observe the stored reply");
        // Only one token was actually minted.
        let logic: &TokenIssuer = (svc.logic() as &dyn std::any::Any).downcast_ref().unwrap();
        assert_eq!(logic.issued(), 1);
        // The history (two completed executions, equal outputs) is x-able.
        let h = ledger.borrow().history().to_history();
        let ops = [(
            ActionId::base(ActionName::idempotent("issue")),
            Value::from("req-9"),
        )];
        assert!(is_xable_search(&h, &ops, SearchBudget::default()).is_reached());
    }

    #[test]
    fn failure_after_effect_then_retry_is_xable_and_exactly_once() {
        let ledger = shared_ledger();
        let mut svc = ServiceCore::new(
            Box::new(TokenIssuer::new()),
            ServiceConfig {
                // Invocation 2 fails after the effect (fail_first_n uses
                // before-effect for odd invocations, after-effect for even).
                failures: FailurePlan::first_n(2),
                dedup: true,
            },
            ledger.clone(),
        );
        let mut r = rng();
        let req = ServiceRequest::execute(
            ActionName::idempotent("issue"),
            Value::from("k"),
            0,
            Value::Nil,
        );
        assert!(!svc
            .handle(&req, SimTime::from_millis(1), &mut r)
            .is_success());
        assert!(!svc
            .handle(&req, SimTime::from_millis(2), &mut r)
            .is_success());
        let out = svc.handle(&req, SimTime::from_millis(3), &mut r);
        assert!(out.is_success());
        let h = ledger.borrow().history().to_history();
        let ops = [(
            ActionId::base(ActionName::idempotent("issue")),
            Value::from("k"),
        )];
        assert!(
            is_xable_search(&h, &ops, SearchBudget::default()).is_reached(),
            "history not x-able: {h}"
        );
        let violations = ledger
            .borrow()
            .exactly_once_violations(&[(ActionName::idempotent("issue"), Value::from("k"))]);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn dedup_disabled_duplicates_effects_and_breaks_xability() {
        let ledger = shared_ledger();
        let mut svc = ServiceCore::new(
            Box::new(TokenIssuer::new()),
            ServiceConfig {
                failures: FailurePlan::none(),
                dedup: false,
            },
            ledger.clone(),
        );
        let mut r = rng();
        let req = ServiceRequest::execute(
            ActionName::idempotent("issue"),
            Value::from("k"),
            0,
            Value::Nil,
        );
        let out1 = svc.handle(&req, SimTime::from_millis(1), &mut r);
        let out2 = svc.handle(&req, SimTime::from_millis(2), &mut r);
        assert_ne!(out1, out2, "non-deterministic duplicates disagree");
        let h = ledger.borrow().history().to_history();
        let ops = [(
            ActionId::base(ActionName::idempotent("issue")),
            Value::from("k"),
        )];
        assert!(!is_xable_search(&h, &ops, SearchBudget::default()).is_reached());
        let violations = ledger
            .borrow()
            .exactly_once_violations(&[(ActionName::idempotent("issue"), Value::from("k"))]);
        assert!(!violations.is_empty());
    }

    #[test]
    fn commit_after_cancel_is_terminal_and_recorded() {
        let ledger = shared_ledger();
        let mut svc = bank_core(&ledger, FailurePlan::none());
        let mut r = rng();
        let req = transfer_req("t", 3, 10);
        assert!(svc
            .handle(&req, SimTime::from_millis(1), &mut r)
            .is_success());
        assert!(svc
            .handle(&req.to_cancel(), SimTime::from_millis(2), &mut r)
            .is_success());
        let out = svc.handle(&req.to_commit(), SimTime::from_millis(3), &mut r);
        assert!(out.is_terminal_failure());
        assert_eq!(ledger.borrow().violations().len(), 1);
    }

    #[test]
    fn duplicate_cancel_and_commit_are_idempotent() {
        let ledger = shared_ledger();
        let mut svc = bank_core(&ledger, FailurePlan::none());
        let mut r = rng();
        let req = transfer_req("t", 1, 10);
        assert!(svc
            .handle(&req, SimTime::from_millis(1), &mut r)
            .is_success());
        assert!(svc
            .handle(&req.to_commit(), SimTime::from_millis(2), &mut r)
            .is_success());
        assert!(svc
            .handle(&req.to_commit(), SimTime::from_millis(3), &mut r)
            .is_success());
        assert_eq!(
            ledger
                .borrow()
                .committed_count(&ActionName::undoable("transfer"), &Value::from("t")),
            1,
            "duplicate commit must not double-apply"
        );
        let logic: &Bank = (svc.logic() as &dyn std::any::Any).downcast_ref().unwrap();
        assert_eq!(logic.balance("b"), 10);
    }

    #[test]
    fn round_specific_cancel_does_not_affect_other_rounds() {
        let ledger = shared_ledger();
        let mut svc = bank_core(&ledger, FailurePlan::none());
        let mut r = rng();
        let round1 = transfer_req("t", 1, 10);
        let round2 = transfer_req("t", 2, 10);
        // Round 2 executes; a stale cancel for round 1 arrives.
        assert!(svc
            .handle(&round2, SimTime::from_millis(1), &mut r)
            .is_success());
        assert!(svc
            .handle(&round1.to_cancel(), SimTime::from_millis(2), &mut r)
            .is_success());
        // Round 2's tentative effect is untouched; committing it succeeds.
        assert!(svc
            .handle(&round2.to_commit(), SimTime::from_millis(3), &mut r)
            .is_success());
        let logic: &Bank = (svc.logic() as &dyn std::any::Any).downcast_ref().unwrap();
        assert_eq!(logic.balance("b"), 10);
    }

    #[test]
    fn naked_counter_without_dedup_shows_duplicated_effects() {
        let ledger = shared_ledger();
        let mut svc = ServiceCore::new(
            Box::new(NakedCounter::new()),
            ServiceConfig {
                failures: FailurePlan::none(),
                dedup: false,
            },
            ledger.clone(),
        );
        let mut r = rng();
        let req = ServiceRequest::execute(
            ActionName::idempotent("bump"),
            Value::from("once"),
            0,
            Value::list([Value::pair(Value::from("by"), Value::from(1))]),
        );
        svc.handle(&req, SimTime::from_millis(1), &mut r);
        svc.handle(&req, SimTime::from_millis(2), &mut r);
        let logic: &NakedCounter = (svc.logic() as &dyn std::any::Any).downcast_ref().unwrap();
        assert_eq!(logic.value(), 2, "the retry bumped twice");
        assert_eq!(
            ledger
                .borrow()
                .applied_count(&ActionName::idempotent("bump"), &Value::from("once")),
            2
        );
    }

    #[test]
    fn kind_of_and_actions() {
        let ledger = shared_ledger();
        let svc = bank_core(&ledger, FailurePlan::none());
        assert_eq!(
            svc.kind_of("transfer"),
            Some(xability_core::ActionKind::Undoable)
        );
        assert_eq!(
            svc.kind_of("deposit"),
            Some(xability_core::ActionKind::Idempotent)
        );
        assert_eq!(svc.kind_of("nope"), None);
        assert_eq!(svc.actions().len(), 2);
        assert_eq!(svc.name(), "bank");
        assert_eq!(svc.invocations(), 0);
    }
}
