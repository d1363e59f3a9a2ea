//! # xability-core — the x-ability theory of replication
//!
//! A from-scratch implementation of the theory of *X-Ability
//! (Exactly-once-ability)* from Frølund & Guerraoui, *"X-Ability: A Theory
//! of Replication"* (PODC 2000).
//!
//! X-ability is a correctness criterion for replicated services: a history
//! of action executions is **x-able** when its externally observable
//! side-effects appear to have happened *exactly once*, even though actions
//! may have been retried, cancelled, or executed concurrently by several
//! replicas. The theory plays the role for replicated programs that
//! linearizability plays for concurrent objects and serializability for
//! transactions.
//!
//! ## Crate layout
//!
//! | Module | Paper section | Contents |
//! |---|---|---|
//! | [`value`] | §2.1 | the `Value` domain of action inputs/outputs |
//! | [`action`] | §2.1, §3.1 | actions, idempotent/undoable kinds, cancel/commit, requests |
//! | [`event`] | §2.2 | start/completion events `S(a,iv)`, `C(a,ov)` |
//! | [`history`] | §2.3, Fig. 3 | event sequences, concatenation, `(a,iv) ∈ h`, `first`/`second` |
//! | [`pattern`] | §2.4, Fig. 1–2 | history patterns and the matching relation ⊨ |
//! | [`reduce`] | §3.1, Fig. 4 | the reduction relation ⇒ (rules 17–20) |
//! | [`failure_free`] | §3.2 | `eventsof` and the `FailureFree` sets |
//! | [`xable`] | §3.2, eq. 23 | the x-able predicate: the two [`xable::Checker`]s (fast, search), R3's [`xable::escalate`] rule and the online [`xable::IncrementalChecker`] |
//! | [`signature`] | §3.3 | history signatures (rules 24–25) |
//! | [`spec`] | §4 | requirements R1–R4, R3's [`spec::check_r3`] and its [`spec::Violation`] |
//! | [`seglog`] | — | segmented append-only log that never moves a closed segment |
//! | [`index`] | — | the one open-addressed lookup index over a caller's column, and its hash |
//! | [`intern`] | — | `u32` symbol interning, shared by the checker engine and the trace store |
//!
//! ## Quick start
//!
//! ```
//! use xability_core::xable::{Checker, FastChecker};
//! use xability_core::{ActionId, ActionName, Event, History, Value};
//!
//! // An idempotent action retried once by a fault-tolerant service:
//! let ping = ActionId::base(ActionName::idempotent("ping"));
//! let history: History = [
//!     Event::start(ping.clone(), Value::Nil),            // attempt 1 (failed)
//!     Event::start(ping.clone(), Value::Nil),            // attempt 2
//!     Event::complete(ping.clone(), Value::from("pong")), // attempt 2 succeeds
//! ]
//! .into_iter()
//! .collect();
//!
//! // The history is x-able: it reduces to a single failure-free execution,
//! // so the retry is invisible to the environment. The polynomial fast
//! // checker decides it; `xable::SearchChecker` is the exhaustive oracle.
//! let verdict = FastChecker.check(&history, &[(ping, Value::Nil)], &[]);
//! assert!(verdict.is_xable());
//! assert_eq!(verdict.outputs(), Some(&vec![Value::from("pong")].into()));
//! ```
//!
//! To verify a history *while it is being produced*, feed events to the
//! online [`xable::IncrementalChecker`] (`push` is amortized O(1); a
//! verdict is available at every prefix).
//!
//! The companion crates build on this theory: `xability-sim` (deterministic
//! asynchronous system simulation), `xability-consensus` (the consensus
//! objects the paper assumes), `xability-services` (external services with
//! idempotent/undoable side effects), `xability-protocol` (the paper's §5
//! replication algorithm plus primary-backup and active-replication
//! baselines), and `xability-harness` (experiments regenerating every figure
//! of the paper).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod action;
pub mod event;
pub mod failure_free;
pub mod history;
pub mod index;
pub mod intern;
pub mod pattern;
pub mod reduce;
pub mod seglog;
pub mod signature;
pub mod spec;
pub mod value;
pub mod xable;

pub use action::{ActionId, ActionKind, ActionName, Request};
pub use event::Event;
pub use history::{History, HistoryRead};
pub use intern::Interner;
pub use pattern::{InterleavedWitness, Pattern, SimplePattern};
pub use value::Value;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Value>();
        assert_send_sync::<ActionName>();
        assert_send_sync::<ActionId>();
        assert_send_sync::<Request>();
        assert_send_sync::<Event>();
        assert_send_sync::<History>();
        assert_send_sync::<Pattern>();
        assert_send_sync::<SimplePattern>();
    }
}
