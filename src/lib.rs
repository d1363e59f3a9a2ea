//! # xability — X-Ability: A Theory of Replication
//!
//! A complete Rust reproduction of Frølund & Guerraoui, *"X-Ability: A
//! Theory of Replication"* (PODC 2000): the formal theory of
//! exactly-once-able histories, the general asynchronous replication
//! protocol built on it, every substrate the paper assumes (deterministic
//! asynchronous simulation, failure detectors, consensus objects, external
//! services with idempotent/undoable side-effects), the baselines it argues
//! against, and an experiment harness regenerating every figure.
//!
//! This crate is a facade: it re-exports the workspace crates under stable
//! module names and hosts the runnable examples and the cross-crate
//! integration tests.
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `xability-core` | events, histories, patterns, reduction, the x-able predicate, R1–R4 |
//! | [`store`] | `xability-store` | interned segmented trace store, zero-copy history views, binary trace record/replay |
//! | [`sim`] | `xability-sim` | deterministic discrete-event simulator with ◇P failure detection |
//! | [`consensus`] | `xability-consensus` | Chandra–Toueg consensus objects (`propose`/`read`) |
//! | [`services`] | `xability-services` | external services, side-effect ledger, fault injection |
//! | [`protocol`] | `xability-protocol` | the §5 replication algorithm + primary-backup / active baselines |
//! | [`harness`] | `xability-harness` | scenario runner, R1–R4 validation, experiments |
//! | [`obs`] | `xability-obs` | deterministic metrics registry, causal span tracing, mergeable snapshots |
//!
//! ## Quick start
//!
//! Run the examples:
//!
//! ```text
//! cargo run --example quickstart
//! cargo run --example bank_transfer
//! cargo run --example three_tier
//! cargo run --example protocol_spectrum
//! cargo run --example history_checker
//! ```
//!
//! Check a history for x-ability directly with the polynomial
//! [`core::xable::FastChecker`] (its oracle is the exhaustive
//! [`core::xable::SearchChecker`]):
//!
//! ```
//! use xability::core::xable::{Checker, FastChecker};
//! use xability::core::{ActionId, ActionName, Event, History, Value};
//!
//! let ping = ActionId::base(ActionName::idempotent("ping"));
//! let history: History = [
//!     Event::start(ping.clone(), Value::Nil),             // failed attempt
//!     Event::start(ping.clone(), Value::Nil),             // retry
//!     Event::complete(ping.clone(), Value::from("pong")), // success
//! ]
//! .into_iter()
//! .collect();
//! let verdict = FastChecker.check(&history, &[(ping, Value::Nil)], &[]);
//! assert!(verdict.is_xable());
//! ```
//!
//! Or verify *online*, while the history is being produced:
//!
//! ```
//! use xability::core::xable::IncrementalChecker;
//! use xability::core::{ActionId, ActionName, Event, Value};
//!
//! let ping = ActionId::base(ActionName::idempotent("ping"));
//! let mut checker = IncrementalChecker::new();
//! checker.declare(ping.clone(), Value::Nil);
//! checker.push(Event::start(ping.clone(), Value::Nil));
//! checker.push(Event::complete(ping, Value::from("pong")));
//! assert!(checker.verdict().is_xable());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use xability_consensus as consensus;
pub use xability_core as core;
pub use xability_harness as harness;
pub use xability_obs as obs;
pub use xability_protocol as protocol;
pub use xability_services as services;
pub use xability_sim as sim;
pub use xability_store as store;
