//! # xability-harness — experiments regenerating the paper's figures
//!
//! Assembles full systems (client + replica group + external services) on
//! the deterministic simulator, runs them under configurable fault loads,
//! and evaluates the paper's correctness obligations R1–R4 plus direct
//! exactly-once accounting.
//!
//! * [`scenario`] — the scenario builder / runner / report.
//! * [`explore`] — coverage-guided fault-scenario exploration, violation
//!   shrinking, and the machine-grown trace corpus.
//! * [`experiments`] — one module per experiment of EXPERIMENTS.md
//!   (figures F1–F7, claims C1–C3).
//! * [`report`] — markdown rendering used by the `xreport` binary to
//!   regenerate EXPERIMENTS.md tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod explore;
pub mod report;
pub mod scenario;
pub mod three_tier;

pub use explore::{
    dangling_round_violation, CoveragePoint, CoverageSignature, ExploreReport, Explorer,
    ExplorerConfig, FaultPlan, ReasonClass, Shrinker, ShrunkViolation, ViolationClass,
    ViolationKind,
};
pub use scenario::{RunReport, Scenario, Scheme, Workload};
