//! `xability-analysis` — exhaustive interleaving checks for the
//! workspace's shared structures (DESIGN.md §8.2).
//!
//! Dynamic tests exercise one schedule per run. [`sched`] is a loom-lite
//! bounded interleaving explorer: models of the riskiest shared
//! structures (copy-on-write seglog tails, shared interner read handles,
//! the dirty-set aggregate), each executed under *every* 2-thread
//! schedule, with the enumeration count asserted against `C(a+b, a)`.
//! The model self-tests (`cargo test -p xability-analysis`) are the
//! whole gate: the real structures pass every interleaving, and the
//! deliberately broken variants prove the explorer catches the bugs it
//! exists to catch.
//!
//! The workspace's determinism and hygiene lints are clippy's, configured
//! in the root `Cargo.toml` and `clippy.toml` (DESIGN.md §8.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sched;
