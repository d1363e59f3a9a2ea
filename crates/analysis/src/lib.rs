//! `xability-analysis` — the workspace's static-analysis layer.
//!
//! PR 5 moved the repo's correctness story onto concurrency and
//! determinism claims: lock-free copy-on-write seglog tails, shared
//! interner read handles. Dynamic tests exercise one
//! schedule per run; this crate is the tooling that checks the claims
//! *at rest*, in two engines (DESIGN.md §8):
//!
//! * [`lint`] — **`xlint`**, a source-level lint driver over the
//!   workspace's own `.rs` files (a lightweight tokenizer in [`source`];
//!   no external parser, consistent with the vendored-only build).
//!   Rules: determinism hygiene, panic hygiene, unsafe hygiene, API
//!   hygiene. Run it with `cargo run -p xability-analysis --bin xlint`.
//! * [`sched`] — **`xsched`**, a loom-lite bounded interleaving
//!   explorer: models of the riskiest shared structures, executed
//!   under *exhaustive* 2-thread schedule enumeration, with the
//!   enumeration count asserted against `C(a+b, a)`. Run it with
//!   `cargo run -p xability-analysis --bin xsched`.
//!
//! Both engines gate CI (the `analysis` job); the fixture self-tests
//! under `fixtures/` prove every lint rule fires on seeded violations
//! and stays quiet on clean code, and the deliberately broken model
//! variants prove the explorer can actually catch the bugs it exists to
//! catch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lint;
pub mod sched;
pub mod source;
