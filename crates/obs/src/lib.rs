//! # xability-obs — deterministic observability
//!
//! A measurement substrate for the whole workspace: a symbol-interned
//! metrics registry (counters, gauges, fixed-bucket log2 histograms) plus
//! causal span tracing keyed by `(request, round)`, with deterministic,
//! serializable snapshots.
//!
//! ## Determinism policy (DESIGN.md §11)
//!
//! The registry never reads a clock. Every timestamp is a **tick** passed
//! in by the caller: simulated microseconds inside `sim`-driven code,
//! whatever monotone unit the caller owns elsewhere. Wall-clock timing is
//! confined to the harness/bench layers that *report* numbers, never to
//! the layers that *produce* them — so two runs of the same seed produce
//! byte-identical [`MetricsSnapshot`]s regardless of machine or
//! scheduling.
//!
//! ## Hot-path cost
//!
//! A registry belongs to the one thread that runs the simulation: it is
//! an `Rc<RefCell<…>>`, and instrument handles ([`Counter`], [`Gauge`],
//! [`Histogram`]) hold an `Rc`'d `Cell`, so recording is a plain load and
//! store with zero allocations and no atomic or lock anywhere. Handles
//! created from [`Obs::noop`] hold no cell at all — the record path is a
//! branch on a compile-time-visible `None`, which the optimizer removes
//! entirely (the "NoopSink" configuration: instrumented code compiles out
//! of release builds that opt out).
//!
//! Registration (and span recording, which appends to a log) borrows the
//! registry; both are off the per-event hot path by design — registration
//! happens once per instrument, spans once per protocol round, not once
//! per event.
//!
//! ## Label hygiene
//!
//! Metric names and span scopes are `&'static str` literals: the
//! signatures reject a formatted name, and the workspace's clippy
//! configuration bans `Box::leak` / `String::leak`, which would
//! launder one (DESIGN.md §8.1). No formatted strings on the record
//! path. Dynamic dimensions (a network link, a replica id) go into the
//! *key* of [`Obs::counter_keyed`], which runs at registration time only.
//!
//! # Examples
//!
//! ```
//! use xability_obs::Obs;
//!
//! let obs = Obs::new();
//! let sent = obs.counter("net.sent");
//! sent.inc();
//! sent.add(2);
//! let lat = obs.histogram("request.ticks");
//! lat.record(1_500);
//! obs.span_start("request", "req-0", 0, 10);
//! obs.span_end("request", "req-0", 0, 1_510);
//!
//! let snap = obs.snapshot();
//! assert_eq!(snap.counter("net.sent"), Some(3));
//! assert_eq!(snap.spans.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod registry;
mod snapshot;

pub use registry::{Counter, Gauge, Histogram, Obs};
pub use snapshot::{HistogramSnapshot, MetricEntry, MetricsSnapshot, SpanSnap, HISTOGRAM_BUCKETS};
