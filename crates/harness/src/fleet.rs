//! The parallel scenario fleet: run seed-indexed batches of [`Scenario`]s
//! across worker threads.
//!
//! Every [`Scenario::run`] is a self-contained deterministic simulation —
//! one seeded RNG drives the whole world, and nothing escapes the run but
//! its report — so a batch of runs over a seed range is embarrassingly
//! parallel. A [`Fleet`] executes such a batch on `std::thread::scope`
//! workers (no extra dependencies, no detached threads) and returns one
//! [`FleetOutcome`] per seed, **bit-identical** to what a sequential loop
//! over the same seeds would produce: workers pull seeds from a shared
//! queue, outcomes are keyed by seed, and the report is sorted back into
//! seed order, so neither the worker count nor thread scheduling can leak
//! into the result.
//!
//! Scenario executions never share state (each run owns its world,
//! ledger, and monitor), which is what makes the split sound.
//!
//! # Examples
//!
//! ```
//! use xability_harness::{Fleet, Scenario, Scheme, Workload};
//!
//! let base = Scenario::new(Scheme::XAble, Workload::KvPuts { count: 2 });
//! let report = Fleet::new(base).seed_range(0..4).workers(2).run();
//! assert_eq!(report.outcomes.len(), 4);
//! assert!(report.all_correct());
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use xability_core::spec::Violation;
use xability_obs::MetricsSnapshot;
use xability_protocol::{ClientMetrics, ReplicaMetrics};
use xability_sim::{Metrics as SimMetrics, SimTime};

use crate::scenario::{RunReport, Scenario, Scheme};

/// The thread-safe, comparable summary of one scenario run — everything a
/// batch consumer reads from a [`RunReport`], minus the (single-threaded)
/// shared ledger handle.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcome {
    /// Seed that ran.
    pub seed: u64,
    /// Scheme that ran.
    pub scheme: Scheme,
    /// Requests planned.
    pub total_requests: usize,
    /// Requests the client completed.
    pub completed_requests: usize,
    /// Whether the client finished before the horizon.
    pub finished: bool,
    /// Whether every live replica resolved all external invocations.
    pub quiescent: bool,
    /// Whether the run satisfied every checked obligation.
    pub correct: bool,
    /// Exactly-once violations found in the ledger.
    pub exactly_once_violations: Vec<String>,
    /// R3 verdict (`None` = history is x-able).
    pub r3_violation: Option<Violation>,
    /// Whether the online incremental monitor decided R3.
    pub r3_checked_online: bool,
    /// R4 verdict.
    pub r4_ok: bool,
    /// Client counters.
    pub client: ClientMetrics,
    /// Aggregated replica counters (x-able scheme only).
    pub replica_metrics: ReplicaMetrics,
    /// Simulator counters.
    pub sim: SimMetrics,
    /// Number of formal events observed.
    pub history_len: usize,
    /// Simulated completion time.
    pub end_time: SimTime,
    /// Mean request latency in microseconds.
    pub mean_latency_micros: u64,
    /// Maximum request latency in microseconds.
    pub max_latency_micros: u64,
    /// The run's deterministic metrics snapshot (see
    /// [`RunReport::metrics`]). Part of the outcome's equality, so the
    /// fleet's bit-identical-across-worker-counts guarantee covers the
    /// full observability record, not just the summary counters.
    pub metrics: MetricsSnapshot,
}

impl From<&RunReport> for FleetOutcome {
    fn from(report: &RunReport) -> Self {
        FleetOutcome {
            seed: report.seed,
            scheme: report.scheme,
            total_requests: report.total_requests,
            completed_requests: report.completed_requests,
            finished: report.finished,
            quiescent: report.quiescent,
            correct: report.is_correct(),
            exactly_once_violations: report.exactly_once_violations.clone(),
            r3_violation: report.r3_violation.clone(),
            r3_checked_online: report.r3_checked_online,
            r4_ok: report.r4_ok,
            client: report.client,
            replica_metrics: report.replica_metrics,
            sim: report.sim,
            history_len: report.history_len,
            end_time: report.end_time,
            mean_latency_micros: report.mean_latency_micros(),
            max_latency_micros: report.max_latency_micros(),
            metrics: report.metrics.clone(),
        }
    }
}

/// The result of one fleet execution: per-seed outcomes in seed-queue
/// order (the order the seeds were given).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// One outcome per seed, in the order the seeds were configured.
    pub outcomes: Vec<FleetOutcome>,
    /// How many worker threads actually ran.
    pub workers: usize,
}

impl FleetReport {
    /// `true` when every run satisfied every checked obligation.
    pub fn all_correct(&self) -> bool {
        self.outcomes.iter().all(|o| o.correct)
    }

    /// How many runs were decided by the online monitor (as opposed to
    /// the batch fallback).
    pub fn decided_online(&self) -> usize {
        self.outcomes.iter().filter(|o| o.r3_checked_online).count()
    }

    /// The batch's metrics merged across all runs, in outcome (seed-queue)
    /// order: counters and gauges add, histograms add bucketwise, spans
    /// concatenate and re-sort. Histogram merge is associative and
    /// commutative, and the outcome order is fixed by the seed queue, so
    /// the merged snapshot is bit-identical for every worker count.
    pub fn merged_metrics(&self) -> MetricsSnapshot {
        let mut merged = MetricsSnapshot::default();
        for outcome in &self.outcomes {
            merged.merge(&outcome.metrics);
        }
        merged
    }
}

/// A seed-indexed batch of scenario runs executed across threads.
///
/// The base scenario provides everything but the seed; [`Fleet::run`]
/// executes one run per configured seed and returns the outcomes in seed
/// order, identical for every worker count.
#[derive(Debug, Clone)]
pub struct Fleet {
    base: Scenario,
    seeds: Vec<u64>,
    workers: usize,
}

impl Fleet {
    /// A fleet over `base` with no seeds yet and one worker.
    pub fn new(base: Scenario) -> Self {
        Fleet {
            base,
            seeds: Vec::new(),
            workers: 1,
        }
    }

    /// Sets the seeds to run (builder style, replacing any previous set).
    #[must_use]
    pub fn seeds<I: IntoIterator<Item = u64>>(mut self, seeds: I) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Sets the seeds to a contiguous range (builder style).
    #[must_use]
    pub fn seed_range(self, range: std::ops::Range<u64>) -> Self {
        self.seeds(range)
    }

    /// Sets the worker-thread count (builder style). Clamped to at least
    /// 1; a fleet never spawns more workers than it has seeds.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Runs every seed and returns the per-seed outcomes in configured
    /// seed order — bit-identical regardless of the worker count, because
    /// each run is a pure function of `(base scenario, seed)`.
    pub fn run(&self) -> FleetReport {
        let workers = self.workers.min(self.seeds.len()).max(1);
        let mut outcomes: Vec<(usize, FleetOutcome)> = if workers <= 1 {
            self.seeds
                .iter()
                .enumerate()
                .map(|(slot, &seed)| (slot, self.run_one(seed)))
                .collect()
        } else {
            let next = AtomicUsize::new(0);
            let collected: Mutex<Vec<(usize, FleetOutcome)>> =
                Mutex::new(Vec::with_capacity(self.seeds.len()));
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        // Work stealing: slow seeds don't serialize the
                        // batch the way static chunking would.
                        let slot = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&seed) = self.seeds.get(slot) else {
                            break;
                        };
                        let outcome = self.run_one(seed);
                        collected
                            .lock()
                            .expect("collector mutex poisoned")
                            .push((slot, outcome));
                    });
                }
            });
            collected.into_inner().expect("collector mutex poisoned")
        };
        outcomes.sort_by_key(|(slot, _)| *slot);
        FleetReport {
            outcomes: outcomes.into_iter().map(|(_, o)| o).collect(),
            workers,
        }
    }

    fn run_one(&self, seed: u64) -> FleetOutcome {
        // The (Rc-based) report never leaves the worker; only the Send
        // summary does.
        let report = self.base.clone().seed(seed).run();
        FleetOutcome::from(&report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Workload;

    fn base() -> Scenario {
        Scenario::new(Scheme::XAble, Workload::KvPuts { count: 2 })
    }

    #[test]
    fn parallel_outcomes_are_bit_identical_to_sequential() {
        let fleet = Fleet::new(base()).seed_range(0..6);
        let sequential = fleet.clone().workers(1).run();
        for workers in [2, 4, 8] {
            let parallel = fleet.clone().workers(workers).run();
            assert_eq!(
                sequential.outcomes, parallel.outcomes,
                "fleet outcomes diverged at {workers} workers"
            );
        }
        assert_eq!(sequential.outcomes.len(), 6);
        assert!(sequential.all_correct());
        assert_eq!(sequential.decided_online(), 6);
    }

    #[test]
    fn outcomes_match_direct_scenario_runs() {
        let report = Fleet::new(base()).seeds([3, 1]).workers(2).run();
        assert_eq!(report.outcomes.len(), 2);
        // Seed-queue order is preserved, not sorted numerically.
        assert_eq!(report.outcomes[0].seed, 3);
        assert_eq!(report.outcomes[1].seed, 1);
        for outcome in &report.outcomes {
            let direct = base().seed(outcome.seed).run();
            assert_eq!(outcome, &FleetOutcome::from(&direct));
        }
    }

    #[test]
    fn empty_fleet_is_fine() {
        let report = Fleet::new(base()).workers(4).run();
        assert!(report.outcomes.is_empty());
        assert!(report.all_correct());
        assert_eq!(report.workers, 1, "no seeds, no spawned workers");
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let fleet = Fleet::new(base()).seed_range(0..3);
        let report = fleet.clone().workers(0).run();
        assert_eq!(report.workers, 1);
        assert_eq!(report.outcomes.len(), 3);
        assert_eq!(report.outcomes, fleet.workers(1).run().outcomes);
    }

    #[test]
    fn more_workers_than_seeds_clamps_to_seed_count() {
        let fleet = Fleet::new(base()).seed_range(0..2);
        let report = fleet.clone().workers(16).run();
        assert_eq!(
            report.workers, 2,
            "a fleet never spawns more workers than it has seeds"
        );
        assert_eq!(report.outcomes, fleet.workers(1).run().outcomes);
    }

    #[test]
    fn empty_seed_range_runs_nothing() {
        let report = Fleet::new(base()).seed_range(5..5).workers(0).run();
        assert!(report.outcomes.is_empty());
        assert!(report.all_correct());
        assert_eq!(report.decided_online(), 0);
        assert_eq!(report.workers, 1);
    }
}
