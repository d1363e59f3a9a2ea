//! Coverage-guided fault-scenario exploration with violation shrinking.
//!
//! The explorer closes the loop the hand-written scenarios leave open:
//! instead of a human picking crash times and fault rates, an
//! [`Explorer`] *searches* the fault space. It generates [`FaultPlan`]s
//! (crash schedules, message loss/duplication/reordering rates, partition
//! windows, service failure probabilities), runs each through the
//! ordinary [`Scenario`] machinery, and extracts a [`CoverageSignature`]
//! from the run — a small, totally ordered fingerprint of *what happened*
//! (verdict and reason class, rounds reached, anomaly shape, online
//! verdict flips). Plans that reach a signature never seen before join a
//! corpus and are mutated preferentially; everything is driven by one
//! master-seeded RNG, so a whole exploration is reproducible from a
//! single `u64`.
//!
//! When a run violates R3 (or the fast and search checker tiers disagree
//! on a definite verdict — a checker bug either way), the [`Shrinker`]
//! delta-debugs it in two phases: first the *plan* (dropping crashes,
//! partitions, and fault rates while the violation class survives), then
//! the recorded *trace* (classic ddmin over events and requests down to
//! 1-minimality). The shrunk reproducer serializes through the versioned
//! trace format with provenance metadata and lands in `tests/corpus/` as
//! a permanent regression — see `tests/corpus/README.md`.
//!
//! Everything here is deterministic: no wall clock, no hash-map
//! iteration, one `StdRng` stream per explorer. DESIGN.md §9 defines the
//! signature, the mutation schedule, and the shrinking-soundness
//! argument (every kept candidate is itself checker-rejected, so a
//! shrink can never manufacture a spurious violation).

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::Path;

use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};
use xability_core::xable::{
    contains_round_stamped, Checker, FastChecker, IncrementalChecker, SearchChecker, TieredChecker,
};
use xability_core::{ActionId, ActionName, History, Request, Value};
use xability_obs::{MetricsSnapshot, Obs};
use xability_services::FailurePlan;
use xability_sim::{NetFaultConfig, SimDuration, SimTime};
use xability_store::{write_trace_file_with_meta, TraceStore};

use crate::scenario::{RunReport, Scenario};

// ---------------------------------------------------------------------------
// Fault plans
// ---------------------------------------------------------------------------

/// One partition window in a [`FaultPlan`]: `members` (process indices in
/// the scenario layout) are severed from everyone else between `from_us`
/// and `until_us` (µs of simulated time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSpec {
    /// Process indices on the severed side.
    pub members: Vec<usize>,
    /// Window start (µs).
    pub from_us: u64,
    /// Window end (µs, exclusive; always > `from_us`).
    pub until_us: u64,
}

/// A complete, self-contained description of the faults injected into one
/// scenario run. Rates are stored in basis points (1 bp = 0.01 %) so the
/// plan is `Eq` and has no float-comparison pitfalls; times are µs.
///
/// `apply` stamps a plan onto a base [`Scenario`]; two applications of
/// the same plan to the same base produce bit-identical runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The scenario RNG seed (drives latency, elections, service
    /// non-determinism — everything inside the run).
    pub seed: u64,
    /// Service transient-failure probability, basis points.
    pub fail_bp: u16,
    /// Message-loss probability, basis points.
    pub drop_bp: u16,
    /// Message-duplication probability, basis points.
    pub dup_bp: u16,
    /// Message-reordering probability, basis points.
    pub reorder_bp: u16,
    /// Extra delay bound for reordered messages (µs).
    pub reorder_extra_us: u64,
    /// Replica crashes: (replica index, time µs).
    pub crashes: Vec<(usize, u64)>,
    /// Partition windows.
    pub partitions: Vec<PartitionSpec>,
}

impl FaultPlan {
    /// The fault-free plan for `seed`: no crashes, no partitions, all
    /// rates zero.
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            fail_bp: 0,
            drop_bp: 0,
            dup_bp: 0,
            reorder_bp: 0,
            reorder_extra_us: 0,
            crashes: Vec::new(),
            partitions: Vec::new(),
        }
    }

    /// `true` when the plan injects nothing at all.
    pub fn is_quiet(&self) -> bool {
        self.fail_bp == 0
            && self.drop_bp == 0
            && self.dup_bp == 0
            && self.reorder_bp == 0
            && self.crashes.is_empty()
            && self.partitions.is_empty()
    }

    /// Stamps this plan onto `base`, producing the scenario to run. The
    /// base supplies everything the plan does not describe (scheme,
    /// workload, replica count, horizon, planted weaknesses).
    pub fn apply(&self, base: &Scenario) -> Scenario {
        let mut s = base.clone().seed(self.seed).net_faults(NetFaultConfig {
            drop_prob: f64::from(self.drop_bp) / 10_000.0,
            dup_prob: f64::from(self.dup_bp) / 10_000.0,
            reorder_prob: f64::from(self.reorder_bp) / 10_000.0,
            reorder_max_extra: SimDuration::from_micros(self.reorder_extra_us),
        });
        if self.fail_bp > 0 {
            s = s.service_failures(FailurePlan::probabilistic(
                f64::from(self.fail_bp) / 10_000.0,
            ));
        }
        for &(replica, at_us) in &self.crashes {
            s = s.crash(replica, SimTime::from_micros(at_us));
        }
        for p in &self.partitions {
            s = s.partition(
                p.members.clone(),
                SimTime::from_micros(p.from_us),
                SimTime::from_micros(p.until_us),
            );
        }
        s
    }

    /// A one-line human/metadata summary of the plan (stable across
    /// runs; used for trace provenance).
    pub fn summary(&self) -> String {
        format!(
            "seed={} fail_bp={} drop_bp={} dup_bp={} reorder_bp={} crashes={:?} partitions={}",
            self.seed,
            self.fail_bp,
            self.drop_bp,
            self.dup_bp,
            self.reorder_bp,
            self.crashes,
            self.partitions.len(),
        )
    }
}

// ---------------------------------------------------------------------------
// Coverage signatures
// ---------------------------------------------------------------------------

/// The three-way outcome class of an R3 decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum VerdictClass {
    /// Definitely x-able.
    Xable,
    /// Definitely not x-able.
    NotXable,
    /// Undecided.
    Unknown,
}

impl VerdictClass {
    /// Classifies a checker verdict.
    pub fn of(verdict: &xability_core::xable::Verdict) -> Self {
        if verdict.is_xable() {
            VerdictClass::Xable
        } else if verdict.is_not_xable() {
            VerdictClass::NotXable
        } else {
            VerdictClass::Unknown
        }
    }
}

/// A stable classification of checker *reasons*: the exact reason strings
/// carry history-specific detail (names, counts), so coverage and
/// shrinking compare these keyword-derived classes instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ReasonClass {
    /// No violation (x-able or no reason given).
    None,
    /// A request's effect landed more than once (duplicate identity,
    /// multi-round commit).
    DuplicateEffect,
    /// Effects occur out of submission order.
    OutOfOrder,
    /// The history does not reduce / leftover events do not erase — the
    /// dangling-effect shape (rules 18–20 cannot fire).
    NoReduction,
    /// A §5.4 round was started but never committed *or* cancelled while
    /// a sibling round of the same request committed: a tentative effect
    /// left dangling forever (the structural form of [`NoReduction`],
    /// decided by [`dangling_round_violation`] independently of
    /// completion attribution).
    ///
    /// [`NoReduction`]: ReasonClass::NoReduction
    DanglingRound,
    /// A declared request was never executed, or ran in rounds of which
    /// none committed.
    NeverExecuted,
    /// Plain and round-stamped events are mixed for one request.
    MixedStamping,
    /// A search budget was exhausted before a decision.
    BudgetExceeded,
    /// The history itself is malformed for the decision procedure
    /// (non-base request, undeclared/abandoned request, cancelled-round
    /// anomalies).
    MalformedHistory,
    /// A reason that matches no known keyword (kept distinct so new
    /// checker reasons surface as new coverage, not silent merges).
    Other,
}

impl ReasonClass {
    /// Classifies a reason string (from [`Verdict::reason`] or a
    /// [`Violation`] detail).
    ///
    /// [`Verdict::reason`]: xability_core::xable::Verdict::reason
    /// [`Violation`]: xability_core::spec::Violation
    pub fn of(reason: Option<&str>) -> Self {
        let Some(r) = reason else {
            return ReasonClass::None;
        };
        // "… committed in {n} rounds (want exactly 1)": two or more is a
        // duplicate effect, none is a request that never took effect.
        let committed_rounds = (r.split_once("committed in "))
            .and_then(|(_, rest)| rest.split(' ').next()?.parse::<u32>().ok());
        if r.contains("duplicate request identity") || committed_rounds.is_some_and(|n| n >= 2) {
            ReasonClass::DuplicateEffect
        } else if committed_rounds == Some(0) {
            ReasonClass::NeverExecuted
        } else if r.contains("out of submission order") {
            ReasonClass::OutOfOrder
        } else if r.contains("do not reduce")
            || r.contains("no ordered concatenation")
            || r.contains("do not erase")
        {
            ReasonClass::NoReduction
        } else if r.contains("was never executed") {
            ReasonClass::NeverExecuted
        } else if r.contains("both plain and round-stamped") {
            ReasonClass::MixedStamping
        } else if r.contains("budget exceeded") {
            ReasonClass::BudgetExceeded
        } else if r.contains("is not a base action")
            || r.contains("cancelled round")
            || r.contains("abandoned request")
            || r.contains("undeclared request")
        {
            ReasonClass::MalformedHistory
        } else {
            ReasonClass::Other
        }
    }
}

/// Anomaly bits for [`CoverageSignature::anomalies`]; each bit records
/// that a fault *actually manifested* in the run (not merely that it was
/// scheduled).
pub mod anomaly {
    /// A message was dropped at a crashed destination.
    pub const CRASH_DROP: u16 = 1 << 0;
    /// Injected message loss fired.
    pub const MESSAGE_LOST: u16 = 1 << 1;
    /// Injected duplication fired.
    pub const MESSAGE_DUPLICATED: u16 = 1 << 2;
    /// Injected reordering fired.
    pub const MESSAGE_REORDERED: u16 = 1 << 3;
    /// A partition boundary dropped traffic.
    pub const PARTITION_DROP: u16 = 1 << 4;
    /// A failure detector changed its mind at least once.
    pub const SUSPICION: u16 = 1 << 5;
    /// The service failed an invocation transiently.
    pub const TRANSIENT_FAILURE: u16 = 1 << 6;
    /// A round was poisoned (terminal invocation failure).
    pub const TERMINAL_FAILURE: u16 = 1 << 7;
    /// At least one cancellation ran.
    pub const CANCEL: u16 = 1 << 8;
    /// At least one cleaning procedure ran.
    pub const CLEANING: u16 = 1 << 9;
    /// At least one unanswered invocation was retransmitted.
    pub const RETRANSMIT: u16 = 1 << 10;
}

/// A compact, totally ordered fingerprint of one run — the explorer's
/// coverage unit. Two runs with equal signatures exercised the system the
/// same way at this granularity; a plan producing a *new* signature is
/// worth keeping and mutating.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CoverageSignature {
    /// Final R3 outcome (from the run report's violation slot).
    pub verdict: VerdictClass,
    /// Reason class of the violation (`None` when x-able).
    pub reason: ReasonClass,
    /// Did the client finish before the horizon?
    pub finished: bool,
    /// Did every live replica resolve all external invocations?
    pub quiescent: bool,
    /// Did the online monitor decide R3 (vs the batch fallback)?
    pub decided_online: bool,
    /// Was exactly-once accounting clean?
    pub exactly_once: bool,
    /// Did every delivered result satisfy R4?
    pub r4_ok: bool,
    /// log₂ bucket of completed requests.
    pub completed_bucket: u8,
    /// log₂ bucket of the recorded history length.
    pub history_bucket: u8,
    /// log₂ bucket of protocol rounds owned across replicas.
    pub rounds_bucket: u8,
    /// Number of times the online verdict class changed along the run's
    /// event prefix (capped at 7).
    pub verdict_flips: u8,
    /// Which fault/recovery anomalies manifested (see [`anomaly`]).
    pub anomalies: u16,
}

fn log2_bucket(n: u64) -> u8 {
    (u64::BITS - n.leading_zeros()) as u8
}

impl CoverageSignature {
    /// Extracts the signature of a finished run.
    pub fn of(report: &RunReport) -> Self {
        let (verdict, reason) = match &report.r3_violation {
            Some(v) => (VerdictClass::NotXable, ReasonClass::of(Some(&v.detail))),
            None => (VerdictClass::Xable, ReasonClass::None),
        };
        let mut anomalies = 0u16;
        let sim = &report.sim;
        let rm = &report.replica_metrics;
        for (on, bit) in [
            (sim.messages_dropped > 0, anomaly::CRASH_DROP),
            (sim.messages_lost > 0, anomaly::MESSAGE_LOST),
            (sim.messages_duplicated > 0, anomaly::MESSAGE_DUPLICATED),
            (sim.messages_reordered > 0, anomaly::MESSAGE_REORDERED),
            (sim.partition_dropped > 0, anomaly::PARTITION_DROP),
            (sim.suspicion_changes > 0, anomaly::SUSPICION),
            (rm.transient_failures > 0, anomaly::TRANSIENT_FAILURE),
            (rm.terminal_failures > 0, anomaly::TERMINAL_FAILURE),
            (rm.cancels > 0, anomaly::CANCEL),
            (rm.cleanings > 0, anomaly::CLEANING),
            (rm.invoke_retransmits > 0, anomaly::RETRANSMIT),
        ] {
            if on {
                anomalies |= bit;
            }
        }
        CoverageSignature {
            verdict,
            reason,
            finished: report.finished,
            quiescent: report.quiescent,
            decided_online: report.r3_checked_online,
            exactly_once: report.exactly_once_violations.is_empty(),
            r4_ok: report.r4_ok,
            completed_bucket: log2_bucket(report.completed_requests as u64),
            history_bucket: log2_bucket(report.history_len as u64),
            rounds_bucket: log2_bucket(rm.rounds_owned),
            verdict_flips: verdict_flips(report),
            anomalies,
        }
    }
}

/// Replays the run's event stream through a fresh online checker and
/// counts how many times the verdict *class* changed along the prefix —
/// a cheap proxy for "how eventful" the run's recovery story was.
fn verdict_flips(report: &RunReport) -> u8 {
    let mut inc = IncrementalChecker::new();
    for r in &report.submitted {
        inc.declare_request(r);
    }
    let history = report.ledger.borrow().history().to_history();
    let mut flips = 0u8;
    let mut last = VerdictClass::of(&inc.verdict());
    for event in history {
        inc.push(event);
        let class = VerdictClass::of(&inc.verdict());
        if class != last {
            flips = flips.saturating_add(1);
            last = class;
        }
    }
    flips.min(7)
}

// ---------------------------------------------------------------------------
// Violations
// ---------------------------------------------------------------------------

/// What kind of violation a run exhibited.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ViolationKind {
    /// The recorded history is not x-able w.r.t. the submitted sequence.
    R3,
    /// The fast and search checker tiers both reached a definite verdict
    /// and disagreed — a decision-procedure bug regardless of the run.
    TierDisagreement,
}

/// The shrink-stable identity of a violation: its kind plus the reason
/// class. Shrinking preserves this class — a candidate that still fails
/// but for a *different* reason is rejected, so a shrunk reproducer
/// witnesses the same defect as the original run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ViolationClass {
    /// The violation kind.
    pub kind: ViolationKind,
    /// The reason class (see [`ReasonClass`]).
    pub reason: ReasonClass,
}

/// A violation the explorer found, with the plan that provoked it.
#[derive(Debug, Clone)]
pub struct FoundViolation {
    /// The provoking plan.
    pub plan: FaultPlan,
    /// The violation's shrink-stable class.
    pub class: ViolationClass,
    /// Recorded history length of the violating run (pre-shrink).
    pub history_len: usize,
    /// Zero-based index of the explorer run that found it.
    pub run_index: usize,
}

// ---------------------------------------------------------------------------
// The explorer
// ---------------------------------------------------------------------------

/// Explorer configuration: the base scenario every plan is stamped onto,
/// the run budget, and the plan-generation bounds.
#[derive(Debug, Clone)]
pub struct ExplorerConfig {
    /// Seed of the explorer's own RNG (plan generation and mutation);
    /// everything the explorer does is a pure function of this and the
    /// base scenario.
    pub master_seed: u64,
    /// How many scenario runs to spend.
    pub runs: usize,
    /// The base scenario (scheme, workload, replica count, horizon —
    /// and any planted weakness under test).
    pub base: Scenario,
    /// Most crashes a generated plan may schedule.
    pub max_crashes: usize,
    /// Most partition windows a generated plan may schedule.
    pub max_partitions: usize,
    /// Probability of mutating a corpus plan instead of generating a
    /// fresh random one (once the corpus is non-empty).
    pub mutation_bias: f64,
    /// Cross-check the fast and search tiers for disagreement only on
    /// histories up to this many events (the search tier is exponential).
    pub tier_check_max_events: usize,
}

impl ExplorerConfig {
    /// A configuration with default bounds.
    pub fn new(base: Scenario, master_seed: u64, runs: usize) -> Self {
        ExplorerConfig {
            master_seed,
            runs,
            base,
            max_crashes: 2,
            max_partitions: 1,
            mutation_bias: 0.75,
            tier_check_max_events: 40,
        }
    }
}

/// One corpus entry: a plan and the (then-new) signature it reached.
#[derive(Debug, Clone)]
pub struct CorpusPlan {
    /// The plan.
    pub plan: FaultPlan,
    /// The signature that admitted it.
    pub signature: CoverageSignature,
}

/// One point on the coverage-growth curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoveragePoint {
    /// Zero-based run index at which a new signature appeared.
    pub run: usize,
    /// Total distinct signatures after that run.
    pub signatures: usize,
}

/// The outcome of an exploration.
#[derive(Debug)]
pub struct ExploreReport {
    /// Runs actually executed.
    pub runs: usize,
    /// Distinct coverage signatures reached.
    pub signatures: usize,
    /// The coverage-growth curve (one point per new signature).
    pub curve: Vec<CoveragePoint>,
    /// The grown corpus, in discovery order.
    pub corpus: Vec<CorpusPlan>,
    /// Violations found, in discovery order (possibly many per class).
    pub violations: Vec<FoundViolation>,
    /// The exploration's own registry snapshot: run/plan-generation
    /// counters (`explore.runs`, `explore.plans_random`,
    /// `explore.plans_mutated`), coverage growth (`explore.new_signatures`,
    /// the `explore.corpus_size` gauge), and `explore.violations`. A pure
    /// function of (config, master seed) like everything else here.
    pub metrics: MetricsSnapshot,
}

impl ExploreReport {
    /// The violations deduplicated to one (the first) per class.
    pub fn distinct_violations(&self) -> Vec<&FoundViolation> {
        let mut seen: BTreeSet<ViolationClass> = BTreeSet::new();
        self.violations
            .iter()
            .filter(|v| seen.insert(v.class))
            .collect()
    }
}

/// The coverage-guided fault-space explorer. See the module docs.
#[derive(Debug)]
pub struct Explorer {
    config: ExplorerConfig,
    rng: StdRng,
    seen: BTreeSet<CoverageSignature>,
    corpus: Vec<CorpusPlan>,
    curve: Vec<CoveragePoint>,
    violations: Vec<FoundViolation>,
    obs: Obs,
}

impl Explorer {
    /// Creates an explorer for `config`.
    pub fn new(config: ExplorerConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.master_seed);
        Explorer {
            config,
            rng,
            seen: BTreeSet::new(),
            corpus: Vec::new(),
            curve: Vec::new(),
            violations: Vec::new(),
            obs: Obs::new(),
        }
    }

    /// Runs the configured budget and returns the exploration report.
    pub fn run(mut self) -> ExploreReport {
        for i in 0..self.config.runs {
            let plan = self.next_plan();
            let report = plan.apply(&self.config.base).run();
            self.obs.counter("explore.runs").inc();
            let signature = CoverageSignature::of(&report);
            if self.seen.insert(signature.clone()) {
                self.obs.counter("explore.new_signatures").inc();
                self.curve.push(CoveragePoint {
                    run: i,
                    signatures: self.seen.len(),
                });
                self.corpus.push(CorpusPlan {
                    plan: plan.clone(),
                    signature,
                });
                self.obs
                    .gauge("explore.corpus_size")
                    .set(self.corpus.len() as i64);
            }
            if let Some(class) = run_violation_class(&report, self.config.tier_check_max_events) {
                self.obs.counter("explore.violations").inc();
                self.violations.push(FoundViolation {
                    plan,
                    class,
                    history_len: report.history_len,
                    run_index: i,
                });
            }
        }
        ExploreReport {
            runs: self.config.runs,
            signatures: self.seen.len(),
            curve: self.curve,
            corpus: self.corpus,
            violations: self.violations,
            metrics: self.obs.snapshot(),
        }
    }

    /// Picks the next plan: mutate a corpus plan with probability
    /// `mutation_bias` (once the corpus is non-empty), else generate a
    /// fresh random one.
    fn next_plan(&mut self) -> FaultPlan {
        if !self.corpus.is_empty() && self.rng.random_bool(self.config.mutation_bias) {
            let pick = self.rng.random_range(0..self.corpus.len());
            let parent = self.corpus[pick].plan.clone();
            self.obs.counter("explore.plans_mutated").inc();
            self.mutate(&parent)
        } else {
            self.obs.counter("explore.plans_random").inc();
            self.random_plan()
        }
    }

    /// Horizon in µs; plan times are drawn from its first half so faults
    /// land while the run is still active.
    fn time_bound_us(&self) -> u64 {
        (self.config.base.horizon.as_micros() / 2).max(1_000)
    }

    fn random_rate_bp(&mut self, heavy: u16) -> u16 {
        // Mostly zero or light — heavy rates mostly stall runs into the
        // horizon, which is one signature, not many.
        match self.rng.random_range(0u8..4) {
            0 | 1 => 0,
            2 => self.rng.random_range(1..=heavy / 4),
            _ => self.rng.random_range(heavy / 4..=heavy),
        }
    }

    fn random_plan(&mut self) -> FaultPlan {
        let seed = self.rng.next_u64();
        let mut plan = FaultPlan::quiet(seed);
        plan.fail_bp = self.random_rate_bp(4_000);
        plan.drop_bp = self.random_rate_bp(1_000);
        plan.dup_bp = self.random_rate_bp(1_000);
        plan.reorder_bp = self.random_rate_bp(2_000);
        if plan.reorder_bp > 0 {
            plan.reorder_extra_us = self.rng.random_range(1_000..=50_000);
        }
        let crashes = self.rng.random_range(0..=self.config.max_crashes);
        for _ in 0..crashes {
            plan.crashes.push(self.random_crash());
        }
        let partitions = self.rng.random_range(0..=self.config.max_partitions);
        for _ in 0..partitions {
            let p = self.random_partition();
            plan.partitions.push(p);
        }
        plan
    }

    fn random_crash(&mut self) -> (usize, u64) {
        let replica = self.rng.random_range(0..self.config.base.replicas);
        let at = self.rng.random_range(0..self.time_bound_us());
        (replica, at)
    }

    fn random_partition(&mut self) -> PartitionSpec {
        // Sever a single process (a replica or the service) — richer
        // splits arise from mutation stacking windows.
        let processes = self.config.base.replicas + 1;
        let member = self.rng.random_range(0..processes);
        let from = self.rng.random_range(0..self.time_bound_us());
        let len = self.rng.random_range(1_000..=self.time_bound_us());
        PartitionSpec {
            members: vec![member],
            from_us: from,
            until_us: from + len,
        }
    }

    /// One random structural or rate mutation, plus (sometimes) a seed
    /// reroll — small steps so corpus neighborhoods are explored densely.
    fn mutate(&mut self, parent: &FaultPlan) -> FaultPlan {
        let mut plan = parent.clone();
        match self.rng.random_range(0u8..10) {
            0 => plan.seed = self.rng.next_u64(),
            1 => plan.fail_bp = self.random_rate_bp(4_000),
            2 => plan.drop_bp = self.random_rate_bp(1_000),
            3 => plan.dup_bp = self.random_rate_bp(1_000),
            4 => {
                plan.reorder_bp = self.random_rate_bp(2_000);
                if plan.reorder_bp > 0 && plan.reorder_extra_us == 0 {
                    plan.reorder_extra_us = self.rng.random_range(1_000..=50_000);
                }
            }
            5 => {
                if plan.crashes.len() < self.config.max_crashes {
                    plan.crashes.push(self.random_crash());
                } else if !plan.crashes.is_empty() {
                    let i = self.rng.random_range(0..plan.crashes.len());
                    plan.crashes.remove(i);
                }
            }
            6 => {
                if !plan.crashes.is_empty() {
                    let i = self.rng.random_range(0..plan.crashes.len());
                    plan.crashes.remove(i);
                }
            }
            7 => {
                if plan.partitions.len() < self.config.max_partitions {
                    let p = self.random_partition();
                    plan.partitions.push(p);
                } else if !plan.partitions.is_empty() {
                    let i = self.rng.random_range(0..plan.partitions.len());
                    plan.partitions.remove(i);
                }
            }
            8 => {
                if !plan.partitions.is_empty() {
                    let i = self.rng.random_range(0..plan.partitions.len());
                    plan.partitions.remove(i);
                }
            }
            _ => {
                // Re-draw the scenario seed *and* one rate: diagonal moves
                // escape plateaus where neither alone changes coverage.
                plan.seed = self.rng.next_u64();
                plan.fail_bp = self.random_rate_bp(4_000);
            }
        }
        plan
    }
}

/// Classifies the violation (if any) a finished run exhibits: an R3
/// violation from the report, or — on histories small enough to afford
/// the exhaustive tier — an *undocumented* definite fast-vs-search
/// disagreement (see [`tier_disagreement`]).
pub fn run_violation_class(report: &RunReport, tier_max_events: usize) -> Option<ViolationClass> {
    // R3 constrains the histories of *complete* executions (§2.3); a run
    // cut mid-flight by the horizon — or cut while a replica still had an
    // invocation in flight (e.g. a lost-commit retransmission the settle
    // window interrupted) — legitimately leaves an unresolved round that
    // the checker condemns or calls undecided, so only finished AND
    // quiescent runs can yield an R3 finding. (`is_correct()` draws the
    // finished line.) `spec::r3_violation` also reports *undecided*
    // verdicts so that `is_correct()` stays conservative; for the explorer
    // only a definite NotXable is a finding.
    let complete = report.finished && report.quiescent;
    if complete {
        if let Some(v) = &report.r3_violation {
            if !v.detail.starts_with("undecided:") {
                return Some(ViolationClass {
                    kind: ViolationKind::R3,
                    reason: ReasonClass::of(Some(&v.detail)),
                });
            }
        }
    }
    let history = report.ledger.borrow().history().to_history();
    if complete {
        if let Some(class) = dangling_round_violation(&report.submitted, &history) {
            return Some(class);
        }
    }
    if report.history_len <= tier_max_events {
        if let Some(reason) = tier_disagreement(&report.submitted, &history) {
            return Some(ViolationClass {
                kind: ViolationKind::TierDisagreement,
                reason,
            });
        }
    }
    None
}

/// The structural dangling-round oracle (rules 18–20 of the paper,
/// applied to §5.4 round-stamped protocols): every started undoable round
/// must eventually be resolved — committed (a `aᶜ` event for its round
/// identity) or cancelled (a `a⁻¹` event for it). A round that is neither,
/// while a *sibling* round of the same request committed, has left a
/// tentative effect that no reduction can erase: the request concluded,
/// so nothing will ever resolve the stray round, and the history is not
/// x-able under **any** completion attribution — starts, commits, and
/// cancels all carry the round identity `Pair(base input, round)`
/// explicitly, so this oracle never depends on attributing an
/// output-valued completion to a round (the ambiguity that downgrades the
/// fast tier to `Unknown` on exactly these histories).
///
/// The sibling-commit requirement is what makes the rule sound on run
/// prefixes: a lone open round is just an execution in flight. The
/// dangling round must also belong to a *declared* request — that keeps
/// the reproducer meaningful (trace shrinking then provably retains the
/// violated request in the minimal request list rather than an arbitrary
/// bystander).
pub fn dangling_round_violation(requests: &[Request], history: &History) -> Option<ViolationClass> {
    let declared: BTreeSet<(&ActionName, &Value)> = requests
        .iter()
        .filter(|r| r.action().is_undoable_base())
        .map(|r| (r.action().base_name(), r.input()))
        .collect();
    #[derive(Default)]
    struct RoundState {
        started: bool,
        committed: bool,
        cancelled: bool,
    }
    // Round identity → its resolution state. `(undoable name, base input,
    // round)` keys; BTreeMap so the scan order is deterministic.
    let mut rounds: BTreeMap<(ActionName, Value, i64), RoundState> = BTreeMap::new();
    for e in history.iter() {
        let name = e.action().base_name();
        // Completions carry outputs, not round identities.
        let stamp = (e.value().round_stamp()).filter(|_| e.is_start() && name.is_undoable());
        let Some((base, round)) = stamp else {
            continue;
        };
        let state = rounds
            .entry((name.clone(), base.clone(), round))
            .or_default();
        match e.action() {
            ActionId::Base(_) => state.started = true,
            ActionId::Commit(_) => state.committed = true,
            ActionId::Cancel(_) => state.cancelled = true,
        }
    }
    let committed_requests: BTreeSet<(&ActionName, &Value)> = rounds
        .iter()
        .filter(|(_, state)| state.committed)
        .map(|((name, base, _), _)| (name, base))
        .collect();
    let dangling = rounds.iter().any(|((name, base, _), state)| {
        state.started
            && !state.committed
            && !state.cancelled
            && committed_requests.contains(&(name, base))
            && declared.contains(&(name, base))
    });
    dangling.then_some(ViolationClass {
        kind: ViolationKind::R3,
        reason: ReasonClass::DanglingRound,
    })
}

/// The fast-vs-search disagreement oracle: `Some(reason class)` when the
/// two tiers reach *contradictory definite* verdicts on a question they
/// both speak, excluding the divergences DESIGN.md §4.3 documents as
/// deliberate:
///
/// * round-stamped histories are skipped entirely (different questions);
/// * on multi-request questions, a fast accept against a search reject
///   (the trailing-duplicate class) and a fast "out of submission order"
///   reject against a search accept (the effect-ordered class) are the
///   documented readings diverging, not bugs.
///
/// On single-request questions the tiers are property-tested to agree
/// (`tests/checker_agreement.rs`), so *any* surviving disagreement is a
/// decision-procedure bug worth shrinking.
pub fn tier_disagreement(requests: &[Request], history: &History) -> Option<ReasonClass> {
    if contains_round_stamped(history) {
        return None;
    }
    let fast = FastChecker.check_requests(history, requests);
    let search = SearchChecker::default().check_requests(history, requests);
    if fast.is_unknown() || search.is_unknown() || fast.is_xable() == search.is_xable() {
        return None;
    }
    if requests.len() >= 2 {
        if fast.is_xable() {
            return None; // documented trailing-duplicate divergence
        }
        if ReasonClass::of(fast.reason()) == ReasonClass::OutOfOrder {
            return None; // documented effect-ordered divergence
        }
    }
    Some(ReasonClass::of(fast.reason().or_else(|| search.reason())))
}

// ---------------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------------

/// A violation shrunk to a minimal reproducer: the simplified plan, plus
/// the 1-minimal request sequence and event trace that still exhibit the
/// class under the batch checker.
#[derive(Debug, Clone)]
pub struct ShrunkViolation {
    /// The violation's class (preserved through every shrink step).
    pub class: ViolationClass,
    /// The plan after phase A (fault removal).
    pub plan: FaultPlan,
    /// The minimal request sequence.
    pub requests: Vec<Request>,
    /// The minimal event trace.
    pub history: History,
}

impl ShrunkViolation {
    /// Provenance metadata for the serialized reproducer.
    pub fn meta(&self) -> Vec<(String, String)> {
        vec![
            ("generator".to_string(), "harness::explore".to_string()),
            (
                "violation_kind".to_string(),
                format!("{:?}", self.class.kind),
            ),
            (
                "reason_class".to_string(),
                format!("{:?}", self.class.reason),
            ),
            ("plan".to_string(), self.plan.summary()),
            ("events".to_string(), self.history.len().to_string()),
        ]
    }

    /// Serializes the reproducer to `path` in the versioned trace format
    /// with provenance metadata, for `tests/corpus/`.
    pub fn write_trace(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let store = TraceStore::from_history(&self.history);
        write_trace_file_with_meta(path, &self.requests, &store.snapshot(), &self.meta())
    }
}

/// Delta-debugs violating runs down to minimal reproducers. Shrinking is
/// fully deterministic (no RNG) and *sound*: a candidate survives only if
/// it is itself rejected by the checker with the same
/// [`ViolationClass`], so the output always witnesses a real violation
/// of the same kind.
#[derive(Debug)]
pub struct Shrinker {
    base: Scenario,
    checker: TieredChecker,
    tier_check_max_events: usize,
}

impl Shrinker {
    /// A shrinker re-running plans against `base` (use the same base the
    /// explorer ran with).
    pub fn new(base: Scenario) -> Self {
        Shrinker {
            base,
            checker: TieredChecker::default(),
            tier_check_max_events: 40,
        }
    }

    /// The class a (requests, history) pair exhibits under the batch
    /// checker, if any — the predicate every trace-shrink candidate must
    /// keep satisfying.
    pub fn history_class(&self, requests: &[Request], history: &History) -> Option<ViolationClass> {
        let tiered = self.checker.check_requests(history, requests);
        if tiered.is_not_xable() {
            return Some(ViolationClass {
                kind: ViolationKind::R3,
                reason: ReasonClass::of(tiered.reason()),
            });
        }
        if let Some(class) = dangling_round_violation(requests, history) {
            return Some(class);
        }
        if history.len() <= self.tier_check_max_events {
            if let Some(reason) = tier_disagreement(requests, history) {
                return Some(ViolationClass {
                    kind: ViolationKind::TierDisagreement,
                    reason,
                });
            }
        }
        None
    }

    /// The class a full plan run exhibits against the base scenario.
    pub fn plan_class(&self, plan: &FaultPlan) -> Option<ViolationClass> {
        let report = plan.apply(&self.base).run();
        run_violation_class(&report, self.tier_check_max_events)
    }

    /// Shrinks `violation` to a minimal reproducer, or `None` if the
    /// violation does not reproduce from its plan (a nondeterminism bug —
    /// callers should treat that as its own failure).
    pub fn shrink(&self, violation: &FoundViolation) -> Option<ShrunkViolation> {
        let class = violation.class;
        if self.plan_class(&violation.plan) != Some(class) {
            return None;
        }
        let plan = self.shrink_plan(&violation.plan, class);
        let report = plan.apply(&self.base).run();
        let requests = report.submitted.clone();
        let history = report.ledger.borrow().history().to_history();
        // The *recorded* trace must exhibit the class under the batch
        // checker before trace shrinking starts; if the run-level class
        // came from the online monitor only, fall back to the unshrunk
        // trace rather than producing a reproducer for a different bug.
        if self.history_class(&requests, &history) != Some(class) {
            return Some(ShrunkViolation {
                class,
                plan,
                requests,
                history,
            });
        }
        let (requests, history) = self.shrink_trace(&requests, &history, class);
        Some(ShrunkViolation {
            class,
            plan,
            requests,
            history,
        })
    }

    /// Phase A: greedily drops crashes, partitions, and fault rates while
    /// the re-run still exhibits `class`. Deterministic fixed point.
    pub fn shrink_plan(&self, plan: &FaultPlan, class: ViolationClass) -> FaultPlan {
        let mut current = plan.clone();
        loop {
            let mut simplified = false;
            for candidate in plan_simplifications(&current) {
                if self.plan_class(&candidate) == Some(class) {
                    current = candidate;
                    simplified = true;
                    break;
                }
            }
            if !simplified {
                return current;
            }
        }
    }

    /// Phase B: ddmin over events, then requests, looping to a joint
    /// fixed point. The result is 1-minimal — removing any single event
    /// or request loses the class — which also makes shrinking
    /// idempotent: re-shrinking a shrunk trace changes nothing.
    pub fn shrink_trace(
        &self,
        requests: &[Request],
        history: &History,
        class: ViolationClass,
    ) -> (Vec<Request>, History) {
        let mut requests = requests.to_vec();
        let mut history = history.clone();
        loop {
            let events_before = history.len();
            let requests_before = requests.len();
            history = ddmin(history.len(), |keep| {
                let candidate = history.select(keep);
                if self.history_class(&requests, &candidate) == Some(class) {
                    Some(candidate)
                } else {
                    None
                }
            })
            .unwrap_or(history);
            requests = ddmin(requests.len(), |keep| {
                let candidate: Vec<Request> = keep.iter().map(|&i| requests[i].clone()).collect();
                if self.history_class(&candidate, &history) == Some(class) {
                    Some(candidate)
                } else {
                    None
                }
            })
            .unwrap_or(requests);
            if history.len() == events_before && requests.len() == requests_before {
                return (requests, history);
            }
        }
    }
}

/// All one-step simplifications of a plan, most-impactful first.
fn plan_simplifications(plan: &FaultPlan) -> Vec<FaultPlan> {
    let mut out = Vec::new();
    for i in 0..plan.crashes.len() {
        let mut p = plan.clone();
        p.crashes.remove(i);
        out.push(p);
    }
    for i in 0..plan.partitions.len() {
        let mut p = plan.clone();
        p.partitions.remove(i);
        out.push(p);
    }
    if plan.drop_bp > 0 {
        let mut p = plan.clone();
        p.drop_bp = 0;
        out.push(p);
    }
    if plan.dup_bp > 0 {
        let mut p = plan.clone();
        p.dup_bp = 0;
        out.push(p);
    }
    if plan.reorder_bp > 0 {
        let mut p = plan.clone();
        p.reorder_bp = 0;
        p.reorder_extra_us = 0;
        out.push(p);
    }
    if plan.fail_bp > 0 {
        let mut p = plan.clone();
        p.fail_bp = 0;
        out.push(p);
    }
    out
}

/// Classic ddmin over index sets: finds a 1-minimal subset of
/// `0..len` for which `test` returns `Some` (the rebuilt value). Returns
/// `None` when even the full set fails `test` (caller keeps the input).
///
/// `test` is called on *sorted* index slices, so element order is always
/// preserved.
fn ddmin<T>(len: usize, mut test: impl FnMut(&[usize]) -> Option<T>) -> Option<T> {
    let mut keep: Vec<usize> = (0..len).collect();
    let mut best = test(&keep)?;
    let mut granularity = 2usize;
    while keep.len() >= 2 {
        // Try removing each of `granularity` chunks (complement test).
        let chunk = keep.len().div_ceil(granularity);
        let mut reduced = false;
        let mut start = 0;
        while start < keep.len() {
            let end = (start + chunk).min(keep.len());
            let candidate: Vec<usize> = keep[..start].iter().chain(&keep[end..]).copied().collect();
            if !candidate.is_empty() {
                if let Some(value) = test(&candidate) {
                    keep = candidate;
                    best = value;
                    reduced = true;
                    break;
                }
            }
            start = end;
        }
        if reduced {
            // Re-sweep the smaller keep-set at a clamped granularity.
            granularity = granularity.clamp(2, keep.len().max(2));
            continue;
        }
        if chunk == 1 {
            break; // 1-minimal: no single index can be dropped.
        }
        granularity = (granularity * 2).min(keep.len());
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddmin_finds_a_minimal_failing_subset() {
        // "Fails" whenever indices 3 and 7 are both present.
        let result = ddmin(10, |keep| {
            if keep.contains(&3) && keep.contains(&7) {
                Some(keep.to_vec())
            } else {
                None
            }
        });
        assert_eq!(result, Some(vec![3, 7]));
    }

    #[test]
    fn ddmin_rejects_when_even_the_full_set_passes() {
        assert_eq!(ddmin(4, |_| None::<()>), None);
        // Empty input: test is called with the empty keep-set and decides.
        assert_eq!(ddmin(0, |keep| Some(keep.len())), Some(0));
    }

    #[test]
    fn ddmin_is_order_preserving() {
        let result = ddmin(6, |keep| {
            let sub: Vec<usize> = keep.to_vec();
            // Require at least indices {1, 4} in order.
            if sub.contains(&1) && sub.contains(&4) {
                Some(sub)
            } else {
                None
            }
        })
        .unwrap();
        let mut sorted = result.clone();
        sorted.sort_unstable();
        assert_eq!(result, sorted);
    }

    #[test]
    fn reason_classes_cover_the_checker_catalog() {
        for (text, class) in [
            ("duplicate request identity x", ReasonClass::DuplicateEffect),
            ("committed in 2 rounds (want exactly 1)", ReasonClass::DuplicateEffect),
            ("committed in 0 rounds (want exactly 1)", ReasonClass::NeverExecuted),
            (
                "request effects occur out of submission order",
                ReasonClass::OutOfOrder,
            ),
            (
                "events of request (a, Nil) do not reduce to a failure-free execution",
                ReasonClass::NoReduction,
            ),
            (
                "the reduction closure contains no ordered concatenation of failure-free histories for the request sequence",
                ReasonClass::NoReduction,
            ),
            ("left events that do not erase", ReasonClass::NoReduction),
            ("request (a, Nil) was never executed", ReasonClass::NeverExecuted),
            (
                "mixes both plain and round-stamped events",
                ReasonClass::MixedStamping,
            ),
            ("per-group search budget exceeded", ReasonClass::BudgetExceeded),
            ("x is not a base action", ReasonClass::MalformedHistory),
            ("undeclared request (a, Nil)", ReasonClass::MalformedHistory),
            ("something entirely new", ReasonClass::Other),
        ] {
            assert_eq!(ReasonClass::of(Some(text)), class, "{text}");
        }
        assert_eq!(ReasonClass::of(None), ReasonClass::None);
    }

    #[test]
    fn quiet_plan_is_quiet_and_applies_cleanly() {
        let plan = FaultPlan::quiet(7);
        assert!(plan.is_quiet());
        let base = Scenario::new(
            crate::scenario::Scheme::XAble,
            crate::scenario::Workload::KvPuts { count: 1 },
        );
        let s = plan.apply(&base);
        assert_eq!(s.seed, 7);
        assert!(s.net_faults.is_quiet());
        assert!(s.crashes.is_empty());
        assert!(s.partitions.is_empty());
    }

    #[test]
    fn log2_buckets_are_monotone() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 3);
        let mut last = 0;
        for n in 0..1000 {
            let b = log2_bucket(n);
            assert!(b >= last);
            last = b;
        }
    }

    #[test]
    fn plan_generation_is_deterministic_per_master_seed() {
        let base = Scenario::new(
            crate::scenario::Scheme::XAble,
            crate::scenario::Workload::KvPuts { count: 1 },
        );
        let mut a = Explorer::new(ExplorerConfig::new(base.clone(), 99, 0));
        let mut b = Explorer::new(ExplorerConfig::new(base, 99, 0));
        for _ in 0..50 {
            assert_eq!(a.next_plan(), b.next_plan());
        }
    }

    #[test]
    fn plan_simplifications_strictly_simplify() {
        let plan = FaultPlan {
            seed: 1,
            fail_bp: 100,
            drop_bp: 50,
            dup_bp: 50,
            reorder_bp: 50,
            reorder_extra_us: 1000,
            crashes: vec![(0, 10), (1, 20)],
            partitions: vec![PartitionSpec {
                members: vec![0],
                from_us: 5,
                until_us: 15,
            }],
        };
        let simpler = plan_simplifications(&plan);
        assert_eq!(simpler.len(), 7); // 2 crashes + 1 partition + 4 rates
        for s in &simpler {
            assert_ne!(&plan, s);
        }
        assert!(plan_simplifications(&FaultPlan::quiet(1)).is_empty());
    }
}
