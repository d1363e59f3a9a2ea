//! The benchmark's vocabulary — workloads and metrics — and the result
//! line every run ends with. `BENCHMARK.json` at the repository root
//! states the same tables; a test keeps the two in step.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ProtoSteady,
    ProtoFaults,
    VerifyOnline,
    VerifyDurable,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ProtoSteady,
        Workload::ProtoFaults,
        Workload::VerifyOnline,
        Workload::VerifyDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ProtoSteady => "proto_steady",
            Workload::ProtoFaults => "proto_faults",
            Workload::VerifyOnline => "verify_online",
            Workload::VerifyDurable => "verify_durable",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; per-layer metrics carry no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one of
/// these (the runner's contract), so each is defined per workload — see
/// the glossary in `README.md`. The wall-clock bounds are as wide as the
/// contract allows because that is what the reference box needs: the same
/// commit's ten-run medians of a memory-bound iteration differ by up to a
/// fifth from one quarter of an hour to the next.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
    e2e("requests_per_s", "1/s", Higher, 0.25),
    e2e("events_per_s", "1/s", Higher, 0.25),
    e2e("latency_ms_p50", "ms", Lower, 0.25),
    e2e("latency_ms_tail", "ms", Lower, 0.25),
    e2e("stored_bytes_per_event", "bytes", Lower, 0.02),
];

/// Single-layer numbers from the traced run. A workload reports 0 for a
/// metric whose layer is not on its traced path.
pub const PER_LAYER: &[MetricDef] = &[
    // The workload-specific user-visible figures, from an untraced iteration
    // of the traced run.
    layer("sim_latency_ms_p50", "sim_ms", Lower),
    layer("sim_latency_ms_p99", "sim_ms", Lower),
    layer("msgs_per_request", "count", Lower),
    layer("failover_gap_ms", "sim_ms", Lower),
    layer("verdict_ms_p50", "ms", Lower),
    layer("verdict_ms_p95", "ms", Lower),
    layer("durable_events_per_s", "1/s", Higher),
    layer("reopen_verdict_s", "s", Lower),
    layer("recheck_events_per_s", "1/s", Higher),
    layer("disk_bytes_per_event", "bytes", Lower),
    layer("sim.step_self_us_per_request", "us", Lower),
    layer("sim.events_per_request", "count", Lower),
    layer("sim.timers_per_request", "count", Lower),
    layer("sim.heartbeats_per_request", "count", Lower),
    layer("protocol.replica_msg_us_per_request", "us", Lower),
    layer("protocol.replica_timer_us_per_request", "us", Lower),
    layer("protocol.client_us_per_request", "us", Lower),
    layer("protocol.session_growth_ratio", "ratio", Lower),
    layer("protocol.rounds_per_request", "count", Lower),
    layer("protocol.cancels_per_request", "count", Lower),
    layer("protocol.cleanings_per_request", "count", Lower),
    layer("protocol.invoke_retransmits_per_request", "count", Lower),
    layer("consensus.decide_us_per_instance", "us", Lower),
    layer("consensus.msgs_per_instance", "count", Lower),
    layer("consensus.tick_us_at_2k_instances", "us", Lower),
    layer("consensus.decides_per_request", "count", Lower),
    layer("services.actor_us_per_request", "us", Lower),
    layer("services.invocations_per_request", "count", Lower),
    layer("services.record_event_ns_per_event", "ns", Lower),
    layer("services.record_batch_ns_per_event", "ns", Lower),
    layer("services.record_batch_nomonitor_ns_per_event", "ns", Lower),
    layer("services.verdict_share", "ratio", Lower),
    layer("services.spill_overhead_ns_per_event", "ns", Lower),
    layer("services.pipelined_speedup_2w", "ratio", Higher),
    layer("store.push_ns_per_event", "ns", Lower),
    layer("store.push_batch_ns_per_event", "ns", Lower),
    layer("store.mem_bytes_per_event", "bytes", Lower),
    layer("store.seal_none_ns_per_event", "ns", Lower),
    layer("store.seal_lz_ns_per_event", "ns", Lower),
    layer("store.lz_ratio", "ratio", Higher),
    layer("store.recover_ns_per_event", "ns", Lower),
    layer("store.view_scan_ns_per_event", "ns", Lower),
    layer("core.intern_ns_per_value", "ns", Lower),
    layer("core.observe_ns_per_event", "ns", Lower),
    layer("core.observe_batch_ns_per_event", "ns", Lower),
    layer("core.verdict_ns_per_event", "ns", Lower),
    layer("core.dirty_ops_per_verdict", "count", Lower),
    layer("core.budget_escalations", "count", Lower),
    layer("core.fast_check_ns_per_event", "ns", Lower),
    layer("core.check_sharded_speedup_2w", "ratio", Higher),
    layer("obs.attach_overhead_pct", "%", Lower),
    layer("obs.snapshot_ms", "ms", Lower),
    layer("harness.build_ms", "ms", Lower),
    layer("harness.residual_ms_per_session", "ms", Lower),
    layer("harness.session_ms_p50", "ms", Lower),
    layer("harness.session_ms_max", "ms", Lower),
    layer("bench.trace_overhead_pct", "%", Lower),
    layer("bench.unattributed_pct", "%", Lower),
    layer("bench.warmup_ratio", "ratio", Lower),
    layer("bench.timed_iterations", "count", Higher),
    layer("bench.spans", "count", Lower),
];

/// Named measurements of one run. A metric measured several times in the
/// run (once per timed iteration) keeps its samples so the run can state
/// their count and quartiles; the reported value is their median.
#[derive(Debug, Default, Clone)]
pub struct Measurements {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Measurements {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.samples.insert(name, vec![value]);
    }

    pub fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    pub fn summary(&self, name: &str) -> Option<Summary> {
        self.samples.get(name).map(|s| Summary::of(s))
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness violations, one line each; empty = correct.
    pub violations: Vec<String>,
    pub metrics: Measurements,
}

impl Outcome {
    pub fn violation(&mut self, what: impl Into<String>) {
        self.violations.push(what.into());
    }

    /// Counts one operation; it fails, with `what` as the violation, unless
    /// `ok`. The description is only built for a failure: it usually prints
    /// a verdict, and a verdict carries every request's output.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.violation(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }

    /// Flags every end-to-end metric of `table` this run failed to measure
    /// (a run whose operations all failed has no latency to report).
    pub fn require(&mut self, table: &[MetricDef]) {
        for def in table.iter().filter(|d| d.bound.is_some()) {
            if self.metrics.summary(def.name).is_none() {
                self.violation(format!("end-to-end metric {} was not measured", def.name));
            }
        }
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter holding every metric of `table`. A metric not
    /// measured reads 0: a per-layer one off this workload's traced path.
    pub fn result_line(&self, table: &[MetricDef]) -> Json {
        let metrics = table.iter().map(|def| {
            let value = self.metrics.summary(def.name).map_or(0.0, |s| s.median);
            let entry = Json::obj([("value", Json::Num(value)), ("unit", Json::str(def.unit))]);
            (def.name, entry)
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// Sample count and quartiles of every metric of `table` measured more
    /// than once in this run.
    pub fn detail(&self, table: &[MetricDef]) -> Json {
        Json::obj(table.iter().filter_map(|def| {
            let s = self.metrics.summary(def.name).filter(|s| s.n > 1)?;
            Some((def.name, summary_json(&s)))
        }))
    }
}

pub fn summary_json(s: &Summary) -> Json {
    Json::obj([
        ("n", Json::Num(s.n as f64)),
        ("min", Json::Num(s.min)),
        ("q1", Json::Num(s.q1)),
        ("median", Json::Num(s.median)),
        ("q3", Json::Num(s.q3)),
        ("max", Json::Num(s.max)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn tables_meet_the_runner_limits() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(def.name, 64, "_.-"), "{}", def.name);
            assert!(def.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name_ok(def.unit, 16, "_/%.-"), "{}", def.unit);
            assert!(seen.insert(def.name), "{} is listed twice", def.name);
        }
        for def in END_TO_END {
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25);
        }
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest));
    }

    /// `BENCHMARK.json` is what the runner and later changes read; it must
    /// state exactly the tables this program reports.
    #[test]
    fn benchmark_json_states_the_same_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let workloads: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).unwrap().as_arr().unwrap();
            assert_eq!(listed.len(), table.len(), "{key}");
            for (entry, def) in listed.iter().zip(table) {
                let field = |f: &str| entry.get(f).and_then(Json::as_str);
                assert_eq!(field("name"), Some(def.name));
                assert_eq!(field("unit"), Some(def.unit), "{}", def.name);
                assert_eq!(field("better"), Some(def.better.name()), "{}", def.name);
                assert_eq!(
                    entry.get("bound").and_then(Json::as_f64),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut outcome = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        for def in END_TO_END {
            outcome.metrics.push(def.name, 1.5);
            outcome.metrics.push(def.name, 2.5);
            outcome.metrics.push(def.name, 4.0);
        }
        let line = outcome.result_line(END_TO_END);
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let metrics = line.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics[0].1.get("value").and_then(Json::as_f64), Some(2.5));
        assert_eq!(
            outcome.detail(END_TO_END).get("setup_s").unwrap().get("n"),
            Some(&Json::Num(3.0))
        );

        // Per-layer metrics off the traced path read 0; a failure flips
        // `correct`.
        outcome.failed = 1;
        let line = outcome.result_line(PER_LAYER);
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        let first = &line.get("metrics").unwrap().as_obj().unwrap()[0].1;
        assert_eq!(first.get("value").and_then(Json::as_f64), Some(0.0));
    }
}
