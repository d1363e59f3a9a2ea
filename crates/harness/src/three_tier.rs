//! Three-tier composition (claim C3): a replicated app tier invoking a
//! replicated back-end tier.
//!
//! The paper's footnote 1 motivates x-ability with three-tier Internet
//! architectures, and §4 argues that x-ability composes: because a
//! replicated service's `submit` is idempotent (R1) and eventually succeeds
//! (R2), *another* replicated service may invoke it and treat the
//! invocation as an ordinary idempotent action in its own x-ability proof.
//!
//! The [`Gateway`] makes that argument executable. To the app-tier replicas
//! it looks like any external service (it answers `Invoke` with
//! `InvokeReply`); internally it is a client of the back-end replica group,
//! submitting one back-end request per app-tier request key and retrying
//! against other back-end replicas on suspicion (Fig. 5 logic). It records
//! the app tier's formal events — start on invocation, completion on
//! back-end reply — in its own ledger, so the app tier's history can be
//! checked for x-ability *independently* of the back-end's.

use std::collections::BTreeMap;

use xability_core::spec::Violation;
use xability_core::{ActionId, ActionName, Event, Value};

use crate::scenario::r3_violation_for;
use xability_protocol::{Client, LogicalRequest, ProtoMsg, XReplica, XReplicaConfig};
use xability_services::catalog::Bank;
use xability_services::{shared_ledger, ServiceConfig, ServiceCore, SharedLedger};
use xability_sim::{Actor, Context, ProcessId, SimConfig, SimDuration, SimTime, TimerId, World};

#[derive(Debug)]
struct CallState {
    backend_req: LogicalRequest,
    result: Option<Value>,
    waiters: Vec<(ProcessId, u64)>,
    cursor: usize,
    waiting: bool,
}

/// The middle-tier's view of a replicated back-end: an external service
/// whose `execute` is the back-end's (idempotent) `submit`.
#[derive(Debug)]
pub struct Gateway {
    backend_replicas: Vec<ProcessId>,
    backend_action: ActionName,
    backend_service: ProcessId,
    app_action: ActionName,
    app_ledger: SharedLedger,
    calls: BTreeMap<String, CallState>,
    tick: SimDuration,
}

/// Error returned by [`Gateway::try_new`] for an invalid configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatewayConfigError(String);

impl std::fmt::Display for GatewayConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid gateway configuration: {}", self.0)
    }
}

impl std::error::Error for GatewayConfigError {}

impl Gateway {
    /// Creates a gateway, validating the configuration.
    ///
    /// * `backend_replicas` — the back-end replica group to submit to.
    /// * `backend_action` / `backend_service` — what the back-end requests
    ///   execute.
    /// * `app_action` — the (idempotent) action name under which the
    ///   composition is recorded in `app_ledger`.
    ///
    /// # Errors
    ///
    /// Fails when `backend_replicas` is empty, or when `app_action` is not
    /// idempotent: a replicated service invocation *is* an idempotent
    /// action by R1.
    pub fn try_new(
        backend_replicas: Vec<ProcessId>,
        backend_action: ActionName,
        backend_service: ProcessId,
        app_action: ActionName,
        app_ledger: SharedLedger,
    ) -> Result<Self, GatewayConfigError> {
        if backend_replicas.is_empty() {
            return Err(GatewayConfigError(
                "need at least one back-end replica".to_owned(),
            ));
        }
        if !app_action.is_idempotent() {
            return Err(GatewayConfigError(format!(
                "app action {app_action} is not idempotent; a replicated service \
                 invocation is an idempotent action (R1)"
            )));
        }
        Ok(Gateway {
            backend_replicas,
            backend_action,
            backend_service,
            app_action,
            app_ledger,
            calls: BTreeMap::new(),
            tick: SimDuration::from_millis(15),
        })
    }

    fn submit_backend(&mut self, ctx: &mut Context<'_, ProtoMsg>, key: &str) {
        let Some(call) = self.calls.get_mut(key) else {
            return;
        };
        if call.result.is_some() {
            return;
        }
        // Skip suspected back-end replicas, like the client stub does.
        for _ in 0..self.backend_replicas.len() {
            if ctx.suspects(self.backend_replicas[call.cursor]) {
                call.cursor = (call.cursor + 1) % self.backend_replicas.len();
            } else {
                break;
            }
        }
        let target = self.backend_replicas[call.cursor];
        call.waiting = true;
        ctx.send(
            target,
            ProtoMsg::ClientRequest {
                req: call.backend_req.clone(),
            },
        );
    }
}

impl Actor<ProtoMsg> for Gateway {
    fn on_start(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        ctx.set_timer(self.tick);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ProtoMsg>, from: ProcessId, msg: ProtoMsg) {
        match msg {
            ProtoMsg::Invoke { invocation, sreq } => {
                let key = match sreq.key.as_str() {
                    Some(s) => s.to_owned(),
                    None => format!("{}", sreq.key),
                };
                // The app tier's formal start event: the composed action
                // begins.
                self.app_ledger.borrow_mut().record_event(
                    Event::start(ActionId::base(self.app_action.clone()), sreq.key.clone()),
                    ctx.now(),
                    "gateway",
                );
                if let Some(result) = self.calls.get(&key).and_then(|c| c.result.clone()) {
                    // Deduplicated retry: same stored reply, immediately.
                    self.app_ledger.borrow_mut().record_event(
                        Event::complete(ActionId::base(self.app_action.clone()), result.clone()),
                        ctx.now(),
                        "gateway",
                    );
                    ctx.send(
                        from,
                        ProtoMsg::InvokeReply {
                            invocation,
                            outcome: xability_services::InvokeOutcome::Success(result),
                        },
                    );
                    return;
                }
                let fresh = !self.calls.contains_key(&key);
                let entry = self.calls.entry(key.clone()).or_insert_with(|| CallState {
                    backend_req: LogicalRequest::new(
                        key.clone(),
                        self.backend_action.clone(),
                        sreq.payload.clone(),
                        self.backend_service,
                    ),
                    result: None,
                    waiters: Vec::new(),
                    cursor: 0,
                    waiting: false,
                });
                entry.waiters.push((from, invocation));
                if fresh {
                    self.submit_backend(ctx, &key);
                }
            }
            ProtoMsg::ClientResult { req_id, result } => {
                let Some(call) = self.calls.get_mut(&req_id) else {
                    return;
                };
                if call.result.is_some() {
                    return; // duplicate back-end reply
                }
                call.result = Some(result.clone());
                call.waiting = false;
                let waiters = std::mem::take(&mut call.waiters);
                for (replica, invocation) in waiters {
                    // One completion per outstanding app-tier attempt; equal
                    // outputs, so the history deduplicates under rule 18.
                    self.app_ledger.borrow_mut().record_event(
                        Event::complete(ActionId::base(self.app_action.clone()), result.clone()),
                        ctx.now(),
                        "gateway",
                    );
                    ctx.send(
                        replica,
                        ProtoMsg::InvokeReply {
                            invocation,
                            outcome: xability_services::InvokeOutcome::Success(result.clone()),
                        },
                    );
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ProtoMsg>, _timer: TimerId) {
        // Resubmit in-flight back-end calls whose target became suspected.
        let keys: Vec<String> = self
            .calls
            .iter()
            .filter(|(_, c)| c.result.is_none() && c.waiting)
            .map(|(k, _)| k.clone())
            .collect();
        for key in keys {
            let advance = {
                let call = self.calls.get(&key).expect("listed");
                ctx.suspects(self.backend_replicas[call.cursor])
            };
            if advance {
                let call = self.calls.get_mut(&key).expect("listed");
                call.cursor = (call.cursor + 1) % self.backend_replicas.len();
                self.submit_backend(ctx, &key);
            }
        }
        ctx.set_timer(self.tick);
    }
}

/// Configuration of the three-tier experiment.
#[derive(Debug, Clone)]
pub struct ThreeTier {
    /// RNG seed.
    pub seed: u64,
    /// App-tier replica count.
    pub app_replicas: usize,
    /// Back-end replica count.
    pub backend_replicas: usize,
    /// Number of sequential end-to-end transfers.
    pub transfers: usize,
    /// Crashes: (tier, replica index, time); tier 0 = app, 1 = back-end.
    pub crashes: Vec<(usize, usize, SimTime)>,
    /// Network model.
    pub latency: xability_sim::LatencyModel,
    /// Time limit.
    pub horizon: SimTime,
}

impl ThreeTier {
    /// A crash-free three-tier scenario.
    pub fn new(transfers: usize) -> Self {
        ThreeTier {
            seed: 0,
            app_replicas: 3,
            backend_replicas: 3,
            transfers,
            crashes: Vec::new(),
            latency: xability_sim::LatencyModel::synchronous(),
            horizon: SimTime::from_secs(120),
        }
    }

    /// Sets the seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Schedules a crash; `tier` 0 = app, 1 = back-end.
    #[must_use]
    pub fn crash(mut self, tier: usize, replica: usize, at: SimTime) -> Self {
        self.crashes.push((tier, replica, at));
        self
    }

    /// Sets the latency model.
    #[must_use]
    pub fn latency(mut self, latency: xability_sim::LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Builds and runs the three-tier system, returning the evaluation.
    pub fn run(&self) -> ThreeTierReport {
        // Each tier's R3 obligation is tracked online, independently, by
        // its ledger's default monitor.
        let backend_ledger = shared_ledger();
        let app_ledger = shared_ledger();
        let mut world: World<ProtoMsg> = World::new(SimConfig {
            seed: self.seed,
            latency: self.latency,
            ..SimConfig::default()
        });

        // Layout: [app replicas][backend replicas][bank][gateway][client].
        let app_ids: Vec<ProcessId> = (0..self.app_replicas).map(ProcessId).collect();
        let backend_ids: Vec<ProcessId> = (self.app_replicas
            ..self.app_replicas + self.backend_replicas)
            .map(ProcessId)
            .collect();
        let bank_id = ProcessId(self.app_replicas + self.backend_replicas);
        let gateway_id = ProcessId(self.app_replicas + self.backend_replicas + 1);
        let client_id = ProcessId(self.app_replicas + self.backend_replicas + 2);

        for &id in &app_ids {
            world.add_process(
                format!("app{}", id.0),
                Box::new(XReplica::new(
                    id,
                    app_ids.clone(),
                    XReplicaConfig::default(),
                )),
            );
        }
        for &id in &backend_ids {
            world.add_process(
                format!("backend{}", id.0),
                Box::new(XReplica::new(
                    id,
                    backend_ids.clone(),
                    XReplicaConfig::default(),
                )),
            );
        }
        let bank = ServiceCore::new(
            Box::new(Bank::new([
                ("src".to_owned(), self.transfers as i64 * 10 + 1_000),
                ("dst".to_owned(), 0),
            ])),
            ServiceConfig::default(),
            backend_ledger.clone(),
        );
        world.add_process("bank", Box::new(xability_protocol::ServiceActor::new(bank)));
        world.add_process(
            "gateway",
            Box::new(
                Gateway::try_new(
                    backend_ids.clone(),
                    ActionName::undoable("transfer"),
                    bank_id,
                    ActionName::idempotent("backend-call"),
                    app_ledger.clone(),
                )
                .expect("three-tier gateway configuration is valid"),
            ),
        );

        let requests: Vec<LogicalRequest> = (0..self.transfers)
            .map(|i| {
                LogicalRequest::new(
                    format!("req-{i}"),
                    ActionName::idempotent("backend-call"),
                    Value::list([
                        Value::pair(Value::from("from"), Value::from("src")),
                        Value::pair(Value::from("to"), Value::from("dst")),
                        Value::pair(Value::from("amount"), Value::from(10)),
                    ]),
                    gateway_id,
                )
            })
            .collect();
        world.add_process(
            "client",
            Box::new(Client::new(app_ids.clone(), requests.clone())),
        );

        for &(tier, idx, at) in &self.crashes {
            let id = if tier == 0 {
                app_ids[idx]
            } else {
                backend_ids[idx]
            };
            world.schedule_crash(id, at);
        }

        world.run_while(
            |w| {
                !w.actor_as::<Client>(client_id)
                    .map(Client::is_done)
                    .unwrap_or(true)
            },
            self.horizon,
        );
        let settle = world.now() + SimDuration::from_millis(500);
        world.run_until(settle);

        let client = world.actor_as::<Client>(client_id).expect("client");
        let finished = client.is_done();
        let completed = client.completed_requests().len();

        // App-tier R3: the composed requests as idempotent actions.
        let app_requests: Vec<xability_core::Request> = requests
            .iter()
            .take((completed + 1).min(requests.len()))
            .map(|r| xability_core::Request::new(ActionId::base(r.action.clone()), r.key()))
            .collect();
        let app_r3 = r3_violation_for(&app_ledger, &app_requests).violation;

        // Back-end R3: the forwarded transfer requests.
        let backend_requests: Vec<xability_core::Request> = requests
            .iter()
            .take((completed + 1).min(requests.len()))
            .map(|r| {
                xability_core::Request::new(
                    ActionId::base(ActionName::undoable("transfer")),
                    r.key(),
                )
            })
            .collect();
        let backend_r3 = r3_violation_for(&backend_ledger, &backend_requests).violation;

        // End-to-end exactly-once at the bank.
        let keys: Vec<(ActionName, Value)> = requests
            .iter()
            .take(completed)
            .map(|r| (ActionName::undoable("transfer"), r.key()))
            .collect();
        let exactly_once_violations = backend_ledger.borrow().exactly_once_violations(&keys);
        let app_history_len = app_ledger.borrow().event_count();
        let backend_history_len = backend_ledger.borrow().event_count();

        ThreeTierReport {
            finished,
            completed,
            total: self.transfers,
            app_r3,
            backend_r3,
            exactly_once_violations,
            app_history_len,
            backend_history_len,
            end_time: world.now(),
        }
    }
}

/// Evaluation of a three-tier run.
#[derive(Debug)]
pub struct ThreeTierReport {
    /// Did the client finish?
    pub finished: bool,
    /// Requests completed.
    pub completed: usize,
    /// Requests planned.
    pub total: usize,
    /// App-tier R3 verdict (`None` = x-able).
    pub app_r3: Option<Violation>,
    /// Back-end R3 verdict (`None` = x-able).
    pub backend_r3: Option<Violation>,
    /// End-to-end exactly-once violations at the bank.
    pub exactly_once_violations: Vec<String>,
    /// Formal events observed at the app tier.
    pub app_history_len: usize,
    /// Formal events observed at the back-end.
    pub backend_history_len: usize,
    /// Simulated completion time.
    pub end_time: SimTime,
}

impl ThreeTierReport {
    /// `true` when both tiers are x-able and the bank saw exactly-once
    /// effects.
    pub fn is_correct(&self) -> bool {
        self.finished
            && self.app_r3.is_none()
            && self.backend_r3.is_none()
            && self.exactly_once_violations.is_empty()
    }
}
