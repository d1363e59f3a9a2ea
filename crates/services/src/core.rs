//! The service framework: request execution with idempotent / undoable
//! semantics, fault injection, and event recording.
//!
//! [`ServiceCore`] is the server side of the paper's "third-party entity":
//! replicas invoke it with [`ServiceRequest`]s and receive an
//! [`InvokeOutcome`]. The core
//!
//! * deduplicates idempotent actions by request key, answering retries with
//!   the originally stored reply (the realization of "idempotent action"
//!   that makes non-deterministic actions retryable, cf. e-transactions
//!   \[FG99\]);
//! * gives undoable actions transaction semantics per `(key, round)`:
//!   tentative effect on execute, revert on cancel, permanence on commit,
//!   and *poisoning* — a cancelled round rejects later execution attempts
//!   without producing any event (a rejected invocation has no side-effect,
//!   hence no start event, per the failure model of §2.2);
//! * injects transient failures (before or after the effect) so that
//!   `execute-until-success` (Fig. 7) has something to retry;
//! * records every observable event and effect in the shared
//!   [`crate::ledger::Ledger`].

use std::collections::BTreeMap;
use std::fmt;

use rand::rngs::StdRng;
use rand::RngExt;

use xability_core::{ActionId, ActionKind, ActionName, Event, Value};
use xability_sim::SimTime;

use crate::ledger::{EffectKind, SharedLedger};
use crate::logic::BusinessLogic;

/// What a replica asks a service to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    /// Execute the action (the paper's `S.execute(req)`).
    Execute,
    /// Execute the cancellation action `a⁻¹` for a round.
    Cancel,
    /// Execute the commit action `aᶜ` for a round.
    Commit,
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpKind::Execute => "execute",
            OpKind::Cancel => "cancel",
            OpKind::Commit => "commit",
        };
        write!(f, "{s}")
    }
}

/// An invocation of an external service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceRequest {
    /// Execute / cancel / commit.
    pub op: OpKind,
    /// The base action to operate on.
    pub action: ActionName,
    /// The logical request key (deduplication identity). The formal input
    /// value `iv` of the theory is this key.
    pub key: Value,
    /// The protocol round (undoable actions; 0 for idempotent actions).
    /// Cancel and commit are round-specific, per §5.4: "a cancellation
    /// action issued for round number n cannot cancel the action of round
    /// number n + 1".
    pub round: u64,
    /// Domain payload of the action.
    pub payload: Value,
}

impl ServiceRequest {
    /// Convenience constructor for an execute request.
    pub fn execute(action: ActionName, key: Value, round: u64, payload: Value) -> Self {
        ServiceRequest {
            op: OpKind::Execute,
            action,
            key,
            round,
            payload,
        }
    }

    /// The paper's `cancel(req)` primitive (Fig. 7): the request invoking
    /// this request's cancellation action.
    #[must_use]
    pub fn to_cancel(&self) -> ServiceRequest {
        ServiceRequest {
            op: OpKind::Cancel,
            ..self.clone()
        }
    }

    /// The paper's `commit(req)` primitive (Fig. 7).
    #[must_use]
    pub fn to_commit(&self) -> ServiceRequest {
        ServiceRequest {
            op: OpKind::Commit,
            ..self.clone()
        }
    }
}

/// The outcome of one invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvokeOutcome {
    /// The action executed successfully and returned this value.
    Success(Value),
    /// The action failed.
    Failure {
        /// Why it failed.
        reason: String,
        /// `false` for transient faults (retrying may succeed), `true` for
        /// round-state conflicts that retrying can never fix (the round was
        /// cancelled / committed by someone else). A replica that sees a
        /// terminal failure must fall back to result coordination instead
        /// of retrying (cf. the discussion of poisoned rounds in the module
        /// docs).
        terminal: bool,
    },
}

impl InvokeOutcome {
    /// A transient failure.
    pub fn transient(reason: impl Into<String>) -> Self {
        InvokeOutcome::Failure {
            reason: reason.into(),
            terminal: false,
        }
    }

    /// A terminal (round-state) failure.
    pub fn terminal(reason: impl Into<String>) -> Self {
        InvokeOutcome::Failure {
            reason: reason.into(),
            terminal: true,
        }
    }

    /// Returns `true` for successes.
    pub fn is_success(&self) -> bool {
        matches!(self, InvokeOutcome::Success(_))
    }

    /// Returns `true` for terminal failures.
    pub fn is_terminal_failure(&self) -> bool {
        matches!(self, InvokeOutcome::Failure { terminal: true, .. })
    }

    /// The success value, if any.
    pub fn value(&self) -> Option<&Value> {
        match self {
            InvokeOutcome::Success(v) => Some(v),
            InvokeOutcome::Failure { .. } => None,
        }
    }
}

/// Fault-injection plan for a service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailurePlan {
    /// Probability that an invocation fails transiently.
    pub fail_prob: f64,
    /// Given a failure, probability that it happens *before* the effect
    /// (no event, no effect) as opposed to after the start (start event,
    /// effect possibly applied, reply lost).
    pub before_effect_ratio: f64,
    /// Deterministically fail the first `n` invocations (applied before the
    /// probabilistic rule; useful for reproducible unit tests).
    pub fail_first_n: u64,
}

impl Default for FailurePlan {
    fn default() -> Self {
        FailurePlan {
            fail_prob: 0.0,
            before_effect_ratio: 0.5,
            fail_first_n: 0,
        }
    }
}

impl FailurePlan {
    /// No failures ever.
    pub fn none() -> Self {
        FailurePlan::default()
    }

    /// Fail each invocation independently with probability `p`.
    pub fn probabilistic(p: f64) -> Self {
        FailurePlan {
            fail_prob: p,
            ..FailurePlan::default()
        }
    }

    /// Fail exactly the first `n` invocations.
    pub fn first_n(n: u64) -> Self {
        FailurePlan {
            fail_first_n: n,
            ..FailurePlan::default()
        }
    }
}

/// Configuration of a service instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Fault injection.
    pub failures: FailurePlan,
    /// Whether idempotent actions are deduplicated by request key. Disabling
    /// this models a service that *claims* idempotence but re-applies
    /// effects on retries — used by negative tests and baseline comparisons.
    pub dedup: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            failures: FailurePlan::none(),
            dedup: true,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum UndoState {
    Tentative(Value),
    Committed(Value),
    Cancelled,
}

/// The server side of an external service: framework semantics wrapped
/// around a [`BusinessLogic`].
pub struct ServiceCore {
    logic: Box<dyn BusinessLogic>,
    config: ServiceConfig,
    ledger: SharedLedger,
    /// Stored replies of idempotent actions, by (action, key).
    idem_replies: BTreeMap<(ActionName, Value), Value>,
    /// Undoable transaction state, by (action, key, round).
    undo_state: BTreeMap<(ActionName, Value, u64), UndoState>,
    /// Payloads remembered per undoable round (needed by revert/finalize).
    undo_payloads: BTreeMap<(ActionName, Value, u64), Value>,
    invocations: u64,
}

impl fmt::Debug for ServiceCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServiceCore")
            .field("service", &self.logic.name())
            .field("config", &self.config)
            .field("invocations", &self.invocations)
            .finish()
    }
}

impl ServiceCore {
    /// Creates a service from domain logic, a config, and the shared ledger.
    pub fn new(logic: Box<dyn BusinessLogic>, config: ServiceConfig, ledger: SharedLedger) -> Self {
        ServiceCore {
            logic,
            config,
            ledger,
            idem_replies: BTreeMap::new(),
            undo_state: BTreeMap::new(),
            undo_payloads: BTreeMap::new(),
            invocations: 0,
        }
    }

    /// The service's name (from its logic).
    pub fn name(&self) -> &str {
        self.logic.name()
    }

    /// The actions the service exports.
    pub fn actions(&self) -> Vec<ActionName> {
        self.logic.actions()
    }

    /// The kind of a named action, if exported.
    pub fn kind_of(&self, action: &str) -> Option<ActionKind> {
        self.logic
            .actions()
            .into_iter()
            .find(|a| a.name() == action)
            .map(|a| a.kind())
    }

    /// Total invocations processed (including failed ones).
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    /// Read-only access to the domain logic (downcast with
    /// `as_any().downcast_ref`).
    pub fn logic(&self) -> &dyn BusinessLogic {
        self.logic.as_ref()
    }

    /// The R4 oracle: could `reply` be a reply of `action` on `payload`?
    pub fn is_possible_reply(&self, action: &ActionName, payload: &Value, reply: &Value) -> bool {
        self.logic.is_possible_reply(action, payload, reply)
    }

    /// Handles one invocation at simulated time `now`.
    ///
    /// This is the only entry point; it implements the semantics described
    /// in the module docs and records events/effects in the ledger.
    pub fn handle(
        &mut self,
        req: &ServiceRequest,
        now: SimTime,
        rng: &mut StdRng,
    ) -> InvokeOutcome {
        self.invocations += 1;
        let injected = self.sample_failure(rng);
        match req.op {
            OpKind::Execute => {
                if req.action.is_idempotent() {
                    self.execute_idempotent(req, now, rng, injected)
                } else {
                    self.execute_undoable(req, now, rng, injected)
                }
            }
            OpKind::Cancel => self.cancel(req, now, injected),
            OpKind::Commit => self.commit(req, now, injected),
        }
    }

    fn sample_failure(&mut self, rng: &mut StdRng) -> Option<bool> {
        // Returns Some(before_effect) when a transient failure is injected.
        if self.invocations <= self.config.failures.fail_first_n {
            return Some(self.invocations % 2 == 1);
        }
        if self.config.failures.fail_prob > 0.0 && rng.random_bool(self.config.failures.fail_prob) {
            let before = rng.random_bool(self.config.failures.before_effect_ratio);
            return Some(before);
        }
        None
    }

    fn record_event(&self, event: Event, now: SimTime) {
        self.ledger
            .borrow_mut()
            .record_event(event, now, self.logic.name());
    }

    fn execute_idempotent(
        &mut self,
        req: &ServiceRequest,
        now: SimTime,
        rng: &mut StdRng,
        injected: Option<bool>,
    ) -> InvokeOutcome {
        let action_id = ActionId::base(req.action.clone());
        if injected == Some(true) {
            // Failure before anything happened: no event, no effect.
            return InvokeOutcome::transient("injected fault (before effect)");
        }
        // Idempotent actions are round-agnostic: their formal input is the
        // plain request key.
        self.record_event(Event::start(action_id.clone(), req.key.clone()), now);

        let idem_key = (req.action.clone(), req.key.clone());
        let stored = if self.config.dedup {
            self.idem_replies.get(&idem_key).cloned()
        } else {
            None
        };
        let reply = match stored {
            Some(v) => v,
            None => {
                let v = self.logic.apply(&req.action, &req.key, &req.payload, rng);
                self.ledger.borrow_mut().record_effect(
                    req.action.clone(),
                    req.key.clone(),
                    0,
                    EffectKind::Applied,
                    now,
                );
                if self.config.dedup {
                    self.idem_replies.insert(idem_key, v.clone());
                }
                v
            }
        };
        if injected == Some(false) {
            // The effect happened (and the reply is stored), but the reply
            // is lost: the caller sees a failure and will retry.
            return InvokeOutcome::transient("injected fault (after effect)");
        }
        self.record_event(Event::complete(action_id, reply.clone()), now);
        InvokeOutcome::Success(reply)
    }

    /// The formal input value of a round-stamped undoable execution: the
    /// paper puts the round number among the action's parameters (§5.4), so
    /// the observable events of round r and round r+1 are distinct actions
    /// for the reduction rules — a stale cancellation of round r cannot be
    /// confused with (or block) the surviving execution of round r+1.
    fn stamped_input(req: &ServiceRequest) -> Value {
        Value::round_stamped(req.key.clone(), req.round as i64)
    }

    fn execute_undoable(
        &mut self,
        req: &ServiceRequest,
        now: SimTime,
        rng: &mut StdRng,
        injected: Option<bool>,
    ) -> InvokeOutcome {
        let action_id = ActionId::base(req.action.clone());
        let formal_iv = Self::stamped_input(req);
        let key = (req.action.clone(), req.key.clone(), req.round);
        match self.undo_state.get(&key) {
            Some(UndoState::Cancelled) => {
                // Poisoned round: reject without any event — a rejected
                // invocation has no side-effect, hence no start event.
                return InvokeOutcome::terminal("round already cancelled");
            }
            Some(UndoState::Committed(v)) => {
                // Duplicate execution of a committed round: answer with the
                // stored value (and record the observation).
                self.ledger.borrow_mut().record_violation(format!(
                    "execute after commit on ({}, {}, round {})",
                    req.action, req.key, req.round
                ));
                let v = v.clone();
                self.record_event(Event::start(action_id.clone(), formal_iv.clone()), now);
                self.record_event(Event::complete(action_id, v.clone()), now);
                return InvokeOutcome::Success(v);
            }
            Some(UndoState::Tentative(v)) => {
                // Duplicate in-flight execution: same round, same
                // transaction — answer with the stored tentative value.
                let v = v.clone();
                self.record_event(Event::start(action_id.clone(), formal_iv.clone()), now);
                self.record_event(Event::complete(action_id, v.clone()), now);
                return InvokeOutcome::Success(v);
            }
            None => {}
        }
        if injected == Some(true) {
            return InvokeOutcome::transient("injected fault (before effect)");
        }
        self.record_event(Event::start(action_id.clone(), formal_iv), now);
        let value = self.logic.apply(&req.action, &req.key, &req.payload, rng);
        self.ledger.borrow_mut().record_effect(
            req.action.clone(),
            req.key.clone(),
            req.round,
            EffectKind::Tentative,
            now,
        );
        self.undo_state
            .insert(key.clone(), UndoState::Tentative(value.clone()));
        self.undo_payloads.insert(key, req.payload.clone());
        if injected == Some(false) {
            return InvokeOutcome::transient("injected fault (after effect)");
        }
        self.record_event(Event::complete(action_id, value.clone()), now);
        InvokeOutcome::Success(value)
    }

    fn cancel(
        &mut self,
        req: &ServiceRequest,
        now: SimTime,
        injected: Option<bool>,
    ) -> InvokeOutcome {
        let action_id = ActionId::Cancel(req.action.clone());
        let formal_iv = Self::stamped_input(req);
        if injected == Some(true) {
            return InvokeOutcome::transient("injected fault (before effect)");
        }
        let key = (req.action.clone(), req.key.clone(), req.round);
        match self.undo_state.get(&key).cloned() {
            Some(UndoState::Committed(_)) => {
                // Cannot cancel a committed transaction. Record the start
                // (the attempt is observable) but fail without completing.
                self.record_event(Event::start(action_id, formal_iv.clone()), now);
                self.ledger.borrow_mut().record_violation(format!(
                    "cancel after commit on ({}, {}, round {})",
                    req.action, req.key, req.round
                ));
                InvokeOutcome::terminal("cannot cancel a committed round")
            }
            Some(UndoState::Cancelled) => {
                // Idempotent duplicate cancellation.
                self.record_event(Event::start(action_id.clone(), formal_iv.clone()), now);
                if injected == Some(false) {
                    return InvokeOutcome::transient("injected fault (after effect)");
                }
                self.record_event(Event::complete(action_id, Value::Nil), now);
                InvokeOutcome::Success(Value::Nil)
            }
            Some(UndoState::Tentative(_)) => {
                self.record_event(Event::start(action_id.clone(), formal_iv.clone()), now);
                let payload = self.undo_payloads.get(&key).cloned().unwrap_or(Value::Nil);
                self.logic.revert(&req.action, &req.key, &payload);
                self.ledger.borrow_mut().record_effect(
                    req.action.clone(),
                    req.key.clone(),
                    req.round,
                    EffectKind::Reverted,
                    now,
                );
                self.undo_state.insert(key, UndoState::Cancelled);
                if injected == Some(false) {
                    return InvokeOutcome::transient("injected fault (after effect)");
                }
                self.record_event(Event::complete(action_id, Value::Nil), now);
                InvokeOutcome::Success(Value::Nil)
            }
            None => {
                // Cancelling a round that never executed *poisons* it: a
                // later execution attempt is rejected without effect.
                self.record_event(Event::start(action_id.clone(), formal_iv.clone()), now);
                self.undo_state.insert(key, UndoState::Cancelled);
                if injected == Some(false) {
                    return InvokeOutcome::transient("injected fault (after effect)");
                }
                self.record_event(Event::complete(action_id, Value::Nil), now);
                InvokeOutcome::Success(Value::Nil)
            }
        }
    }

    fn commit(
        &mut self,
        req: &ServiceRequest,
        now: SimTime,
        injected: Option<bool>,
    ) -> InvokeOutcome {
        let action_id = ActionId::Commit(req.action.clone());
        let formal_iv = Self::stamped_input(req);
        if injected == Some(true) {
            return InvokeOutcome::transient("injected fault (before effect)");
        }
        let key = (req.action.clone(), req.key.clone(), req.round);
        match self.undo_state.get(&key).cloned() {
            Some(UndoState::Cancelled) => {
                self.record_event(Event::start(action_id, formal_iv.clone()), now);
                self.ledger.borrow_mut().record_violation(format!(
                    "commit after cancel on ({}, {}, round {})",
                    req.action, req.key, req.round
                ));
                InvokeOutcome::terminal("cannot commit a cancelled round")
            }
            Some(UndoState::Committed(_)) => {
                // Idempotent duplicate commit.
                self.record_event(Event::start(action_id.clone(), formal_iv.clone()), now);
                if injected == Some(false) {
                    return InvokeOutcome::transient("injected fault (after effect)");
                }
                self.record_event(Event::complete(action_id, Value::Nil), now);
                InvokeOutcome::Success(Value::Nil)
            }
            Some(UndoState::Tentative(v)) => {
                self.record_event(Event::start(action_id.clone(), formal_iv.clone()), now);
                let payload = self.undo_payloads.get(&key).cloned().unwrap_or(Value::Nil);
                self.logic.finalize(&req.action, &req.key, &payload);
                self.ledger.borrow_mut().record_effect(
                    req.action.clone(),
                    req.key.clone(),
                    req.round,
                    EffectKind::Committed,
                    now,
                );
                self.undo_state.insert(key, UndoState::Committed(v));
                if injected == Some(false) {
                    return InvokeOutcome::transient("injected fault (after effect)");
                }
                self.record_event(Event::complete(action_id, Value::Nil), now);
                InvokeOutcome::Success(Value::Nil)
            }
            None => {
                self.record_event(Event::start(action_id, formal_iv.clone()), now);
                self.ledger.borrow_mut().record_violation(format!(
                    "commit of never-executed round ({}, {}, round {})",
                    req.action, req.key, req.round
                ));
                InvokeOutcome::terminal("cannot commit a round that never executed")
            }
        }
    }
}
