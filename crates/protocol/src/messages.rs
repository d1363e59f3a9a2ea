//! The wire protocol: one message enum shared by clients, replicas and
//! external services, plus the consensus decision values.

use std::fmt;
use std::sync::Arc;

use xability_consensus::{ConsensusMsg, InstanceId};
use xability_core::{ActionName, Value};
use xability_services::{InvokeOutcome, ServiceRequest};
use xability_sim::ProcessId;

/// A logical client request: the paper's `(a, v)` pair plus routing
/// metadata.
///
/// `id` is the unique request identity (the formal input value `iv` of the
/// theory and the deduplication key at the external service). It must not
/// contain `/` (instance names are `kind/id/round`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogicalRequest {
    /// Unique request id.
    pub id: String,
    /// The action to execute.
    pub action: ActionName,
    /// Domain payload.
    pub payload: Value,
    /// The external service hosting the action.
    pub service: ProcessId,
}

impl LogicalRequest {
    /// Creates a request; panics if `id` contains `/`.
    pub fn new(
        id: impl Into<String>,
        action: ActionName,
        payload: Value,
        service: ProcessId,
    ) -> Self {
        let id = id.into();
        assert!(!id.contains('/'), "request ids must not contain '/'");
        LogicalRequest {
            id,
            action,
            payload,
            service,
        }
    }

    /// The request id as a [`Value`] (the formal input value).
    pub fn key(&self) -> Value {
        Value::from(self.id.as_str())
    }

    /// The service invocation executing this request in `round`.
    pub fn service_request(&self, round: u64) -> ServiceRequest {
        ServiceRequest::execute(self.action.clone(), self.key(), round, self.payload.clone())
    }
}

impl fmt::Display for LogicalRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.action, self.id)
    }
}

/// Values decided by the consensus instances of §5.2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// `owner-agreement[round]`: who owns a round of a request.
    Owner {
        /// The owning replica.
        owner: ProcessId,
        /// The request (carried so every replica learns it). Shared: the
        /// estimates, proposals and decisions of an owner agreement, and
        /// every replica's bookkeeping for the request, hold the owner's
        /// one allocation.
        req: Arc<LogicalRequest>,
        /// The client to answer.
        client: ProcessId,
    },
    /// `result-agreement[req, round]`: the agreed result of an idempotent
    /// action, or `None` (= the paper's `empty-result`) if a cleaner won.
    ResultAgreed(Option<Value>),
    /// `outcome-agreement[req, round]`: commit/abort of an undoable action
    /// round, with the committed value when not aborted.
    Outcome {
        /// `true` = abort, `false` = commit.
        abort: bool,
        /// The result value (present on commit).
        value: Option<Value>,
    },
}

/// Builds the instance id of `owner-agreement[req, round]`.
pub fn owner_instance(req_id: &str, round: u64) -> InstanceId {
    InstanceId::new(format!("owner/{req_id}/{round}"))
}

/// Builds the instance id of `result-agreement[req, round]`.
///
/// The paper indexes `result-agreement` by request only; we index per round
/// so that a cleaning-mode `empty-result` blocks exactly the suspected
/// round's reply without poisoning later rounds (see DESIGN.md §5 for why
/// the per-request reading starves the client).
pub fn result_instance(req_id: &str, round: u64) -> InstanceId {
    InstanceId::new(format!("result/{req_id}/{round}"))
}

/// Builds the instance id of `outcome-agreement[req, round]`.
pub fn outcome_instance(req_id: &str, round: u64) -> InstanceId {
    InstanceId::new(format!("outcome/{req_id}/{round}"))
}

/// Parses an instance id back into `(kind, request id, round)`.
pub fn parse_instance(id: &InstanceId) -> Option<(&str, &str, u64)> {
    let mut parts = id.name().splitn(3, '/');
    let kind = parts.next()?;
    let req = parts.next()?;
    let round = parts.next()?.parse().ok()?;
    Some((kind, req, round))
}

/// The system-wide message type.
#[derive(Debug, Clone)]
pub enum ProtoMsg {
    /// Client → replica: submit a request (Fig. 5's `[Request, req]`).
    ClientRequest {
        /// The request.
        req: LogicalRequest,
    },
    /// Replica → client: the result (Fig. 5's `[Result, res]`), tagged with
    /// the request id for correlation.
    ClientResult {
        /// Which request this answers.
        req_id: String,
        /// The result value.
        result: Value,
    },
    /// Replica ↔ replica: consensus traffic.
    Consensus(ConsensusMsg<Decision>),
    /// Replica → service: invoke an action (execute / cancel / commit).
    Invoke {
        /// Correlation token chosen by the caller.
        invocation: u64,
        /// The service request.
        sreq: ServiceRequest,
    },
    /// Service → replica: the outcome of an invocation.
    InvokeReply {
        /// Correlation token of the invocation.
        invocation: u64,
        /// Success or failure.
        outcome: InvokeOutcome,
    },
    /// Replica → replica (baselines only): forward a client request for
    /// active-replication style execution.
    Forward {
        /// The request.
        req: LogicalRequest,
        /// The client to answer.
        client: ProcessId,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_round_trip() {
        let id = owner_instance("req-1", 3);
        assert_eq!(parse_instance(&id), Some(("owner", "req-1", 3)));
        let id = result_instance("r", 1);
        assert_eq!(parse_instance(&id), Some(("result", "r", 1)));
        let id = outcome_instance("r", 9);
        assert_eq!(parse_instance(&id), Some(("outcome", "r", 9)));
    }

    #[test]
    fn parse_rejects_malformed() {
        assert_eq!(parse_instance(&InstanceId::new("garbage")), None);
        assert_eq!(parse_instance(&InstanceId::new("owner/x/notanumber")), None);
    }

    #[test]
    #[should_panic(expected = "must not contain")]
    fn request_ids_must_not_contain_slash() {
        let _ = LogicalRequest::new("a/b", ActionName::idempotent("x"), Value::Nil, ProcessId(0));
    }

    #[test]
    fn request_key_and_service_request() {
        let req = LogicalRequest::new(
            "r1",
            ActionName::undoable("transfer"),
            Value::from(5),
            ProcessId(9),
        );
        assert_eq!(req.key(), Value::from("r1"));
        let sreq = req.service_request(4);
        assert_eq!(sreq.round, 4);
        assert_eq!(sreq.key, Value::from("r1"));
        assert_eq!(format!("{req}"), "transferᵘ(r1)");
    }

    /// Messages share their request and values with results and events,
    /// which stay free to cross threads; fails to compile if any of that
    /// sharing is ever `Rc`.
    #[test]
    fn messages_and_decisions_cross_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ProtoMsg>();
        assert_send_sync::<Decision>();
    }
}
