//! The wire protocol: one message enum shared by clients, replicas and
//! external services, plus the consensus decision values.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use xability_consensus::ConsensusMsg;
use xability_core::{ActionName, Value};
use xability_services::{InvokeOutcome, ServiceRequest};
use xability_sim::ProcessId;

/// A logical client request: the paper's `(a, v)` pair plus routing
/// metadata.
///
/// `id` is the unique request identity (the formal input value `iv` of the
/// theory and the deduplication key at the external service). It must not
/// contain `/`: consensus instances ([`Instance`]) are ordered as their
/// text form `kind/id/round`, and only for `/`-free ids is that an order
/// of the ids themselves.
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
    /// `owner-agreement[req, round]`: who owns a round of a request. The
    /// request itself travels in the instance key, so every replica learns it.
    Owner {
        /// The owning replica.
        owner: ProcessId,
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

/// A request handle ordered, compared and hashed by id, and looked up by
/// `&str` through `Borrow<str>`: the consensus instances of a request and
/// a replica's orphaned results hold the request itself, never a copy of
/// its id. A request is one allocation end to end (§5.8 of DESIGN.md), so
/// two keys of one request almost always share it, and a comparison reads
/// the ids only when they do not.
#[derive(Debug, Clone)]
pub(crate) struct ReqKey(pub(crate) Arc<LogicalRequest>);

impl ReqKey {
    pub(crate) fn id(&self) -> &str {
        &self.0.id
    }

    /// Whether both keys hold the same allocation (and so the same id).
    fn same(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl PartialEq for ReqKey {
    fn eq(&self, other: &Self) -> bool {
        self.same(other) || self.id() == other.id()
    }
}

impl Eq for ReqKey {}

impl PartialOrd for ReqKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ReqKey {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.same(other) {
            return Ordering::Equal;
        }
        self.id().cmp(other.id())
    }
}

impl Hash for ReqKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.id().hash(state);
    }
}

impl std::borrow::Borrow<str> for ReqKey {
    fn borrow(&self) -> &str {
        self.id()
    }
}

/// Which consensus object of §5.2 an [`Instance`] is, declared in the
/// byte order of the names `outcome` < `owner` < `result`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Agreement {
    /// `outcome-agreement[req, round]`.
    Outcome,
    /// `owner-agreement[req, round]`.
    Owner,
    /// `result-agreement[req, round]`: per round, where the paper has one
    /// per request (DESIGN.md §5.1).
    Result,
}

/// The key of one consensus instance, `kind-agreement[req, round]`.
/// Ordered as its text form `"{kind}/{id}/{round}"` bytewise, because the
/// engine's tick visits instances in key order and the protocol's pinned
/// behaviour is that order: by kind, then by id with a `/` terminator
/// (`req-1` before `req`, as `-` < `/`), then by round as decimal text.
/// Hashed by kind, id and round, for the engine's table of decided
/// instances.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Instance {
    pub(crate) kind: Agreement,
    pub(crate) req: ReqKey,
    pub(crate) round: u64,
}

impl PartialOrd for Instance {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Instance {
    fn cmp(&self, other: &Self) -> Ordering {
        let ids = || {
            if self.req.same(&other.req) {
                return Ordering::Equal;
            }
            let (a, b) = (self.req.id().as_bytes(), other.req.id().as_bytes());
            let n = a.len().min(b.len());
            // Past the common length, an id goes on with its next byte or `/`.
            let next = |id: &[u8]| id.get(n).copied().unwrap_or(b'/');
            (&a[..n], next(a)).cmp(&(&b[..n], next(b)))
        };
        self.kind
            .cmp(&other.kind)
            .then_with(ids)
            .then_with(|| cmp_as_decimal_text(self.round, other.round))
    }
}

/// Orders two numbers as their decimal text, without rendering it: pad the
/// one with fewer digits with zeros on the right (9 against 10 compares 90
/// with 10); on a tie the shorter text, a prefix of the longer, is first.
fn cmp_as_decimal_text(a: u64, b: u64) -> Ordering {
    let digits = |n: u64| n.checked_ilog10().unwrap_or(0);
    let padded = |n: u64, by: u32| u128::from(n) * 10u128.pow(by);
    let (da, db) = (digits(a), digits(b));
    padded(a, db.saturating_sub(da))
        .cmp(&padded(b, da.saturating_sub(db)))
        .then(da.cmp(&db))
}

/// An instance's kind, request id and round; never `None`. Kept, `Option`
/// and all, for `xbench`, which names the request of consensus traffic by it.
pub fn parse_instance(inst: &Instance) -> Option<(Agreement, &str, u64)> {
    Some((inst.kind, inst.req.id(), inst.round))
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
    Consensus(ConsensusMsg<Decision, Instance>),
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
    use proptest::prelude::*;

    /// An instance's text form, whose byte order `Instance` keeps.
    fn text_form(inst: &Instance) -> String {
        let kind = match inst.kind {
            Agreement::Outcome => "outcome",
            Agreement::Owner => "owner",
            Agreement::Result => "result",
        };
        format!("{kind}/{}/{}", inst.req.id(), inst.round)
    }

    fn instance(kind: Agreement, id: &str, round: u64) -> Instance {
        let action = ActionName::idempotent("a");
        let req = LogicalRequest::new(id, action, Value::Nil, ProcessId(0));
        Instance {
            kind,
            req: ReqKey(Arc::new(req)),
            round,
        }
    }

    fn arb_kind() -> impl Strategy<Value = Agreement> {
        prop_oneof![
            Just(Agreement::Outcome),
            Just(Agreement::Owner),
            Just(Agreement::Result)
        ]
    }

    /// `/`-free ids of up to four pieces: bytes on both sides of `/`
    /// (`-` and `.` below it, digits and letters above) and the prefix
    /// `req`, so pairs like `req`/`req-1`/`req-10` come up often.
    fn arb_id() -> impl Strategy<Value = String> {
        const PIECES: [&str; 9] = ["req", "-", ".", "0", "1", "9", "R", "q", "r"];
        let pieces = prop::collection::vec(0..PIECES.len(), 0..5);
        pieces.prop_map(|ix| ix.into_iter().map(|i| PIECES[i]).collect())
    }

    /// Small rounds (where one is often a decimal prefix of the other),
    /// rounds up to 10 000, and any round.
    fn arb_round() -> impl Strategy<Value = u64> {
        prop_oneof![0..=20u64, 0..=10_000u64, 0..=u64::MAX]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn instance_order_is_the_byte_order_of_the_text_form(
            kind_a in arb_kind(), id_a in arb_id(), round_a in arb_round(),
            kind_b in arb_kind(), id_b in arb_id(), round_b in arb_round(),
        ) {
            let a = instance(kind_a, &id_a, round_a);
            let b = instance(kind_b, &id_b, round_b);
            prop_assert_eq!(a.cmp(&b), text_form(&a).cmp(&text_form(&b)), "{a:?} vs {b:?}");
            prop_assert_eq!(a == b, text_form(&a) == text_form(&b));
        }
    }

    /// Every instance of a prefix family of ids at every round up to
    /// 10 000 sorts as its text form does.
    #[test]
    fn instance_order_sorts_a_prefix_family_like_the_text_form() {
        let mut all = Vec::new();
        for kind in [Agreement::Result, Agreement::Owner, Agreement::Outcome] {
            for id in ["req-10", "req", "req1", "req-1", "re"] {
                let req = instance(kind, id, 0).req;
                for round in (0..=10_000).rev() {
                    let req = req.clone();
                    all.push(Instance { kind, req, round });
                }
            }
        }
        let mut by_name = all.clone();
        by_name.sort_by_cached_key(text_form);
        all.sort();
        assert!(all.iter().map(text_form).eq(by_name.iter().map(text_form)));
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
