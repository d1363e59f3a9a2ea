//! Direct tests of the four service obligations of §4, exercised through
//! hand-assembled worlds (not the scenario runner), so each requirement is
//! validated at its own level.

use xability::core::{ActionName, Value};
use xability::protocol::{
    Client, LogicalRequest, ProtoMsg, ServiceActor, XReplica, XReplicaConfig,
};
use xability::services::catalog::TokenIssuer;
use xability::services::{shared_ledger, ServiceConfig, ServiceCore};
use xability::sim::{ProcessId, SimConfig, SimTime, World};

fn build_world(
    seed: u64,
) -> (
    World<ProtoMsg>,
    Vec<ProcessId>,
    ProcessId,
    xability::services::SharedLedger,
) {
    let ledger = shared_ledger();
    let mut world: World<ProtoMsg> = World::new(SimConfig::with_seed(seed));
    let replicas: Vec<ProcessId> = (0..3).map(ProcessId).collect();
    for &id in &replicas {
        world.add_process(
            format!("r{}", id.0),
            Box::new(XReplica::new(
                id,
                replicas.clone(),
                XReplicaConfig::default(),
            )),
        );
    }
    let service = world.add_process(
        "tokens",
        Box::new(ServiceActor::new(ServiceCore::new(
            Box::new(TokenIssuer::new()),
            ServiceConfig::default(),
            ledger.clone(),
        ))),
    );
    (world, replicas, service, ledger)
}

fn issue_request(service: ProcessId) -> LogicalRequest {
    LogicalRequest::new(
        "tok-1",
        ActionName::idempotent("issue"),
        Value::Nil,
        service,
    )
}

/// R1 — `submit` is idempotent: submitting the same request twice (two
/// client incarnations) yields the same result and one minted token.
#[test]
fn r1_submit_is_idempotent() {
    let (mut world, replicas, service, ledger) = build_world(1);
    let req = issue_request(service);
    // Two clients submit the *same* logical request — the second models a
    // client retrying after a timeout/failure of its first submit.
    let c1 = world.add_process(
        "c1",
        Box::new(Client::new(replicas.clone(), vec![req.clone()])),
    );
    // The second client starts at a different replica (models Fig. 5's
    // i := i + 1 after a failed submit).
    let rotated: Vec<ProcessId> = replicas.iter().rev().copied().collect();
    let c2 = world.add_process("c2", Box::new(Client::new(rotated, vec![req.clone()])));

    world.run_until(SimTime::from_secs(5));
    let r1 = world
        .actor_as::<Client>(c1)
        .unwrap()
        .result_of("tok-1")
        .cloned()
        .expect("c1 got a result");
    let r2 = world
        .actor_as::<Client>(c2)
        .unwrap()
        .result_of("tok-1")
        .cloned()
        .expect("c2 got a result");
    assert_eq!(r1, r2, "duplicate submits must observe the same result");
    // Exactly one token effect.
    assert_eq!(
        ledger
            .borrow()
            .applied_count(&ActionName::idempotent("issue"), &Value::from("tok-1")),
        1
    );
}

/// R2 — `submit` eventually succeeds even when the first contacted replica
/// is crashed from the start.
#[test]
fn r2_submit_eventually_succeeds() {
    let (mut world, replicas, service, _ledger) = build_world(2);
    world.schedule_crash(replicas[0], SimTime::from_micros(1));
    let client = world.add_process(
        "client",
        Box::new(Client::new(replicas.clone(), vec![issue_request(service)])),
    );
    let done = world.run_while(
        |w| !w.actor_as::<Client>(client).unwrap().is_done(),
        SimTime::from_secs(10),
    );
    assert!(done, "submit never succeeded");
    let metrics = *world.actor_as::<Client>(client).unwrap().metrics();
    assert!(
        metrics.failures >= 1,
        "the crashed first contact must cost at least one failed submit"
    );
}

/// R3 — the server-side history is x-able with respect to the submitted
/// sequence, validated twice: *online* by the ledger's default incremental
/// monitor (fed event by event as the simulation emits them), and *batch*
/// by `spec::check_r3` over the final history.
#[test]
fn r3_history_is_xable() {
    use xability::core::spec::check_r3;
    let (mut world, replicas, service, ledger) = build_world(3);
    let reqs = vec![issue_request(service)];
    let client = world.add_process(
        "client",
        Box::new(Client::new(replicas.clone(), reqs.clone())),
    );
    world.schedule_crash(replicas[0], SimTime::from_millis(4));
    world.run_while(
        |w| !w.actor_as::<Client>(client).unwrap().is_done(),
        SimTime::from_secs(10),
    );
    world.run_until(world.now() + xability::sim::SimDuration::from_millis(300));
    let submitted: Vec<xability::core::Request> = reqs
        .iter()
        .map(|r| {
            xability::core::Request::new(xability::core::ActionId::base(r.action.clone()), r.key())
        })
        .collect();
    // Online: the monitor digested the run's events as they happened,
    // reading the prefix back through the ledger's shared trace store.
    let online = {
        let mut guard = ledger.borrow_mut();
        guard.declare_requests(&submitted);
        guard
            .monitor_verdict()
            .expect("monitor attached before the run")
    };
    assert!(online.is_xable(), "online R3 verdict: {online}");
    // Batch: the R3 check over the final history (a zero-copy view of the
    // same store) agrees.
    let verdict = check_r3(&submitted, &ledger.borrow().history());
    assert_eq!(verdict, online);
}

/// R4 — the reply delivered to the client is a possible reply of the
/// service (token issuer replies always look like "tok-…").
#[test]
fn r4_replies_are_possible() {
    let (mut world, replicas, service, _ledger) = build_world(4);
    let client = world.add_process(
        "client",
        Box::new(Client::new(replicas.clone(), vec![issue_request(service)])),
    );
    world.run_while(
        |w| !w.actor_as::<Client>(client).unwrap().is_done(),
        SimTime::from_secs(5),
    );
    let result = world
        .actor_as::<Client>(client)
        .unwrap()
        .result_of("tok-1")
        .cloned()
        .expect("result");
    let token = result.as_str().expect("token reply is a string");
    assert!(token.starts_with("tok-"), "unexpected reply {token}");
}
