//! Using the theory directly: build event histories by hand, reduce them
//! under the rules of Fig. 4, and decide x-ability with the polynomial
//! fast checker beside the exhaustive search it is checked against — then
//! watch the online incremental checker track a history event by event.
//!
//! ```text
//! cargo run --example history_checker
//! ```

use xability::core::reduce;
use xability::core::signature::signatures;
use xability::core::xable::{
    Checker, FastChecker, IncrementalChecker, SearchBudget, SearchChecker,
};
use xability::core::{ActionId, ActionName, Event, History, Value};

fn show(h: &History, ops: &[(ActionId, Value)], label: &str) {
    println!("-- {label}");
    println!("   history : {h}");
    println!("   fast    : {}", FastChecker.check(h, ops, &[]));
    println!(
        "   search  : {}",
        SearchChecker::default().check(h, ops, &[])
    );
    let steps = reduce::reduction_steps(h);
    if let Some(step) = steps.first() {
        println!("   a first reduction step ({}): {}", step.rule, step.result);
    }
    for sig in signatures(h, SearchBudget::default()) {
        println!(
            "   signature: ({}, {}, {})",
            sig.action, sig.input, sig.output
        );
    }
    println!();
}

fn main() {
    println!("== the x-ability checker on hand-built histories ==\n");

    // 1. A retried idempotent action.
    let get = ActionId::base(ActionName::idempotent("get"));
    let h: History = [
        Event::start(get.clone(), Value::from(1)),
        Event::start(get.clone(), Value::from(1)),
        Event::complete(get.clone(), Value::from(42)),
    ]
    .into_iter()
    .collect();
    show(
        &h,
        &[(get.clone(), Value::from(1))],
        "retried idempotent action (failed attempt, then success)",
    );

    // 2. Two completions that disagree: irreducible — the reason
    //    result agreement exists.
    let h: History = [
        Event::start(get.clone(), Value::from(1)),
        Event::complete(get.clone(), Value::from(42)),
        Event::start(get.clone(), Value::from(1)),
        Event::complete(get.clone(), Value::from(43)),
    ]
    .into_iter()
    .collect();
    show(
        &h,
        &[(get.clone(), Value::from(1))],
        "disagreeing duplicate outputs (NOT x-able — rule 18 needs equal outputs)",
    );

    // 3. An undoable action: cancelled round then committed retry.
    let xfer = ActionId::base(ActionName::undoable("transfer"));
    let cancel = xfer.cancel().expect("undoable");
    let commit = xfer.commit().expect("undoable");
    let h: History = [
        Event::start(xfer.clone(), Value::from(9)), // attempt 1 (failed)
        Event::start(cancel.clone(), Value::from(9)), // cancelled
        Event::complete(cancel.clone(), Value::Nil),
        Event::start(xfer.clone(), Value::from(9)), // attempt 2
        Event::complete(xfer.clone(), Value::from("ok")),
        Event::start(commit.clone(), Value::from(9)), // committed
        Event::complete(commit.clone(), Value::Nil),
    ]
    .into_iter()
    .collect();
    show(
        &h,
        &[(xfer.clone(), Value::from(9))],
        "undoable action: cancelled attempt erased by rule 19, then exactly-once commit",
    );

    // 4. Commit without execution order problems: cancel AFTER commit is
    //    stuck — the theory rejects protocols that cancel committed work.
    let h: History = [
        Event::start(xfer.clone(), Value::from(9)),
        Event::complete(xfer.clone(), Value::from("ok")),
        Event::start(commit.clone(), Value::from(9)),
        Event::complete(commit.clone(), Value::Nil),
        Event::start(cancel.clone(), Value::from(9)),
        Event::complete(cancel.clone(), Value::Nil),
    ]
    .into_iter()
    .collect();
    show(
        &h,
        &[(xfer, Value::from(9))],
        "cancel after commit (NOT x-able — rule 19 blocked by the interleaved commit)",
    );

    // 5. The online checker: the same retried execution, verified while
    //    it "happens". push() is amortized O(1); a verdict is available at
    //    every prefix.
    println!("== the incremental checker, event by event ==\n");
    let mut online = IncrementalChecker::new();
    online.declare(get.clone(), Value::from(1));
    let events = [
        Event::start(get.clone(), Value::from(1)),
        Event::start(get.clone(), Value::from(1)),
        Event::complete(get, Value::from(42)),
    ];
    println!("   (declared request: (getⁱ, 1); verdict uses the R3 reading)");
    for ev in events {
        online.push(ev.clone());
        println!("   after {ev}: {}", online.verdict());
    }
}
