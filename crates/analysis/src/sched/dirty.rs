//! Model: the dirty-set aggregate under push/verdict overlap.
//!
//! The `IncrementalChecker`'s O(dirty) verdict rests on the aggregate
//! invariant (DESIGN.md §4.3): after any sequence of pushes and verdicts,
//! a verdict call that re-decides only the dirty requests must equal the
//! batch `FastChecker` on the full prefix — no matter how the verdict
//! calls interleave with the pushes, because each verdict *drains* the
//! dirty sets and the next events must re-dirty exactly the right
//! entries. A stale-cache bug (an event that fails to dirty its watcher,
//! a drain that forgets an aggregate set) is invisible to push-then-check
//! tests and shows up only on interleavings where verdicts land
//! mid-stream.
//!
//! Like the seglog/interner models, this one runs the **real**
//! `xability-core` types: thread A is the event producer (declares +
//! pushes), thread B calls `verdict()` at every enumerated point, and the
//! invariant checked at each B-step is incremental ≡ batch — verdict
//! equality including reasons, which the engine guarantees byte-identical
//! by construction.

use xability_core::xable::checker::{Checker, FastChecker};
use xability_core::xable::IncrementalChecker;
use xability_core::{ActionId, ActionName, Event, Request, Value};

use super::Interleave;

/// Thread A's operation alphabet: produce the stream.
pub enum ProducerOp {
    /// Declare the next expected request.
    Declare(ActionId, Value),
    /// Push the next observed event.
    Push(Event),
}

/// The model: a protocol-shaped trace (an idempotent request, then an
/// undoable request whose only round is cancelled — the R3 last-request
/// abandonment case) produced by thread A, with thread B demanding a
/// verdict at every interleaving point.
pub struct DirtyModel {
    checker: IncrementalChecker,
    script: Vec<ProducerOp>,
    verdicts: usize,
}

impl DirtyModel {
    /// The standard bound: 7 producer ops against 3 verdict calls —
    /// C(10, 3) = 120 schedules.
    pub fn standard() -> Self {
        let u = ActionId::base(ActionName::undoable("xfer"));
        let cancel = u
            .cancel()
            .expect("undoable base actions have a cancel form");
        let b = ActionId::base(ActionName::idempotent("get"));
        let script = vec![
            ProducerOp::Declare(b.clone(), Value::from(2)),
            ProducerOp::Push(Event::start(b.clone(), Value::from(2))),
            ProducerOp::Push(Event::complete(b, Value::from(9))),
            ProducerOp::Declare(u.clone(), Value::from(1)),
            ProducerOp::Push(Event::start(u.clone(), Value::from(1))),
            ProducerOp::Push(Event::start(cancel.clone(), Value::from(1))),
            ProducerOp::Push(Event::complete(cancel, Value::Nil)),
        ];
        DirtyModel {
            checker: IncrementalChecker::new(),
            script,
            verdicts: 3,
        }
    }

    /// Incremental ≡ batch on the current prefix, reasons included.
    fn agree(&self) -> Result<(), String> {
        let incremental = self.checker.verdict();
        let requests: Vec<Request> = self
            .checker
            .requests()
            .map(|(action, input)| Request::new(action, input))
            .collect();
        let batch = FastChecker.check_requests(self.checker.history(), &requests);
        if incremental != batch {
            return Err(format!(
                "after {} events / {} requests: incremental {incremental:?} != batch {batch:?}",
                self.checker.len(),
                requests.len()
            ));
        }
        Ok(())
    }
}

impl Interleave for DirtyModel {
    fn ops(&self) -> (usize, usize) {
        (self.script.len(), self.verdicts)
    }

    fn step(&mut self, thread: usize, index: usize) -> Result<(), String> {
        if thread == 0 {
            match &self.script[index] {
                ProducerOp::Declare(action, input) => {
                    self.checker.declare(action.clone(), input.clone());
                }
                ProducerOp::Push(event) => self.checker.push(event.clone()),
            }
            return Ok(());
        }
        self.agree()
    }

    fn finish(&mut self) -> Result<(), String> {
        self.agree()?;
        // The complete trace is x-able (the idempotent request executes;
        // the undoable request's cancelled round erases and, as the last
        // declared request, it counts as abandoned — R3), so the model
        // also pins the end verdict.
        if !self.checker.verdict().is_xable() {
            return Err(format!(
                "final verdict not x-able: {:?}",
                self.checker.verdict()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{binomial, explore};

    #[test]
    fn incremental_equals_batch_on_every_interleaving() {
        let explored = explore("dirty-aggregate", DirtyModel::standard);
        assert_eq!(explored.schedules, binomial(10, 3), "exhaustiveness");
        assert_eq!(explored.violations, 0, "{:?}", explored.first_violation);
        // Every schedule runs to completion: all steps visited.
        assert_eq!(explored.states, explored.schedules * 10);
    }
}
