//! `xsched`: a loom-lite bounded interleaving explorer.
//!
//! The workspace's concurrency claims — seglog snapshots are immutable
//! under concurrent appends, interner symbol assignment is linearizable
//! against shared readers, the dirty-set aggregate's verdict equals the
//! batch checker at every push/verdict overlap — are all claims about
//! *every* interleaving of two roles, yet the dynamic tests exercise
//! whatever schedule the OS happens to produce. This module closes that
//! gap at small bounds: a model describes two threads as fixed operation
//! sequences, and [`explore`] runs the model once per **every** possible
//! interleaving of those sequences, exhaustively.
//!
//! ## Soundness bounds (DESIGN.md §8.2)
//!
//! The enumeration is exhaustive but the model is bounded: 2 threads,
//! fixed small op counts, and *operation-level* atomicity. The structures
//! under test make that granularity honest rather than optimistic: every
//! cross-thread handoff in the real code is an `Arc`/`Rc`-mediated
//! immutable snapshot (there are no data races to miss below operation
//! granularity — the workspace forbids `unsafe`, and `&mut` receivers
//! serialize same-structure mutation by construction), so the observable
//! behaviors of the real structures are exactly the operation
//! interleavings enumerated here. What the bound *does* limit is depth:
//! a bug that needs 3 threads or longer op chains is out of range, which
//! is why the schedule counts are asserted by the self-tests rather than
//! waved at.
//!
//! A schedule over `a` ops of thread A and `b` ops of thread B is a
//! bitstring with `a` zeros and `b` ones; there are `C(a+b, a)` of them,
//! and [`Explored::schedules`] is asserted against [`binomial`] in the
//! self-tests — "the explorer passed" always means "the explorer ran
//! every schedule", never "the explorer ran something".

pub mod dirty;
pub mod intern;
pub mod seglog;

/// A two-thread interleaving model: two fixed operation sequences over
/// shared state, with invariant checks inside the steps.
pub trait Interleave {
    /// `(ops of thread A, ops of thread B)` — fixed per model.
    fn ops(&self) -> (usize, usize);
    /// Executes operation `index` of `thread` (0 = A, 1 = B).
    ///
    /// # Errors
    ///
    /// Returns the violation message when an invariant fails under the
    /// current schedule.
    fn step(&mut self, thread: usize, index: usize) -> Result<(), String>;
    /// Final invariant check after both sequences ran to completion.
    ///
    /// # Errors
    ///
    /// Returns the violation message when the end state is wrong.
    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// The outcome of exhaustively exploring one model.
#[derive(Debug, Clone)]
pub struct Explored {
    /// Model name (for reports).
    pub model: String,
    /// `(ops A, ops B)` as declared by the model.
    pub ops: (usize, usize),
    /// Schedules executed — must equal `binomial(a + b, a)`.
    pub schedules: u64,
    /// States visited: one per executed step, summed over all schedules
    /// (schedules aborted by a violation visit fewer).
    pub states: u64,
    /// Schedules on which an invariant failed.
    pub violations: u64,
    /// The first violating schedule and its message, for diagnostics.
    pub first_violation: Option<String>,
}

impl Explored {
    /// `true` when every schedule ran clean.
    pub fn is_clean(&self) -> bool {
        self.violations == 0
    }

    /// The exhaustiveness witness: schedules executed equals the count
    /// of distinct interleavings.
    pub fn is_exhaustive(&self) -> bool {
        let (a, b) = self.ops;
        self.schedules == binomial((a + b) as u64, a as u64)
    }
}

/// `C(n, k)` without overflow for the small bounds used here.
pub fn binomial(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut result = 1u64;
    for i in 0..k {
        result = result * (n - i) / (i + 1);
    }
    result
}

/// Runs `fresh()` once per interleaving of the model's two op sequences —
/// all `C(a+b, a)` of them, in lexicographic order (A-steps first), which
/// makes the exploration itself deterministic.
pub fn explore<M: Interleave, F: FnMut() -> M>(model: &str, mut fresh: F) -> Explored {
    let (a, b) = fresh().ops();
    let mut out = Explored {
        model: model.to_owned(),
        ops: (a, b),
        schedules: 0,
        states: 0,
        violations: 0,
        first_violation: None,
    };
    let mut schedule = Vec::with_capacity(a + b);
    enumerate(a, b, &mut schedule, &mut |sched| {
        out.schedules += 1;
        let mut model = fresh();
        let mut next = [0usize; 2];
        let mut violation = None;
        for &t in sched {
            let index = next[t as usize];
            next[t as usize] += 1;
            out.states += 1;
            if let Err(v) = model.step(t as usize, index) {
                violation = Some(v);
                break;
            }
        }
        if violation.is_none() {
            violation = model.finish().err();
        }
        if let Some(v) = violation {
            out.violations += 1;
            if out.first_violation.is_none() {
                out.first_violation = Some(format!("schedule {sched:?}: {v}"));
            }
        }
    });
    out
}

/// All bitstrings with `a` zeros and `b` ones, lexicographically.
fn enumerate(a: usize, b: usize, schedule: &mut Vec<u8>, visit: &mut dyn FnMut(&[u8])) {
    if a == 0 && b == 0 {
        visit(schedule);
        return;
    }
    if a > 0 {
        schedule.push(0);
        enumerate(a - 1, b, schedule, visit);
        schedule.pop();
    }
    if b > 0 {
        schedule.push(1);
        enumerate(a, b - 1, schedule, visit);
        schedule.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_basics() {
        assert_eq!(binomial(0, 0), 1);
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(5, 5), 1);
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(11, 5), 462);
        assert_eq!(binomial(10, 3), 120);
        assert_eq!(binomial(3, 7), 0);
    }

    /// A counting model: every step appends to a shared trace; the final
    /// trace must hold each thread's ops in order (program order is
    /// preserved within a thread by construction of the enumeration).
    struct Counter {
        a: usize,
        b: usize,
        trace: Vec<(usize, usize)>,
    }

    impl Interleave for Counter {
        fn ops(&self) -> (usize, usize) {
            (self.a, self.b)
        }
        fn step(&mut self, thread: usize, index: usize) -> Result<(), String> {
            self.trace.push((thread, index));
            Ok(())
        }
        fn finish(&mut self) -> Result<(), String> {
            for t in 0..2usize {
                let order: Vec<usize> = self
                    .trace
                    .iter()
                    .filter(|(th, _)| *th == t)
                    .map(|(_, i)| *i)
                    .collect();
                let expected: Vec<usize> = (0..order.len()).collect();
                if order != expected {
                    return Err(format!("thread {t} ran out of program order: {order:?}"));
                }
            }
            Ok(())
        }
    }

    #[test]
    fn enumeration_is_exhaustive_and_order_preserving() {
        let explored = explore("counter", || Counter {
            a: 4,
            b: 3,
            trace: Vec::new(),
        });
        assert_eq!(explored.schedules, binomial(7, 4));
        assert!(explored.is_exhaustive());
        assert_eq!(explored.states, explored.schedules * 7);
        assert!(explored.is_clean(), "{:?}", explored.first_violation);
    }

    /// A model that fails iff B's single op runs before any A op — on
    /// exactly the schedules starting with a 1.
    struct FailFirst {
        a_ran: usize,
    }

    impl Interleave for FailFirst {
        fn ops(&self) -> (usize, usize) {
            (3, 1)
        }
        fn step(&mut self, thread: usize, _index: usize) -> Result<(), String> {
            if thread == 0 {
                self.a_ran += 1;
                Ok(())
            } else if self.a_ran == 0 {
                Err("B ran before any A".to_owned())
            } else {
                Ok(())
            }
        }
    }

    #[test]
    fn violations_are_counted_per_schedule() {
        let explored = explore("fail-first", || FailFirst { a_ran: 0 });
        assert_eq!(explored.schedules, 4);
        // Exactly one of the C(4,1) schedules starts with B.
        assert_eq!(explored.violations, 1);
        assert!(explored
            .first_violation
            .is_some_and(|v| v.contains("B ran before any A")));
        // The violating schedule aborts after its first step.
        assert_eq!(explored.states, 3 * 4 + 1);
    }
}
