//! Model: seglog snapshot-while-append.
//!
//! `core::seglog::AppendLog` claims that a snapshot taken at any moment
//! keeps reading its exact prefix while the owner appends past it — the
//! copy-on-write tail (an `Arc::get_mut` probe that copies the open
//! segment once when a snapshot still aliases it) is the whole mechanism.
//! The model drives the **real** `AppendLog<u32>` through the [`CowLog`]
//! trait, and [`BrokenLog`] is the deliberate mutation: it shares the
//! open tail with snapshots and appends in place, exactly the bug the CoW
//! probe exists to prevent. The self-tests assert the explorer passes the
//! real log on *every* interleaving and catches the broken variant on the
//! subset of schedules where an append overlaps a live snapshot.

use std::cell::RefCell;
use std::rc::Rc;

use xability_core::seglog::{AppendLog, LogView};

use super::Interleave;

/// Entries per segment — small, so the model crosses segment boundaries.
const SEGMENT: usize = 4;

/// The log shapes the model runs over: correct (CoW) or broken (shared
/// tail).
pub trait CowLog {
    /// The snapshot handle type.
    type View;
    /// An empty log.
    fn empty() -> Self;
    /// Appends one entry.
    fn push(&mut self, value: u32);
    /// The live contents, in order.
    fn contents(&self) -> Vec<u32>;
    /// An immutable (allegedly) snapshot of the current contents.
    fn snapshot(&self) -> Self::View;
    /// What the snapshot reads *now*.
    fn view_contents(view: &Self::View) -> Vec<u32>;
}

impl CowLog for AppendLog<u32> {
    type View = LogView<u32>;

    fn empty() -> Self {
        AppendLog::new(SEGMENT)
    }

    fn push(&mut self, value: u32) {
        AppendLog::push(self, value);
    }

    fn contents(&self) -> Vec<u32> {
        (0..self.len()).map(|i| *self.get(i)).collect()
    }

    fn snapshot(&self) -> LogView<u32> {
        AppendLog::snapshot(self)
    }

    fn view_contents(view: &LogView<u32>) -> Vec<u32> {
        view.iter().copied().collect()
    }
}

/// The deliberately broken variant: no copy-on-write, no length fence —
/// snapshots share the live open segment and observe later appends.
#[derive(Default)]
pub struct BrokenLog {
    segments: Vec<Rc<RefCell<Vec<u32>>>>,
}

/// The broken "snapshot": live handles to the shared segments.
pub struct BrokenView {
    segments: Vec<Rc<RefCell<Vec<u32>>>>,
}

impl CowLog for BrokenLog {
    type View = BrokenView;

    fn empty() -> Self {
        BrokenLog::default()
    }

    fn push(&mut self, value: u32) {
        let needs_segment = self
            .segments
            .last()
            .map_or(true, |seg| seg.borrow().len() == SEGMENT);
        if needs_segment {
            self.segments
                .push(Rc::new(RefCell::new(Vec::with_capacity(SEGMENT))));
        }
        // The seeded bug: append in place even though a snapshot may
        // still alias this segment.
        self.segments
            .last()
            .expect("segment was just ensured")
            .borrow_mut()
            .push(value);
    }

    fn contents(&self) -> Vec<u32> {
        self.segments
            .iter()
            .flat_map(|s| s.borrow().iter().copied().collect::<Vec<_>>())
            .collect()
    }

    fn snapshot(&self) -> BrokenView {
        BrokenView {
            segments: self.segments.clone(),
        }
    }

    fn view_contents(view: &BrokenView) -> Vec<u32> {
        view.segments
            .iter()
            .flat_map(|s| s.borrow().iter().copied().collect::<Vec<_>>())
            .collect()
    }
}

/// Thread B's operation alphabet.
#[derive(Debug, Clone, Copy)]
enum BOp {
    /// Take a snapshot and record the contents it must keep showing.
    Snap,
    /// Re-read every snapshot taken so far against its recorded contents.
    Check,
}

/// The model: thread A appends `0..appends`; thread B takes snapshots at
/// arbitrary points and re-checks all of them at later points. Snapshot
/// immutability is the per-step invariant; "the live log holds every
/// append in order" is the final one.
pub struct SeglogModel<L: CowLog> {
    log: L,
    appends: usize,
    b_ops: Vec<BOp>,
    snaps: Vec<(L::View, Vec<u32>)>,
}

impl<L: CowLog> SeglogModel<L> {
    /// The standard bound: 6 appends (crossing the 4-entry segment
    /// boundary) against snap/check/snap/check/check — C(11,5) = 462
    /// schedules.
    pub fn standard() -> Self {
        SeglogModel {
            log: L::empty(),
            appends: 6,
            b_ops: vec![BOp::Snap, BOp::Check, BOp::Snap, BOp::Check, BOp::Check],
            snaps: Vec::new(),
        }
    }
}

impl<L: CowLog> Interleave for SeglogModel<L> {
    fn ops(&self) -> (usize, usize) {
        (self.appends, self.b_ops.len())
    }

    fn step(&mut self, thread: usize, index: usize) -> Result<(), String> {
        if thread == 0 {
            self.log.push(index as u32);
            return Ok(());
        }
        match self.b_ops[index] {
            BOp::Snap => {
                self.snaps.push((self.log.snapshot(), self.log.contents()));
                Ok(())
            }
            BOp::Check => {
                for (i, (view, expected)) in self.snaps.iter().enumerate() {
                    let got = L::view_contents(view);
                    if got != *expected {
                        return Err(format!(
                            "snapshot {i} mutated: took {expected:?}, reads {got:?}"
                        ));
                    }
                }
                Ok(())
            }
        }
    }

    fn finish(&mut self) -> Result<(), String> {
        let expected: Vec<u32> = (0..self.appends as u32).collect();
        let got = self.log.contents();
        if got != expected {
            return Err(format!("live log lost appends: {got:?}"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{binomial, explore};

    #[test]
    fn real_log_passes_every_interleaving() {
        let explored = explore("seglog", SeglogModel::<AppendLog<u32>>::standard);
        assert_eq!(explored.schedules, binomial(11, 5), "exhaustiveness");
        assert_eq!(explored.violations, 0, "{:?}", explored.first_violation);
    }

    #[test]
    fn broken_cow_is_caught_on_overlapping_schedules_only() {
        let explored = explore("seglog-broken", SeglogModel::<BrokenLog>::standard);
        assert_eq!(explored.schedules, binomial(11, 5), "exhaustiveness");
        assert!(
            explored.violations > 0,
            "the explorer must catch the missing copy-on-write"
        );
        assert!(
            explored.violations < explored.schedules,
            "schedules where all appends precede the first snapshot must pass"
        );
    }
}
