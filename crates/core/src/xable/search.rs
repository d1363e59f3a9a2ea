//! Exhaustive decision procedure for x-ability: breadth-first search over
//! the reduction closure ⇒\* (rule 17 of Fig. 4 realized as transitive
//! closure of single steps).
//!
//! This is the *reference semantics* of the crate: it follows the paper's
//! definitions as directly as possible and makes no assumption about the
//! shape of the history. Its cost is exponential in the worst case, so every
//! entry point takes an explicit [`SearchBudget`].

use std::collections::{HashSet, VecDeque};

use crate::action::ActionId;
use crate::failure_free::failure_free_sequence_outputs;
use crate::history::History;
use crate::reduce::successors;
use crate::value::Value;

/// Limits for the exhaustive search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchBudget {
    /// Maximum number of histories expanded (popped from the frontier).
    pub max_expansions: usize,
    /// Maximum number of distinct histories remembered.
    pub max_visited: usize,
}

impl Default for SearchBudget {
    fn default() -> Self {
        SearchBudget {
            max_expansions: 50_000,
            max_visited: 200_000,
        }
    }
}

impl SearchBudget {
    /// [`SearchBudget::small`] as a constant: the fast tier's fixed
    /// per-group budget.
    pub(crate) const SMALL: SearchBudget = SearchBudget {
        max_expansions: 5_000,
        max_visited: 20_000,
    };

    /// A small budget for per-group checks on protocol traces — the one
    /// every per-group search of the fast tier runs under.
    pub fn small() -> Self {
        Self::SMALL
    }
}

/// Outcome of a reduction search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchResult {
    /// A goal history was reached; the witness is returned.
    Reached(History),
    /// The entire reachable closure was explored without finding a goal:
    /// the history is definitely not reducible to a goal.
    Exhausted,
    /// The budget ran out before the closure was fully explored.
    BudgetExceeded,
}

impl SearchResult {
    /// Returns `true` if a goal was reached.
    pub fn is_reached(&self) -> bool {
        matches!(self, SearchResult::Reached(_))
    }
}

/// Searches the reduction closure of `h` for a history satisfying `goal`.
///
/// `min_len` prunes branches whose length is already below the shortest
/// possible goal (reduction never lengthens a history); pass `0` to disable
/// pruning.
pub fn search_reduction<F>(
    h: &History,
    goal: F,
    min_len: usize,
    budget: SearchBudget,
) -> SearchResult
where
    F: Fn(&History) -> bool,
{
    if goal(h) {
        return SearchResult::Reached(h.clone());
    }
    let mut visited: HashSet<History> = HashSet::new();
    let mut frontier: VecDeque<History> = VecDeque::new();
    visited.insert(h.clone());
    frontier.push_back(h.clone());
    let mut expansions = 0usize;
    let mut truncated = false;

    while let Some(current) = frontier.pop_front() {
        expansions += 1;
        if expansions > budget.max_expansions {
            return SearchResult::BudgetExceeded;
        }
        for succ in successors(&current) {
            if succ.len() < min_len {
                continue;
            }
            if visited.contains(&succ) {
                continue;
            }
            if goal(&succ) {
                return SearchResult::Reached(succ);
            }
            if visited.len() >= budget.max_visited {
                truncated = true;
                continue;
            }
            visited.insert(succ.clone());
            frontier.push_back(succ);
        }
    }
    if truncated {
        SearchResult::BudgetExceeded
    } else {
        SearchResult::Exhausted
    }
}

/// Decides whether `h` is x-able with respect to the ordered action/input
/// sequence `ops`: can `h` be reduced to `eventsof(a₁,iv₁,ov₁) • … •
/// eventsof(aₙ,ivₙ,ovₙ)` for some outputs?
///
/// This is eq. 23 for a single op and the R3 obligation (§4) for sequences.
///
/// # Examples
///
/// ```
/// use xability_core::xable::{is_xable_search, SearchBudget, SearchResult};
/// use xability_core::{ActionId, ActionName, Event, History, Value};
///
/// let a = ActionId::base(ActionName::idempotent("get"));
/// let h: History = [
///     Event::start(a.clone(), Value::from(1)),
///     Event::complete(a.clone(), Value::from(5)),
/// ]
/// .into_iter()
/// .collect();
/// let ops = [(a, Value::from(1))];
/// assert!(matches!(
///     is_xable_search(&h, &ops, SearchBudget::default()),
///     SearchResult::Reached(_)
/// ));
/// ```
pub fn is_xable_search(
    h: &History,
    ops: &[(ActionId, Value)],
    budget: SearchBudget,
) -> SearchResult {
    let min_len: usize = ops
        .iter()
        .map(|(a, _)| if a.is_undoable_base() { 4 } else { 2 })
        .sum();
    search_reduction(
        h,
        |cand| failure_free_sequence_outputs(ops, cand).is_some(),
        min_len,
        budget,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionName;
    use crate::event::Event;
    use crate::failure_free::eventsof;

    fn idem(name: &str) -> ActionId {
        ActionId::base(ActionName::idempotent(name))
    }

    fn undo(name: &str) -> ActionId {
        ActionId::base(ActionName::undoable(name))
    }

    fn s(a: &ActionId, v: i64) -> Event {
        Event::start(a.clone(), Value::from(v))
    }

    fn c(a: &ActionId, v: i64) -> Event {
        Event::complete(a.clone(), Value::from(v))
    }

    fn cnil(a: &ActionId) -> Event {
        Event::complete(a.clone(), Value::Nil)
    }

    fn snil(a: &ActionId, v: i64) -> Event {
        Event::start(a.clone(), Value::from(v))
    }

    #[test]
    fn failure_free_history_is_immediately_xable() {
        let a = idem("a");
        let h = eventsof(&a, &Value::from(1), &Value::from(2));
        let ops = [(a, Value::from(1))];
        assert!(is_xable_search(&h, &ops, SearchBudget::default()).is_reached());
    }

    #[test]
    fn retried_idempotent_action_is_xable() {
        let a = idem("a");
        let h: History = [s(&a, 1), s(&a, 1), s(&a, 1), c(&a, 2)]
            .into_iter()
            .collect();
        let ops = [(a, Value::from(1))];
        assert!(is_xable_search(&h, &ops, SearchBudget::default()).is_reached());
    }

    #[test]
    fn duplicated_completions_with_same_output_are_xable() {
        let a = idem("a");
        let h: History = [s(&a, 1), c(&a, 2), s(&a, 1), c(&a, 2)]
            .into_iter()
            .collect();
        let ops = [(a, Value::from(1))];
        assert!(is_xable_search(&h, &ops, SearchBudget::default()).is_reached());
    }

    #[test]
    fn disagreeing_outputs_are_not_xable() {
        let a = idem("a");
        let h: History = [s(&a, 1), c(&a, 2), s(&a, 1), c(&a, 3)]
            .into_iter()
            .collect();
        let ops = [(a, Value::from(1))];
        assert_eq!(
            is_xable_search(&h, &ops, SearchBudget::default()),
            SearchResult::Exhausted
        );
    }

    #[test]
    fn never_executed_action_is_not_xable() {
        let a = idem("a");
        let ops = [(a, Value::from(1))];
        assert_eq!(
            is_xable_search(&History::empty(), &ops, SearchBudget::default()),
            SearchResult::Exhausted
        );
    }

    #[test]
    fn cancelled_then_retried_undoable_action_is_xable() {
        let u = undo("u");
        let cancel = u.cancel().unwrap();
        let commit = u.commit().unwrap();
        // attempt 1 fails, is cancelled; attempt 2 succeeds and commits.
        let h: History = [
            snil(&u, 1),
            snil(&cancel, 1),
            cnil(&cancel),
            snil(&u, 1),
            c(&u, 7),
            snil(&commit, 1),
            cnil(&commit),
        ]
        .into_iter()
        .collect();
        let ops = [(u, Value::from(1))];
        assert!(is_xable_search(&h, &ops, SearchBudget::default()).is_reached());
    }

    #[test]
    fn uncommitted_undoable_action_is_not_xable() {
        let u = undo("u");
        let h: History = [snil(&u, 1), c(&u, 7)].into_iter().collect();
        let ops = [(u.clone(), Value::from(1))];
        assert_eq!(
            is_xable_search(&h, &ops, SearchBudget::default()),
            SearchResult::Exhausted
        );
    }

    #[test]
    fn cancelled_and_never_retried_is_not_xable_but_erases() {
        let u = undo("u");
        let cancel = u.cancel().unwrap();
        let h: History = [snil(&u, 1), snil(&cancel, 1), cnil(&cancel)]
            .into_iter()
            .collect();
        // Not x-able with respect to (u, 1)…
        let ops = [(u.clone(), Value::from(1))];
        assert_eq!(
            is_xable_search(&h, &ops, SearchBudget::default()),
            SearchResult::Exhausted
        );
        // …but reduces to the empty history (the R3 "n-1" case).
        let r = search_reduction(&h, History::is_empty, 0, SearchBudget::default());
        assert!(r.is_reached());
    }

    #[test]
    fn sequence_of_two_requests_reduces_in_order() {
        let a = idem("a");
        let b = idem("b");
        // b's retry interleaves with a's success; final order a then b.
        let h: History = [s(&a, 1), s(&b, 2), c(&a, 10), s(&b, 2), c(&b, 20)]
            .into_iter()
            .collect();
        let ops = [(a.clone(), Value::from(1)), (b.clone(), Value::from(2))];
        assert!(is_xable_search(&h, &ops, SearchBudget::default()).is_reached());
        // The reversed op order is not satisfiable.
        let rev = [(b, Value::from(2)), (a, Value::from(1))];
        assert_eq!(
            is_xable_search(&h, &rev, SearchBudget::default()),
            SearchResult::Exhausted
        );
    }

    #[test]
    fn commit_after_cancel_is_not_xable() {
        // The effect was cancelled, then a stray commit arrived: the
        // attempt/cancel pair cannot erase (commit interleaves at the
        // history level) and no second attempt exists.
        let u = undo("u");
        let cancel = u.cancel().unwrap();
        let commit = u.commit().unwrap();
        let h: History = [
            snil(&u, 1),
            c(&u, 7),
            snil(&commit, 1),
            cnil(&commit),
            snil(&cancel, 1),
            cnil(&cancel),
        ]
        .into_iter()
        .collect();
        let ops = [(u, Value::from(1))];
        // The cancel events are stuck: the history cannot reduce to the
        // 4-event failure-free form.
        assert_eq!(
            is_xable_search(&h, &ops, SearchBudget::default()),
            SearchResult::Exhausted
        );
    }

    #[test]
    fn budget_exceeded_is_reported() {
        let a = idem("a");
        let mut events = Vec::new();
        for _ in 0..8 {
            events.push(s(&a, 1));
            events.push(c(&a, 2));
        }
        let h = History::from_events(events);
        let tiny = SearchBudget {
            max_expansions: 1,
            max_visited: 2,
        };
        let ops = [(idem("zzz"), Value::from(1))];
        assert_eq!(
            is_xable_search(&h, &ops, tiny),
            SearchResult::BudgetExceeded
        );
    }

    #[test]
    fn search_goal_on_initial_history() {
        let h = History::empty();
        let r = search_reduction(&h, History::is_empty, 0, SearchBudget::default());
        assert_eq!(r, SearchResult::Reached(History::empty()));
    }
}
