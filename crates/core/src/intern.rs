//! Symbol interning for action names and values.
//!
//! A trace over millions of events mentions only a handful of distinct
//! [`ActionName`]s and — after request keys — a bounded set of distinct
//! [`Value`]s. The [`Interner`] stores each distinct name/value **once**
//! and hands out dense `u32` symbols.
//!
//! Two layers share this type: the `xability-store` crate's packed event
//! representation carries two symbols instead of two heap allocations,
//! and the fast/incremental checker engine ([`crate::xable::fast`]) keys
//! its per-request groups by symbol pairs, so the per-event hot path is a
//! hash probe instead of an owned `(ActionName, Value)` clone plus an
//! ordered-map walk.
//!
//! Symbols are append-only: once assigned, a symbol never changes meaning,
//! so snapshots taken at any time resolve every symbol they can contain.
//! [`Interner::reader`] hands out such a snapshot — an [`InternerReader`]
//! sharing the underlying segments — which other threads can resolve
//! symbols against while the owner keeps interning.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;

use crate::action::ActionName;
use crate::seglog::{AppendLog, LogView};
use crate::value::Value;

/// Entries per symbol-table segment. Symbol tables are small (distinct
/// names/values, not events), so segments are modest.
const SYMBOL_SEGMENT: usize = 1024;

/// An append-only interner mapping [`ActionName`]s and [`Value`]s to
/// dense `u32` symbols.
///
/// # Examples
///
/// ```
/// use xability_core::intern::Interner;
/// use xability_core::{ActionName, Value};
///
/// let mut interner = Interner::new();
/// let a = interner.intern_action(&ActionName::idempotent("get"));
/// let b = interner.intern_action(&ActionName::idempotent("get"));
/// assert_eq!(a, b); // same name, same symbol
/// let v = interner.intern_value(&Value::from(42));
/// assert_eq!(interner.value(v), &Value::from(42));
/// assert_eq!(interner.lookup_value(&Value::from(42)), Some(v));
/// assert_eq!(interner.lookup_value(&Value::from(43)), None); // no insert
/// ```
#[derive(Debug, Clone)]
pub struct Interner {
    hasher: RandomState,
    actions: AppendLog<ActionName>,
    /// Lookup index keyed by hash; the log is the single authority for
    /// the interned names, so nothing is deep-stored twice. Buckets hold
    /// the (rare) hash collisions.
    action_index: HashMap<u64, Vec<u32>>,
    values: AppendLog<Value>,
    value_index: HashMap<u64, Vec<u32>>,
}

impl Default for Interner {
    fn default() -> Self {
        Interner::new()
    }
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Interner {
            hasher: RandomState::new(),
            actions: AppendLog::new(SYMBOL_SEGMENT),
            action_index: HashMap::new(),
            values: AppendLog::new(SYMBOL_SEGMENT),
            value_index: HashMap::new(),
        }
    }

    /// The symbol of `name`, interning it on first sight.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` distinct names are interned.
    pub fn intern_action(&mut self, name: &ActionName) -> u32 {
        intern(
            &self.hasher,
            &mut self.actions,
            &mut self.action_index,
            name,
        )
    }

    /// The symbol of `value`, interning it on first sight.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` distinct values are interned.
    pub fn intern_value(&mut self, value: &Value) -> u32 {
        intern(&self.hasher, &mut self.values, &mut self.value_index, value)
    }

    /// The symbol of `name` if it has already been interned — a pure
    /// lookup that never inserts (for deciders answering questions about
    /// keys the history may never have mentioned).
    pub fn lookup_action(&self, name: &ActionName) -> Option<u32> {
        lookup(&self.hasher, &self.actions, &self.action_index, name)
    }

    /// The symbol of `value` if it has already been interned — a pure
    /// lookup that never inserts.
    pub fn lookup_value(&self, value: &Value) -> Option<u32> {
        lookup(&self.hasher, &self.values, &self.value_index, value)
    }

    /// Resolves an action symbol.
    ///
    /// # Panics
    ///
    /// Panics if `sym` was not produced by this interner.
    pub fn action(&self, sym: u32) -> &ActionName {
        self.actions.get(sym as usize)
    }

    /// Resolves a value symbol.
    ///
    /// # Panics
    ///
    /// Panics if `sym` was not produced by this interner.
    pub fn value(&self, sym: u32) -> &Value {
        self.values.get(sym as usize)
    }

    /// How many distinct action names have been interned.
    pub fn action_count(&self) -> usize {
        self.actions.len()
    }

    /// How many distinct values have been interned.
    pub fn value_count(&self) -> usize {
        self.values.len()
    }

    /// A shared read handle over the current symbol tables: O(#segments)
    /// `Arc` clones, no name or value copied. The reader resolves every
    /// symbol assigned so far and never observes later interning, so it
    /// can be handed to other threads (worker shards, store snapshots)
    /// while the owner keeps appending.
    pub fn reader(&self) -> InternerReader {
        InternerReader {
            actions: self.actions.snapshot(),
            values: self.values.snapshot(),
        }
    }

    /// Approximate heap bytes held by the symbol tables: segment storage
    /// plus the per-entry heap behind names and values (each stored once
    /// — the lookup indexes hold only hashes and symbols, counted by
    /// entry size; their exact `HashMap` footprint is implementation
    /// defined).
    pub fn approx_bytes(&self) -> usize {
        let name_heap: usize = (0..self.actions.len())
            .map(|i| self.actions.get(i).name().len())
            .sum();
        let value_heap: usize = (0..self.values.len())
            .map(|i| value_heap_bytes(self.values.get(i)))
            .sum();
        let index_entries = (self.actions.len() + self.values.len())
            * (std::mem::size_of::<u64>() + std::mem::size_of::<u32>());
        self.actions.segment_bytes()
            + self.values.segment_bytes()
            + name_heap
            + value_heap
            + index_entries
    }
}

/// An immutable, cheaply cloneable snapshot of an [`Interner`]'s symbol
/// tables (see [`Interner::reader`]): resolves symbols without borrowing
/// the live interner, including from other threads.
#[derive(Debug, Clone)]
pub struct InternerReader {
    actions: LogView<ActionName>,
    values: LogView<Value>,
}

impl InternerReader {
    /// Resolves an action symbol.
    ///
    /// # Panics
    ///
    /// Panics if `sym` was assigned after this reader was taken (or not
    /// at all).
    pub fn action(&self, sym: u32) -> &ActionName {
        self.actions.get(sym as usize)
    }

    /// Resolves a value symbol.
    ///
    /// # Panics
    ///
    /// Panics if `sym` was assigned after this reader was taken (or not
    /// at all).
    pub fn value(&self, sym: u32) -> &Value {
        self.values.get(sym as usize)
    }

    /// How many action symbols this reader resolves.
    pub fn action_count(&self) -> usize {
        self.actions.len()
    }

    /// How many value symbols this reader resolves.
    pub fn value_count(&self) -> usize {
        self.values.len()
    }

    /// Iterates the interned action names in symbol order.
    pub fn actions(&self) -> impl Iterator<Item = &ActionName> + '_ {
        self.actions.iter()
    }

    /// Iterates the interned values in symbol order.
    pub fn values(&self) -> impl Iterator<Item = &Value> + '_ {
        self.values.iter()
    }
}

/// The one interning routine behind both symbol tables: probe the hash
/// bucket against the log (the single authority for the interned items),
/// appending on a miss.
///
/// # Panics
///
/// Panics if more than `u32::MAX` distinct items are interned.
fn intern<T: std::hash::Hash + Eq + Clone>(
    hasher: &RandomState,
    log: &mut AppendLog<T>,
    index: &mut HashMap<u64, Vec<u32>>,
    item: &T,
) -> u32 {
    let hash = hasher.hash_one(item);
    if let Some(bucket) = index.get(&hash) {
        for &sym in bucket {
            if log.get(sym as usize) == item {
                return sym;
            }
        }
    }
    let sym = u32::try_from(log.len()).expect("more than u32::MAX distinct symbols");
    log.push(item.clone());
    index.entry(hash).or_default().push(sym);
    sym
}

/// The read-only probe behind [`Interner::lookup_action`] /
/// [`Interner::lookup_value`].
fn lookup<T: std::hash::Hash + Eq + Clone>(
    hasher: &RandomState,
    log: &AppendLog<T>,
    index: &HashMap<u64, Vec<u32>>,
    item: &T,
) -> Option<u32> {
    let hash = hasher.hash_one(item);
    index
        .get(&hash)?
        .iter()
        .copied()
        .find(|&sym| log.get(sym as usize) == item)
}

/// Approximate heap bytes behind a [`Value`] (not counting the inline
/// enum itself): string contents, list/pair element storage, recursively;
/// no allocator or reference-count headers. Compound values share their
/// contents with every clone, so this is an upper bound on the bytes the
/// value *owns* — the exact figure only when nothing else holds it.
/// Feeds [`Interner::approx_bytes`].
fn value_heap_bytes(value: &Value) -> usize {
    match value {
        Value::Nil | Value::Bool(_) | Value::Int(_) => 0,
        Value::Str(s) => s.len(),
        Value::List(items) => {
            items.len() * std::mem::size_of::<Value>()
                + items.iter().map(value_heap_bytes).sum::<usize>()
        }
        Value::Pair(p) => {
            2 * std::mem::size_of::<Value>() + value_heap_bytes(&p.0) + value_heap_bytes(&p.1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut i = Interner::new();
        let a = i.intern_action(&ActionName::idempotent("a"));
        let b = i.intern_action(&ActionName::undoable("b"));
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(i.intern_action(&ActionName::idempotent("a")), 0);
        assert_eq!(i.action_count(), 2);
        assert_eq!(i.action(1), &ActionName::undoable("b"));
    }

    #[test]
    fn kind_distinguishes_names() {
        let mut i = Interner::new();
        let idem = i.intern_action(&ActionName::idempotent("x"));
        let undo = i.intern_action(&ActionName::undoable("x"));
        assert_ne!(idem, undo, "kind is part of the name identity");
    }

    #[test]
    fn values_round_trip() {
        let mut i = Interner::new();
        let vals = [
            Value::Nil,
            Value::from(7),
            Value::from("hello"),
            Value::list([Value::from(1), Value::pair(Value::from("k"), Value::Nil)]),
        ];
        let syms: Vec<u32> = vals.iter().map(|v| i.intern_value(v)).collect();
        for (sym, val) in syms.iter().zip(&vals) {
            assert_eq!(i.value(*sym), val);
        }
        assert_eq!(i.value_count(), vals.len());
    }

    #[test]
    fn lookup_never_inserts() {
        let mut i = Interner::new();
        let sym = i.intern_value(&Value::from(7));
        assert_eq!(i.lookup_value(&Value::from(7)), Some(sym));
        assert_eq!(i.lookup_value(&Value::from(8)), None);
        assert_eq!(i.value_count(), 1, "lookup must not intern");
        assert_eq!(i.lookup_action(&ActionName::idempotent("a")), None);
        let a = i.intern_action(&ActionName::idempotent("a"));
        assert_eq!(i.lookup_action(&ActionName::idempotent("a")), Some(a));
        assert_eq!(
            i.lookup_action(&ActionName::undoable("a")),
            None,
            "kind is part of the identity"
        );
    }

    #[test]
    fn reader_is_a_stable_snapshot() {
        let mut i = Interner::new();
        let a = i.intern_action(&ActionName::idempotent("a"));
        let v = i.intern_value(&Value::from(1));
        let reader = i.reader();
        let b = i.intern_action(&ActionName::idempotent("b"));
        assert_eq!(reader.action_count(), 1);
        assert_eq!(reader.value_count(), 1);
        assert_eq!(reader.action(a), &ActionName::idempotent("a"));
        assert_eq!(reader.value(v), &Value::from(1));
        assert_eq!(i.action(b), &ActionName::idempotent("b"));
        assert_eq!(
            reader.actions().collect::<Vec<_>>(),
            vec![&ActionName::idempotent("a")]
        );
        assert_eq!(reader.values().collect::<Vec<_>>(), vec![&Value::from(1)]);
    }

    #[test]
    fn reader_resolves_from_other_threads() {
        let mut i = Interner::new();
        let v = i.intern_value(&Value::from("shared"));
        let reader = i.reader();
        std::thread::scope(|scope| {
            let worker = scope.spawn(move || reader.value(v).clone());
            // The owner keeps interning while the worker resolves.
            i.intern_value(&Value::from("later"));
            assert_eq!(worker.join().expect("worker"), Value::from("shared"));
        });
    }

    #[test]
    fn heap_estimate_is_monotone() {
        let mut i = Interner::new();
        let before = i.approx_bytes();
        i.intern_value(&Value::from("a fairly long string value"));
        assert!(i.approx_bytes() > before);
    }
}
