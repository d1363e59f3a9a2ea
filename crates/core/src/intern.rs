//! Symbol interning for action names and values.
//!
//! A trace over millions of events mentions only a handful of distinct
//! [`ActionName`]s and — after request keys — a bounded set of distinct
//! [`Value`]s. The [`Interner`] stores each distinct name/value **once**
//! and hands out dense `u32` symbols.
//!
//! Two layers share this type: the `xability-store` crate's packed event
//! representation carries two symbols instead of two heap allocations,
//! and the fast/incremental checker engine (under [`crate::xable`]) keys
//! its per-request groups by symbol pairs, so the per-event hot path is a
//! hash probe instead of an owned `(ActionName, Value)` clone plus an
//! ordered-map walk.
//!
//! Symbols are append-only: once assigned, a symbol never changes meaning,
//! so a reader holding `&Interner` resolves every symbol it can meet, and
//! a clone (O(#segments), sharing the segments) keeps the prefix it was
//! taken at while the original keeps interning.

use std::hash::{Hash, Hasher};

use crate::action::ActionName;
use crate::seglog::AppendLog;
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
    actions: AppendLog<ActionName>,
    /// Lookup index over the log's symbols; the log is the single
    /// authority for the interned names, so nothing is deep-stored twice.
    action_index: SymbolIndex,
    values: AppendLog<Value>,
    value_index: SymbolIndex,
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
            actions: AppendLog::new(SYMBOL_SEGMENT),
            action_index: SymbolIndex::default(),
            values: AppendLog::new(SYMBOL_SEGMENT),
            value_index: SymbolIndex::default(),
        }
    }

    /// The symbol of `name`, interning it on first sight.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` distinct names are interned.
    pub fn intern_action(&mut self, name: &ActionName) -> u32 {
        intern(&mut self.actions, &mut self.action_index, name)
    }

    /// The symbol of `value`, interning it on first sight.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` distinct values are interned.
    pub fn intern_value(&mut self, value: &Value) -> u32 {
        intern(&mut self.values, &mut self.value_index, value)
    }

    /// The symbol of `name` if it has already been interned — a pure
    /// lookup that never inserts (for deciders answering questions about
    /// keys the history may never have mentioned).
    pub fn lookup_action(&self, name: &ActionName) -> Option<u32> {
        lookup(&self.actions, &self.action_index, name)
    }

    /// The symbol of `value` if it has already been interned — a pure
    /// lookup that never inserts.
    pub fn lookup_value(&self, value: &Value) -> Option<u32> {
        lookup(&self.values, &self.value_index, value)
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

    /// Approximate heap bytes held by the symbol tables: segment storage,
    /// the per-entry heap behind names and values (each stored once), and
    /// the two lookup indexes at their allocated size — 5 bytes per slot
    /// (a `u32` symbol and a one-byte hash tag), which at the indexes'
    /// load factor is between 5.7 and 11.4 bytes per interned symbol.
    pub fn approx_bytes(&self) -> usize {
        let name_heap: usize = (0..self.actions.len())
            .map(|i| self.actions.get(i).name().len())
            .sum();
        let value_heap: usize = (0..self.values.len())
            .map(|i| value_heap_bytes(self.values.get(i)))
            .sum();
        self.actions.segment_bytes()
            + self.values.segment_bytes()
            + name_heap
            + value_heap
            + self.action_index.heap_bytes()
            + self.value_index.heap_bytes()
    }
}

/// Distinct action names one [`BatchMemo`] remembers; past it a name is
/// interned directly, so a batch of many names never turns the scan
/// quadratic.
const BATCH_MEMO_ACTIONS: usize = 8;

/// The symbol memo of one batch of events, in front of an [`Interner`]:
/// the names the batch met so far (a linear scan — real alphabets hold a
/// handful) and the last value interned (a start and its retries repeat
/// one value). A hit is a direct equality check instead of the interner's
/// hash-and-probe; a miss interns, so every answer is the symbol the
/// interner itself gives. The store's and the checker engine's batch
/// ingest each build one per batch.
///
/// The entries sit in a fixed-capacity array, so a memo built for a batch
/// of one event allocates nothing.
///
/// # Examples
///
/// ```
/// use xability_core::intern::{BatchMemo, Interner};
/// use xability_core::{ActionName, Value};
///
/// let mut interner = Interner::new();
/// let (get, one) = (ActionName::idempotent("get"), Value::from(1));
/// let mut memo = BatchMemo::default();
/// let sym = memo.action(&mut interner, &get);
/// assert_eq!(memo.action(&mut interner, &get), sym); // a memo hit
/// assert_eq!(memo.value(&mut interner, &one), interner.intern_value(&one));
/// ```
#[derive(Debug, Default)]
pub struct BatchMemo<'a> {
    /// Filled from the front; `None` past the last name met.
    actions: [Option<(&'a ActionName, u32)>; BATCH_MEMO_ACTIONS],
    last_value: Option<(&'a Value, u32)>,
}

impl<'a> BatchMemo<'a> {
    /// The symbol of `name` in `interner`, from the memo when the batch
    /// met `name` before. Inlined: it runs once per event of every batch,
    /// called from other crates.
    #[inline]
    pub fn action(&mut self, interner: &mut Interner, name: &'a ActionName) -> u32 {
        let mut met = self.actions.iter().map_while(|entry| *entry);
        if let Some((_, sym)) = met.find(|&(seen, _)| seen == name) {
            return sym;
        }
        let sym = interner.intern_action(name);
        if let Some(free) = self.actions.iter_mut().find(|entry| entry.is_none()) {
            *free = Some((name, sym));
        }
        sym
    }

    /// The symbol of `value` in `interner`, from the memo when it equals
    /// the last value asked for.
    #[inline]
    pub fn value(&mut self, interner: &mut Interner, value: &'a Value) -> u32 {
        match self.last_value {
            Some((last, sym)) if last == value => sym,
            _ => {
                let sym = interner.intern_value(value);
                self.last_value = Some((value, sym));
                sym
            }
        }
    }
}

/// The hasher behind every [`SymbolIndex`] — the interner's two and the
/// checker engine's symbol-pair indexes: each word is folded in with a
/// rotate, an xor and one multiplication, which is about as little work as
/// a hash can be.
///
/// It is **deterministic** — no per-process seed, so a table's layout is a
/// pure function of its keys — and **not collision-resistant**: whoever
/// chooses the keys can make them collide. That is the right trade for
/// tables keyed by the program's own dense symbols and by trace values a
/// collision can only slow down (every probe ends in an equality check),
/// and none of these tables is ever iterated, so the layout reaches no
/// output. Do not key a table on adversarial input with it.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SymbolHasher(u64);

impl SymbolHasher {
    /// 2⁶⁴ / φ, odd: the multiplier of Fibonacci hashing.
    const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::MULTIPLIER);
    }
}

impl Hasher for SymbolHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(
                chunk.try_into().expect("chunks_exact yields 8 bytes"),
            ));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    /// The product's high bits are its best-mixed ones; folding them onto
    /// the low half serves tables that index by the low bits.
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

pub(crate) fn hash_of<T: Hash>(item: &T) -> u64 {
    let mut hasher = SymbolHasher::default();
    item.hash(&mut hasher);
    hasher.finish()
}

/// The 4 bytes of a [`hash_of`] that a column keeps per row when its key
/// is *content* the column does not hold: an index over such a column is
/// filed under `hash_of(&short)`, so growing it re-files from the column
/// alone instead of re-reading and re-hashing every key. They are the
/// hash's top half — the product's high bits, its best-mixed ones (the low
/// half of a short key's hash depends on its first bytes only).
pub(crate) fn short_hash(hash: u64) -> u32 {
    (hash >> 32) as u32
}

/// The crate's one lookup index: an open-addressed, linearly probed table
/// of `u32` ids into a column the *caller* owns — the interner's symbol
/// logs, the engine's group and round-parent key columns, the aggregate's
/// request keys. It stores no key — a probe compares against the column,
/// the single authority — only, beside each id, a one-byte tag of the
/// key's hash, so a probe walks a dense byte array and reaches into the
/// column (a cache miss per distinct id) almost only for the slot that
/// matches: 5 bytes per slot. Ids are never removed, so there are no
/// tombstones; the table doubles when an insert would take it past 7/8
/// full and re-files in id order — one sequential pass over the caller's
/// column, which measures faster than walking the old slots (that reads
/// the column at random). Ids are filed in ascending order but need not be
/// dense: the aggregate files no invalid declaration, and says so when
/// asked to re-file that row.
#[derive(Debug, Clone, Default)]
pub(crate) struct SymbolIndex {
    /// Per slot: [`SymbolIndex::VACANT`], or a tag with the high bit set.
    tags: Vec<u8>,
    /// Per slot: the id, meaningful where the tag is not vacant.
    ids: Vec<u32>,
    /// Occupied slots.
    len: usize,
}

impl SymbolIndex {
    const VACANT: u8 = 0;

    /// The tag is cut from the hash's top bits and the home slot from its
    /// low bits, so the keys that crowd one neighbourhood still differ in
    /// their tags.
    fn tag(hash: u64) -> u8 {
        0x80 | (hash >> 57) as u8
    }

    /// The id filed under `hash` for which `is_match` holds, if any.
    pub(crate) fn find(&self, hash: u64, mut is_match: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.tags.is_empty() {
            return None;
        }
        let mask = self.tags.len() - 1;
        let tag = Self::tag(hash);
        let mut slot = hash as usize & mask;
        // Terminates: the table is never full.
        while self.tags[slot] != Self::VACANT {
            if self.tags[slot] == tag && is_match(self.ids[slot]) {
                return Some(self.ids[slot]);
            }
            slot = (slot + 1) & mask;
        }
        None
    }

    /// Files `id` — larger than every id filed so far — under `hash`. The
    /// caller has established, with [`find`](Self::find), that no filed id
    /// matches the key. Growing re-files every row below `id`, in order,
    /// under `rehash(row)`: its key's hash as the caller's column gives
    /// it, or `None` for a row that was never filed.
    pub(crate) fn insert(&mut self, hash: u64, id: u32, rehash: impl Fn(u32) -> Option<u64>) {
        debug_assert!(self.len <= id as usize, "ids are filed in ascending order");
        if (self.len + 1) * 8 > self.tags.len() * 7 {
            let slots = (self.tags.len() * 2).max(2);
            self.tags = vec![Self::VACANT; slots];
            self.ids = vec![0; slots];
            self.len = 0;
            for row in 0..id {
                if let Some(hash) = rehash(row) {
                    self.place(hash, row);
                }
            }
        }
        self.place(hash, id);
    }

    fn place(&mut self, hash: u64, id: u32) {
        let mask = self.tags.len() - 1;
        let mut slot = hash as usize & mask;
        while self.tags[slot] != Self::VACANT {
            slot = (slot + 1) & mask;
        }
        self.tags[slot] = Self::tag(hash);
        self.ids[slot] = id;
        self.len += 1;
    }

    /// Heap bytes allocated for the slots.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.tags.capacity() + self.ids.capacity() * std::mem::size_of::<u32>()
    }
}

/// The one interning routine behind both symbol tables: probe the index
/// against the log (the single authority for the interned items),
/// appending on a miss.
///
/// # Panics
///
/// Panics if more than `u32::MAX` distinct items are interned.
fn intern<T: Hash + Eq + Clone>(log: &mut AppendLog<T>, index: &mut SymbolIndex, item: &T) -> u32 {
    let hash = hash_of(item);
    if let Some(sym) = index.find(hash, |sym| log.get(sym as usize) == item) {
        return sym;
    }
    let sym = u32::try_from(log.len()).expect("more than u32::MAX distinct symbols");
    log.push(item.clone());
    index.insert(hash, sym, |filed| Some(hash_of(log.get(filed as usize))));
    sym
}

/// The read-only probe behind [`Interner::lookup_action`] /
/// [`Interner::lookup_value`].
fn lookup<T: Hash + Eq + Clone>(log: &AppendLog<T>, index: &SymbolIndex, item: &T) -> Option<u32> {
    index.find(hash_of(item), |sym| log.get(sym as usize) == item)
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

// The reference models are std's `HashMap`: the interner must agree with
// it key for key. Every check is per key (a lookup, or a sweep asserting
// each entry), so hash order cannot change a result.
#[cfg(test)]
#[allow(clippy::disallowed_types)]
mod tests {
    use super::*;
    use std::collections::HashMap;

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
    fn agrees_with_a_hash_map_model_across_table_doublings() {
        // ~3k distinct values of every shape among 9k operations: the value
        // index doubles eleven times (2 → 4096 slots), the action index
        // five (2 → 64).
        let value_of = |n: u64| match n % 4 {
            0 => Value::from(n as i64),
            1 => Value::from(format!("key-{n:05}")),
            2 => Value::pair(Value::from("r"), Value::from((n / 4) as i64)),
            _ => Value::list([Value::from(n as i64), Value::Nil]),
        };
        let mut model: HashMap<Value, u32> = HashMap::new();
        let mut names: HashMap<ActionName, u32> = HashMap::new();
        let mut interner = Interner::new();
        let mut clones = Vec::new();
        let mut clone = None;
        // A fixed multiplicative walk: revisits old keys between new ones.
        let mut x = 1u64;
        for step in 0..9_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let value = value_of((x >> 33) % (step / 3 + 1));
            if step % 5 == 4 {
                assert_eq!(interner.lookup_value(&value), model.get(&value).copied());
                continue;
            }
            let next = model.len() as u32;
            let expected = *model.entry(value.clone()).or_insert(next);
            assert_eq!(interner.intern_value(&value), expected, "step {step}");
            assert_eq!(interner.value(expected), &value);
            if step % 300 == 0 {
                let name = if step % 600 == 0 {
                    ActionName::idempotent(format!("a{step}"))
                } else {
                    ActionName::undoable(format!("a{step}"))
                };
                let next = names.len() as u32;
                names.insert(name.clone(), next);
                assert_eq!(interner.intern_action(&name), next);
                clones.push((interner.clone(), model.len()));
            }
            if step == 4_000 {
                clone = Some((interner.clone(), model.clone()));
            }
        }
        assert!((1_793..=3_584).contains(&model.len()), "a 4096-slot index");
        assert_eq!(names.len(), 30);
        assert_eq!(interner.value_count(), model.len());
        for (value, &sym) in &model {
            assert_eq!(interner.lookup_value(value), Some(sym));
            assert_eq!(interner.intern_value(value), sym);
        }
        for (name, &sym) in &names {
            assert_eq!(interner.lookup_action(name), Some(sym));
        }
        assert_eq!(
            interner.value_count(),
            model.len(),
            "re-interning adds nothing"
        );
        // Clones kept the prefix they were taken at.
        for (older, count) in &clones {
            assert_eq!(older.value_count(), *count);
            assert!((0..*count as u32).all(|sym| model[older.value(sym)] == sym));
        }
        // The clone is independent: it kept its own prefix, and numbers
        // what it sees next by its own count.
        let (mut clone, at_clone) = clone.expect("cloned at step 4000");
        assert_eq!(clone.value_count(), at_clone.len());
        for (value, &sym) in &model {
            let kept = at_clone.get(value).copied();
            assert_eq!(clone.lookup_value(value), kept);
            assert!(kept.is_none() || kept == Some(sym));
        }
        let fresh = Value::from("only the clone sees this");
        assert_eq!(clone.intern_value(&fresh), at_clone.len() as u32);
        assert_eq!(interner.lookup_value(&fresh), None);
    }

    #[test]
    fn index_is_correct_when_every_key_collides() {
        // A constant hash: one probe chain through the whole table, every
        // tag equal. Symbols must still be dense, stable and found.
        let keys: Vec<String> = (0..200).map(|k| format!("k{k}")).collect();
        let mut index = SymbolIndex::default();
        for (sym, key) in keys.iter().enumerate() {
            let find = |index: &SymbolIndex, key: &String| {
                index.find(7, |filed| &keys[filed as usize] == key)
            };
            assert_eq!(find(&index, key), None);
            index.insert(7, sym as u32, |_| Some(7));
            for (earlier, key) in keys[..=sym].iter().enumerate() {
                assert_eq!(find(&index, key), Some(earlier as u32));
            }
        }
        assert_eq!(index.len, keys.len());
        // 200 symbols fit a 256-slot table at 7/8 load.
        assert_eq!(index.heap_bytes(), 256 * 5);
    }

    #[test]
    fn index_files_sparse_pair_ids_like_a_hash_map() {
        // The engine's use: keys are symbol pairs held in the caller's
        // column, and only some rows are filed (the aggregate skips
        // duplicate and non-base declarations) — so growth cannot assume
        // ids `0..n`. Against a `HashMap` model, under the real hash
        // (2 → 2048 slots: ten doublings) and under a constant one.
        for constant in [false, true] {
            let hash = |key: &(u32, u32)| if constant { 7 } else { hash_of(key) };
            let rows = if constant { 300 } else { 1_500 };
            let mut column: Vec<(u32, u32)> = Vec::new();
            let mut model: HashMap<(u32, u32), u32> = HashMap::new();
            let mut index = SymbolIndex::default();
            let mut x = 1u64;
            for row in 0..rows {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // About one row in three repeats an earlier key.
                let key = ((x >> 60) as u32, ((x >> 33) % (row / 2 + 1)) as u32);
                column.push(key);
                let found = index.find(hash(&key), |id| column[id as usize] == key);
                assert_eq!(found, model.get(&key).copied(), "row {row}");
                // A repeat, and every seventh row, is not filed.
                if found.is_none() && row % 7 != 3 {
                    index.insert(hash(&key), row as u32, |id| {
                        let key = &column[id as usize];
                        (model.get(key) == Some(&id)).then(|| hash(key))
                    });
                    model.insert(key, row as u32);
                }
                assert_eq!(index.len, model.len());
            }
            assert!(model.len() * 3 > rows as usize, "most rows were filed");
            assert!(model.len() < column.len(), "and some were not");
            assert!(
                constant || index.tags.len() >= 1 << 10,
                "at least 4 doublings"
            );
            for (key, &id) in &model {
                assert_eq!(
                    index.find(hash(key), |id| column[id as usize] == *key),
                    Some(id)
                );
            }
            assert_eq!(
                index.find(hash(&(99, 99)), |id| column[id as usize] == (99, 99)),
                None
            );
        }
    }

    #[test]
    fn index_stays_under_twelve_bytes_per_symbol() {
        // The figure `approx_bytes` used to charge per symbol; the flat
        // table must never report more, from the first symbol on.
        let mut index = SymbolIndex::default();
        assert_eq!(index.heap_bytes(), 0);
        for sym in 0..5_000u32 {
            let hash = |s: u32| hash_of(&s);
            index.insert(hash(sym), sym, |s| Some(hash(s)));
            assert!(index.tags.len().is_power_of_two());
            assert!(index.len * 8 <= index.tags.len() * 7, "load over 7/8");
            assert!(index.heap_bytes() <= 12 * index.len, "at {sym}");
        }
    }

    #[test]
    fn hasher_is_deterministic_and_spreads_dense_symbol_pairs() {
        // No per-process seed: the value is the same in every process.
        assert_eq!(hash_of(&(1u32, 2u32)), 0x6a34_b9ab_56c9_cd2e);
        assert_ne!(hash_of(&(1u32, 2u32)), hash_of(&(2u32, 1u32)));
        assert_ne!(hash_of(&"ab"), hash_of(&"ba"));
        assert_ne!(hash_of(&vec![1u8, 0]), hash_of(&vec![1u8]), "length counts");
        // Dense symbol pairs — what the engine's maps are keyed by — fall
        // into low-bit buckets the way random keys would: no crowd, and
        // about 1/e of the buckets empty.
        let mut buckets = vec![0u32; 1 << 12];
        for value in 0..(1u32 << 12) {
            buckets[hash_of(&(3u32, value)) as usize & 0xfff] += 1;
        }
        let (max, empty) = (
            buckets.iter().max().copied(),
            buckets.iter().filter(|&&n| n == 0).count(),
        );
        assert!(max <= Some(8), "a crowded bucket: {max:?}");
        assert!((1_300..1_700).contains(&empty), "{empty} empty buckets");
    }

    #[test]
    fn short_hashes_of_keys_that_share_a_prefix_stay_distinct() {
        // Request keys share their first bytes and differ in their last:
        // the short hash must not be a function of the first bytes alone
        // (the low half of the full hash is). 10⁵ keys among 2³² values
        // collide about once.
        let shorts: std::collections::BTreeSet<u32> = (0..100_000)
            .map(|i| short_hash(hash_of(&Value::from(format!("r{i}")))))
            .collect();
        assert!(shorts.len() > 99_990, "{} distinct", shorts.len());
    }

    #[test]
    fn batch_memo_answers_what_the_interner_answers_past_its_capacity() {
        // More names than the memo holds, each met twice, and values that
        // repeat and alternate: every answer is the interner's own symbol.
        let names: Vec<ActionName> = (0..BATCH_MEMO_ACTIONS + 4)
            .map(|k| ActionName::idempotent(format!("a{k}")))
            .collect();
        let values = [Value::from(1), Value::from(1), Value::Nil, Value::from(1)];
        let mut interner = Interner::new();
        let mut memo = BatchMemo::default();
        for name in names.iter().chain(&names) {
            let sym = memo.action(&mut interner, name);
            assert_eq!(interner.lookup_action(name), Some(sym));
        }
        for value in values.iter().chain(&values) {
            let sym = memo.value(&mut interner, value);
            assert_eq!(interner.lookup_value(value), Some(sym));
        }
        assert_eq!(interner.action_count(), names.len());
        assert_eq!(interner.value_count(), 2);
    }

    #[test]
    fn heap_estimate_is_monotone() {
        let mut i = Interner::new();
        let before = i.approx_bytes();
        i.intern_value(&Value::from("a fairly long string value"));
        assert!(i.approx_bytes() > before);
    }
}
