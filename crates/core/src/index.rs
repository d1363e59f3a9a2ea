//! The workspace's one lookup index, and the hash it files keys under.
//!
//! A [`SymbolIndex`] maps a key to the `u32` row that holds it in a column
//! the *caller* owns, and stores no key of its own. It backs the
//! [`Interner`](crate::intern::Interner)'s symbol logs and the checker
//! engine's group, round-parent and request-key columns in this crate, and
//! in `xability-consensus` and `xability-protocol` the consensus engine's
//! decided instances and a replica's request table. Each of them probes
//! with [`hash_of`] of its key and confirms the match against its own
//! column.

use std::hash::{Hash, Hasher};

/// The hasher behind every [`SymbolIndex`]: each word is folded in with a
/// rotate, an xor and one multiplication, which is about as little work as
/// a hash can be.
///
/// It is **deterministic** — no per-process seed, so a table's layout is a
/// pure function of its keys — and **not collision-resistant**: whoever
/// chooses the keys can make them collide. That is the right trade for
/// tables keyed by the program's own dense symbols, by trace values and by
/// request ids a collision can only slow down (every probe ends in an
/// equality check), and none of these tables is ever iterated, so the
/// layout reaches no output. Do not key a table on adversarial input with
/// it.
#[derive(Debug, Default, Clone, Copy)]
pub struct SymbolHasher(u64);

impl SymbolHasher {
    /// 2⁶⁴ / φ, odd: the multiplier of Fibonacci hashing.
    const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::MULTIPLIER);
    }
}

// Inlined, like the table's probe below: every key of every table in the
// workspace is hashed through these few instructions, from this crate and
// from the crates that key their own columns with it.
impl Hasher for SymbolHasher {
    #[inline]
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

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    /// The product's high bits are its best-mixed ones; folding them onto
    /// the low half serves tables that index by the low bits.
    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// `item`'s hash under [`SymbolHasher`]: what a [`SymbolIndex`] files it
/// under.
#[inline]
pub fn hash_of<T: Hash + ?Sized>(item: &T) -> u64 {
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

/// An open-addressed, linearly probed table of `u32` ids into a column the
/// *caller* owns. It stores no key — a probe compares against the column,
/// the single authority — only, beside each id, a one-byte tag of the
/// key's hash, so a probe walks a dense byte array and reaches into the
/// column (a cache miss per distinct id) almost only for the slot that
/// matches: 5 bytes per slot. Ids are never removed, so there are no
/// tombstones; the table doubles when an insert would take it past 7/8
/// full and re-files in id order — one sequential pass over the caller's
/// column, which measures faster than walking the old slots (that reads
/// the column at random). Ids are filed in ascending order but need not be
/// dense: the checker's aggregate files no invalid declaration, and says
/// so when asked to re-file that row.
///
/// # Examples
///
/// ```
/// use xability_core::index::{hash_of, SymbolIndex};
///
/// let column = ["req-1", "req-10", "req"];
/// let mut index = SymbolIndex::default();
/// for (row, id) in column.iter().enumerate() {
///     let rehash = |filed: u32| Some(hash_of(column[filed as usize]));
///     index.insert(hash_of(*id), row as u32, rehash);
/// }
/// let find = |id: &str| index.find(hash_of(id), |row| column[row as usize] == id);
/// assert_eq!(find("req-10"), Some(1));
/// assert_eq!(find("req-"), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SymbolIndex {
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
    #[inline]
    fn tag(hash: u64) -> u8 {
        0x80 | (hash >> 57) as u8
    }

    /// The id filed under `hash` for which `is_match` holds, if any.
    #[inline]
    pub fn find(&self, hash: u64, mut is_match: impl FnMut(u32) -> bool) -> Option<u32> {
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
    pub fn insert(&mut self, hash: u64, id: u32, rehash: impl Fn(u32) -> Option<u64>) {
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

    #[inline]
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
    pub fn heap_bytes(&self) -> usize {
        self.tags.capacity() + self.ids.capacity() * std::mem::size_of::<u32>()
    }

    /// How many ids are filed.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The table's size in slots (a power of two, or 0 before the first
    /// insert).
    #[cfg(test)]
    pub(crate) fn slots(&self) -> usize {
        self.tags.len()
    }
}
