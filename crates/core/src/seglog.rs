//! The segmented append-only log shared by the checker engine's symbol
//! tables (via [`crate::intern::Interner`]) and the `xability-store`
//! crate's event segments.
//!
//! An [`AppendLog`] grows in fixed-capacity segments. Old segments are
//! never moved or reallocated — appending allocates a fresh segment when
//! the open one fills, so a multi-million-entry log never pays the
//! reallocate-and-copy of a growing `Vec`. Only the first segment grows
//! like a `Vec` until it reaches the segment capacity, so a short log —
//! a session's thousand events in a 65 536-event segment — does not
//! reserve a segment it never fills. Segments are reference
//! counted, which makes a [`LogView`] — an immutable snapshot of the
//! first `len` entries — a handful of `Arc` clones.
//!
//! Snapshots and appends coexist without locks or interior mutability:
//! the only shared-but-still-growing segment is the open tail, and an
//! append that finds its tail aliased by a snapshot copies that one
//! segment (at most `segment_capacity` entries) once and continues in the
//! private copy. Amortized append stays O(1); a snapshot costs
//! O(#segments) pointer clones. Because a [`LogView`] owns `Arc`s to its
//! segments and never observes later appends, a view keeps reading a
//! stable prefix while the owner keeps appending. (The trace store and
//! the interner never hand out views: their readers borrow them.)
//!
//! [`AppendLog::set`] overwrites one entry under the same rule: a segment
//! no snapshot references is written in place, an aliased one is copied
//! once first, so no view ever observes the write. That makes the log a
//! persistent array — the online checker keeps every request's current
//! output in one and hands each verdict a snapshot instead of a copy.

use std::fmt;
use std::sync::Arc;

/// Entries the first segment of a log starts with.
const FIRST_SEGMENT: usize = 16;

/// An append-only log of `T`s stored in fixed-capacity segments.
#[derive(Debug, Clone)]
pub struct AppendLog<T> {
    segments: Vec<Arc<Vec<T>>>,
    len: usize,
    segment_capacity: usize,
}

impl<T: Clone> AppendLog<T> {
    /// An empty log with the given segment capacity (entries per segment).
    ///
    /// # Panics
    ///
    /// Panics if `segment_capacity` is zero.
    pub fn new(segment_capacity: usize) -> Self {
        assert!(segment_capacity > 0, "segment capacity must be positive");
        AppendLog {
            segments: Vec::new(),
            len: 0,
            segment_capacity,
        }
    }

    /// The number of entries appended so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no entry has been appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one entry. Amortized O(1); never moves a closed segment.
    ///
    /// The first segment starts at 16 entries and doubles
    /// up to the segment capacity, so a log that never fills one segment
    /// holds about what it stores; every later segment is allocated at
    /// full capacity.
    pub fn push(&mut self, item: T) {
        let cap = self.segment_capacity;
        let needs_segment = self.segments.last().map_or(true, |seg| seg.len() == cap);
        if needs_segment {
            let first = if self.segments.is_empty() {
                FIRST_SEGMENT.min(cap)
            } else {
                cap
            };
            self.segments.push(Arc::new(Vec::with_capacity(first)));
        }
        let tail = private(self.segments.last_mut().expect("just ensured"));
        if tail.len() == tail.capacity() {
            let grown = (2 * tail.len()).min(cap);
            tail.reserve_exact(grown - tail.len());
        }
        tail.push(item);
        self.len += 1;
    }

    /// Overwrites the entry at `index`. A segment still referenced by a
    /// snapshot is copied once first (bounded by the segment capacity), so
    /// views taken earlier keep reading the old entry.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn set(&mut self, index: usize, item: T) {
        assert!(index < self.len, "AppendLog index {index} out of bounds");
        let cap = self.segment_capacity;
        private(&mut self.segments[index / cap])[index % cap] = item;
    }

    /// The entry at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn get(&self, index: usize) -> &T {
        assert!(index < self.len, "AppendLog index {index} out of bounds");
        &self.segments[index / self.segment_capacity][index % self.segment_capacity]
    }

    /// An immutable snapshot of the current contents: O(#segments) `Arc`
    /// clones, no entry is copied.
    pub fn snapshot(&self) -> LogView<T> {
        LogView {
            segments: self.segments.clone(),
            len: self.len,
            segment_capacity: self.segment_capacity,
        }
    }

    /// Heap bytes held by the segments (capacity-based, excluding any
    /// per-entry heap allocations behind `T`).
    pub fn segment_bytes(&self) -> usize {
        self.segments
            .iter()
            .map(|seg| seg.capacity() * std::mem::size_of::<T>())
            .sum()
    }
}

/// The segment behind `seg`, writable: in place when nothing else
/// references it, else through a private copy (made once, with the
/// segment's capacity so the copy grows no sooner than the original).
fn private<T: Clone>(seg: &mut Arc<Vec<T>>) -> &mut Vec<T> {
    if Arc::get_mut(seg).is_none() {
        let mut copy = Vec::with_capacity(seg.capacity());
        copy.extend(seg.iter().cloned());
        *seg = Arc::new(copy);
    }
    Arc::get_mut(seg).expect("uniquely owned: checked or just copied")
}

/// An immutable snapshot of the first `len` entries of an [`AppendLog`].
///
/// Cloning is O(#segments); the entries themselves are shared with the
/// live log (and with every other view). Two views are equal when they
/// hold equal entries in the same order — however the entries are split
/// into segments and whichever segments the views share — and `Debug`
/// renders the entries as a list.
#[derive(Clone)]
pub struct LogView<T> {
    segments: Vec<Arc<Vec<T>>>,
    len: usize,
    segment_capacity: usize,
}

impl<T> Default for LogView<T> {
    fn default() -> Self {
        LogView::from(Vec::new())
    }
}

/// A view over an owned vector, as one segment: no entry is copied.
impl<T> From<Vec<T>> for LogView<T> {
    fn from(entries: Vec<T>) -> Self {
        LogView {
            len: entries.len(),
            segment_capacity: entries.len().max(1),
            segments: vec![Arc::new(entries)],
        }
    }
}

impl<T: PartialEq> PartialEq for LogView<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: Eq> Eq for LogView<T> {}

impl<T: fmt::Debug> fmt::Debug for LogView<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T> LogView<T> {
    /// The number of entries in the snapshot.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the snapshot holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entry at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn get(&self, index: usize) -> &T {
        assert!(index < self.len, "LogView index {index} out of bounds");
        &self.segments[index / self.segment_capacity][index % self.segment_capacity]
    }

    /// Iterates the snapshot's entries in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        // A truncated view's last segment holds entries past `len`.
        self.segments
            .iter()
            .flat_map(|seg| seg.iter())
            .take(self.len)
    }

    /// Shortens the view to its first `len` entries (no-op when it is
    /// already that short), releasing the segments past them.
    pub fn truncate(&mut self, len: usize) {
        if len < self.len {
            self.len = len;
            self.segments.truncate(len.div_ceil(self.segment_capacity));
        }
    }

    /// The segments backing the view, for tests that pin what two views
    /// share.
    #[cfg(test)]
    pub(crate) fn segments(&self) -> &[Arc<Vec<T>>] {
        &self.segments
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_across_segments() {
        let mut log = AppendLog::new(4);
        for i in 0..11usize {
            log.push(i);
        }
        assert_eq!(log.len(), 11);
        assert!(!log.is_empty());
        for i in 0..11usize {
            assert_eq!(*log.get(i), i);
        }
    }

    #[test]
    fn snapshot_is_immutable_under_later_appends() {
        let mut log = AppendLog::new(4);
        for i in 0..6usize {
            log.push(i);
        }
        let snap = log.snapshot();
        for i in 6..20usize {
            log.push(i);
        }
        assert_eq!(snap.len(), 6);
        assert_eq!(
            snap.iter().copied().collect::<Vec<_>>(),
            (0..6).collect::<Vec<_>>()
        );
        // The live log has everything.
        assert_eq!(*log.get(19), 19);
    }

    #[test]
    fn aliased_open_segment_is_copied_once_on_append() {
        let mut log = AppendLog::new(8);
        log.push(1u32);
        let snap = log.snapshot(); // aliases the open segment
        log.push(2); // forces the copy-on-write
        log.push(3); // appends privately, no further copy observable
        assert_eq!(snap.len(), 1);
        assert_eq!(*snap.get(0), 1);
        assert_eq!(
            (0..log.len()).map(|i| *log.get(i)).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn view_get_respects_snapshot_length() {
        let mut log = AppendLog::new(4);
        log.push(1u32);
        log.push(2);
        let snap = log.snapshot();
        log.push(3);
        // Index 2 exists in the live log but not in the snapshot.
        let _ = snap.get(2);
    }

    #[test]
    fn set_leaves_every_earlier_snapshot_unchanged() {
        let mut log = AppendLog::new(4);
        for i in 0..10u32 {
            log.push(i);
        }
        let snap = log.snapshot(); // aliases all three segments
        log.set(1, 100); // closed segment
        log.set(9, 900); // open tail
        assert_eq!(
            snap.iter().copied().collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
        assert_eq!((*log.get(1), *log.get(9)), (100, 900));
        // Only the written segments were copied; the middle one is shared.
        let after = log.snapshot();
        let shared: Vec<bool> = (snap.segments().iter().zip(after.segments()))
            .map(|(a, b)| Arc::ptr_eq(a, b))
            .collect();
        assert_eq!(shared, [false, true, false]);
        // The copied tail kept its capacity: appends continue in place.
        let bytes = log.segment_bytes();
        log.push(10);
        log.push(11);
        assert_eq!(log.segment_bytes(), bytes);
        assert_eq!(snap.len(), 10);
        assert_eq!(*after.get(9), 900);
    }

    #[test]
    fn set_on_an_unshared_segment_writes_in_place() {
        let mut log = AppendLog::new(4);
        for i in 0..6u32 {
            log.push(i);
        }
        let before = Arc::as_ptr(&log.segments[0]);
        log.set(2, 20);
        drop(log.snapshot()); // a dropped view aliases nothing
        log.set(3, 30);
        assert_eq!(Arc::as_ptr(&log.segments[0]), before);
        assert_eq!((*log.get(2), *log.get(3)), (20, 30));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn set_respects_the_length() {
        let mut log = AppendLog::new(4);
        log.push(1u32);
        log.set(1, 2); // inside the open segment's capacity, past `len`
    }

    #[test]
    fn view_equality_is_by_content() {
        let mut small = AppendLog::new(4);
        let mut large = AppendLog::new(16);
        for i in 0..10u32 {
            small.push(i);
            large.push(i);
        }
        let (a, b) = (small.snapshot(), large.snapshot());
        // Same entries, different segmentation, nothing shared.
        assert_eq!(a, b);
        assert_eq!(a, LogView::from((0..10).collect::<Vec<u32>>()));
        // Same segments shared or copied: still equal.
        assert_eq!(a, a.clone());
        small.set(0, 0); // copies segment 0, same content
        assert!(!Arc::ptr_eq(
            &a.segments()[0],
            &small.snapshot().segments()[0]
        ));
        assert_eq!(a, small.snapshot());
        // `len` bounds the comparison: a truncated view's last segment
        // still holds the entries past it.
        let mut cut = a.clone();
        cut.truncate(5);
        assert_eq!(cut.segments()[1].len(), 4);
        assert_eq!(cut, LogView::from(vec![0u32, 1, 2, 3, 4]));
        assert_ne!(cut, a);
        assert_ne!(a, LogView::from((1..11).collect::<Vec<u32>>()));
        assert_eq!(LogView::<u32>::default(), AppendLog::new(4).snapshot());
    }

    #[test]
    fn truncate_drops_trailing_segments_and_never_extends() {
        let mut log = AppendLog::new(4);
        for i in 0..10u32 {
            log.push(i);
        }
        let mut view = log.snapshot();
        view.truncate(12);
        assert_eq!(view.len(), 10);
        view.truncate(5);
        assert_eq!(view.iter().copied().collect::<Vec<_>>(), [0, 1, 2, 3, 4]);
        assert_eq!(view.segments().len(), 2);
        view.truncate(4);
        assert_eq!(view.segments().len(), 1);
        view.truncate(0);
        assert!(view.is_empty() && view.segments().is_empty());
    }

    #[test]
    fn view_debug_is_the_list_of_its_entries() {
        let mut log = AppendLog::new(2);
        for i in 0..3u32 {
            log.push(i);
        }
        let mut view = log.snapshot();
        assert_eq!(format!("{view:?}"), "[0, 1, 2]");
        view.truncate(1);
        assert_eq!(format!("{view:?}"), "[0]");
    }

    #[test]
    fn segment_bytes_counts_capacity() {
        let mut log: AppendLog<u64> = AppendLog::new(4);
        log.push(1);
        assert_eq!(log.segment_bytes(), 4 * 8);
    }

    #[test]
    fn only_the_first_segment_starts_small() {
        let mut log: AppendLog<u64> = AppendLog::new(100);
        log.push(0);
        assert_eq!(log.segment_bytes(), 16 * 8);
        let snap = log.snapshot(); // aliases the growing segment
        for i in 1..100u64 {
            log.push(i);
        }
        // 16, 32, 64, then capped at the segment capacity.
        assert_eq!(log.segment_bytes(), 100 * 8);
        log.push(100);
        assert_eq!(log.segment_bytes(), 200 * 8);
        assert_eq!(snap.iter().copied().collect::<Vec<_>>(), [0]);
        assert!((0..=100u64).all(|i| *log.get(i as usize) == i));
    }

    #[test]
    fn snapshot_reads_concurrently_with_appends() {
        // The snapshot-while-appending guarantee, cross-thread: a view
        // handed to another thread keeps reading its stable prefix while
        // the owner appends past it.
        let mut log = AppendLog::new(16);
        for i in 0..40u64 {
            log.push(i);
        }
        let snap = log.snapshot();
        std::thread::scope(|scope| {
            let reader = scope.spawn(move || (0..snap.len()).map(|i| *snap.get(i)).sum::<u64>());
            for i in 40..400u64 {
                log.push(i);
            }
            assert_eq!(reader.join().expect("reader thread"), (0..40).sum::<u64>());
        });
        assert_eq!(log.len(), 400);
    }
}
