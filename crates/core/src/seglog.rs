//! The segmented append-only log behind the checker engine's symbol
//! tables (via [`crate::intern::Interner`]) and `prev` chain, and the
//! `xability-store` crate's event segments.
//!
//! An [`AppendLog`] grows in fixed-capacity segments. Old segments are
//! never moved or reallocated — appending allocates a fresh segment when
//! the open one fills, so a multi-million-entry log never pays the
//! reallocate-and-copy of a growing `Vec`. Only the first segment grows
//! like a `Vec` until it reaches the segment capacity, so a short log —
//! a session's thousand events in a 65 536-event segment — does not
//! reserve a segment it never fills. Readers borrow the log: a segment
//! has one owner and is never copied.

/// Entries the first segment of a log starts with.
const FIRST_SEGMENT: usize = 16;

/// An append-only log of `T`s stored in fixed-capacity segments.
#[derive(Debug, Clone)]
pub struct AppendLog<T> {
    segments: Vec<Vec<T>>,
    len: usize,
    segment_capacity: usize,
}

impl<T> AppendLog<T> {
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
            self.segments.push(Vec::with_capacity(first));
        }
        let tail = self.segments.last_mut().expect("just ensured");
        if tail.len() == tail.capacity() {
            let grown = (2 * tail.len()).min(cap);
            tail.reserve_exact(grown - tail.len());
        }
        tail.push(item);
        self.len += 1;
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

    /// Heap bytes held by the segments (capacity-based, excluding any
    /// per-entry heap allocations behind `T`).
    pub fn segment_bytes(&self) -> usize {
        self.segments
            .iter()
            .map(|seg| seg.capacity() * std::mem::size_of::<T>())
            .sum()
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
        for i in 1..100u64 {
            log.push(i);
        }
        // 16, 32, 64, then capped at the segment capacity.
        assert_eq!(log.segment_bytes(), 100 * 8);
        log.push(100);
        assert_eq!(log.segment_bytes(), 200 * 8);
        assert!((0..=100u64).all(|i| *log.get(i as usize) == i));
    }
}
