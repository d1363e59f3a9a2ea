//! [`Outputs`]: a verdict's per-request outputs, a persistent vector.
//!
//! The online checker's aggregate keeps every request's current output in
//! one `Outputs` and hands each positive verdict a clone of it, truncated
//! to the requests the verdict reports. The entries sit in fixed segments
//! of [`OUTPUT_SEGMENT`] behind `Rc`s, so a clone is O(n / 1024) pointer
//! copies and no entry is copied. A write to a segment that a clone still
//! references copies that one segment first (once, at full segment
//! capacity), so no clone ever observes a later write: the aggregate's
//! `declare` pushes, its re-decisions `set`, and every verdict handed out
//! earlier keeps the outputs it was given. Consecutive verdicts hold the
//! segments they have in common once.

use std::fmt;
use std::rc::Rc;

use crate::value::Value;

/// Requests per segment: what one re-decided request makes the next
/// verdict copy, at most, while the previous verdict is still alive.
pub(crate) const OUTPUT_SEGMENT: usize = 1024;

/// The output value of each surviving request, in submission order.
///
/// Cloning is O(n / 1024) `Rc` clones; the entries are shared with every
/// other clone. Two values are equal when they hold equal entries in the
/// same order, whichever segments they share, and `Debug` renders the
/// entries as a list.
#[derive(Clone, Default)]
pub struct Outputs {
    segments: Vec<Rc<Vec<Value>>>,
    len: usize,
}

/// The outputs in `entries`, chunked into segments; no entry is cloned.
impl From<Vec<Value>> for Outputs {
    fn from(entries: Vec<Value>) -> Self {
        let len = entries.len();
        let mut entries = entries.into_iter();
        let segments = std::iter::from_fn(|| {
            let seg: Vec<Value> = entries.by_ref().take(OUTPUT_SEGMENT).collect();
            (!seg.is_empty()).then(|| Rc::new(seg))
        })
        .collect();
        Outputs { segments, len }
    }
}

impl PartialEq for Outputs {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for Outputs {}

impl fmt::Debug for Outputs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Outputs {
    /// The number of outputs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if there are no outputs.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The output at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn get(&self, index: usize) -> &Value {
        assert!(index < self.len, "Outputs index {index} out of bounds");
        &self.segments[index / OUTPUT_SEGMENT][index % OUTPUT_SEGMENT]
    }

    /// Iterates the outputs in order.
    pub fn iter(&self) -> impl Iterator<Item = &Value> + '_ {
        // A truncated clone's last segment holds entries past `len`.
        self.segments
            .iter()
            .flat_map(|seg| seg.iter())
            .take(self.len)
    }

    /// Appends one output. The first segment grows like a `Vec`; every
    /// later one is allocated at full capacity.
    pub(crate) fn push(&mut self, output: Value) {
        if self.len % OUTPUT_SEGMENT == 0 {
            let capacity = if self.segments.is_empty() {
                0
            } else {
                OUTPUT_SEGMENT
            };
            self.segments.push(Rc::new(Vec::with_capacity(capacity)));
        }
        private(self.segments.last_mut().expect("just ensured")).push(output);
        self.len += 1;
    }

    /// Overwrites the output at `index`, copying its segment first if a
    /// clone still references it.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub(crate) fn set(&mut self, index: usize, output: Value) {
        assert!(index < self.len, "Outputs index {index} out of bounds");
        private(&mut self.segments[index / OUTPUT_SEGMENT])[index % OUTPUT_SEGMENT] = output;
    }

    /// Shortens to the first `len` outputs (no-op when already that
    /// short), releasing the segments past them.
    pub(crate) fn truncate(&mut self, len: usize) {
        if len < self.len {
            self.len = len;
            self.segments.truncate(len.div_ceil(OUTPUT_SEGMENT));
        }
    }

    /// Heap bytes held by the segments (capacity-based; each output's
    /// payload belongs to the event that carried it).
    pub(crate) fn segment_bytes(&self) -> usize {
        self.segments
            .iter()
            .map(|seg| seg.capacity() * std::mem::size_of::<Value>())
            .sum()
    }

    /// The segments backing the outputs, for tests that pin what two
    /// verdicts share.
    #[cfg(test)]
    pub(crate) fn segments(&self) -> &[Rc<Vec<Value>>] {
        &self.segments
    }
}

/// The segment behind `seg`, writable: in place when no clone references
/// it, else through a private copy made once at full segment capacity.
fn private(seg: &mut Rc<Vec<Value>>) -> &mut Vec<Value> {
    if Rc::get_mut(seg).is_none() {
        let mut copy = Vec::with_capacity(OUTPUT_SEGMENT);
        copy.extend(seg.iter().cloned());
        *seg = Rc::new(copy);
    }
    Rc::get_mut(seg).expect("uniquely owned: checked or just copied")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` outputs `0, 1, …`, pushed the way the aggregate declares them.
    fn pushed(n: usize) -> Outputs {
        let mut out = Outputs::default();
        (0..n).for_each(|i| out.push(int(i)));
        out
    }

    fn int(i: usize) -> Value {
        Value::from(i as i64)
    }

    fn ints(range: std::ops::Range<usize>) -> Vec<Value> {
        range.map(int).collect()
    }

    #[test]
    fn snapshot_is_immutable_under_later_appends() {
        let mut out = pushed(OUTPUT_SEGMENT + 6);
        let snap = out.clone();
        (OUTPUT_SEGMENT + 6..3 * OUTPUT_SEGMENT).for_each(|i| out.push(int(i)));
        assert_eq!(snap.len(), OUTPUT_SEGMENT + 6);
        assert_eq!(
            snap.iter().cloned().collect::<Vec<_>>(),
            ints(0..OUTPUT_SEGMENT + 6)
        );
        // The live outputs have everything.
        assert_eq!(
            *out.get(3 * OUTPUT_SEGMENT - 1),
            int(3 * OUTPUT_SEGMENT - 1)
        );
    }

    #[test]
    fn aliased_open_segment_is_copied_once_on_append() {
        let mut out = pushed(1);
        let snap = out.clone(); // aliases the open segment
        out.push(int(2)); // forces the copy-on-write
        let copy = Rc::as_ptr(&out.segments[0]);
        out.push(int(3)); // appends privately, no further copy
        assert_eq!(Rc::as_ptr(&out.segments[0]), copy);
        assert_eq!(out.segments[0].capacity(), OUTPUT_SEGMENT);
        assert_eq!(snap.len(), 1);
        assert_eq!(*snap.get(0), int(0));
        assert_eq!(
            out.iter().cloned().collect::<Vec<_>>(),
            [int(0), int(2), int(3)]
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn view_get_respects_snapshot_length() {
        let mut out = pushed(2);
        let snap = out.clone();
        out.push(int(2));
        // Index 2 exists in the live outputs but not in the snapshot.
        let _ = snap.get(2);
    }

    #[test]
    fn set_leaves_every_earlier_snapshot_unchanged() {
        let n = 2 * OUTPUT_SEGMENT + 2;
        let mut out = pushed(n);
        let snap = out.clone(); // aliases all three segments
        out.set(1, int(100)); // closed segment
        out.set(n - 1, int(900)); // open tail
        assert_eq!(snap.iter().cloned().collect::<Vec<_>>(), ints(0..n));
        assert_eq!((out.get(1), out.get(n - 1)), (&int(100), &int(900)));
        // Only the written segments were copied; the middle one is shared.
        let after = out.clone();
        let shared: Vec<bool> = (snap.segments.iter().zip(&after.segments))
            .map(|(a, b)| Rc::ptr_eq(a, b))
            .collect();
        assert_eq!(shared, [false, true, false]);
        // The copied tail kept its capacity: appends continue in place.
        let bytes = out.segment_bytes();
        out.push(int(n));
        out.push(int(n + 1));
        assert_eq!(out.segment_bytes(), bytes);
        assert_eq!(snap.len(), n);
        assert_eq!(*after.get(n - 1), int(900));
    }

    #[test]
    fn set_on_an_unshared_segment_writes_in_place() {
        let mut out = pushed(OUTPUT_SEGMENT + 2);
        let before = Rc::as_ptr(&out.segments[0]);
        out.set(2, int(20));
        drop(out.clone()); // a dropped clone aliases nothing
        out.set(3, int(30));
        assert_eq!(Rc::as_ptr(&out.segments[0]), before);
        assert_eq!((out.get(2), out.get(3)), (&int(20), &int(30)));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn set_respects_the_length() {
        let mut out = pushed(1);
        out.set(1, int(2)); // inside the open segment's capacity, past `len`
    }

    #[test]
    fn view_equality_is_by_content() {
        let n = OUTPUT_SEGMENT + 10;
        let (mut a, b) = (pushed(n), Outputs::from(ints(0..n)));
        // Same entries, built apart, nothing shared.
        assert_eq!(a, b);
        assert_eq!(a, a.clone());
        // Same segments shared or copied: still equal.
        let before = a.clone();
        a.set(0, int(0)); // copies segment 0, same content
        assert!(!Rc::ptr_eq(&before.segments[0], &a.segments[0]));
        assert_eq!(a, before);
        // `len` bounds the comparison: a truncated clone's last segment
        // still holds the entries past it.
        let mut cut = a.clone();
        cut.truncate(OUTPUT_SEGMENT + 5);
        assert_eq!(cut.segments[1].len(), 10);
        assert_eq!(cut, Outputs::from(ints(0..OUTPUT_SEGMENT + 5)));
        assert_ne!(cut, a);
        assert_ne!(a, Outputs::from(ints(1..n + 1)));
        assert_eq!(Outputs::default(), Outputs::from(Vec::new()));
    }

    #[test]
    fn truncate_drops_trailing_segments_and_never_extends() {
        let n = 2 * OUTPUT_SEGMENT + 2;
        let mut out = pushed(n);
        out.truncate(n + 2);
        assert_eq!(out.len(), n);
        out.truncate(OUTPUT_SEGMENT + 1);
        assert_eq!(
            out.iter().cloned().collect::<Vec<_>>(),
            ints(0..OUTPUT_SEGMENT + 1)
        );
        assert_eq!(out.segments.len(), 2);
        out.truncate(OUTPUT_SEGMENT);
        assert_eq!(out.segments.len(), 1);
        out.truncate(0);
        assert!(out.is_empty() && out.segments.is_empty());
    }

    #[test]
    fn view_debug_is_the_list_of_its_entries() {
        let mut out = pushed(3);
        assert_eq!(format!("{out:?}"), "[Int(0), Int(1), Int(2)]");
        out.truncate(1);
        assert_eq!(format!("{out:?}"), "[Int(0)]");
    }
}
