//! The tiered store: a hot in-memory tail over the durable cold-segment
//! chain of [`crate::segfile`].
//!
//! [`TieredStore`] is the retention answer to the million-user north
//! star: events append into an ordinary [`TraceStore`] hot tail, and
//! every `spill_threshold` events the tail is *sealed* — written as one
//! atomic cold segment (optionally compressed) and, by default, evicted
//! from RAM. The interner is never split: one append-only symbol table
//! spans the whole chain, segments persist only their delta, and sealed
//! events keep their global symbols. That is what makes
//! [`TieredStore::view`] cheap: a [`TieredView`] is the loaded cold
//! segments (shared `Arc`s, loaded once — no per-event materialization)
//! plus a copy-on-write hot snapshot, and it implements
//! [`HistoryRead`], so `FastChecker` / `TieredChecker` /
//! `IncrementalState` re-check on-disk history with no code changes.
//!
//! Durability policy is **event-count based** (seal every
//! `spill_threshold` events, fsync on seal) — never wall-clock based —
//! so this module stays clean under the workspace's
//! `determinism-wall-clock` lint.

use std::io;
use std::path::Path;
use std::sync::Arc;

use xability_core::{ActionName, Event, History, HistoryRead, Request, Value};

use crate::codec::Codec;
use crate::segfile::{LoadedSegment, RecoveryReport, SegmentInfo, SegmentLog};
use crate::store::{
    decode, packed_shape_codes, EventRepr, TraceSnapshot, TraceStore, EVENT_SEGMENT,
};
use crate::trace::{write_trace_file_with_meta, RecordedTrace};

/// How a [`TieredStore`] spills: when to seal, how to encode, what to
/// keep resident.
#[derive(Debug, Clone, Copy)]
pub struct TierConfig {
    /// Seal a cold segment every this many events (must be non-zero).
    /// Also the recovery torn-tail bound: at most this many events live
    /// only in RAM.
    pub spill_threshold: usize,
    /// Codec for cold-segment payloads.
    pub codec: Codec,
    /// Drop sealed events from RAM (the default — the whole point of a
    /// disk tier). Set `false` to keep segments resident after sealing,
    /// trading memory for view-building speed.
    pub evict_on_seal: bool,
}

impl Default for TierConfig {
    fn default() -> Self {
        TierConfig {
            spill_threshold: EVENT_SEGMENT,
            codec: Codec::None,
            evict_on_seal: true,
        }
    }
}

/// A trace store whose history outgrows RAM: hot [`TraceStore`] tail,
/// sealed cold segments on disk, one interner across both.
///
/// ```
/// use xability_core::{ActionId, ActionName, Event, HistoryRead, Value};
/// use xability_store::{TierConfig, TieredStore};
///
/// let dir = std::env::temp_dir().join(format!("xtier-doc-{}", std::process::id()));
/// let _ = std::fs::remove_dir_all(&dir);
/// let mut config = TierConfig::default();
/// config.spill_threshold = 2; // tiny, to force a spill in a doctest
/// let mut tiered = TieredStore::create(&dir, config).unwrap();
/// let a = ActionId::base(ActionName::idempotent("put"));
/// for i in 0..5i64 {
///     tiered.push(&Event::start(a.clone(), Value::from(i))).unwrap();
/// }
/// assert_eq!(tiered.len(), 5);
/// assert_eq!(tiered.segments().len(), 2); // 4 events sealed, 1 hot
/// let view = tiered.view().unwrap();
/// assert_eq!(view.len(), 5);
/// assert_eq!(view.event_at(0), Event::start(a.clone(), Value::from(0)));
/// std::fs::remove_dir_all(&dir).ok();
/// ```
#[derive(Debug)]
pub struct TieredStore {
    config: TierConfig,
    /// Events not yet sealed; its interner is the *global* one.
    hot: TraceStore,
    /// Global index of the first hot event (= events sealed so far).
    first_hot: usize,
    cold: SegmentLog,
    /// RAM residency per cold segment, parallel to `cold.segments()`.
    loaded: Vec<Option<Arc<LoadedSegment>>>,
}

fn config_error(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg)
}

impl TieredStore {
    /// Starts an empty tiered store over a fresh segment directory
    /// (created if absent; refused if it already holds a chain — reopen
    /// an existing chain with [`TieredStore::open`]).
    pub fn create(dir: impl AsRef<Path>, config: TierConfig) -> io::Result<TieredStore> {
        if config.spill_threshold == 0 {
            return Err(config_error("spill_threshold must be non-zero"));
        }
        Ok(TieredStore {
            config,
            hot: TraceStore::new(),
            first_hot: 0,
            cold: SegmentLog::create(dir, config.codec)?,
            loaded: Vec::new(),
        })
    }

    /// Reopens a segment directory after a shutdown or crash: recovers
    /// the longest valid chain prefix (see [`SegmentLog::open`]), rebuilds
    /// the interner from the segments' delta tables, and resumes with an
    /// empty hot tail after the recovered events. The recovered segments
    /// stay resident (recovery already read them); call
    /// [`TieredStore::evict_cold`] to drop them to the configured policy.
    pub fn open(
        dir: impl AsRef<Path>,
        config: TierConfig,
    ) -> io::Result<(TieredStore, RecoveryReport)> {
        if config.spill_threshold == 0 {
            return Err(config_error("spill_threshold must be non-zero"));
        }
        let recovered = SegmentLog::open(dir)?;
        let first_hot = recovered.log.next_first_event();
        Ok((
            TieredStore {
                config,
                hot: TraceStore::with_interner(recovered.interner),
                first_hot,
                loaded: recovered
                    .segments
                    .into_iter()
                    .map(Arc::new)
                    .map(Some)
                    .collect(),
                cold: recovered.log,
            },
            recovered.report,
        ))
    }

    /// Total events, sealed and hot.
    pub fn len(&self) -> usize {
        self.first_hot + self.hot.len()
    }

    /// Returns `true` if no event was ever pushed (or recovered).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events still in the hot tail (strictly less than
    /// `spill_threshold` between pushes).
    pub fn hot_len(&self) -> usize {
        self.hot.len()
    }

    /// The spill policy this store runs under.
    pub fn config(&self) -> &TierConfig {
        &self.config
    }

    /// The segment directory.
    pub fn dir(&self) -> &Path {
        self.cold.dir()
    }

    /// Provenance of the sealed segments, in chain order.
    pub fn segments(&self) -> &[SegmentInfo] {
        self.cold.segments()
    }

    /// Total on-disk bytes across the sealed segments.
    pub fn disk_bytes(&self) -> u64 {
        self.cold.disk_bytes()
    }

    /// Approximate resident bytes: the hot tail (events + interner) plus
    /// any cold segments still loaded.
    pub fn resident_bytes(&self) -> usize {
        let cold: usize = self
            .loaded
            .iter()
            .flatten()
            .map(|seg| seg.events.len() * std::mem::size_of::<EventRepr>())
            .sum();
        self.hot.approx_bytes() + cold
    }

    /// Appends one event, sealing the hot tail if it reaches the
    /// threshold. Returns the event's global index.
    pub fn push(&mut self, event: &Event) -> io::Result<usize> {
        let index = self.first_hot + self.hot.push(event);
        if self.hot.len() == self.config.spill_threshold {
            self.seal_hot()?;
        }
        Ok(index)
    }

    /// Appends a slice of events with batch-amortized interning
    /// ([`TraceStore::push_batch`]), sealing as each threshold is
    /// crossed. Returns the global index of the first event (the current
    /// length for an empty slice).
    pub fn push_batch(&mut self, events: &[Event]) -> io::Result<usize> {
        let first = self.len();
        let mut rest = events;
        while !rest.is_empty() {
            let room = self.config.spill_threshold - self.hot.len();
            let take = room.min(rest.len());
            self.hot.push_batch(&rest[..take]);
            rest = &rest[take..];
            if self.hot.len() == self.config.spill_threshold {
                self.seal_hot()?;
            }
        }
        Ok(first)
    }

    /// Seals whatever the hot tail holds (a partial segment) — the
    /// shutdown path, making every event durable.
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.hot.is_empty() {
            self.seal_hot()?;
        }
        Ok(())
    }

    /// Drops every resident cold segment; subsequent views re-read them
    /// from disk (checksum-verified).
    pub fn evict_cold(&mut self) {
        for slot in &mut self.loaded {
            *slot = None;
        }
    }

    /// Seals the entire hot tail as the next cold segment and threads the
    /// interner into a fresh hot store (O(1) — the tables move, nothing
    /// is cloned).
    fn seal_hot(&mut self) -> io::Result<()> {
        let sealed = std::mem::take(&mut self.hot);
        let count = sealed.len();
        let snap = sealed.snapshot();
        self.cold.seal(
            snap.interner(),
            count,
            &mut (0..count).map(|i| snap.repr(i)),
        )?;
        self.loaded.push(if self.config.evict_on_seal {
            None
        } else {
            Some(Arc::new(LoadedSegment {
                first_event: self.first_hot,
                events: (0..count).map(|i| snap.repr(i)).collect(),
            }))
        });
        drop(snap);
        self.first_hot += count;
        self.hot = TraceStore::with_interner(sealed.into_interner());
        Ok(())
    }

    /// A [`HistoryRead`] view over the *entire* history, cold and hot.
    ///
    /// All IO happens here (loading any evicted segment, checksums
    /// verified), so the view itself is infallible — checkers never see
    /// an `io::Result`. The view shares segment data through `Arc`s and a
    /// copy-on-write hot snapshot; building one copies no events.
    pub fn view(&mut self) -> io::Result<TieredView> {
        for (i, slot) in self.loaded.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(Arc::new(self.cold.load(i)?));
            }
        }
        Ok(TieredView {
            cold: self
                .loaded
                .iter()
                .map(|s| s.clone().expect("loaded above"))
                .collect(),
            cold_len: self.first_hot,
            hot: self.hot.snapshot(),
        })
    }
}

/// A read-only view spanning the cold segments and the hot tail at some
/// instant, resolving every event through the one global interner.
///
/// Implements [`HistoryRead`], so anything that checks in-memory history
/// checks this unchanged.
#[derive(Debug, Clone)]
pub struct TieredView {
    /// Loaded cold segments, chain order, `first_event`-sorted.
    cold: Vec<Arc<LoadedSegment>>,
    /// Total events across the cold segments.
    cold_len: usize,
    /// The hot tail at view time (carries the global interner reader).
    hot: TraceSnapshot,
}

impl TieredView {
    /// Total events in the view.
    pub fn len(&self) -> usize {
        self.cold_len + self.hot.len()
    }

    /// Returns `true` if the view holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The packed repr at global `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    fn repr(&self, index: usize) -> EventRepr {
        if index >= self.cold_len {
            return self.hot.repr(index - self.cold_len);
        }
        // Segments are first_event-sorted but not uniform (a flushed
        // partial segment can be short), so binary-search the owner.
        let seg = &self.cold[self
            .cold
            .partition_point(|s| s.first_event <= index)
            .checked_sub(1)
            .expect("index precedes the first segment")];
        seg.events[index - seg.first_event]
    }

    /// Decodes the event at global `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn event(&self, index: usize) -> Event {
        let repr = self.repr(index);
        let interner = self.hot.interner();
        decode(
            repr,
            interner.action(repr.action_symbol()).clone(),
            interner.value(repr.value_symbol()).clone(),
        )
    }
}

impl HistoryRead for TieredView {
    fn len(&self) -> usize {
        TieredView::len(self)
    }

    fn event_at(&self, index: usize) -> Event {
        TieredView::event(self, index)
    }

    fn scan_events(&self, f: &mut dyn FnMut(usize, &Event) -> bool) {
        // Walk segment-by-segment so the hot/cold split and the binary
        // search are paid once per segment, not once per event.
        let mut index = 0usize;
        let interner = self.hot.interner();
        for seg in &self.cold {
            for repr in &seg.events {
                let ev = decode(
                    *repr,
                    interner.action(repr.action_symbol()).clone(),
                    interner.value(repr.value_symbol()).clone(),
                );
                if !f(index, &ev) {
                    return;
                }
                index += 1;
            }
        }
        for i in 0..self.hot.len() {
            if !f(index, &self.hot.event(i)) {
                return;
            }
            index += 1;
        }
    }

    fn is_base_start_at(&self, index: usize) -> bool {
        assert!(index < self.len(), "index out of bounds");
        let repr = self.repr(index);
        !repr.is_complete() && repr.role() == crate::store::ROLE_BASE
    }

    fn is_base_completion_at(&self, index: usize) -> bool {
        assert!(index < self.len(), "index out of bounds");
        let repr = self.repr(index);
        repr.is_complete() && repr.role() == crate::store::ROLE_BASE
    }

    fn to_history(&self) -> History {
        let mut events = Vec::with_capacity(self.len());
        self.scan_events(&mut |_, ev| {
            events.push(ev.clone());
            true
        });
        History::from_events(events)
    }

    fn shape_codes(
        &self,
        indices: &[usize],
        name: &ActionName,
        target: &Value,
        codes: &mut [u8],
    ) -> bool {
        let reprs = indices.iter().map(|&index| self.repr(index));
        packed_shape_codes(self.hot.interner(), reprs, name, target, codes)
    }
}

/// Recovers a segment directory into a flat in-memory [`TraceStore`] —
/// the reopen path for consumers (the services ledger, the harness trace
/// reader) that want ordinary store semantics over recovered history.
pub fn recover_store(dir: impl AsRef<Path>) -> io::Result<(TraceStore, RecoveryReport)> {
    let recovered = SegmentLog::open(dir)?;
    let mut store = TraceStore::with_interner(recovered.interner);
    for seg in &recovered.segments {
        for repr in &seg.events {
            store
                .push_repr(*repr)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        }
    }
    Ok((store, recovered.report))
}

/// The requests manifest's file name inside a tiered trace directory.
pub const REQUESTS_MANIFEST: &str = "requests.xtrace";

/// Dumps a recorded run as a tiered trace directory: the events sealed
/// as a cold-segment chain (in `spill_threshold` chunks, under
/// `config.codec`) plus a `requests.xtrace` manifest holding the request
/// sequence and the run's provenance `meta` (and zero events).
///
/// [`read_tiered_trace`] is the inverse. Fails if `dir` already holds a
/// chain.
pub fn write_tiered_trace(
    dir: impl AsRef<Path>,
    requests: &[Request],
    snapshot: &TraceSnapshot,
    meta: &[(String, String)],
    config: TierConfig,
) -> io::Result<()> {
    if config.spill_threshold == 0 {
        return Err(config_error("spill_threshold must be non-zero"));
    }
    let dir = dir.as_ref();
    let mut log = SegmentLog::create(dir, config.codec)?;
    let mut at = 0usize;
    while at < snapshot.len() {
        let end = (at + config.spill_threshold).min(snapshot.len());
        log.seal(
            snapshot.interner(),
            end - at,
            &mut (at..end).map(|i| snapshot.repr(i)),
        )?;
        at = end;
    }
    write_trace_file_with_meta(
        dir.join(REQUESTS_MANIFEST),
        requests,
        &TraceStore::new().snapshot(),
        meta,
    )
}

/// Reads a tiered trace directory back into a [`RecordedTrace`]:
/// recovers the segment chain (quarantining any torn tail) and joins it
/// with the `requests.xtrace` manifest.
pub fn read_tiered_trace(dir: impl AsRef<Path>) -> io::Result<(RecordedTrace, RecoveryReport)> {
    let dir = dir.as_ref();
    let (store, report) = recover_store(dir)?;
    let manifest = RecordedTrace::read_from_file(dir.join(REQUESTS_MANIFEST))?;
    if !manifest.store.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "requests manifest must hold no events (they live in the segments)",
        ));
    }
    Ok((
        RecordedTrace {
            requests: manifest.requests,
            store,
            meta: manifest.meta,
        },
        report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use xability_core::{ActionId, ActionName, Value};

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("xability-tier-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn events(n: usize) -> Vec<Event> {
        let put = ActionId::base(ActionName::idempotent("put"));
        let cancelable = ActionName::undoable("reserve");
        (0..n as i64)
            .map(|i| {
                let value = Value::pair(Value::from(i / 3), Value::from("payload"));
                match i % 3 {
                    0 => Event::start(put.clone(), value),
                    1 => Event::complete(put.clone(), value),
                    _ => Event::start(ActionId::Cancel(cancelable.clone()), value),
                }
            })
            .collect()
    }

    fn mirror_store(events: &[Event]) -> TraceStore {
        let mut store = TraceStore::new();
        store.push_batch(events);
        store
    }

    #[test]
    fn tiered_view_equals_the_flat_store() {
        for codec in [Codec::None, Codec::Lz] {
            let dir = tmpdir(&format!("equal-{codec}"));
            let evs = events(257);
            let config = TierConfig {
                spill_threshold: 64,
                codec,
                evict_on_seal: true,
            };
            let mut tiered = TieredStore::create(&dir, config).expect("create");
            for (i, ev) in evs.iter().enumerate() {
                assert_eq!(tiered.push(ev).expect("push"), i);
            }
            assert_eq!(tiered.len(), 257);
            assert_eq!(tiered.segments().len(), 4); // 256 sealed, 1 hot
            assert_eq!(tiered.hot_len(), 1);

            let flat = mirror_store(&evs);
            let view = tiered.view().expect("view");
            assert_eq!(view.len(), flat.len());
            for i in 0..view.len() {
                assert_eq!(view.event_at(i), flat.event(i), "event {i}");
                assert_eq!(
                    view.is_base_start_at(i),
                    flat.view().is_base_start_at(i),
                    "base-start {i}"
                );
                assert_eq!(
                    view.is_base_completion_at(i),
                    flat.view().is_base_completion_at(i),
                    "base-completion {i}"
                );
            }
            let owned = flat.view().to_history();
            assert_eq!(view.to_history(), owned);
            // A group's shape, read across three cold segments and the hot
            // tail: `put` events only, then one `reserve` event among them.
            let put = ActionName::idempotent("put");
            let target = Value::pair(Value::from(1), Value::from("payload"));
            for indices in [&[0, 1, 3, 64, 129, 255, 256][..], &[0, 2, 256]] {
                let (mut tiered_codes, mut owned_codes) = ([0u8; 7], [0u8; 7]);
                let tiered_codes = &mut tiered_codes[..indices.len()];
                let owned_codes = &mut owned_codes[..indices.len()];
                let keyed = view.shape_codes(indices, &put, &target, tiered_codes);
                assert_eq!(
                    keyed,
                    owned.shape_codes(indices, &put, &target, owned_codes)
                );
                assert_eq!(keyed, indices.len() == 7);
                if keyed {
                    assert_eq!(tiered_codes, owned_codes);
                }
            }
            fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn push_batch_spills_across_thresholds() {
        let dir = tmpdir("batch");
        let evs = events(300);
        let config = TierConfig {
            spill_threshold: 64,
            codec: Codec::None,
            evict_on_seal: true,
        };
        let mut tiered = TieredStore::create(&dir, config).expect("create");
        assert_eq!(tiered.push_batch(&evs[..10]).expect("batch"), 0);
        assert_eq!(tiered.push_batch(&evs[10..]).expect("batch"), 10);
        assert_eq!(tiered.segments().len(), 4);
        assert_eq!(tiered.hot_len(), 300 - 4 * 64);
        let flat = mirror_store(&evs);
        assert_eq!(
            tiered.view().expect("view").to_history(),
            flat.view().to_history()
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_continues_where_the_chain_ended() {
        let dir = tmpdir("reopen");
        let evs = events(100);
        let config = TierConfig {
            spill_threshold: 32,
            codec: Codec::Lz,
            evict_on_seal: true,
        };
        let mut tiered = TieredStore::create(&dir, config).expect("create");
        tiered.push_batch(&evs).expect("push");
        tiered
            .flush()
            .expect("flush makes the 4-event tail durable");
        assert_eq!(tiered.segments().len(), 4); // 32+32+32+4
        drop(tiered);

        let (mut reopened, report) = TieredStore::open(&dir, config).expect("open");
        assert_eq!(report.segments_recovered, 4);
        assert_eq!(report.events_recovered, 100);
        assert_eq!(reopened.len(), 100);
        let flat = mirror_store(&evs);
        assert_eq!(
            reopened.view().expect("view").to_history(),
            flat.view().to_history()
        );
        // And it keeps appending after recovery (partial final segment is
        // fine: segments are first_event-addressed, not uniform).
        let more = events(40);
        reopened.push_batch(&more).expect("append after reopen");
        assert_eq!(reopened.len(), 140);
        let mut both = evs.clone();
        both.extend(more);
        assert_eq!(
            reopened.view().expect("view").to_history(),
            mirror_store(&both).view().to_history()
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn eviction_reloads_from_disk() {
        let dir = tmpdir("evict");
        let evs = events(128);
        let config = TierConfig {
            spill_threshold: 32,
            codec: Codec::Lz,
            evict_on_seal: false,
        };
        let mut tiered = TieredStore::create(&dir, config).expect("create");
        tiered.push_batch(&evs).expect("push");
        let resident_before = tiered.resident_bytes();
        tiered.evict_cold();
        assert!(tiered.resident_bytes() < resident_before);
        assert_eq!(
            tiered
                .view()
                .expect("view reloads evicted segments")
                .to_history(),
            mirror_store(&evs).view().to_history()
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tiered_trace_directory_round_trips() {
        let dir = tmpdir("dump");
        let evs = events(90);
        let flat = mirror_store(&evs);
        let requests = vec![
            Request::new(
                ActionId::base(ActionName::idempotent("put")),
                Value::from(1),
            ),
            Request::new(
                ActionId::Cancel(ActionName::undoable("reserve")),
                Value::from(2),
            ),
        ];
        let meta = vec![("scenario".to_string(), "dump-test".to_string())];
        let config = TierConfig {
            spill_threshold: 40,
            codec: Codec::Lz,
            evict_on_seal: true,
        };
        write_tiered_trace(&dir, &requests, &flat.snapshot(), &meta, config).expect("write");
        let (replayed, report) = read_tiered_trace(&dir).expect("read");
        assert_eq!(report.segments_recovered, 3); // 40+40+10
        assert!(report.quarantined.is_empty());
        assert_eq!(replayed.requests, requests);
        assert_eq!(replayed.meta_value("scenario"), Some("dump-test"));
        assert_eq!(replayed.store.view().to_history(), flat.view().to_history());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_threshold_is_rejected() {
        let dir = tmpdir("zero");
        let config = TierConfig {
            spill_threshold: 0,
            codec: Codec::None,
            evict_on_seal: true,
        };
        assert!(TieredStore::create(&dir, config).is_err());
        fs::remove_dir_all(&dir).ok();
    }
}
