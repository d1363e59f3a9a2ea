//! The durable cold-segment chain: append-only `.xtrace` files with
//! crash-safe sealing and longest-valid-prefix recovery.
//!
//! This is the store's one disk tier. The services ledger mirrors its
//! recorded events into a chain (`Ledger::attach_spill`, sealing every
//! [`TierConfig::spill_threshold`] events), and [`recover_store`] brings
//! a chain back as an ordinary in-memory [`TraceStore`] after a crash or
//! shutdown (`Ledger::reopen_spill`).
//!
//! A [`SegmentLog`] owns a directory of sealed segment files,
//! `seg-000000.xtrace`, `seg-000001.xtrace`, … Each file is a versioned
//! trace file (see [`crate::trace`]) whose meta section carries the
//! segment's provenance — its position in the chain, the global index of
//! its first event, and the *interner epochs* it builds on — and whose
//! payload holds a **delta** symbol table plus the segment's packed
//! events:
//!
//! * the action/value tables contain only the symbols interned since the
//!   previous seal (the epochs in the meta say how many came before), so
//!   a chain over an unbounded key space stays O(total symbols) on disk
//!   instead of O(segments × symbols);
//! * the events reference *global* symbols, exactly as they sit in RAM.
//!
//! The first segment's epochs are zero, so `seg-000000.xtrace` is a plain
//! self-contained trace any `read_trace` consumer can open; later
//! segments resolve only against the chain.
//!
//! ## Crash safety
//!
//! A seal writes `<name>.tmp`, fsyncs it, renames it into place, and
//! best-effort-fsyncs the directory — a crash can leave a stale `.tmp`
//! (removed on recovery) but never a half-visible segment under the real
//! name. [`SegmentLog::open`] recovers the longest valid prefix: it walks
//! the files in index order, checks each payload checksum and the chain
//! invariants (contiguous indices, contiguous event ranges, epochs equal
//! to the rebuilt interner's counts), and **quarantines** the first bad
//! segment (renamed `*.torn`) along with everything after it (`*.orphan`)
//! — corrupt data is set aside for inspection, never deleted. The
//! durability policy is event-count based (a seal every
//! `spill_threshold` events, fsync on seal), never wall-clock based, so
//! the store crate stays clean under the workspace's
//! `determinism-wall-clock` lint.

use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use xability_core::{Interner, InternerReader};

use crate::codec::Codec;
use crate::store::{EventRepr, TraceStore, EVENT_SEGMENT};
use crate::trace::{read_checked_body, read_header, write_framed, write_sections};

/// How a durable spill seals: when, and under which codec.
#[derive(Debug, Clone, Copy)]
pub struct TierConfig {
    /// Seal a cold segment every this many events (must be non-zero).
    /// Also the recovery torn-tail bound: at most this many events live
    /// only in RAM.
    pub spill_threshold: usize,
    /// Codec for cold-segment payloads.
    pub codec: Codec,
    /// Ignored: nothing reads it. The spill is a mirror of the in-memory
    /// store, which keeps every event. The field stays only because the
    /// benchmark sets it, and goes with the next benchmark refresh.
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

/// Recovers a segment directory into a flat in-memory [`TraceStore`]
/// (see [`SegmentLog::open`]): the reopen path of the services ledger
/// and of anything else that wants ordinary store semantics over
/// recovered history.
///
/// # Errors
///
/// Fails with [`io::ErrorKind::NotFound`] if `dir` does not exist (it is
/// never created), and with any IO error the recovery scan meets.
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

/// Meta key: the segment's position in the chain.
const META_SEG_INDEX: &str = "seg.index";
/// Meta key: the global index of the segment's first event.
const META_SEG_FIRST_EVENT: &str = "seg.first_event";
/// Meta key: how many events the segment holds.
const META_SEG_EVENTS: &str = "seg.events";
/// Meta key: action symbols interned before this segment (its epoch).
const META_SEG_ACTION_BASE: &str = "seg.action_base";
/// Meta key: value symbols interned before this segment (its epoch).
const META_SEG_VALUE_BASE: &str = "seg.value_base";
/// Meta key: the codec name, for humans and config cross-checks.
const META_SEG_CODEC: &str = "seg.codec";

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// The provenance of one sealed segment, as recorded in its meta section.
#[derive(Debug, Clone)]
pub struct SegmentInfo {
    /// Position in the chain (also the file-name index).
    pub index: usize,
    /// Global index of the segment's first event.
    pub first_event: usize,
    /// How many events the segment holds.
    pub events: usize,
    /// Action symbols interned before this segment.
    pub action_base: usize,
    /// Value symbols interned before this segment.
    pub value_base: usize,
    /// The codec its payload was written with.
    pub codec: Codec,
    /// The sealed file.
    pub path: PathBuf,
    /// On-disk size in bytes (after compression, if any).
    pub bytes: u64,
}

/// A cold segment read back by recovery: its packed events,
/// checksum-verified.
#[derive(Debug)]
pub struct LoadedSegment {
    /// Global index of the first event.
    pub first_event: usize,
    /// The packed events, global-symbol addressed.
    pub events: Vec<EventRepr>,
}

/// What [`SegmentLog::open`] found and did: how much of the chain was
/// recovered and which files were set aside.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Segments that validated and joined the recovered chain.
    pub segments_recovered: usize,
    /// Events across the recovered segments.
    pub events_recovered: usize,
    /// Files quarantined (`*.torn` for the first invalid segment, followed
    /// by `*.orphan` for every later one): the new names, in chain order.
    pub quarantined: Vec<PathBuf>,
    /// Stale `seg-*.tmp` files from interrupted seals, removed.
    pub removed_tmp: Vec<PathBuf>,
}

/// Everything [`SegmentLog::open`] recovers from a segment directory.
#[derive(Debug)]
pub struct RecoveredLog {
    /// The interner rebuilt by chaining the segments' delta tables — the
    /// same symbols, in the same order, as the interner that sealed them.
    pub interner: Interner,
    /// The recovered segments' events, in chain order, checksum-verified.
    pub segments: Vec<LoadedSegment>,
    /// What was recovered, quarantined, and cleaned up.
    pub report: RecoveryReport,
}

/// An append-only chain of sealed segment files in one directory.
///
/// The log tracks where the chain ends (next event index, interner
/// epochs); [`SegmentLog::seal`] appends one atomically-written segment,
/// and [`SegmentLog::open`] recovers a chain after a crash.
#[derive(Debug)]
pub struct SegmentLog {
    dir: PathBuf,
    codec: Codec,
    segments: Vec<SegmentInfo>,
    next_first_event: usize,
    action_base: usize,
    value_base: usize,
}

fn segment_file_name(index: usize) -> String {
    format!("seg-{index:06}.xtrace")
}

/// Parses `seg-NNNNNN.xtrace` into its index; other names (quarantined
/// files, foreign files) return `None`.
fn parse_segment_name(name: &str) -> Option<usize> {
    let digits = name.strip_prefix("seg-")?.strip_suffix(".xtrace")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

fn meta_usize(meta: &[(String, String)], key: &str) -> io::Result<usize> {
    let (_, v) = meta
        .iter()
        .find(|(k, _)| k == key)
        .ok_or_else(|| bad(format!("segment meta is missing {key}")))?;
    v.parse()
        .map_err(|_| bad(format!("segment meta {key} is not a count: {v:?}")))
}

impl SegmentLog {
    /// Starts a fresh chain in `dir`, creating the directory if needed.
    ///
    /// # Errors
    ///
    /// Fails if `dir` already holds segment files — recovering an
    /// existing chain is [`SegmentLog::open`]'s job, and silently
    /// shadowing one would orphan its data.
    pub fn create(dir: impl AsRef<Path>, codec: Codec) -> io::Result<SegmentLog> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        for entry in fs::read_dir(&dir)? {
            let name = entry?.file_name();
            if name
                .to_str()
                .is_some_and(|n| parse_segment_name(n).is_some())
            {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    format!(
                        "{} already holds a segment chain; open it instead of creating over it",
                        dir.display()
                    ),
                ));
            }
        }
        Ok(SegmentLog {
            dir,
            codec,
            segments: Vec::new(),
            next_first_event: 0,
            action_base: 0,
            value_base: 0,
        })
    }

    /// The sealed segments, in chain order.
    pub fn segments(&self) -> &[SegmentInfo] {
        &self.segments
    }

    /// The global index the next sealed event will get (= total events
    /// sealed so far).
    pub fn next_first_event(&self) -> usize {
        self.next_first_event
    }

    /// Total on-disk bytes across the sealed segments.
    pub fn disk_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.bytes).sum()
    }

    /// Seals `count` events (yielded by `events`, global-symbol packed)
    /// into the next segment file, atomically: write to `.tmp`, fsync,
    /// rename into place, best-effort directory fsync.
    ///
    /// `interner` must be a reader over the interner that produced the
    /// events' symbols, taken at or after the last event of the batch;
    /// the segment records the symbols interned since the previous seal
    /// as its delta table.
    pub fn seal(
        &mut self,
        interner: &InternerReader,
        count: usize,
        events: &mut dyn Iterator<Item = EventRepr>,
    ) -> io::Result<()> {
        let (actions, values) = (interner.action_count(), interner.value_count());
        if actions < self.action_base || values < self.value_base {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "interner reader is older than the chain's epochs (stale snapshot)",
            ));
        }

        let mut sections = Vec::new();
        write_sections(
            &mut sections,
            (
                actions - self.action_base,
                &mut interner.actions().skip(self.action_base),
            ),
            (
                values - self.value_base,
                &mut interner.values().skip(self.value_base),
            ),
            &[],
            (count, events),
        )?;

        let index = self.segments.len();
        let meta = vec![
            (META_SEG_INDEX.to_string(), index.to_string()),
            (
                META_SEG_FIRST_EVENT.to_string(),
                self.next_first_event.to_string(),
            ),
            (META_SEG_EVENTS.to_string(), count.to_string()),
            (
                META_SEG_ACTION_BASE.to_string(),
                self.action_base.to_string(),
            ),
            (META_SEG_VALUE_BASE.to_string(), self.value_base.to_string()),
            (META_SEG_CODEC.to_string(), self.codec.name().to_string()),
        ];

        let path = self.dir.join(segment_file_name(index));
        let tmp = self.dir.join(format!("{}.tmp", segment_file_name(index)));
        let file = File::create(&tmp)?;
        let mut w = BufWriter::new(file);
        write_framed(&mut w, &meta, self.codec, &sections)?;
        w.flush()?;
        w.get_ref().sync_all()?;
        drop(w);
        fs::rename(&tmp, &path)?;
        // Make the rename itself durable where the platform allows
        // opening a directory; declining is not a correctness problem
        // (recovery tolerates a missing tail segment).
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }

        let bytes = fs::metadata(&path)?.len();
        self.segments.push(SegmentInfo {
            index,
            first_event: self.next_first_event,
            events: count,
            action_base: self.action_base,
            value_base: self.value_base,
            codec: self.codec,
            path,
            bytes,
        });
        self.next_first_event += count;
        self.action_base = actions;
        self.value_base = values;
        Ok(())
    }

    /// Recovers the chain in `dir`: the longest valid prefix of segments
    /// is read back, the first invalid segment and everything after it
    /// are quarantined, stale `.tmp` files are removed. See the module
    /// docs for the invariants checked.
    ///
    /// # Errors
    ///
    /// Fails with [`io::ErrorKind::NotFound`] if `dir` does not exist:
    /// recovery never creates a directory, so a mistyped path is an error
    /// rather than an empty chain.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<RecoveredLog> {
        let mut report = RecoveryReport::default();
        let mut found: Vec<(usize, PathBuf)> = Vec::new();
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if name.starts_with("seg-") && name.ends_with(".tmp") {
                fs::remove_file(&path)?;
                report.removed_tmp.push(path);
                continue;
            }
            if let Some(index) = parse_segment_name(name) {
                found.push((index, path));
            }
        }
        found.sort_by_key(|(index, _)| *index);
        report.removed_tmp.sort();

        let mut interner = Interner::new();
        let mut segments: Vec<LoadedSegment> = Vec::new();
        let mut next_first_event = 0usize;
        let mut broken = false;
        let mut torn_pending = false;

        for (position, (index, path)) in found.iter().enumerate() {
            if !broken {
                if *index != position {
                    // A gap: the chain ends at the hole, whatever follows
                    // cannot be stitched on — everything past it is an
                    // orphan (the torn file is the missing one).
                    broken = true;
                } else {
                    match validate_segment(path, position, next_first_event, &mut interner) {
                        Ok(loaded) => {
                            next_first_event += loaded.events.len();
                            report.segments_recovered += 1;
                            report.events_recovered += loaded.events.len();
                            segments.push(loaded);
                            continue;
                        }
                        Err(_) => {
                            // This file itself failed validation: the
                            // torn point; the rest become orphans.
                            broken = true;
                            torn_pending = true;
                        }
                    }
                }
            }
            let suffix = if torn_pending { "torn" } else { "orphan" };
            torn_pending = false;
            let mut name = path.as_os_str().to_owned();
            name.push(".");
            name.push(suffix);
            let quarantined = PathBuf::from(name);
            fs::rename(path, &quarantined)?;
            report.quarantined.push(quarantined);
        }

        Ok(RecoveredLog {
            interner,
            segments,
            report,
        })
    }
}

/// Validates one segment against the chain recovered so far, folding its
/// delta symbol tables into `interner` on success. Any failure — checksum
/// mismatch, truncation, provenance that contradicts the chain, symbols a
/// segment's events cannot resolve — is an error (the caller quarantines).
///
/// On failure the interner may hold a prefix of the bad segment's delta;
/// that is harmless, because recovery stops at the first bad segment and
/// extra unreferenced symbols change no recovered event.
fn validate_segment(
    path: &Path,
    expected_index: usize,
    expected_first_event: usize,
    interner: &mut Interner,
) -> io::Result<LoadedSegment> {
    let mut r = BufReader::new(File::open(path)?);
    let (version, meta) = read_header(&mut r)?;

    let index = meta_usize(&meta, META_SEG_INDEX)?;
    let first_event = meta_usize(&meta, META_SEG_FIRST_EVENT)?;
    let event_count = meta_usize(&meta, META_SEG_EVENTS)?;
    let action_base = meta_usize(&meta, META_SEG_ACTION_BASE)?;
    let value_base = meta_usize(&meta, META_SEG_VALUE_BASE)?;
    let codec = meta
        .iter()
        .find(|(k, _)| k == META_SEG_CODEC)
        .and_then(|(_, v)| Codec::from_name(v));
    if codec.is_none() {
        return Err(bad("segment meta is missing a known seg.codec"));
    }

    if index != expected_index {
        return Err(bad(format!(
            "segment claims index {index}, chain position is {expected_index}"
        )));
    }
    if first_event != expected_first_event {
        return Err(bad(format!(
            "segment claims first event {first_event}, chain has sealed {expected_first_event}"
        )));
    }
    if action_base != interner.action_count() || value_base != interner.value_count() {
        return Err(bad(format!(
            "segment epochs ({action_base} actions, {value_base} values) disagree with the \
             rebuilt interner ({}, {})",
            interner.action_count(),
            interner.value_count()
        )));
    }

    // The checksum over the payload bytes is verified here, before any of
    // the parsed content is trusted.
    let raw = read_checked_body(&mut r, version, &meta)?;
    if raw.events.len() != event_count {
        return Err(bad(format!(
            "segment declares {event_count} events in its meta but holds {}",
            raw.events.len()
        )));
    }
    if !raw.requests.is_empty() {
        return Err(bad("segment files carry no requests"));
    }

    // Chain the delta tables: a symbol already present would shift every
    // later symbol and silently corrupt the chain, so it is an error.
    for name in &raw.actions {
        interner.intern_action(name);
    }
    if interner.action_count() != action_base + raw.actions.len() {
        return Err(bad("segment delta repeats an already-interned action"));
    }
    for value in &raw.values {
        interner.intern_value(value);
    }
    if interner.value_count() != value_base + raw.values.len() {
        return Err(bad("segment delta repeats an already-interned value"));
    }

    // Every event must resolve against the chain up to and including this
    // segment's delta, with a role an idempotent action cannot have.
    for repr in &raw.events {
        if repr.action_symbol() as usize >= interner.action_count()
            || repr.value_symbol() as usize >= interner.value_count()
        {
            return Err(bad(format!(
                "segment event references symbol ({}, {}) beyond the chain's tables",
                repr.action_symbol(),
                repr.value_symbol()
            )));
        }
        if repr.role() != 0 && !interner.action(repr.action_symbol()).is_undoable() {
            return Err(bad(
                "segment event has a cancel/commit role for an idempotent action",
            ));
        }
    }

    Ok(LoadedSegment {
        first_event,
        events: raw.events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::TraceStore;
    use crate::trace::read_trace;
    use xability_core::{ActionId, ActionName, Event, Value};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("xability-segfile-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create tmpdir");
        dir
    }

    fn sample_store(events: usize) -> TraceStore {
        let a = ActionId::base(ActionName::idempotent("put"));
        let mut store = TraceStore::new();
        for i in 0..events as i64 {
            let value = Value::pair(Value::from("key"), Value::from(i / 2));
            if i % 2 == 0 {
                store.push(&Event::start(a.clone(), value));
            } else {
                store.push(&Event::complete(a.clone(), value));
            }
        }
        store
    }

    fn seal_in_chunks(log: &mut SegmentLog, store: &TraceStore, chunk: usize) {
        let snap = store.snapshot();
        let mut at = 0;
        while at < snap.len() {
            let end = (at + chunk).min(snap.len());
            log.seal(
                snap.interner(),
                end - at,
                &mut (at..end).map(|i| snap.repr(i)),
            )
            .expect("seal chunk");
            at = end;
        }
    }

    #[test]
    fn base_segment_is_a_plain_trace_file() {
        // The first segment has zero epochs and a full (so-far) symbol
        // table, so ordinary trace tooling opens it directly.
        let dir = tmpdir("plain");
        let store = sample_store(8);
        let mut log = SegmentLog::create(&dir, Codec::None).expect("create");
        seal_in_chunks(&mut log, &store, 8);
        let path = &log.segments()[0].path;
        let replayed = read_trace(&mut BufReader::new(File::open(path).expect("open")))
            .expect("a base segment reads as a normal trace");
        assert_eq!(replayed.store.len(), 8);
        assert_eq!(
            replayed.store.view().to_history(),
            store.view().to_history()
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_recovers_the_chain_and_rebuilds_the_interner() {
        let dir = tmpdir("recover");
        let store = sample_store(32);
        let mut log = SegmentLog::create(&dir, Codec::Lz).expect("create");
        seal_in_chunks(&mut log, &store, 10);
        assert_eq!(log.segments().len(), 4); // 10+10+10+2
        assert_eq!(log.next_first_event(), 32);
        assert!(log.disk_bytes() > 0);
        let recovered = SegmentLog::open(&dir).expect("open");
        assert_eq!(recovered.report.segments_recovered, 4);
        assert_eq!(recovered.report.events_recovered, 32);
        assert!(recovered.report.quarantined.is_empty());
        assert_eq!(
            recovered.interner.action_count(),
            store.interner().action_count()
        );
        assert_eq!(
            recovered.interner.value_count(),
            store.interner().value_count()
        );
        // Symbols rebuilt in the same order → same reprs, chunk by chunk.
        let snap = store.snapshot();
        let mut global = 0usize;
        for seg in &recovered.segments {
            assert_eq!(seg.first_event, global);
            for repr in &seg.events {
                assert_eq!(*repr, snap.repr(global));
                global += 1;
            }
        }
        assert_eq!(global, 32);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_segment_is_quarantined_with_its_orphans() {
        let dir = tmpdir("quarantine");
        let store = sample_store(30);
        let mut log = SegmentLog::create(&dir, Codec::None).expect("create");
        seal_in_chunks(&mut log, &store, 10);
        // Flip a byte in the middle segment's payload.
        let victim = log.segments()[1].path.clone();
        let mut bytes = fs::read(&victim).expect("read victim");
        let n = bytes.len();
        bytes[n - 5] ^= 0xFF;
        fs::write(&victim, &bytes).expect("corrupt victim");

        let recovered = SegmentLog::open(&dir).expect("open");
        assert_eq!(recovered.report.segments_recovered, 1);
        assert_eq!(recovered.report.events_recovered, 10);
        assert_eq!(recovered.report.quarantined.len(), 2);
        assert!(recovered.report.quarantined[0]
            .to_string_lossy()
            .ends_with(".torn"));
        assert!(recovered.report.quarantined[1]
            .to_string_lossy()
            .ends_with(".orphan"));
        // Quarantined, not deleted.
        for q in &recovered.report.quarantined {
            assert!(q.exists(), "{} must survive for inspection", q.display());
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gap_in_the_chain_orphans_the_far_side() {
        let dir = tmpdir("gap");
        let store = sample_store(30);
        let mut log = SegmentLog::create(&dir, Codec::None).expect("create");
        seal_in_chunks(&mut log, &store, 10);
        fs::remove_file(&log.segments()[1].path).expect("remove middle segment");
        let recovered = SegmentLog::open(&dir).expect("open");
        assert_eq!(recovered.report.segments_recovered, 1);
        assert_eq!(recovered.report.quarantined.len(), 1);
        assert!(recovered.report.quarantined[0]
            .to_string_lossy()
            .ends_with(".orphan"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_tmp_files_are_removed_on_open() {
        let dir = tmpdir("tmpclean");
        let store = sample_store(10);
        let mut log = SegmentLog::create(&dir, Codec::None).expect("create");
        seal_in_chunks(&mut log, &store, 10);
        let stale = dir.join("seg-000001.xtrace.tmp");
        fs::write(&stale, b"half a seal").expect("plant stale tmp");
        let recovered = SegmentLog::open(&dir).expect("open");
        assert_eq!(recovered.report.removed_tmp, vec![stale.clone()]);
        assert!(!stale.exists());
        assert_eq!(recovered.report.segments_recovered, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_refuses_an_existing_chain() {
        let dir = tmpdir("nooverwrite");
        let store = sample_store(4);
        let mut log = SegmentLog::create(&dir, Codec::None).expect("create");
        seal_in_chunks(&mut log, &store, 4);
        let err = SegmentLog::create(&dir, Codec::None).expect_err("chain exists");
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_interner_reader_is_rejected() {
        let dir = tmpdir("stale");
        let mut store = sample_store(4);
        let old = store.snapshot();
        // New symbols arrive before the chain seals, so the chain's
        // epochs move past the old reader's frozen counts.
        store.push(&Event::start(
            ActionId::base(ActionName::idempotent("late")),
            Value::from(999),
        ));
        let mut log = SegmentLog::create(&dir, Codec::None).expect("create");
        seal_in_chunks(&mut log, &store, 5);
        let err = log
            .seal(old.interner(), 0, &mut std::iter::empty())
            .expect_err("old reader predates the chain's epochs");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        fs::remove_dir_all(&dir).ok();
    }
}
