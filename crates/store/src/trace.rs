//! The versioned binary trace record/replay format.
//!
//! A recorded trace is a self-contained file: the declared request
//! sequence, both symbol tables, and the packed event stream. Re-reading
//! one rebuilds a [`TraceStore`] with identical symbols and events, so a
//! harness run can be dumped to disk and re-checked bit-for-bit by tests
//! (`tests/corpus/` keeps a small committed corpus).
//!
//! ## Layout (version 2, all integers little-endian)
//!
//! ```text
//! magic    "XTRC" (4 bytes)
//! version  u32                      — TRACE_FORMAT_VERSION
//! meta     u32 count, then per pair:  key u32 len + UTF-8 bytes,
//!                                     value u32 len + UTF-8 bytes
//! actions  u32 count, then per name:  kind u8 (0 idem, 1 undo),
//!                                     name  u32 len + UTF-8 bytes
//! values   u32 count, then per value: recursive value encoding (below)
//! requests u32 count, then per req:   role u8 (0 base, 1 cancel, 2 commit),
//!                                     kind u8, name u32 len + UTF-8 bytes
//!                                     (requests are self-contained, not
//!                                     symbol references), input value encoding
//! events   u64 count, then per event: tag u8, action u32 sym, value u32 sym
//! ```
//!
//! Value encoding: a tag byte — 0 `Nil`, 1 `Bool` (+u8), 2 `Int` (+i64),
//! 3 `Str` (+u32 len + bytes), 4 `List` (+u32 count + elements),
//! 5 `Pair` (+two elements) — matching the [`Value`] variants.
//!
//! Version 3 keeps the magic, version, and meta section as-is but wraps
//! everything after them (the *payload*: action table, value table,
//! requests, events) in a codec frame:
//!
//! ```text
//! codec    u8                       — 0 stored, 1 LZ ([`Codec`])
//! raw_len  u64                      — payload length before compression
//! comp_len u64                      — payload length on disk
//! payload  comp_len bytes           — the v2 payload, through the codec
//! ```
//!
//! Cold segments ([`crate::segfile`]) pick the version from their codec:
//! uncompressed segments stay version 2 — the layout [`write_trace`] has
//! always produced, so the committed corpus never churns — and only a
//! real codec engages the version-3 frame. A segment also records its
//! payload's CRC-32 under the [`META_PAYLOAD_CRC`] meta key; whenever a
//! file carries that key the reader recomputes the checksum over the
//! payload bytes it consumed and rejects a mismatch.
//!
//! The version is checked on read; an unknown magic or version is an
//! `InvalidData` error, never a silent misparse.
//!
//! The meta section carries provenance, not semantics: free-form
//! key/value strings (generator name, master seed, fault-plan summary,
//! violation class) written by tools such as `harness::explore`. Checkers
//! never look at it.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use xability_core::{ActionId, ActionKind, ActionName, Request, Value};

use crate::codec::{crc32, lz_compress, lz_decompress, Codec, Crc32};
use crate::store::{EventRepr, TraceStore};

/// The file magic.
pub const TRACE_MAGIC: [u8; 4] = *b"XTRC";

/// The version written for uncompressed traces (the layout every tool in
/// the repo has always produced).
pub const TRACE_FORMAT_VERSION: u32 = 2;

/// The version written when a compression codec is engaged: the same
/// layout with the post-meta payload behind a codec frame.
pub const TRACE_FORMAT_COMPRESSED_VERSION: u32 = 3;

/// The oldest trace format version the reader accepts.
pub const TRACE_FORMAT_MIN_VERSION: u32 = 2;

/// The newest trace format version the reader accepts.
pub const TRACE_FORMAT_MAX_VERSION: u32 = TRACE_FORMAT_COMPRESSED_VERSION;

/// The meta key holding the payload's CRC-32 (eight lowercase hex
/// digits). Written by the segment tier; verified on every read that
/// finds it.
pub const META_PAYLOAD_CRC: &str = "payload_crc32";

/// A replayed trace: the declared request sequence plus the rebuilt
/// store.
///
/// # Examples
///
/// ```
/// use xability_core::{ActionId, ActionName, Event, Request, Value};
/// use xability_store::{read_trace, write_trace, TraceStore};
///
/// let a = ActionId::base(ActionName::idempotent("get"));
/// let mut store = TraceStore::new();
/// store.push(&Event::start(a.clone(), Value::from(1)));
/// store.push(&Event::complete(a.clone(), Value::from(5)));
/// let requests = vec![Request::new(a, Value::from(1))];
///
/// let mut bytes = Vec::new();
/// write_trace(&mut bytes, &requests, &store).unwrap();
/// let replayed = read_trace(&mut bytes.as_slice()).unwrap();
/// assert_eq!(replayed.requests, requests);
/// assert_eq!(replayed.store.view().to_history(), store.view().to_history());
/// ```
#[derive(Debug, Clone)]
pub struct RecordedTrace {
    /// The request sequence the trace was recorded against (the R3
    /// question to re-ask on replay).
    pub requests: Vec<Request>,
    /// The rebuilt store, symbol-for-symbol identical to the recorded
    /// one.
    pub store: TraceStore,
    /// Free-form provenance pairs from the file's meta section. Order is
    /// preserved exactly as written.
    pub meta: Vec<(String, String)>,
}

impl RecordedTrace {
    /// Writes the trace (including its `meta` pairs) to `path` (see
    /// [`write_trace_file_with_meta`]).
    pub fn write_to_file(&self, path: impl AsRef<Path>) -> io::Result<()> {
        write_trace_file_with_meta(path, &self.requests, &self.store, &self.meta)
    }

    /// Looks up the first meta value recorded under `key`.
    pub fn meta_value(&self, key: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Reads a trace from `path` (see [`read_trace`]).
    pub fn read_from_file(path: impl AsRef<Path>) -> io::Result<RecordedTrace> {
        read_trace(&mut BufReader::new(File::open(path)?))
    }
}

/// Writes a recorded trace with its provenance meta section to `path`
/// (buffered and flushed) — the one path-based entry point shared by
/// [`RecordedTrace::write_to_file`] and the harness's run dumps.
pub fn write_trace_file_with_meta(
    path: impl AsRef<Path>,
    requests: &[Request],
    store: &TraceStore,
    meta: &[(String, String)],
) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    write_trace_with_meta(&mut w, requests, store, meta)?;
    w.flush()
}

fn bad(data: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, data.into())
}

fn write_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_len<W: Write>(w: &mut W, len: usize, what: &str) -> io::Result<()> {
    let v = u32::try_from(len).map_err(|_| bad(format!("{what} count exceeds u32")))?;
    write_u32(w, v)
}

fn read_u8<R: Read>(r: &mut R) -> io::Result<u8> {
    let mut buf = [0u8; 1];
    r.read_exact(&mut buf)?;
    Ok(buf[0])
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

fn write_str<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    write_len(w, s.len(), "string byte")?;
    w.write_all(s.as_bytes())
}

fn read_str<R: Read>(r: &mut R) -> io::Result<String> {
    let len = read_u32(r)? as usize;
    // Grow as bytes actually arrive instead of trusting the length field
    // with an up-front allocation: a corrupt length then fails cleanly on
    // EOF rather than attempting a multi-GiB buffer.
    let mut buf = Vec::with_capacity(len.min(1 << 16));
    let read = r.by_ref().take(len as u64).read_to_end(&mut buf)?;
    if read != len {
        return Err(bad("truncated string"));
    }
    String::from_utf8(buf).map_err(|_| bad("string is not UTF-8"))
}

fn write_value<W: Write>(w: &mut W, value: &Value) -> io::Result<()> {
    write_value_at(w, value, 0)
}

fn write_value_at<W: Write>(w: &mut W, value: &Value, depth: usize) -> io::Result<()> {
    // Enforced symmetrically with the reader: a value too deep for the
    // format fails at *record* time, never producing an unreadable file.
    if depth >= MAX_VALUE_DEPTH {
        return Err(bad(format!(
            "value nesting exceeds the format's depth limit ({MAX_VALUE_DEPTH})"
        )));
    }
    match value {
        Value::Nil => w.write_all(&[0]),
        Value::Bool(b) => w.write_all(&[1, u8::from(*b)]),
        Value::Int(i) => {
            w.write_all(&[2])?;
            w.write_all(&i.to_le_bytes())
        }
        Value::Str(s) => {
            w.write_all(&[3])?;
            write_str(w, s)
        }
        Value::List(items) => {
            w.write_all(&[4])?;
            write_len(w, items.len(), "list element")?;
            for item in items.iter() {
                write_value_at(w, item, depth + 1)?;
            }
            Ok(())
        }
        Value::Pair(p) => {
            w.write_all(&[5])?;
            write_value_at(w, &p.0, depth + 1)?;
            write_value_at(w, &p.1, depth + 1)
        }
    }
}

/// Deepest `List`/`Pair` nesting the reader accepts. Real values nest a
/// handful of levels; the cap turns a corrupt run of nesting tags into a
/// clean `InvalidData` instead of a stack-overflow abort.
const MAX_VALUE_DEPTH: usize = 64;

fn read_value<R: Read>(r: &mut R) -> io::Result<Value> {
    read_value_at(r, 0)
}

fn read_value_at<R: Read>(r: &mut R, depth: usize) -> io::Result<Value> {
    if depth >= MAX_VALUE_DEPTH {
        return Err(bad(format!(
            "value nesting exceeds the format's depth limit ({MAX_VALUE_DEPTH})"
        )));
    }
    match read_u8(r)? {
        0 => Ok(Value::Nil),
        1 => Ok(Value::Bool(read_u8(r)? != 0)),
        2 => {
            let mut buf = [0u8; 8];
            r.read_exact(&mut buf)?;
            Ok(Value::Int(i64::from_le_bytes(buf)))
        }
        3 => Ok(Value::from(read_str(r)?)),
        4 => {
            let count = read_u32(r)? as usize;
            let mut items = Vec::with_capacity(count.min(1 << 16));
            for _ in 0..count {
                items.push(read_value_at(r, depth + 1)?);
            }
            Ok(Value::list(items))
        }
        5 => {
            let first = read_value_at(r, depth + 1)?;
            let second = read_value_at(r, depth + 1)?;
            Ok(Value::pair(first, second))
        }
        tag => Err(bad(format!("unknown value tag {tag}"))),
    }
}

fn write_action_id<W: Write>(w: &mut W, action: &ActionId) -> io::Result<()> {
    let (role, name): (u8, &ActionName) = match action {
        ActionId::Base(n) => (0, n),
        ActionId::Cancel(n) => (1, n),
        ActionId::Commit(n) => (2, n),
    };
    w.write_all(&[role, u8::from(name.is_undoable())])?;
    write_str(w, name.name())
}

fn read_action_id<R: Read>(r: &mut R) -> io::Result<ActionId> {
    let role = read_u8(r)?;
    let kind = match read_u8(r)? {
        0 => ActionKind::Idempotent,
        1 => ActionKind::Undoable,
        k => return Err(bad(format!("unknown action kind {k}"))),
    };
    let name = ActionName::new(read_str(r)?, kind);
    if role != 0 && !name.is_undoable() {
        return Err(bad(format!(
            "cancel/commit role on idempotent action {:?} (only undoable actions have derived actions)",
            name.name()
        )));
    }
    match role {
        0 => Ok(ActionId::Base(name)),
        1 => Ok(ActionId::Cancel(name)),
        2 => Ok(ActionId::Commit(name)),
        other => Err(bad(format!("unknown action role {other}"))),
    }
}

/// Writes a recorded trace: the request sequence plus a store's symbol
/// tables and packed event stream.
pub fn write_trace<W: Write>(
    w: &mut W,
    requests: &[Request],
    store: &TraceStore,
) -> io::Result<()> {
    write_trace_with_meta(w, requests, store, &[])
}

/// [`write_trace`] with an explicit provenance meta section (free-form
/// key/value string pairs, written in order).
pub fn write_trace_with_meta<W: Write>(
    w: &mut W,
    requests: &[Request],
    store: &TraceStore,
    meta: &[(String, String)],
) -> io::Result<()> {
    w.write_all(&TRACE_MAGIC)?;
    write_u32(w, TRACE_FORMAT_VERSION)?;

    write_len(w, meta.len(), "meta pair")?;
    for (key, value) in meta {
        write_str(w, key)?;
        write_str(w, value)?;
    }

    write_store_sections(w, requests, store)
}

/// The segment file skeleton: magic, the codec-determined version, the
/// caller's meta pairs plus the payload's CRC-32 under
/// [`META_PAYLOAD_CRC`] (callers must not supply that key themselves),
/// then `sections` through the codec. A non-[`Codec::None`] codec writes
/// [`TRACE_FORMAT_COMPRESSED_VERSION`] with the payload behind the codec
/// frame; `Codec::None` output differs from [`write_trace_with_meta`]
/// only by the checksum meta pair.
pub(crate) fn write_framed<W: Write>(
    w: &mut W,
    meta: &[(String, String)],
    codec: Codec,
    sections: &[u8],
) -> io::Result<()> {
    let (version, payload) = match codec {
        Codec::None => (TRACE_FORMAT_VERSION, sections.to_vec()),
        Codec::Lz => {
            let comp = lz_compress(sections);
            let mut framed = Vec::with_capacity(comp.len() + 17);
            framed.push(codec.tag());
            framed.extend_from_slice(&(sections.len() as u64).to_le_bytes());
            framed.extend_from_slice(&(comp.len() as u64).to_le_bytes());
            framed.extend_from_slice(&comp);
            (TRACE_FORMAT_COMPRESSED_VERSION, framed)
        }
    };
    let crc = crc32(&payload);

    w.write_all(&TRACE_MAGIC)?;
    write_u32(w, version)?;
    write_len(w, meta.len() + 1, "meta pair")?;
    for (key, value) in meta {
        debug_assert!(
            key != META_PAYLOAD_CRC,
            "the checksum pair is written by the framer"
        );
        write_str(w, key)?;
        write_str(w, value)?;
    }
    write_str(w, META_PAYLOAD_CRC)?;
    write_str(w, &format!("{crc:08x}"))?;
    w.write_all(&payload)
}

/// Writes the payload sections of a whole store (full symbol tables, all
/// events) — the layout every version-2 file carries after its meta
/// section.
fn write_store_sections<W: Write>(
    w: &mut W,
    requests: &[Request],
    store: &TraceStore,
) -> io::Result<()> {
    let interner = store.interner();
    let (actions, values) = (interner.action_count(), interner.value_count());
    write_sections(
        w,
        (
            actions,
            &mut (0..actions).map(|sym| interner.action(sym as u32)),
        ),
        (
            values,
            &mut (0..values).map(|sym| interner.value(sym as u32)),
        ),
        requests,
        (store.len(), &mut (0..store.len()).map(|i| store.repr(i))),
    )
}

/// Writes the four payload sections from explicit `(count, iterator)`
/// pairs. The segment tier passes *slices* of the interner here (a
/// segment carries only the symbols interned since the previous seal),
/// so each count travels with its iterator rather than being taken from
/// the interner.
pub(crate) fn write_sections<W: Write>(
    w: &mut W,
    actions: (usize, &mut dyn Iterator<Item = &ActionName>),
    values: (usize, &mut dyn Iterator<Item = &Value>),
    requests: &[Request],
    events: (usize, &mut dyn Iterator<Item = EventRepr>),
) -> io::Result<()> {
    write_len(w, actions.0, "action symbol")?;
    for name in actions.1 {
        w.write_all(&[u8::from(name.is_undoable())])?;
        write_str(w, name.name())?;
    }

    write_len(w, values.0, "value symbol")?;
    for value in values.1 {
        write_value(w, value)?;
    }

    write_len(w, requests.len(), "request")?;
    for request in requests {
        write_action_id(w, request.action())?;
        write_value(w, request.input())?;
    }

    w.write_all(&(events.0 as u64).to_le_bytes())?;
    for repr in events.1 {
        w.write_all(&[repr.tag_byte()])?;
        write_u32(w, repr.action_symbol())?;
        write_u32(w, repr.value_symbol())?;
    }
    Ok(())
}

/// Reads a recorded trace, rebuilding a [`TraceStore`] whose symbols and
/// events are identical to the recorded ones.
///
/// Fails with `InvalidData` on a bad magic, an unsupported version, an
/// out-of-range symbol, a malformed value/action encoding, or — when the
/// file carries a [`META_PAYLOAD_CRC`] pair — a payload checksum
/// mismatch.
pub fn read_trace<R: Read>(r: &mut R) -> io::Result<RecordedTrace> {
    let (version, meta) = read_header(r)?;
    let raw = read_checked_body(r, version, &meta)?;

    let mut store = TraceStore::new();
    let action_count = raw.actions.len();
    for name in &raw.actions {
        store.interner_mut().intern_action(name);
    }
    if store.interner().action_count() != action_count {
        return Err(bad("duplicate action name in symbol table"));
    }
    let value_count = raw.values.len();
    for value in &raw.values {
        store.interner_mut().intern_value(value);
    }
    if store.interner().value_count() != value_count {
        return Err(bad("duplicate value in symbol table"));
    }
    for repr in raw.events {
        store.push_repr(repr).map_err(bad)?;
    }

    Ok(RecordedTrace {
        requests: raw.requests,
        store,
        meta,
    })
}

/// Parses the file prelude: magic, version (range-checked), and the meta
/// section.
pub(crate) fn read_header<R: Read>(r: &mut R) -> io::Result<(u32, Vec<(String, String)>)> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != TRACE_MAGIC {
        return Err(bad("not a trace file (bad magic)"));
    }
    let version = read_u32(r)?;
    if !(TRACE_FORMAT_MIN_VERSION..=TRACE_FORMAT_MAX_VERSION).contains(&version) {
        return Err(bad(format!(
            "unsupported trace format version {version} (this build reads \
             {TRACE_FORMAT_MIN_VERSION}..={TRACE_FORMAT_MAX_VERSION})"
        )));
    }

    let meta_count = read_u32(r)? as usize;
    let mut meta = Vec::with_capacity(meta_count.min(1 << 12));
    for _ in 0..meta_count {
        let key = read_str(r)?;
        let value = read_str(r)?;
        meta.push((key, value));
    }
    Ok((version, meta))
}

/// Reads the payload after a parsed header, verifying its checksum when
/// `meta` carries a [`META_PAYLOAD_CRC`] pair: the post-meta bytes are
/// hashed exactly as they stream off `r` and compared before anything
/// parsed from them is returned.
pub(crate) fn read_checked_body<R: Read>(
    r: &mut R,
    version: u32,
    meta: &[(String, String)],
) -> io::Result<RawSections> {
    let expected = match meta.iter().find(|(k, _)| k == META_PAYLOAD_CRC) {
        Some((_, hex)) => Some(
            u32::from_str_radix(hex, 16)
                .map_err(|_| bad(format!("malformed {META_PAYLOAD_CRC} meta value {hex:?}")))?,
        ),
        None => None,
    };
    let mut hashed = Crc32Reader {
        inner: r,
        crc: Crc32::new(),
    };
    let raw = read_body(&mut hashed, version)?;
    if let Some(want) = expected {
        let got = hashed.crc.finish();
        if got != want {
            return Err(bad(format!(
                "payload checksum mismatch: recorded {want:08x}, computed {got:08x}"
            )));
        }
    }
    Ok(raw)
}

/// A pass-through reader folding every byte it delivers into a CRC-32.
struct Crc32Reader<R> {
    inner: R,
    crc: Crc32,
}

impl<R: Read> Read for Crc32Reader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.crc.update(&buf[..n]);
        Ok(n)
    }
}

/// The payload of a trace file, parsed but not yet interned: the raw
/// symbol tables, the self-contained requests, and the packed events.
///
/// [`read_trace`] rebuilds a [`TraceStore`] from one of these (validating
/// symbol ranges as it interns); the segment tier consumes them raw,
/// because a delta segment's events reference symbols from *earlier*
/// segments that a single file cannot resolve alone.
#[derive(Debug)]
pub(crate) struct RawSections {
    pub(crate) actions: Vec<ActionName>,
    pub(crate) values: Vec<Value>,
    pub(crate) requests: Vec<Request>,
    pub(crate) events: Vec<EventRepr>,
}

/// Reads the post-meta payload: directly for version 2, through the
/// codec frame for version 3.
fn read_body<R: Read>(r: &mut R, version: u32) -> io::Result<RawSections> {
    if version < TRACE_FORMAT_COMPRESSED_VERSION {
        return read_sections(r);
    }
    let codec =
        Codec::from_tag(read_u8(r)?).ok_or_else(|| bad("unknown codec tag in compressed trace"))?;
    let raw_len = read_u64(r)? as usize;
    let comp_len = read_u64(r)?;
    let mut comp = Vec::with_capacity((comp_len as usize).min(1 << 20));
    let got = r.take(comp_len).read_to_end(&mut comp)?;
    if got as u64 != comp_len {
        return Err(bad("truncated compressed payload"));
    }
    let sections = match codec {
        Codec::None => {
            if raw_len != comp.len() {
                return Err(bad("stored payload length disagrees with its frame"));
            }
            comp
        }
        Codec::Lz => lz_decompress(&comp, raw_len).map_err(bad)?,
    };
    read_sections(&mut sections.as_slice())
}

/// Parses the four payload sections without interning anything.
pub(crate) fn read_sections<R: Read>(r: &mut R) -> io::Result<RawSections> {
    let action_count = read_u32(r)? as usize;
    let mut actions = Vec::with_capacity(action_count.min(1 << 16));
    for _ in 0..action_count {
        let kind = match read_u8(r)? {
            0 => ActionKind::Idempotent,
            1 => ActionKind::Undoable,
            k => return Err(bad(format!("unknown action kind {k}"))),
        };
        actions.push(ActionName::new(read_str(r)?, kind));
    }

    let value_count = read_u32(r)? as usize;
    let mut values = Vec::with_capacity(value_count.min(1 << 16));
    for _ in 0..value_count {
        values.push(read_value(r)?);
    }

    let request_count = read_u32(r)? as usize;
    let mut requests = Vec::with_capacity(request_count.min(1 << 16));
    for _ in 0..request_count {
        let action = read_action_id(r)?;
        let input = read_value(r)?;
        requests.push(Request::new(action, input));
    }

    let event_count = read_u64(r)?;
    let mut events = Vec::with_capacity((event_count as usize).min(1 << 20));
    for _ in 0..event_count {
        let tag = read_u8(r)?;
        let action = read_u32(r)?;
        let value = read_u32(r)?;
        let repr = EventRepr::from_parts(tag, action, value)
            .ok_or_else(|| bad(format!("malformed event tag {tag:#04x}")))?;
        events.push(repr);
    }

    Ok(RawSections {
        actions,
        values,
        requests,
        events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xability_core::xable::{Checker, FastChecker};
    use xability_core::{Event, History};

    fn sample() -> (Vec<Request>, TraceStore) {
        let u = ActionId::base(ActionName::undoable("xfer"));
        let cancel = u.cancel().unwrap();
        let b = ActionId::base(ActionName::idempotent("get"));
        let h: History = [
            Event::start(u.clone(), Value::from(1)),
            Event::start(cancel.clone(), Value::from(1)),
            Event::complete(cancel, Value::Nil),
            Event::start(u.clone(), Value::from(1)),
            Event::complete(u.clone(), Value::from(7)),
            Event::start(u.commit().unwrap(), Value::from(1)),
            Event::complete(u.commit().unwrap(), Value::Nil),
            Event::start(
                b.clone(),
                Value::list([Value::pair(Value::from("k"), Value::from(2))]),
            ),
            Event::complete(b.clone(), Value::from("ok")),
        ]
        .into_iter()
        .collect();
        let requests = vec![
            Request::new(u, Value::from(1)),
            Request::new(
                b,
                Value::list([Value::pair(Value::from("k"), Value::from(2))]),
            ),
        ];
        (requests, TraceStore::from_history(&h))
    }

    /// A whole store framed as a segment file is: the checksum meta
    /// pair, and the version-3 codec frame when the codec compresses.
    fn framed(requests: &[Request], store: &TraceStore, codec: Codec) -> Vec<u8> {
        let mut sections = Vec::new();
        write_store_sections(&mut sections, requests, store).unwrap();
        let mut bytes = Vec::new();
        write_framed(&mut bytes, &[], codec, &sections).unwrap();
        bytes
    }

    #[test]
    fn round_trip_preserves_requests_symbols_and_events() {
        let (requests, store) = sample();
        let mut bytes = Vec::new();
        write_trace(&mut bytes, &requests, &store).unwrap();
        let replayed = read_trace(&mut bytes.as_slice()).unwrap();
        assert_eq!(replayed.requests, requests);
        assert_eq!(replayed.store.len(), store.len());
        assert_eq!(
            replayed.store.interner().action_count(),
            store.interner().action_count()
        );
        assert_eq!(
            replayed.store.interner().value_count(),
            store.interner().value_count()
        );
        assert_eq!(
            replayed.store.view().to_history(),
            store.view().to_history()
        );
    }

    #[test]
    fn replayed_trace_rechecks_identically() {
        let (requests, store) = sample();
        let mut bytes = Vec::new();
        write_trace(&mut bytes, &requests, &store).unwrap();
        let replayed = read_trace(&mut bytes.as_slice()).unwrap();
        let checker = FastChecker;
        assert_eq!(
            checker.check_requests(&store.view(), &requests),
            checker.check_requests(&replayed.store.view(), &replayed.requests),
        );
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = read_trace(&mut &b"NOPE\x01\x00\x00\x00"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn future_version_is_rejected() {
        // Either side of the accepted range: the retired meta-less
        // version 1 and a version this build does not know yet.
        for version in [TRACE_FORMAT_MIN_VERSION - 1, TRACE_FORMAT_MAX_VERSION + 1] {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&TRACE_MAGIC);
            bytes.extend_from_slice(&version.to_le_bytes());
            let err = read_trace(&mut bytes.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("version"));
        }
    }

    #[test]
    fn compressed_trace_round_trips_and_rechecks() {
        let (requests, store) = sample();
        let mut plain = Vec::new();
        write_trace(&mut plain, &requests, &store).unwrap();
        for codec in [Codec::None, Codec::Lz] {
            let bytes = framed(&requests, &store, codec);
            let replayed =
                read_trace(&mut bytes.as_slice()).unwrap_or_else(|e| panic!("codec {codec}: {e}"));
            assert_eq!(replayed.requests, requests, "codec {codec}");
            assert_eq!(
                replayed.store.view().to_history(),
                store.view().to_history(),
                "codec {codec}"
            );
            assert!(
                replayed.meta_value(META_PAYLOAD_CRC).is_some(),
                "codec {codec}: the framer records the payload checksum"
            );
            let checker = FastChecker;
            assert_eq!(
                checker.check_requests(&store.view(), &requests),
                checker.check_requests(&replayed.store.view(), &replayed.requests),
                "codec {codec}"
            );
        }
    }

    #[test]
    fn lz_codec_shrinks_a_repetitive_trace() {
        let a = ActionId::base(ActionName::idempotent("put"));
        let mut store = TraceStore::new();
        for i in 0..2_000i64 {
            store.push(&Event::start(a.clone(), Value::from(i % 8)));
            store.push(&Event::complete(a.clone(), Value::from(i % 8)));
        }
        let plain = framed(&[], &store, Codec::None);
        let packed = framed(&[], &store, Codec::Lz);
        assert!(
            packed.len() * 4 < plain.len(),
            "{} -> {} bytes",
            plain.len(),
            packed.len()
        );
    }

    #[test]
    fn payload_corruption_is_caught_by_the_checksum() {
        let (requests, store) = sample();
        for codec in [Codec::None, Codec::Lz] {
            let bytes = framed(&requests, &store, codec);
            // Flip one byte in the payload (well past the header+meta).
            let n = bytes.len();
            let mut corrupt = bytes.clone();
            corrupt[n - 3] ^= 0x41;
            let err = read_trace(&mut corrupt.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "codec {codec}");
        }
    }

    #[test]
    fn malformed_checksum_meta_is_rejected() {
        let (requests, store) = sample();
        let meta = vec![(META_PAYLOAD_CRC.to_string(), "not-hex".to_string())];
        let mut bytes = Vec::new();
        write_trace_with_meta(&mut bytes, &requests, &store, &meta).unwrap();
        let err = read_trace(&mut bytes.as_slice()).unwrap_err();
        assert!(err.to_string().contains("malformed"), "{err}");
    }

    #[test]
    fn out_of_range_symbol_is_rejected() {
        let (requests, store) = sample();
        let mut bytes = Vec::new();
        write_trace(&mut bytes, &requests, &store).unwrap();
        // Corrupt the last event's value symbol (last 4 bytes).
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_trace(&mut bytes.as_slice()).unwrap_err();
        assert!(err.to_string().contains("value symbol"), "{err}");
    }

    #[test]
    fn runaway_value_nesting_is_rejected_not_a_stack_overflow() {
        // A value section that is one long run of Pair tags would recurse
        // once per byte without the depth cap.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&TRACE_MAGIC);
        bytes.extend_from_slice(&TRACE_FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes()); // no meta
        bytes.extend_from_slice(&0u32.to_le_bytes()); // no actions
        bytes.extend_from_slice(&1u32.to_le_bytes()); // one value…
        bytes.extend(std::iter::repeat(5u8).take(100_000)); // …of nested Pairs
        let err = read_trace(&mut bytes.as_slice()).unwrap_err();
        assert!(err.to_string().contains("depth"), "{err}");
    }

    #[test]
    fn over_deep_value_fails_at_record_time_not_replay_time() {
        // The depth cap is symmetric: a value the reader would reject is
        // refused by the writer, so no unreadable file is ever produced.
        let mut deep = Value::Nil;
        for _ in 0..100 {
            deep = Value::pair(deep, Value::Nil);
        }
        let a = ActionId::base(ActionName::idempotent("a"));
        let mut store = TraceStore::new();
        store.push(&Event::start(a, deep));
        let mut bytes = Vec::new();
        let err = write_trace(&mut bytes, &[], &store).unwrap_err();
        assert!(err.to_string().contains("depth"), "{err}");
    }

    #[test]
    fn cancel_role_on_idempotent_action_is_rejected() {
        // Hand-built trace: one idempotent action, one Nil value, one
        // event whose tag claims a cancel role — unconstructible via the
        // core API, so the reader must refuse it.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&TRACE_MAGIC);
        bytes.extend_from_slice(&TRACE_FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes()); // no meta
        bytes.extend_from_slice(&1u32.to_le_bytes()); // one action:
        bytes.push(0); // idempotent
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(b'a');
        bytes.extend_from_slice(&1u32.to_le_bytes()); // one value:
        bytes.push(0); // Nil
        bytes.extend_from_slice(&0u32.to_le_bytes()); // no requests
        bytes.extend_from_slice(&1u64.to_le_bytes()); // one event:
        bytes.push(0b010); // start, ROLE_CANCEL
        bytes.extend_from_slice(&0u32.to_le_bytes()); // action 0
        bytes.extend_from_slice(&0u32.to_le_bytes()); // value 0
        let err = read_trace(&mut bytes.as_slice()).unwrap_err();
        assert!(err.to_string().contains("idempotent"), "{err}");

        // Same impossible combination in the request section.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&TRACE_MAGIC);
        bytes.extend_from_slice(&TRACE_FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes()); // no meta
        bytes.extend_from_slice(&0u32.to_le_bytes()); // no actions
        bytes.extend_from_slice(&0u32.to_le_bytes()); // no values
        bytes.extend_from_slice(&1u32.to_le_bytes()); // one request:
        bytes.push(1); // cancel role…
        bytes.push(0); // …of an idempotent name
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(b'a');
        bytes.push(0); // Nil input
        bytes.extend_from_slice(&0u64.to_le_bytes()); // no events
        let err = read_trace(&mut bytes.as_slice()).unwrap_err();
        assert!(err.to_string().contains("idempotent"), "{err}");
    }

    #[test]
    fn truncated_stream_is_an_error_not_a_panic() {
        let (requests, store) = sample();
        let mut bytes = Vec::new();
        write_trace(&mut bytes, &requests, &store).unwrap();
        for cut in [3, 7, 12, bytes.len() - 1] {
            assert!(read_trace(&mut &bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn file_round_trip() {
        let (requests, store) = sample();
        let dir = std::env::temp_dir().join("xability-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.xtrace");
        let recorded = RecordedTrace {
            requests: requests.clone(),
            store: store.clone(),
            meta: vec![("generator".to_string(), "unit-test".to_string())],
        };
        recorded.write_to_file(&path).unwrap();
        let replayed = RecordedTrace::read_from_file(&path).unwrap();
        assert_eq!(replayed.requests, requests);
        assert_eq!(
            replayed.store.view().to_history(),
            store.view().to_history()
        );
        assert_eq!(replayed.meta, recorded.meta);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn meta_section_round_trips_in_order() {
        let (requests, store) = sample();
        let meta = vec![
            ("generator".to_string(), "explore".to_string()),
            ("master_seed".to_string(), "42".to_string()),
            ("master_seed".to_string(), "shadowed".to_string()),
        ];
        let mut bytes = Vec::new();
        write_trace_with_meta(&mut bytes, &requests, &store, &meta).unwrap();
        let replayed = read_trace(&mut bytes.as_slice()).unwrap();
        assert_eq!(replayed.meta, meta);
        // Lookup returns the *first* pair under a duplicated key.
        assert_eq!(replayed.meta_value("master_seed"), Some("42"));
        assert_eq!(replayed.meta_value("absent"), None);
    }
}
