//! # xability-store — the shared, interned trace store
//!
//! Every layer of the reproduction is ultimately a consumer of one event
//! stream: the ledger records it, the online monitor folds it, the batch
//! checkers re-read it, tests replay it. This crate is that stream's
//! home — one append-only store, many cheap read-only views — so that a
//! multi-million-event trace is stored **once**, compactly, instead of as
//! heap-heavy `Vec<Event>` copies per component.
//!
//! * [`Interner`] maps [`ActionName`]s and [`Value`]s to dense `u32`
//!   symbols, so each distinct action name and value is stored once.
//! * [`EventRepr`] is the packed 12-byte per-event record: an event tag,
//!   an action-role tag, and the two symbols.
//! * [`TraceStore`] is the append-only segmented store. Appends never
//!   move old segments (no reallocation copies), and
//!   [`TraceStore::snapshot`] hands out an immutable [`TraceSnapshot`] in
//!   O(#segments) — cheaply cloneable across components.
//! * [`HistoryView`] is a zero-copy [`HistoryRead`] over a snapshot: the
//!   fast and incremental checkers run on it directly, and
//!   [`HistoryView::to_history`] / [`TraceStore::from_history`] convert
//!   losslessly to/from the owned [`History`] the search tier needs.
//! * [`trace`] is the versioned binary record/replay format
//!   ([`write_trace`] / [`read_trace`]): the harness dumps a run's trace
//!   to disk, tests replay it bit-for-bit. Version 3 frames the payload
//!   behind a [`Codec`] with a recorded checksum.
//! * [`segfile`] is the one disk tier: a [`SegmentLog`] seals immutable,
//!   optionally-compressed cold segments into a directory (the services
//!   ledger's mirror spill, configured by a [`TierConfig`]), and
//!   [`recover_store`] brings the longest valid chain prefix back as a
//!   [`TraceStore`] after a crash.
//!
//! ```
//! use xability_core::xable::{Checker, FastChecker};
//! use xability_core::{ActionId, ActionName, Event, HistoryRead, Value};
//! use xability_store::TraceStore;
//!
//! let get = ActionId::base(ActionName::idempotent("get"));
//! let mut store = TraceStore::new();
//! store.push(&Event::start(get.clone(), Value::from(1)));
//! store.push(&Event::complete(get.clone(), Value::from(42)));
//!
//! // O(#segments) snapshot; the view reads events without copying them.
//! let view = store.view();
//! assert_eq!(view.len(), 2);
//! let verdict = FastChecker.check(&view, &[(get, Value::from(1))], &[]);
//! assert!(verdict.is_xable());
//! ```
//!
//! [`ActionName`]: xability_core::ActionName
//! [`Value`]: xability_core::Value
//! [`History`]: xability_core::History
//! [`HistoryRead`]: xability_core::HistoryRead

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
pub mod segfile;
pub mod store;
pub mod trace;

// The symbol-interning layer lives in `xability_core::intern` since the
// checker engine keys its per-request groups by the same symbols; the
// store threads that one `Interner` type through its packed events and
// snapshots. Re-exported here so store users keep one import path.
pub use codec::{crc32, lz_compress, lz_decompress, Codec, Crc32};
pub use segfile::{
    recover_store, LoadedSegment, RecoveredLog, RecoveryReport, SegmentInfo, SegmentLog, TierConfig,
};
pub use store::{EventRepr, HistoryView, TraceSnapshot, TraceStore};
pub use trace::{
    read_trace, write_trace, write_trace_file_with_meta, write_trace_with_meta, RecordedTrace,
    META_PAYLOAD_CRC, TRACE_FORMAT_COMPRESSED_VERSION, TRACE_FORMAT_MAX_VERSION,
    TRACE_FORMAT_MIN_VERSION, TRACE_FORMAT_VERSION,
};
pub use xability_core::intern::{Interner, InternerReader};
