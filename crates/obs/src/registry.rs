//! The registry: instrument registration, shared cells, the span log.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::snapshot::{
    HistogramSnapshot, MetricEntry, MetricsSnapshot, SpanSnap, HISTOGRAM_BUCKETS,
};

/// A monotone counter handle. Cloning shares the underlying cell.
///
/// Recording is one load, one add and one store, with zero allocations;
/// a handle from a noop [`Obs`] records nothing (the branch is on a
/// constant `None` the optimizer removes).
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Rc<Cell<u64>>>,
}

impl Counter {
    /// An inert counter (what a noop [`Obs`] hands out).
    pub fn noop() -> Self {
        Counter { cell: None }
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            bump(cell, n);
        }
    }

    /// The current value (0 for an inert handle).
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |cell| cell.get())
    }
}

/// A gauge handle: a settable signed level. Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Option<Rc<Cell<i64>>>,
}

impl Gauge {
    /// An inert gauge (what a noop [`Obs`] hands out).
    pub fn noop() -> Self {
        Gauge { cell: None }
    }

    /// Sets the level.
    #[inline]
    pub fn set(&self, value: i64) {
        if let Some(cell) = &self.cell {
            cell.set(value);
        }
    }

    /// The current level (0 for an inert handle).
    pub fn get(&self) -> i64 {
        self.cell.as_ref().map_or(0, |cell| cell.get())
    }
}

/// The cells behind one histogram: fixed log2 buckets plus count/sum, so
/// `record` is two adds and one indexed add — no resizing, no allocation,
/// ever.
#[derive(Debug)]
pub(crate) struct HistogramCells {
    count: Cell<u64>,
    sum: Cell<u64>,
    buckets: [Cell<u64>; HISTOGRAM_BUCKETS],
}

impl Default for HistogramCells {
    fn default() -> Self {
        HistogramCells {
            count: Cell::new(0),
            sum: Cell::new(0),
            buckets: std::array::from_fn(|_| Cell::new(0)),
        }
    }
}

impl HistogramCells {
    fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets: Vec<u64> = self.buckets.iter().map(Cell::get).collect();
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        HistogramSnapshot {
            count: self.count.get(),
            sum: self.sum.get(),
            buckets,
        }
    }
}

/// Adds `n` to `cell`, wrapping on overflow.
#[inline]
fn bump(cell: &Cell<u64>, n: u64) {
    cell.set(cell.get().wrapping_add(n));
}

/// Bucket index of `value`: 0 holds exactly 0, bucket `i >= 1` holds
/// `[2^(i-1), 2^i)` — i.e. values with `i` significant bits.
#[inline]
pub(crate) fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// A fixed-bucket log2 histogram handle. Cloning shares the cells.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    cells: Option<Rc<HistogramCells>>,
}

impl Histogram {
    /// An inert histogram (what a noop [`Obs`] hands out).
    pub fn noop() -> Self {
        Histogram { cells: None }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(cells) = &self.cells {
            bump(&cells.count, 1);
            bump(&cells.sum, value);
            bump(&cells.buckets[bucket_of(value)], 1);
        }
    }

    /// The number of observations so far (0 for an inert handle).
    pub fn count(&self) -> u64 {
        self.cells.as_ref().map_or(0, |cells| cells.count.get())
    }

    /// The sum of observations so far (0 for an inert handle).
    pub fn sum(&self) -> u64 {
        self.cells.as_ref().map_or(0, |cells| cells.sum.get())
    }
}

/// One recorded span: a `(scope, request, round)`-keyed interval in
/// caller ticks. `end_tick == None` means still open at snapshot time.
#[derive(Debug, Clone)]
struct SpanRecord {
    scope: &'static str,
    /// Symbol into the registry's request-name table.
    request: u32,
    round: u64,
    start_tick: u64,
    end_tick: Option<u64>,
}

/// Registry interior: registration tables and the span log, behind one
/// `RefCell`. Instrument cells are handed out as `Rc`s, so the `RefCell`
/// is borrowed for registration and spans only — never on the per-event
/// record path.
#[derive(Debug, Default)]
struct State {
    counters: BTreeMap<(&'static str, String), Rc<Cell<u64>>>,
    gauges: BTreeMap<&'static str, Rc<Cell<i64>>>,
    histograms: BTreeMap<&'static str, Rc<HistogramCells>>,
    /// Interned span request names, in first-sight order.
    requests: Vec<Rc<str>>,
    request_index: BTreeMap<Rc<str>, u32>,
    spans: Vec<SpanRecord>,
}

impl State {
    fn intern_request(&mut self, request: &str) -> u32 {
        if let Some(&sym) = self.request_index.get(request) {
            return sym;
        }
        let name: Rc<str> = Rc::from(request);
        let sym = u32::try_from(self.requests.len()).expect("fewer than 2^32 span requests");
        self.requests.push(Rc::clone(&name));
        self.request_index.insert(name, sym);
        sym
    }
}

/// The observability handle: a cheap, clonable reference to one metrics
/// registry — or to nothing at all ([`Obs::noop`]), in which case every
/// instrument it hands out is inert and the record paths compile out.
///
/// See the [crate docs](crate) for the determinism policy and examples.
///
/// A registry belongs to the one thread that runs the simulation; a
/// handle cannot be sent to another:
///
/// ```compile_fail,E0277
/// let obs = xability_obs::Obs::new();
/// std::thread::spawn(move || obs.counter("x").inc());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Obs {
    state: Option<Rc<RefCell<State>>>,
}

impl Obs {
    /// A live registry.
    pub fn new() -> Self {
        Obs {
            state: Some(Rc::default()),
        }
    }

    /// The inert registry: every instrument is a no-op, every snapshot is
    /// empty. This is the compile-out configuration — instrumented code
    /// carries a branch on a constant `None` that release builds remove.
    pub fn noop() -> Self {
        Obs { state: None }
    }

    /// `false` for a [`Obs::noop`] handle.
    pub fn is_enabled(&self) -> bool {
        self.state.is_some()
    }

    fn with_state<T: Default>(&self, f: impl FnOnce(&mut State) -> T) -> T {
        match &self.state {
            Some(state) => f(&mut state.borrow_mut()),
            None => T::default(),
        }
    }

    /// Registers (or re-fetches) the counter `name`. Idempotent: the same
    /// name always resolves to the same cell.
    pub fn counter(&self, name: &'static str) -> Counter {
        self.counter_keyed(name, "")
    }

    /// A counter with a dynamic key dimension (a link, a replica id).
    /// The key string is interned here, at registration time — never on
    /// the record path.
    pub fn counter_keyed(&self, name: &'static str, key: &str) -> Counter {
        Counter {
            cell: self.state.as_ref().map(|state| {
                let mut state = state.borrow_mut();
                Rc::clone(state.counters.entry((name, key.to_owned())).or_default())
            }),
        }
    }

    /// Registers (or re-fetches) the gauge `name`.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        Gauge {
            cell: self
                .state
                .as_ref()
                .map(|state| Rc::clone(state.borrow_mut().gauges.entry(name).or_default())),
        }
    }

    /// Registers (or re-fetches) the histogram `name`.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        Histogram {
            cells: self
                .state
                .as_ref()
                .map(|state| Rc::clone(state.borrow_mut().histograms.entry(name).or_default())),
        }
    }

    /// Opens a span: `scope` is a static label ("replica.round"),
    /// `(request, round)` is the causal key, `tick` the caller's monotone
    /// clock. The request name is interned on first sight.
    pub fn span_start(&self, scope: &'static str, request: &str, round: u64, tick: u64) {
        self.with_state(|state| {
            let request = state.intern_request(request);
            state.spans.push(SpanRecord {
                scope,
                request,
                round,
                start_tick: tick,
                end_tick: None,
            });
        });
    }

    /// Closes the most recent open span with this `(scope, request,
    /// round)` key. An end without a matching start records an instant
    /// span at `tick` (robust against crashes and reordered observation).
    pub fn span_end(&self, scope: &'static str, request: &str, round: u64, tick: u64) {
        self.with_state(|state| {
            let request_sym = state.intern_request(request);
            let open = state.spans.iter_mut().rev().find(|s| {
                s.scope == scope
                    && s.request == request_sym
                    && s.round == round
                    && s.end_tick.is_none()
            });
            match open {
                Some(span) => span.end_tick = Some(tick),
                None => state.spans.push(SpanRecord {
                    scope,
                    request: request_sym,
                    round,
                    start_tick: tick,
                    end_tick: Some(tick),
                }),
            }
        });
    }

    /// Records an instant span (start == end) — a causal waypoint like a
    /// consensus decision landing.
    pub fn span_event(&self, scope: &'static str, request: &str, round: u64, tick: u64) {
        self.with_state(|state| {
            let request = state.intern_request(request);
            state.spans.push(SpanRecord {
                scope,
                request,
                round,
                start_tick: tick,
                end_tick: Some(tick),
            });
        });
    }

    /// A deterministic snapshot of everything recorded so far: entries
    /// sorted by `(name, key)`, spans resolved to owned strings and
    /// sorted into their canonical order. Two seeded runs that performed
    /// the same work produce byte-identical snapshots.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.with_state(|state| {
            let counters = state
                .counters
                .iter()
                .map(|((name, key), cell)| MetricEntry {
                    name: (*name).to_owned(),
                    key: key.clone(),
                    value: cell.get(),
                })
                .collect();
            let gauges = state
                .gauges
                .iter()
                .map(|(name, cell)| MetricEntry {
                    name: (*name).to_owned(),
                    key: String::new(),
                    value: cell.get(),
                })
                .collect();
            let histograms = state
                .histograms
                .iter()
                .map(|(name, cells)| MetricEntry {
                    name: (*name).to_owned(),
                    key: String::new(),
                    value: cells.snapshot(),
                })
                .collect();
            let mut spans: Vec<SpanSnap> = state
                .spans
                .iter()
                .map(|span| SpanSnap {
                    scope: span.scope.to_owned(),
                    request: state.requests[span.request as usize].as_ref().to_owned(),
                    round: span.round,
                    start_tick: span.start_tick,
                    end_tick: span.end_tick,
                })
                .collect();
            spans.sort();
            MetricsSnapshot {
                counters,
                gauges,
                histograms,
                spans,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_cells_by_name() {
        let obs = Obs::new();
        let a = obs.counter("hits");
        let b = obs.counter("hits");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(obs.snapshot().counter("hits"), Some(5));
    }

    #[test]
    fn keyed_instruments_are_distinct_per_key() {
        let obs = Obs::new();
        obs.counter_keyed("link.sent", "0->1").add(3);
        obs.counter_keyed("link.sent", "1->0").add(7);
        let snap = obs.snapshot();
        assert_eq!(snap.counter_with_key("link.sent", "0->1"), Some(3));
        assert_eq!(snap.counter_with_key("link.sent", "1->0"), Some(7));
        assert_eq!(snap.counter("link.sent"), None, "no empty-key entry");
    }

    #[test]
    fn gauges_set_and_adjust() {
        let obs = Obs::new();
        let depth = obs.gauge("queue.depth");
        depth.set(10);
        assert_eq!(obs.gauge("queue.depth").get(), 10, "one cell per name");
        depth.set(-3);
        assert_eq!(depth.get(), -3);
        assert_eq!(obs.snapshot().gauge("queue.depth"), Some(-3));
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        let obs = Obs::new();
        let h = obs.histogram("ticks");
        for v in [0, 1, 3, 4, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1032);
        let snap = obs.snapshot();
        let hist = &snap.histograms[0].value;
        assert_eq!(hist.buckets[0], 1);
        assert_eq!(hist.buckets[1], 1);
        assert_eq!(hist.buckets[2], 1);
        assert_eq!(hist.buckets[3], 1);
        assert_eq!(hist.buckets[11], 1);
        assert_eq!(hist.buckets.len(), 12, "trailing zero buckets trimmed");
    }

    #[test]
    fn noop_handles_record_nothing() {
        let obs = Obs::noop();
        assert!(!obs.is_enabled());
        let c = obs.counter("x");
        let g = obs.gauge("y");
        let h = obs.histogram("z");
        c.inc();
        g.set(9);
        h.record(3);
        obs.span_start("s", "r", 0, 1);
        obs.span_end("s", "r", 0, 2);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(obs.snapshot(), MetricsSnapshot::default());
        assert_eq!(Counter::noop().get(), 0);
        assert_eq!(Gauge::noop().get(), 0);
        assert_eq!(Histogram::noop().count(), 0);
        assert_eq!(Histogram::noop().sum(), 0);
    }

    #[test]
    fn spans_pair_by_scope_request_round() {
        let obs = Obs::new();
        obs.span_start("round", "req-0", 1, 100);
        obs.span_start("round", "req-0", 2, 150);
        obs.span_end("round", "req-0", 2, 200);
        obs.span_end("round", "req-0", 1, 300);
        obs.span_event("decide", "req-0", 1, 120);
        // End without start: recorded as an instant span, not dropped.
        obs.span_end("round", "req-9", 1, 400);
        let snap = obs.snapshot();
        assert_eq!(snap.spans.len(), 4);
        let r1 = snap
            .spans
            .iter()
            .find(|s| s.scope == "round" && s.round == 1 && s.request == "req-0")
            .expect("round 1 span");
        assert_eq!((r1.start_tick, r1.end_tick), (100, Some(300)));
        let orphan = snap.spans.iter().find(|s| s.request == "req-9").unwrap();
        assert_eq!((orphan.start_tick, orphan.end_tick), (400, Some(400)));
    }

    #[test]
    fn open_spans_survive_in_snapshots() {
        let obs = Obs::new();
        obs.span_start("round", "req-0", 1, 5);
        let snap = obs.snapshot();
        assert_eq!(snap.spans[0].end_tick, None);
    }

    #[test]
    fn clones_share_the_registry() {
        let obs = Obs::new();
        let clone = obs.clone();
        clone.counter("shared").inc();
        assert_eq!(obs.snapshot().counter("shared"), Some(1));
    }
}
