//! Two-stage pipelined online checking: an append stage that ingests
//! events and publishes immutable snapshot windows, feeding decide
//! workers that each own a disjoint group partition (DESIGN.md §12).
//!
//! The sequential online monitor interleaves two very different costs on
//! one thread: O(1) per-event attribution (the append stage) and the
//! per-group reduction searches a verdict needs (the decide stage). The
//! [`PipelinedMonitor`] splits them. The coordinator — the thread calling
//! [`observe_batch`](PipelinedMonitor::observe_batch) — keeps the full
//! sequential [`IncrementalState`] and pays only attribution; whenever a
//! window boundary passes it hands an immutable [`TraceSnapshot`] of the
//! shared store to N decide workers over bounded channels. Worker `w`
//! owns the groups with `symbol % N == w` — the same partition as
//! `FastChecker::check_sharded`, sound because reduction rules 18–20
//! never relate events across `(base action, input)` groups (DESIGN.md
//! §4.3) — and sends back the search outcomes of its changed groups as
//! installable [`GroupPrime`]s. The coordinator absorbs them into its
//! own memo cells, so a verdict finds the searches already decided.
//!
//! Priming is pure cache-warming: each memoized outcome is a pure
//! function of the group's event indices and the search budget, both
//! identical on every cursor over one stream. Verdicts are therefore
//! **byte-identical** — including reason strings — to the sequential
//! monitor at every published window, which `tests/pipeline_smoke.rs`
//! pins and `tests/pipeline_props.rs` property-tests. A stale prime (its
//! group gained events after the window closed) is refused by the
//! [`absorb_primes`](IncrementalState::absorb_primes) staleness guard
//! and recomputed on demand; a dead worker degrades the pipeline to the
//! sequential cost without changing any verdict.
//!
//! Backpressure is window-counted, never timed: at most
//! [`WINDOWS_IN_FLIGHT`] windows are outstanding per worker. Publishing
//! past that blocks the coordinator on absorbing the oldest slot — so
//! result queues are bounded by construction and workers never block on
//! sending. Absorb points are a pure function of the event/declare/
//! verdict sequence, keeping the attached metrics deterministic.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

use xability_core::xable::{GroupPrime, IncrementalState, SearchBudget, Verdict};
use xability_core::{ActionId, Event, Request, Value};
use xability_obs::{Counter, Histogram, Obs};
use xability_store::{TraceSnapshot, TraceStore};

/// Default events per published window. Large enough to amortize the
/// snapshot/channel hand-off, small enough that decide work starts while
/// the run is still ingesting.
pub const DEFAULT_WINDOW: usize = 1024;

/// Bounded hand-off depth: how many windows may be outstanding (sent but
/// not absorbed) per worker before the coordinator blocks on results.
pub const WINDOWS_IN_FLIGHT: usize = 2;

/// One published window: the immutable snapshot to read events from, the
/// prefix length the window closes at, and the requests declared since
/// the previous window (workers mirror the declared sequence to know
/// which groups are watched).
struct WindowMsg {
    snap: TraceSnapshot,
    upto: usize,
    declares: Vec<(ActionId, Value)>,
}

/// One worker's answer to one window: the prefix it decided and the
/// installable outcomes of its partition's changed groups.
struct WindowResult {
    upto: usize,
    primes: Vec<GroupPrime>,
}

struct Worker {
    /// Dropping the sender is the shutdown signal.
    to: Option<SyncSender<WindowMsg>>,
    from: Receiver<WindowResult>,
    handle: Option<JoinHandle<()>>,
}

/// Pipeline instruments: inert noop handles until
/// [`PipelinedMonitor::attach_obs`] binds them to a registry.
#[derive(Debug, Default)]
struct PipelineObs {
    /// Published windows (including verdict-time tail flushes).
    windows: Counter,
    /// Window occupancy: events per published window.
    window_events: Histogram,
    /// Decide lag at absorb time: events the coordinator consumed beyond
    /// the prefix the absorbed result decided.
    decide_lag: Histogram,
    /// Per-worker dirty-group count: primes carried by one result.
    worker_dirty: Histogram,
    /// Primes installed into the coordinator's memo cells.
    primes_absorbed: Counter,
    /// Primes refused by the staleness guard (group grew past the
    /// window; the memo is recomputed on demand instead).
    primes_stale: Counter,
}

impl PipelineObs {
    fn bind(obs: &Obs) -> Self {
        PipelineObs {
            windows: obs.counter("pipeline.windows"),
            window_events: obs.histogram("pipeline.window_events"),
            decide_lag: obs.histogram("pipeline.decide_lag_events"),
            worker_dirty: obs.histogram("pipeline.worker_dirty"),
            primes_absorbed: obs.counter("pipeline.primes_absorbed"),
            primes_stale: obs.counter("pipeline.primes_stale"),
        }
    }
}

/// The pipelined online R3 monitor: a sequential [`IncrementalState`]
/// coordinator plus N decide workers fed immutable snapshot windows.
///
/// Drives exactly like the sequential monitor — declare requests,
/// [`observe_batch`](Self::observe_batch) events, ask
/// [`verdict_over`](Self::verdict_over) at any prefix — with one
/// addition: after pushing observed events into the shared
/// [`TraceStore`], call [`publish`](Self::publish) so completed windows
/// flow to the workers ([`Ledger`](crate::Ledger) does this per record
/// call in its pipelined mode). Verdicts are byte-identical to the
/// sequential monitor's; see the module docs for the argument.
///
/// # Examples
///
/// ```
/// use xability_core::{ActionId, ActionName, Event, Value};
/// use xability_services::pipeline::PipelinedMonitor;
/// use xability_store::TraceStore;
///
/// let get = ActionId::base(ActionName::idempotent("get"));
/// let mut store = TraceStore::new();
/// let mut monitor = PipelinedMonitor::with_config(2, 1, Default::default());
/// monitor.declare(get.clone(), Value::from(1));
///
/// let events = [
///     Event::start(get.clone(), Value::from(1)),
///     Event::complete(get, Value::from(42)),
/// ];
/// monitor.observe_batch(&events);
/// store.push_batch(&events);
/// monitor.publish(&store);
/// assert!(monitor.verdict_over(&store).is_xable());
/// ```
#[derive(Debug)]
pub struct PipelinedMonitor {
    state: IncrementalState,
    window: usize,
    /// Prefix length already published to the workers.
    published: usize,
    /// Windows sent (one message per worker each).
    sent: usize,
    /// Window slots fully absorbed (one result per worker each).
    absorbed: usize,
    /// The declared sequence, kept for shipping to workers.
    declares: Vec<(ActionId, Value)>,
    /// How many of `declares` every worker has received.
    shipped: usize,
    workers: Vec<Worker>,
    obs: PipelineObs,
}

impl std::fmt::Debug for Worker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Worker").finish_non_exhaustive()
    }
}

fn worker_loop(
    shard: usize,
    shards: usize,
    budget: SearchBudget,
    windows: Receiver<WindowMsg>,
    results: SyncSender<WindowResult>,
) {
    let mut state = IncrementalState::with_budget(budget);
    let mut exported: Vec<usize> = Vec::new();
    let mut batch: Vec<Event> = Vec::new();
    while let Ok(msg) = windows.recv() {
        for (action, input) in msg.declares {
            state.declare(action, input);
        }
        batch.clear();
        let mut cursor = state.consumed();
        while cursor < msg.upto {
            batch.push(msg.snap.event(cursor));
            cursor += 1;
        }
        state.observe_batch(&batch);
        let primes = state.export_primes(&msg.snap.view(), shard, shards, &mut exported);
        if results
            .send(WindowResult {
                upto: msg.upto,
                primes,
            })
            .is_err()
        {
            // The coordinator is gone (dropped mid-run); nothing left to
            // decide for.
            return;
        }
    }
}

impl PipelinedMonitor {
    /// A pipelined monitor with `workers` decide workers, the default
    /// window size, and the fast tier's default per-group budget.
    pub fn new(workers: usize) -> Self {
        PipelinedMonitor::with_config(workers, DEFAULT_WINDOW, SearchBudget::small())
    }

    /// A pipelined monitor with an explicit window size (events per
    /// published window) and per-group search budget. `workers` and
    /// `window` are clamped to at least 1. Every worker runs the same
    /// `budget` as the coordinator — a requirement of the byte-identical
    /// merge, enforced here by construction.
    pub fn with_config(workers: usize, window: usize, budget: SearchBudget) -> Self {
        let shards = workers.max(1);
        let mut handles = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (window_tx, window_rx) = sync_channel(WINDOWS_IN_FLIGHT);
            let (result_tx, result_rx) = sync_channel(WINDOWS_IN_FLIGHT);
            let handle = std::thread::Builder::new()
                .name(format!("xpipe-decide-{shard}"))
                .spawn(move || worker_loop(shard, shards, budget, window_rx, result_tx))
                .expect("spawning a pipeline decide worker thread failed");
            handles.push(Worker {
                to: Some(window_tx),
                from: result_rx,
                handle: Some(handle),
            });
        }
        PipelinedMonitor {
            state: IncrementalState::with_budget(budget),
            window: window.max(1),
            published: 0,
            sent: 0,
            absorbed: 0,
            declares: Vec::new(),
            shipped: 0,
            workers: handles,
            obs: PipelineObs::default(),
        }
    }

    /// Binds the pipeline instruments (window occupancy, decide-lag and
    /// per-worker dirty histograms, prime counters) and the coordinator
    /// state's checker instruments to a shared metrics registry.
    pub fn attach_obs(&mut self, obs: &Obs) {
        self.obs = PipelineObs::bind(obs);
        self.state.attach_obs(obs);
    }

    /// The number of decide workers.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The window size: events per published window.
    pub fn window(&self) -> usize {
        self.window
    }

    /// The cursor position: how many events have been consumed.
    pub fn consumed(&self) -> usize {
        self.state.consumed()
    }

    /// How many requests have been declared.
    pub fn declared_len(&self) -> usize {
        self.state.declared_len()
    }

    /// The declared request sequence, in declaration order (see
    /// [`IncrementalState::requests`]).
    pub fn requests(&self) -> impl Iterator<Item = (ActionId, Value)> + '_ {
        self.state.requests()
    }

    /// Appends an expected request to the declared R3 sequence; workers
    /// receive it with the next published window.
    pub fn declare(&mut self, action: ActionId, input: Value) {
        self.state.declare(action.clone(), input.clone());
        self.declares.push((action, input));
    }

    /// Appends an expected [`Request`] to the declared R3 sequence.
    pub fn declare_request(&mut self, request: &Request) {
        self.declare(request.action().clone(), request.input().clone());
    }

    /// Consumes the next event of the stream (append-stage attribution
    /// only — windows flow to the workers on [`publish`](Self::publish)).
    pub fn observe(&mut self, event: &Event) {
        self.state.observe(event);
    }

    /// Consumes a slice of events in one batch-amortized pass.
    pub fn observe_batch(&mut self, events: &[Event]) {
        self.state.observe_batch(events);
    }

    /// Publishes every window boundary the consumed prefix has passed.
    /// `store` must hold at least the consumed prefix (it is the stream
    /// this monitor observes). Blocks only when more than
    /// [`WINDOWS_IN_FLIGHT`] windows would be outstanding — the
    /// backpressure policy — absorbing the oldest results first.
    pub fn publish(&mut self, store: &TraceStore) {
        debug_assert!(
            store.len() >= self.state.consumed(),
            "publish: the store must hold the consumed prefix"
        );
        while self.published + self.window <= self.state.consumed() {
            let upto = self.published + self.window;
            self.send_window(store, upto);
        }
    }

    /// Sends one window ending at `upto` to every worker, absorbing old
    /// results first if the hand-off is at capacity.
    fn send_window(&mut self, store: &TraceStore, upto: usize) {
        while self.sent - self.absorbed >= WINDOWS_IN_FLIGHT {
            self.absorb_slot();
        }
        let declares = &self.declares[self.shipped..];
        let snap = store.snapshot();
        for worker in &self.workers {
            let Some(to) = &worker.to else { continue };
            // A send error means the worker died; absorb_slot tolerates
            // the matching missing result and verdicts stay correct (the
            // coordinator recomputes cold memos itself).
            let _ = to.send(WindowMsg {
                snap: snap.clone(),
                upto,
                declares: declares.to_vec(),
            });
        }
        self.shipped = self.declares.len();
        self.sent += 1;
        self.obs.windows.inc();
        self.obs
            .window_events
            .record((upto - self.published) as u64);
        self.published = upto;
    }

    /// Receives one window slot's results — one per worker, in worker
    /// order — and installs their primes.
    fn absorb_slot(&mut self) {
        let consumed = self.state.consumed();
        for worker in &self.workers {
            let Ok(result) = worker.from.recv() else {
                // Worker died (panic): degrade to sequential computation.
                continue;
            };
            self.obs.decide_lag.record((consumed - result.upto) as u64);
            self.obs.worker_dirty.record(result.primes.len() as u64);
            let installed = self.state.absorb_primes(&result.primes);
            self.obs.primes_absorbed.add(installed as u64);
            self.obs
                .primes_stale
                .add((result.primes.len() - installed) as u64);
        }
        self.absorbed += 1;
    }

    /// The R3 verdict for the consumed prefix: flushes the tail window
    /// (a partial window ending exactly at the prefix), waits for every
    /// outstanding result, absorbs the primes, and assembles the verdict
    /// sequentially — byte-identical to
    /// [`IncrementalState::verdict_over`] on the same prefix and
    /// declared sequence.
    pub fn verdict_over(&mut self, store: &TraceStore) -> Verdict {
        self.publish(store);
        if self.published < self.state.consumed() {
            let upto = self.state.consumed();
            self.send_window(store, upto);
        }
        while self.absorbed < self.sent {
            self.absorb_slot();
        }
        self.state.verdict_over(&store.view())
    }
}

impl Drop for PipelinedMonitor {
    fn drop(&mut self) {
        for worker in &mut self.workers {
            // Closing the window channel is the shutdown signal. Workers
            // never block sending results (bounded by WINDOWS_IN_FLIGHT),
            // so they always reach the closed-channel recv and exit.
            worker.to = None;
            while worker.from.try_recv().is_ok() {}
            if let Some(handle) = worker.handle.take() {
                // A worker that panicked already surfaced its failure as
                // degraded (sequential) verdicts; joining its panic here
                // would abort an otherwise-clean drop path.
                let _ = handle.join();
            }
        }
    }
}
