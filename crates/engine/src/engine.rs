//! The engine proper: catalog, pool, cache, planner, metrics, sessions.

use crate::cache::ContextCache;
use crate::metrics::{EngineMetrics, MetricsSnapshot};
use crate::planner::{Algorithm, Planner};
use crate::pool::{TrySubmitError, WorkerPool, WorkerState};
use crate::snapshot::{Snapshot, SnapshotCatalog, StaleSnapshot};
use crate::sync::{
    lock_unpoisoned, wait_timeout_unpoisoned, wait_unpoisoned, RankedMutex, RANK_DIAGRAM,
    RANK_DIAGRAM_BUILDERS, RANK_ENGINE_REINDEX, RANK_HOT_KEYS, RANK_SESSION_MAP,
    RANK_SESSION_PENDING, RANK_SESSION_SKY,
};
use ssq_core::{
    b2s2_kernel, bbs, naive_sorted_kernel, vs2_kernel, ContinuousSkyline, DeltaStats,
    DistanceScratch, QueryContext, QueryKey, QueryStats, RTreeIndex, SkylineResult, UpdateBatch,
    UpdateOutcome, VoronoiIndex,
};
use ssq_diagram::{DiagramConfig, SkylineDiagram};
use ssq_geom::Point;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Anchor-count hint used to pre-size worker scratch arenas at spawn:
/// covers every workload the benches and tests run (2–8 anchors) so the
/// first query on a worker allocates nothing; wider queries simply grow
/// the arena once, exactly as before.
const PRESIZE_ANCHOR_WIDTH: usize = 8;

/// Engine construction / submission errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The dataset was empty — there is nothing to index or serve.
    EmptyDataset,
    /// [`EngineConfig::workers`] was zero — a pool with no workers would
    /// accept jobs that can never run.
    ZeroWorkers,
    /// [`EngineConfig::queue_capacity`] was zero — every submission would
    /// deadlock waiting for queue space that cannot exist.
    ZeroQueueCapacity,
    /// [`EngineConfig::cache_capacity`] was zero — the LRU cache needs at
    /// least one slot.
    ZeroCacheCapacity,
    /// [`EngineConfig::ingest_capacity`] was zero — every [`Engine::ingest`]
    /// would deadlock waiting for queue space that cannot exist.
    ZeroIngestCapacity,
    /// [`EngineConfig::cache_quantum`] was zero, negative, or NaN — the
    /// cache-key grid needs a positive cell size.
    InvalidCacheQuantum,
    /// The Voronoi index could not be built (duplicate or non-finite
    /// points); the message is the underlying builder's.
    Index(String),
    /// An offered snapshot was not newer than the published one — the
    /// catalog refuses to roll the dataset backwards.
    Stale(StaleSnapshot),
    /// The engine is shutting down and no longer accepts work.
    Closed,
    /// The job queue was at capacity when [`Engine::try_submit`] ran —
    /// the admission-control signal: shed the request (e.g. answer
    /// `RetryLater` over the wire) instead of blocking on
    /// [`Engine::submit`].
    QueueFull,
    /// The session id is unknown (never opened, or already closed).
    NoSuchSession,
    /// A skyline-diagram operation failed: an invalid
    /// [`DiagramConfig`], or a diagram call on an engine whose diagram
    /// is disabled.
    Diagram(String),
    /// The OS refused to spawn a worker thread; the message is the
    /// underlying `io::Error`'s.
    Spawn(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::EmptyDataset => write!(f, "cannot serve an empty dataset"),
            EngineError::ZeroWorkers => write!(f, "config: workers must be nonzero"),
            EngineError::ZeroQueueCapacity => {
                write!(f, "config: queue capacity must be nonzero")
            }
            EngineError::ZeroCacheCapacity => {
                write!(f, "config: cache capacity must be nonzero")
            }
            EngineError::ZeroIngestCapacity => {
                write!(f, "config: ingest queue capacity must be nonzero")
            }
            EngineError::InvalidCacheQuantum => {
                write!(f, "config: cache quantum must be positive and finite")
            }
            EngineError::Index(msg) => write!(f, "index build failed: {msg}"),
            EngineError::Stale(stale) => write!(f, "{stale}"),
            EngineError::Closed => write!(f, "engine is shut down"),
            EngineError::QueueFull => write!(f, "engine job queue is full"),
            EngineError::NoSuchSession => write!(f, "unknown session id"),
            EngineError::Diagram(msg) => write!(f, "skyline diagram: {msg}"),
            EngineError::Spawn(msg) => write!(f, "failed to spawn worker thread: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Tuning knobs for [`Engine::new`].
///
/// Validated at engine construction by [`EngineConfig::validate`]: zero
/// workers, a zero queue or cache capacity, and a non-positive cache
/// quantum are rejected with typed [`EngineError`]s instead of panicking
/// deep inside the pool or cache constructors.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker threads (must be nonzero; the default is one per available
    /// CPU core).
    pub workers: usize,
    /// Bounded job-queue capacity (backpressure threshold).
    pub queue_capacity: usize,
    /// Bounded ingest-queue capacity: delta batches waiting for the
    /// ingestor thread. [`Engine::try_ingest`] sheds past this bound.
    pub ingest_capacity: usize,
    /// Maximum cached query contexts.
    pub cache_capacity: usize,
    /// Coordinate quantum for the cache key
    /// ([`ContextCache::DEFAULT_QUANTUM`] merges only fp noise).
    pub cache_quantum: f64,
    /// Pin every query to one algorithm instead of planning adaptively.
    pub forced_algorithm: Option<Algorithm>,
    /// Enable the materialized skyline diagram with these knobs; `None`
    /// (the default) serves every query through the planner.
    pub diagram: Option<DiagramConfig>,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            queue_capacity: 1024,
            ingest_capacity: 64,
            cache_capacity: 128,
            cache_quantum: ContextCache::DEFAULT_QUANTUM,
            forced_algorithm: None,
            diagram: None,
        }
    }
}

impl EngineConfig {
    /// This config with exactly `workers` worker threads.
    pub fn with_workers(mut self, workers: usize) -> EngineConfig {
        self.workers = workers;
        self
    }

    /// This config with an ingest queue of at most `capacity` batches.
    pub fn with_ingest_capacity(mut self, capacity: usize) -> EngineConfig {
        self.ingest_capacity = capacity;
        self
    }

    /// This config with every query pinned to `algorithm`.
    pub fn with_forced_algorithm(mut self, algorithm: Algorithm) -> EngineConfig {
        self.forced_algorithm = Some(algorithm);
        self
    }

    /// This config with the skyline diagram enabled.
    pub fn with_diagram(mut self, diagram: DiagramConfig) -> EngineConfig {
        self.diagram = Some(diagram);
        self
    }

    /// Checks every knob, returning the first violation as a typed error.
    pub fn validate(&self) -> Result<(), EngineError> {
        if self.workers == 0 {
            return Err(EngineError::ZeroWorkers);
        }
        if self.queue_capacity == 0 {
            return Err(EngineError::ZeroQueueCapacity);
        }
        if self.ingest_capacity == 0 {
            return Err(EngineError::ZeroIngestCapacity);
        }
        if self.cache_capacity == 0 {
            return Err(EngineError::ZeroCacheCapacity);
        }
        if !(self.cache_quantum > 0.0 && self.cache_quantum.is_finite()) {
            return Err(EngineError::InvalidCacheQuantum);
        }
        if let Some(diagram) = &self.diagram {
            diagram.validate().map_err(EngineError::Diagram)?;
        }
        Ok(())
    }
}

/// One spatial skyline query headed for the pool.
#[derive(Clone, Debug)]
pub struct QueryRequest {
    /// The query set `Q` (at least one point).
    pub query: Vec<Point>,
    /// Per-request algorithm override; beats the engine-wide force.
    pub force: Option<Algorithm>,
}

impl QueryRequest {
    /// A request served by whatever the planner picks.
    pub fn new(query: Vec<Point>) -> QueryRequest {
        QueryRequest { query, force: None }
    }

    /// A request pinned to `algorithm`.
    pub fn forced(query: Vec<Point>, algorithm: Algorithm) -> QueryRequest {
        QueryRequest {
            query,
            force: Some(algorithm),
        }
    }
}

/// How a [`QueryResponse`] was produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServedBy {
    /// An algorithm ran, with a query context built for this request.
    Planner,
    /// An algorithm ran, with a context from the context cache.
    Cache,
    /// Copied straight from a materialized skyline-diagram cell — no
    /// algorithm ran, so the response's `stats` are zero and its
    /// `algorithm` reports what the planner *would* have picked.
    Diagram,
}

impl ServedBy {
    /// A short lowercase label (`planner` / `cache` / `diagram`).
    pub fn as_str(self) -> &'static str {
        match self {
            ServedBy::Planner => "planner",
            ServedBy::Cache => "cache",
            ServedBy::Diagram => "diagram",
        }
    }
}

impl std::fmt::Display for ServedBy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The answer to one [`QueryRequest`].
#[derive(Clone, Debug)]
pub struct QueryResponse {
    /// Skyline point ids, ascending — indexes into the points of the
    /// snapshot generation this response reports.
    pub skyline: Vec<u32>,
    /// The snapshot generation the query was answered against. Pinned
    /// when a worker dequeues the job, so a response is always exactly
    /// correct for this generation's dataset even if a swap landed
    /// mid-flight.
    pub generation: u64,
    /// The algorithm that ran (or, for a diagram hit, would have run).
    pub algorithm: Algorithm,
    /// Which serving path produced the answer.
    pub served_by: ServedBy,
    /// End-to-end service time (probe + cache lookup + algorithm),
    /// excluding queue wait.
    pub latency: Duration,
    /// The algorithm's work counters.
    pub stats: QueryStats,
}

impl QueryResponse {
    /// Whether the query context came from the context cache (the
    /// pre-diagram name for `served_by == ServedBy::Cache`).
    pub fn cache_hit(&self) -> bool {
        self.served_by == ServedBy::Cache
    }
}

/// Notice that a continuous session's pinned snapshot generation is no
/// longer the engine's current one: a reindex was published since the
/// session opened. The session keeps answering — exactly, against its
/// pinned generation, whose indexes its `Arc` keeps alive — but callers
/// that want fresh data should close it and re-open against the current
/// generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotSuperseded {
    /// The generation the session pinned at open.
    pub pinned: u64,
    /// The generation the engine serves now.
    pub current: u64,
}

/// The result of one applied motion update in a continuous session.
#[derive(Clone, Debug)]
pub struct SessionUpdate {
    /// How VCS² classified the update (pattern I–V machinery).
    pub outcome: UpdateOutcome,
    /// The session's skyline after this update, ascending — indexes
    /// into the session's pinned generation.
    pub skyline: Vec<u32>,
    /// The snapshot generation this session is pinned to.
    pub generation: u64,
    /// `Some` when a newer snapshot has been published since the
    /// session opened — the resubscription signal.
    pub superseded: Option<SnapshotSuperseded>,
    /// Work counters for this update.
    pub stats: QueryStats,
}

/// A one-shot slot a worker fills and a caller waits on.
pub struct Ticket<T> {
    cell: Arc<Cell<T>>,
}

struct Cell<T> {
    slot: Mutex<Option<T>>,
    ready: Condvar,
}

impl<T> Ticket<T> {
    fn new() -> (Ticket<T>, Arc<Cell<T>>) {
        let cell = Arc::new(Cell {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        });
        (
            Ticket {
                cell: Arc::clone(&cell),
            },
            cell,
        )
    }

    /// Creates an unsubmitted ticket together with its producing half.
    ///
    /// Everything the engine hands out resolves through a `Ticket`; this
    /// constructor lets layers *outside* the worker pool — the network
    /// front-end driving a sharded-router fan-out on its own dispatcher
    /// threads — complete work through the same primitive, so every
    /// completion path looks identical to a waiting caller.
    pub fn pair() -> (Ticket<T>, TicketFiller<T>) {
        let (ticket, cell) = Ticket::new();
        (ticket, TicketFiller { cell })
    }

    /// Blocks until the worker delivers, consuming the ticket.
    pub fn wait(self) -> T {
        let mut slot = lock_unpoisoned(&self.cell.slot);
        loop {
            if let Some(value) = slot.take() {
                return value;
            }
            slot = wait_unpoisoned(&self.cell.ready, slot);
        }
    }

    /// Like [`Ticket::wait`] but gives up after `timeout`, handing the
    /// ticket back so the caller can retry, escalate, or abandon it.
    ///
    /// This is how clients — and the shard router — bound their exposure
    /// to a wedged or overloaded worker instead of blocking forever: a
    /// timed-out ticket is still live, and the worker's eventual `fill`
    /// is not lost.
    pub fn wait_timeout(self, timeout: Duration) -> Result<T, Ticket<T>> {
        let deadline = Instant::now() + timeout;
        let cell = Arc::clone(&self.cell);
        let mut slot = lock_unpoisoned(&cell.slot);
        loop {
            if let Some(value) = slot.take() {
                return Ok(value);
            }
            let now = Instant::now();
            if now >= deadline {
                drop(slot);
                return Err(self);
            }
            slot = wait_timeout_unpoisoned(&cell.ready, slot, deadline - now).0;
        }
    }

    /// `true` once the result is available (`wait` will not block).
    pub fn is_ready(&self) -> bool {
        lock_unpoisoned(&self.cell.slot).is_some()
    }
}

impl<T> Cell<T> {
    fn fill(&self, value: T) {
        *lock_unpoisoned(&self.slot) = Some(value);
        self.ready.notify_all();
    }
}

/// The producing half of [`Ticket::pair`]: delivers the value exactly
/// once, waking every waiter. Dropping the filler unfilled abandons the
/// ticket — its `wait` would block forever, so use `wait_timeout` when
/// the producer might disappear.
pub struct TicketFiller<T> {
    cell: Arc<Cell<T>>,
}

impl<T> TicketFiller<T> {
    /// Delivers `value`, consuming the filler (a ticket is one-shot).
    pub fn fill(self, value: T) {
        self.cell.fill(value);
    }
}

/// Handle for a submitted snapshot query.
pub type QueryHandle = Ticket<QueryResponse>;
/// Handle for a submitted session update.
pub type UpdateHandle = Ticket<SessionUpdate>;
/// Handle for a submitted batch: resolves to one [`QueryResponse`] per
/// request, in submission order.
pub type BatchTicket = Ticket<Vec<QueryResponse>>;
/// Handle for a queued delta batch: resolves once the ingestor thread
/// has published (or rejected) the batch. Batches apply in submission
/// order; a rejected batch (validation failure against the generation
/// it reached) does not stop the ones queued behind it.
pub type IngestHandle = Ticket<Result<IngestReport, EngineError>>;

/// What publishing one [`UpdateBatch`] as a new generation cost.
#[derive(Clone, Debug)]
pub struct IngestReport {
    /// The generation the batch produced.
    pub generation: u64,
    /// What the delta build actually did (incremental vs full rebuild,
    /// dirty-cell count).
    pub stats: DeltaStats,
    /// Wall-clock duration of the delta build + install.
    pub build: Duration,
}

/// The ingest queue shared between producers, the ingestor thread, and
/// [`Ingestor`]'s drop. Deliberately a *raw* `Mutex`: it is never held
/// across any ranked lock (batches are popped, then the lock dropped
/// before the publish takes `engine.reindex`), so it stays out of the
/// engine's documented rank table.
struct IngestShared {
    state: Mutex<IngestState>,
    /// Signalled when a batch is pushed or the queue closes (the
    /// ingestor thread waits on this).
    added: Condvar,
    /// Signalled when a batch is popped (blocked producers wait).
    space: Condvar,
}

/// One queued delta batch paired with the ticket cell its publish
/// report (or error) resolves.
type QueuedBatch = (UpdateBatch, Arc<Cell<Result<IngestReport, EngineError>>>);

struct IngestState {
    queue: VecDeque<QueuedBatch>,
    closed: bool,
}

/// Owns the ingest queue and the lazily spawned ingestor thread. Closing
/// (on engine shutdown or drop) drains every accepted batch — mirroring
/// the worker pool's contract that accepted work still runs — then joins
/// the thread.
struct Ingestor {
    shared: Arc<IngestShared>,
    capacity: usize,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl Ingestor {
    fn new(capacity: usize) -> Ingestor {
        Ingestor {
            shared: Arc::new(IngestShared {
                state: Mutex::new(IngestState {
                    queue: VecDeque::new(),
                    closed: false,
                }),
                added: Condvar::new(),
                space: Condvar::new(),
            }),
            capacity,
            worker: Mutex::new(None),
        }
    }

    fn close_and_join(&self) {
        {
            let mut st = lock_unpoisoned(&self.shared.state);
            st.closed = true;
        }
        self.shared.added.notify_all();
        self.shared.space.notify_all();
        if let Some(handle) = lock_unpoisoned(&self.worker).take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Ingestor {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

/// The ingestor thread: pops batches in FIFO order and publishes each as
/// the next generation. On close, accepted batches drain before exit, so
/// no [`IngestHandle`] is ever abandoned.
fn ingest_loop(shared: &Arc<EngineShared>, q: &IngestShared) {
    loop {
        let (batch, cell) = {
            let mut st = lock_unpoisoned(&q.state);
            loop {
                if let Some(item) = st.queue.pop_front() {
                    break item;
                }
                if st.closed {
                    return;
                }
                st = wait_unpoisoned(&q.added, st);
            }
        };
        q.space.notify_one();
        cell.fill(publish_delta(shared, &batch));
    }
}

/// The single publish path for delta batches, shared by the synchronous
/// [`Engine::apply_delta`] and the ingestor thread: serialize under the
/// reindex lock, build the next generation copy-on-write, install it,
/// record the publish cost, retire the diagram.
fn publish_delta(
    shared: &Arc<EngineShared>,
    batch: &UpdateBatch,
) -> Result<IngestReport, EngineError> {
    let _guard = shared.reindex_lock.lock();
    let start = Instant::now();
    let (snapshot, stats) = shared
        .catalog
        .apply_delta(batch)
        .map_err(EngineError::Index)?;
    let build = start.elapsed();
    let generation = snapshot.generation();
    shared.metrics.record_swap(generation, build);
    shared.metrics.record_ingest(&stats, build);
    retire_diagram(shared);
    Ok(IngestReport {
        generation,
        stats,
        build,
    })
}

/// Identifies one continuous (VCS²) session.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(u64);

type PendingUpdate = (usize, Point, Arc<Cell<SessionUpdate>>);

struct Pending {
    updates: VecDeque<PendingUpdate>,
    /// `true` while a drain job for this session is queued or running —
    /// at most one at a time, so updates apply in submission order.
    scheduled: bool,
}

struct Session {
    /// The snapshot generation this session pinned at open. The
    /// `ContinuousSkyline` below holds the generation's Voronoi index
    /// alive; this field is what lets update results report it and
    /// compare it against the catalog's current generation.
    generation: u64,
    sky: RankedMutex<ContinuousSkyline<Arc<VoronoiIndex>>>,
    pending: RankedMutex<Pending>,
}

/// The published skyline diagram and its knobs. `config` is `None`
/// while the diagram is disabled (the default); `current` is `None`
/// until the first build publishes, and is cleared — the diagram
/// retires with its snapshot — whenever a new generation installs.
struct DiagramState {
    config: Option<DiagramConfig>,
    current: Option<Arc<SkylineDiagram>>,
    /// [`HotKeys::build_seq`] of the key snapshot the published diagram
    /// was built from. Two builders can race on the *same* generation
    /// (a slow background build spawned earlier vs. a synchronous
    /// [`Engine::rebuild_diagram`]); last-write-wins would let the one
    /// holding the staler key snapshot clobber the fresher diagram, so
    /// publication requires a strictly newer key sequence instead.
    keys_seq: u64,
}

/// Canonical query keys seen missing the diagram, with hit counts —
/// the materialization candidates for the next diagram build.
struct HotKeys {
    counts: HashMap<QueryKey, u64>,
    /// Keys recorded since the last build consumed this tracker; the
    /// background-rebuild trigger.
    since_build: u64,
    /// Monotone counter of key snapshots taken by diagram builds,
    /// incremented under this lock together with the
    /// [`HotKeys::hottest`] read — so seq order *is* key-freshness
    /// order, and a publish guarded on it can never replace a diagram
    /// with one built from staler keys.
    build_seq: u64,
}

impl HotKeys {
    /// Distinct keys tracked at most; new keys beyond this are dropped
    /// (existing ones keep counting) so one scan of cold shapes cannot
    /// evict genuinely hot keys.
    const CAP: usize = 4096;
    /// Misses recorded since the last build that trigger a background
    /// rebuild.
    const REBUILD_AFTER: u64 = 32;

    fn new() -> HotKeys {
        HotKeys {
            counts: HashMap::new(),
            since_build: 0,
            build_seq: 0,
        }
    }

    /// Counts one miss on `key`; `true` when enough misses accumulated
    /// that a rebuild is worth scheduling.
    fn record(&mut self, key: QueryKey) -> bool {
        if self.counts.len() >= Self::CAP && !self.counts.contains_key(&key) {
            return false;
        }
        *self.counts.entry(key).or_insert(0) += 1;
        self.since_build += 1;
        self.since_build >= Self::REBUILD_AFTER
    }

    /// The hottest `limit` keys, most-counted first.
    fn hottest(&self, limit: usize) -> Vec<QueryKey> {
        let mut ranked: Vec<(&QueryKey, u64)> = self.counts.iter().map(|(k, &c)| (k, c)).collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cells().cmp(b.0.cells())));
        ranked
            .into_iter()
            .take(limit)
            .map(|(k, _)| k.clone())
            .collect()
    }
}

struct EngineShared {
    /// Owns the *current* dataset generation. Workers pin a snapshot
    /// here at dequeue time; nothing else in the engine holds indexes.
    catalog: SnapshotCatalog,
    /// Serializes [`Engine::reindex`] calls so two concurrent builds
    /// cannot race for the same generation number. Never held on the
    /// query path.
    reindex_lock: RankedMutex<()>,
    cache: ContextCache,
    planner: Planner,
    metrics: EngineMetrics,
    sessions: RankedMutex<HashMap<u64, Arc<Session>>>,
    next_session: AtomicU64,
    diagram: RankedMutex<DiagramState>,
    hot_keys: RankedMutex<HotKeys>,
    /// Join handles of background diagram builders; finished handles are
    /// pruned on each spawn, the rest joined at shutdown.
    builders: RankedMutex<Vec<JoinHandle<()>>>,
    /// `true` while a background diagram build is in flight — at most
    /// one at a time, so a burst of misses schedules one rebuild.
    diagram_building: AtomicBool,
}

/// A concurrent spatial-skyline serving engine over a versioned dataset
/// snapshot catalog. See the [crate docs](crate) for the architecture.
pub struct Engine {
    shared: Arc<EngineShared>,
    pool: WorkerPool,
    ingestor: Ingestor,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("data_len", &self.data_len())
            .field("workers", &self.workers())
            .field("open_sessions", &self.open_sessions())
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Builds generation 0's indexes over `points` and starts the pool.
    ///
    /// `points` must be non-empty, finite, and duplicate-free (the
    /// Voronoi builder's requirements), and `config` must pass
    /// [`EngineConfig::validate`].
    pub fn new(points: &[Point], config: EngineConfig) -> Result<Engine, EngineError> {
        config.validate()?;
        if points.is_empty() {
            return Err(EngineError::EmptyDataset);
        }
        let snapshot = Snapshot::build(0, points).map_err(EngineError::Index)?;
        Self::with_snapshot(Arc::new(snapshot), config)
    }

    /// Starts an engine over pre-built indexes (they can be shared with
    /// other engines or with code outside the engine) as generation 0.
    pub fn with_indexes(
        rtree: Arc<RTreeIndex>,
        voronoi: Arc<VoronoiIndex>,
        config: EngineConfig,
    ) -> Result<Engine, EngineError> {
        assert_eq!(
            rtree.len(),
            voronoi.len(),
            "R-tree and Voronoi snapshots index different datasets"
        );
        Self::with_snapshot(Arc::new(Snapshot::from_indexes(0, rtree, voronoi)), config)
    }

    /// Starts an engine serving `snapshot` (any generation) as the
    /// catalog's initial publication.
    pub fn with_snapshot(
        snapshot: Arc<Snapshot>,
        config: EngineConfig,
    ) -> Result<Engine, EngineError> {
        config.validate()?;
        if snapshot.is_empty() {
            return Err(EngineError::EmptyDataset);
        }
        let metrics = EngineMetrics::new();
        metrics.note_generation(snapshot.generation());
        // Pre-size every worker's scratch arena for the worst-case row
        // count (the naive kernel pushes one row per data point) so the
        // first query a worker serves runs growth-free instead of paying
        // the whole arena allocation inside its timed hot path.
        let scratch_rows = snapshot.len();
        let shared = Arc::new(EngineShared {
            catalog: SnapshotCatalog::new(snapshot),
            reindex_lock: RankedMutex::new("engine.reindex", RANK_ENGINE_REINDEX, ()),
            cache: ContextCache::new(config.cache_capacity, config.cache_quantum),
            planner: Planner::new(config.forced_algorithm),
            metrics,
            sessions: RankedMutex::new("engine.sessions", RANK_SESSION_MAP, HashMap::new()),
            next_session: AtomicU64::new(0),
            diagram: RankedMutex::new(
                "engine.diagram",
                RANK_DIAGRAM,
                DiagramState {
                    config: None,
                    current: None,
                    keys_seq: 0,
                },
            ),
            hot_keys: RankedMutex::new("engine.hotkeys", RANK_HOT_KEYS, HotKeys::new()),
            builders: RankedMutex::new(
                "engine.diagram.builders",
                RANK_DIAGRAM_BUILDERS,
                Vec::new(),
            ),
            diagram_building: AtomicBool::new(false),
        });
        let pool = WorkerPool::presized(
            config.workers,
            config.queue_capacity,
            scratch_rows,
            PRESIZE_ANCHOR_WIDTH,
        )
        .map_err(|e| EngineError::Spawn(e.to_string()))?;
        let engine = Engine {
            shared,
            pool,
            ingestor: Ingestor::new(config.ingest_capacity),
        };
        if let Some(diagram) = config.diagram {
            engine.enable_diagram(diagram)?;
        }
        Ok(engine)
    }

    /// The `(name, rank)` pairs of the engine's long-lived locks in
    /// ascending rank order — diagram builders, catalog, diagram, hot
    /// keys, context cache, session map, metrics. Exposed so tests can
    /// assert the lock-order table the [`sync`](crate::sync) module
    /// documents.
    pub fn lock_ranks(&self) -> [(&'static str, u32); 7] {
        [
            (self.shared.builders.name(), self.shared.builders.rank()),
            self.shared.catalog.lock_info(),
            (self.shared.diagram.name(), self.shared.diagram.rank()),
            (self.shared.hot_keys.name(), self.shared.hot_keys.rank()),
            self.shared.cache.lock_info(),
            (self.shared.sessions.name(), self.shared.sessions.rank()),
            self.shared.metrics.lock_info(),
        ]
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Number of data points in the current snapshot.
    pub fn data_len(&self) -> usize {
        self.shared.catalog.current().len()
    }

    /// Pins the current snapshot: the returned `Arc` keeps its
    /// generation's points and indexes alive regardless of later
    /// reindexes. Response skylines index into
    /// [`Snapshot::points`] of the generation they report; a routing
    /// layer uses a pinned snapshot to translate per-shard results back
    /// into global candidates.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.shared.catalog.current()
    }

    /// The snapshot generation currently being served.
    pub fn generation(&self) -> u64 {
        self.shared.catalog.generation()
    }

    /// The bounding rectangle of the current snapshot's points.
    pub fn universe(&self) -> ssq_geom::Rect {
        self.shared.catalog.current().universe()
    }

    /// A point-in-time copy of the engine's metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Enables the materialized skyline diagram and schedules its first
    /// build in the background (queries keep flowing; they miss into
    /// the planner until the build publishes).
    pub fn enable_diagram(&self, config: DiagramConfig) -> Result<(), EngineError> {
        config.validate().map_err(EngineError::Diagram)?;
        self.shared.diagram.lock().config = Some(config);
        spawn_diagram_builder(&self.shared);
        Ok(())
    }

    /// Builds and publishes a diagram for the current snapshot
    /// *synchronously*, from the hot keys observed so far. Returns the
    /// number of key cells materialized, or an error when the diagram
    /// is disabled.
    pub fn rebuild_diagram(&self) -> Result<u64, EngineError> {
        if self.shared.diagram.lock().config.is_none() {
            return Err(EngineError::Diagram("diagram is not enabled".into()));
        }
        build_and_publish_diagram(&self.shared);
        let slot = self.shared.diagram.lock();
        Ok(slot.current.as_ref().map_or(0, |d| d.key_cell_count()))
    }

    /// Warm start: seeds `keys` as hot, pre-builds their query contexts
    /// in the context cache, and synchronously builds and publishes a
    /// diagram materializing them — so a freshly started server answers
    /// its known-hot traffic without a cold-cache latency spike.
    ///
    /// Keys may come from [`Engine::hot_keys`] of a previous run (see
    /// the [`warm`](crate::warm) module for the on-disk format); they
    /// are re-canonicalized against this engine's quantum, so a file
    /// written under a different quantum still warms correctly. Returns
    /// the number of keys seeded.
    pub fn warm_start(&self, keys: &[QueryKey]) -> Result<usize, EngineError> {
        if self.shared.diagram.lock().config.is_none() {
            return Err(EngineError::Diagram("diagram is not enabled".into()));
        }
        let generation = self.shared.catalog.generation();
        let quantum = self.shared.cache.quantum();
        let mut seeded = 0usize;
        for key in keys {
            let reps = key.representative_points(quantum);
            if reps.is_empty() {
                continue;
            }
            // Pre-build the query context so even planner-served repeats
            // of this shape start warm. Deliberately not counted as a
            // cache miss: nobody asked a query.
            let _ = self.shared.cache.get_or_build(generation, &reps);
            self.shared
                .hot_keys
                .lock()
                .record(QueryKey::canonical(&reps, quantum));
            seeded += 1;
        }
        build_and_publish_diagram(&self.shared);
        Ok(seeded)
    }

    /// The hottest canonical query keys observed missing the diagram,
    /// most-counted first — what a warm-start file should persist.
    pub fn hot_keys(&self, limit: usize) -> Vec<QueryKey> {
        self.shared.hot_keys.lock().hottest(limit)
    }

    /// Builds indexes over `points` as the next generation and publishes
    /// them atomically, returning the new generation number.
    ///
    /// The build runs on the calling thread, entirely off the serving
    /// path: queries keep flowing against the old snapshot until the
    /// install, and in-flight queries that already pinned the old
    /// generation finish against it. Concurrent `reindex` calls are
    /// serialized; the dataset never rolls backwards.
    pub fn reindex(&self, points: &[Point]) -> Result<u64, EngineError> {
        let _guard = self.shared.reindex_lock.lock();
        let next = self.shared.catalog.generation() + 1;
        let start = Instant::now();
        let snapshot = Snapshot::build(next, points).map_err(EngineError::Index)?;
        let build = start.elapsed();
        self.shared
            .catalog
            .install(Arc::new(snapshot))
            .map_err(EngineError::Stale)?;
        self.shared.metrics.record_swap(next, build);
        retire_diagram(&self.shared);
        Ok(next)
    }

    /// Publishes a pre-built snapshot (built elsewhere — e.g. by a shard
    /// router that partitions one dataset across many engines). `build`
    /// is the off-line build duration, recorded in the metrics.
    pub fn install_snapshot(
        &self,
        snapshot: Arc<Snapshot>,
        build: Duration,
    ) -> Result<(), EngineError> {
        if snapshot.is_empty() {
            return Err(EngineError::EmptyDataset);
        }
        let generation = snapshot.generation();
        self.shared
            .catalog
            .install(snapshot)
            .map_err(EngineError::Stale)?;
        self.shared.metrics.record_swap(generation, build);
        retire_diagram(&self.shared);
        Ok(())
    }

    /// Applies a delta batch to the current snapshot and publishes the
    /// result as the next generation, *synchronously* on the calling
    /// thread.
    ///
    /// Unlike [`Engine::reindex`] this does not rebuild the indexes from
    /// scratch: the new generation shares every untouched structure with
    /// the old one copy-on-write, and the incremental R\*-tree and
    /// Delaunay maintenance make the publish cost scale with the batch,
    /// not the dataset (falling back to a full rebuild for oversized
    /// batches — see the report's [`DeltaStats::incremental`]). Queries
    /// keep flowing against the old generation until the install, exactly
    /// as for a reindex. Concurrent publishes serialize on the reindex
    /// lock.
    ///
    /// An invalid batch (delete id out of range, non-finite insert, or a
    /// batch that would empty the dataset) is rejected without publishing.
    pub fn apply_delta(&self, batch: &UpdateBatch) -> Result<IngestReport, EngineError> {
        publish_delta(&self.shared, batch)
    }

    /// Queues a delta batch for the ingestor thread, blocking while the
    /// ingest queue is at capacity.
    ///
    /// This is the streaming-ingest entry point: the caller gets its
    /// [`IngestHandle`] back immediately (once there is queue space) and
    /// the publish happens off the caller's thread. Batches publish in
    /// submission order, each producing one generation.
    pub fn ingest(&self, batch: UpdateBatch) -> Result<IngestHandle, EngineError> {
        self.ensure_ingestor()?;
        let (ticket, cell) = Ticket::new();
        let mut st = lock_unpoisoned(&self.ingestor.shared.state);
        while st.queue.len() >= self.ingestor.capacity && !st.closed {
            st = wait_unpoisoned(&self.ingestor.shared.space, st);
        }
        if st.closed {
            return Err(EngineError::Closed);
        }
        st.queue.push_back((batch, cell));
        drop(st);
        self.ingestor.shared.added.notify_one();
        Ok(ticket)
    }

    /// Like [`Engine::ingest`] but never blocks: a full ingest queue
    /// comes back as [`EngineError::QueueFull`] immediately — the typed
    /// backpressure signal for producers that must shed (mirroring
    /// [`Engine::try_submit`] on the query side). Shed batches are
    /// counted in the metrics' ingest counters.
    pub fn try_ingest(&self, batch: UpdateBatch) -> Result<IngestHandle, EngineError> {
        self.ensure_ingestor()?;
        let (ticket, cell) = Ticket::new();
        let mut st = lock_unpoisoned(&self.ingestor.shared.state);
        if st.closed {
            return Err(EngineError::Closed);
        }
        if st.queue.len() >= self.ingestor.capacity {
            drop(st);
            self.shared.metrics.record_ingest_shed();
            return Err(EngineError::QueueFull);
        }
        st.queue.push_back((batch, cell));
        drop(st);
        self.ingestor.shared.added.notify_one();
        Ok(ticket)
    }

    /// Delta batches currently waiting in the ingest queue (not the one
    /// being published).
    pub fn ingest_queued(&self) -> usize {
        lock_unpoisoned(&self.ingestor.shared.state).queue.len()
    }

    /// Spawns the ingestor thread on first use, so query-only engines
    /// never pay for one.
    fn ensure_ingestor(&self) -> Result<(), EngineError> {
        let mut worker = lock_unpoisoned(&self.ingestor.worker);
        if worker.is_some() {
            return Ok(());
        }
        let shared = Arc::clone(&self.shared);
        let q = Arc::clone(&self.ingestor.shared);
        let handle = std::thread::Builder::new()
            .name("ssq-ingest".into())
            .spawn(move || ingest_loop(&shared, &q))
            .map_err(|e| EngineError::Spawn(e.to_string()))?;
        *worker = Some(handle);
        Ok(())
    }

    /// Submits one query; blocks only while the job queue is full.
    ///
    /// The snapshot generation is pinned *at dequeue time*: the worker
    /// reads the catalog when it picks the job up, so a query that
    /// waited in the queue across a reindex is answered against the new
    /// generation, and the response reports which one it used.
    ///
    /// # Panics
    ///
    /// Panics if the request's query set is empty.
    pub fn submit(&self, request: QueryRequest) -> QueryHandle {
        assert!(
            !request.query.is_empty(),
            "a spatial skyline query needs at least one query point"
        );
        let (ticket, cell) = Ticket::new();
        let shared = Arc::clone(&self.shared);
        let submitted = self.pool.submit(Box::new(move |state: &mut WorkerState| {
            // Dequeue-time pin: the clone happens on the worker,
            // not at submission.
            let snapshot = shared.catalog.current();
            run_query(&shared, &snapshot, request, &cell, state);
        }));
        assert!(
            submitted.is_ok(),
            "engine pool closed while the engine was alive"
        );
        ticket
    }

    /// Like [`Engine::submit`] but never blocks: a full job queue comes
    /// back as [`EngineError::QueueFull`] immediately.
    ///
    /// This is the admission-control entry point for front-ends that
    /// must shed load with a typed retry signal — blocking in `submit`
    /// would stall a connection's reader thread and, behind it, every
    /// pipelined request on that connection.
    ///
    /// # Panics
    ///
    /// Panics if the request's query set is empty.
    pub fn try_submit(&self, request: QueryRequest) -> Result<QueryHandle, EngineError> {
        assert!(
            !request.query.is_empty(),
            "a spatial skyline query needs at least one query point"
        );
        let (ticket, cell) = Ticket::new();
        let shared = Arc::clone(&self.shared);
        self.pool
            .try_submit(Box::new(move |state: &mut WorkerState| {
                let snapshot = shared.catalog.current();
                run_query(&shared, &snapshot, request, &cell, state);
            }))
            .map_err(|e| match e {
                TrySubmitError::Full => EngineError::QueueFull,
                TrySubmitError::Closed => EngineError::Closed,
            })?;
        Ok(ticket)
    }

    /// Like [`Engine::submit`] but answers against a caller-pinned
    /// snapshot instead of the catalog's current one.
    ///
    /// This is how a routing layer keeps a multi-engine fan-out
    /// consistent: it pins one generation's view up front and submits
    /// every per-shard query against it, so pruning bounds derived from
    /// that view stay sound even if a shard's catalog swaps mid-request.
    ///
    /// # Panics
    ///
    /// Panics if the request's query set is empty.
    pub fn submit_on(&self, request: QueryRequest, snapshot: Arc<Snapshot>) -> QueryHandle {
        assert!(
            !request.query.is_empty(),
            "a spatial skyline query needs at least one query point"
        );
        let (ticket, cell) = Ticket::new();
        let shared = Arc::clone(&self.shared);
        let submitted = self.pool.submit(Box::new(move |state: &mut WorkerState| {
            run_query(&shared, &snapshot, request, &cell, state)
        }));
        assert!(
            submitted.is_ok(),
            "engine pool closed while the engine was alive"
        );
        ticket
    }

    /// Submits a batch as **one** pool job, resolving to one response per
    /// request in order.
    ///
    /// Against per-request [`Engine::submit`] calls this amortizes one
    /// queue hop (one submission, one dequeue), one snapshot pin (the
    /// whole batch answers against a single dequeue-time generation), and
    /// — for repeated query sets within the batch — one cache probe per
    /// *distinct* query set: repeats reuse a batch-local context memo and
    /// report `cache_hit` without touching the shared cache lock. The
    /// whole batch runs on one worker; use several batches (or
    /// [`Engine::submit`]) when cross-request parallelism matters more
    /// than per-request overhead.
    ///
    /// An empty batch resolves immediately to an empty vector.
    ///
    /// # Panics
    ///
    /// Panics if any request's query set is empty.
    pub fn submit_batch(&self, requests: Vec<QueryRequest>) -> BatchTicket {
        for r in &requests {
            assert!(
                !r.query.is_empty(),
                "a spatial skyline query needs at least one query point"
            );
        }
        let (ticket, cell) = Ticket::new();
        if requests.is_empty() {
            cell.fill(Vec::new());
            return ticket;
        }
        let shared = Arc::clone(&self.shared);
        let submitted = self.pool.submit(Box::new(move |state: &mut WorkerState| {
            let snapshot = shared.catalog.current();
            cell.fill(run_batch(&shared, &snapshot, requests, state));
        }));
        assert!(
            submitted.is_ok(),
            "engine pool closed while the engine was alive"
        );
        ticket
    }

    /// Like [`Engine::submit_batch`] but never blocks: a full job queue
    /// comes back as [`EngineError::QueueFull`] immediately (see
    /// [`Engine::try_submit`]). An empty batch resolves immediately.
    ///
    /// # Panics
    ///
    /// Panics if any request's query set is empty.
    pub fn try_submit_batch(
        &self,
        requests: Vec<QueryRequest>,
    ) -> Result<BatchTicket, EngineError> {
        for r in &requests {
            assert!(
                !r.query.is_empty(),
                "a spatial skyline query needs at least one query point"
            );
        }
        let (ticket, cell) = Ticket::new();
        if requests.is_empty() {
            cell.fill(Vec::new());
            return Ok(ticket);
        }
        let shared = Arc::clone(&self.shared);
        self.pool
            .try_submit(Box::new(move |state: &mut WorkerState| {
                let snapshot = shared.catalog.current();
                cell.fill(run_batch(&shared, &snapshot, requests, state));
            }))
            .map_err(|e| match e {
                TrySubmitError::Full => EngineError::QueueFull,
                TrySubmitError::Closed => EngineError::Closed,
            })?;
        Ok(ticket)
    }

    /// Like [`Engine::submit_batch`] but answers against a caller-pinned
    /// snapshot (see [`Engine::submit_on`]) — the shard router's fan-out
    /// primitive.
    ///
    /// # Panics
    ///
    /// Panics if any request's query set is empty.
    pub fn submit_batch_on(
        &self,
        requests: Vec<QueryRequest>,
        snapshot: Arc<Snapshot>,
    ) -> BatchTicket {
        for r in &requests {
            assert!(
                !r.query.is_empty(),
                "a spatial skyline query needs at least one query point"
            );
        }
        let (ticket, cell) = Ticket::new();
        if requests.is_empty() {
            cell.fill(Vec::new());
            return ticket;
        }
        let shared = Arc::clone(&self.shared);
        let submitted = self.pool.submit(Box::new(move |state: &mut WorkerState| {
            cell.fill(run_batch(&shared, &snapshot, requests, state));
        }));
        assert!(
            submitted.is_ok(),
            "engine pool closed while the engine was alive"
        );
        ticket
    }

    /// Opens a continuous (VCS²) session for query set `q`, pinned to
    /// the snapshot generation current at this moment.
    ///
    /// The initial skyline is computed synchronously; motion updates are
    /// applied through the worker pool via [`Engine::update_session`].
    /// The session's `Arc` on the pinned Voronoi index keeps that
    /// generation alive for the session's lifetime; when a reindex is
    /// published, every subsequent [`SessionUpdate`] carries a
    /// [`SnapshotSuperseded`] notice so the caller can re-open.
    pub fn open_session(&self, q: &[Point]) -> SessionId {
        let snapshot = self.shared.catalog.current();
        let sky = ContinuousSkyline::new(Arc::clone(snapshot.voronoi()), q);
        let id = self.shared.next_session.fetch_add(1, Ordering::Relaxed) + 1;
        let session = Arc::new(Session {
            generation: snapshot.generation(),
            sky: RankedMutex::new("session.sky", RANK_SESSION_SKY, sky),
            pending: RankedMutex::new(
                "session.pending",
                RANK_SESSION_PENDING,
                Pending {
                    updates: VecDeque::new(),
                    scheduled: false,
                },
            ),
        });
        self.shared.sessions.lock().insert(id, session);
        self.shared.metrics.record_session_opened();
        SessionId(id)
    }

    /// The snapshot generation a session pinned at open, or `None` for
    /// an unknown id.
    pub fn session_generation(&self, id: SessionId) -> Option<u64> {
        let sessions = self.shared.sessions.lock();
        sessions.get(&id.0).map(|s| s.generation)
    }

    /// Queues a motion update — query object `obj` of the session moves
    /// to `new_loc` — and returns a handle to its result.
    ///
    /// Updates to one session are applied in submission order; distinct
    /// sessions proceed in parallel across the pool.
    pub fn update_session(
        &self,
        id: SessionId,
        obj: usize,
        new_loc: Point,
    ) -> Result<UpdateHandle, EngineError> {
        let session = self
            .shared
            .sessions
            .lock()
            .get(&id.0)
            .cloned()
            .ok_or(EngineError::NoSuchSession)?;
        let (ticket, cell) = Ticket::new();
        let need_submit = {
            let mut pending = session.pending.lock();
            pending.updates.push_back((obj, new_loc, cell));
            if pending.scheduled {
                false
            } else {
                pending.scheduled = true;
                true
            }
        };
        if need_submit {
            // Submit OUTSIDE the pending lock: a full queue blocks here,
            // and the drain job needs that lock to make progress.
            let shared = Arc::clone(&self.shared);
            let job_session = Arc::clone(&session);
            let submitted = self.pool.submit(Box::new(move |_state: &mut WorkerState| {
                drain_session(&shared, &job_session)
            }));
            if submitted.is_err() {
                session.pending.lock().scheduled = false;
                return Err(EngineError::Closed);
            }
        }
        Ok(ticket)
    }

    /// The session's current skyline (updates still queued are not yet
    /// reflected), or `None` for an unknown id.
    pub fn session_skyline(&self, id: SessionId) -> Option<Vec<u32>> {
        let session = self.shared.sessions.lock().get(&id.0).cloned()?;
        let sky = session.sky.lock();
        Some(sky.skyline())
    }

    /// Closes a session. Already-queued updates still apply (their
    /// handles resolve); the id stops resolving immediately.
    pub fn close_session(&self, id: SessionId) -> bool {
        self.shared.sessions.lock().remove(&id.0).is_some()
    }

    /// Number of open sessions.
    pub fn open_sessions(&self) -> usize {
        self.shared.sessions.lock().len()
    }

    /// Drains every queued delta batch and joins the ingestor, drains
    /// every queued job and joins the workers, then joins any background
    /// diagram builders.
    ///
    /// Every handle obtained before this call resolves; dropping the
    /// engine performs the same drain (builders then finish detached —
    /// they hold only a weak reference to the engine and exit early).
    pub fn shutdown(self) {
        self.ingestor.close_and_join();
        self.pool.shutdown();
        let handles: Vec<JoinHandle<()>> = {
            let mut builders = self.shared.builders.lock();
            builders.drain(..).collect()
        };
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// Clears the published diagram — it answered for a snapshot that just
/// got superseded, and its sites copy should die with that generation —
/// then schedules a background rebuild for the new one.
fn retire_diagram(shared: &Arc<EngineShared>) {
    let enabled = {
        let mut slot = shared.diagram.lock();
        slot.current = None;
        slot.config.is_some()
    };
    if enabled {
        spawn_diagram_builder(shared);
    }
}

/// Spawns a background thread that builds and publishes a diagram for
/// the catalog's current snapshot, unless one is already in flight. The
/// thread holds only a [`Weak`] on the engine internals, so an engine
/// dropped mid-build just ends the build.
fn spawn_diagram_builder(shared: &Arc<EngineShared>) {
    if shared.diagram_building.swap(true, Ordering::AcqRel) {
        return;
    }
    let weak: Weak<EngineShared> = Arc::downgrade(shared);
    let handle = std::thread::spawn(move || {
        if let Some(shared) = weak.upgrade() {
            build_and_publish_diagram(&shared);
        }
    });
    let mut builders = shared.builders.lock();
    builders.retain(|h| !h.is_finished());
    builders.push(handle);
}

/// Builds a diagram for the current snapshot from the hottest observed
/// keys and publishes it — unless the snapshot moved on mid-build, in
/// which case the work is discarded (the retire hook has already
/// scheduled a fresh build). Clears the in-flight flag on every exit.
fn build_and_publish_diagram(shared: &EngineShared) {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let config = match shared.diagram.lock().config {
            Some(config) => config,
            None => return,
        };
        let snapshot = shared.catalog.current();
        // seq is taken under the same lock as the key snapshot, so a
        // build holding a higher seq is guaranteed to have read keys at
        // least as fresh — the publish guard below leans on that.
        let (keys, seq) = {
            let mut hot = shared.hot_keys.lock();
            hot.since_build = 0;
            hot.build_seq += 1;
            (hot.hottest(config.max_cells), hot.build_seq)
        };
        let built = SkylineDiagram::build(
            snapshot.generation(),
            snapshot.points(),
            &keys,
            shared.cache.quantum(),
            &config,
        );
        let Some(diagram) = built else { return };
        let (cells, build, warmed) = (
            diagram.cell_count(),
            diagram.build_time(),
            diagram.warmed_keys(),
        );
        // Rank order: read the catalog (rank 200) before taking the
        // diagram slot (rank 240). A swap landing between the two just
        // publishes a stale diagram that no probe will accept (probes
        // check the generation) and the swap's own rebuild replaces.
        if shared.catalog.generation() != diagram.generation() {
            return;
        }
        let mut slot = shared.diagram.lock();
        if slot.config.is_none() {
            return;
        }
        // A published diagram is replaced only by one for a newer
        // generation or one built from a strictly fresher key snapshot.
        // Without the seq guard, a slow background build (e.g. the
        // empty-keys build spawned by enable_diagram) could land *after*
        // a synchronous rebuild on the same generation and silently
        // un-materialize its cells.
        let superseded = slot.current.as_ref().is_some_and(|d| {
            d.generation() > diagram.generation()
                || (d.generation() == diagram.generation() && slot.keys_seq >= seq)
        });
        if !superseded {
            slot.current = Some(Arc::new(diagram));
            slot.keys_seq = seq;
            drop(slot);
            shared.metrics.record_diagram_publish(cells, build, warmed);
        }
    }));
    shared.diagram_building.store(false, Ordering::Release);
    if let Err(panic) = result {
        std::panic::resume_unwind(panic);
    }
}

fn run_query(
    shared: &Arc<EngineShared>,
    snapshot: &Arc<Snapshot>,
    request: QueryRequest,
    cell: &Cell<QueryResponse>,
    state: &mut WorkerState,
) {
    let start = Instant::now();
    if let Some(response) = try_diagram(shared, snapshot, &request, start, state) {
        cell.fill(response);
        return;
    }
    let (ctx, cache_hit) = shared
        .cache
        .get_or_build(snapshot.generation(), &request.query);
    shared.metrics.record_cache(cache_hit);
    cell.fill(execute(
        shared,
        snapshot,
        &request,
        &ctx,
        cache_hit,
        start,
        &mut state.scratch,
    ));
}

/// Tries to answer `request` straight from the published skyline
/// diagram. `None` falls through to the cache + planner path; when the
/// diagram is enabled, that fall-through also counts a miss and records
/// the query's canonical key as a materialization candidate.
///
/// Forced requests (per-request or engine-wide) never probe: pinning an
/// algorithm means that algorithm must actually run.
fn try_diagram(
    shared: &Arc<EngineShared>,
    snapshot: &Arc<Snapshot>,
    request: &QueryRequest,
    start: Instant,
    state: &mut WorkerState,
) -> Option<QueryResponse> {
    if request.force.is_some() || shared.planner.forced().is_some() {
        return None;
    }
    let (config, diagram) = {
        let slot = shared.diagram.lock();
        match slot.config {
            Some(config) => (config, slot.current.clone()),
            // Disabled: no probe, no counters.
            None => return None,
        }
    };
    // Generation scoping: a diagram answers only for the snapshot it was
    // built against. A stale one (reindex published, rebuild still in
    // flight) is a miss, never a wrong answer.
    let live = diagram.filter(|d| d.generation() == snapshot.generation());
    let hit = live
        .as_ref()
        .and_then(|d| d.lookup(&request.query, &mut state.diagram))
        .map(|ids| ids.to_vec());
    match hit {
        Some(skyline) => {
            let generation = snapshot.generation();
            let latency = start.elapsed();
            shared.metrics.record_diagram_hit(generation, latency);
            Some(QueryResponse {
                skyline,
                generation,
                algorithm: shared.planner.choose_for_len(snapshot.len()),
                served_by: ServedBy::Diagram,
                latency,
                stats: QueryStats::default(),
            })
        }
        None => {
            shared.metrics.record_diagram_miss();
            // Track shapes the diagram *could* materialize so the next
            // build serves them. Wider query sets are skipped without
            // canonicalizing — the planner path pays the hull cost anyway.
            if request.query.len() >= 2 && request.query.len() <= config.max_anchors {
                let key = QueryKey::canonical(&request.query, shared.cache.quantum());
                if key.len() >= 2 && key.len() <= config.max_anchors {
                    let rebuild = shared.hot_keys.lock().record(key);
                    if rebuild {
                        spawn_diagram_builder(shared);
                    }
                }
            }
            None
        }
    }
}

/// Runs every request of a batch on the calling worker against one pinned
/// snapshot. Repeated query sets within the batch resolve their context
/// through a batch-local memo: only the first occurrence probes (and
/// counts against) the shared cache; repeats are reported as cache hits
/// without taking the cache lock.
fn run_batch(
    shared: &Arc<EngineShared>,
    snapshot: &Arc<Snapshot>,
    requests: Vec<QueryRequest>,
    state: &mut WorkerState,
) -> Vec<QueryResponse> {
    let generation = snapshot.generation();
    let mut memo: Vec<(Vec<Point>, Arc<QueryContext>)> = Vec::new();
    requests
        .into_iter()
        .map(|request| {
            let start = Instant::now();
            if let Some(response) = try_diagram(shared, snapshot, &request, start, state) {
                return response;
            }
            let (ctx, cache_hit) = match memo.iter().find(|(q, _)| *q == request.query) {
                Some((_, ctx)) => (Arc::clone(ctx), true),
                None => {
                    let (ctx, hit) = shared.cache.get_or_build(generation, &request.query);
                    shared.metrics.record_cache(hit);
                    memo.push((request.query.clone(), Arc::clone(&ctx)));
                    (ctx, hit)
                }
            };
            execute(
                shared,
                snapshot,
                &request,
                &ctx,
                cache_hit,
                start,
                &mut state.scratch,
            )
        })
        .collect()
}

/// The shared tail of the single and batched paths: plan, run the chosen
/// algorithm through the worker's scratch arena, record metrics.
fn execute(
    shared: &EngineShared,
    snapshot: &Arc<Snapshot>,
    request: &QueryRequest,
    ctx: &QueryContext,
    cache_hit: bool,
    start: Instant,
    scratch: &mut DistanceScratch,
) -> QueryResponse {
    let generation = snapshot.generation();
    let algorithm = request
        .force
        .unwrap_or_else(|| shared.planner.choose(snapshot.len(), ctx));
    let SkylineResult { skyline, stats } = match algorithm {
        Algorithm::Naive => naive_sorted_kernel(snapshot.points(), ctx, scratch),
        Algorithm::Bbs => bbs(snapshot.rtree(), ctx),
        Algorithm::B2s2 => b2s2_kernel(snapshot.rtree(), ctx, scratch),
        Algorithm::Vs2 => vs2_kernel(snapshot.voronoi(), ctx, scratch),
    };
    let latency = start.elapsed();
    shared
        .metrics
        .record_query(algorithm, generation, latency, &stats);
    QueryResponse {
        skyline,
        generation,
        algorithm,
        served_by: if cache_hit {
            ServedBy::Cache
        } else {
            ServedBy::Planner
        },
        latency,
        stats,
    }
}

/// Applies every pending update of one session, in FIFO order. At most
/// one drain job per session exists at a time (see `Pending::scheduled`),
/// which is what serializes a session's updates without blocking a
/// worker on a session-wide lock.
fn drain_session(shared: &EngineShared, session: &Session) {
    loop {
        let (obj, new_loc, cell) = {
            let mut pending = session.pending.lock();
            match pending.updates.pop_front() {
                Some(update) => update,
                None => {
                    pending.scheduled = false;
                    return;
                }
            }
        };
        let (outcome, skyline, stats) = {
            let mut sky = session.sky.lock();
            let (outcome, stats) = sky.update(obj, new_loc);
            (outcome, sky.skyline(), stats)
        };
        shared.metrics.record_session_update(&stats);
        let current = shared.catalog.generation();
        let superseded = (current > session.generation).then_some(SnapshotSuperseded {
            pinned: session.generation,
            current,
        });
        cell.fill(SessionUpdate {
            outcome,
            skyline,
            generation: session.generation,
            superseded,
            stats,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssq_core::{naive_full, QueryContext};

    fn grid(n: usize) -> Vec<Point> {
        // Irregular but duplicate-free.
        (0..n)
            .map(|i| {
                Point::new(
                    (i % 17) as f64 + 1e-4 * i as f64,
                    (i / 17) as f64 + 3e-5 * i as f64,
                )
            })
            .collect()
    }

    #[test]
    fn engine_matches_the_naive_oracle() {
        let data = grid(300);
        let engine = Engine::new(&data, EngineConfig::default().with_workers(2)).unwrap();
        let q = vec![
            Point::new(3.0, 4.0),
            Point::new(9.0, 2.0),
            Point::new(6.0, 10.0),
        ];
        let want = naive_full(&data, &QueryContext::new(&q)).skyline;
        let got = engine.submit(QueryRequest::new(q)).wait();
        assert_eq!(got.skyline, want);
        assert_eq!(got.algorithm, Algorithm::B2s2, "300 points");
        assert!(!got.cache_hit());
    }

    #[test]
    fn forced_algorithms_all_agree() {
        let data = grid(150);
        let engine = Engine::new(&data, EngineConfig::default().with_workers(2)).unwrap();
        let q = vec![
            Point::new(2.0, 2.0),
            Point::new(11.0, 3.0),
            Point::new(7.0, 7.0),
        ];
        let responses: Vec<QueryResponse> = engine
            .submit_batch(
                Algorithm::ALL
                    .iter()
                    .map(|&a| QueryRequest::forced(q.clone(), a))
                    .collect(),
            )
            .wait();
        for r in &responses {
            assert_eq!(r.skyline, responses[0].skyline, "{} disagrees", r.algorithm);
        }
        let m = engine.metrics();
        for a in Algorithm::ALL {
            assert_eq!(m.requests_for(a), 1);
        }
    }

    #[test]
    fn batch_answers_match_individual_submission() {
        let data = grid(250);
        let engine = Engine::new(&data, EngineConfig::default().with_workers(2)).unwrap();
        let queries: Vec<Vec<Point>> = (0..6)
            .map(|i| {
                vec![
                    Point::new(2.0 + i as f64 * 0.3, 3.0),
                    Point::new(9.0, 2.0 + i as f64 * 0.2),
                    Point::new(5.0, 9.0),
                ]
            })
            .collect();
        let batch = engine
            .submit_batch(queries.iter().cloned().map(QueryRequest::new).collect())
            .wait();
        assert_eq!(batch.len(), queries.len());
        for (q, r) in queries.iter().zip(&batch) {
            let want = naive_full(&data, &QueryContext::new(q)).skyline;
            assert_eq!(r.skyline, want);
            assert_eq!(r.generation, 0);
        }
    }

    #[test]
    fn a_batch_of_identical_queries_probes_the_cache_once() {
        let data = grid(120);
        let engine = Engine::new(&data, EngineConfig::default().with_workers(1)).unwrap();
        let q = vec![
            Point::new(2.0, 2.0),
            Point::new(6.0, 3.0),
            Point::new(4.0, 6.0),
        ];
        let responses = engine
            .submit_batch(vec![QueryRequest::new(q.clone()); 5])
            .wait();
        assert_eq!(responses.len(), 5);
        assert!(
            !responses[0].cache_hit(),
            "cold cache: the first one misses"
        );
        assert!(responses[1..].iter().all(|r| r.cache_hit()));
        let m = engine.metrics();
        assert_eq!(m.cache_misses, 1, "one probe for five identical queries");
        assert_eq!(m.cache_hits, 0, "memo hits never reach the shared cache");
    }

    #[test]
    fn empty_batch_resolves_immediately() {
        let engine = Engine::new(&grid(30), EngineConfig::default().with_workers(1)).unwrap();
        let ticket = engine.submit_batch(Vec::new());
        assert!(ticket.is_ready());
        assert!(ticket.wait().is_empty());
    }

    #[test]
    fn submit_batch_on_answers_against_the_pinned_snapshot() {
        let old_data = grid(130);
        let engine = Engine::new(&old_data, EngineConfig::default().with_workers(2)).unwrap();
        let pinned = engine.snapshot();
        engine.reindex(&grid(260)).unwrap();
        let q = vec![
            Point::new(4.0, 2.0),
            Point::new(10.0, 5.0),
            Point::new(6.0, 9.0),
        ];
        let responses = engine
            .submit_batch_on(vec![QueryRequest::new(q.clone()); 2], pinned)
            .wait();
        for r in &responses {
            assert_eq!(r.generation, 0, "caller pin beats the catalog");
            assert_eq!(
                r.skyline,
                naive_full(&old_data, &QueryContext::new(&q)).skyline
            );
        }
    }

    #[test]
    fn repeated_queries_hit_the_cache() {
        let data = grid(100);
        let engine = Engine::new(&data, EngineConfig::default().with_workers(1)).unwrap();
        let q = vec![
            Point::new(1.0, 1.0),
            Point::new(5.0, 4.0),
            Point::new(2.0, 5.0),
        ];
        engine.submit(QueryRequest::new(q.clone())).wait();
        let second = engine.submit(QueryRequest::new(q)).wait();
        assert!(second.cache_hit());
        let m = engine.metrics();
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.cache_misses, 1);
        assert!((m.cache_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_dataset_is_rejected() {
        assert_eq!(
            Engine::new(&[], EngineConfig::default()).unwrap_err(),
            EngineError::EmptyDataset
        );
    }

    #[test]
    fn zero_workers_are_rejected() {
        assert_eq!(
            Engine::new(&grid(10), EngineConfig::default().with_workers(0)).unwrap_err(),
            EngineError::ZeroWorkers
        );
    }

    #[test]
    fn zero_queue_capacity_is_rejected() {
        let config = EngineConfig {
            queue_capacity: 0,
            ..EngineConfig::default()
        };
        assert_eq!(
            Engine::new(&grid(10), config).unwrap_err(),
            EngineError::ZeroQueueCapacity
        );
    }

    #[test]
    fn apply_delta_publishes_the_next_generation() {
        let data = grid(300);
        let engine = Engine::new(&data, EngineConfig::default().with_workers(2)).unwrap();
        let batch = UpdateBatch {
            inserts: (0..10)
                .map(|i| Point::new(0.41 + 0.013 * i as f64, 0.37))
                .collect(),
            deletes: (0..10).map(|i| i * 7).collect(),
        };
        let report = engine.apply_delta(&batch).unwrap();
        assert_eq!(report.generation, 1);
        assert_eq!(report.stats.inserts, 10);
        assert_eq!(report.stats.deletes, 10);
        assert!(report.stats.incremental, "20 ops on 300 points is a delta");
        assert_eq!(engine.generation(), 1);
        assert_eq!(engine.data_len(), 300);

        // Queries answer against the delta-built generation, exactly.
        let next = engine.snapshot();
        let q = vec![
            Point::new(3.0, 4.0),
            Point::new(9.0, 2.0),
            Point::new(6.0, 10.0),
        ];
        let want = naive_full(next.points(), &QueryContext::new(&q)).skyline;
        let got = engine.submit(QueryRequest::new(q)).wait();
        assert_eq!(got.generation, 1);
        assert_eq!(got.skyline, want);

        let m = engine.metrics();
        assert_eq!(m.ingest.batches, 1);
        assert_eq!(m.ingest.incremental, 1);
        assert_eq!(m.swaps, 1);
        assert_eq!(m.generation, 1);
    }

    #[test]
    fn apply_delta_rejects_invalid_batches_without_publishing() {
        let engine = Engine::new(&grid(50), EngineConfig::default().with_workers(1)).unwrap();
        let batch = UpdateBatch {
            inserts: vec![],
            deletes: vec![50],
        };
        assert!(matches!(
            engine.apply_delta(&batch).unwrap_err(),
            EngineError::Index(_)
        ));
        assert_eq!(engine.generation(), 0);
        assert_eq!(engine.metrics().ingest.batches, 0);
    }

    #[test]
    fn ingest_applies_batches_in_submission_order() {
        let data = grid(200);
        let engine = Engine::new(&data, EngineConfig::default().with_workers(1)).unwrap();
        let handles: Vec<IngestHandle> = (0..3)
            .map(|round| {
                engine
                    .ingest(UpdateBatch {
                        inserts: vec![Point::new(0.21 + 0.017 * round as f64, 0.52)],
                        deletes: vec![round],
                    })
                    .unwrap()
            })
            .collect();
        for (round, handle) in handles.into_iter().enumerate() {
            let report = handle.wait().unwrap();
            assert_eq!(report.generation, round as u64 + 1);
        }
        assert_eq!(engine.generation(), 3);
        assert_eq!(engine.data_len(), 200);
        let m = engine.metrics();
        assert_eq!(m.ingest.batches, 3);
        assert_eq!(m.ingest.inserts, 3);
        assert_eq!(m.ingest.deletes, 3);
        assert_eq!(m.ingest.last_batch_ops, 2);
    }

    #[test]
    fn try_ingest_sheds_when_the_queue_is_full() {
        let data = grid(120);
        let engine = Engine::new(
            &data,
            EngineConfig::default()
                .with_workers(1)
                .with_ingest_capacity(1),
        )
        .unwrap();
        let one = |round: u32| UpdateBatch {
            inserts: vec![Point::new(0.3 + 0.011 * round as f64, 0.66)],
            deletes: vec![],
        };
        // Park the ingestor: it pops the first batch, then blocks on the
        // reindex lock we hold. The blocking `ingest` of the second batch
        // only returns once the first was popped and the 1-slot queue has
        // space — so after it, the queue deterministically holds exactly
        // the second batch and the third must shed with the typed signal.
        let guard = engine.shared.reindex_lock.lock();
        let first = engine.ingest(one(0)).unwrap();
        let second = engine.ingest(one(1)).unwrap();
        match engine.try_ingest(one(2)) {
            Err(e) => assert_eq!(e, EngineError::QueueFull),
            Ok(_) => panic!("full ingest queue accepted a batch"),
        }
        drop(guard);
        assert_eq!(first.wait().unwrap().generation, 1);
        assert_eq!(second.wait().unwrap().generation, 2);
        assert_eq!(engine.metrics().ingest.shed, 1);
    }

    #[test]
    fn a_rejected_ingest_batch_does_not_stop_the_queue() {
        let engine = Engine::new(&grid(80), EngineConfig::default().with_workers(1)).unwrap();
        let bad = engine
            .ingest(UpdateBatch {
                inserts: vec![],
                deletes: vec![9999],
            })
            .unwrap();
        let good = engine
            .ingest(UpdateBatch {
                inserts: vec![Point::new(0.77, 0.18)],
                deletes: vec![],
            })
            .unwrap();
        assert!(matches!(bad.wait(), Err(EngineError::Index(_))));
        assert_eq!(good.wait().unwrap().generation, 1);
        assert_eq!(engine.data_len(), 81);
    }

    #[test]
    fn shutdown_drains_pending_ingest_batches() {
        let engine = Engine::new(&grid(150), EngineConfig::default().with_workers(1)).unwrap();
        let handles: Vec<IngestHandle> = (0..5)
            .map(|round| {
                engine
                    .ingest(UpdateBatch {
                        inserts: vec![Point::new(0.111 + 0.013 * round as f64, 0.84)],
                        deletes: vec![],
                    })
                    .unwrap()
            })
            .collect();
        engine.shutdown();
        for (round, handle) in handles.into_iter().enumerate() {
            assert_eq!(handle.wait().unwrap().generation, round as u64 + 1);
        }
    }

    /// Applies `batch` to `mirror` with the exact id semantics of
    /// `Snapshot::apply_delta`: survivors keep their relative order and
    /// are renumbered densely, normalized inserts follow.
    fn apply_to_mirror(mirror: &mut Vec<Point>, batch: &UpdateBatch, universe: &ssq_geom::Rect) {
        let mut norm = batch.clone();
        norm.normalize(universe);
        let mut next = Vec::with_capacity(mirror.len());
        for (i, &p) in mirror.iter().enumerate() {
            if norm.deletes.binary_search(&(i as u32)).is_err() {
                next.push(p);
            }
        }
        next.extend(norm.inserts.iter().copied());
        *mirror = next;
    }

    #[test]
    fn a_hundred_delta_generations_keep_cached_contexts_exact() {
        // Each publish retires a generation whose query contexts may
        // still sit in the context cache under (generation, key); the
        // cache must never serve a retired generation's context for a
        // fresh one. 110 one-in-one-out generations, every answer checked
        // against a naive oracle over a mirrored point set.
        let mut mirror = grid(150);
        let engine = Engine::new(&mirror, EngineConfig::default().with_workers(1)).unwrap();
        let q = vec![Point::new(3.0, 4.0), Point::new(9.0, 2.0)];
        engine.submit(QueryRequest::new(q.clone())).wait();
        for round in 0..110u64 {
            let batch = UpdateBatch {
                inserts: vec![Point::new(
                    0.05 + 0.002 * round as f64,
                    7.3 + 1e-3 * round as f64,
                )],
                deletes: vec![((round * 37) % 150) as u32],
            };
            let universe = engine.snapshot().universe();
            let report = engine.apply_delta(&batch).unwrap();
            assert_eq!(report.generation, round + 1);
            apply_to_mirror(&mut mirror, &batch, &universe);
            let r = engine.submit(QueryRequest::new(q.clone())).wait();
            assert_eq!(r.generation, round + 1);
            assert_eq!(
                r.skyline,
                naive_full(&mirror, &QueryContext::new(&q)).skyline,
                "generation {} answered from a stale context",
                round + 1
            );
            // The repeat must come from this generation's cache entry
            // and still be exact.
            let again = engine.submit(QueryRequest::new(q.clone())).wait();
            assert_eq!(again.skyline, r.skyline);
        }
        let m = engine.metrics();
        assert_eq!(m.generation, 110);
        assert_eq!(m.ingest.batches, 110);
        assert!(m.cache_hits > 0, "repeats should hit the context cache");
        engine.shutdown();
    }

    #[test]
    fn sessions_outlive_a_hundred_delta_publishes_and_flag_supersession() {
        let data = grid(150);
        let engine = Engine::new(&data, EngineConfig::default().with_workers(1)).unwrap();
        let mut q = vec![
            Point::new(3.0, 3.0),
            Point::new(9.0, 4.0),
            Point::new(6.0, 8.0),
        ];
        let id = engine.open_session(&q);
        for round in 0..100u64 {
            engine
                .apply_delta(&UpdateBatch {
                    inserts: vec![Point::new(0.31 + 0.0021 * round as f64, 8.6)],
                    deletes: vec![],
                })
                .unwrap();
        }
        assert_eq!(engine.generation(), 100);
        // The session stayed pinned to generation 0 the whole time: its
        // VCS² update answers exactly against the *original* data and
        // reports how far the catalog has moved on.
        assert_eq!(engine.session_generation(id), Some(0));
        let update = engine
            .update_session(id, 0, Point::new(3.5, 3.25))
            .unwrap()
            .wait();
        q[0] = Point::new(3.5, 3.25);
        assert_eq!(update.generation, 0);
        assert_eq!(
            update.superseded,
            Some(SnapshotSuperseded {
                pinned: 0,
                current: 100
            })
        );
        assert_eq!(
            update.skyline,
            naive_full(&data, &QueryContext::new(&q)).skyline
        );
        // Re-opening pins the newest delta-built generation.
        let fresh = engine.open_session(&q);
        assert_eq!(engine.session_generation(fresh), Some(100));
        engine.shutdown();
    }

    #[test]
    fn rapid_delta_publishes_never_let_a_stale_diagram_answer() {
        // Every delta publish retires the published diagram with its
        // generation and schedules a background rebuild; under a rapid
        // stream those rebuilds keep losing the race. Whichever path
        // serves — diagram when a rebuild lands, planner fallback when
        // not — the answer must match the naive oracle for the *current*
        // point set every single generation.
        let mut mirror = grid(150);
        let engine = Engine::new(&mirror, diagram_config()).unwrap();
        let q = vec![Point::new(2.0, 2.0), Point::new(11.0, 3.0)];
        engine.submit(QueryRequest::new(q.clone())).wait();
        engine.rebuild_diagram().unwrap();
        let warm = engine.submit(QueryRequest::new(q.clone())).wait();
        assert_eq!(warm.served_by, ServedBy::Diagram);
        for round in 0..100u64 {
            let batch = UpdateBatch {
                inserts: vec![Point::new(
                    0.07 + 0.0019 * round as f64,
                    9.2 + 1e-3 * round as f64,
                )],
                deletes: vec![((round * 53) % 150) as u32],
            };
            let universe = engine.snapshot().universe();
            engine.apply_delta(&batch).unwrap();
            apply_to_mirror(&mut mirror, &batch, &universe);
            let r = engine.submit(QueryRequest::new(q.clone())).wait();
            assert_eq!(r.generation, round + 1);
            assert_eq!(
                r.skyline,
                naive_full(&mirror, &QueryContext::new(&q)).skyline,
                "generation {} served a retired diagram's skyline",
                round + 1
            );
        }
        // After the stream settles, a synchronous rebuild serves the
        // final generation from the diagram again — and still exactly.
        engine.rebuild_diagram().unwrap();
        let settled = engine.submit(QueryRequest::new(q.clone())).wait();
        assert_eq!(settled.served_by, ServedBy::Diagram);
        assert_eq!(
            settled.skyline,
            naive_full(&mirror, &QueryContext::new(&q)).skyline
        );
        engine.shutdown();
    }

    #[test]
    fn zero_ingest_capacity_is_rejected() {
        let config = EngineConfig {
            ingest_capacity: 0,
            ..EngineConfig::default()
        };
        assert_eq!(
            Engine::new(&grid(10), config).unwrap_err(),
            EngineError::ZeroIngestCapacity
        );
    }

    #[test]
    fn zero_cache_capacity_is_rejected() {
        let config = EngineConfig {
            cache_capacity: 0,
            ..EngineConfig::default()
        };
        assert_eq!(
            Engine::new(&grid(10), config).unwrap_err(),
            EngineError::ZeroCacheCapacity
        );
    }

    #[test]
    fn invalid_cache_quantum_is_rejected() {
        for quantum in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let config = EngineConfig {
                cache_quantum: quantum,
                ..EngineConfig::default()
            };
            assert_eq!(
                Engine::new(&grid(10), config).unwrap_err(),
                EngineError::InvalidCacheQuantum,
                "quantum {quantum} accepted"
            );
        }
    }

    #[test]
    fn default_config_validates() {
        assert!(EngineConfig::default().validate().is_ok());
        assert!(EngineConfig::default().workers >= 1);
    }

    #[test]
    fn wait_timeout_returns_the_ticket_and_then_the_value() {
        let (ticket, cell) = Ticket::new();
        let filler = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            cell.fill(42u32);
        });
        // Too short: the ticket comes back unfilled...
        let ticket = match ticket.wait_timeout(Duration::from_millis(1)) {
            Ok(v) => panic!("value {v} arrived before the filler ran"),
            Err(t) => t,
        };
        // ...and the same ticket still delivers once the worker does.
        match ticket.wait_timeout(Duration::from_secs(30)) {
            Ok(v) => assert_eq!(v, 42),
            Err(_) => panic!("filled ticket timed out"),
        }
        filler.join().unwrap();
    }

    #[test]
    fn wait_timeout_bounds_a_wait_behind_a_slow_query() {
        // One worker, and a deliberately slow query parked in front: the
        // victim's handle cannot be ready, so a tiny timeout must hand
        // the ticket back instead of blocking until the queue drains.
        let data = grid(4000);
        let engine = Engine::new(&data, EngineConfig::default().with_workers(1)).unwrap();
        let q = |i: f64| {
            vec![
                Point::new(1.0 + i, 2.0),
                Point::new(8.0, 3.0 + i),
                Point::new(4.0, 9.0),
            ]
        };
        let slow: Vec<QueryHandle> = (0..8)
            .map(|i| engine.submit(QueryRequest::forced(q(i as f64 * 0.01), Algorithm::Bbs)))
            .collect();
        let victim = engine.submit(QueryRequest::new(q(0.5)));
        let victim = match victim.wait_timeout(Duration::from_nanos(1)) {
            Ok(_) => panic!("victim ran before the slow queries ahead of it"),
            Err(t) => t,
        };
        // The recovered ticket still resolves to the correct answer.
        let response = victim.wait();
        let want = naive_full(&data, &QueryContext::new(&q(0.5))).skyline;
        assert_eq!(response.skyline, want);
        drop(slow);
        engine.shutdown();
    }

    #[test]
    fn duplicate_points_surface_the_index_error() {
        let data = vec![Point::new(1.0, 1.0), Point::new(1.0, 1.0)];
        match Engine::new(&data, EngineConfig::default()) {
            Err(EngineError::Index(_)) => {}
            other => panic!("expected an index error, got {other:?}"),
        }
    }

    #[test]
    fn sessions_update_through_the_pool() {
        let data = grid(200);
        let engine = Engine::new(&data, EngineConfig::default().with_workers(2)).unwrap();
        let q = vec![
            Point::new(4.0, 4.0),
            Point::new(10.0, 5.0),
            Point::new(7.0, 9.0),
        ];
        let id = engine.open_session(&q);
        assert_eq!(engine.open_sessions(), 1);

        // Mirror serially.
        let mut mirror_q = q.clone();
        let moves = [
            (0usize, Point::new(4.5, 4.25)),
            (1, Point::new(9.5, 5.5)),
            (0, Point::new(5.0, 4.5)),
            (2, Point::new(7.25, 8.5)),
        ];
        for &(obj, loc) in &moves {
            let update = engine.update_session(id, obj, loc).unwrap().wait();
            mirror_q[obj] = loc;
            let want = naive_full(&data, &QueryContext::new(&mirror_q)).skyline;
            assert_eq!(update.skyline, want, "after moving {obj} to {loc:?}");
        }
        assert_eq!(
            engine.session_skyline(id).unwrap(),
            naive_full(&data, &QueryContext::new(&mirror_q)).skyline
        );
        assert_eq!(engine.metrics().session_updates, moves.len() as u64);
        assert!(engine.close_session(id));
        assert!(engine.session_skyline(id).is_none());
        assert!(matches!(
            engine.update_session(id, 0, Point::new(0.0, 0.0)),
            Err(EngineError::NoSuchSession)
        ));
    }

    #[test]
    fn shutdown_resolves_every_outstanding_handle() {
        let data = grid(120);
        let engine = Engine::new(&data, EngineConfig::default().with_workers(1)).unwrap();
        let handles: Vec<QueryHandle> = (0..20)
            .map(|i| {
                engine.submit(QueryRequest::new(vec![
                    Point::new(1.0 + i as f64 * 0.1, 2.0),
                    Point::new(6.0, 3.0 + i as f64 * 0.1),
                    Point::new(3.0, 6.0),
                ]))
            })
            .collect();
        engine.shutdown();
        for h in handles {
            assert!(h.is_ready(), "shutdown left a handle unresolved");
            assert!(!h.wait().skyline.is_empty());
        }
    }

    #[test]
    fn reindex_publishes_a_new_generation() {
        let old_data = grid(120);
        let engine = Engine::new(&old_data, EngineConfig::default().with_workers(2)).unwrap();
        assert_eq!(engine.generation(), 0);
        let q = vec![
            Point::new(2.0, 3.0),
            Point::new(8.0, 4.0),
            Point::new(5.0, 8.0),
        ];
        let before = engine.submit(QueryRequest::new(q.clone())).wait();
        assert_eq!(before.generation, 0);
        assert_eq!(
            before.skyline,
            naive_full(&old_data, &QueryContext::new(&q)).skyline
        );

        let new_data = grid(250);
        assert_eq!(engine.reindex(&new_data).unwrap(), 1);
        assert_eq!(engine.generation(), 1);
        assert_eq!(engine.data_len(), 250);
        let after = engine.submit(QueryRequest::new(q.clone())).wait();
        assert_eq!(after.generation, 1);
        assert_eq!(
            after.skyline,
            naive_full(&new_data, &QueryContext::new(&q)).skyline
        );
        let m = engine.metrics();
        assert_eq!(m.generation, 1);
        assert_eq!(m.swaps, 1);
        assert_eq!(m.queries_per_generation.get(&0), Some(&1));
        assert_eq!(m.queries_per_generation.get(&1), Some(&1));
    }

    #[test]
    fn reindex_rejects_bad_datasets_and_keeps_serving() {
        let data = grid(60);
        let engine = Engine::new(&data, EngineConfig::default().with_workers(1)).unwrap();
        assert!(matches!(engine.reindex(&[]), Err(EngineError::Index(_))));
        let dup = vec![Point::new(1.0, 1.0), Point::new(1.0, 1.0)];
        assert!(matches!(engine.reindex(&dup), Err(EngineError::Index(_))));
        assert_eq!(engine.generation(), 0);
        assert_eq!(engine.data_len(), 60, "failed reindex must not swap");
    }

    #[test]
    fn stale_installs_surface_the_typed_error() {
        let engine = Engine::new(&grid(40), EngineConfig::default().with_workers(1)).unwrap();
        engine.reindex(&grid(50)).unwrap();
        let stale = Arc::new(Snapshot::build(1, &grid(30)).unwrap());
        assert_eq!(
            engine.install_snapshot(stale, Duration::ZERO).unwrap_err(),
            EngineError::Stale(StaleSnapshot {
                offered: 1,
                current: 1
            })
        );
        assert_eq!(engine.data_len(), 50);
    }

    #[test]
    fn sessions_pin_their_generation_and_learn_of_swaps() {
        let old_data = grid(150);
        let engine = Engine::new(&old_data, EngineConfig::default().with_workers(2)).unwrap();
        let mut q = vec![
            Point::new(3.0, 3.0),
            Point::new(9.0, 4.0),
            Point::new(6.0, 8.0),
        ];
        let id = engine.open_session(&q);
        assert_eq!(engine.session_generation(id), Some(0));

        engine.reindex(&grid(220)).unwrap();

        // The session still answers exactly against its pinned
        // generation's data, and flags the supersession.
        let update = engine
            .update_session(id, 0, Point::new(3.5, 3.25))
            .unwrap()
            .wait();
        q[0] = Point::new(3.5, 3.25);
        assert_eq!(update.generation, 0);
        assert_eq!(
            update.superseded,
            Some(SnapshotSuperseded {
                pinned: 0,
                current: 1
            })
        );
        assert_eq!(
            update.skyline,
            naive_full(&old_data, &QueryContext::new(&q)).skyline
        );

        // A fresh session pins the new generation and reports no notice.
        let fresh = engine.open_session(&q);
        assert_eq!(engine.session_generation(fresh), Some(1));
        let update = engine
            .update_session(fresh, 1, Point::new(8.5, 4.5))
            .unwrap()
            .wait();
        assert_eq!(update.generation, 1);
        assert_eq!(update.superseded, None);
    }

    #[test]
    fn queries_pinned_before_a_swap_stay_exact_for_their_generation() {
        // One worker with a queue full of slow jobs; a reindex lands
        // while the victim query is still queued. Dequeue-time pinning
        // means it must be answered against the NEW generation.
        let old_data = grid(200);
        let new_data = grid(90);
        let engine = Engine::new(&old_data, EngineConfig::default().with_workers(1)).unwrap();
        let q = vec![
            Point::new(2.0, 2.0),
            Point::new(7.0, 3.0),
            Point::new(4.0, 7.0),
        ];
        let slow: Vec<QueryHandle> = (0..4)
            .map(|i| {
                engine.submit(QueryRequest::forced(
                    vec![
                        Point::new(1.0 + i as f64 * 0.01, 2.0),
                        Point::new(8.0, 3.0),
                        Point::new(4.0, 9.0),
                    ],
                    Algorithm::Bbs,
                ))
            })
            .collect();
        engine.reindex(&new_data).unwrap();
        let victim = engine.submit(QueryRequest::new(q.clone())).wait();
        assert_eq!(victim.generation, 1, "dequeued after the swap");
        assert_eq!(
            victim.skyline,
            naive_full(&new_data, &QueryContext::new(&q)).skyline
        );
        for h in slow {
            let r = h.wait();
            let data = if r.generation == 0 {
                &old_data
            } else {
                &new_data
            };
            assert!(!r.skyline.is_empty());
            assert!(r.skyline.iter().all(|&i| (i as usize) < data.len()));
        }
    }

    #[test]
    fn submit_on_answers_against_the_caller_pinned_snapshot() {
        let old_data = grid(130);
        let engine = Engine::new(&old_data, EngineConfig::default().with_workers(2)).unwrap();
        let pinned = engine.snapshot();
        engine.reindex(&grid(260)).unwrap();
        let q = vec![
            Point::new(4.0, 2.0),
            Point::new(10.0, 5.0),
            Point::new(6.0, 9.0),
        ];
        let r = engine
            .submit_on(QueryRequest::new(q.clone()), pinned)
            .wait();
        assert_eq!(r.generation, 0, "caller pin beats the catalog");
        assert_eq!(
            r.skyline,
            naive_full(&old_data, &QueryContext::new(&q)).skyline
        );
    }

    fn diagram_config() -> EngineConfig {
        EngineConfig::default()
            .with_workers(1)
            .with_diagram(DiagramConfig::default())
    }

    #[test]
    fn diagram_serves_hot_queries_after_a_rebuild() {
        let data = grid(200);
        let engine = Engine::new(&data, diagram_config()).unwrap();
        let q = vec![Point::new(3.0, 4.0), Point::new(9.0, 2.0)];
        // Cold: the key has no materialized cell yet, so the planner
        // answers and the miss feeds the hot-key tracker.
        let first = engine.submit(QueryRequest::new(q.clone())).wait();
        assert_ne!(first.served_by, ServedBy::Diagram);
        engine.rebuild_diagram().unwrap();
        let second = engine.submit(QueryRequest::new(q.clone())).wait();
        assert_eq!(second.served_by, ServedBy::Diagram);
        assert_eq!(second.skyline, first.skyline);
        assert_eq!(second.stats, QueryStats::default());
        let m = engine.metrics();
        assert!(m.diagram.hits >= 1);
        assert!(m.diagram.misses >= 1);
        assert!(m.diagram.cells > 0);
        // Single-anchor queries are answered by the point-location grid
        // without any per-key materialization.
        let single = engine
            .submit(QueryRequest::new(vec![Point::new(5.0, 5.0)]))
            .wait();
        assert_eq!(single.served_by, ServedBy::Diagram);
        assert_eq!(
            single.skyline,
            naive_full(&data, &QueryContext::new(&[Point::new(5.0, 5.0)])).skyline
        );
        engine.shutdown();
    }

    #[test]
    fn warm_start_materializes_keys_synchronously() {
        let data = grid(150);
        let engine = Engine::new(&data, diagram_config()).unwrap();
        let q = vec![
            Point::new(2.5, 3.5),
            Point::new(8.5, 2.5),
            Point::new(5.5, 7.5),
        ];
        let key = QueryKey::canonical(&q, ContextCache::DEFAULT_QUANTUM);
        assert_eq!(engine.warm_start(&[key]).unwrap(), 1);
        // The very first query of the warmed shape is a diagram hit.
        let r = engine.submit(QueryRequest::new(q.clone())).wait();
        assert_eq!(r.served_by, ServedBy::Diagram);
        assert_eq!(r.skyline, naive_full(&data, &QueryContext::new(&q)).skyline);
        assert!(engine.metrics().diagram.warmed >= 1);
        engine.shutdown();
    }

    #[test]
    fn forced_requests_bypass_the_diagram() {
        let data = grid(150);
        let engine = Engine::new(&data, diagram_config()).unwrap();
        let q = vec![Point::new(2.0, 2.0), Point::new(11.0, 3.0)];
        engine.submit(QueryRequest::new(q.clone())).wait();
        engine.rebuild_diagram().unwrap();
        let forced = engine
            .submit(QueryRequest::forced(q.clone(), Algorithm::Naive))
            .wait();
        // The context cache may still serve it — but never the diagram.
        assert_ne!(forced.served_by, ServedBy::Diagram);
        assert_eq!(forced.algorithm, Algorithm::Naive);
        engine.shutdown();
    }

    #[test]
    fn the_first_kernel_query_on_a_fresh_worker_allocates_nothing() {
        // Workers pre-size their scratch arenas at spawn (one row per
        // data point, PRESIZE_ANCHOR_WIDTH anchors), so even the very
        // first naive-kernel query — which pushes a row for *every*
        // point — must report zero arena growth events.
        let data = grid(200);
        let engine = Engine::new(&data, EngineConfig::default().with_workers(1)).unwrap();
        let q = vec![Point::new(1.0, 2.0), Point::new(9.0, 4.0)];
        let r = engine
            .submit(QueryRequest::forced(q, Algorithm::Naive))
            .wait();
        assert_eq!(r.algorithm, Algorithm::Naive);
        assert_eq!(
            r.stats.allocations, 0,
            "first-touch arena growth is back on the query hot path"
        );
        engine.shutdown();
    }

    #[test]
    fn diagram_calls_error_when_disabled() {
        let engine = Engine::new(&grid(40), EngineConfig::default().with_workers(1)).unwrap();
        assert!(matches!(
            engine.rebuild_diagram(),
            Err(EngineError::Diagram(_))
        ));
        assert!(matches!(
            engine.warm_start(&[]),
            Err(EngineError::Diagram(_))
        ));
        // And a disabled engine records no diagram traffic at all.
        engine
            .submit(QueryRequest::new(vec![Point::new(1.0, 1.0)]))
            .wait();
        let m = engine.metrics();
        assert_eq!(m.diagram.hits + m.diagram.misses, 0);
    }

    #[test]
    fn reindex_retires_the_diagram_with_its_snapshot() {
        let data = grid(160);
        let engine = Engine::new(&data, diagram_config()).unwrap();
        let q = vec![Point::new(4.0, 3.0), Point::new(10.0, 6.0)];
        engine.submit(QueryRequest::new(q.clone())).wait();
        engine.rebuild_diagram().unwrap();
        assert_eq!(
            engine.submit(QueryRequest::new(q.clone())).wait().served_by,
            ServedBy::Diagram
        );
        let new_data = grid(240);
        engine.reindex(&new_data).unwrap();
        // The old diagram answered for generation 0; it must not answer
        // for generation 1 even while the background rebuild runs. The
        // answer must come from the planner and be exact for the new
        // data — or, if the rebuild already published, from a diagram
        // stamped with the new generation. Either way: exact.
        let after = engine.submit(QueryRequest::new(q.clone())).wait();
        assert_eq!(after.generation, 1);
        assert_eq!(
            after.skyline,
            naive_full(&new_data, &QueryContext::new(&q)).skyline
        );
        engine.shutdown();
    }

    #[test]
    fn retired_generations_are_freed_once_unpinned() {
        let engine = Engine::new(&grid(80), EngineConfig::default().with_workers(1)).unwrap();
        let weak = Arc::downgrade(&engine.snapshot());
        engine.reindex(&grid(100)).unwrap();
        // Drain the pool so no worker still holds a pin.
        engine
            .submit(QueryRequest::new(vec![
                Point::new(1.0, 1.0),
                Point::new(5.0, 2.0),
                Point::new(3.0, 6.0),
            ]))
            .wait();
        assert!(
            weak.upgrade().is_none(),
            "generation 0 leaked after retirement"
        );
    }
}
