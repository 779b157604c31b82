//! The M:N session scheduler.
//!
//! The [`SessionScheduler`] runs the bulk-synchronous round structure the
//! determinism ladder of DESIGN.md §5 rests on — every resident session's
//! *serve* sub-phase, then every session's *window* sub-phase — over a
//! crew of W workers, for any number of sessions K:
//!
//! * Sessions wait in **run queues** ([`RunQueue`]): fixed arrays of
//!   session indices that steps append to and that any worker claims from
//!   through one atomic `fetch_add` cursor. Each worker owns two, indexed
//!   by phase parity; a step parks its session by appending it to the
//!   worker's *next*-phase queue, so a queue is never appended to and
//!   claimed from at the same time. A worker drains its own queue first,
//!   then its siblings', so sessions mostly stay on one core.
//! * A session is a **resumable state machine**: `serve_observe` leaves
//!   its prefetch window open, so parking it at the phase boundary is
//!   simply not calling it until its index is claimed again. Finished
//!   sessions are retired instead of spinning no-op rounds. Sessions live
//!   in `Mutex` slots; a claim takes the lock with `try_lock`, so two
//!   workers holding one session is a panic, never a data race.
//! * Phase edges are a W-wide rendezvous on a mutex/condvar gate — the
//!   last arriving worker flips the phase, and at round boundaries runs
//!   **admission control**: a bounded backlog (shed policy) drained
//!   round-robin across tenants (fairness), gated on
//!   [`ThrashMonitor`](scout_storage::ThrashMonitor) signals from the
//!   shared cache (delay policy).
//! * Width 1 runs the same loop inline on the caller. Width > 1 dispatches
//!   it onto a crew that reuses the fork-join epoch/condvar machinery
//!   (`pool::PoolShared`/`pool::worker_loop`) with one deliberate change:
//!   dispatch **blocks** on the crew instead of degrading to inline
//!   execution — a fleet drain parks at the phase gate, so the pool's
//!   run-parts-serially fallback would deadlock it.
//!
//! ## Determinism contract (DESIGN.md §10)
//!
//! Claims follow append order: the survivors of the previous phase in the
//! order they finished, then the sessions admitted at the round boundary.
//! A single worker therefore visits sessions in exactly round-robin order,
//! and with the default unlimited admission and a single tenant width 1 is
//! **byte-identical** to [`Schedule::RoundRobin`](crate::Schedule) — even
//! under eviction pressure — because every cache access and clock
//! addition happens in the same order. At width > 1 the eviction-free
//! totals contract applies: per-round cache membership is
//! order-independent, so pages-hit totals (and, with per-session disks,
//! every per-session quantity) match round-robin at every width.
//!
//! ## Panics
//!
//! A panicking session step aborts the fleet: the payload is recorded,
//! every worker stops claiming, the gate releases all waiters, and the
//! payload is re-raised on the caller. The crew survives and the
//! scheduler stays usable.

use crate::batch::BatchCtl;
use crate::context::SimContext;
use crate::executor::ExecutorConfig;
use crate::pool::{lock_unpoisoned, worker_loop, Job, PoolShared};
use crate::session::Session;
use crate::telemetry::FleetTelemetry;
use scout_storage::{ShardedCache, ThrashMonitor};
use scout_telemetry::{HistogramId, SpanTimer};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock, PoisonError};

// ---------------------------------------------------------------------------
// Admission control configuration
// ---------------------------------------------------------------------------

/// Admission/backpressure policy of the M:N scheduler. Ignored by the
/// round-robin schedule.
///
/// Sessions wait in a per-tenant backlog and are admitted round-robin
/// across tenants at round boundaries, up to `max_resident` concurrently
/// resident sessions. The backlog itself is bounded: anything beyond
/// `backlog_limit` after the initial admission is **shed** (reported, never
/// run). While the shared cache looks thrashed — hit-ratio EWMA below
/// `hit_floor` *and* eviction-per-insert EWMA above `eviction_ceiling` —
/// admission is **delayed**; delay yields only while admitted work exists,
/// so a thrashed cache degrades throughput but never live-locks the fleet.
///
/// The default is fully open (admit everything immediately), which is what
/// preserves the width-1 byte-identity contract with round-robin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionControl {
    /// Maximum sessions resident (admitted, not yet finished) at once.
    pub max_resident: usize,
    /// Maximum sessions waiting in the backlog; the excess is shed.
    pub backlog_limit: usize,
    /// Smoothing factor of the thrash EWMAs, in `(0, 1]`.
    pub ewma_alpha: f64,
    /// Hit-ratio EWMA below this counts toward "thrashing".
    pub hit_floor: f64,
    /// Eviction-per-insert EWMA above this counts toward "thrashing".
    pub eviction_ceiling: f64,
}

impl AdmissionControl {
    /// No limits, no thrash gating: every session is admitted up front.
    pub fn unlimited() -> AdmissionControl {
        AdmissionControl {
            max_resident: usize::MAX,
            backlog_limit: usize::MAX,
            ewma_alpha: 0.25,
            hit_floor: 0.0,
            eviction_ceiling: f64::INFINITY,
        }
    }

    /// At most `max_resident` sessions in flight; unbounded backlog.
    pub fn bounded(max_resident: usize) -> AdmissionControl {
        AdmissionControl { max_resident, ..AdmissionControl::unlimited() }
    }

    /// Enables thrash-driven delay with the given thresholds.
    pub fn with_thrash_policy(mut self, hit_floor: f64, eviction_ceiling: f64) -> AdmissionControl {
        self.hit_floor = hit_floor;
        self.eviction_ceiling = eviction_ceiling;
        self
    }

    /// Bounds the backlog; sessions beyond `max_resident + backlog_limit`
    /// are shed at fleet start.
    pub fn with_backlog_limit(mut self, backlog_limit: usize) -> AdmissionControl {
        self.backlog_limit = backlog_limit;
        self
    }

    fn assert_valid(&self) {
        assert!(self.max_resident >= 1, "admission control: max_resident must be >= 1");
        assert!(
            self.ewma_alpha > 0.0 && self.ewma_alpha <= 1.0,
            "admission control: ewma_alpha must be in (0, 1]"
        );
    }
}

impl Default for AdmissionControl {
    fn default() -> AdmissionControl {
        AdmissionControl::unlimited()
    }
}

// ---------------------------------------------------------------------------
// Scheduler counters
// ---------------------------------------------------------------------------

/// What the M:N scheduler did during one fleet run. Carried on
/// [`MultiSessionReport`](crate::MultiSessionReport) (not rendered into
/// the base report, which stays byte-comparable with round-robin).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerReport {
    /// Crew width the fleet ran at.
    pub workers: usize,
    /// Bulk-synchronous rounds executed.
    pub rounds: u64,
    /// Cross-worker migrations: steps that ran a session on a different
    /// worker than its previous step. Always 0 at width 1.
    pub steals: u64,
    /// Sessions parked at a phase boundary (queued for the next phase).
    pub parks: u64,
    /// Sessions admitted out of the backlog.
    pub admitted: u64,
    /// Sessions retired (stream finished).
    pub retired: u64,
    /// Sessions shed by the backlog bound (reported, never run).
    pub shed: u64,
    /// Round boundaries where thrash signals delayed all admission.
    pub delayed_rounds: u64,
}

impl SchedulerReport {
    /// One-line human summary for logs and benches.
    pub fn summary(&self) -> String {
        format!(
            "scheduler: {} workers, {} rounds, {} steals, {} parks, \
             {} admitted, {} retired, {} shed, {} delayed rounds",
            self.workers,
            self.rounds,
            self.steals,
            self.parks,
            self.admitted,
            self.retired,
            self.shed,
            self.delayed_rounds
        )
    }
}

#[derive(Default)]
struct FleetStats {
    rounds: AtomicU64,
    steals: AtomicU64,
    parks: AtomicU64,
    admitted: AtomicU64,
    retired: AtomicU64,
    delayed_rounds: AtomicU64,
}

impl FleetStats {
    fn snapshot(&self, workers: usize, shed: u64) -> SchedulerReport {
        SchedulerReport {
            workers,
            rounds: self.rounds.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            retired: self.retired.load(Ordering::Relaxed),
            shed,
            delayed_rounds: self.delayed_rounds.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// Run queue and session slots
// ---------------------------------------------------------------------------

/// One worker's run queue for one phase parity: a fixed array of session
/// indices that steps append to during the previous phase and any worker
/// claims from through one atomic cursor.
///
/// `push` and `claim` are never called on the same queue concurrently:
/// steps push into the *next* phase's queue, and the phase gate's mutex
/// orders every push before every claim of the phase that drains it.
/// Capacity is fixed at construction and must cover every index pushed
/// between two `clear`s (the fleet sizes every queue to its session count;
/// a session sits in at most one queue at a time).
struct RunQueue {
    items: Box<[AtomicUsize]>,
    /// Indices pushed since the last `clear`.
    len: AtomicUsize,
    /// Next position to claim; overshoots `len` once the queue is drained.
    cursor: AtomicUsize,
}

impl RunQueue {
    fn with_capacity(cap: usize) -> RunQueue {
        RunQueue {
            items: std::iter::repeat_with(|| AtomicUsize::new(0)).take(cap).collect(),
            len: AtomicUsize::new(0),
            cursor: AtomicUsize::new(0),
        }
    }

    /// Appends `idx`.
    fn push(&self, idx: usize) {
        let at = self.len.fetch_add(1, Ordering::Relaxed);
        self.items[at].store(idx, Ordering::Relaxed);
    }

    /// Claims the next unclaimed index, in push order; `None` once every
    /// pushed index has been claimed.
    fn claim(&self) -> Option<usize> {
        let at = self.cursor.fetch_add(1, Ordering::Relaxed);
        (at < self.len()).then(|| self.items[at].load(Ordering::Relaxed))
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Empties the queue for reuse (phase flip only, with every worker at
    /// the gate).
    fn clear(&self) {
        self.len.store(0, Ordering::Relaxed);
        self.cursor.store(0, Ordering::Relaxed);
    }
}

/// One entry of the fleet's slot table: a borrowed session plus the worker
/// that ran its previous step (`None` before its first), which is how a
/// step detects a cross-worker migration.
struct Slot<'s> {
    session: &'s mut Session,
    worker: Option<usize>,
}

// ---------------------------------------------------------------------------
// Per-tenant admission backlog
// ---------------------------------------------------------------------------

struct AdmissionQueue {
    /// Per-tenant FIFOs of slot indices, ordered by tenant id.
    queues: Vec<VecDeque<usize>>,
    /// Round-robin cursor over tenants.
    cursor: usize,
    /// Total sessions still queued.
    backlog: usize,
    monitor: ThrashMonitor,
}

impl AdmissionQueue {
    fn new(sessions: &[Session], control: &AdmissionControl) -> AdmissionQueue {
        let mut tenants: Vec<usize> = sessions.iter().map(Session::tenant).collect();
        tenants.sort_unstable();
        tenants.dedup();
        let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); tenants.len().max(1)];
        for (idx, session) in sessions.iter().enumerate() {
            // Invariant, not an error path: `tenants` was just built as the
            // sorted dedup of these same sessions' tenant ids, so the
            // search cannot miss.
            let dense = tenants.binary_search(&session.tenant()).expect("tenant mapped");
            queues[dense].push_back(idx);
        }
        AdmissionQueue {
            queues,
            cursor: 0,
            backlog: sessions.len(),
            monitor: ThrashMonitor::new(control.ewma_alpha),
        }
    }

    /// Next session to admit, round-robin across tenants (fairness: a
    /// tenant with many queued sessions cannot starve one with few).
    fn take_fair(&mut self) -> Option<usize> {
        if self.backlog == 0 {
            return None;
        }
        loop {
            let t = self.cursor;
            self.cursor = (self.cursor + 1) % self.queues.len();
            if let Some(idx) = self.queues[t].pop_front() {
                self.backlog -= 1;
                return Some(idx);
            }
        }
    }

    /// Sheds queued sessions down to `limit`, trimming from the back of
    /// the longest tenant queue first (ties to the lowest tenant), so one
    /// flooding tenant pays before the others. Returns the shed indices.
    fn shed_over(&mut self, limit: usize) -> Vec<usize> {
        let mut shed = Vec::new();
        while self.backlog > limit {
            // Invariants, not error paths: `queues` is constructed with at
            // least one tenant FIFO, and `backlog > limit >= 0` means some
            // FIFO is non-empty, so the longest one cannot be empty.
            let (t, _) = self
                .queues
                .iter()
                .enumerate()
                .max_by_key(|(i, q)| (q.len(), std::cmp::Reverse(*i)))
                .expect("non-empty tenant list");
            let idx = self.queues[t].pop_back().expect("longest queue non-empty");
            self.backlog -= 1;
            shed.push(idx);
        }
        shed
    }

    /// True when thrash signals say the cache cannot absorb more load.
    /// Never delays when nothing is resident (`starving`): backpressure
    /// must not become a live-lock.
    fn delay_admission(
        &mut self,
        cache: &ShardedCache,
        control: &AdmissionControl,
        starving: bool,
    ) -> bool {
        self.monitor.observe(&cache.stats());
        !starving && self.monitor.is_thrashing(control.hit_floor, control.eviction_ceiling)
    }
}

// ---------------------------------------------------------------------------
// The fleet: one run's shared state
// ---------------------------------------------------------------------------

struct Gate {
    /// Phase counter; even epochs serve, odd epochs run windows.
    epoch: u64,
    /// Workers arrived at the current phase edge.
    arrived: usize,
    /// Terminal: no more phases (all work done, or the fleet aborted).
    done: bool,
}

struct FleetShared<'a, 'w> {
    ctx: &'a SimContext<'w>,
    exec: &'a ExecutorConfig,
    cache: &'a ShardedCache,
    /// Batched-I/O lanes; `None` runs the exact pre-batching phase
    /// bodies, byte for byte.
    batch: Option<&'a BatchCtl>,
    /// Fleet telemetry; `None` records nothing. The scheduler itself only
    /// uses it for the phase-flip span — migration/park events are
    /// recorded through the sessions' own rings.
    telem: Option<&'a FleetTelemetry>,
    control: AdmissionControl,
    width: usize,
    /// The fleet's sessions by index; a step holds its slot's lock for
    /// the whole step.
    slots: Vec<Mutex<Slot<'a>>>,
    /// One pair of run queues per worker, indexed by phase parity
    /// (`epoch & 1`). A worker parks sessions into its own next-phase
    /// queue and claims from its own queue before its siblings', so a
    /// session tends to stay on the core whose caches hold it.
    queues: Vec<[RunQueue; 2]>,
    gate: Mutex<Gate>,
    gate_cv: Condvar,
    abort: AtomicBool,
    failure: Mutex<Option<Box<dyn Any + Send>>>,
    admission: Mutex<AdmissionQueue>,
    stats: FleetStats,
}

impl FleetShared<'_, '_> {
    fn resident(&self) -> usize {
        (self.stats.admitted.load(Ordering::Relaxed) - self.stats.retired.load(Ordering::Relaxed))
            as usize
    }

    /// Records the first failure and releases everyone: claiming workers
    /// observe `abort`, workers parked at the gate observe `done`.
    fn fail(&self, payload: Box<dyn Any + Send>) {
        lock_unpoisoned(&self.failure).get_or_insert(payload);
        self.abort.store(true, Ordering::SeqCst);
        let mut g = lock_unpoisoned(&self.gate);
        g.done = true;
        self.gate_cv.notify_all();
    }

    /// Worker `w`'s drain loop; every worker (the caller is worker 0)
    /// runs this until the gate reports the fleet done.
    fn drain(&self, w: usize) {
        let outcome = catch_unwind(AssertUnwindSafe(|| self.drain_inner(w)));
        if let Err(payload) = outcome {
            // A panic outside a session step (a scheduler bug) must still
            // release the fleet, not hang the sibling workers.
            self.fail(payload);
        }
    }

    fn drain_inner(&self, w: usize) {
        let mut epoch = 0u64;
        loop {
            // Own queue first, then each sibling's in turn.
            for off in 0..self.width {
                let queue = &self.queues[(w + off) % self.width][(epoch & 1) as usize];
                while !self.abort.load(Ordering::Relaxed) {
                    let Some(idx) = queue.claim() else { break };
                    self.step(w, idx, epoch);
                }
            }
            // Every index of this phase is claimed; the ones still running
            // are in siblings' hands, and they arrive when done.
            match self.arrive(w, epoch) {
                Some(next) => epoch = next,
                None => return,
            }
        }
    }

    /// Runs one session sub-phase and parks, retires or aborts.
    fn step(&self, w: usize, idx: usize, epoch: u64) {
        let Ok(mut slot) = self.slots[idx].try_lock() else {
            panic!("session slot {idx} claimed twice — scheduler invariant broken");
        };
        if slot.worker.is_some_and(|prev| prev != w) {
            self.stats.steals.fetch_add(1, Ordering::Relaxed);
            slot.session.note_stolen(w as u32);
        }
        slot.worker = Some(w);
        let session = &mut *slot.session;
        let serving = epoch.is_multiple_of(2);
        let outcome = catch_unwind(AssertUnwindSafe(|| match (self.batch, serving) {
            (None, true) => {
                // `false` = stream exhausted (only ever on a session with
                // fewer queries than the fleet has rounds; it retires).
                session.serve_observe(self.ctx, &mut &*self.cache, self.exec)
            }
            (None, false) => {
                session.finish_window(self.ctx, &mut &*self.cache, self.exec);
                !session.is_done()
            }
            (Some(batch), true) => {
                session.serve_stage(self.ctx, &mut &*self.cache, self.exec, &batch.demand)
            }
            (Some(batch), false) => {
                session.serve_complete(self.ctx, self.exec, &batch.demand);
                session.window_stage(self.ctx, &self.cache, &batch.window, idx as u32);
                !session.is_done()
            }
        }));
        match outcome {
            Ok(true) => {
                // Width 1 records no park events, so its event stream
                // stays round-robin's exactly.
                if self.width > 1 {
                    session.note_parked(w as u32);
                }
                self.queues[w][((epoch + 1) & 1) as usize].push(idx);
                self.stats.parks.fetch_add(1, Ordering::Relaxed);
            }
            Ok(false) => {
                self.stats.retired.fetch_add(1, Ordering::Relaxed);
            }
            Err(payload) => self.fail(payload),
        }
    }

    /// The W-wide phase rendezvous. The last worker to arrive flips the
    /// phase (running admission at round boundaries) and wakes the rest.
    /// Returns the next epoch, or `None` when the fleet is done.
    fn arrive(&self, w: usize, epoch: u64) -> Option<u64> {
        let mut g = lock_unpoisoned(&self.gate);
        if g.done {
            return None;
        }
        g.arrived += 1;
        if g.arrived < self.width {
            while g.epoch == epoch && !g.done {
                g = self.gate_cv.wait(g).unwrap_or_else(PoisonError::into_inner);
            }
            return if g.done { None } else { Some(g.epoch) };
        }
        // Everyone is here; this worker flips the phase. All pushes for
        // the next phase happened before their workers arrived, so its
        // queues are final, and the drained queues become the push
        // targets of the phase after.
        g.arrived = 0;
        let next = epoch + 1;
        for pair in &self.queues {
            pair[(epoch & 1) as usize].clear();
        }
        let queued =
            || self.queues.iter().map(|pair| pair[(next & 1) as usize].len()).sum::<usize>();
        // The flip's critical section — batch submits plus admission, run
        // while every sibling is parked — is one of the profiled hot
        // phases (no-op when telemetry is disarmed or spans are off).
        let _flip_span = self.telem.and_then(|t| {
            SpanTimer::start_if(t.plan.spans, t.registry.histogram(HistogramId::SpanPhaseFlipUs))
        });
        if self.abort.load(Ordering::Relaxed) {
            g.done = true;
        } else {
            if let Some(batch) = self.batch {
                // The flip is where staged batches hit the disk: demand
                // on entering a window phase (sessions consume the
                // outcomes next), window on entering a serve phase (the
                // next round serves against the published membership).
                // Both run while every other worker is parked at the
                // gate, keyed by the round ordinal `epoch / 2`.
                if next.is_multiple_of(2) {
                    batch.submit_window(self.cache, epoch / 2);
                } else {
                    batch.submit_demand(epoch / 2);
                }
            }
            if next.is_multiple_of(2) {
                // Entering a serve phase = starting a round.
                self.admit(&self.queues[w][(next & 1) as usize], queued() == 0);
                if queued() > 0 {
                    self.stats.rounds.fetch_add(1, Ordering::Relaxed);
                }
            }
            g.done = queued() == 0;
        }
        drop(_flip_span);
        g.epoch = next;
        let done = g.done;
        self.gate_cv.notify_all();
        drop(g);
        // Pipelined tail: the window batch's ledger accounting and buffer
        // recycling need neither the cache nor any session, so they run
        // *after* the gate released — overlapped with the serve phase the
        // sibling workers are already executing. The next flip's window
        // lock (or fleet teardown) is the drain point.
        if next.is_multiple_of(2) && !self.abort.load(Ordering::Relaxed) {
            if let Some(batch) = self.batch {
                batch.finish_window();
            }
        }
        (!done).then_some(next)
    }

    /// Round-boundary admission, run by the flipping worker while every
    /// other worker is parked at the gate (hence effectively serial).
    /// Admitted sessions are appended to the flipper's serve queue after
    /// its survivors. `starving` (no survivors from the previous round)
    /// overrides the thrash delay so backpressure cannot live-lock.
    fn admit(&self, queue: &RunQueue, starving: bool) {
        let mut q = lock_unpoisoned(&self.admission);
        if q.backlog == 0 {
            return;
        }
        if q.delay_admission(self.cache, &self.control, starving) {
            self.stats.delayed_rounds.fetch_add(1, Ordering::Relaxed);
            return;
        }
        while self.resident() < self.control.max_resident {
            let Some(idx) = q.take_fair() else { break };
            queue.push(idx);
            self.stats.admitted.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------------
// The long-lived scheduler (crew owner)
// ---------------------------------------------------------------------------

/// Outcome of one fleet run, consumed by the multi-session engine's
/// report assembly.
pub(crate) struct FleetOutcome {
    /// `shed[i]` marks `sessions[i]` as shed by admission control.
    pub(crate) shed: Vec<bool>,
    pub(crate) report: SchedulerReport,
}

/// The long-lived M:N scheduler: a lazily-grown crew of worker threads
/// (parked between fleets) plus the dispatch lock that serializes fleet
/// runs. One process-wide instance ([`SessionScheduler::global`]) backs
/// [`Schedule::WorkStealing`](crate::Schedule); independent instances are
/// only interesting for tests.
pub struct SessionScheduler {
    shared: &'static PoolShared,
    /// Serializes fleets. Unlike [`WorkerPool`](crate::WorkerPool)'s
    /// `try_lock`-and-degrade, this **blocks**: a fleet drain parks at
    /// phase gates, so running its parts sequentially would deadlock.
    dispatch: Mutex<()>,
    /// Workers spawned so far (grown on demand, never shrunk).
    spawned: Mutex<usize>,
}

impl std::fmt::Debug for SessionScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionScheduler")
            .field("spawned", &*lock_unpoisoned(&self.spawned))
            .finish()
    }
}

impl Default for SessionScheduler {
    fn default() -> SessionScheduler {
        SessionScheduler::new()
    }
}

impl SessionScheduler {
    /// A scheduler with no workers yet; the crew grows to each fleet's
    /// requested width on demand.
    pub fn new() -> SessionScheduler {
        SessionScheduler {
            shared: PoolShared::leak_new(),
            dispatch: Mutex::new(()),
            spawned: Mutex::new(0),
        }
    }

    /// The process-wide scheduler used by
    /// [`Schedule::WorkStealing`](crate::Schedule).
    pub fn global() -> &'static SessionScheduler {
        static GLOBAL: OnceLock<SessionScheduler> = OnceLock::new();
        GLOBAL.get_or_init(SessionScheduler::new)
    }

    /// Ensures up to `wanted` crew workers exist; returns how many are
    /// actually available (spawn failure degrades the width, it does not
    /// panic the run).
    fn ensure_workers(&self, wanted: usize) -> usize {
        let mut spawned = self.spawned.lock().unwrap_or_else(|e| e.into_inner());
        while *spawned < wanted {
            let id = *spawned + 1; // ids are 1-based; 0 is the caller
            let shared = self.shared;
            let builder = std::thread::Builder::new().name(format!("scout-sched-{id}"));
            if builder.spawn(move || worker_loop(shared, id)).is_err() {
                break;
            }
            *spawned += 1;
        }
        (*spawned).min(wanted)
    }

    /// Runs a complete multi-session fleet. `workers` is clamped to at
    /// least 1; width 1 runs the drain loop inline on the caller, width
    /// > 1 dispatches it onto the crew.
    #[allow(clippy::too_many_arguments)] // one run's full environment
    pub(crate) fn run_fleet(
        &self,
        ctx: &SimContext<'_>,
        exec: &ExecutorConfig,
        cache: &ShardedCache,
        sessions: &mut [Session],
        workers: usize,
        control: AdmissionControl,
        batch: Option<&BatchCtl>,
        telemetry: Option<&FleetTelemetry>,
    ) -> FleetOutcome {
        control.assert_valid();
        if sessions.is_empty() {
            let report = SchedulerReport { workers: workers.max(1), ..Default::default() };
            return FleetOutcome { shed: Vec::new(), report };
        }
        // A crew fleet holds the crew for its whole run; concurrent fleets
        // queue here. A previous fleet's panic unwound through this guard;
        // the lock protects nothing but the crew's exclusivity, so poison
        // is moot.
        let _crew = (workers > 1).then(|| self.dispatch.lock().unwrap_or_else(|e| e.into_inner()));
        let extra = if workers > 1 { self.ensure_workers(workers - 1) } else { 0 };
        let width = extra + 1;
        let n = sessions.len();

        // Initial admission: the monitor is cold (never thrashing), so
        // this fills up to `max_resident` into worker 0's serve queue. Any
        // worker may park every session, so each queue holds the fleet.
        let mut admission = AdmissionQueue::new(sessions, &control);
        let queues: Vec<[RunQueue; 2]> =
            (0..width).map(|_| [RunQueue::with_capacity(n), RunQueue::with_capacity(n)]).collect();
        while queues[0][0].len() < control.max_resident {
            let Some(idx) = admission.take_fair() else { break };
            queues[0][0].push(idx);
        }
        // The ready queue is bounded: whatever exceeds the backlog limit
        // after initial admission is shed up front.
        let mut shed = vec![false; n];
        for idx in admission.shed_over(control.backlog_limit) {
            shed[idx] = true;
        }
        let shed_count = shed.iter().filter(|&&s| s).count() as u64;
        let fleet = FleetShared {
            ctx,
            exec,
            cache,
            batch,
            telem: telemetry,
            control,
            width,
            slots: sessions
                .iter_mut()
                .map(|session| Mutex::new(Slot { session, worker: None }))
                .collect(),
            stats: FleetStats {
                rounds: AtomicU64::new(1),
                admitted: AtomicU64::new(queues[0][0].len() as u64),
                ..FleetStats::default()
            },
            queues,
            gate: Mutex::new(Gate { epoch: 0, arrived: 0, done: false }),
            gate_cv: Condvar::new(),
            abort: AtomicBool::new(false),
            failure: Mutex::new(None),
            admission: Mutex::new(admission),
        };

        if extra == 0 {
            fleet.drain(0);
        } else {
            self.dispatch_crew(extra, &|w| fleet.drain(w));
        }

        let FleetShared { stats, failure, .. } = fleet;
        if let Some(payload) = failure.into_inner().unwrap_or_else(PoisonError::into_inner) {
            resume_unwind(payload);
        }
        FleetOutcome { report: stats.snapshot(width, shed_count), shed }
    }

    /// Runs `drain(0)` on the caller and `drain(1..=extra)` on the crew,
    /// then joins — the same handshake as `WorkerPool::run`, minus the
    /// inline fallback.
    fn dispatch_crew(&self, extra: usize, drain: &(dyn Fn(usize) + Sync)) {
        let job = Job::erase(drain);
        {
            let mut state = lock_unpoisoned(&self.shared.state);
            state.job = Some(job);
            state.active = extra;
            state.remaining = extra;
            state.epoch += 1;
            self.shared.work_cv.notify_all();
        }
        // `drain` catches everything itself, but the join must survive
        // even a panic that escapes it (see WorkerPool::run).
        let caller = catch_unwind(AssertUnwindSafe(|| drain(0)));
        let mut state = lock_unpoisoned(&self.shared.state);
        while state.remaining > 0 {
            state = self.shared.done_cv.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        state.job = None;
        let crew_panic = state.panic.take();
        drop(state);
        if let Err(payload) = caller {
            resume_unwind(payload);
        }
        if let Some(payload) = crew_panic {
            resume_unwind(payload);
        }
    }
}

impl Drop for SessionScheduler {
    /// Signals crew workers to exit (the global instance is never
    /// dropped). Mirrors `WorkerPool`'s shutdown.
    fn drop(&mut self) {
        let mut state = match self.shared.state.lock() {
            Ok(state) => state,
            Err(poisoned) => poisoned.into_inner(),
        };
        state.shutdown = true;
        self.shared.work_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn run_queue_claims_each_index_once_in_push_order() {
        // A single claimer sees push order — the property width-1
        // byte-identity with round-robin rests on.
        let q = RunQueue::with_capacity(8);
        for i in [5, 1, 7, 3] {
            q.push(i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.claim()).collect();
        assert_eq!(order, vec![5, 1, 7, 3]);
        assert_eq!(q.claim(), None, "a drained queue stays drained");
        q.clear();
        q.push(2);
        assert_eq!(q.claim(), Some(2), "reusable after clear");

        // Two threads racing `claim` see every pushed index exactly once.
        const ITEMS: usize = 20_000;
        let q = RunQueue::with_capacity(ITEMS);
        for i in 0..ITEMS {
            q.push(i);
        }
        let seen: Vec<AtomicU32> = (0..ITEMS).map(|_| AtomicU32::new(0)).collect();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    while let Some(i) = q.claim() {
                        seen[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        for (i, s) in seen.iter().enumerate() {
            assert_eq!(s.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn admission_queue_is_tenant_fair() {
        use crate::prefetcher::NoPrefetch;
        // Tenant 0 floods (4 sessions), tenant 7 has 2: take order must
        // alternate tenants while both are non-empty.
        let sessions: Vec<Session> = (0..6)
            .map(|i| {
                Session::new(i, Box::new(NoPrefetch), Vec::new()).with_tenant(if i < 4 {
                    0
                } else {
                    7
                })
            })
            .collect();
        let control = AdmissionControl::unlimited();
        let mut q = AdmissionQueue::new(&sessions, &control);
        let order: Vec<usize> = std::iter::from_fn(|| q.take_fair()).collect();
        assert_eq!(order, vec![0, 4, 1, 5, 2, 3]);
    }

    #[test]
    fn admission_queue_sheds_from_the_flooding_tenant() {
        use crate::prefetcher::NoPrefetch;
        let sessions: Vec<Session> = (0..5)
            .map(|i| {
                Session::new(i, Box::new(NoPrefetch), Vec::new()).with_tenant(if i < 4 {
                    0
                } else {
                    1
                })
            })
            .collect();
        let control = AdmissionControl::unlimited();
        let mut q = AdmissionQueue::new(&sessions, &control);
        // Trim 5 -> 2: all three sheds must come off tenant 0's tail.
        let shed = q.shed_over(2);
        assert_eq!(shed, vec![3, 2, 1]);
        assert_eq!(q.backlog, 2);
        assert_eq!(q.take_fair(), Some(0));
        assert_eq!(q.take_fair(), Some(4));
    }

    #[test]
    #[should_panic(expected = "max_resident")]
    fn zero_max_resident_rejected() {
        AdmissionControl::bounded(0).assert_valid();
    }
}
