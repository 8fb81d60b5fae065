//! The batch-solve server: a bounded priority queue of jobs, a worker
//! pool draining it, and the [`SolutionCache`] in front of the solvers.
//!
//! ## Scheduling and admission control
//!
//! [`Server::submit`] enqueues a [`JobRequest`] onto a bounded priority
//! queue (highest [`JobOptions::priority`] first, FIFO within a
//! priority). When the queue is full the submitter blocks for at most
//! [`ServerConfig::admission_wait`] — bounded backpressure — and is
//! then **shed** with [`SubmitError::Overloaded`] carrying a
//! retry-after hint, so an overloaded server degrades into explicit,
//! retryable refusals instead of unbounded convoy. Every *accepted*
//! job still produces exactly one terminal event. Worker threads pop
//! jobs and drive them through registry dispatch → cache lookup →
//! solve, sending [`Event`]s to the per-job channel the submitter
//! supplied. Deadlines are clocked from **submission**, not solve
//! start: time spent queued consumes the job's budget, so a stale job
//! degrades promptly instead of burning a full budget after the client
//! stopped caring.
//!
//! ## Supervision
//!
//! Worker threads are supervised. The solve itself runs under
//! `catch_unwind`, so a panicking solver yields a structured
//! [`SolveError::Panicked`] and a terminal [`Event::Failed`], and the
//! worker lives on. If a worker thread dies anyway (a panic outside
//! the guarded solve), two drop guards fire: the in-flight job still
//! gets its terminal `Failed` event, and a replacement worker is
//! spawned before the dead one unwinds — no job is ever silently lost,
//! and [`ServerStats::worker_restarts`] counts the respawns. Lock
//! poisoning is tolerated everywhere (queue state is consistent at every
//! unlock point, so a poisoned mutex is recovered, not propagated).
//!
//! [`SolveError::Panicked`]: rbp_solvers::SolveError::Panicked
//!
//! ## Cancellation
//!
//! Every job carries an `Arc<AtomicBool>` cancel flag, registered under
//! the job id. [`Server::cancel`] sets it: a still-queued job is
//! dropped at pop time with [`Event::Cancelled`]; an in-flight job
//! stops at the solver's next budget poll (the flag rides the
//! [`Budget`]), and its partial result is reported as `Cancelled`, not
//! `Done`, and is never cached.
//!
//! ## Memoization
//!
//! The spec is parsed first, so a malformed one fails even on a cached
//! instance. Results are keyed by [`Instance::canonical_key`] of the
//! problem the solver pebbles ([`Solver::problem`]). A cache entry of
//! sufficient quality (per the request's [`AcceptPolicy`]) answers
//! without solving ([`Event::CacheHit`] then [`Event::Done`] with
//! `cached: true`) only if it answers that problem: an `Infeasible`
//! entry an infeasible problem, any other a trace [`certify`] accepts
//! at the claimed cost. Otherwise it is evicted and the job solved.
//! Fresh results go through [`SolutionCache::insert_or_upgrade`], so a
//! later exact solve upgrades a cached heuristic bound in place.
//!
//! [`Instance::canonical_key`]: rbp_core::Instance::canonical_key
//! [`Solver::problem`]: rbp_solvers::Solver::problem
//! [`certify`]: rbp_core::certify()

use crate::cache::{AcceptPolicy, CacheStats, CachedEntry, SolutionCache};
use rbp_core::{certify, Instance};
use rbp_solvers::{
    panic_payload_to_string, Budget, Progress, Quality, Registry, Solution, SolveCtx, SolveError,
};
use std::cmp::Ordering as CmpOrdering;
use std::collections::{BinaryHeap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Locks a mutex, recovering from poisoning. Every critical section in
/// this module leaves its data consistent at the moment of unlock (and
/// the solve itself never runs under a lock), so a poisoned mutex —
/// possible only when a supervised worker dies mid-section — is safe to
/// recover rather than propagate: propagating would turn one dead
/// worker into a poisoned server.
fn lock_sane<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Per-job options (the `key=value` tail of a `submit` line).
#[derive(Clone, Debug)]
pub struct JobOptions {
    /// Wall-clock budget for the solve.
    pub deadline: Option<Duration>,
    /// Expansion-count budget for the solve (deterministic, unlike the
    /// deadline — what tests and reproducible workloads should use).
    pub max_expansions: Option<u64>,
    /// Scheduling priority; higher runs first. Default 0.
    pub priority: i64,
    /// What cached quality may answer this request without solving.
    pub accept: AcceptPolicy,
    /// Whether to consult and populate the cache at all.
    pub use_cache: bool,
}

impl Default for JobOptions {
    fn default() -> Self {
        JobOptions {
            deadline: None,
            max_expansions: None,
            priority: 0,
            accept: AcceptPolicy::Optimal,
            use_cache: true,
        }
    }
}

/// One unit of work: an instance, the registry spec to solve it with,
/// and the options.
#[derive(Clone, Debug)]
pub struct JobRequest {
    /// Client-chosen id, echoed in every event for this job. Resubmitting
    /// an id re-points [`Server::cancel`] at the newest job.
    pub id: String,
    /// Registry spec (`"exact"`, `"greedy:most-red-inputs/lru"`, …).
    pub spec: String,
    /// The instance to pebble.
    pub instance: Instance,
    /// Budget, priority, and cache policy.
    pub options: JobOptions,
}

/// Lifecycle events delivered to the submitter's channel. Every
/// accepted job ends with exactly one terminal event: `Done`, `Failed`,
/// or `Cancelled`.
#[derive(Clone, Debug)]
pub enum Event {
    /// The job was accepted onto the queue.
    Queued {
        /// The job id.
        id: String,
    },
    /// The cache answered; a `Done { cached: true }` follows.
    CacheHit {
        /// The job id.
        id: String,
        /// The spec that originally produced the cached entry.
        spec: String,
    },
    /// A progress snapshot from the running solver.
    Progress {
        /// The job id.
        id: String,
        /// States expanded so far.
        states_expanded: u64,
        /// Expansion throughput since the solve started.
        states_per_sec: u64,
    },
    /// Terminal: the job produced a solution.
    Done {
        /// The job id.
        id: String,
        /// The exact spec that produced the solution
        /// ([`rbp_solvers::Solver::spec`] of the solver that ran, or of
        /// the cached producer when `cached`).
        spec: String,
        /// Whether the cache answered instead of a solver run.
        cached: bool,
        /// The (engine-validated) solution.
        solution: Solution,
    },
    /// Terminal: the job failed (bad spec, infeasible budget, …).
    Failed {
        /// The job id.
        id: String,
        /// Human-readable cause.
        error: String,
    },
    /// Terminal: the job was cancelled before or during its solve.
    Cancelled {
        /// The job id.
        id: String,
    },
}

impl Event {
    /// The job id this event belongs to.
    pub fn id(&self) -> &str {
        match self {
            Event::Queued { id }
            | Event::CacheHit { id, .. }
            | Event::Progress { id, .. }
            | Event::Done { id, .. }
            | Event::Failed { id, .. }
            | Event::Cancelled { id } => id,
        }
    }

    /// Whether this is the job's final event.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            Event::Done { .. } | Event::Failed { .. } | Event::Cancelled { .. }
        )
    }
}

/// Why a submission was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The server is shutting down and accepts no new work.
    ShuttingDown,
    /// The queue stayed full for the whole
    /// [`ServerConfig::admission_wait`]: the job was shed. The client
    /// should back off for about `retry_after` and resubmit (see
    /// [`Server::submit_with_retry`]).
    Overloaded {
        /// Suggested client backoff before retrying.
        retry_after: Duration,
    },
}

impl SubmitError {
    /// Whether a retry after backoff may succeed (overload is
    /// transient; shutdown is not).
    pub fn is_retryable(&self) -> bool {
        matches!(self, SubmitError::Overloaded { .. })
    }
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::ShuttingDown => f.write_str("server is shutting down"),
            SubmitError::Overloaded { retry_after } => write!(
                f,
                "server overloaded, retry after {} ms",
                retry_after.as_millis()
            ),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Server sizing knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Worker threads (0 resolves to `available_parallelism`).
    pub workers: usize,
    /// Queue slots before [`Server::submit`] starts waiting (min 1).
    pub queue_capacity: usize,
    /// How long [`Server::submit`] waits on a full queue before
    /// shedding the job with [`SubmitError::Overloaded`]. Zero sheds
    /// immediately (pure load shedding); large values approximate the
    /// old block-forever backpressure.
    pub admission_wait: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            queue_capacity: 64,
            admission_wait: Duration::from_secs(1),
        }
    }
}

/// Point-in-time server counters ([`Server::stats`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    /// Jobs accepted since start.
    pub submitted: u64,
    /// Jobs that reached a terminal event.
    pub completed: u64,
    /// Solver runs actually started (cache hits and cancellations
    /// before start do not count).
    pub solves: u64,
    /// Jobs currently waiting in the queue.
    pub queued: u64,
    /// Jobs that failed because a solve panicked (the panic was
    /// contained; the worker survived or was restarted).
    pub panics: u64,
    /// Worker threads respawned after dying mid-job.
    pub worker_restarts: u64,
    /// Submissions refused with [`SubmitError::Overloaded`].
    pub shed: u64,
    /// Resubmit attempts made through [`Server::submit_with_retry`]
    /// after a shed (first attempts do not count).
    pub retries_observed: u64,
    /// Cache counters.
    pub cache: CacheStats,
}

struct QueuedJob {
    priority: i64,
    seq: u64,
    req: JobRequest,
    events: Sender<Event>,
    cancel: Arc<AtomicBool>,
    /// When the job was accepted; deadlines are measured from here.
    submitted_at: Instant,
}

impl PartialEq for QueuedJob {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl Eq for QueuedJob {}
impl PartialOrd for QueuedJob {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedJob {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // max-heap: higher priority first, then lower seq (FIFO)
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

struct QueueState {
    heap: BinaryHeap<QueuedJob>,
    open: bool,
}

struct Shared {
    queue: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    admission_wait: Duration,
    cache: SolutionCache,
    registry: Registry,
    jobs: Mutex<HashMap<String, Arc<AtomicBool>>>,
    /// Worker join handles; respawned workers push their own handle
    /// here, so shutdown joins replacements too.
    workers: Mutex<Vec<JoinHandle<()>>>,
    seq: AtomicU64,
    submitted: AtomicU64,
    completed: AtomicU64,
    solves: AtomicU64,
    panics: AtomicU64,
    worker_restarts: AtomicU64,
    shed: AtomicU64,
    retries: AtomicU64,
    #[cfg(feature = "chaos")]
    faults: Option<crate::chaos::FaultPlan>,
}

/// The running batch server. Dropping it without [`Server::shutdown`]
/// also drains and joins (via `Drop`), so tests cannot leak workers.
pub struct Server {
    shared: Arc<Shared>,
}

impl Server {
    /// Starts the worker pool with the built-in solver registry.
    pub fn start(cfg: ServerConfig) -> Server {
        Server::with_registry(cfg, Registry::with_builtins())
    }

    /// Starts the worker pool with a caller-extended registry.
    pub fn with_registry(cfg: ServerConfig, registry: Registry) -> Server {
        Server::spawn(cfg, Server::new_shared(&cfg, registry))
    }

    /// Starts a server whose service paths consult a deterministic
    /// [`crate::chaos::FaultPlan`] — the entry point of the chaos soak
    /// harness. Only available with the `chaos` feature.
    #[cfg(feature = "chaos")]
    pub fn with_faults(
        cfg: ServerConfig,
        registry: Registry,
        faults: crate::chaos::FaultPlan,
    ) -> Server {
        let mut shared = Server::new_shared(&cfg, registry);
        shared.faults = Some(faults);
        Server::spawn(cfg, shared)
    }

    fn new_shared(cfg: &ServerConfig, registry: Registry) -> Shared {
        Shared {
            queue: Mutex::new(QueueState {
                heap: BinaryHeap::new(),
                open: true,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: cfg.queue_capacity.max(1),
            admission_wait: cfg.admission_wait,
            cache: SolutionCache::new(),
            registry,
            jobs: Mutex::new(HashMap::new()),
            workers: Mutex::new(Vec::new()),
            seq: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            solves: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            worker_restarts: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            #[cfg(feature = "chaos")]
            faults: None,
        }
    }

    fn spawn(cfg: ServerConfig, shared: Shared) -> Server {
        let workers = if cfg.workers == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            cfg.workers
        };
        let shared = Arc::new(shared);
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(shared))
            })
            .collect();
        *lock_sane(&shared.workers) = handles;
        Server { shared }
    }

    /// Enqueues a job; its events flow to `events`. Waits up to
    /// [`ServerConfig::admission_wait`] while the queue is full, then
    /// sheds with [`SubmitError::Overloaded`]. The job's `Queued` event
    /// is sent before this returns.
    pub fn submit(&self, req: JobRequest, events: Sender<Event>) -> Result<(), SubmitError> {
        let cancel = Arc::new(AtomicBool::new(false));
        let wait_started = Instant::now();
        let mut q = lock_sane(&self.shared.queue);
        while q.open && q.heap.len() >= self.shared.capacity {
            let Some(remaining) = self
                .shared
                .admission_wait
                .checked_sub(wait_started.elapsed())
            else {
                drop(q);
                self.shared.shed.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::Overloaded {
                    retry_after: retry_after_hint(self.shared.admission_wait),
                });
            };
            q = self
                .shared
                .not_full
                .wait_timeout(q, remaining)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        if !q.open {
            return Err(SubmitError::ShuttingDown);
        }
        lock_sane(&self.shared.jobs).insert(req.id.clone(), Arc::clone(&cancel));
        let _ = events.send(Event::Queued { id: req.id.clone() });
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        q.heap.push(QueuedJob {
            priority: req.options.priority,
            seq: self.shared.seq.fetch_add(1, Ordering::Relaxed),
            req,
            events,
            cancel,
            submitted_at: Instant::now(),
        });
        drop(q);
        self.shared.not_empty.notify_one();
        Ok(())
    }

    /// Convenience for tests and one-shot callers: submit and get the
    /// receiving end of a fresh channel.
    pub fn submit_collect(
        &self,
        req: JobRequest,
    ) -> Result<std::sync::mpsc::Receiver<Event>, SubmitError> {
        let (tx, rx) = std::sync::mpsc::channel();
        self.submit(req, tx)?;
        Ok(rx)
    }

    /// Requests cancellation of the newest job submitted under `id`.
    /// Returns whether such a job existed (it may already have
    /// finished; cancellation is cooperative and best-effort).
    pub fn cancel(&self, id: &str) -> bool {
        match lock_sane(&self.shared.jobs).get(id) {
            Some(flag) => {
                flag.store(true, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Relaxed),
            solves: self.shared.solves.load(Ordering::Relaxed),
            queued: lock_sane(&self.shared.queue).heap.len() as u64,
            panics: self.shared.panics.load(Ordering::Relaxed),
            worker_restarts: self.shared.worker_restarts.load(Ordering::Relaxed),
            shed: self.shared.shed.load(Ordering::Relaxed),
            retries_observed: self.shared.retries.load(Ordering::Relaxed),
            cache: self.shared.cache.stats(),
        }
    }

    /// Counts one observed resubmission (used by the retry helper).
    pub(crate) fn note_retry(&self) {
        self.shared.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Shared access to the cache (for reporting and tests).
    pub fn cache(&self) -> &SolutionCache {
        &self.shared.cache
    }

    /// Stops accepting work, drains the queue (already-accepted jobs
    /// still run to their terminal event), and joins the workers.
    pub fn shutdown(mut self) {
        self.close_and_join();
    }

    fn close_and_join(&mut self) {
        {
            let mut q = lock_sane(&self.shared.queue);
            q.open = false;
        }
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        // respawned workers push fresh handles while we join, so drain
        // until the list stays empty (respawn stops once the queue is
        // closed and drained, so this terminates)
        loop {
            let handles: Vec<_> = {
                let mut w = lock_sane(&self.shared.workers);
                w.drain(..).collect()
            };
            if handles.is_empty() {
                break;
            }
            for h in handles {
                let _ = h.join();
            }
        }
    }
}

/// What [`SubmitError::Overloaded`] suggests as backoff: the admission
/// wait itself (floored for zero-wait pure-shedding servers), i.e. "the
/// queue did not drain a slot in this long, come back after as much".
fn retry_after_hint(admission_wait: Duration) -> Duration {
    admission_wait.max(Duration::from_millis(10))
}

impl Drop for Server {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

/// Supervises one worker thread: if the thread unwinds (a panic that
/// escaped the solve guard), this drop spawns a replacement *before*
/// the dead worker finishes unwinding — unless the server is already
/// closed with an empty queue, in which case death is indistinguishable
/// from a normal exit and nothing needs the replacement.
struct WorkerGuard {
    shared: Arc<Shared>,
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        let respawn = {
            let q = lock_sane(&self.shared.queue);
            q.open || !q.heap.is_empty()
        };
        if respawn {
            self.shared.worker_restarts.fetch_add(1, Ordering::Relaxed);
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::spawn(move || worker_loop(shared));
            lock_sane(&self.shared.workers).push(handle);
        }
    }
}

/// Guarantees the in-flight job a terminal event: if [`run_job`]
/// unwinds before reaching one of its own terminal paths, this drop
/// delivers `Failed` (and the completion bookkeeping) on the way out.
/// Normal completion goes through [`JobGuard::complete`], which disarms
/// the guard.
struct JobGuard<'a> {
    shared: &'a Shared,
    id: String,
    events: Sender<Event>,
    cancel: Arc<AtomicBool>,
    armed: bool,
}

impl JobGuard<'_> {
    /// Sends the job's terminal event and disarms the guard.
    fn complete(&mut self, terminal: Event) {
        debug_assert!(terminal.is_terminal());
        self.armed = false;
        finish_job(self.shared, &self.id, &self.cancel);
        let _ = self.events.send(terminal);
    }
}

impl Drop for JobGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.shared.panics.fetch_add(1, Ordering::Relaxed);
            finish_job(self.shared, &self.id, &self.cancel);
            let _ = self.events.send(Event::Failed {
                id: self.id.clone(),
                error: "worker thread died mid-job; worker restarted".to_string(),
            });
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    let _supervisor = WorkerGuard {
        shared: Arc::clone(&shared),
    };
    loop {
        let job = {
            let mut q = lock_sane(&shared.queue);
            loop {
                if let Some(j) = q.heap.pop() {
                    shared.not_full.notify_one();
                    break Some(j);
                }
                if !q.open {
                    break None;
                }
                q = shared
                    .not_empty
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        match job {
            Some(j) => run_job(&shared, j),
            None => return,
        }
    }
}

/// Drops the job's cancel-flag registration (only if it is still *this*
/// job's flag — a resubmitted id re-points the slot) and counts the
/// completion.
fn finish_job(shared: &Shared, id: &str, cancel: &Arc<AtomicBool>) {
    let mut jobs = lock_sane(&shared.jobs);
    if jobs.get(id).is_some_and(|f| Arc::ptr_eq(f, cancel)) {
        jobs.remove(id);
    }
    drop(jobs);
    shared.completed.fetch_add(1, Ordering::Relaxed);
}

/// Whether a cached entry answers `problem`: an `Infeasible` entry an
/// infeasible problem, any other a trace certified at its claimed cost.
fn answers(problem: &Instance, entry: &CachedEntry) -> bool {
    match entry.solution.quality {
        Quality::Infeasible => !problem.is_feasible(),
        _ => certify(problem, &entry.solution.trace)
            .is_ok_and(|c| c.matches(&entry.solution.cost) && c.scaled_cost == entry.scaled_cost),
    }
}

fn run_job(shared: &Shared, job: QueuedJob) {
    let QueuedJob {
        req,
        events,
        cancel,
        submitted_at,
        ..
    } = job;
    let id = req.id.clone();
    let mut guard = JobGuard {
        shared,
        id: id.clone(),
        events: events.clone(),
        cancel: Arc::clone(&cancel),
        armed: true,
    };

    #[cfg(feature = "chaos")]
    if let Some(f) = shared.faults.as_ref() {
        if let Some(delay) = f.routing_delay(&id) {
            std::thread::sleep(delay);
        }
        // an unguarded panic: kills this worker thread, exercising the
        // JobGuard (terminal Failed) and WorkerGuard (respawn) paths
        if f.worker_dies(&id) {
            panic!("chaos: worker killed while routing job {id}");
        }
    }

    if cancel.load(Ordering::Relaxed) {
        guard.complete(Event::Cancelled { id });
        return;
    }

    let solver = match shared.registry.parse(&req.spec) {
        Ok(s) => s,
        Err(e) => {
            guard.complete(Event::Failed {
                id,
                error: e.to_string(),
            });
            return;
        }
    };
    let spec = solver.spec();

    // keyed only when the cache is on (`cache=off` requests never pay
    // for the key), by the problem the solver pebbles
    let cached = req
        .options
        .use_cache
        .then(|| solver.problem(&req.instance))
        .map(|problem| (problem.canonical_key(), problem));
    if let Some((key, problem)) = &cached {
        if let Some(entry) = shared.cache.lookup(key, req.options.accept) {
            if answers(problem, &entry) {
                let _ = events.send(Event::CacheHit {
                    id: id.clone(),
                    spec: entry.spec.clone(),
                });
                guard.complete(Event::Done {
                    id,
                    spec: entry.spec,
                    cached: true,
                    solution: entry.solution,
                });
                return;
            }
            shared.cache.evict(key);
        }
    }

    let mut budget = Budget::none().with_cancel(Arc::clone(&cancel));
    if let Some(d) = req.options.deadline {
        // clocked from *submission*: queue wait consumes the budget, so
        // a job that waited past its deadline degrades at the solver's
        // first poll instead of burning a fresh full budget
        budget = budget.with_deadline_at(submitted_at + d);
    }
    if let Some(m) = req.options.max_expansions {
        budget = budget.with_max_expansions(m);
    }
    shared.solves.fetch_add(1, Ordering::Relaxed);

    // mpsc::Sender is !Sync; the observer contract requires Sync.
    let progress_tx = Mutex::new(events.clone());
    let progress_id = id.clone();
    let observer = move |p: &Progress| {
        let _ = lock_sane(&progress_tx).send(Event::Progress {
            id: progress_id.clone(),
            states_expanded: p.states_expanded,
            states_per_sec: p.states_per_sec,
        });
    };
    let ctx = SolveCtx::with_progress(budget, &observer);

    // the solve (and the chaos hook's injected panic) runs under
    // catch_unwind, so a panicking solver costs one job, not a worker.
    // Unwind safety: every solver keeps its search state (arena, node
    // tables, heaps) local to the solve call, so an unwound solve leaves
    // no broken state for a later job to see; `AssertUnwindSafe` asserts
    // exactly that per-job locality.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        #[cfg(feature = "chaos")]
        if let Some(f) = shared.faults.as_ref() {
            if f.solve_panics(&id) {
                panic!("chaos: injected solver panic in job {id}");
            }
        }
        solver.solve_lenient(&req.instance, &ctx)
    }))
    .unwrap_or_else(|payload| {
        Err(SolveError::Panicked {
            payload: panic_payload_to_string(payload),
        })
    });

    let terminal = match outcome {
        Ok(solution) => {
            if cancel.load(Ordering::Relaxed) {
                // a cancelled solve may still degrade to a valid bound;
                // report the cancellation and keep it out of the cache
                Event::Cancelled { id }
            } else {
                if let Some((key, problem)) = cached {
                    let scaled = solution.scaled_cost(&problem);
                    shared
                        .cache
                        .insert_or_upgrade(key, &spec, solution.clone(), scaled);
                }
                Event::Done {
                    id,
                    spec,
                    cached: false,
                    solution,
                }
            }
        }
        Err(e) => {
            if matches!(e, SolveError::Panicked { .. }) {
                shared.panics.fetch_add(1, Ordering::Relaxed);
            }
            if cancel.load(Ordering::Relaxed) && !matches!(e, SolveError::Panicked { .. }) {
                Event::Cancelled { id }
            } else {
                Event::Failed {
                    id,
                    error: e.to_string(),
                }
            }
        }
    };
    guard.complete(terminal);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbp_core::{CostModel, Instance};
    use rbp_graph::generate;

    fn chain_req(id: &str, n: usize, spec: &str) -> JobRequest {
        JobRequest {
            id: id.to_string(),
            spec: spec.to_string(),
            instance: Instance::new(generate::chain(n), 2, CostModel::oneshot()),
            options: JobOptions::default(),
        }
    }

    fn terminal(rx: &std::sync::mpsc::Receiver<Event>) -> Event {
        loop {
            let ev = rx
                .recv_timeout(Duration::from_secs(60))
                .expect("job must reach a terminal event");
            if ev.is_terminal() {
                return ev;
            }
        }
    }

    #[test]
    fn solve_then_cache_hit() {
        let server = Server::start(ServerConfig {
            workers: 1,
            queue_capacity: 8,
            ..ServerConfig::default()
        });
        let rx = server.submit_collect(chain_req("a", 6, "exact")).unwrap();
        match terminal(&rx) {
            Event::Done { cached, spec, .. } => {
                assert!(!cached);
                assert_eq!(spec, "exact");
            }
            other => panic!("{other:?}"),
        }
        let rx = server.submit_collect(chain_req("b", 6, "exact")).unwrap();
        match terminal(&rx) {
            Event::Done { cached, .. } => assert!(cached),
            other => panic!("{other:?}"),
        }
        let stats = server.stats();
        assert_eq!(stats.solves, 1, "second request must not run a solver");
        assert_eq!(stats.cache.hits, 1);
        server.shutdown();
    }

    #[test]
    fn bad_spec_fails_cleanly() {
        let server = Server::start(ServerConfig {
            workers: 1,
            queue_capacity: 2,
            ..ServerConfig::default()
        });
        let rx = server.submit_collect(chain_req("x", 4, "exat")).unwrap();
        match terminal(&rx) {
            Event::Failed { error, .. } => assert!(error.contains("exat"), "{error}"),
            other => panic!("{other:?}"),
        }
        server.shutdown();
    }

    /// A solver that panics inside `solve` — per-job state only, so the
    /// containment contract of the solve guard applies.
    struct Bomb;
    impl rbp_solvers::Solver for Bomb {
        fn name(&self) -> &str {
            "bomb"
        }
        fn solve(
            &self,
            _: &Instance,
            _: &rbp_solvers::SolveCtx,
        ) -> Result<rbp_solvers::Solution, SolveError> {
            panic!("bomb solver detonated");
        }
    }

    fn registry_with_bomb() -> Registry {
        let mut reg = Registry::with_builtins();
        reg.register("bomb", "test: panics inside solve", |_| Ok(Box::new(Bomb)));
        reg
    }

    /// A solver that blocks until told to go — lets tests hold the
    /// single worker busy deterministically.
    struct Gate(Arc<(Mutex<bool>, Condvar)>);
    impl rbp_solvers::Solver for Gate {
        fn name(&self) -> &str {
            "gate"
        }
        fn solve(
            &self,
            instance: &Instance,
            ctx: &rbp_solvers::SolveCtx,
        ) -> Result<rbp_solvers::Solution, SolveError> {
            let (lock, cv) = &*self.0;
            let mut open = lock_sane(lock);
            while !*open {
                open = cv.wait(open).unwrap_or_else(PoisonError::into_inner);
            }
            drop(open);
            rbp_solvers::GreedySolver::new().solve(instance, ctx)
        }
    }

    fn registry_with_gate(gate: Arc<(Mutex<bool>, Condvar)>) -> Registry {
        let mut reg = Registry::with_builtins();
        reg.register(
            "gate",
            "test: blocks until opened, then greedy",
            move |_| Ok(Box::new(Gate(Arc::clone(&gate)))),
        );
        reg
    }

    fn open_gate(gate: &Arc<(Mutex<bool>, Condvar)>) {
        *lock_sane(&gate.0) = true;
        gate.1.notify_all();
    }

    #[test]
    fn a_panicking_solver_is_a_failed_event_not_a_lost_job() {
        let server = Server::with_registry(
            ServerConfig {
                workers: 1,
                queue_capacity: 4,
                ..ServerConfig::default()
            },
            registry_with_bomb(),
        );
        let rx = server.submit_collect(chain_req("boom", 4, "bomb")).unwrap();
        match terminal(&rx) {
            Event::Failed { error, .. } => {
                assert!(error.contains("panicked"), "{error}");
                assert!(error.contains("bomb solver detonated"), "{error}");
            }
            other => panic!("{other:?}"),
        }
        // the worker survived (panic was caught inside the solve guard):
        // the next job on the same single worker completes normally
        let rx = server.submit_collect(chain_req("ok", 4, "exact")).unwrap();
        assert!(matches!(terminal(&rx), Event::Done { .. }));
        let stats = server.stats();
        assert_eq!(stats.panics, 1);
        assert_eq!(
            stats.worker_restarts, 0,
            "solve-guard panics keep the worker"
        );
        assert_eq!(stats.completed, 2, "no job lost");
        server.shutdown();
    }

    #[test]
    fn a_full_queue_sheds_after_the_admission_wait() {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let server = Server::with_registry(
            ServerConfig {
                workers: 1,
                queue_capacity: 1,
                admission_wait: Duration::from_millis(40),
            },
            registry_with_gate(Arc::clone(&gate)),
        );
        // occupy the only worker …
        let rx_busy = server.submit_collect(chain_req("busy", 4, "gate")).unwrap();
        let wait_deadline = Instant::now() + Duration::from_secs(30);
        while !lock_sane(&server.shared.queue).heap.is_empty() {
            assert!(Instant::now() < wait_deadline, "worker never picked up");
            std::thread::sleep(Duration::from_millis(1));
        }
        // … fill the queue …
        let rx_q = server
            .submit_collect(chain_req("queued", 4, "gate"))
            .unwrap();
        // … and the next submission sheds after the bounded wait
        let started = Instant::now();
        let err = server
            .submit_collect(chain_req("extra", 4, "exact"))
            .expect_err("full queue past the admission wait must shed");
        match err {
            SubmitError::Overloaded { retry_after } => {
                assert!(err_is_retryable(&err));
                assert!(retry_after >= Duration::from_millis(10));
            }
            other => panic!("{other:?}"),
        }
        assert!(
            started.elapsed() >= Duration::from_millis(40),
            "shed must come after the admission wait, not immediately"
        );
        assert_eq!(server.stats().shed, 1);
        // shed jobs get no events; accepted jobs still finish
        open_gate(&gate);
        assert!(matches!(terminal(&rx_busy), Event::Done { .. }));
        assert!(matches!(terminal(&rx_q), Event::Done { .. }));
        server.shutdown();
    }

    fn err_is_retryable(e: &SubmitError) -> bool {
        e.is_retryable()
    }

    #[test]
    fn shed_then_retry_succeeds_once_the_queue_drains() {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let server = Server::with_registry(
            ServerConfig {
                workers: 1,
                queue_capacity: 1,
                admission_wait: Duration::from_millis(20),
            },
            registry_with_gate(Arc::clone(&gate)),
        );
        let rx_busy = server.submit_collect(chain_req("busy", 4, "gate")).unwrap();
        let wait_deadline = Instant::now() + Duration::from_secs(30);
        while !lock_sane(&server.shared.queue).heap.is_empty() {
            assert!(Instant::now() < wait_deadline, "worker never picked up");
            std::thread::sleep(Duration::from_millis(1));
        }
        let rx_q = server
            .submit_collect(chain_req("queued", 4, "exact"))
            .unwrap();
        // open the gate shortly after the first shed so a retry can land
        let opener = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(60));
                open_gate(&gate);
            })
        };
        let (tx, rx_retry) = std::sync::mpsc::channel();
        let policy = crate::client::RetryPolicy {
            max_attempts: 50,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(20),
            seed: 7,
        };
        server
            .submit_with_retry(chain_req("retried", 4, "exact"), tx, &policy)
            .expect("retries must land once the queue drains");
        opener.join().unwrap();
        assert!(matches!(terminal(&rx_busy), Event::Done { .. }));
        assert!(matches!(terminal(&rx_q), Event::Done { .. }));
        assert!(matches!(terminal(&rx_retry), Event::Done { .. }));
        let stats = server.stats();
        assert!(stats.shed >= 1, "at least the first attempt was shed");
        assert!(stats.retries_observed >= 1);
        assert_eq!(stats.completed, 3);
        server.shutdown();
    }

    #[cfg(feature = "chaos")]
    #[test]
    fn a_dying_worker_fails_the_job_terminally_and_respawns() {
        let mut faults = crate::chaos::FaultPlan::quiet(11);
        faults.worker_death_per_mille = 1000; // every routed job kills its worker
        let server = Server::with_faults(
            ServerConfig {
                workers: 1,
                queue_capacity: 4,
                ..ServerConfig::default()
            },
            Registry::with_builtins(),
            faults,
        );
        for i in 0..3 {
            let rx = server
                .submit_collect(chain_req(&format!("doomed-{i}"), 4, "exact"))
                .unwrap();
            match terminal(&rx) {
                Event::Failed { error, .. } => {
                    assert!(error.contains("worker thread died"), "{error}")
                }
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(
            server.stats().completed,
            3,
            "every doomed job got its terminal event"
        );
        // the Failed event is sent while the worker is still unwinding;
        // the respawn (and its counter) lands moments later — poll
        let deadline = Instant::now() + Duration::from_secs(30);
        while server.stats().worker_restarts < 3 {
            assert!(
                Instant::now() < deadline,
                "each death must respawn a worker"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        server.shutdown(); // must join the respawned workers too
    }

    #[test]
    fn infeasible_is_a_payload_not_a_fault() {
        let server = Server::start(ServerConfig {
            workers: 1,
            queue_capacity: 2,
            ..ServerConfig::default()
        });
        let req = JobRequest {
            id: "inf".into(),
            spec: "exact".into(),
            instance: Instance::new(generate::chain(3), 1, CostModel::oneshot()),
            options: JobOptions::default(),
        };
        let rx = server.submit_collect(req).unwrap();
        match terminal(&rx) {
            Event::Done { solution, .. } => {
                assert_eq!(solution.quality, rbp_solvers::Quality::Infeasible);
            }
            other => panic!("{other:?}"),
        }
        server.shutdown();
    }
}
