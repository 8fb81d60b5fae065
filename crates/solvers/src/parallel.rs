//! Hash-sharded parallel exact search (HDA*) with incumbent-bound
//! pruning.
//!
//! The state space of [`crate::exact`] is partitioned across worker
//! threads by [`StateArena::shard_of`] — the same `hash_words` digest the
//! intern tables probe with — so every configuration has exactly one
//! *owner* thread. Each worker owns a full shard of the solver state
//! (a [`StateArena`], a [`NodeTable`], and a local A* priority queue) and
//! runs the shared move generator ([`Expander`]); successors that hash to
//! another shard are batched and routed to their owner over bounded
//! channels. No lock is ever taken on the hot path: a state is interned,
//! relaxed, settled, and re-opened only by its owner.
//!
//! ## Incumbent bound
//! Before the search starts, a greedy portfolio produces a valid
//! pebbling whose scaled cost seeds the *incumbent* — the best known
//! upper bound on the optimum. During the search the incumbent tightens to the
//! cheapest goal configuration discovered so far (a lock-protected
//! `(cost, global id)` pair with an atomic mirror for hot-path reads).
//! Every worker drops successors with `g + h` at-or-beyond the incumbent
//! before interning them, which keeps the shards small and — crucially —
//! gives the distributed search a sound finish line.
//!
//! ## Termination
//! The search is over exactly when no worker can still improve on the
//! incumbent: every local queue has `f`-min at-or-above it and no
//! successor batch is in flight. Quiescence is detected without a
//! coordinator: workers that run out of eligible states park on their
//! channel and advertise themselves in a shared idle counter; matching
//! `sent`/`received` batch counters cover the channels. A worker that
//! observes "all idle, all batches received" twice, with stable
//! counters, declares termination — the double read rules out the race
//! where a just-delivered batch is still being absorbed (its absorption
//! either re-busies a worker or bumps the counters, failing the second
//! read). The incumbent then *is* the optimum: any cheaper goal would
//! need an open state with `f` below it somewhere, and there is none.
//!
//! ## Id namespacing
//! Parent pointers must cross shards for trace reconstruction, so
//! per-shard dense ids are composed into a global namespace
//! ([`global_id`]: `local · shards + shard`). After the workers join,
//! [`split_id`] walks the goal's parent chain across the collected
//! shards exactly like the sequential solver walks its single table.
//!
//! ## When it wins
//! Sharding pays off when the per-state work (expansion, interning,
//! heap traffic) dominates the routing overhead — i.e. on searches that
//! are large because the frontier is wide (the base model's grid and
//! pyramid cells, matmul at tight R). On instances that solve in
//! microseconds, or on a single-core host, the sequential path is
//! faster; `threads == 1` therefore runs the plain solver (still seeded
//! with the greedy incumbent) with no channels or extra threads at all.

use crate::api::{Progress, SolveCtx};
use crate::arena::{global_id, split_id, NodeTable, StateArena, NO_STATE};
use crate::error::SolveError;
use crate::exact::{recover_trace, ExactConfig, Found};
use crate::expand::{Expander, Meta};
use rbp_core::{Instance, Move};
use rbp_graph::NodeId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Successors routed to another shard are accumulated up to this many
/// per destination before the batch is shipped.
const BATCH_ITEMS: usize = 32;
/// Bounded channel capacity, in batches, per worker.
const CHANNEL_BATCHES: usize = 256;
/// States popped per scheduling quantum before a worker re-checks its
/// channel and flushes its outgoing batches.
const POP_CHUNK: usize = 64;

// ---------------------------------------------------------------------
// implementation
// ---------------------------------------------------------------------

/// One routed successor: the key travels in the batch's flat `keys`
/// buffer, everything else here.
struct Item {
    g: u64,
    from: u32, // global id of the parent state
    mv: Move,
    meta: Meta,
}

/// A shipment of successors bound for one shard.
struct Batch {
    keys: Vec<u64>, // item i's key at [i·key_words .. (i+1)·key_words]
    items: Vec<Item>,
}

impl Batch {
    fn new() -> Self {
        Batch {
            keys: Vec::new(),
            items: Vec::new(),
        }
    }

    fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// State shared across workers. All counters are `SeqCst`: they are off
/// the per-successor hot path (batched), and the termination argument
/// leans on a total order of the idle/sent/recv updates.
struct Shared {
    threads: usize,
    /// `(scaled cost, global id)` of the best goal configuration found.
    incumbent: Mutex<(u64, u32)>,
    /// Atomic mirror of the incumbent cost for hot-path cutoff reads.
    incumbent_g: AtomicU64,
    /// Static cutoff from the seeded upper bound
    /// ([`ExactConfig::seed_cutoff`]: `bound + 1`, so an exactly-tight
    /// seed keeps its optimal path; `u64::MAX` when unseeded or
    /// pruning is off).
    ub_cutoff: u64,
    /// Whether incumbent pruning is live. When off (the brute-force
    /// reference mode) the search stays exhaustive like the `reference`
    /// spec: goals are still *recorded* for the answer, but never prune.
    prune: bool,
    /// Batches sent / received, for quiescence detection.
    sent: AtomicU64,
    recv: AtomicU64,
    /// Number of workers currently parked with nothing eligible to do.
    idle: AtomicUsize,
    /// Set once by the worker that detects global quiescence.
    done: AtomicBool,
    /// Set when the [`crate::api::Budget`] trips: workers exit at their
    /// next quantum and the incumbent (if any) is returned as a
    /// non-optimal upper bound.
    stopped: AtomicBool,
    /// Set on any error; the first error wins.
    abort: AtomicBool,
    abort_err: Mutex<Option<SolveError>>,
    /// Total states interned across all shards (memory guard).
    states_total: AtomicUsize,
    max_states: usize,
    /// Total states expanded across all shards (budget accounting +
    /// progress reports), updated once per worker quantum.
    expanded_total: AtomicU64,
}

impl Shared {
    /// Successors with `f ≥ cutoff` can be dropped: they cannot beat the
    /// incumbent. Relaxed is enough — the incumbent only decreases, so a
    /// stale read merely prunes less. With pruning off this is always
    /// `u64::MAX` (exhaustive reference mode; termination then comes
    /// from exhausting the finite state space, not from the incumbent).
    #[inline]
    fn cutoff(&self) -> u64 {
        if !self.prune {
            return u64::MAX;
        }
        self.ub_cutoff.min(self.incumbent_g.load(Ordering::Relaxed))
    }

    fn offer_incumbent(&self, g: u64, id: u32) {
        if g >= self.incumbent_g.load(Ordering::Relaxed) {
            return;
        }
        let mut best = self.incumbent.lock().expect("incumbent lock");
        if g < best.0 {
            *best = (g, id);
            self.incumbent_g.store(g, Ordering::SeqCst);
        }
    }

    fn record_error(&self, e: SolveError) {
        let mut slot = self.abort_err.lock().expect("abort lock");
        if slot.is_none() {
            *slot = Some(e);
        }
        self.abort.store(true, Ordering::SeqCst);
    }
}

struct Worker<'a, 's> {
    me: usize,
    shards: usize,
    key_words: usize,
    shared: &'s Shared,
    arena: StateArena,
    nodes: NodeTable,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    out: Vec<Batch>,
    txs: Vec<SyncSender<Batch>>,
    rx: Receiver<Batch>,
    /// Debug-only rescanner for the ±delta metadata of fresh interns.
    #[cfg(debug_assertions)]
    check: Expander<'a>,
    #[cfg(not(debug_assertions))]
    _marker: std::marker::PhantomData<&'a ()>,
    popped: usize,
    idle_flag: bool,
    key_buf: Vec<u64>,
    ctx: &'s SolveCtx<'s>,
    t0: Instant,
    last_progress: Instant,
}

impl<'a, 's> Worker<'a, 's> {
    /// Interns/relaxes `key` in this worker's shard. Only ever called by
    /// the owner (`shard_of(key) == me`).
    fn relax_local(
        &mut self,
        key: &[u64],
        g: u64,
        from: u32,
        mv: Move,
        meta: Meta,
    ) -> Result<(), SolveError> {
        debug_assert_eq!(StateArena::shard_of(key, self.shards), self.me);
        // pre-intern cutoff, mirroring the sequential solver: the
        // incumbent may have tightened while this state sat in a channel
        // batch, and a prunable state must not consume arena memory or
        // the max_states budget. Safe for goals too (their f = g, and an
        // optimal goal always sits strictly below the cutoff) and for
        // the root (its f is at most any valid seed bound).
        if g.saturating_add(meta.heur) >= self.shared.cutoff() {
            return Ok(());
        }
        let (local, fresh) = self.arena.intern(key);
        if fresh {
            #[cfg(debug_assertions)]
            debug_assert_eq!(meta, self.check.meta_scan(key));
            self.nodes.push(meta.red, meta.unsat, meta.heur);
            let total = self.shared.states_total.fetch_add(1, Ordering::Relaxed) + 1;
            if total > self.shared.max_states {
                return Err(SolveError::StateLimitExceeded {
                    limit: self.shared.max_states,
                });
            }
        }
        let idx = local as usize;
        if g < self.nodes.dist[idx] {
            self.nodes.dist[idx] = g;
            self.nodes.parent[idx] = (from, mv);
            let gid = global_id(self.me as u32, local, self.shards as u32);
            if meta.is_goal() {
                // goals are recorded, never expanded (their heuristic is
                // 0, so f = g and nothing below them is reachable)
                self.shared.offer_incumbent(g, gid);
            } else {
                let f = g.saturating_add(meta.heur);
                if f < self.shared.cutoff() {
                    // re-open on improvement: HDA* may settle a state
                    // before its best g has crossed the shard boundary
                    self.nodes.settled[idx] = false;
                    self.heap.push(Reverse((f, local)));
                }
            }
        }
        Ok(())
    }

    /// Routes one generated successor: relax locally if this shard owns
    /// it, else append it to the owner's outgoing batch.
    fn route(
        &mut self,
        key: &[u64],
        g: u64,
        from: u32,
        mv: Move,
        meta: Meta,
    ) -> Result<(), SolveError> {
        let f = g.saturating_add(meta.heur);
        if f >= self.shared.cutoff() {
            return Ok(());
        }
        let dest = StateArena::shard_of(key, self.shards);
        if dest == self.me {
            return self.relax_local(key, g, from, mv, meta);
        }
        let batch = &mut self.out[dest];
        batch.keys.extend_from_slice(key);
        batch.items.push(Item { g, from, mv, meta });
        if batch.items.len() >= BATCH_ITEMS {
            self.flush_one(dest)?;
        }
        Ok(())
    }

    /// Ships `out[dest]` if non-empty. Returns whether the buffer is now
    /// empty (a full channel leaves it in place; callers retry after
    /// draining their own channel, which is what makes bounded channels
    /// deadlock-free here).
    fn flush_one(&mut self, dest: usize) -> Result<bool, SolveError> {
        if self.out[dest].is_empty() {
            return Ok(true);
        }
        let batch = std::mem::replace(&mut self.out[dest], Batch::new());
        match self.txs[dest].try_send(batch) {
            Ok(()) => {
                self.shared.sent.fetch_add(1, Ordering::SeqCst);
                Ok(true)
            }
            Err(TrySendError::Full(batch)) => {
                self.out[dest] = batch;
                // make progress on our own queue so the peer (possibly
                // blocked on a channel to us) can drain
                self.drain_incoming()?;
                Ok(false)
            }
            Err(TrySendError::Disconnected(_)) => {
                // the peer exited: only happens on abort/done, where
                // in-flight work is moot
                Ok(true)
            }
        }
    }

    fn flush_outgoing(&mut self) -> Result<bool, SolveError> {
        let mut all = true;
        for dest in 0..self.shards {
            if dest != self.me {
                all &= self.flush_one(dest)?;
            }
        }
        Ok(all)
    }

    /// Absorbs every batch currently in the channel. Returns whether
    /// anything arrived.
    fn drain_incoming(&mut self) -> Result<bool, SolveError> {
        let mut got = false;
        while let Ok(batch) = self.rx.try_recv() {
            self.absorb(batch)?;
            got = true;
        }
        Ok(got)
    }

    /// Processes one received batch. The un-idle → recv-count order is
    /// what the termination double-check relies on.
    fn absorb(&mut self, batch: Batch) -> Result<(), SolveError> {
        if self.idle_flag {
            self.idle_flag = false;
            self.shared.idle.fetch_sub(1, Ordering::SeqCst);
        }
        self.shared.recv.fetch_add(1, Ordering::SeqCst);
        for (i, item) in batch.items.iter().enumerate() {
            let key = &batch.keys[i * self.key_words..(i + 1) * self.key_words];
            self.relax_local(key, item.g, item.from, item.mv, item.meta)?;
        }
        Ok(())
    }

    /// Pops and expands up to [`POP_CHUNK`] eligible states. Returns
    /// whether any state was actually expanded.
    fn expand_some(&mut self, exp: &mut Expander<'a>) -> Result<bool, SolveError> {
        let mut any = false;
        let popped_before = self.popped;
        for _ in 0..POP_CHUNK {
            let cutoff = self.shared.cutoff();
            match self.heap.peek() {
                None => break,
                Some(&Reverse((f, _))) if f >= cutoff => {
                    // the cutoff never grows, so everything still queued
                    // is dead weight
                    self.heap.clear();
                    break;
                }
                Some(_) => {}
            }
            let Reverse((_f, local)) = self.heap.pop().expect("peeked entry");
            // every pop is progress, stale or not: a quantum of stale
            // entries (duplicate pushes whose state settled meanwhile)
            // must NOT read as "nothing to do" — eligible work may sit
            // right behind them, and a worker may only go idle once the
            // heap is truly exhausted below the cutoff (the termination
            // check is sound only under that invariant)
            any = true;
            let idx = local as usize;
            if self.nodes.settled[idx] {
                continue;
            }
            debug_assert!(!self.idle_flag, "expansion while advertised idle");
            self.nodes.settled[idx] = true;
            self.popped += 1;
            self.expand_one(exp, local)?;
            if self.shared.abort.load(Ordering::Relaxed) {
                break;
            }
        }
        let delta = (self.popped - popped_before) as u64;
        if delta > 0 {
            self.shared
                .expanded_total
                .fetch_add(delta, Ordering::Relaxed);
        }
        Ok(any)
    }

    /// Per-quantum budget poll + progress report. Returns `true` when
    /// the budget tripped (the caller then stops the whole search —
    /// "within one batch quantum" is exactly this granularity).
    fn poll_budget_and_progress(&mut self) -> bool {
        let budget = &self.ctx.budget;
        if !budget.is_unlimited()
            && budget.exhausted(self.shared.expanded_total.load(Ordering::Relaxed))
        {
            self.shared.stopped.store(true, Ordering::SeqCst);
            return true;
        }
        if let Some(observer) = self.ctx.progress {
            // one reporter (shard 0), rate-limited by wall clock
            if self.me == 0 && self.last_progress.elapsed() >= Duration::from_millis(50) {
                self.last_progress = Instant::now();
                let elapsed = self.t0.elapsed();
                let expanded = self.shared.expanded_total.load(Ordering::Relaxed);
                let secs = elapsed.as_secs_f64();
                let incumbent = match self.shared.incumbent_g.load(Ordering::Relaxed) {
                    u64::MAX => match self.shared.ub_cutoff {
                        u64::MAX => None,
                        c => Some(c - 1), // cutoff is seed bound + 1
                    },
                    g => Some(g),
                };
                observer(&Progress {
                    elapsed,
                    states_expanded: expanded,
                    states_per_sec: if secs > 0.0 {
                        (expanded as f64 / secs) as u64
                    } else {
                        0
                    },
                    frontier: self.heap.len(),
                    incumbent,
                });
            }
        }
        false
    }

    fn expand_one(&mut self, exp: &mut Expander<'a>, local: u32) -> Result<(), SolveError> {
        let idx = local as usize;
        self.key_buf.clear();
        self.key_buf.extend_from_slice(self.arena.key(local));
        let key_buf = std::mem::take(&mut self.key_buf);
        let d = self.nodes.dist[idx];
        let meta = Meta {
            red: self.nodes.red_count[idx],
            unsat: self.nodes.unsat_sinks[idx],
            heur: self.nodes.heur[idx],
        };
        debug_assert!(!meta.is_goal(), "goals are never queued for expansion");
        let res = if exp.is_dead(&key_buf) {
            Ok(())
        } else {
            let from = global_id(self.me as u32, local, self.shards as u32);
            exp.expand(&key_buf, meta, |succ, mv, cost, child| {
                self.route(succ, d + cost, from, mv, child)
            })
        };
        self.key_buf = key_buf;
        res
    }

    fn set_idle(&mut self) {
        if !self.idle_flag {
            self.idle_flag = true;
            self.shared.idle.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// The quiescence double-check (see the module docs): all workers
    /// idle and all batches received, observed twice with stable
    /// counters, the second idle read ordered after the first counter
    /// reads.
    fn check_termination(&self) -> bool {
        let t = self.shared.threads;
        if self.shared.idle.load(Ordering::SeqCst) != t {
            return false;
        }
        let s1 = self.shared.sent.load(Ordering::SeqCst);
        let r1 = self.shared.recv.load(Ordering::SeqCst);
        if s1 != r1 {
            return false;
        }
        self.shared.idle.load(Ordering::SeqCst) == t
            && self.shared.sent.load(Ordering::SeqCst) == s1
            && self.shared.recv.load(Ordering::SeqCst) == r1
    }

    fn run(&mut self, exp: &mut Expander<'a>) -> Result<(), SolveError> {
        loop {
            if self.shared.abort.load(Ordering::Relaxed)
                || self.shared.done.load(Ordering::SeqCst)
                || self.shared.stopped.load(Ordering::SeqCst)
            {
                return Ok(());
            }
            if self.poll_budget_and_progress() {
                return Ok(());
            }
            let received = self.drain_incoming()?;
            let worked = self.expand_some(exp)?;
            if received || worked {
                // still busy: full batches ship inline from `route`;
                // partial ones wait until local work runs dry, so peers
                // get few, dense messages instead of a wakeup per quantum
                continue;
            }
            if !self.flush_outgoing()? {
                // a peer's channel is full; keep cycling (drain + retry)
                std::thread::yield_now();
                continue;
            }
            // nothing eligible locally and nothing outbound: advertise
            // idle, try to close the search, else park on the channel
            self.set_idle();
            if self.check_termination() {
                self.shared.done.store(true, Ordering::SeqCst);
                return Ok(());
            }
            // park; on timeout (or closing peers) just re-check flags
            if let Ok(batch) = self.rx.recv_timeout(Duration::from_micros(100)) {
                self.absorb(batch)?;
            }
        }
    }
}

/// The sharded search proper (`threads ≥ 2`; callers validate the
/// config and check feasibility first). Returns a goal's trace, whether
/// it is proved optimal — `false` when the budget stopped the search and
/// the trace reaches the incumbent found so far — and the `(states
/// expanded, states seen)` counters summed over the shards.
pub(crate) fn hda_star(
    instance: &Instance,
    exact: ExactConfig,
    threads: usize,
    ctx: &SolveCtx,
) -> Result<(Found, (usize, usize)), SolveError> {
    let probe = Expander::new(instance, 1, exact.prune, exact.astar);
    let key_words = probe.key_words();
    let init = probe.initial_key();
    let root_meta = probe.meta_scan(&init);
    let root_shard = StateArena::shard_of(&init, threads);

    let shared = Shared {
        threads,
        incumbent: Mutex::new((u64::MAX, NO_STATE)),
        incumbent_g: AtomicU64::new(u64::MAX),
        ub_cutoff: exact.seed_cutoff(),
        prune: exact.prune,
        sent: AtomicU64::new(0),
        recv: AtomicU64::new(0),
        idle: AtomicUsize::new(0),
        done: AtomicBool::new(false),
        stopped: AtomicBool::new(false),
        abort: AtomicBool::new(false),
        abort_err: Mutex::new(None),
        states_total: AtomicUsize::new(0),
        max_states: exact.max_states,
        expanded_total: AtomicU64::new(0),
    };
    let t0 = Instant::now();

    let mut txs: Vec<SyncSender<Batch>> = Vec::with_capacity(threads);
    let mut rxs: Vec<Option<Receiver<Batch>>> = Vec::with_capacity(threads);
    for _ in 0..threads {
        let (tx, rx) = std::sync::mpsc::sync_channel(CHANNEL_BATCHES);
        txs.push(tx);
        rxs.push(Some(rx));
    }

    let shards: Vec<(StateArena, NodeTable, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = rxs
            .iter_mut()
            .enumerate()
            .map(|(me, rx_slot)| {
                let rx = rx_slot.take().expect("receiver unclaimed");
                let txs = txs.clone();
                let shared = &shared;
                let init = &init;
                scope.spawn(move || {
                    let mut exp = Expander::new(instance, 1, exact.prune, exact.astar);
                    let mut w = Worker {
                        me,
                        shards: threads,
                        key_words,
                        shared,
                        arena: StateArena::new(key_words),
                        nodes: NodeTable::new(),
                        heap: BinaryHeap::new(),
                        out: (0..threads).map(|_| Batch::new()).collect(),
                        txs,
                        rx,
                        #[cfg(debug_assertions)]
                        check: Expander::new(instance, 1, exact.prune, exact.astar),
                        #[cfg(not(debug_assertions))]
                        _marker: std::marker::PhantomData,
                        popped: 0,
                        idle_flag: false,
                        key_buf: Vec::with_capacity(key_words),
                        ctx,
                        t0,
                        last_progress: t0,
                    };
                    if me == root_shard {
                        if let Err(e) = w.relax_local(
                            init,
                            0,
                            NO_STATE,
                            Move::Delete(NodeId::new(0)),
                            root_meta,
                        ) {
                            shared.record_error(e);
                        }
                    }
                    if let Err(e) = w.run(&mut exp) {
                        shared.record_error(e);
                    }
                    (w.arena, w.nodes, w.popped)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    if let Some(e) = shared.abort_err.lock().expect("abort lock").take() {
        return Err(e);
    }
    let stopped = shared.stopped.load(Ordering::SeqCst);
    let (best_g, best_id) = *shared.incumbent.lock().expect("incumbent lock");
    if best_id == NO_STATE {
        // a budget stop with no goal discovered yet has no incumbent to
        // return; the api layer degrades to its greedy seed
        return Err(if stopped {
            SolveError::Interrupted
        } else {
            SolveError::NoPebblingFound
        });
    }

    // walk the goal's parent chain across the collected shards
    let trace = recover_trace(&probe, best_id, |gid| {
        let (shard, local) = split_id(gid, threads as u32);
        let (arena, nodes, _) = &shards[shard as usize];
        (arena.key(local), nodes.parent[local as usize])
    });
    debug_assert_eq!(instance.scaled_cost(&trace.stats().cost()), best_g as u128);
    let counters = (
        shards.iter().map(|s| s.2).sum(),
        shards.iter().map(|s| s.0.len()).sum(),
    );
    Ok(((trace, !stopped), counters))
}

#[cfg(test)]
mod tests {
    use crate::api::{ExactSolver, ParallelExactSolver, Solver};
    use crate::error::SolveError;
    use crate::exact::ExactConfig;
    use rbp_core::{engine, CostModel, Instance, ModelKind};
    use rbp_graph::{generate, DagBuilder};

    fn assert_equiv(inst: &Instance, threads: usize) {
        let seq = ExactSolver::new().unseeded().solve_default(inst).unwrap();
        let par = ParallelExactSolver::with_threads(threads)
            .solve_default(inst)
            .unwrap();
        assert_eq!(
            par.scaled_cost(inst),
            seq.scaled_cost(inst),
            "optimum diverged at {threads} threads on {inst:?}"
        );
        assert!(par.is_optimal());
        let sim = engine::simulate(inst, &par.trace).unwrap();
        assert!(sim.peak_red <= inst.red_limit());
    }

    /// The sharded search without the greedy seed, so the search alone
    /// decides the outcome.
    fn unseeded(threads: usize, cfg: ExactConfig) -> ParallelExactSolver {
        ParallelExactSolver {
            threads,
            exact: ExactSolver::with_config(cfg).unseeded(),
        }
    }

    #[test]
    fn matches_sequential_across_models_and_threads() {
        let mut rng = rand::thread_rng();
        for kind in ModelKind::ALL {
            for _ in 0..3 {
                let dag = generate::gnp_dag(7, 0.35, 2, &mut rng);
                let r = dag.max_indegree() + 1;
                let inst = Instance::new(dag, r, CostModel::of_kind(kind));
                for threads in [2, 3, 4] {
                    assert_equiv(&inst, threads);
                }
            }
        }
    }

    #[test]
    fn matches_sequential_under_conventions() {
        let mut rng = rand::thread_rng();
        for _ in 0..3 {
            let dag = generate::layered(3, 3, 2, &mut rng);
            let inst = Instance::new(dag.clone(), 3, CostModel::oneshot())
                .with_sink_convention(rbp_core::SinkConvention::RequireBlue);
            assert_equiv(&inst, 3);
            let inst = Instance::new(dag, 3, CostModel::oneshot())
                .with_source_convention(rbp_core::SourceConvention::InitiallyBlue);
            assert_equiv(&inst, 2);
        }
    }

    #[test]
    fn single_thread_takes_the_sequential_path() {
        let inst = Instance::new(generate::chain(8), 2, CostModel::oneshot());
        let sol = ParallelExactSolver::with_threads(1)
            .solve_default(&inst)
            .unwrap();
        assert_eq!(sol.cost.transfers, 0);
        assert_eq!(sol.stats.get("threads"), Some(1));
    }

    #[test]
    fn default_config_resolves_host_parallelism() {
        let inst = Instance::new(generate::chain(6), 2, CostModel::base());
        assert!(ParallelExactSolver::default().threads >= 1);
        let sol = ParallelExactSolver::new().solve_default(&inst).unwrap();
        assert_eq!(sol.scaled_cost(&inst), 0);
    }

    #[test]
    fn zero_threads_is_a_structured_config_error() {
        let inst = Instance::new(generate::chain(6), 2, CostModel::base());
        let res = ParallelExactSolver::with_threads(0).solve_default(&inst);
        assert!(matches!(res, Err(SolveError::BadConfig { .. })));
    }

    #[test]
    fn positive_cost_instance_agrees() {
        // height-3 binary in-tree at R=3: forced spills under base
        let mut b = DagBuilder::new(15);
        for parent in 0..7 {
            b.add_edge(2 * parent + 1, parent);
            b.add_edge(2 * parent + 2, parent);
        }
        let inst = Instance::new(b.build().unwrap(), 3, CostModel::base());
        for threads in [2, 4] {
            assert_equiv(&inst, threads);
        }
    }

    #[test]
    fn infeasible_instances_error_like_sequential() {
        let inst = Instance::new(generate::chain(3), 1, CostModel::oneshot());
        assert!(matches!(
            ParallelExactSolver::with_threads(2).solve_default(&inst),
            Err(SolveError::Pebbling(_))
        ));
    }

    #[test]
    fn state_limit_propagates_from_workers() {
        let mut rng = rand::thread_rng();
        let dag = generate::layered(4, 4, 3, &mut rng);
        let inst = Instance::new(dag, 5, CostModel::oneshot());
        // unseeded: a greedy seed could legitimately shrink the search
        // below the limit, and would be the fallback
        let cfg = ExactConfig {
            max_states: 10,
            ..ExactConfig::default()
        };
        let res = unseeded(2, cfg).solve_default(&inst);
        assert_eq!(
            res.unwrap_err(),
            SolveError::StateLimitExceeded { limit: 10 }
        );
    }

    #[test]
    fn unpruned_parallel_matches_reference() {
        // prune=false disables the incumbent cutoffs; the sharded search
        // must still terminate by exhaustion and agree with the
        // brute-force reference
        let mut b = DagBuilder::new(5);
        b.add_edge(0, 3);
        b.add_edge(1, 3);
        b.add_edge(1, 4);
        b.add_edge(2, 4);
        let inst = Instance::new(b.build().unwrap(), 3, CostModel::oneshot());
        let reference = ExactSolver::reference().solve_default(&inst).unwrap();
        let cfg = ExactConfig {
            prune: false,
            astar: false,
            ..ExactConfig::default()
        };
        let par = unseeded(3, cfg).solve_default(&inst).unwrap();
        assert_eq!(par.scaled_cost(&inst), reference.scaled_cost(&inst));
    }
}
