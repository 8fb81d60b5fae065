//! The quality-aware memoization cache: instance key → best-known
//! [`Solution`].
//!
//! Keys come from [`Instance::canonical_key`] of the problem a solver
//! pebbles, in the requester's own node numbering. Entries carry a
//! quality rank, and [`SolutionCache::insert_or_upgrade`] only ever
//! *improves* a slot: a proved [`Quality::Optimal`] (or
//! [`Quality::Infeasible`]) result is final; an
//! [`Quality::UpperBound`] is replaced by any cheaper bound, any
//! tighter lower bound at equal cost, and any proved result.
//!
//! Whether a cached entry can answer a request without re-solving is
//! the *request's* choice ([`AcceptPolicy`]): by default only proved
//! entries short-circuit, so a client asking for `exact` never gets a
//! heuristic bound just because one is cached; `accept=bound` opts in
//! to serving cached upper bounds. Every hit is checked for the
//! requester before it is served, and one that fails is dropped with
//! [`SolutionCache::evict`].
//!
//! ## Crash recovery
//!
//! The cache snapshots to a versioned text format
//! ([`SolutionCache::write_snapshot`]) — a `cache v1` header, then one
//! `entry <key-hex> 0 <scaled-cost>` line per slot followed by the
//! entry's embedded `solution v1` document (the same framing the wire
//! protocol uses). Loading ([`SolutionCache::load_snapshot`]) is
//! tolerant by design: a truncated or corrupted entry is skipped and
//! counted ([`SnapshotReport`]), never fatal, and surviving entries
//! merge through the same monotone upgrade path as live inserts — so a
//! restarted server keeps every proven `Optimal` it can still read, and
//! a stale snapshot can never downgrade fresher results. An entry with
//! flag `1` is skipped too: its key is a retired relabeling-invariant
//! digest, and its trace is in another request's node ids. The loader
//! reads the file in one pass with the statement cursor of
//! `rbp_graph::io`, handing the solution reader the cursor at each
//! entry's document; like every wire reader it rejects a token past a
//! statement's arguments, so a `cache v1 x` header is unreadable.
//! Snapshot files are the server's own state, so they belong in a
//! trusted state directory, not a network input.
//!
//! [`Instance::canonical_key`]: rbp_core::Instance::canonical_key

use rbp_core::CanonicalKey;
use rbp_graph::io::{Statements, Stmt};
use rbp_solvers::{wire, Quality, Solution};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The version token [`SolutionCache::write_snapshot`] emits and
/// [`SolutionCache::load_snapshot`] accepts.
pub const CACHE_SNAPSHOT_VERSION: &str = "v1";

/// What cached quality suffices to answer a request without solving.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum AcceptPolicy {
    /// Only proved results ([`Quality::Optimal`] /
    /// [`Quality::Infeasible`]) short-circuit (the default).
    #[default]
    Optimal,
    /// Any cached entry short-circuits, including heuristic
    /// [`Quality::UpperBound`]s.
    Bound,
}

/// One cached result: the best solution known for an instance, the
/// registry spec that produced it, and its scaled cost (computed by the
/// inserter, which holds the instance; the cache itself never needs the
/// instance back).
#[derive(Clone, Debug)]
pub struct CachedEntry {
    /// The best-known solution.
    pub solution: Solution,
    /// The registry spec that produced it.
    pub spec: String,
    /// `solution.cost` scaled by the instance's model ε (the comparison
    /// key for upper-bound upgrades).
    pub scaled_cost: u128,
}

/// Counters describing cache behaviour since construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry of acceptable quality, including
    /// entries that then failed the requester's check (see `evicted`).
    pub hits: u64,
    /// Lookups that found nothing acceptable.
    pub misses: u64,
    /// Entries created for a previously unseen key.
    pub insertions: u64,
    /// Entries replaced by a strictly better result.
    pub upgrades: u64,
    /// Live entries.
    pub entries: u64,
    /// Snapshot entries successfully parsed back at load time.
    pub recovered: u64,
    /// Snapshot entries dropped at load time: truncated, corrupt, or
    /// under a retired key (flag `1`).
    pub skipped: u64,
    /// Entries dropped by [`SolutionCache::evict`] because they failed a
    /// requester's check.
    pub evicted: u64,
}

/// What one [`SolutionCache::load_snapshot`] call managed to read.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotReport {
    /// Entries parsed and offered to the cache (an entry that loses to
    /// a strictly better live incumbent still counts as recovered).
    pub recovered: u64,
    /// Entries dropped: truncated, corrupted, under a retired key (flag
    /// `1`), or under an unreadable header. Never fatal.
    pub skipped: u64,
}

/// A thread-safe canonical-key → best-solution map with monotone
/// quality: entries only improve.
#[derive(Default)]
pub struct SolutionCache {
    map: Mutex<HashMap<CanonicalKey, CachedEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    upgrades: AtomicU64,
    recovered: AtomicU64,
    skipped: AtomicU64,
    evicted: AtomicU64,
}

/// Locks the map, recovering from poisoning: map mutations are
/// single-statement consistent, so a panicking peer thread (a
/// supervised worker death) cannot leave the map half-updated.
fn lock_map(
    m: &Mutex<HashMap<CanonicalKey, CachedEntry>>,
) -> MutexGuard<'_, HashMap<CanonicalKey, CachedEntry>> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Quality rank for upgrade decisions: higher wins at equal cost class.
fn rank(q: &Quality) -> u8 {
    match q {
        Quality::UpperBound { .. } => 0,
        Quality::Optimal | Quality::Infeasible => 1,
    }
}

/// Whether `candidate` (at `candidate_cost`) is strictly better than
/// `incumbent`: proved beats bounded; among bounds, cheaper cost beats,
/// then a tighter lower bound at equal cost.
fn improves(candidate: &Solution, candidate_cost: u128, incumbent: &CachedEntry) -> bool {
    let (new_rank, old_rank) = (rank(&candidate.quality), rank(&incumbent.solution.quality));
    if new_rank != old_rank {
        return new_rank > old_rank;
    }
    if new_rank == 1 {
        return false; // both proved: nothing left to improve
    }
    if candidate_cost != incumbent.scaled_cost {
        return candidate_cost < incumbent.scaled_cost;
    }
    match (&candidate.quality, &incumbent.solution.quality) {
        (Quality::UpperBound { lower_bound: new }, Quality::UpperBound { lower_bound: old }) => {
            new > old
        }
        _ => false,
    }
}

impl SolutionCache {
    /// An empty cache.
    pub fn new() -> Self {
        SolutionCache::default()
    }

    /// Looks up `key`; returns a clone of the entry when its quality
    /// satisfies `accept`. Counts a hit or a miss either way.
    pub fn lookup(&self, key: &CanonicalKey, accept: AcceptPolicy) -> Option<CachedEntry> {
        let map = lock_map(&self.map);
        let found = map.get(key).filter(|e| match accept {
            AcceptPolicy::Optimal => rank(&e.solution.quality) == 1,
            AcceptPolicy::Bound => true,
        });
        match found {
            Some(e) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(e.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a fresh result, or upgrades the incumbent when the new
    /// result is strictly better (see module docs). Returns `true` when
    /// the slot changed.
    pub fn insert_or_upgrade(
        &self,
        key: CanonicalKey,
        spec: &str,
        solution: Solution,
        scaled_cost: u128,
    ) -> bool {
        let mut map = lock_map(&self.map);
        match map.entry(key) {
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(CachedEntry {
                    solution,
                    spec: spec.to_string(),
                    scaled_cost,
                });
                self.insertions.fetch_add(1, Ordering::Relaxed);
                true
            }
            std::collections::hash_map::Entry::Occupied(mut slot) => {
                if improves(&solution, scaled_cost, slot.get()) {
                    slot.insert(CachedEntry {
                        solution,
                        spec: spec.to_string(),
                        scaled_cost,
                    });
                    self.upgrades.fetch_add(1, Ordering::Relaxed);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Drops the entry under `key`, one that failed a requester's check,
    /// and counts it in [`CacheStats::evicted`].
    pub fn evict(&self, key: &CanonicalKey) {
        if lock_map(&self.map).remove(key).is_some() {
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Serializes every entry as a `cache v1` snapshot document:
    /// stable output (entries in key-hex order), each entry an `entry`
    /// line followed by its embedded `solution v1` document.
    pub fn write_snapshot(&self) -> String {
        let map = lock_map(&self.map);
        let mut entries: Vec<(&CanonicalKey, &CachedEntry)> = map.iter().collect();
        entries.sort_by_key(|(k, _)| k.to_hex());
        let mut out = String::with_capacity(32 + entries.len() * 256);
        let _ = writeln!(out, "cache {CACHE_SNAPSHOT_VERSION}");
        for (key, entry) in entries {
            let _ = writeln!(out, "entry {} 0 {}", key.to_hex(), entry.scaled_cost);
            out.push_str(&wire::write_solution(&entry.spec, &entry.solution));
        }
        out
    }

    /// Loads a snapshot produced by [`SolutionCache::write_snapshot`],
    /// merging entries through the monotone upgrade path (a loaded
    /// entry can never downgrade a better live incumbent).
    ///
    /// Tolerant by contract: a malformed `entry` line, a truncated or
    /// corrupt embedded solution document, or an unreadable header
    /// skips to the next `entry` line and counts the loss — loading
    /// never panics and never aborts, so a server restarting over a
    /// damaged snapshot recovers everything still readable.
    pub fn load_snapshot(&self, text: &str) -> SnapshotReport {
        let mut report = SnapshotReport::default();
        let mut stmts = Statements::new(text, 1);
        // header: the first statement must be `cache v1`
        let header_ok = stmts.clone().next().is_some_and(|stmt| {
            stmt.keyword == "cache"
                && matches!(stmt.args("'cache v1'"), Ok([CACHE_SNAPSHOT_VERSION]))
        });
        // each entry is an `entry` statement and the self-terminated
        // solution document after it; a damaged one rewinds to the
        // line after its `entry` statement and resumes at the next one
        while let Some(head) = stmts.find(|stmt| stmt.keyword == "entry") {
            let doc = stmts.clone();
            if header_ok && self.load_entry(&head, &mut stmts) {
                report.recovered += 1;
            } else {
                report.skipped += 1;
                stmts = doc;
            }
        }
        self.recovered
            .fetch_add(report.recovered, Ordering::Relaxed);
        self.skipped.fetch_add(report.skipped, Ordering::Relaxed);
        report
    }

    /// Parses one entry (its `entry` statement, then the solution
    /// document `doc` reads on from it) and offers it to the cache. Any
    /// parse failure, and a flag other than `0`, returns `false`.
    fn load_entry(&self, head: &Stmt, doc: &mut Statements) -> bool {
        let Ok([hex, "0", cost]) = head.args("'entry <key-hex> 0 <scaled-cost>'") else {
            return false;
        };
        let Some(key) = CanonicalKey::from_hex(hex) else {
            return false;
        };
        let Ok(scaled_cost) = cost.parse::<u128>() else {
            return false;
        };
        let Ok(parsed) = wire::read_solution(doc) else {
            return false;
        };
        self.insert_or_upgrade(key, &parsed.spec, parsed.solution, scaled_cost);
        true
    }

    /// Writes the snapshot to a file.
    pub fn save_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.write_snapshot())
    }

    /// Loads a snapshot file; a missing file is an empty snapshot (the
    /// first boot of a fresh server), other I/O errors propagate.
    pub fn load_from(&self, path: &std::path::Path) -> std::io::Result<SnapshotReport> {
        match std::fs::read_to_string(path) {
            Ok(text) => Ok(self.load_snapshot(&text)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(SnapshotReport::default()),
            Err(e) => Err(e),
        }
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            upgrades: self.upgrades.load(Ordering::Relaxed),
            entries: lock_map(&self.map).len() as u64,
            recovered: self.recovered.load(Ordering::Relaxed),
            skipped: self.skipped.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbp_core::{CostModel, Instance};
    use rbp_graph::generate;
    use rbp_solvers::Stats;

    fn key_of(n: usize) -> CanonicalKey {
        Instance::new(generate::chain(n), 2, CostModel::base()).canonical_key()
    }

    fn sol(quality: Quality) -> Solution {
        Solution {
            trace: rbp_core::Pebbling::new(),
            cost: rbp_core::Cost::ZERO,
            quality,
            stats: Stats::new(),
        }
    }

    #[test]
    fn optimal_policy_skips_bounds_and_bound_policy_serves_them() {
        let cache = SolutionCache::new();
        let key = key_of(4);
        cache.insert_or_upgrade(
            key,
            "greedy",
            sol(Quality::UpperBound { lower_bound: 2 }),
            10,
        );
        assert!(cache.lookup(&key, AcceptPolicy::Optimal).is_none());
        assert!(cache.lookup(&key, AcceptPolicy::Bound).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn upper_bounds_upgrade_to_optimal_but_never_back() {
        let cache = SolutionCache::new();
        let key = key_of(5);
        assert!(cache.insert_or_upgrade(
            key,
            "greedy",
            sol(Quality::UpperBound { lower_bound: 2 }),
            10
        ));
        // cheaper bound upgrades
        assert!(cache.insert_or_upgrade(
            key,
            "beam:8",
            sol(Quality::UpperBound { lower_bound: 2 }),
            8
        ));
        // equal-cost tighter lower bound upgrades
        assert!(cache.insert_or_upgrade(
            key,
            "beam:16",
            sol(Quality::UpperBound { lower_bound: 4 }),
            8
        ));
        // worse bound does not
        assert!(!cache.insert_or_upgrade(
            key,
            "greedy",
            sol(Quality::UpperBound { lower_bound: 1 }),
            12
        ));
        // proved result wins
        assert!(cache.insert_or_upgrade(key, "exact", sol(Quality::Optimal), 8));
        // and is final
        assert!(!cache.insert_or_upgrade(
            key,
            "greedy",
            sol(Quality::UpperBound { lower_bound: 5 }),
            6
        ));
        let entry = cache.lookup(&key, AcceptPolicy::Optimal).unwrap();
        assert_eq!(entry.spec, "exact");
        assert_eq!(cache.stats().upgrades, 3);
        assert_eq!(cache.stats().insertions, 1);
    }

    #[test]
    fn distinct_instances_do_not_collide() {
        let cache = SolutionCache::new();
        cache.insert_or_upgrade(key_of(4), "exact", sol(Quality::Optimal), 3);
        assert!(cache.lookup(&key_of(6), AcceptPolicy::Bound).is_none());
    }

    #[test]
    fn model_dimension_is_part_of_the_key() {
        // two instances differing only in the multiprocessor dimension
        // (processor count, or cost weights) must never share a slot: a
        // p = 2 optimum can be strictly cheaper than the p = 1 optimum
        use rbp_core::{MppDim, Ratio};
        let base = Instance::new(generate::chain(4), 2, CostModel::base());
        let cache = SolutionCache::new();
        cache.insert_or_upgrade(base.canonical_key(), "exact", sol(Quality::Optimal), 3);
        for lifted in [
            base.with_procs(2),
            base.with_procs(4),
            base.with_mpp(MppDim {
                p: 2,
                comm: Ratio::new(3, 1),
                comp: Ratio::new(1, 1),
            }),
            base.with_mpp(MppDim {
                p: 2,
                comm: Ratio::new(1, 1),
                comp: Ratio::new(1, 2),
            }),
        ] {
            assert_ne!(base.canonical_key(), lifted.canonical_key());
            assert!(
                cache
                    .lookup(&lifted.canonical_key(), AcceptPolicy::Bound)
                    .is_none(),
                "classic entry served for a lifted instance"
            );
        }
        // the two weighted variants must also differ from each other
        assert_ne!(
            base.with_mpp(MppDim {
                p: 2,
                comm: Ratio::new(3, 1),
                comp: Ratio::new(1, 1),
            })
            .canonical_key(),
            base.with_mpp(MppDim {
                p: 2,
                comm: Ratio::new(1, 1),
                comp: Ratio::new(1, 2),
            })
            .canonical_key()
        );
    }

    /// A populated cache with a proved and a bounded entry.
    fn populated() -> SolutionCache {
        let cache = SolutionCache::new();
        cache.insert_or_upgrade(key_of(4), "exact", sol(Quality::Optimal), 3);
        cache.insert_or_upgrade(
            key_of(6),
            "greedy",
            sol(Quality::UpperBound { lower_bound: 2 }),
            9,
        );
        cache
    }

    #[test]
    fn snapshot_round_trips_every_entry() {
        let cache = populated();
        let text = cache.write_snapshot();
        let fresh = SolutionCache::new();
        let report = fresh.load_snapshot(&text);
        assert_eq!(
            report,
            SnapshotReport {
                recovered: 2,
                skipped: 0
            }
        );
        // the proved entry answers an Optimal-policy lookup again
        let entry = fresh.lookup(&key_of(4), AcceptPolicy::Optimal).unwrap();
        assert_eq!(entry.spec, "exact");
        // the bound survives with its scaled cost
        let entry = fresh.lookup(&key_of(6), AcceptPolicy::Bound).unwrap();
        assert_eq!(entry.scaled_cost, 9);
        assert_eq!(fresh.stats().recovered, 2);
        // stable output: a reloaded cache snapshots identically
        assert_eq!(fresh.write_snapshot(), text);
    }

    #[test]
    fn corrupt_entries_are_skipped_not_fatal() {
        let cache = populated();
        let text = cache.write_snapshot();
        // mangle the first entry's key hex; the second must survive
        let mangled = text.replacen("entry ", "entry zz", 1);
        let fresh = SolutionCache::new();
        let report = fresh.load_snapshot(&mangled);
        assert_eq!(
            report,
            SnapshotReport {
                recovered: 1,
                skipped: 1
            }
        );
        assert_eq!(fresh.stats().entries, 1);
        assert_eq!(fresh.stats().skipped, 1);
    }

    #[test]
    fn truncated_snapshot_keeps_complete_entries() {
        let cache = populated();
        let text = cache.write_snapshot();
        // cut the file mid-way through the last embedded document
        let cut = text.len() - 20;
        let truncated = &text[..cut];
        let fresh = SolutionCache::new();
        let report = fresh.load_snapshot(truncated);
        assert_eq!(report.recovered, 1);
        assert_eq!(report.skipped, 1);
    }

    #[test]
    fn unreadable_header_skips_everything() {
        let cache = populated();
        let text = cache.write_snapshot();
        let bad = text.replacen("cache v1", "cache v9", 1);
        let fresh = SolutionCache::new();
        let report = fresh.load_snapshot(&bad);
        assert_eq!(
            report,
            SnapshotReport {
                recovered: 0,
                skipped: 2
            }
        );
        assert_eq!(fresh.stats().entries, 0);
        // garbage and empty input are quietly empty, never a panic
        assert_eq!(
            SolutionCache::new().load_snapshot(""),
            SnapshotReport::default()
        );
        assert_eq!(
            SolutionCache::new().load_snapshot("total garbage\n\u{0}\u{0}"),
            SnapshotReport::default()
        );
    }

    #[test]
    fn flag_zero_entries_load_and_hit() {
        // an `entry` line as every version writes it for its keys:
        // hex digest, flag 0, scaled cost, then the solution document
        let text = format!(
            "cache v1\nentry {} 0 3\n{}",
            key_of(4).to_hex(),
            wire::write_solution("exact", &sol(Quality::Optimal))
        );
        let fresh = SolutionCache::new();
        let report = fresh.load_snapshot(&text);
        assert_eq!(report.recovered, 1);
        assert_eq!(report.skipped, 0);
        let entry = fresh.lookup(&key_of(4), AcceptPolicy::Optimal).unwrap();
        assert_eq!((entry.spec.as_str(), entry.scaled_cost), ("exact", 3));
        assert_eq!(fresh.write_snapshot(), text);
    }

    #[test]
    fn flag_one_entries_are_skipped() {
        // flag 1 marked a relabeling-invariant key: no instance keys to
        // it any more, and its trace is in another request's node ids
        let text = populated().write_snapshot();
        let line = format!("entry {} 0 ", key_of(4).to_hex());
        assert!(text.contains(&line));
        let retired = text.replacen(&line, &format!("entry {} 1 ", key_of(4).to_hex()), 1);
        let fresh = SolutionCache::new();
        let report = fresh.load_snapshot(&retired);
        assert_eq!(
            report,
            SnapshotReport {
                recovered: 1,
                skipped: 1
            }
        );
        assert!(fresh.lookup(&key_of(4), AcceptPolicy::Bound).is_none());
        assert!(fresh.lookup(&key_of(6), AcceptPolicy::Bound).is_some());
        assert_eq!(fresh.stats().skipped, 1);
    }

    #[test]
    fn evicted_entries_are_gone_and_counted() {
        let cache = populated();
        cache.evict(&key_of(4));
        assert!(cache.lookup(&key_of(4), AcceptPolicy::Bound).is_none());
        cache.evict(&key_of(4)); // nothing left: not counted again
        let s = cache.stats();
        assert_eq!((s.evicted, s.entries), (1, 1));
    }

    #[test]
    fn stale_snapshot_never_downgrades_a_live_entry() {
        // snapshot holds only a bound...
        let old = SolutionCache::new();
        old.insert_or_upgrade(
            key_of(5),
            "greedy",
            sol(Quality::UpperBound { lower_bound: 1 }),
            20,
        );
        let text = old.write_snapshot();
        // ...the live cache has since proved optimality
        let live = SolutionCache::new();
        live.insert_or_upgrade(key_of(5), "exact", sol(Quality::Optimal), 8);
        let report = live.load_snapshot(&text);
        assert_eq!(report.recovered, 1);
        let entry = live.lookup(&key_of(5), AcceptPolicy::Optimal).unwrap();
        assert_eq!(entry.spec, "exact");
        assert_eq!(entry.scaled_cost, 8);
    }
}
