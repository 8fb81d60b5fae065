//! Allocation-free state interning for the exact solver.
//!
//! The exact solver interns millions of fixed-width `u64` state keys. The
//! naive representation (`HashMap<Box<[u64]>, u32>` plus a parallel
//! `Vec<Box<[u64]>>`) pays two heap allocations per interned state and a
//! pointer chase per probe. [`StateArena`] replaces it with:
//!
//! - a single growable `Vec<u64>` **arena** holding every key
//!   contiguously — the key of state `id` lives at
//!   `arena[id·key_words .. (id+1)·key_words]`;
//! - an open-addressing (linear-probe) **index** of `u32` ids, hashed
//!   from arena slices with the Fx word hash.
//!
//! `intern` on the hit path is a hash, a probe, and one slice compare —
//! zero allocation. On the miss path it is one `extend_from_slice` into
//! the arena (amortized grow) plus a table store. Ids are dense and
//! assigned in first-intern order, so per-state solver bookkeeping lives
//! in parallel arrays ([`NodeTable`]) instead of per-state boxes.

use rbp_core::Move;
use rbp_graph::hash::hash_words;
use rbp_graph::NodeId;

/// Sentinel id marking an empty slot in the probe table and the root's
/// parent in [`NodeTable`].
pub const NO_STATE: u32 = u32::MAX;

/// A flat intern table for fixed-width `u64` keys.
///
/// Capacity is bounded at `u32::MAX - 1` states (the probe table stores
/// `u32` ids with [`NO_STATE`] reserved), far beyond what fits in memory.
#[derive(Clone, Debug)]
pub struct StateArena {
    key_words: usize,
    /// All keys, contiguous; state `id` owns words `id*kw..(id+1)*kw`.
    arena: Vec<u64>,
    /// Open-addressing table of ids; `NO_STATE` marks an empty slot.
    /// Length is always a power of two.
    table: Vec<u32>,
    /// `table.len() - 1`, cached for masking hashes into slots.
    mask: usize,
}

impl StateArena {
    /// Creates an arena for keys of exactly `key_words` words.
    pub fn new(key_words: usize) -> Self {
        Self::with_capacity(key_words, 1024)
    }

    /// Creates an arena pre-sized for roughly `states` interned keys.
    pub fn with_capacity(key_words: usize, states: usize) -> Self {
        assert!(key_words > 0, "keys must be at least one word wide");
        let slots = (states * 2).next_power_of_two().max(16);
        StateArena {
            key_words,
            arena: Vec::with_capacity(states.saturating_mul(key_words)),
            table: vec![NO_STATE; slots],
            mask: slots - 1,
        }
    }

    /// Width of every key, in `u64` words.
    #[inline]
    pub fn key_words(&self) -> usize {
        self.key_words
    }

    /// Number of interned states.
    #[inline]
    pub fn len(&self) -> usize {
        self.arena.len() / self.key_words
    }

    /// Whether no state has been interned yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// The key of state `id`, borrowed from the arena.
    #[inline]
    pub fn key(&self, id: u32) -> &[u64] {
        let start = id as usize * self.key_words;
        &self.arena[start..start + self.key_words]
    }

    /// Interns `key`, returning `(id, fresh)` where `fresh` is `true` iff
    /// the key was not present before. Ids are dense: the k-th distinct
    /// key ever interned gets id `k - 1`.
    pub fn intern(&mut self, key: &[u64]) -> (u32, bool) {
        debug_assert_eq!(key.len(), self.key_words, "key width mismatch");
        // Grow at 7/8 occupancy, before probing, so insertion below
        // always finds an empty slot.
        if (self.len() + 1) * 8 > self.table.len() * 7 {
            self.grow();
        }
        let mut slot = hash_words(key) as usize & self.mask;
        loop {
            let id = self.table[slot];
            if id == NO_STATE {
                let fresh_id = self.len() as u32;
                assert!(fresh_id != NO_STATE, "state arena id space exhausted");
                self.arena.extend_from_slice(key);
                self.table[slot] = fresh_id;
                return (fresh_id, true);
            }
            if self.key(id) == key {
                return (id, false);
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Doubles the probe table and re-inserts every id. Keys never move:
    /// only the index is rebuilt, hashing each key in place in the arena.
    fn grow(&mut self) {
        let new_len = self.table.len() * 2;
        let mut table = vec![NO_STATE; new_len];
        let mask = new_len - 1;
        for id in 0..self.len() as u32 {
            let mut slot = hash_words(self.key(id)) as usize & mask;
            while table[slot] != NO_STATE {
                slot = (slot + 1) & mask;
            }
            table[slot] = id;
        }
        self.table = table;
        self.mask = mask;
    }
}

/// Struct-of-arrays per-state bookkeeping for the exact search, indexed
/// by [`StateArena`] id.
///
/// Splitting the fields keeps each access pattern dense: the Dijkstra
/// relaxation touches `dist`/`settled`, trace recovery walks `parent`,
/// and the incremental-delta machinery reads the three metadata arrays
/// (`red_count`, `unsat_sinks`, `heur`) exactly once per expansion.
///
/// Invariant: all arrays stay the same length as the owning arena; every
/// interned state pushes exactly one entry.
#[derive(Clone, Debug, Default)]
pub struct NodeTable {
    /// Tentative scaled distance from the initial state (`u64::MAX` =
    /// unreached).
    pub dist: Vec<u64>,
    /// `(predecessor id, move)` realizing `dist`; `(NO_STATE, _)` for the
    /// root.
    pub parent: Vec<(u32, Move)>,
    /// Whether the state has been popped with its final distance.
    pub settled: Vec<bool>,
    /// Number of red pebbles in the state (maintained by ±1 deltas).
    pub red_count: Vec<u32>,
    /// Number of sinks not yet satisfying the finishing condition; the
    /// state is a goal iff this is 0.
    pub unsat_sinks: Vec<u32>,
    /// Cached admissible heuristic value (scaled units; 0 when A* is
    /// off or inapplicable).
    pub heur: Vec<u64>,
}

impl NodeTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tracked states.
    #[inline]
    pub fn len(&self) -> usize {
        self.dist.len()
    }

    /// Whether the table is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.dist.is_empty()
    }

    /// Appends bookkeeping for a freshly interned state with the given
    /// incremental metadata; distance starts unreached.
    #[inline]
    pub fn push(&mut self, red_count: u32, unsat_sinks: u32, heur: u64) {
        self.dist.push(u64::MAX);
        self.parent.push((NO_STATE, Move::Delete(NodeId::new(0))));
        self.settled.push(false);
        self.red_count.push(red_count);
        self.unsat_sinks.push(unsat_sinks);
        self.heur.push(heur);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_assigns_dense_ids_and_roundtrips() {
        let mut a = StateArena::new(2);
        assert!(a.is_empty());
        let (i0, f0) = a.intern(&[1, 2]);
        let (i1, f1) = a.intern(&[3, 4]);
        let (i0b, f0b) = a.intern(&[1, 2]);
        assert_eq!((i0, f0), (0, true));
        assert_eq!((i1, f1), (1, true));
        assert_eq!((i0b, f0b), (0, false));
        assert_eq!(a.len(), 2);
        assert_eq!(a.key(0), &[1, 2]);
        assert_eq!(a.key(1), &[3, 4]);
    }

    #[test]
    fn zero_key_is_a_valid_state() {
        let mut a = StateArena::new(3);
        let (id, fresh) = a.intern(&[0, 0, 0]);
        assert!(fresh);
        assert_eq!(a.key(id), &[0, 0, 0]);
        assert_eq!(a.intern(&[0, 0, 0]), (id, false));
    }

    #[test]
    fn survives_table_growth() {
        // start tiny so several doublings happen
        let mut a = StateArena::with_capacity(1, 4);
        for k in 0..10_000u64 {
            let (id, fresh) = a.intern(&[k.wrapping_mul(0x9e37_79b9_7f4a_7c15)]);
            assert_eq!(id as u64, k);
            assert!(fresh);
        }
        for k in 0..10_000u64 {
            let (id, fresh) = a.intern(&[k.wrapping_mul(0x9e37_79b9_7f4a_7c15)]);
            assert_eq!(id as u64, k);
            assert!(!fresh);
        }
        assert_eq!(a.len(), 10_000);
    }

    #[test]
    fn colliding_prefixes_stay_distinct() {
        // keys sharing every word but the last must not alias
        let mut a = StateArena::new(4);
        let (x, _) = a.intern(&[7, 7, 7, 1]);
        let (y, _) = a.intern(&[7, 7, 7, 2]);
        assert_ne!(x, y);
        assert_eq!(a.key(x)[3], 1);
        assert_eq!(a.key(y)[3], 2);
    }

    #[test]
    fn node_table_tracks_arena() {
        let mut t = NodeTable::new();
        assert!(t.is_empty());
        t.push(3, 1, 10);
        assert_eq!(t.len(), 1);
        assert_eq!(t.dist[0], u64::MAX);
        assert_eq!(t.parent[0].0, NO_STATE);
        assert!(!t.settled[0]);
        assert_eq!(
            (t.red_count[0], t.unsat_sinks[0], t.heur[0]),
            (3u32, 1u32, 10u64)
        );
    }

    #[test]
    #[should_panic(expected = "at least one word")]
    fn zero_width_keys_rejected() {
        let _ = StateArena::new(0);
    }
}
