//! Pebbling traces: a recorded sequence of moves with statistics.

use crate::cost::Cost;
use crate::moves::Move;
use rbp_graph::NodeId;
use std::fmt;

/// A sequence of pebbling moves — the object whose cost the game measures.
///
/// Traces are *not* validated on construction; run them through
/// [`crate::engine::simulate`] to check legality against an instance and
/// obtain the exact cost.
///
/// # Processor tags
///
/// For the multiprocessor game each move carries the processor that
/// executes it. The tags are stored lazily: a trace built through the
/// classic single-processor API has an empty tag vector, which means
/// *all moves run on processor 0*. [`Pebbling::push_on`] materializes
/// the vector on first use, so classic code paths pay nothing.
#[derive(Clone, Eq, Default)]
pub struct Pebbling {
    moves: Vec<Move>,
    /// Per-move processor tags; empty ≡ every move on processor 0.
    /// Invariant: either empty or exactly `moves.len()` long.
    procs: Vec<u16>,
}

impl Pebbling {
    /// An empty trace.
    pub fn new() -> Self {
        Pebbling::default()
    }

    /// An empty trace with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Pebbling {
            moves: Vec::with_capacity(cap),
            procs: Vec::new(),
        }
    }

    /// Wraps an existing move sequence (all on processor 0).
    pub fn from_moves(moves: Vec<Move>) -> Self {
        Pebbling {
            moves,
            procs: Vec::new(),
        }
    }

    /// Appends a move (on processor 0).
    #[inline]
    pub fn push(&mut self, mv: Move) {
        self.moves.push(mv);
        if !self.procs.is_empty() {
            self.procs.push(0);
        }
    }

    /// Appends a move executed by processor `proc`. Backfills the lazy
    /// tag vector with zeros the first time a nonzero tag appears.
    pub fn push_on(&mut self, mv: Move, proc: u16) {
        if proc != 0 && self.procs.is_empty() {
            self.procs = vec![0; self.moves.len()];
        }
        self.moves.push(mv);
        if !self.procs.is_empty() || proc != 0 {
            self.procs.push(proc);
        }
    }

    /// The processor executing move `i` (0 for untagged traces).
    #[inline]
    pub fn proc_of(&self, i: usize) -> u16 {
        self.procs.get(i).copied().unwrap_or(0)
    }

    /// Whether any move carries a nonzero processor tag. `false` means
    /// the trace is a valid classic single-processor pebbling.
    pub fn has_proc_tags(&self) -> bool {
        self.procs.iter().any(|&p| p != 0)
    }

    /// Convenience: appends `Load(v)`.
    pub fn load(&mut self, v: NodeId) {
        self.push(Move::Load(v));
    }

    /// Convenience: appends `Store(v)`.
    pub fn store(&mut self, v: NodeId) {
        self.push(Move::Store(v));
    }

    /// Convenience: appends `Compute(v)`.
    pub fn compute(&mut self, v: NodeId) {
        self.push(Move::Compute(v));
    }

    /// Convenience: appends `Delete(v)`.
    pub fn delete(&mut self, v: NodeId) {
        self.push(Move::Delete(v));
    }

    /// Appends all moves of `other`, preserving its processor tags.
    pub fn extend(&mut self, other: &Pebbling) {
        if self.procs.is_empty() && other.has_proc_tags() {
            self.procs = vec![0; self.moves.len()];
        }
        self.moves.extend_from_slice(&other.moves);
        if !self.procs.is_empty() {
            self.procs
                .extend((0..other.moves.len()).map(|i| other.proc_of(i)));
        }
    }

    /// The moves in order.
    #[inline]
    pub fn moves(&self) -> &[Move] {
        &self.moves
    }

    /// Number of moves (the pebbling's *length*, bounded by O(Δ·n) for
    /// optimal pebblings in oneshot/nodel/compcost — Lemma 1).
    #[inline]
    pub fn len(&self) -> usize {
        self.moves.len()
    }

    /// Whether the trace is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }

    /// Per-operation counts.
    pub fn stats(&self) -> TraceStats {
        let mut s = TraceStats::default();
        for &m in &self.moves {
            s.count(m);
        }
        s
    }

    /// Per-operation counts split by executing processor: entry `i`
    /// counts processor `i`'s moves, up to the highest tag in the trace
    /// (one entry for an untagged trace).
    pub fn proc_stats(&self) -> Vec<TraceStats> {
        let procs = self.procs.iter().max().map_or(1, |&p| p as usize + 1);
        let mut per_proc = vec![TraceStats::default(); procs];
        for (i, &m) in self.moves.iter().enumerate() {
            per_proc[self.proc_of(i) as usize].count(m);
        }
        per_proc
    }

    /// The order in which nodes receive their *first* computation — the
    /// visit order that characterizes oneshot strategies (Section 8).
    pub fn first_computations(&self) -> Vec<NodeId> {
        let mut seen: Vec<bool> = Vec::new();
        let mut order = Vec::new();
        for m in &self.moves {
            if let Move::Compute(v) = m {
                if seen.len() <= v.index() {
                    seen.resize(v.index() + 1, false);
                }
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    order.push(*v);
                }
            }
        }
        order
    }
}

impl PartialEq for Pebbling {
    /// Semantic equality: same moves on the same processors. An empty
    /// tag vector and an explicit all-zeros vector compare equal — both
    /// mean "everything on processor 0".
    fn eq(&self, other: &Self) -> bool {
        self.moves == other.moves
            && (0..self.moves.len()).all(|i| self.proc_of(i) == other.proc_of(i))
    }
}

impl fmt::Debug for Pebbling {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        write!(
            f,
            "Pebbling(len={}, loads={}, stores={}, computes={}, deletes={})",
            self.len(),
            s.loads,
            s.stores,
            s.computes,
            s.deletes
        )
    }
}

impl fmt::Display for Pebbling {
    /// Full move listing, one per line — for debugging small traces.
    /// Multiprocessor traces append the executing processor.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tagged = self.has_proc_tags();
        for (i, m) in self.moves.iter().enumerate() {
            if tagged {
                writeln!(f, "{i:>4}: {m} p{}", self.proc_of(i))?;
            } else {
                writeln!(f, "{i:>4}: {m}")?;
            }
        }
        Ok(())
    }
}

impl FromIterator<Move> for Pebbling {
    fn from_iter<T: IntoIterator<Item = Move>>(iter: T) -> Self {
        Pebbling {
            moves: iter.into_iter().collect(),
            procs: Vec::new(),
        }
    }
}

/// Operation counts of a trace.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TraceStats {
    /// Step-1 count (blue→red).
    pub loads: u64,
    /// Step-2 count (red→blue).
    pub stores: u64,
    /// Step-3 count.
    pub computes: u64,
    /// Step-4 count.
    pub deletes: u64,
}

impl TraceStats {
    fn count(&mut self, m: Move) {
        match m {
            Move::Load(_) => self.loads += 1,
            Move::Store(_) => self.stores += 1,
            Move::Compute(_) => self.computes += 1,
            Move::Delete(_) => self.deletes += 1,
        }
    }

    /// Total transfers (the cost in all models up to the compute term).
    pub fn transfers(&self) -> u64 {
        self.loads + self.stores
    }

    /// The cost these counts add up to: one transfer per load or store,
    /// one compute per compute. For a legal trace this is the cost the
    /// engine's replay charges.
    pub fn cost(&self) -> Cost {
        Cost {
            transfers: self.transfers(),
            computes: self.computes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn stats_count_each_kind() {
        let mut p = Pebbling::new();
        p.compute(v(0));
        p.store(v(0));
        p.load(v(0));
        p.compute(v(1));
        p.delete(v(0));
        let s = p.stats();
        assert_eq!(s.loads, 1);
        assert_eq!(s.stores, 1);
        assert_eq!(s.computes, 2);
        assert_eq!(s.deletes, 1);
        assert_eq!(s.transfers(), 2);
        assert_eq!(
            s.cost(),
            Cost {
                transfers: 2,
                computes: 2
            }
        );
        assert_eq!(p.len(), 5);
    }

    #[test]
    fn first_computations_dedupes() {
        let mut p = Pebbling::new();
        p.compute(v(2));
        p.compute(v(0));
        p.delete(v(2));
        p.compute(v(2)); // recompute: not a first computation
        assert_eq!(p.first_computations(), vec![v(2), v(0)]);
    }

    #[test]
    fn extend_concatenates() {
        let mut a = Pebbling::from_moves(vec![Move::Compute(v(0))]);
        let b = Pebbling::from_moves(vec![Move::Store(v(0))]);
        a.extend(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.moves()[1], Move::Store(v(0)));
    }

    #[test]
    fn display_lists_moves() {
        let p = Pebbling::from_moves(vec![Move::Compute(v(0)), Move::Store(v(0))]);
        let text = p.to_string();
        assert!(text.contains("0: compute v0"));
        assert!(text.contains("1: store v0"));
    }

    #[test]
    fn from_iterator_collects() {
        let p: Pebbling = vec![Move::Compute(v(1))].into_iter().collect();
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn proc_tags_are_lazy_and_backfilled() {
        let mut p = Pebbling::new();
        p.compute(v(0));
        assert!(!p.has_proc_tags());
        assert_eq!(p.proc_of(0), 0);
        p.push_on(Move::Compute(v(1)), 2);
        assert!(p.has_proc_tags());
        assert_eq!(p.proc_of(0), 0, "earlier moves backfill to processor 0");
        assert_eq!(p.proc_of(1), 2);
        // classic pushes after materialization keep the invariant
        p.store(v(1));
        assert_eq!(p.proc_of(2), 0);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn equality_ignores_tag_representation() {
        let mut a = Pebbling::new();
        a.compute(v(0));
        let mut b = Pebbling::new();
        b.push_on(Move::Compute(v(0)), 1); // materializes the vector...
        let mut c = Pebbling::new();
        c.push_on(Move::Compute(v(0)), 0); // ...this one stays lazy
        assert_ne!(a, b, "different processors are different traces");
        assert_eq!(a, c, "explicit p0 equals lazy p0");
        // explicit all-zeros vector (via backfill then rebuild) == lazy
        let mut d = Pebbling::new();
        d.push_on(Move::Compute(v(0)), 3);
        let e = Pebbling::from_moves(d.moves().to_vec());
        let mut f = Pebbling::new();
        f.compute(v(0));
        assert_eq!(e, f);
    }

    #[test]
    fn extend_carries_proc_tags_both_ways() {
        // untagged target absorbing a tagged source
        let mut a = Pebbling::from_moves(vec![Move::Compute(v(0))]);
        let mut tagged = Pebbling::new();
        tagged.push_on(Move::Load(v(0)), 1);
        a.extend(&tagged);
        assert_eq!(a.proc_of(0), 0);
        assert_eq!(a.proc_of(1), 1);
        // tagged target absorbing an untagged source
        let mut b = Pebbling::new();
        b.push_on(Move::Compute(v(0)), 2);
        b.extend(&Pebbling::from_moves(vec![Move::Store(v(0))]));
        assert_eq!(b.proc_of(0), 2);
        assert_eq!(b.proc_of(1), 0);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn proc_stats_split_the_counts_by_processor() {
        let mut p = Pebbling::new();
        p.compute(v(0));
        assert_eq!(p.proc_stats(), vec![p.stats()]);
        p.push_on(Move::Store(v(0)), 2);
        p.push_on(Move::Load(v(0)), 2);
        let per_proc = p.proc_stats();
        assert_eq!(per_proc.len(), 3);
        assert_eq!(per_proc[0].computes, 1);
        assert_eq!(per_proc[1], TraceStats::default());
        assert_eq!(per_proc[2].transfers(), 2);
    }

    #[test]
    fn display_annotates_processors_only_when_tagged() {
        let mut p = Pebbling::new();
        p.push_on(Move::Compute(v(0)), 0);
        assert!(!p.to_string().contains(" p0"));
        let mut q = Pebbling::new();
        q.compute(v(0));
        q.push_on(Move::Load(v(1)), 3);
        let text = q.to_string();
        assert!(text.contains("compute v0 p0"));
        assert!(text.contains("load v1 p3"));
    }
}
