//! Trace analytics: where a pebbling spends its transfers.
//!
//! Solvers tell you *how much* a schedule costs; these utilities tell you
//! *why* — which values thrash between the memory levels, how the red
//! working set evolves, and how the operation mix breaks down. Used by
//! the examples and experiments for diagnosis.

use crate::instance::Instance;
use crate::moves::Move;
use crate::state::State;
use crate::trace::Pebbling;
use rbp_graph::NodeId;

/// Per-node traffic accumulated by a trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeTraffic {
    /// Times the value was loaded from slow memory.
    pub loads: u32,
    /// Times the value was stored to slow memory.
    pub stores: u32,
    /// Times the value was computed (1 except in recomputation models).
    pub computes: u32,
}

impl NodeTraffic {
    /// Total paid transfers for this value.
    pub fn transfers(&self) -> u32 {
        self.loads + self.stores
    }
}

/// The full analysis of a validated trace.
#[derive(Clone, Debug)]
pub struct TraceAnalysis {
    /// Per-node traffic, indexed by node id.
    pub traffic: Vec<NodeTraffic>,
    /// Red-pebble count after every move, over all processors (the
    /// working-set curve).
    pub red_curve: Vec<usize>,
    /// Largest simultaneous red-pebble count, over all processors.
    pub peak_red: usize,
    /// Number of moves.
    pub len: usize,
}

impl TraceAnalysis {
    /// The `k` nodes with the highest transfer traffic, descending
    /// (ties toward lower ids).
    pub fn hottest(&self, k: usize) -> Vec<(NodeId, u32)> {
        let mut v: Vec<(NodeId, u32)> = self
            .traffic
            .iter()
            .enumerate()
            .map(|(i, t)| (NodeId::new(i), t.transfers()))
            .collect();
        v.sort_by_key(|&(id, t)| (std::cmp::Reverse(t), id));
        v.truncate(k);
        v
    }

    /// Mean red-pebble occupancy over the trace (0 for empty traces).
    pub fn mean_red(&self) -> f64 {
        if self.red_curve.is_empty() {
            return 0.0;
        }
        self.red_curve.iter().sum::<usize>() as f64 / self.red_curve.len() as f64
    }

    /// Number of values that round-tripped through slow memory at least
    /// once (loads ≥ 1).
    pub fn thrashed_values(&self) -> usize {
        self.traffic.iter().filter(|t| t.loads > 0).count()
    }
}

/// Replays a trace (which must be valid for `instance`, each move on its
/// tagged processor) and gathers the analysis. Panics on invalid traces —
/// validate with [`crate::engine::simulate`] first if unsure.
pub fn analyze(instance: &Instance, trace: &Pebbling) -> TraceAnalysis {
    let n = instance.dag().n();
    let mut traffic = vec![NodeTraffic::default(); n];
    let mut state = State::initial(instance);
    let mut red_curve = Vec::with_capacity(trace.len());
    let mut peak = state.red_count();
    for (step, &mv) in trace.moves().iter().enumerate() {
        state
            .apply_on(mv, trace.proc_of(step), instance)
            .expect("analyze requires a valid trace");
        match mv {
            Move::Load(v) => traffic[v.index()].loads += 1,
            Move::Store(v) => traffic[v.index()].stores += 1,
            Move::Compute(v) => traffic[v.index()].computes += 1,
            Move::Delete(_) => {}
        }
        red_curve.push(state.red_count());
        peak = peak.max(state.red_count());
    }
    TraceAnalysis {
        traffic,
        red_curve,
        peak_red: peak,
        len: trace.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CostModel;
    use rbp_graph::{generate, DagBuilder};

    fn v(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn traffic_counts_per_node() {
        let mut b = DagBuilder::new(2);
        b.add_edge(0, 1);
        let inst = Instance::new(b.build().unwrap(), 2, CostModel::base());
        let mut p = Pebbling::new();
        p.compute(v(0));
        p.store(v(0));
        p.load(v(0));
        p.compute(v(1));
        let a = analyze(&inst, &p);
        assert_eq!(
            a.traffic[0],
            NodeTraffic {
                loads: 1,
                stores: 1,
                computes: 1
            }
        );
        assert_eq!(a.traffic[1].computes, 1);
        assert_eq!(a.traffic[0].transfers(), 2);
        assert_eq!(a.thrashed_values(), 1);
    }

    #[test]
    fn red_curve_tracks_occupancy() {
        let inst = Instance::new(generate::chain(3), 2, CostModel::base());
        let mut p = Pebbling::new();
        p.compute(v(0)); // 1 red
        p.compute(v(1)); // 2
        p.delete(v(0)); // 1
        p.compute(v(2)); // 2
        let a = analyze(&inst, &p);
        assert_eq!(a.red_curve, vec![1, 2, 1, 2]);
        assert_eq!(a.peak_red, 2);
        assert!((a.mean_red() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn hottest_ranks_by_transfers() {
        let mut b = DagBuilder::new(3);
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        let inst = Instance::new(b.build().unwrap(), 3, CostModel::base());
        let mut p = Pebbling::new();
        p.compute(v(0));
        p.store(v(0));
        p.load(v(0));
        p.store(v(0));
        p.load(v(0));
        p.compute(v(1));
        p.compute(v(2));
        let a = analyze(&inst, &p);
        let hot = a.hottest(2);
        assert_eq!(hot[0], (v(0), 4));
        assert_eq!(hot[1].1, 0);
    }

    #[test]
    #[should_panic(expected = "valid trace")]
    fn invalid_trace_panics() {
        let inst = Instance::new(generate::chain(2), 2, CostModel::oneshot());
        let mut p = Pebbling::new();
        p.load(v(0)); // nothing blue yet
        let _ = analyze(&inst, &p);
    }

    #[test]
    fn empty_trace_analysis() {
        let inst = Instance::new(generate::chain(2), 2, CostModel::base());
        let a = analyze(&inst, &Pebbling::new());
        assert_eq!(a.peak_red, 0);
        assert_eq!(a.mean_red(), 0.0);
        assert_eq!(a.thrashed_values(), 0);
    }
}
