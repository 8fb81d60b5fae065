//! DAG transformations from Section 3 and Appendix C.

use crate::instance::{Instance, SinkConvention};
use crate::moves::Move;
use crate::state::State;
use crate::trace::Pebbling;
use rbp_graph::{Dag, DagBuilder, NodeId};

/// Result of [`add_super_source`]: the transformed DAG plus bookkeeping.
#[derive(Clone, Debug)]
pub struct SuperSource {
    /// The transformed DAG. Original node ids are preserved; the new
    /// source is appended at index `n`.
    pub dag: Dag,
    /// The added source node s0.
    pub s0: NodeId,
}

/// Section 3, "small number of source nodes": adds a single node s0 with
/// an edge to every original node, making s0 the only source. Pebbling the
/// result with R+1 red pebbles behaves like pebbling the original with R,
/// because a reasonable strategy parks one red pebble on s0 permanently.
pub fn add_super_source(dag: &Dag) -> SuperSource {
    let n = dag.n();
    let mut b = DagBuilder::new(n + 1);
    for (u, v) in dag.edges() {
        b.add_edge(u.index(), v.index());
    }
    for v in 0..n {
        b.add_edge(n, v);
    }
    b.set_label(NodeId::new(n), "s0");
    SuperSource {
        dag: b
            .build()
            .expect("adding a fresh source preserves acyclicity"),
        s0: NodeId::new(n),
    }
}

/// Appendix C: converts a pebbling that finishes with any-colour pebbles
/// on sinks into one that finishes with *blue* pebbles on all sinks, by
/// appending a store for each red sink, executed by the processor that
/// holds it. Adds at most (#sinks) transfers.
///
/// The input trace must be valid for `instance`; the output is valid for
/// the same instance with [`SinkConvention::RequireBlue`].
pub fn bluify_sinks(instance: &Instance, trace: &Pebbling) -> Pebbling {
    // Replay to find which sinks end red, and where.
    let mut state = State::initial(instance);
    for (step, &mv) in trace.moves().iter().enumerate() {
        state
            .apply_on(mv, trace.proc_of(step), instance)
            .expect("bluify_sinks requires a valid trace");
    }
    let mut out = trace.clone();
    for v in instance.dag().sinks() {
        if let Some(proc) = state.owner_of(v) {
            out.push_on(Move::Store(v), proc);
        }
    }
    out
}

/// Appendix C helper: the companion instance that demands blue sinks.
pub fn require_blue_sinks(instance: &Instance) -> Instance {
    instance
        .clone()
        .with_sink_convention(SinkConvention::RequireBlue)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::canonical_pebbling;
    use crate::engine::simulate;
    use crate::model::CostModel;
    use rbp_graph::generate;

    #[test]
    fn super_source_feeds_everything() {
        let dag = generate::chain(5);
        let ss = add_super_source(&dag);
        assert_eq!(ss.dag.n(), 6);
        assert_eq!(ss.dag.sources(), vec![ss.s0]);
        for v in 0..5 {
            assert!(ss.dag.has_edge(ss.s0, NodeId::new(v)));
        }
        // original edges intact
        assert!(ss.dag.has_edge(NodeId::new(0), NodeId::new(1)));
        assert_eq!(ss.dag.label(ss.s0), "s0");
    }

    #[test]
    fn super_source_raises_delta_by_one_on_chains() {
        let dag = generate::chain(4);
        assert_eq!(dag.max_indegree(), 1);
        let ss = add_super_source(&dag);
        assert_eq!(ss.dag.max_indegree(), 2);
    }

    #[test]
    fn super_source_instance_still_pebblable() {
        let dag = generate::chain(4);
        let ss = add_super_source(&dag);
        // paper: R' = R + 1
        let inst = Instance::new(ss.dag, 3, CostModel::oneshot());
        let trace = canonical_pebbling(&inst).unwrap();
        assert!(simulate(&inst, &trace).is_ok());
    }

    #[test]
    fn bluify_converts_to_blue_sink_validity() {
        // 0 -> 1; a minimal trace leaves the sink red
        let dag = generate::chain(2);
        let inst = Instance::new(dag, 2, CostModel::oneshot());
        let mut p = Pebbling::new();
        p.compute(NodeId::new(0));
        p.compute(NodeId::new(1));
        // valid under AnyPebble, invalid under RequireBlue
        assert!(simulate(&inst, &p).is_ok());
        let strict = require_blue_sinks(&inst);
        assert!(simulate(&strict, &p).is_err());
        let fixed = bluify_sinks(&inst, &p);
        let rep = simulate(&strict, &fixed).unwrap();
        // exactly one extra store
        assert_eq!(rep.cost.transfers, 1);

        // p = 2: the red sink sits on processor 1, which must store it
        let mut b = DagBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        let inst = Instance::new(b.build().unwrap(), 2, CostModel::base()).with_procs(2);
        let mut p = Pebbling::new();
        p.push_on(Move::Compute(NodeId::new(0)), 0);
        p.push_on(Move::Compute(NodeId::new(1)), 0);
        p.push_on(Move::Store(NodeId::new(0)), 0);
        p.push_on(Move::Load(NodeId::new(0)), 1);
        p.push_on(Move::Compute(NodeId::new(2)), 1);
        let strict = require_blue_sinks(&inst);
        assert!(simulate(&inst, &p).is_ok());
        assert!(simulate(&strict, &p).is_err());
        let fixed = bluify_sinks(&inst, &p);
        let rep = simulate(&strict, &fixed).unwrap();
        assert_eq!(
            rep.cost.transfers, 4,
            "two sink stores on top of the shipment"
        );
        assert_eq!(fixed.proc_of(fixed.len() - 1), 1);
    }

    #[test]
    fn bluify_is_noop_when_sinks_already_blue() {
        let dag = generate::chain(2);
        let inst = Instance::new(dag, 2, CostModel::oneshot());
        let mut p = Pebbling::new();
        p.compute(NodeId::new(0));
        p.compute(NodeId::new(1));
        p.store(NodeId::new(1));
        let fixed = bluify_sinks(&inst, &p);
        assert_eq!(fixed.len(), p.len());
    }

    #[test]
    fn appendix_c_cost_gap_bounded_by_sink_count() {
        let mut rng = rand::thread_rng();
        let dag = generate::gnp_dag(12, 0.3, 3, &mut rng);
        let sinks = dag.sinks().len() as u64;
        let inst = Instance::new(dag, 4, CostModel::oneshot());
        let trace = canonical_pebbling(&inst).unwrap();
        let base_cost = simulate(&inst, &trace).unwrap().cost;
        let strict = require_blue_sinks(&inst);
        let fixed = bluify_sinks(&inst, &trace);
        let strict_cost = simulate(&strict, &fixed).unwrap().cost;
        assert!(strict_cost.transfers <= base_cost.transfers + sinks);
    }
}
