//! The validating simulation engine.
//!
//! Every cost number reported anywhere in this repository comes from this
//! engine replaying a concrete trace against an instance — solver-internal
//! accounting is always cross-checked here in tests.

use crate::cost::Cost;
use crate::error::{PebblingError, TraceError};
use crate::instance::Instance;
use crate::state::State;
use crate::trace::Pebbling;

/// The result of a successful simulation.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Exact accumulated cost (transfers + compute count; weigh with the
    /// model's ε via [`Cost::scaled`]).
    pub cost: Cost,
    /// Maximum number of red pebbles simultaneously on the board, over
    /// all processors.
    pub peak_red: usize,
    /// Number of moves executed.
    pub steps: usize,
    /// The configuration after the last move.
    pub final_state: State,
}

impl SimReport {
    /// The cost weighed by the instance's objective (ε for classic
    /// instances, the MPP comm/comp weights otherwise), as the
    /// canonical integer comparison key.
    pub fn scaled_cost(&self, instance: &Instance) -> u128 {
        instance.scaled_cost(&self.cost)
    }
}

/// Replays `trace` from the initial configuration, validating every move,
/// and requires the finishing condition (every sink pebbled per the sink
/// convention). Returns the exact cost or the first violation.
///
/// Each move runs on the processor its tag names ([`State::apply_on`]):
/// untagged traces run on processor 0, and a tag at or beyond the
/// instance's processor count is rejected as
/// [`PebblingError::ProcOutOfRange`].
pub fn simulate(instance: &Instance, trace: &Pebbling) -> Result<SimReport, TraceError> {
    let report = simulate_prefix(instance, trace)?;
    if let Some(sink) = report.final_state.first_unsatisfied_sink(instance) {
        return Err(TraceError {
            step: usize::MAX,
            error: PebblingError::Incomplete { sink },
        });
    }
    Ok(report)
}

/// Like [`simulate`] but without the completeness requirement — validates
/// and costs a partial pebbling.
pub fn simulate_prefix(instance: &Instance, trace: &Pebbling) -> Result<SimReport, TraceError> {
    let mut state = State::initial(instance);
    let mut cost = Cost::ZERO;
    let mut peak_red = state.red_count();
    for (step, &mv) in trace.moves().iter().enumerate() {
        match state.apply_on(mv, trace.proc_of(step), instance) {
            Ok(delta) => cost += delta,
            Err(error) => return Err(TraceError { step, error }),
        }
        peak_red = peak_red.max(state.red_count());
    }
    Ok(SimReport {
        cost,
        peak_red,
        steps: trace.len(),
        final_state: state,
    })
}

/// Validates a trace and returns only its scaled cost — the common path in
/// solver tests.
pub fn cost_of(instance: &Instance, trace: &Pebbling) -> Result<Cost, TraceError> {
    simulate(instance, trace).map(|r| r.cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CostModel;
    use crate::moves::Move;
    use rbp_graph::{DagBuilder, NodeId};

    fn v(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// 0 -> 2, 1 -> 2 (two sources, one sink)
    fn join_instance(model: CostModel, r: usize) -> Instance {
        let mut b = DagBuilder::new(3);
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        Instance::new(b.build().unwrap(), r, model)
    }

    #[test]
    fn free_pebbling_when_memory_sufficient() {
        let inst = join_instance(CostModel::oneshot(), 3);
        let mut p = Pebbling::new();
        p.compute(v(0));
        p.compute(v(1));
        p.compute(v(2));
        let rep = simulate(&inst, &p).unwrap();
        assert_eq!(
            rep.cost,
            Cost {
                transfers: 0,
                computes: 3
            }
        );
        assert_eq!(rep.scaled_cost(&inst), 0, "computes are free in oneshot");
        assert_eq!(rep.peak_red, 3);
        assert_eq!(rep.steps, 3);
    }

    #[test]
    fn incomplete_trace_rejected_with_sink() {
        let inst = join_instance(CostModel::oneshot(), 3);
        let mut p = Pebbling::new();
        p.compute(v(0));
        let err = simulate(&inst, &p).unwrap_err();
        assert_eq!(err.step, usize::MAX);
        assert_eq!(err.error, PebblingError::Incomplete { sink: v(2) });
        // but as a prefix it is fine
        assert!(simulate_prefix(&inst, &p).is_ok());
    }

    #[test]
    fn error_reports_step_index() {
        let inst = join_instance(CostModel::oneshot(), 3);
        let mut p = Pebbling::new();
        p.compute(v(0));
        p.load(v(1)); // illegal: v1 not blue
        let err = simulate_prefix(&inst, &p).unwrap_err();
        assert_eq!(err.step, 1);
        assert_eq!(err.error, PebblingError::LoadNotBlue { node: v(1) });
    }

    #[test]
    fn tight_memory_forces_transfers() {
        // R = 3 = Δ+1: computing the sink needs all three pebbles; with a
        // detour through blue the cost surfaces.
        let inst = join_instance(CostModel::oneshot(), 3);
        let mut p = Pebbling::new();
        p.compute(v(0));
        p.store(v(0)); // unnecessary, but legal: cost 1
        p.compute(v(1));
        p.load(v(0)); // cost 1
        p.compute(v(2));
        let rep = simulate(&inst, &p).unwrap();
        assert_eq!(rep.cost.transfers, 2);
        assert_eq!(rep.scaled_cost(&inst), 2);
    }

    #[test]
    fn compcost_weighs_computations() {
        let inst = join_instance(CostModel::compcost(), 3);
        let mut p = Pebbling::new();
        p.compute(v(0));
        p.compute(v(1));
        p.compute(v(2));
        let rep = simulate(&inst, &p).unwrap();
        // 3 computes at ε = 1/100 → scaled = 3 (units of 1/100)
        assert_eq!(rep.scaled_cost(&inst), 3);
        assert_eq!(rep.cost.total_f64(inst.model().epsilon()), 0.03);
    }

    #[test]
    fn peak_red_tracked() {
        let inst = join_instance(CostModel::base(), 3);
        let mut p = Pebbling::new();
        p.compute(v(0));
        p.compute(v(1));
        p.compute(v(2));
        p.delete(v(0));
        p.delete(v(1));
        let rep = simulate(&inst, &p).unwrap();
        assert_eq!(rep.peak_red, 3);
        assert_eq!(rep.final_state.red_count(), 1);
    }

    #[test]
    fn deletes_are_free() {
        let inst = join_instance(CostModel::base(), 3);
        let mut p = Pebbling::new();
        p.compute(v(0));
        p.compute(v(1));
        p.compute(v(2));
        p.delete(v(0));
        p.delete(v(1));
        let with_deletes = simulate(&inst, &p).unwrap();
        assert_eq!(with_deletes.cost.transfers, 0);
        assert_eq!(with_deletes.cost.computes, 3);
    }

    #[test]
    fn cost_of_shortcut() {
        let inst = join_instance(CostModel::oneshot(), 3);
        let p = Pebbling::from_moves(vec![
            Move::Compute(v(0)),
            Move::Compute(v(1)),
            Move::Compute(v(2)),
        ]);
        assert_eq!(
            cost_of(&inst, &p).unwrap(),
            Cost {
                transfers: 0,
                computes: 3
            }
        );
    }

    #[test]
    fn mpp_instances_replay_under_the_per_processor_rules() {
        let inst = join_instance(CostModel::base(), 3).with_procs(2);
        let mut p = Pebbling::new();
        p.push_on(Move::Compute(v(0)), 0);
        p.push_on(Move::Compute(v(1)), 1);
        p.push_on(Move::Store(v(1)), 1);
        p.push_on(Move::Load(v(1)), 0);
        p.push_on(Move::Compute(v(2)), 0);
        let rep = simulate(&inst, &p).unwrap();
        assert_eq!(rep.cost.transfers, 2);
        assert_eq!(rep.cost.computes, 3);
        // the final state's red set is the union of both memories
        assert!(rep.final_state.is_red(v(0)));
        assert!(rep.final_state.is_red(v(2)));
        // an untagged trace on a p > 1 instance is a valid proc-0 schedule
        let mut serial = Pebbling::new();
        serial.compute(v(0));
        serial.compute(v(1));
        serial.compute(v(2));
        assert_eq!(simulate(&inst, &serial).unwrap().cost.transfers, 0);
    }

    #[test]
    fn tagged_trace_on_classic_instance_rejected() {
        let inst = join_instance(CostModel::base(), 3);
        let mut p = Pebbling::new();
        p.push_on(Move::Compute(v(0)), 1);
        let err = simulate_prefix(&inst, &p).unwrap_err();
        assert_eq!(
            err.error,
            PebblingError::ProcOutOfRange {
                node: v(0),
                proc: 1,
                procs: 1
            }
        );
    }

    #[test]
    fn empty_trace_on_sink_free_graph() {
        // a graph with zero nodes is trivially complete
        let inst = Instance::new(DagBuilder::new(0).build().unwrap(), 1, CostModel::base());
        let rep = simulate(&inst, &Pebbling::new()).unwrap();
        assert_eq!(rep.cost, Cost::ZERO);
    }
}
