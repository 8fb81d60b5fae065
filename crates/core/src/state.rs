//! The pebbling configuration and its one transition function, for the
//! classic game and the multiprocessor game alike.
//!
//! The multiprocessor extension (Böhnlein/Papp/Yzelman 2024) runs the
//! red-blue game on `p` processors: each processor owns a *private* fast
//! memory of at most R red pebbles, while blue slow memory is *shared*.
//! Every move is executed by one processor `i`:
//!
//! - `load(i, v)`: the shared blue pebble on `v` becomes a red pebble in
//!   processor `i`'s memory (cost: one transfer);
//! - `store(i, v)`: processor `i`'s red pebble on `v` becomes a shared
//!   blue pebble (cost: one transfer);
//! - `compute(i, v)`: processor `i` places a red pebble on `v`; **all
//!   inputs must be red in `i`'s own memory** (cost: one compute);
//! - `delete(i, v)`: removes `i`'s red pebble on `v`, or the shared
//!   blue pebble (free).
//!
//! A node still holds at most one pebble *globally*: a value lives in
//! exactly one place (empty, blue, or red on exactly one processor), so
//! moving it between processors costs a store plus a load through shared
//! memory. The classic game is the `p = 1` case: every move runs on
//! processor 0, and [`State::apply`] is [`State::apply_on`] there.

use crate::cost::Cost;
use crate::error::PebblingError;
use crate::instance::{Instance, SinkConvention, SourceConvention};
use crate::moves::Move;
use rbp_graph::{BitSet, NodeId};

/// A pebbling configuration: which nodes hold red pebbles (and in which
/// processor's memory), which hold the shared blue pebbles, and which
/// have ever been computed.
///
/// `red` is the union of the processors' red sets and `red_count` their
/// total, so [`State::is_red`], [`State::red_count`] and
/// [`State::red_set`] are single probes at every processor count. The
/// per-processor ownership exists only when `p > 1`; a `p = 1` state
/// holds the three bitsets and the counter alone.
///
/// Invariants maintained by [`State::apply_on`]:
/// - `red` and `blue` are disjoint (a node holds at most one pebble);
/// - `red.len() == red_count`, and each processor holds at most R red
///   pebbles;
/// - every pebbled node is in `computed` (pebbles originate from
///   computation, or from the initially-blue source convention);
/// - when `p > 1`: `owner[v]` is the processor holding red `v` (0 for
///   nodes that are not red) and `counts[i]` is processor `i`'s red
///   count; both are empty when `p = 1`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct State {
    red: BitSet,
    blue: BitSet,
    computed: BitSet,
    red_count: u32,
    owner: Box<[u16]>,
    counts: Box<[u32]>,
}

impl State {
    /// The initial configuration for `instance` on its
    /// [`Instance::procs`] processors: empty board, except under
    /// [`SourceConvention::InitiallyBlue`] where every source starts with
    /// a blue pebble (and counts as computed).
    pub fn initial(instance: &Instance) -> Self {
        let n = instance.dag().n();
        let p = instance.procs();
        let (owner, counts) = if p > 1 {
            (vec![0; n].into(), vec![0; p].into())
        } else {
            (Box::default(), Box::default())
        };
        let mut s = State {
            red: BitSet::new(n),
            blue: BitSet::new(n),
            computed: BitSet::new(n),
            red_count: 0,
            owner,
            counts,
        };
        if instance.source_convention() == SourceConvention::InitiallyBlue {
            for v in instance.dag().sources() {
                s.blue.insert(v.index());
                s.computed.insert(v.index());
            }
        }
        s
    }

    /// Number of processors this state is configured for.
    #[inline]
    pub fn procs(&self) -> usize {
        self.counts.len().max(1)
    }

    /// Whether `v` holds a red pebble, in any processor's memory.
    #[inline]
    pub fn is_red(&self, v: NodeId) -> bool {
        self.red.contains(v.index())
    }

    /// The processor whose memory holds `v`'s red pebble, if `v` is red.
    #[inline]
    pub fn owner_of(&self, v: NodeId) -> Option<u16> {
        self.is_red(v)
            .then(|| self.owner.get(v.index()).copied().unwrap_or(0))
    }

    /// Whether `v` is red in processor `proc`'s memory.
    #[inline]
    pub fn is_red_on(&self, proc: u16, v: NodeId) -> bool {
        self.owner_of(v) == Some(proc)
    }

    /// Whether `v` holds the shared blue pebble.
    #[inline]
    pub fn is_blue(&self, v: NodeId) -> bool {
        self.blue.contains(v.index())
    }

    /// Whether `v` holds any pebble.
    #[inline]
    pub fn is_pebbled(&self, v: NodeId) -> bool {
        self.is_red(v) || self.is_blue(v)
    }

    /// Whether `v` has ever been computed.
    #[inline]
    pub fn is_computed(&self, v: NodeId) -> bool {
        self.computed.contains(v.index())
    }

    /// Number of red pebbles currently on the board, over all processors.
    #[inline]
    pub fn red_count(&self) -> usize {
        self.red_count as usize
    }

    /// Number of red pebbles in processor `proc`'s memory
    /// (`proc < procs()`).
    #[inline]
    pub fn red_count_on(&self, proc: u16) -> usize {
        self.counts
            .get(proc as usize)
            .map_or(self.red_count(), |&c| c as usize)
    }

    /// The red-pebbled nodes, over all processors.
    #[inline]
    pub fn red_set(&self) -> &BitSet {
        &self.red
    }

    /// The blue-pebbled nodes.
    #[inline]
    pub fn blue_set(&self) -> &BitSet {
        &self.blue
    }

    /// The computed nodes.
    #[inline]
    pub fn computed_set(&self) -> &BitSet {
        &self.computed
    }

    /// Applies one move on processor 0 — the classic game's move, and
    /// [`State::apply_on`] with `proc = 0`.
    #[inline]
    pub fn apply(&mut self, mv: Move, instance: &Instance) -> Result<Cost, PebblingError> {
        self.apply_on(mv, 0, instance)
    }

    /// Applies one move executed by processor `proc`, returning its cost,
    /// or rejects it with the exact violation. On error the state is
    /// unchanged. This is the one statement of the move rules.
    pub fn apply_on(
        &mut self,
        mv: Move,
        proc: u16,
        instance: &Instance,
    ) -> Result<Cost, PebblingError> {
        let procs = self.procs();
        if proc as usize >= procs {
            return Err(PebblingError::ProcOutOfRange {
                node: mv.node(),
                proc,
                procs,
            });
        }
        let model = instance.model();
        let r_limit = instance.red_limit();
        match mv {
            Move::Load(v) => {
                if !self.is_blue(v) {
                    return Err(PebblingError::LoadNotBlue { node: v });
                }
                if self.red_count_on(proc) + 1 > r_limit {
                    return Err(PebblingError::RedLimitExceeded {
                        node: v,
                        limit: r_limit,
                    });
                }
                self.blue.remove(v.index());
                self.add_red(v, proc);
                Ok(Cost::transfers(1))
            }
            Move::Store(v) => {
                if !self.is_red_on(proc, v) {
                    return Err(PebblingError::StoreNotRed { node: v });
                }
                self.remove_red(v, proc);
                self.blue.insert(v.index());
                Ok(Cost::transfers(1))
            }
            Move::Compute(v) => {
                if self.is_red(v) {
                    return Err(PebblingError::ComputeOnRed { node: v });
                }
                if !model.allows_recompute() && self.is_computed(v) {
                    return Err(PebblingError::RecomputeForbidden { node: v });
                }
                if instance.source_convention() == SourceConvention::InitiallyBlue
                    && instance.dag().is_source(v)
                {
                    return Err(PebblingError::SourceNotComputable { node: v });
                }
                if let Some(&missing) = instance
                    .dag()
                    .preds(v)
                    .iter()
                    .find(|&&u| !self.is_red_on(proc, u))
                {
                    return Err(PebblingError::InputNotRed {
                        node: v,
                        input: missing,
                    });
                }
                if self.red_count_on(proc) + 1 > r_limit {
                    return Err(PebblingError::RedLimitExceeded {
                        node: v,
                        limit: r_limit,
                    });
                }
                // computing onto a blue pebble replaces it (the nodel
                // recomputation mechanism; legal in all models)
                self.blue.remove(v.index());
                self.add_red(v, proc);
                self.computed.insert(v.index());
                Ok(Cost {
                    transfers: 0,
                    computes: 1,
                })
            }
            Move::Delete(v) => {
                if !model.allows_delete() {
                    return Err(PebblingError::DeleteForbidden { node: v });
                }
                if self.is_red_on(proc, v) {
                    self.remove_red(v, proc);
                } else if !self.blue.remove(v.index()) {
                    return Err(PebblingError::DeleteEmpty { node: v });
                }
                Ok(Cost::ZERO)
            }
        }
    }

    /// Places a red pebble on `v` in processor `proc`'s memory.
    #[inline]
    fn add_red(&mut self, v: NodeId, proc: u16) {
        self.red.insert(v.index());
        self.red_count += 1;
        if let Some(count) = self.counts.get_mut(proc as usize) {
            *count += 1;
            self.owner[v.index()] = proc;
        }
    }

    /// Removes processor `proc`'s red pebble from `v`.
    #[inline]
    fn remove_red(&mut self, v: NodeId, proc: u16) {
        self.red.remove(v.index());
        self.red_count -= 1;
        if let Some(count) = self.counts.get_mut(proc as usize) {
            *count -= 1;
            self.owner[v.index()] = 0;
        }
    }

    /// Whether the finishing condition holds (every sink pebbled, with the
    /// colour the instance's sink convention demands; a red sink counts on
    /// any processor).
    pub fn is_complete(&self, instance: &Instance) -> bool {
        self.first_unsatisfied_sink(instance).is_none()
    }

    /// The first sink violating the finishing condition, if any.
    pub fn first_unsatisfied_sink(&self, instance: &Instance) -> Option<NodeId> {
        let need_blue = instance.sink_convention() == SinkConvention::RequireBlue;
        instance.dag().nodes().find(|&v| {
            instance.dag().is_sink(v)
                && if need_blue {
                    !self.is_blue(v)
                } else {
                    !self.is_pebbled(v)
                }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Ratio;
    use crate::engine::{simulate, simulate_prefix};
    use crate::instance::MppDim;
    use crate::model::CostModel;
    use crate::trace::Pebbling;
    use rbp_graph::DagBuilder;

    fn edge_instance(model: CostModel, r: usize) -> Instance {
        // 0 -> 1
        let mut b = DagBuilder::new(2);
        b.add_edge(0, 1);
        Instance::new(b.build().unwrap(), r, model)
    }

    fn v(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// 0 -> 2, 1 -> 2 (two sources, one sink)
    fn join(model: CostModel, r: usize) -> Instance {
        let mut b = DagBuilder::new(3);
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        Instance::new(b.build().unwrap(), r, model)
    }

    #[test]
    fn compute_source_then_target() {
        let inst = edge_instance(CostModel::base(), 2);
        let mut s = State::initial(&inst);
        assert_eq!(s.apply(Move::Compute(v(0)), &inst).unwrap().computes, 1);
        assert!(s.is_red(v(0)));
        s.apply(Move::Compute(v(1)), &inst).unwrap();
        assert!(s.is_complete(&inst));
        assert_eq!(s.red_count(), 2);
    }

    #[test]
    fn compute_without_red_input_rejected() {
        let inst = edge_instance(CostModel::base(), 2);
        let mut s = State::initial(&inst);
        assert_eq!(
            s.apply(Move::Compute(v(1)), &inst).unwrap_err(),
            PebblingError::InputNotRed {
                node: v(1),
                input: v(0)
            }
        );
    }

    #[test]
    fn red_limit_enforced_on_compute_and_load() {
        let inst = edge_instance(CostModel::base(), 1);
        let mut s = State::initial(&inst);
        s.apply(Move::Compute(v(0)), &inst).unwrap();
        // second red pebble would exceed R = 1
        assert_eq!(
            s.apply(Move::Compute(v(1)), &inst).unwrap_err(),
            PebblingError::RedLimitExceeded {
                node: v(1),
                limit: 1
            }
        );
        s.apply(Move::Store(v(0)), &inst).unwrap();
        // loading it back is fine now
        s.apply(Move::Load(v(0)), &inst).unwrap();
        assert_eq!(s.red_count(), 1);
    }

    #[test]
    fn store_then_load_roundtrip_costs_two_transfers() {
        let inst = edge_instance(CostModel::base(), 2);
        let mut s = State::initial(&inst);
        s.apply(Move::Compute(v(0)), &inst).unwrap();
        let c1 = s.apply(Move::Store(v(0)), &inst).unwrap();
        assert!(s.is_blue(v(0)) && !s.is_red(v(0)));
        let c2 = s.apply(Move::Load(v(0)), &inst).unwrap();
        assert!(s.is_red(v(0)) && !s.is_blue(v(0)));
        assert_eq!((c1 + c2).transfers, 2);
    }

    #[test]
    fn oneshot_forbids_recompute() {
        let inst = edge_instance(CostModel::oneshot(), 2);
        let mut s = State::initial(&inst);
        s.apply(Move::Compute(v(0)), &inst).unwrap();
        s.apply(Move::Delete(v(0)), &inst).unwrap();
        assert_eq!(
            s.apply(Move::Compute(v(0)), &inst).unwrap_err(),
            PebblingError::RecomputeForbidden { node: v(0) }
        );
    }

    #[test]
    fn base_allows_recompute() {
        let inst = edge_instance(CostModel::base(), 2);
        let mut s = State::initial(&inst);
        s.apply(Move::Compute(v(0)), &inst).unwrap();
        s.apply(Move::Delete(v(0)), &inst).unwrap();
        assert!(s.apply(Move::Compute(v(0)), &inst).is_ok());
    }

    #[test]
    fn nodel_forbids_delete_but_allows_recompute_onto_blue() {
        let inst = edge_instance(CostModel::nodel(), 2);
        let mut s = State::initial(&inst);
        s.apply(Move::Compute(v(0)), &inst).unwrap();
        assert_eq!(
            s.apply(Move::Delete(v(0)), &inst).unwrap_err(),
            PebblingError::DeleteForbidden { node: v(0) }
        );
        s.apply(Move::Store(v(0)), &inst).unwrap();
        // recomputation replaces the blue pebble (Section 4)
        s.apply(Move::Compute(v(0)), &inst).unwrap();
        assert!(s.is_red(v(0)));
        assert!(!s.is_blue(v(0)));
    }

    #[test]
    fn compute_on_red_rejected() {
        let inst = edge_instance(CostModel::base(), 2);
        let mut s = State::initial(&inst);
        s.apply(Move::Compute(v(0)), &inst).unwrap();
        assert_eq!(
            s.apply(Move::Compute(v(0)), &inst).unwrap_err(),
            PebblingError::ComputeOnRed { node: v(0) }
        );
    }

    #[test]
    fn delete_empty_rejected() {
        let inst = edge_instance(CostModel::base(), 2);
        let mut s = State::initial(&inst);
        assert_eq!(
            s.apply(Move::Delete(v(0)), &inst).unwrap_err(),
            PebblingError::DeleteEmpty { node: v(0) }
        );
    }

    #[test]
    fn load_requires_blue_store_requires_red() {
        let inst = edge_instance(CostModel::base(), 2);
        let mut s = State::initial(&inst);
        assert_eq!(
            s.apply(Move::Load(v(0)), &inst).unwrap_err(),
            PebblingError::LoadNotBlue { node: v(0) }
        );
        assert_eq!(
            s.apply(Move::Store(v(0)), &inst).unwrap_err(),
            PebblingError::StoreNotRed { node: v(0) }
        );
    }

    #[test]
    fn initially_blue_sources_start_blue_and_are_not_computable() {
        let inst = edge_instance(CostModel::base(), 2)
            .with_source_convention(SourceConvention::InitiallyBlue);
        let mut s = State::initial(&inst);
        assert!(s.is_blue(v(0)));
        assert!(s.is_computed(v(0)));
        assert_eq!(
            s.apply(Move::Compute(v(0)), &inst).unwrap_err(),
            PebblingError::SourceNotComputable { node: v(0) }
        );
        // the blue pebble must be loaded instead
        s.apply(Move::Load(v(0)), &inst).unwrap();
        s.apply(Move::Compute(v(1)), &inst).unwrap();
        assert!(s.is_complete(&inst));
    }

    #[test]
    fn require_blue_sink_convention() {
        let inst =
            edge_instance(CostModel::base(), 2).with_sink_convention(SinkConvention::RequireBlue);
        let mut s = State::initial(&inst);
        s.apply(Move::Compute(v(0)), &inst).unwrap();
        s.apply(Move::Compute(v(1)), &inst).unwrap();
        assert!(!s.is_complete(&inst), "red pebble on sink not enough");
        assert_eq!(s.first_unsatisfied_sink(&inst), Some(v(1)));
        s.apply(Move::Store(v(1)), &inst).unwrap();
        assert!(s.is_complete(&inst));
    }

    #[test]
    fn failed_apply_leaves_state_unchanged() {
        let inst = edge_instance(CostModel::oneshot(), 2);
        let mut s = State::initial(&inst);
        s.apply(Move::Compute(v(0)), &inst).unwrap();
        let before = s.clone();
        let _ = s.apply(Move::Compute(v(1)), &inst); // fine
        let snapshot = s.clone();
        assert!(s.apply(Move::Compute(v(0)), &inst).is_err());
        assert_eq!(s, snapshot);
        drop(before);
    }

    #[test]
    fn a_classic_state_keeps_no_processor_ownership() {
        let inst = join(CostModel::base(), 3);
        let mut s = State::initial(&inst);
        s.apply(Move::Compute(v(0)), &inst).unwrap();
        assert_eq!(s.procs(), 1);
        assert!(s.owner.is_empty() && s.counts.is_empty());
        assert_eq!(s.owner_of(v(0)), Some(0));
        assert_eq!(s.owner_of(v(1)), None);
        assert_eq!(s.red_count_on(0), 1);
    }

    #[test]
    fn cross_processor_movement_goes_through_shared_memory() {
        let inst = join(CostModel::base(), 3).with_procs(2);
        let mut t = Pebbling::new();
        t.push_on(Move::Compute(v(0)), 0);
        t.push_on(Move::Compute(v(1)), 1);
        // v1 lives on processor 1; processor 0 needs it to compute the
        // sink — it must travel store(1) + load(0)
        t.push_on(Move::Store(v(1)), 1);
        t.push_on(Move::Load(v(1)), 0);
        t.push_on(Move::Compute(v(2)), 0);
        let rep = simulate(&inst, &t).unwrap();
        assert_eq!(rep.cost.transfers, 2);
        assert_eq!(rep.cost.computes, 3);
        let per_proc = t.proc_stats();
        assert_eq!(per_proc[0].transfers(), 1);
        assert_eq!(per_proc[1].transfers(), 1);
        assert_eq!(per_proc[0].computes, 2);
        assert_eq!(per_proc[1].computes, 1);
        assert_eq!(rep.final_state.owner_of(v(1)), Some(0));
        assert_eq!(rep.final_state.red_count_on(0), 3);
        assert_eq!(rep.final_state.red_count_on(1), 0);
    }

    #[test]
    fn compute_needs_inputs_red_on_the_computing_processor() {
        let inst = join(CostModel::base(), 3).with_procs(2);
        let mut t = Pebbling::new();
        t.push_on(Move::Compute(v(0)), 0);
        t.push_on(Move::Compute(v(1)), 1);
        // v1 is red on processor 1, not 0: the compute must be rejected
        t.push_on(Move::Compute(v(2)), 0);
        let err = simulate(&inst, &t).unwrap_err();
        assert_eq!(err.step, 2);
        assert_eq!(
            err.error,
            PebblingError::InputNotRed {
                node: v(2),
                input: v(1)
            }
        );
    }

    #[test]
    fn store_requires_the_executing_processors_own_red() {
        let inst = join(CostModel::base(), 3).with_procs(2);
        let mut t = Pebbling::new();
        t.push_on(Move::Compute(v(0)), 0);
        t.push_on(Move::Store(v(0)), 1); // not processor 1's pebble
        let err = simulate(&inst, &t).unwrap_err();
        assert_eq!(err.step, 1);
        assert_eq!(err.error, PebblingError::StoreNotRed { node: v(0) });
    }

    #[test]
    fn red_budget_is_private_per_processor() {
        // R = 1: each processor holds one value, so p = 2 holds two
        let inst = join(CostModel::base(), 1).with_procs(2);
        let mut t = Pebbling::new();
        t.push_on(Move::Compute(v(0)), 0);
        t.push_on(Move::Compute(v(1)), 1);
        let rep = simulate_prefix(&inst, &t).unwrap();
        assert_eq!(rep.peak_red, 2, "two private memories of one slot each");
        assert_eq!(rep.final_state.red_count(), 2);
        // but a second value on processor 0 exceeds its own R
        let mut t2 = Pebbling::new();
        t2.push_on(Move::Compute(v(0)), 0);
        t2.push_on(Move::Compute(v(1)), 0);
        let err = simulate_prefix(&inst, &t2).unwrap_err();
        assert_eq!(
            err.error,
            PebblingError::RedLimitExceeded {
                node: v(1),
                limit: 1
            }
        );
    }

    #[test]
    fn proc_out_of_range_rejected() {
        let inst = join(CostModel::base(), 3).with_procs(2);
        let mut s = State::initial(&inst);
        assert_eq!(
            s.apply_on(Move::Compute(v(0)), 2, &inst).unwrap_err(),
            PebblingError::ProcOutOfRange {
                node: v(0),
                proc: 2,
                procs: 2
            }
        );
        // and a tagged move on a classic instance trips the same guard
        let classic = join(CostModel::base(), 3);
        let mut s = State::initial(&classic);
        assert_eq!(
            s.apply_on(Move::Compute(v(0)), 1, &classic).unwrap_err(),
            PebblingError::ProcOutOfRange {
                node: v(0),
                proc: 1,
                procs: 1
            }
        );
    }

    #[test]
    fn single_pebble_globally_no_duplicate_computes() {
        let inst = join(CostModel::base(), 3).with_procs(2);
        let mut s = State::initial(&inst);
        s.apply_on(Move::Compute(v(0)), 0, &inst).unwrap();
        // already red on processor 0
        assert_eq!(
            s.apply_on(Move::Compute(v(0)), 1, &inst).unwrap_err(),
            PebblingError::ComputeOnRed { node: v(0) }
        );
    }

    #[test]
    fn oneshot_computed_set_is_global() {
        let inst = join(CostModel::oneshot(), 3).with_procs(2);
        let mut s = State::initial(&inst);
        s.apply_on(Move::Compute(v(0)), 0, &inst).unwrap();
        s.apply_on(Move::Delete(v(0)), 0, &inst).unwrap();
        // recompute on another processor
        assert_eq!(
            s.apply_on(Move::Compute(v(0)), 1, &inst).unwrap_err(),
            PebblingError::RecomputeForbidden { node: v(0) }
        );
    }

    #[test]
    fn delete_only_touches_own_red_or_shared_blue() {
        let inst = join(CostModel::base(), 3).with_procs(2);
        let mut s = State::initial(&inst);
        s.apply_on(Move::Compute(v(0)), 0, &inst).unwrap();
        // red on 0, not blue: nothing to delete on 1
        assert_eq!(
            s.apply_on(Move::Delete(v(0)), 1, &inst).unwrap_err(),
            PebblingError::DeleteEmpty { node: v(0) }
        );
        // the owner may delete its own red pebble, which frees its slot;
        // the configuration no longer records who held it
        let mut own = s.clone();
        own.apply_on(Move::Delete(v(0)), 0, &inst).unwrap();
        assert_eq!((own.red_count(), own.red_count_on(0)), (0, 0));
        let mut other = State::initial(&inst);
        other.apply_on(Move::Compute(v(0)), 1, &inst).unwrap();
        other.apply_on(Move::Delete(v(0)), 1, &inst).unwrap();
        assert_eq!(own, other);
        // blue is shared: either processor may delete it
        s.apply_on(Move::Store(v(0)), 0, &inst).unwrap();
        s.apply_on(Move::Delete(v(0)), 1, &inst).unwrap();
        assert!(!s.is_pebbled(v(0)));
    }

    #[test]
    fn makespan_drops_communication_rises_with_p() {
        // two 2-chains feeding a common sink: 0→1→4, 2→3→4. With unit
        // compute weight the serial makespan is 5; splitting the chains
        // across two processors cuts the max own work to 4 at the price
        // of shipping one value through shared memory (2 transfers).
        let mut b = DagBuilder::new(5);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        b.add_edge(1, 4);
        b.add_edge(3, 4);
        let dag = b.build().unwrap();
        let weights = |p| MppDim {
            p,
            comm: Ratio::new(1, 1),
            comp: Ratio::new(1, 1),
        };
        let makespan = |inst: &Instance, t: &Pebbling| {
            t.proc_stats()
                .iter()
                .map(|s| inst.scaled_cost(&s.cost()))
                .max()
                .unwrap()
        };
        let base = Instance::new(dag, 3, CostModel::base());
        let serial = base.with_mpp(weights(1));
        let mut t1 = Pebbling::new();
        t1.compute(v(0));
        t1.compute(v(1));
        t1.delete(v(0));
        t1.compute(v(2));
        t1.compute(v(3));
        t1.delete(v(2));
        t1.compute(v(4));
        let c1 = simulate(&serial, &t1).unwrap().cost;
        // parallel: one chain per processor, then ship v3 to processor 0
        let par = base.with_mpp(weights(2));
        let mut t2 = Pebbling::new();
        t2.push_on(Move::Compute(v(0)), 0);
        t2.push_on(Move::Compute(v(1)), 0);
        t2.push_on(Move::Delete(v(0)), 0);
        t2.push_on(Move::Compute(v(2)), 1);
        t2.push_on(Move::Compute(v(3)), 1);
        t2.push_on(Move::Store(v(3)), 1);
        t2.push_on(Move::Load(v(3)), 0);
        t2.push_on(Move::Compute(v(4)), 0);
        let c2 = simulate(&par, &t2).unwrap().cost;
        assert_eq!(c1.transfers, 0);
        assert_eq!(c2.transfers, 2, "communication rises with p");
        assert_eq!(makespan(&serial, &t1), 5);
        assert_eq!(makespan(&par, &t2), 4, "makespan drops with p");
        let p1 = t2.proc_stats()[1];
        assert!(p1.transfers() == 1 && p1.computes == 2);
    }

    #[test]
    fn initially_blue_and_require_blue_conventions_hold() {
        let inst = join(CostModel::base(), 3)
            .with_source_convention(SourceConvention::InitiallyBlue)
            .with_sink_convention(SinkConvention::RequireBlue)
            .with_procs(2);
        let mut t = Pebbling::new();
        t.push_on(Move::Load(v(0)), 1);
        t.push_on(Move::Load(v(1)), 1);
        t.push_on(Move::Compute(v(2)), 1);
        // sink red on proc 1 does not satisfy RequireBlue
        let err = simulate(&inst, &t).unwrap_err();
        assert_eq!(err.error, PebblingError::Incomplete { sink: v(2) });
        t.push_on(Move::Store(v(2)), 1);
        let rep = simulate(&inst, &t).unwrap();
        assert_eq!(rep.cost.transfers, 3);
        // computing a locked source is still rejected, on any processor
        let mut s = State::initial(&inst);
        assert_eq!(
            s.apply_on(Move::Compute(v(0)), 1, &inst).unwrap_err(),
            PebblingError::SourceNotComputable { node: v(0) }
        );
    }
}
