//! Property tests for the game engine: state invariants under random
//! legal move sequences, cost accounting consistency, and analysis
//! agreement.

mod common;

use common::{arb_dag, arb_model, legal_walk};
use proptest::prelude::*;
use rbp_core::{analysis, engine, CostModel, Instance, ModelKind, Move, Pebbling, State};
use rbp_graph::{DagBuilder, NodeId};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Invariants under arbitrary legal play on p ∈ {1, 2, 4}
    /// processors: red/blue disjoint, every processor within its own
    /// red budget, the per-processor counts adding up to the total,
    /// pebbles only on computed nodes.
    #[test]
    fn invariants_hold_under_random_play(
        dag in arb_dag(8),
        model in arb_model(),
        p_idx in 0..3usize,
        seed in any::<u64>(),
    ) {
        let r = dag.max_indegree() + 1;
        let p = [1u16, 2, 4][p_idx];
        let inst = Instance::new(dag, r, model).with_procs(p.into());
        let (state, trace) = legal_walk(&inst, 60, seed);
        // disjoint pebbles
        prop_assert!(state.red_set().is_disjoint(state.blue_set()));
        // each processor's budget respected, and the owners tally
        prop_assert_eq!(state.procs(), p as usize);
        let mut owned = vec![0usize; p as usize];
        for v in state.red_set().iter() {
            owned[state.owner_of(NodeId::new(v)).unwrap() as usize] += 1;
        }
        for proc in 0..p {
            prop_assert!(state.red_count_on(proc) <= r);
            prop_assert_eq!(state.red_count_on(proc), owned[proc as usize]);
        }
        prop_assert_eq!(state.red_count(), state.red_set().len());
        prop_assert_eq!(owned.iter().sum::<usize>(), state.red_count());
        // pebbles imply computed
        for v in state.red_set().iter() {
            prop_assert!(state.is_computed(NodeId::new(v)));
        }
        for v in state.blue_set().iter() {
            prop_assert!(state.is_computed(NodeId::new(v)));
        }
        // the trace replays to the same state and cost
        let rep = engine::simulate_prefix(&inst, &trace).unwrap();
        prop_assert_eq!(rep.final_state, state);
        // cost accounting matches trace statistics
        let stats = trace.stats();
        prop_assert_eq!(rep.cost.transfers, stats.transfers());
        prop_assert_eq!(rep.cost.computes, stats.computes);
    }

    /// The analysis module agrees with the engine on peak occupancy and
    /// per-node totals, on p ∈ {1, 2, 4} processors.
    #[test]
    fn analysis_matches_engine(
        dag in arb_dag(8),
        model in arb_model(),
        p_idx in 0..3usize,
        seed in any::<u64>(),
    ) {
        let r = dag.max_indegree() + 1;
        let p = [1u32, 2, 4][p_idx];
        let inst = Instance::new(dag, r, model).with_procs(p);
        let (_, trace) = legal_walk(&inst, 40, seed);
        let rep = engine::simulate_prefix(&inst, &trace).unwrap();
        let a = analysis::analyze(&inst, &trace);
        prop_assert_eq!(a.peak_red, rep.peak_red);
        prop_assert_eq!(a.len, trace.len());
        let loads: u32 = a.traffic.iter().map(|t| t.loads).sum();
        let stores: u32 = a.traffic.iter().map(|t| t.stores).sum();
        prop_assert_eq!((loads + stores) as u64, rep.cost.transfers);
    }

    /// Oneshot never computes a node twice even under adversarial play.
    #[test]
    fn oneshot_single_compute_invariant(dag in arb_dag(8), seed in any::<u64>()) {
        let r = dag.max_indegree() + 1;
        let inst = Instance::new(dag, r, CostModel::oneshot());
        let (_, trace) = legal_walk(&inst, 80, seed);
        let mut counts = std::collections::HashMap::new();
        for mv in trace.moves() {
            if let Move::Compute(v) = mv {
                *counts.entry(*v).or_insert(0u32) += 1;
            }
        }
        for (_, c) in counts {
            prop_assert_eq!(c, 1);
        }
    }

    /// NoDel never shrinks the pebbled set.
    #[test]
    fn nodel_pebbles_are_monotone(dag in arb_dag(8), seed in any::<u64>()) {
        let r = dag.max_indegree() + 1;
        let inst = Instance::new(dag.clone(), r, CostModel::nodel());
        let mut state = State::initial(&inst);
        let (_, trace) = legal_walk(&inst, 50, seed);
        let mut prev = 0usize;
        for &mv in trace.moves() {
            state.apply(mv, &inst).unwrap();
            let pebbled = state.red_set().len() + state.blue_set().len();
            prop_assert!(pebbled >= prev);
            prev = pebbled;
        }
    }

    /// Scaled-cost comparison never disagrees with exact rational totals.
    #[test]
    fn scaled_cost_orders_like_rationals(
        t1 in 0u64..500, c1 in 0u64..500,
        t2 in 0u64..500, c2 in 0u64..500,
    ) {
        let eps = rbp_core::Ratio::new(1, 100);
        let a = rbp_core::Cost { transfers: t1, computes: c1 };
        let b = rbp_core::Cost { transfers: t2, computes: c2 };
        let by_scaled = a.scaled(eps).cmp(&b.scaled(eps));
        let by_total = a.total(eps).cmp(&b.total(eps));
        prop_assert_eq!(by_scaled, by_total);
    }
}

/// A fixed-model check that every error variant is reachable through the
/// public API (failure-injection coverage).
#[test]
fn all_error_variants_reachable() {
    use rbp_core::PebblingError as E;
    let mut b = DagBuilder::new(2);
    b.add_edge(0, 1);
    let dag = b.build().unwrap();
    let v0 = NodeId::new(0);
    let v1 = NodeId::new(1);

    let oneshot = Instance::new(dag.clone(), 2, CostModel::oneshot());
    let mut s = State::initial(&oneshot);
    assert!(matches!(
        s.apply(Move::Load(v0), &oneshot),
        Err(E::LoadNotBlue { .. })
    ));
    assert!(matches!(
        s.apply(Move::Store(v0), &oneshot),
        Err(E::StoreNotRed { .. })
    ));
    assert!(matches!(
        s.apply(Move::Delete(v0), &oneshot),
        Err(E::DeleteEmpty { .. })
    ));
    assert!(matches!(
        s.apply(Move::Compute(v1), &oneshot),
        Err(E::InputNotRed { .. })
    ));
    s.apply(Move::Compute(v0), &oneshot).unwrap();
    assert!(matches!(
        s.apply(Move::Compute(v0), &oneshot),
        Err(E::ComputeOnRed { .. })
    ));
    s.apply(Move::Delete(v0), &oneshot).unwrap();
    assert!(matches!(
        s.apply(Move::Compute(v0), &oneshot),
        Err(E::RecomputeForbidden { .. })
    ));

    let tight = Instance::new(dag.clone(), 1, CostModel::base());
    let mut s2 = State::initial(&tight);
    s2.apply(Move::Compute(v0), &tight).unwrap();
    assert!(matches!(
        s2.apply(Move::Compute(v1), &tight),
        Err(E::RedLimitExceeded { .. })
    ));

    let nodel = Instance::new(dag.clone(), 2, CostModel::nodel());
    let mut s3 = State::initial(&nodel);
    s3.apply(Move::Compute(v0), &nodel).unwrap();
    assert!(matches!(
        s3.apply(Move::Delete(v0), &nodel),
        Err(E::DeleteForbidden { .. })
    ));

    let blue_start = Instance::new(dag, 2, CostModel::base())
        .with_source_convention(rbp_core::SourceConvention::InitiallyBlue);
    let mut s4 = State::initial(&blue_start);
    assert!(matches!(
        s4.apply(Move::Compute(v0), &blue_start),
        Err(E::SourceNotComputable { .. })
    ));

    // Incomplete + Infeasible via the engine/bounds layer
    let oneshot2 = Instance::new(
        {
            let mut b = DagBuilder::new(2);
            b.add_edge(0, 1);
            b.build().unwrap()
        },
        2,
        CostModel::oneshot(),
    );
    let err = engine::simulate(&oneshot2, &Pebbling::new()).unwrap_err();
    assert!(matches!(err.error, E::Incomplete { .. }));
    let infeasible = oneshot2.with_red_limit(1);
    assert!(matches!(
        rbp_core::bounds::check_feasible(&infeasible),
        Err(E::Infeasible { .. })
    ));
    let _ = ModelKind::ALL;
}
