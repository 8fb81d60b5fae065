//! Structural bounds from Section 3 of the paper, each backed by a
//! constructive witness where one exists.

use crate::cost::{Cost, Ratio};
use crate::error::PebblingError;
use crate::instance::{Instance, SourceConvention};
use crate::model::ModelKind;
use crate::trace::Pebbling;
use rbp_graph::topological_order;

pub mod fractional;

/// Checks feasibility: a pebbling exists iff R ≥ Δ+1 (Section 3).
pub fn check_feasible(instance: &Instance) -> Result<(), PebblingError> {
    if instance.is_feasible() {
        Ok(())
    } else {
        Err(PebblingError::Infeasible {
            required: instance.min_feasible_r(),
            available: instance.red_limit(),
        })
    }
}

/// The paper's universal upper bound on optimal cost: (2Δ+1)·n transfers
/// (plus ε·n computes in compcost). Valid for every feasible instance.
pub fn universal_upper_bound(instance: &Instance) -> Cost {
    let n = instance.dag().n() as u64;
    let delta = instance.dag().max_indegree() as u64;
    Cost {
        transfers: (2 * delta + 1) * n,
        computes: n,
    }
}

/// A trivial lower bound on the optimal cost per model (Section 4):
/// 0 for base/oneshot, `computed − p·R` transfers for nodel (every node
/// computed holds a red pebble that can only leave via a store, and at
/// most R may remain red *per processor* at the end — `p·R` in total,
/// which is just `R` for classic instances), and ε·`computed` for
/// compcost (a compute-count bound, valid for any p).
///
/// `computed` is the number of nodes that must receive a compute: all n
/// under `FreeCompute`, but under `InitiallyBlue` the sources start
/// blue and are never computed, so they occupy no red pebble and cost
/// no compute — counting them would overclaim (the bound would exceed
/// the true optimum on DAGs of isolated initially-blue source-sinks).
pub fn trivial_lower_bound(instance: &Instance) -> Cost {
    let n = instance.dag().n() as u64;
    // Under InitiallyBlue, sources are never computed.
    let computed_nodes = match instance.source_convention() {
        SourceConvention::FreeCompute => n,
        SourceConvention::InitiallyBlue => n - instance.dag().sources().len() as u64,
    };
    match instance.model().kind() {
        ModelKind::Base | ModelKind::Oneshot => Cost::ZERO,
        ModelKind::NoDel => {
            let red_capacity = instance.red_limit() as u64 * instance.procs() as u64;
            Cost::transfers(computed_nodes.saturating_sub(red_capacity))
        }
        ModelKind::CompCost => Cost {
            transfers: 0,
            computes: computed_nodes,
        },
    }
}

/// Lemma 1: in oneshot/nodel/compcost every *optimal* pebbling has at most
/// O(Δ·n) moves. This returns the explicit constant-bearing bound our
/// tests assert against:
///
/// - transfers ≤ (2Δ+1)·n (else the pebbling beats the universal upper
///   bound by being worse than it — impossible for an optimum);
/// - oneshot: ≤ n computes and ≤ n deletes;
/// - nodel: ≤ n + stores ≤ n + (2Δ+1)·n computes, 0 deletes;
/// - compcost: computes+deletes ≤ (2/ε)·(2Δ+1+ε)·n.
///
/// Returns `None` for base, where optimal pebblings may be
/// superpolynomial (the problem is PSPACE-complete \[6\]).
pub fn lemma1_length_bound(instance: &Instance) -> Option<u64> {
    let n = instance.dag().n() as u64;
    let delta = instance.dag().max_indegree() as u64;
    let transfers = (2 * delta + 1) * n;
    match instance.model().kind() {
        ModelKind::Base => None,
        ModelKind::Oneshot => Some(transfers + 2 * n),
        ModelKind::NoDel => Some(transfers + n + transfers),
        ModelKind::CompCost => {
            let eps = instance.model().epsilon();
            // p ≤ (2/ε)(2Δ+1+ε)n  ⇒  p ≤ 2·(den/num)·(2Δ+1)·n + 2n
            let p = 2 * (eps.den() / eps.num().max(1)) * (2 * delta + 1) * n + 2 * n;
            Some(transfers + p)
        }
    }
}

/// The constructive strategy behind the (2Δ+1)·n bound (Section 3): walk a
/// topological order; for each node load its inputs, compute it, then
/// store everything back to slow memory. Legal in **all four models**
/// (single compute per node, no deletions) whenever R ≥ Δ+1.
///
/// Exact cost: `2m + n` transfers and `n` computes, where `m` is the edge
/// count — which is ≤ (2Δ+1)·n.
pub fn canonical_pebbling(instance: &Instance) -> Result<Pebbling, PebblingError> {
    check_feasible(instance)?;
    let dag = instance.dag();
    let initially_blue = instance.source_convention() == SourceConvention::InitiallyBlue;
    let mut trace = Pebbling::with_capacity(2 * dag.num_edges() + 2 * dag.n());
    for v in topological_order(dag) {
        if initially_blue && dag.is_source(v) {
            // sources hold blue pebbles already; they are only ever
            // touched as inputs below
            continue;
        }
        // all inputs are blue (stored in a previous round): load them
        for &u in dag.preds(v) {
            trace.load(u);
        }
        trace.compute(v);
        // store the inputs and the fresh value; the board is left all-blue
        for &u in dag.preds(v) {
            trace.store(u);
        }
        trace.store(v);
    }
    Ok(trace)
}

/// The exact cost of [`canonical_pebbling`]: 2m + n transfers, n computes
/// (with source adjustments under `InitiallyBlue`).
pub fn canonical_cost(instance: &Instance) -> Cost {
    let dag = instance.dag();
    let (m, n) = (dag.num_edges() as u64, dag.n() as u64);
    match instance.source_convention() {
        SourceConvention::FreeCompute => Cost {
            transfers: 2 * m + n,
            computes: n,
        },
        SourceConvention::InitiallyBlue => {
            let srcs = dag.sources().len() as u64;
            Cost {
                transfers: 2 * m + n - srcs,
                computes: n - srcs,
            }
        }
    }
}

/// The maximal per-step improvement from an extra red pebble (Section 5):
/// opt(R−1) ≤ opt(R) + 2n in the oneshot model. Returns the additive slack
/// `2n` used by tests and the tradeoff experiment.
pub fn max_tradeoff_slope(instance: &Instance) -> u64 {
    2 * instance.dag().n() as u64
}

/// The best structural lower bound the crate knows how to certify: the
/// [`fractional`] relaxation's cost.
///
/// It dominates [`trivial_lower_bound`] component-wise in every model,
/// so no maximum with it is taken. Its compute term counts every forced
/// compute: that equals trivial's in compcost and is at least trivial's
/// 0 elsewhere. Its transfer term in nodel is
/// `L + max(S, C + L − p·R) ≥ max(0, C − p·R)`, trivial's transfer term
/// there, and trivial's transfer term is 0 in the other models.
///
/// This is the single entry point solvers and the verify harness use to
/// report `lower_bound`s; prefer it over calling either bound directly.
pub fn best_lower_bound(instance: &Instance) -> Cost {
    fractional::bound(instance).cost
}

/// Minimal Ratio-valued optimum bracket `[lower, upper]` for quick sanity
/// reporting (Table 2's first column). The lower end is
/// [`best_lower_bound`], so it tightens automatically as the bound
/// engine improves.
pub fn optimum_bracket(instance: &Instance) -> (Ratio, Ratio) {
    let eps = instance.model().epsilon();
    (
        best_lower_bound(instance).total(eps),
        universal_upper_bound(instance).total(eps),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use crate::model::CostModel;
    use rbp_graph::{generate, DagBuilder};

    #[test]
    fn canonical_pebbling_is_legal_in_all_models_and_costs_2m_plus_n() {
        let mut rng = rand::thread_rng();
        let dag = generate::layered(4, 4, 3, &mut rng);
        let (n, m) = (dag.n() as u64, dag.num_edges() as u64);
        for kind in ModelKind::ALL {
            let inst = Instance::new(
                dag.clone(),
                dag.max_indegree() + 1,
                CostModel::of_kind(kind),
            );
            let trace = canonical_pebbling(&inst).unwrap();
            let rep = simulate(&inst, &trace).expect("canonical pebbling must be legal");
            assert_eq!(rep.cost.transfers, 2 * m + n, "model {kind}");
            assert_eq!(rep.cost.computes, n);
            assert_eq!(rep.cost, canonical_cost(&inst));
            assert!(rep.peak_red <= inst.red_limit());
        }
    }

    #[test]
    fn canonical_cost_below_universal_upper_bound() {
        let mut rng = rand::thread_rng();
        for _ in 0..10 {
            let dag = generate::gnp_dag(20, 0.3, 4, &mut rng);
            let inst = Instance::new(dag, 5, CostModel::oneshot());
            let c = canonical_cost(&inst);
            let ub = universal_upper_bound(&inst);
            assert!(c.transfers <= ub.transfers);
        }
    }

    #[test]
    fn infeasible_instance_detected() {
        let mut b = DagBuilder::new(4);
        for i in 0..3 {
            b.add_edge(i, 3);
        }
        let inst = Instance::new(b.build().unwrap(), 3, CostModel::base());
        assert_eq!(
            check_feasible(&inst).unwrap_err(),
            PebblingError::Infeasible {
                required: 4,
                available: 3
            }
        );
        assert!(canonical_pebbling(&inst).is_err());
    }

    #[test]
    fn lower_bounds_per_model() {
        let dag = generate::chain(10);
        let r = 2;
        assert_eq!(
            trivial_lower_bound(&Instance::new(dag.clone(), r, CostModel::base())),
            Cost::ZERO
        );
        assert_eq!(
            trivial_lower_bound(&Instance::new(dag.clone(), r, CostModel::nodel())).transfers,
            8
        );
        assert_eq!(
            trivial_lower_bound(&Instance::new(dag.clone(), r, CostModel::compcost())).computes,
            10
        );
    }

    #[test]
    fn nodel_bound_sound_under_initially_blue_sources() {
        // Minimized fuzz-soak counterexample: two isolated source-sinks
        // start blue under InitiallyBlue, so the empty pebbling already
        // satisfies RequireBlue at cost 0 — the nodel bound must not
        // count nodes that are never computed.
        use crate::instance::SinkConvention;
        use crate::trace::Pebbling;
        let dag = DagBuilder::new(2).build().unwrap();
        let inst = Instance::new(dag, 1, CostModel::nodel())
            .with_source_convention(SourceConvention::InitiallyBlue)
            .with_sink_convention(SinkConvention::RequireBlue);
        assert_eq!(trivial_lower_bound(&inst), Cost::ZERO);
        let rep = simulate(&inst, &Pebbling::new()).expect("empty pebbling is complete");
        assert_eq!(rep.cost, Cost::ZERO);
        // and a chain under InitiallyBlue: only n − 1 nodes are computed
        let chain = generate::chain(10);
        let inst = Instance::new(chain, 2, CostModel::nodel())
            .with_source_convention(SourceConvention::InitiallyBlue);
        assert_eq!(trivial_lower_bound(&inst).transfers, 7);
    }

    #[test]
    fn nodel_bound_uses_total_red_capacity_under_mpp() {
        // 10-chain, R = 2: classic bound is 8 stores, but with p = 4
        // processors the total red capacity is 8, so only 2 stores are
        // forced — the classic figure would overclaim and break
        // upper_bound_quality on multiprocessor optima.
        let dag = generate::chain(10);
        let inst = Instance::new(dag, 2, CostModel::nodel());
        assert_eq!(trivial_lower_bound(&inst).transfers, 8);
        assert_eq!(trivial_lower_bound(&inst.with_procs(4)).transfers, 2);
        assert_eq!(trivial_lower_bound(&inst.with_procs(8)).transfers, 0);
    }

    #[test]
    fn lemma1_bound_exists_except_base() {
        let dag = generate::chain(5);
        for kind in ModelKind::ALL {
            let inst = Instance::new(dag.clone(), 2, CostModel::of_kind(kind));
            let bound = lemma1_length_bound(&inst);
            if kind == ModelKind::Base {
                assert!(bound.is_none());
            } else {
                let b = bound.unwrap();
                assert!(b >= dag.n() as u64);
            }
        }
    }

    #[test]
    fn canonical_pebbling_respects_initially_blue_sources() {
        let dag = generate::chain(6);
        let inst = Instance::new(dag, 2, CostModel::oneshot())
            .with_source_convention(SourceConvention::InitiallyBlue);
        let trace = canonical_pebbling(&inst).unwrap();
        let rep = simulate(&inst, &trace).unwrap();
        assert_eq!(rep.cost, canonical_cost(&inst));
    }

    #[test]
    fn optimum_bracket_is_ordered() {
        let dag = generate::chain(8);
        for kind in ModelKind::ALL {
            let inst = Instance::new(dag.clone(), 2, CostModel::of_kind(kind));
            let (lo, hi) = optimum_bracket(&inst);
            assert!(lo <= hi, "bracket inverted for {kind}");
        }
    }

    #[test]
    fn tradeoff_slope_is_two_n() {
        let dag = generate::chain(12);
        let inst = Instance::new(dag, 3, CostModel::oneshot());
        assert_eq!(max_tradeoff_slope(&inst), 24);
    }
}
