//! The greedy-adversarial grid of Theorem 4 (Figure 8).
//!
//! Input groups sit on a triangular grid: positions (i, j) with
//! 1 ≤ i, j and i+j ≤ ℓ+1. All groups on a diagonal (i+j = d) share k′
//! *common* source nodes. Each group has one target t(i,j), which is also
//! an input of the group directly above, (i, j+1) — forcing bottom-up
//! visits within a column. Small *misguidance* intersections link the top
//! group of column j with the bottom group of column j−1, and an entry
//! group S0 (with one target inside every bottom group, plus an
//! intersection with the bottom of column ℓ) funnels any pebbling through
//! S0 first and nudges greedy toward column ℓ.
//!
//! The greedy rules of Section 8 then sweep columns right-to-left,
//! bottom-to-top, paying ~2k′ transfers per group for the commons —
//! Θ(k′·ℓ²) total — while the optimal diagonal order computes each
//! diagonal's commons once, keeps them red through the diagonal pass, and
//! pays only for the O(1) extra nodes per group: Θ((k−k′)·ℓ²). With
//! k−k′ = O(1) the greedy/optimum ratio is Θ(k′), i.e. Θ̃(n) for the
//! paper's parameter choice.

use rbp_core::Instance;
use rbp_graph::{Dag, DagBuilder, NodeId};
use rbp_solvers::{GroupSpec, GroupedDag};

/// Parameters of the grid construction.
#[derive(Clone, Copy, Debug)]
pub struct GridConfig {
    /// Grid extent ℓ (columns 1..=ℓ; column i has ℓ+1−i groups).
    pub ell: usize,
    /// Common nodes per diagonal (k′). The greedy/optimum gap scales
    /// with this.
    pub k_prime: usize,
    /// Misguidance-intersection size (a small constant; ≥ 1).
    pub mis: usize,
}

impl GridConfig {
    /// The oneshot recipe from Section 8: large k′, constant extras.
    pub fn oneshot_style(ell: usize, k_prime: usize) -> Self {
        GridConfig {
            ell,
            k_prime,
            mis: 2,
        }
    }

    /// The nodel/compcost recipe from Appendix A.4: constant k, large ℓ.
    pub fn constant_k(ell: usize) -> Self {
        GridConfig {
            ell,
            k_prime: 4,
            mis: 2,
        }
    }
}

/// The built grid. Group 0 is S0; grid groups follow in column-major
/// order (column ℓ first matches nothing — they are stored by position,
/// use [`GreedyGrid::group_at`]).
#[derive(Clone, Debug)]
pub struct GreedyGrid {
    /// The DAG.
    pub dag: Dag,
    /// The visit-order view (shares group indices with this struct).
    pub grouped: GroupedDag,
    /// Uniform group size k = k′ + 2·mis + 1.
    pub k: usize,
    /// Red budget for the construction: k + 1.
    pub r: usize,
    /// Grid extent.
    pub ell: usize,
    /// Common nodes per diagonal.
    pub k_prime: usize,
    /// `group_id[(i-1, j-1)]`, dense by position.
    ids: Vec<Vec<usize>>,
    /// target node → owning group id.
    target_group: Vec<(NodeId, usize)>,
}

/// Builds the grid. R must be `grid.r` when instantiating.
pub fn build(cfg: GridConfig) -> GreedyGrid {
    assert!(cfg.ell >= 2 && cfg.k_prime >= 1 && cfg.mis >= 1);
    let ell = cfg.ell;
    let k = cfg.k_prime + 2 * cfg.mis + 1;
    let mut b = DagBuilder::new(0);

    // common nodes per diagonal d = i+j ∈ [2, ℓ+1]
    let commons: Vec<Vec<NodeId>> = (2..=ell + 1)
        .map(|d| {
            (0..cfg.k_prime)
                .map(|x| b.add_labeled_node(format!("c{d}_{x}")))
                .collect()
        })
        .collect();
    let common = |d: usize| -> &Vec<NodeId> { &commons[d - 2] };

    // misguidance sets M_j (top of column j ∩ bottom of column j−1)
    let mis_sets: Vec<Vec<NodeId>> = (2..=ell)
        .map(|j| {
            (0..cfg.mis)
                .map(|x| b.add_labeled_node(format!("m{j}_{x}")))
                .collect()
        })
        .collect();
    let mis_of = |j: usize| -> &Vec<NodeId> { &mis_sets[j - 2] };

    // S0: own inputs + intersection shared with group (ℓ, 1)
    let s0_shared: Vec<NodeId> = (0..cfg.mis)
        .map(|x| b.add_labeled_node(format!("s0x{x}")))
        .collect();
    let s0_own: Vec<NodeId> = (0..k - cfg.mis)
        .map(|x| b.add_labeled_node(format!("s0_{x}")))
        .collect();
    let s0_targets: Vec<NodeId> = (1..=ell)
        .map(|i| b.add_labeled_node(format!("st{i}")))
        .collect();

    // grid targets
    let mut target: Vec<Vec<NodeId>> = Vec::new();
    for i in 1..=ell {
        let mut col = Vec::new();
        for j in 1..=(ell + 1 - i) {
            col.push(b.add_labeled_node(format!("t{i}_{j}")));
        }
        target.push(col);
    }
    let t_of = |i: usize, j: usize| target[i - 1][j - 1];

    // assemble groups
    let mut groups: Vec<GroupSpec> = Vec::new();
    let mut ids: Vec<Vec<usize>> = vec![Vec::new(); ell];
    let mut target_group: Vec<(NodeId, usize)> = Vec::new();

    // group 0: S0
    let mut s0_inputs = s0_shared.clone();
    s0_inputs.extend_from_slice(&s0_own);
    debug_assert_eq!(s0_inputs.len(), k);
    groups.push(GroupSpec {
        inputs: s0_inputs,
        targets: s0_targets.clone(),
    });
    for &t in &s0_targets {
        target_group.push((t, 0));
    }

    for i in 1..=ell {
        for j in 1..=(ell + 1 - i) {
            let gid = groups.len();
            ids[i - 1].push(gid);
            let mut inputs: Vec<NodeId> = common(i + j).clone();
            if j == 1 {
                inputs.push(s0_targets[i - 1]);
            } else {
                inputs.push(t_of(i, j - 1));
            }
            // bottom of column i shares with top of column i+1
            if j == 1 && i < ell {
                inputs.extend_from_slice(mis_of(i + 1));
            }
            // top of column i shares with bottom of column i−1
            if j == ell + 1 - i && i >= 2 {
                inputs.extend_from_slice(mis_of(i));
            }
            // bottom of column ℓ intersects S0
            if i == ell && j == 1 {
                inputs.extend_from_slice(&s0_shared);
            }
            // pad with distinct fillers to exactly k
            while inputs.len() < k {
                inputs.push(b.add_labeled_node(format!("f{i}_{j}_{}", inputs.len())));
            }
            assert_eq!(inputs.len(), k, "group ({i},{j}) overfull");
            let tgt = t_of(i, j);
            for &u in &inputs {
                b.add_edge_ids(u, tgt);
            }
            groups.push(GroupSpec {
                inputs,
                targets: vec![tgt],
            });
            target_group.push((tgt, gid));
        }
    }
    // S0's targets need edges from S0's inputs
    for &t in &s0_targets {
        for &u in &groups[0].inputs {
            b.add_edge_ids(u, t);
        }
    }

    let dag = b.build().expect("grid is acyclic");
    let grouped = GroupedDag::new(dag.n(), groups);
    GreedyGrid {
        dag,
        grouped,
        k,
        r: k + 1,
        ell,
        k_prime: cfg.k_prime,
        ids,
        target_group,
    }
}

impl GreedyGrid {
    /// The group id at position (i, j), both 1-based.
    pub fn group_at(&self, i: usize, j: usize) -> usize {
        self.ids[i - 1][j - 1]
    }

    /// The S0 entry group id (always 0).
    pub fn s0(&self) -> usize {
        0
    }

    /// The optimal visit order: S0, then each diagonal d = 2..ℓ+1 from
    /// its bottom group (d−1, 1) up to (1, d−1).
    pub fn optimal_order(&self) -> Vec<usize> {
        let mut order = vec![self.s0()];
        for d in 2..=self.ell + 1 {
            for j in 1..d {
                let i = d - j;
                order.push(self.group_at(i, j));
            }
        }
        order
    }

    /// The order the misguided greedy follows: S0, then columns right to
    /// left, each bottom to top.
    pub fn greedy_order(&self) -> Vec<usize> {
        let mut order = vec![self.s0()];
        for i in (1..=self.ell).rev() {
            for j in 1..=(self.ell + 1 - i) {
                order.push(self.group_at(i, j));
            }
        }
        order
    }

    /// Decodes a node-computation order into the sequence of group visits
    /// (first computation of each group's first target).
    pub fn decode_visits(&self, computation_order: &[NodeId]) -> Vec<usize> {
        let mut seen = vec![false; self.grouped.len()];
        let mut visits = Vec::new();
        for &v in computation_order {
            if let Some(&(_, g)) = self.target_group.iter().find(|&&(t, _)| t == v) {
                if !seen[g] {
                    seen[g] = true;
                    visits.push(g);
                }
            }
        }
        visits
    }

    /// Instantiates the construction under a model with its intended
    /// budget R = k+1.
    pub fn instance(&self, model: rbp_core::CostModel) -> Instance {
        Instance::new(self.dag.clone(), self.r, model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbp_core::{engine, CostModel};
    use rbp_solvers::api::{GreedySolver, Solver};
    use rbp_solvers::{best_order, EvictionPolicy, GreedyConfig, SelectionRule};

    fn small() -> GreedyGrid {
        build(GridConfig {
            ell: 3,
            k_prime: 10,
            mis: 2,
        })
    }

    #[test]
    fn structure() {
        let g = small();
        assert_eq!(g.k, 10 + 4 + 1);
        assert_eq!(g.r, g.k + 1);
        // groups: S0 + 3+2+1
        assert_eq!(g.grouped.len(), 7);
        // every target has indegree exactly k
        assert_eq!(g.dag.max_indegree(), g.k);
        // dependency: (1,2) depends on (1,1)
        let above = g.group_at(1, 2);
        let below = g.group_at(1, 1);
        assert!(g.grouped.deps()[above].contains(&below));
        // bottoms depend on S0
        assert!(g.grouped.deps()[g.group_at(2, 1)].contains(&g.s0()));
    }

    #[test]
    fn orders_are_valid() {
        let g = small();
        assert!(g.grouped.is_valid_order(&g.optimal_order()));
        assert!(g.grouped.is_valid_order(&g.greedy_order()));
    }

    #[test]
    fn optimal_order_trace_is_valid_and_cheap() {
        let g = small();
        let inst = g.instance(CostModel::oneshot());
        let opt_trace = g.grouped.emit(&inst, &g.optimal_order()).unwrap();
        let greedy_trace = g.grouped.emit(&inst, &g.greedy_order()).unwrap();
        let opt = engine::simulate(&inst, &opt_trace).unwrap();
        let gre = engine::simulate(&inst, &greedy_trace).unwrap();
        assert!(
            opt.cost.transfers * 2 < gre.cost.transfers,
            "diagonal order ({}) must beat column order ({}) by 2x",
            opt.cost.transfers,
            gre.cost.transfers
        );
    }

    #[test]
    fn node_level_greedy_follows_the_misguided_column_order() {
        let g = small();
        let inst = g.instance(CostModel::oneshot());
        let rep = GreedySolver::with_config(GreedyConfig {
            rule: SelectionRule::MostRedInputs,
            eviction: EvictionPolicy::MinUses,
        })
        .solve_default(&inst)
        .unwrap();
        let visits = g.decode_visits(&rep.trace.first_computations());
        assert_eq!(
            visits,
            g.greedy_order(),
            "greedy did not fall for the misguidance"
        );
    }

    #[test]
    fn greedy_pays_the_commons_toll() {
        // the Theorem-4 gap against the *true* visit-order optimum
        let g = small();
        let inst = g.instance(CostModel::oneshot());
        let rep = GreedySolver::with_config(GreedyConfig {
            rule: SelectionRule::MostRedInputs,
            eviction: EvictionPolicy::MinUses,
        })
        .solve_default(&inst)
        .unwrap();
        let best = best_order(&g.grouped, &inst).unwrap();
        assert!(
            rep.cost.transfers > 2 * best.cost.transfers,
            "greedy {} vs optimum {}",
            rep.cost.transfers,
            best.cost.transfers
        );
    }

    #[test]
    fn diagonal_order_is_near_optimal_among_visit_orders() {
        // The paper's diagonal order is asymptotically optimal: its cost
        // is k'-independent (commons never round-trip) and within an O(1)-
        // per-group term of the exhaustive optimum. On small grids the
        // exhaustive search can shave a few transfers by chaining targets
        // between diagonal passes, so we assert a bounded gap rather than
        // equality.
        let g = small();
        let inst = g.instance(CostModel::oneshot());
        let best = best_order(&g.grouped, &inst).unwrap();
        let opt_trace = g.grouped.emit(&inst, &g.optimal_order()).unwrap();
        let opt = engine::simulate(&inst, &opt_trace).unwrap();
        assert!(best.cost.transfers <= opt.cost.transfers);
        let grid_groups = g.grouped.len() as u64 - 1;
        assert!(
            opt.cost.transfers <= best.cost.transfers + 2 * grid_groups,
            "diagonal ({}) strays more than O(1)/group from optimum ({})",
            opt.cost.transfers,
            best.cost.transfers
        );
        // crucially, the optimum does NOT pay the 2k' commons toll: it is
        // below a single diagonal revisit's worth of common-node traffic
        assert!(best.cost.transfers < 2 * g.k_prime as u64 * grid_groups);
    }

    #[test]
    fn gap_grows_with_k_prime() {
        let ratios: Vec<f64> = [4usize, 12]
            .iter()
            .map(|&kp| {
                let g = build(GridConfig {
                    ell: 3,
                    k_prime: kp,
                    mis: 2,
                });
                let inst = g.instance(CostModel::oneshot());
                let rep = GreedySolver::with_config(GreedyConfig {
                    rule: SelectionRule::MostRedInputs,
                    eviction: EvictionPolicy::MinUses,
                })
                .solve_default(&inst)
                .unwrap();
                let opt_trace = g.grouped.emit(&inst, &g.optimal_order()).unwrap();
                let opt = engine::simulate(&inst, &opt_trace).unwrap();
                rep.cost.transfers as f64 / opt.cost.transfers.max(1) as f64
            })
            .collect();
        assert!(ratios[1] > ratios[0], "ratio must grow with k': {ratios:?}");
    }

    #[test]
    fn all_three_greedy_rules_are_fooled() {
        // Section 8: all the natural greedy rules return solutions far
        // from the optimum. The two red-driven rules follow the exact
        // misguided column order; fewest-blue-inputs wanders differently
        // (under on-demand sources a fresh diagonal has fewer blue inputs
        // than the group above) but still pays the commons toll.
        let g = small();
        let inst = g.instance(CostModel::oneshot());
        let best = best_order(&g.grouped, &inst).unwrap();
        for rule in SelectionRule::ALL {
            let rep = GreedySolver::with_config(GreedyConfig {
                rule,
                eviction: EvictionPolicy::MinUses,
            })
            .solve_default(&inst)
            .unwrap();
            if matches!(
                rule,
                SelectionRule::MostRedInputs | SelectionRule::HighestRedRatio
            ) {
                let visits = g.decode_visits(&rep.trace.first_computations());
                assert_eq!(visits, g.greedy_order(), "rule {rule} escaped the trap");
            }
            assert!(
                rep.cost.transfers > 2 * best.cost.transfers,
                "rule {rule}: {} not >> optimum {}",
                rep.cost.transfers,
                best.cost.transfers
            );
        }
    }

    #[test]
    fn nodel_variant_constant_factor_gap() {
        // Appendix A.4: constant k, the gap is a constant factor > 1
        let g = build(GridConfig::constant_k(4));
        let inst = g.instance(CostModel::nodel());
        let rep = GreedySolver::with_config(GreedyConfig {
            rule: SelectionRule::MostRedInputs,
            eviction: EvictionPolicy::MinUses,
        })
        .solve_default(&inst)
        .unwrap();
        let opt_trace = g.grouped.emit(&inst, &g.optimal_order()).unwrap();
        let opt = engine::simulate(&inst, &opt_trace).unwrap();
        assert!(rep.cost.transfers > opt.cost.transfers);
    }
}
