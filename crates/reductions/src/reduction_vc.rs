//! Theorem 3: no δ < 2 approximation for oneshot pebbling unless Vertex
//! Cover is δ-approximable (Section 7, Figures 6–7, Appendix A.3).
//!
//! For each node `a` of G, two input groups of size k share k−N *common*
//! source nodes: the first-level group V_{a,1} (with N−1 targets
//! t_{a,1,b}, one per other node b) and the second-level group V_{a,2}
//! (with one target t_{a,2}). For each edge (a,b), the target t_{a,1,b}
//! is an *input* of V_{b,2}, forcing V_{a,1} to be visited before
//! V_{b,2}.
//!
//! Visiting V_{a,1} and V_{a,2} consecutively lets the k−N common nodes
//! stay red in between (cost 0); otherwise each takes a blue round trip
//! (cost 2 each). The dependency structure makes the *consecutively
//! visited* node set an independent set of G, so the optimal pebbling
//! cost is 2k′·|VC₀| + O(N²) — the pebbling cost measures the minimum
//! vertex cover, and any δ-approximation for pebbling yields one for
//! Vertex Cover.

use rbp_core::{CostModel, Instance};
use rbp_graph::{BitSet, Graph, NodeId};
use rbp_solvers::{best_order, GroupSpec, GroupedDag, OrderResult, SolveError};

/// The compiled Theorem-3 reduction.
pub struct VcReduction {
    /// The source graph G.
    pub graph: Graph,
    /// Group view: group 2a = V_{a,1}, group 2a+1 = V_{a,2}.
    pub grouped: GroupedDag,
    /// The construction DAG.
    pub dag: rbp_graph::Dag,
    /// Group size k.
    pub k: usize,
    /// Common nodes per node of G: k′ = k − N.
    pub k_prime: usize,
    /// First-level targets: `t1[a][x]` for the x-th other node.
    pub t1: Vec<Vec<NodeId>>,
    /// Second-level targets per node.
    pub t2: Vec<NodeId>,
}

/// Compiles G with group size `k` (paper: k = ω(N²); pick k ≥ N² + N so
/// the O(N²) bookkeeping terms cannot outweigh one 2k′ round trip).
pub fn encode(graph: Graph, k: usize) -> VcReduction {
    let n = graph.n();
    assert!(n >= 2, "reduction needs at least two nodes");
    assert!(k > n, "k must exceed N so that k' = k - N >= 1");
    let k_prime = k - n;
    let mut b = rbp_graph::DagBuilder::new(0);

    // per node: common sources
    let commons: Vec<Vec<NodeId>> = (0..n)
        .map(|a| {
            (0..k_prime)
                .map(|x| b.add_labeled_node(format!("c{a}_{x}")))
                .collect()
        })
        .collect();
    // first-level targets t_{a,1,b}
    let t1: Vec<Vec<NodeId>> = (0..n)
        .map(|a| {
            (0..n)
                .filter(|&x| x != a)
                .map(|x| b.add_labeled_node(format!("t1_{a}_{x}")))
                .collect()
        })
        .collect();
    // maps (a, b) -> the target of V_{a,1} corresponding to b
    let t1_of = |a: usize, bb: usize| -> NodeId {
        let idx = if bb < a { bb } else { bb - 1 };
        t1[a][idx]
    };
    let t2: Vec<NodeId> = (0..n)
        .map(|a| b.add_labeled_node(format!("t2_{a}")))
        .collect();

    let mut groups: Vec<GroupSpec> = Vec::with_capacity(2 * n);
    for a in 0..n {
        // V_{a,1}: commons + fillers to k; targets: all t_{a,1,b}
        let mut in1 = commons[a].clone();
        while in1.len() < k {
            in1.push(b.add_labeled_node(format!("f1_{a}_{}", in1.len())));
        }
        let targets1: Vec<NodeId> = (0..n).filter(|&x| x != a).map(|x| t1_of(a, x)).collect();
        for &t in &targets1 {
            for &u in &in1 {
                b.add_edge_ids(u, t);
            }
        }
        groups.push(GroupSpec {
            inputs: in1,
            targets: targets1,
        });

        // V_{a,2}: commons + neighbor targets + fillers; target t_{a,2}
        let mut in2 = commons[a].clone();
        for bb in 0..n {
            if graph.has_edge(a, bb) {
                in2.push(t1_of(bb, a));
            }
        }
        while in2.len() < k {
            in2.push(b.add_labeled_node(format!("f2_{a}_{}", in2.len())));
        }
        assert_eq!(in2.len(), k, "degree exceeds N?");
        for &u in &in2 {
            b.add_edge_ids(u, t2[a]);
        }
        groups.push(GroupSpec {
            inputs: in2,
            targets: vec![t2[a]],
        });
    }
    let dag = b.build().expect("reduction DAG is acyclic");
    let grouped = GroupedDag::new(dag.n(), groups);
    VcReduction {
        graph,
        grouped,
        dag,
        k,
        k_prime,
        t1,
        t2,
    }
}

impl VcReduction {
    /// The red budget R = k+1 (the minimum: Δ = k).
    pub fn red_limit(&self) -> usize {
        self.k + 1
    }

    /// Group id of V_{a,1}.
    pub fn first(&self, a: usize) -> usize {
        2 * a
    }

    /// Group id of V_{a,2}.
    pub fn second(&self, a: usize) -> usize {
        2 * a + 1
    }

    /// The pebbling instance (Theorem 3 concerns the oneshot model; other
    /// models are accepted for the exploratory experiments of Section 7's
    /// closing discussion).
    pub fn instance(&self, model: CostModel) -> Instance {
        Instance::new(self.dag.clone(), self.red_limit(), model)
    }

    /// Decodes a group-visit order into a vertex cover: node `a` joins
    /// the cover iff its two groups were *not* visited consecutively.
    /// The dependency structure guarantees the complement is independent,
    /// so the result is always a cover for complete visit orders.
    pub fn decode(&self, order: &[usize]) -> BitSet {
        let n = self.graph.n();
        let mut pos = vec![usize::MAX; 2 * n];
        for (i, &g) in order.iter().enumerate() {
            pos[g] = i;
        }
        let mut cover = BitSet::new(n);
        for a in 0..n {
            let (p1, p2) = (pos[self.first(a)], pos[self.second(a)]);
            let consecutive = p1 != usize::MAX && p2 != usize::MAX && p1.abs_diff(p2) == 1;
            if !consecutive {
                cover.insert(a);
            }
        }
        cover
    }

    /// The paper's constructive strategy for a given cover: first-level
    /// groups of the cover, then both groups of each independent-set node
    /// consecutively, then second-level groups of the cover.
    pub fn order_for_cover(&self, cover: &BitSet) -> Vec<usize> {
        let n = self.graph.n();
        let mut order = Vec::with_capacity(2 * n);
        for a in 0..n {
            if cover.contains(a) {
                order.push(self.first(a));
            }
        }
        for a in 0..n {
            if !cover.contains(a) {
                order.push(self.first(a));
                order.push(self.second(a));
            }
        }
        for a in 0..n {
            if cover.contains(a) {
                order.push(self.second(a));
            }
        }
        order
    }

    /// Solves the reduction exactly over visit orders (exponential in
    /// 2N; intended for N ≤ 5).
    pub fn solve(&self, model: CostModel) -> Result<OrderResult, SolveError> {
        let inst = self.instance(model);
        best_order(&self.grouped, &inst)
    }

    /// The dominant cost term for a cover of size `c` in oneshot:
    /// 2k′ per non-consecutive node.
    pub fn commons_toll(&self, cover_size: usize) -> u64 {
        2 * self.k_prime as u64 * cover_size as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vertex_cover;
    use rbp_core::engine;

    fn small_red(g: Graph) -> VcReduction {
        let n = g.n();
        encode(g, n * n + n)
    }

    #[test]
    fn structure() {
        let g = Graph::path(3); // N=3, edges (0,1),(1,2)
        let red = small_red(g);
        assert_eq!(red.k, 12);
        assert_eq!(red.k_prime, 9);
        assert_eq!(red.grouped.len(), 6);
        assert_eq!(red.dag.max_indegree(), red.k);
        // dependency: V_{1,2} needs V_{0,1} (edge 0-1)
        assert!(red.grouped.deps()[red.second(1)].contains(&red.first(0)));
        // no dependency between non-neighbors 0 and 2
        assert!(!red.grouped.deps()[red.second(2)].contains(&red.first(0)));
    }

    #[test]
    fn cover_order_valid_and_decodes_back() {
        let g = Graph::path(3);
        let red = small_red(g);
        let cover = vertex_cover::min_vertex_cover(&red.graph); // {1}
        let order = red.order_for_cover(&cover);
        assert!(red.grouped.is_valid_order(&order));
        let decoded = red.decode(&order);
        assert_eq!(decoded, cover);
    }

    #[test]
    fn order_for_cover_emits_valid_trace_with_expected_toll() {
        let g = Graph::path(3);
        let red = small_red(g);
        let inst = red.instance(CostModel::oneshot());
        let cover = vertex_cover::min_vertex_cover(&red.graph);
        let order = red.order_for_cover(&cover);
        let trace = red.grouped.emit(&inst, &order).unwrap();
        let rep = engine::simulate(&inst, &trace).unwrap();
        let toll = red.commons_toll(cover.len());
        assert!(rep.cost.transfers >= toll);
        // the O(N^2) slack: generous bound 4N^2
        let slack = 4 * (red.graph.n() as u64).pow(2);
        assert!(
            rep.cost.transfers <= toll + slack,
            "cost {} exceeds toll {} + slack {}",
            rep.cost.transfers,
            toll,
            slack
        );
    }

    #[test]
    fn optimal_pebbling_recovers_minimum_cover() {
        for g in [
            Graph::path(3),
            Graph::star(4),
            Graph::cycle(4),
            Graph::from_edges(4, &[(0, 1), (2, 3)]),
        ] {
            let truth = vertex_cover::min_vertex_cover(&g).len();
            let red = small_red(g);
            let inst = red.instance(CostModel::oneshot());
            let best = best_order(&red.grouped, &inst).unwrap();
            let decoded = red.decode(&best.order);
            assert!(
                red.graph.is_vertex_cover(&decoded),
                "decoded set is not a cover"
            );
            assert_eq!(
                decoded.len(),
                truth,
                "optimal pebbling decodes a non-minimum cover"
            );
        }
    }

    #[test]
    fn pebbling_cost_tracks_cover_size() {
        // K3: |VC| = 2; path(3): |VC| = 1 — the cost gap must be ~2k'
        let red_cheap = small_red(Graph::path(3));
        let red_costly = small_red(Graph::complete(3));
        let c_cheap = best_order(
            &red_cheap.grouped,
            &red_cheap.instance(CostModel::oneshot()),
        )
        .unwrap()
        .cost
        .transfers;
        let c_costly = best_order(
            &red_costly.grouped,
            &red_costly.instance(CostModel::oneshot()),
        )
        .unwrap()
        .cost
        .transfers;
        let gap = c_costly as i64 - c_cheap as i64;
        let expected = red_cheap.commons_toll(1) as i64; // one more cover node
        assert!(
            (gap - expected).abs() <= 2 * 9, // small-term slack
            "gap {gap} far from 2k' = {expected}"
        );
    }

    #[test]
    fn consecutive_set_is_always_independent() {
        // structural guarantee behind the decode: adjacent nodes cannot
        // both be visited consecutively
        let g = Graph::complete(3);
        let red = small_red(g);
        let inst = red.instance(CostModel::oneshot());
        let best = best_order(&red.grouped, &inst).unwrap();
        let cover = red.decode(&best.order);
        let mut consecutive = BitSet::full(red.graph.n());
        consecutive.difference_with(&cover);
        assert!(red.graph.is_independent_set(&consecutive));
    }

    #[test]
    fn greedy_pebbling_induces_a_valid_but_possibly_larger_cover() {
        let g = Graph::cycle(4);
        let red = small_red(g);
        let inst = red.instance(CostModel::oneshot());
        let rep = rbp_solvers::registry::solve("greedy", &inst).unwrap();
        // recover group visits from target first-computations
        let visits = visits_of(&red, &rep.trace.first_computations());
        let cover = red.decode(&visits);
        assert!(red.graph.is_vertex_cover(&cover));
        let opt = vertex_cover::min_vertex_cover(&red.graph).len();
        assert!(cover.len() >= opt);
    }

    fn visits_of(red: &VcReduction, comp_order: &[NodeId]) -> Vec<usize> {
        let mut owner = std::collections::HashMap::new();
        for (gi, g) in red.grouped.groups().iter().enumerate() {
            for &t in &g.targets {
                owner.insert(t, gi);
            }
        }
        let mut seen = vec![false; red.grouped.len()];
        let mut visits = Vec::new();
        for v in comp_order {
            if let Some(&g) = owner.get(v) {
                if !seen[g] {
                    seen[g] = true;
                    visits.push(g);
                }
            }
        }
        visits
    }
}
