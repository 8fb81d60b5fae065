//! Figures 6–7 / Theorem 3: the Vertex Cover reduction, executed. The
//! optimal pebbling cost tracks 2k′·|VC₀|; decoding the optimal visit
//! order recovers a *minimum* vertex cover; and approximate pebblings
//! (greedy) decode to valid-but-larger covers — the mechanism behind the
//! δ < 2 inapproximability.

use crate::report::Table;
use rbp_core::CostModel;
use rbp_graph::{Graph, NodeId};
use rbp_reductions::{reduction_vc, vertex_cover};
use rbp_solvers::{best_order, registry};
use std::path::Path;

fn battery() -> Vec<(String, Graph)> {
    vec![
        ("path3".into(), Graph::path(3)),
        ("path4".into(), Graph::path(4)),
        ("star4".into(), Graph::star(4)),
        ("cycle4".into(), Graph::cycle(4)),
        ("K3".into(), Graph::complete(3)),
        ("K4".into(), Graph::complete(4)),
        ("matching".into(), Graph::from_edges(4, &[(0, 1), (2, 3)])),
    ]
}

/// Regenerates the Figures-6/7 / Theorem-3 experiment (oneshot model).
pub fn run(out: &Path) {
    let mut t = Table::new(
        "Figs. 6–7 / Thm 3 — pebbling cost measures minimum vertex cover (oneshot)",
        &[
            "graph",
            "|VC0|",
            "2k'|VC0|",
            "opt pebbling cost",
            "decoded |VC|",
            "decoded valid",
            "greedy-pebbling |VC|",
            "2-approx |VC|",
        ],
    );
    for (name, g) in battery() {
        let n = g.n();
        let truth = vertex_cover::min_vertex_cover(&g);
        let red = reduction_vc::encode(g, n * n + n);
        let inst = red.instance(CostModel::oneshot());
        let best = best_order(&red.grouped, &inst).expect("solvable");
        let decoded = red.decode(&best.order);
        let valid = red.graph.is_vertex_cover(&decoded);

        // an approximate pebbling decodes to a larger cover
        let greedy = registry::solve("greedy", &inst).expect("feasible");
        let visits = visits_of(&red, &greedy.trace.first_computations());
        let greedy_cover = red.decode(&visits);
        let approx = vertex_cover::two_approx_cover(&red.graph);

        t.row_strings(vec![
            name,
            truth.len().to_string(),
            red.commons_toll(truth.len()).to_string(),
            best.cost.transfers.to_string(),
            decoded.len().to_string(),
            valid.to_string(),
            greedy_cover.len().to_string(),
            approx.len().to_string(),
        ]);
        assert!(valid, "decoded set must cover");
        assert_eq!(
            decoded.len(),
            truth.len(),
            "optimal pebbling must decode minimum cover"
        );
    }
    t.print();
    t.write_csv(out, "fig67").expect("write csv");
    println!("  (paper: optimal cost = 2k'·|VC0| + O(N²); a δ-approximate pebbling yields a");
    println!("   δ-approximate cover, so δ < 2 would contradict the unique games conjecture)");
}

fn visits_of(red: &reduction_vc::VcReduction, comp_order: &[NodeId]) -> Vec<usize> {
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

#[cfg(test)]
mod tests {
    #[test]
    fn fig67_runs() {
        let dir = std::env::temp_dir().join("rbp_fig67_test");
        super::run(&dir);
        assert!(dir.join("fig67.csv").exists());
    }
}
