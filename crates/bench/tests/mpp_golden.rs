//! Golden table of the multiprocessor exact search: the optimum and the
//! expansion count of `exact@mpp` at p = 2 and p = 4, recorded from the
//! product-space Dijkstra that the shared exact search replaced.
//!
//! At more than one processor the shared search keeps that solver's
//! rule set (never delete blue, the incumbent cutoff) and its successor
//! order, and adds only the structural-floor exit, which can end a
//! search early but never lengthen it. So every recorded optimum must
//! be met exactly, and no recorded expansion count may be exceeded.
//!
//! The pyramid(4) rows take ~10^5 expansions each and only run
//! optimized (`cargo test --release`).

use rbp_core::{CostModel, Instance, ModelKind};
use rbp_graph::generate;
use rbp_solvers::registry;
use rbp_workloads::ensemble::{self, EnsembleConfig};

/// `(instance, model, optimum, states expanded)` at p = 2 and R = 2
/// (chain) or R = 3 (pyramids), default weights.
const GADGETS: [(&str, ModelKind, u128, u64); 9] = [
    ("chain8", ModelKind::Base, 0, 112),
    ("chain8", ModelKind::Oneshot, 0, 47),
    ("chain8", ModelKind::NoDel, 6, 401),
    ("pyramid3", ModelKind::Base, 2, 821),
    ("pyramid3", ModelKind::Oneshot, 2, 947),
    ("pyramid3", ModelKind::NoDel, 4, 487),
    ("pyramid4", ModelKind::Base, 6, 96399),
    ("pyramid4", ModelKind::Oneshot, 6, 57467),
    ("pyramid4", ModelKind::NoDel, 12, 20831),
];

/// Seed of the ensemble draws below.
const SEED: u64 = 2409;

/// `(index, optimum, states expanded)` of every p ∈ {2, 4} draw among
/// the first 72 of `ensemble::mpp_instance_at(SEED, index, cfg)` with
/// `max_nodes: 5`; the labels name p and the weights.
const DRAWS: [(u64, u128, u64); 48] = [
    (1, 0, 22),     // series-parallel-n4-i1-p2
    (2, 1, 103),    // random-order-n4-i2-p4
    (4, 20, 65),    // layered-n4-i4-p2-w1x5
    (5, 12, 49),    // series-parallel-n3-i5-p4-w1x5
    (7, 3, 8),      // in-tree-n3-i7-p2-w5x1
    (8, 8, 133),    // layered-n3-i8-p4-w5x1
    (10, 0, 10),    // random-order-n3-i10-p2
    (11, 0, 202),   // in-tree-n5-i11-p4
    (13, 25, 241),  // series-parallel-n5-i13-p2-w1x5
    (14, 17, 120),  // random-order-n3-i14-p4-w1x5
    (16, 3, 12),    // layered-n3-i16-p2-w5x1
    (17, 4, 49),    // series-parallel-n4-i17-p4-w5x1
    (19, 1, 67),    // in-tree-n5-i19-p2
    (20, 1, 15),    // layered-n3-i20-p4
    (22, 20, 113),  // random-order-n4-i22-p2-w1x5
    (23, 18, 1906), // in-tree-n5-i23-p4-w1x5
    (25, 4, 8),     // series-parallel-n4-i25-p2-w5x1
    (26, 4, 78),    // random-order-n4-i26-p4-w5x1
    (28, 1, 12),    // layered-n3-i28-p2
    (29, 0, 17),    // series-parallel-n3-i29-p4
    (31, 26, 397),  // in-tree-n5-i31-p2-w1x5
    (32, 16, 156),  // layered-n4-i32-p4-w1x5
    (34, 4, 14),    // random-order-n4-i34-p2-w5x1
    (35, 4, 42),    // in-tree-n4-i35-p4-w5x1
    (37, 0, 10),    // series-parallel-n4-i37-p2
    (38, 0, 86),    // random-order-n5-i38-p4
    (40, 10, 5),    // layered-n2-i40-p2-w1x5
    (41, 21, 329),  // series-parallel-n4-i41-p4-w1x5
    (43, 12, 51),   // in-tree-n4-i43-p2-w5x1
    (44, 3, 14),    // layered-n3-i44-p4-w5x1
    (46, 2, 20),    // random-order-n4-i46-p2
    (47, 1, 686),   // in-tree-n4-i47-p4
    (49, 15, 17),   // series-parallel-n3-i49-p2-w1x5
    (50, 20, 217),  // random-order-n4-i50-p4-w1x5
    (52, 2, 4),     // layered-n2-i52-p2-w5x1
    (53, 8, 49),    // series-parallel-n4-i53-p4-w5x1
    (55, 1, 131),   // in-tree-n5-i55-p2
    (56, 3, 14),    // layered-n3-i56-p4
    (58, 23, 242),  // random-order-n4-i58-p2-w1x5
    (59, 21, 253),  // in-tree-n4-i59-p4-w1x5
    (61, 14, 242),  // series-parallel-n5-i61-p2-w5x1
    (62, 13, 201),  // random-order-n3-i62-p4-w5x1
    (64, 1, 14),    // layered-n4-i64-p2
    (65, 0, 18),    // series-parallel-n4-i65-p4
    (67, 16, 31),   // in-tree-n3-i67-p2-w1x5
    (68, 15, 44),   // layered-n3-i68-p4-w1x5
    (70, 8, 29),    // random-order-n3-i70-p2-w5x1
    (71, 4, 78),    // in-tree-n4-i71-p4-w5x1
];

/// Solves `inst` with `exact@mpp` and checks it against a golden row.
fn check(label: &str, inst: &Instance, optimum: u128, expanded: u64) {
    let sol = registry::solve("exact@mpp", inst).unwrap();
    assert!(sol.is_optimal(), "{label}: not proved optimal");
    assert_eq!(sol.scaled_cost(inst), optimum, "{label}: optimum moved");
    let seen = sol.states_expanded().unwrap();
    assert!(
        seen <= expanded,
        "{label}: {seen} expansions, more than the recorded {expanded}"
    );
}

#[test]
fn gadget_optima_and_effort_match_the_golden_table() {
    for (name, kind, optimum, expanded) in GADGETS {
        let (dag, r) = match name {
            "chain8" => (generate::chain(8), 2),
            "pyramid3" => (rbp_gadgets::pyramid::build(3).dag, 3),
            "pyramid4" if cfg!(debug_assertions) => continue,
            "pyramid4" => (rbp_gadgets::pyramid::build(4).dag, 3),
            other => unreachable!("unknown golden instance {other}"),
        };
        let inst = Instance::new(dag, r, CostModel::of_kind(kind)).with_procs(2);
        check(&format!("{name}/{kind}"), &inst, optimum, expanded);
    }
}

#[test]
fn ensemble_optima_and_effort_match_the_golden_table() {
    let cfg = EnsembleConfig {
        max_nodes: 5,
        ..EnsembleConfig::default()
    };
    let drawn: Vec<u64> = (0..72u64)
        .filter(|&i| ensemble::mpp_instance_at(SEED, i, &cfg).instance.procs() > 1)
        .collect();
    let recorded: Vec<u64> = DRAWS.iter().map(|d| d.0).collect();
    assert_eq!(drawn, recorded, "the ensemble draw moved");
    for (index, optimum, expanded) in DRAWS {
        let g = ensemble::mpp_instance_at(SEED, index, &cfg);
        check(&g.name, &g.instance, optimum, expanded);
    }
}
