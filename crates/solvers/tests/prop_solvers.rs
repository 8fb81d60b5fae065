//! Property tests across the solver suite: agreement, ordering, and
//! trace validity on random instances.

use proptest::prelude::*;
use rbp_core::{engine, CostModel, Instance, ModelKind, SinkConvention, SourceConvention};
use rbp_graph::DagBuilder;
use rbp_solvers::api::{ExactSolver, Solver};
use rbp_solvers::{
    best_order, registry, EvictionPolicy, ExactConfig, GreedyConfig, GroupSpec, GroupedDag,
    SelectionRule, StateArena,
};

/// Random layered DAGs: `layers` layers of `width` nodes, each non-source
/// node wired to 1–2 nodes of the previous layer (deterministic in the
/// proptest-drawn edge choices, unlike `generate::layered`'s rng).
fn arb_layered() -> impl Strategy<Value = rbp_graph::Dag> {
    (2usize..=3, 2usize..=3).prop_flat_map(|(layers, width)| {
        let slots = (layers - 1) * width * 2;
        proptest::collection::vec(0usize..width, slots).prop_map(move |picks| {
            let mut b = DagBuilder::new(layers * width);
            let mut k = 0;
            for layer in 1..layers {
                for i in 0..width {
                    let dst = layer * width + i;
                    let mut srcs = [picks[k], picks[k + 1]];
                    k += 2;
                    srcs.sort_unstable();
                    b.add_edge((layer - 1) * width + srcs[0], dst);
                    if srcs[1] != srcs[0] {
                        b.add_edge((layer - 1) * width + srcs[1], dst);
                    }
                }
            }
            b.build().unwrap()
        })
    })
}

fn arb_dag(max_n: usize) -> impl Strategy<Value = rbp_graph::Dag> {
    (3..=max_n).prop_flat_map(|n| {
        let pairs = n * (n - 1) / 2;
        proptest::collection::vec(proptest::bool::weighted(0.35), pairs).prop_map(move |coins| {
            let mut b = DagBuilder::new(n);
            let mut idx = 0;
            for i in 0..n {
                for j in (i + 1)..n {
                    if coins[idx] {
                        b.add_edge(i, j);
                    }
                    idx += 1;
                }
            }
            b.build().unwrap()
        })
    })
}

/// Random input-group constructions: `g` groups over a shared pool of
/// source nodes, each with one target.
fn arb_grouped(max_groups: usize) -> impl Strategy<Value = (rbp_graph::Dag, GroupedDag, usize)> {
    (2..=max_groups, 3usize..=5).prop_flat_map(|(g, k)| {
        proptest::collection::vec(proptest::collection::vec(0usize..(2 * k), k), g).prop_map(
            move |memberships| {
                // normalize each group's members (dedup + deterministic pad)
                let member_sets: Vec<Vec<usize>> = memberships
                    .iter()
                    .map(|members| {
                        let mut inputs = members.clone();
                        inputs.sort_unstable();
                        inputs.dedup();
                        let mut fill = 0;
                        while inputs.len() < k {
                            if !inputs.contains(&fill) {
                                inputs.push(fill);
                            }
                            fill += 1;
                        }
                        inputs.truncate(k);
                        inputs
                    })
                    .collect();
                // materialize only the pool nodes actually used, so the
                // DAG has no isolated (never-pebbled) sources
                let mut used: Vec<usize> = member_sets.iter().flatten().copied().collect();
                used.sort_unstable();
                used.dedup();
                let remap = |x: usize| used.binary_search(&x).unwrap();
                let mut b = DagBuilder::new(used.len());
                let mut groups = Vec::new();
                for inputs in &member_sets {
                    let t = b.add_node();
                    let input_ids: Vec<rbp_graph::NodeId> = inputs
                        .iter()
                        .map(|&i| rbp_graph::NodeId::new(remap(i)))
                        .collect();
                    for &u in &input_ids {
                        b.add_edge_ids(u, t);
                    }
                    groups.push(GroupSpec {
                        inputs: input_ids,
                        targets: vec![t],
                    });
                }
                let dag = b.build().unwrap();
                let grouped = GroupedDag::new(dag.n(), groups);
                (dag, grouped, k + 1)
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every solver built on the greedy schedule builder — the nine
    /// deterministic greedy configurations, random eviction, the
    /// portfolio, beam and the multiprocessor list scheduler — yields a
    /// trace the independent certifier accepts at the reported cost, in
    /// every model, under both source and both sink conventions, with
    /// 0–2 red pebbles of slack.
    #[test]
    fn greedy_matrix_always_validates(
        dag in arb_dag(10),
        kind in 0usize..4,
        initially_blue in any::<bool>(),
        require_blue in any::<bool>(),
        slack in 0usize..=2,
    ) {
        let model = CostModel::of_kind(ModelKind::ALL[kind]);
        let r = dag.max_indegree() + 1 + slack;
        let mut inst = Instance::new(dag, r, model);
        if initially_blue {
            inst = inst.with_source_convention(SourceConvention::InitiallyBlue);
        }
        if require_blue {
            inst = inst.with_sink_convention(SinkConvention::RequireBlue);
        }
        let mut specs: Vec<String> = Vec::new();
        for rule in SelectionRule::ALL {
            for eviction in EvictionPolicy::DETERMINISTIC {
                specs.push(format!("greedy:{}", GreedyConfig { rule, eviction }));
            }
        }
        for spec in [
            "greedy:most-red-inputs/random(7)",
            "portfolio",
            "beam:1",
            "beam:3",
            "greedy@mpp:1",
            "greedy@mpp:2",
            "greedy@mpp:4",
        ] {
            specs.push(spec.to_string());
        }
        for spec in &specs {
            let solver = registry::solver(spec).unwrap();
            let sol = solver.solve_default(&inst).unwrap();
            let problem = solver.problem(&inst);
            let cert = rbp_core::certify(&problem, &sol.trace);
            prop_assert!(
                cert.as_ref().is_ok_and(|c| c.matches(&sol.cost)),
                "{}: certificate {:?} for reported cost {:?}",
                spec,
                cert,
                sol.cost
            );
        }
    }

    /// Beam width 1 is never beaten by greedy by more than the eviction
    /// slack, and the exact optimum lower-bounds everything.
    #[test]
    fn solver_ordering(dag in arb_dag(8)) {
        let r = dag.max_indegree() + 1;
        let inst = Instance::new(dag, r, CostModel::oneshot());
        let eps = inst.model().epsilon();
        let exact = registry::solve("exact", &inst).unwrap().cost.scaled(eps);
        let beam = registry::solve("beam:12", &inst).unwrap().cost.scaled(eps);
        prop_assert!(exact <= beam);
    }

    /// The visit-order scheduler always emits valid traces for valid
    /// orders on random grouped constructions, and best_order's reported
    /// cost is engine-exact.
    #[test]
    fn scheduler_validity_on_random_groups((dag, grouped, r) in arb_grouped(5)) {
        let inst = Instance::new(dag, r, CostModel::oneshot());
        // identity order is valid when it respects deps (these random
        // constructions have source-only inputs, so always valid)
        let order: Vec<usize> = (0..grouped.len()).collect();
        prop_assert!(grouped.is_valid_order(&order));
        let trace = grouped.emit(&inst, &order).unwrap();
        let rep = engine::simulate(&inst, &trace).unwrap();
        prop_assert!(rep.peak_red <= r);

        let best = best_order(&grouped, &inst).unwrap();
        let sim = engine::simulate(&inst, &best.trace).unwrap();
        prop_assert_eq!(sim.cost.scaled(inst.model().epsilon()), best.scaled);
        // best is no worse than the identity order
        prop_assert!(best.scaled <= rep.cost.scaled(inst.model().epsilon()));
    }

    /// Interning a shuffled stream of random keys (with repetitions)
    /// yields ids that are stable across re-interns and recover the
    /// exact key bytes, matching a `HashMap` reference model.
    #[test]
    fn arena_interning_is_stable_and_roundtrips(
        key_words in 1usize..4,
        raw_keys in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 3), 1..40),
        picks in proptest::collection::vec(any::<usize>(), 0..200),
    ) {
        let mut arena = StateArena::with_capacity(key_words, 4);
        let mut reference: std::collections::HashMap<Vec<u64>, u32> =
            std::collections::HashMap::new();
        // deterministic shuffled stream: index into raw_keys by `picks`,
        // then a full pass so every key appears at least once
        let stream = picks
            .iter()
            .map(|&p| p % raw_keys.len())
            .chain(0..raw_keys.len());
        for idx in stream {
            let key = &raw_keys[idx][..key_words];
            let (id, fresh) = arena.intern(key);
            match reference.get(key) {
                Some(&expect) => {
                    prop_assert!(!fresh, "re-intern must not be fresh");
                    prop_assert_eq!(id, expect, "id changed across interns");
                }
                None => {
                    prop_assert!(fresh, "first intern must be fresh");
                    prop_assert_eq!(id as usize, reference.len(), "ids must be dense");
                    reference.insert(key.to_vec(), id);
                }
            }
            prop_assert_eq!(arena.key(id), key, "round-trip key recovery");
        }
        prop_assert_eq!(arena.len(), reference.len());
        // every key still recoverable after all growth
        for (key, &id) in &reference {
            prop_assert_eq!(arena.key(id), &key[..]);
        }
    }

    /// Incumbent-bound pruning never changes the sequential optimum —
    /// for any valid upper bound, including the exactly-tight one.
    #[test]
    fn incumbent_pruning_preserves_sequential_optimum(
        dag in arb_layered(),
        kind in 0usize..4,
        slack in 0u64..3,
    ) {
        let model = CostModel::of_kind(ModelKind::ALL[kind]);
        let r = dag.max_indegree() + 1;
        let inst = Instance::new(dag, r, model);
        let eps = inst.model().epsilon();
        // unseeded on both sides: the property under test is the explicit
        // upper_bound seed, not the greedy incumbent
        let plain = ExactSolver::new().unseeded().solve_default(&inst).unwrap();
        let opt = plain.cost.scaled(eps) as u64;
        let seeded = ExactSolver::with_config(ExactConfig {
            upper_bound: Some(opt + slack),
            ..ExactConfig::default()
        })
        .unseeded()
        .solve_default(&inst)
        .unwrap();
        prop_assert_eq!(seeded.cost.scaled(eps), opt as u128);
        prop_assert!(seeded.states_seen() <= plain.states_seen());
        let sim = engine::simulate(&inst, &seeded.trace).unwrap();
        prop_assert_eq!(sim.cost, seeded.cost);
    }

    /// Group visits in any order cost at least the free lower bound and
    /// at most the canonical upper bound.
    #[test]
    fn scheduler_cost_brackets((dag, grouped, r) in arb_grouped(4)) {
        let inst = Instance::new(dag.clone(), r, CostModel::oneshot());
        let order: Vec<usize> = (0..grouped.len()).collect();
        let trace = grouped.emit(&inst, &order).unwrap();
        let rep = engine::simulate(&inst, &trace).unwrap();
        let ub = rbp_core::bounds::universal_upper_bound(&inst);
        prop_assert!(rep.cost.transfers <= ub.transfers);
    }
}
