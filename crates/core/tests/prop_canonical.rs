//! Property tests for [`Instance::canonical_key`] and the instance wire
//! format: the key is taken in the instance's own node numbering (two
//! DAGs key alike exactly when their edge sets are equal), parameters
//! separate keys, and serialize/parse round trips keep the key.

use proptest::prelude::*;
use rbp_core::{io, CostModel, Instance, SinkConvention, SourceConvention};
use rbp_graph::{Dag, DagBuilder};

fn arb_model() -> impl Strategy<Value = CostModel> {
    prop_oneof![
        Just(CostModel::base()),
        Just(CostModel::oneshot()),
        Just(CostModel::nodel()),
        Just(CostModel::compcost()),
    ]
}

/// Upper-triangular coin-flip DAGs (the prop_engine strategy).
fn arb_dag(max_n: usize) -> impl Strategy<Value = Dag> {
    (2..=max_n).prop_flat_map(|n| {
        let pairs = n * (n - 1) / 2;
        proptest::collection::vec(proptest::bool::weighted(0.4), pairs).prop_map(move |coins| {
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

/// Rebuilds `dag` under the node permutation `perm` (old id → new id);
/// labels are dropped, as the key ignores them.
fn relabel(dag: &Dag, perm: &[usize]) -> Dag {
    let mut b = DagBuilder::new(dag.n());
    for (u, v) in dag.edges() {
        b.add_edge(perm[u.index()], perm[v.index()]);
    }
    b.build().expect("a permuted DAG is still a DAG")
}

/// A deterministic permutation of `0..n` from a seed (Fisher–Yates over
/// an xorshift stream).
fn permutation(n: usize, mut seed: u64) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        let j = (seed % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

/// The DAG's node count and sorted edge list: what the key digests.
fn edge_set(dag: &Dag) -> (usize, Vec<(usize, usize)>) {
    let mut edges: Vec<(usize, usize)> = dag.edges().map(|(u, v)| (u.index(), v.index())).collect();
    edges.sort_unstable();
    (dag.n(), edges)
}

/// Exhaustive anti-collision smoke: every DAG on 2–4 nodes (all
/// upper-triangular edge masks) appears once, with its own edge set, so
/// no two of them may share a key.
#[test]
fn exhaustive_small_dags_collide_only_when_edge_sets_are_equal() {
    let mut seen: std::collections::HashMap<rbp_core::CanonicalKey, Dag> =
        std::collections::HashMap::new();
    for n in 2..=4usize {
        let pairs = n * (n - 1) / 2;
        for mask in 0u32..(1 << pairs) {
            let mut b = DagBuilder::new(n);
            let mut idx = 0;
            for i in 0..n {
                for j in (i + 1)..n {
                    if mask & (1 << idx) != 0 {
                        b.add_edge(i, j);
                    }
                    idx += 1;
                }
            }
            let dag = b.build().unwrap();
            let key = Instance::new(dag.clone(), dag.max_indegree() + 1, CostModel::base())
                .canonical_key();
            if let Some(prev) = seen.insert(key, dag.clone()) {
                assert_eq!(
                    edge_set(&prev),
                    edge_set(&dag),
                    "canonical-key collision on different edge sets"
                );
            }
        }
    }
}

proptest! {
    /// Random-pair anti-collision smoke at n ≤ 6: two sampled instances
    /// share a key only when their DAGs have the same edge set.
    #[test]
    fn different_edge_sets_never_collide(
        a in arb_dag(6),
        b in arb_dag(6),
        model in arb_model(),
    ) {
        let r = a.max_indegree().max(b.max_indegree()) + 1;
        let ka = Instance::new(a.clone(), r, model).canonical_key();
        let kb = Instance::new(b.clone(), r, model).canonical_key();
        prop_assert_eq!(ka == kb, edge_set(&a) == edge_set(&b));
    }

    /// A relabeling that changes the edge set changes the key: a trace
    /// written in one numbering is no trace of the other.
    #[test]
    fn relabelings_that_change_the_edge_set_change_the_key(
        dag in arb_dag(9),
        model in arb_model(),
        seed in any::<u64>(),
    ) {
        let n = dag.n();
        let r = dag.max_indegree() + 2;
        let key = |d: &Dag| Instance::new(d.clone(), r, model).canonical_key();
        // the cyclic shift v → v+1 (mod n) maps no DAG with an edge onto
        // itself: the orbit of one edge would close a cycle
        let shifted = relabel(&dag, &(0..n).map(|v| (v + 1) % n).collect::<Vec<_>>());
        let edgeless = dag.num_edges() == 0;
        prop_assert_eq!(edge_set(&shifted) == edge_set(&dag), edgeless);
        prop_assert_eq!(key(&shifted) == key(&dag), edgeless);
        // any seeded permutation: the key changes exactly when the edge
        // set does
        let permuted = relabel(&dag, &permutation(n, seed | 1));
        prop_assert_eq!(key(&permuted) == key(&dag), edge_set(&permuted) == edge_set(&dag));
    }

    /// A relabeling that keeps the edge set keeps the key: two disjoint
    /// copies of one DAG, with the copies swapped.
    #[test]
    fn relabelings_that_keep_the_edge_set_keep_the_key(
        dag in arb_dag(6),
        model in arb_model(),
    ) {
        let n = dag.n();
        let mut b = DagBuilder::new(2 * n);
        for (u, v) in dag.edges() {
            b.add_edge(u.index(), v.index());
            b.add_edge(u.index() + n, v.index() + n);
        }
        let twins = b.build().unwrap();
        let swap: Vec<usize> = (0..2 * n).map(|v| (v + n) % (2 * n)).collect();
        let swapped = relabel(&twins, &swap);
        prop_assert_eq!(edge_set(&twins), edge_set(&swapped));
        let r = dag.max_indegree() + 1;
        prop_assert_eq!(
            Instance::new(twins, r, model).canonical_key(),
            Instance::new(swapped, r, model).canonical_key()
        );
    }

    /// Distinct red budgets and distinct models never collide on the
    /// same DAG.
    #[test]
    fn parameters_separate_keys(dag in arb_dag(8), seed in any::<u64>()) {
        let r = dag.max_indegree() + 2;
        let inst = Instance::new(dag, r, CostModel::base());
        let key = inst.canonical_key();
        prop_assert_ne!(key, inst.with_red_limit(r + 1 + (seed % 3) as usize).canonical_key());
        for other in [CostModel::oneshot(), CostModel::nodel(), CostModel::compcost()] {
            prop_assert_ne!(key, inst.with_model(other).canonical_key());
        }
    }

    /// The wire format round-trips any instance, and the round-tripped
    /// copy keys identically (the service's cache contract: a submitted
    /// document hits the same cache slot as the in-process instance).
    #[test]
    fn wire_round_trip_preserves_instance_and_key(
        dag in arb_dag(8),
        model in arb_model(),
        blue_sources in any::<bool>(),
        blue_sinks in any::<bool>(),
    ) {
        let r = dag.max_indegree() + 1;
        let inst = Instance::new(dag, r, model)
            .with_source_convention(if blue_sources {
                SourceConvention::InitiallyBlue
            } else {
                SourceConvention::FreeCompute
            })
            .with_sink_convention(if blue_sinks {
                SinkConvention::RequireBlue
            } else {
                SinkConvention::AnyPebble
            });
        let text = io::write_instance(&inst);
        let back = io::parse_instance(&text).expect("own output must parse");
        prop_assert!(io::same_instance(&inst, &back));
        prop_assert_eq!(inst.canonical_key(), back.canonical_key());
        // stable serialization
        prop_assert_eq!(io::write_instance(&back), text);
    }
}
