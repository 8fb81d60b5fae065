//! Strategies and the random walker shared by the property tests.

use proptest::prelude::*;
use rbp_core::{CostModel, Instance, Move, Pebbling, State};
use rbp_graph::{DagBuilder, NodeId};

pub fn arb_model() -> impl Strategy<Value = CostModel> {
    prop_oneof![
        Just(CostModel::base()),
        Just(CostModel::oneshot()),
        Just(CostModel::nodel()),
        Just(CostModel::compcost()),
    ]
}

pub fn arb_dag(max_n: usize) -> impl Strategy<Value = rbp_graph::Dag> {
    (2..=max_n).prop_flat_map(|n| {
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

/// A pseudo-random walk of *legal* moves on the instance's processors:
/// each step enumerates every (move, processor) pair, probes it by
/// applying it to a clone of the state, and draws one legal pair. Yields
/// the final state and a trace the engine accepts as a prefix
/// (completion not guaranteed).
pub fn legal_walk(inst: &Instance, steps: usize, seed: u64) -> (State, Pebbling) {
    let mut state = State::initial(inst);
    let mut trace = Pebbling::new();
    let n = inst.dag().n();
    let p = inst.procs() as u16;
    let mut rng = seed | 1;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    for _ in 0..steps {
        let mut legal: Vec<(Move, u16)> = Vec::new();
        for i in 0..n {
            let v = NodeId::new(i);
            for proc in 0..p {
                for mv in [
                    Move::Load(v),
                    Move::Store(v),
                    Move::Compute(v),
                    Move::Delete(v),
                ] {
                    if state.clone().apply_on(mv, proc, inst).is_ok() {
                        legal.push((mv, proc));
                    }
                }
            }
        }
        if legal.is_empty() {
            break;
        }
        let (mv, proc) = legal[(next() % legal.len() as u64) as usize];
        state.apply_on(mv, proc, inst).unwrap();
        trace.push_on(mv, proc);
    }
    (state, trace)
}
