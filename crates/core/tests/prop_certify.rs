//! Differential property tests: the independent certifier and the
//! validating engine must agree — on acceptance, on rejection, and on
//! every cost figure — across random instances, random *legal* traces,
//! and random *garbage* traces. The two interpreters share no code, so
//! agreement here is evidence neither has drifted from the paper's
//! rules.

mod common;

use common::{arb_dag, arb_model, legal_walk};
use proptest::prelude::*;
use rbp_core::{certify, engine, CertifyError, Instance, Move, MppDim, Pebbling, Ratio};
use rbp_graph::NodeId;

fn arb_instance(max_n: usize) -> impl Strategy<Value = Instance> {
    (
        arb_dag(max_n),
        arb_model(),
        0..3usize,
        proptest::bool::weighted(0.25),
        proptest::bool::weighted(0.25),
    )
        .prop_map(|(dag, model, slack, blue_sources, blue_sinks)| {
            let base = Instance::new(dag, 1, model);
            let mut inst = base.with_red_limit(base.min_feasible_r() + slack);
            if blue_sources {
                inst = inst.with_source_convention(rbp_core::SourceConvention::InitiallyBlue);
            }
            if blue_sinks {
                inst = inst.with_sink_convention(rbp_core::SinkConvention::RequireBlue);
            }
            inst
        })
}

/// Lifts a classic instance to the multiprocessor game: p ∈ {1, 2, 4},
/// occasionally with non-unit exact cost weights.
fn arb_mpp_instance(max_n: usize) -> impl Strategy<Value = Instance> {
    (
        arb_instance(max_n),
        0..3usize,
        proptest::bool::weighted(0.3),
    )
        .prop_map(|(inst, p_idx, weighted)| {
            let p = [1u32, 2, 4][p_idx];
            if weighted {
                inst.with_mpp(MppDim {
                    p,
                    comm: Ratio::new(3, 2),
                    comp: Ratio::new(1, 4),
                })
            } else {
                inst.with_procs(p)
            }
        })
}

/// An unconstrained random move sequence — mostly illegal.
fn garbage_trace(n: usize, moves: &[(u8, u8)]) -> Pebbling {
    let mut p = Pebbling::new();
    for &(kind, node) in moves {
        let v = NodeId::new(node as usize % n.max(1));
        p.push(match kind % 4 {
            0 => Move::Load(v),
            1 => Move::Store(v),
            2 => Move::Compute(v),
            _ => Move::Delete(v),
        });
    }
    p
}

/// Certifier and engine must return the same verdict for `trace`, and
/// on acceptance the same cost; on rejection the same failing step.
fn assert_agreement(inst: &Instance, trace: &Pebbling) {
    let engine_verdict = engine::simulate(inst, trace);
    let certifier_verdict = certify::certify(inst, trace);
    match (engine_verdict, certifier_verdict) {
        (Ok(rep), Ok(cert)) => {
            assert_eq!(cert.transfers, rep.cost.transfers, "transfer counts differ");
            assert_eq!(cert.computes, rep.cost.computes, "compute counts differ");
            assert_eq!(
                cert.scaled_cost,
                rep.scaled_cost(inst),
                "scaled costs differ"
            );
            assert!(cert.matches(&rep.cost));
        }
        (Err(e), Err(c)) => {
            // both reject; the failing step must agree (engine encodes
            // the completeness failure as step usize::MAX)
            let engine_step = e.step;
            match c {
                CertifyError::Rejected { step, .. } => {
                    assert_eq!(step, engine_step, "rejection steps differ")
                }
                CertifyError::Incomplete { .. } => {
                    assert_eq!(engine_step, usize::MAX, "engine rejected mid-trace")
                }
            }
        }
        (Ok(_), Err(c)) => panic!("engine accepted, certifier rejected: {c}"),
        (Err(e), Ok(_)) => panic!("certifier accepted, engine rejected: {e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Legal walks: both interpreters replay them identically (accept
    /// as prefix or agree the finishing condition fails).
    #[test]
    fn certifier_agrees_with_engine_on_legal_walks(
        inst in arb_instance(7),
        steps in 0..40usize,
        seed in any::<u64>(),
    ) {
        let (_, trace) = legal_walk(&inst, steps, seed);
        assert_agreement(&inst, &trace);
    }

    /// Garbage: both interpreters reject at the same step, or both
    /// accept (a garbage trace can be legal by luck).
    #[test]
    fn certifier_agrees_with_engine_on_garbage(
        inst in arb_instance(6),
        moves in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..30),
    ) {
        let trace = garbage_trace(inst.dag().n(), &moves);
        assert_agreement(&inst, &trace);
    }

    /// Multiprocessor legal walks: the engine and the p-aware certifier
    /// replay processor-tagged traces identically, exact cost weights
    /// included.
    #[test]
    fn certifier_agrees_with_engine_on_mpp_walks(
        inst in arb_mpp_instance(6),
        steps in 0..40usize,
        seed in any::<u64>(),
    ) {
        let (_, trace) = legal_walk(&inst, steps, seed);
        assert_agreement(&inst, &trace);
    }

    /// Multiprocessor garbage: random (move, processor) sequences with
    /// tags beyond the processor count must be rejected at the same
    /// step by both interpreters.
    #[test]
    fn certifier_agrees_with_engine_on_mpp_garbage(
        inst in arb_mpp_instance(5),
        moves in proptest::collection::vec((any::<u8>(), any::<u8>(), 0u16..6), 0..30),
    ) {
        let mut trace = Pebbling::new();
        let n = inst.dag().n();
        for &(kind, node, proc) in &moves {
            let v = NodeId::new(node as usize % n.max(1));
            let mv = match kind % 4 {
                0 => Move::Load(v),
                1 => Move::Store(v),
                2 => Move::Compute(v),
                _ => Move::Delete(v),
            };
            trace.push_on(mv, proc);
        }
        assert_agreement(&inst, &trace);
    }
}
