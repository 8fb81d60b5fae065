//! Independent solution certification.
//!
//! [`certify`] re-executes a pebbling trace against the rules of its
//! instance's model using a **separate minimal interpreter** — it shares
//! no code with [`crate::state::State`] or [`crate::engine`]: its board
//! is a plain `Vec<Color>` whose red cells remember the owning
//! processor, its cost accounting is two integer counters scaled by the
//! instance's objective weights, and its legality guards are written
//! from the paper's move rules (Section 2 plus the Section 4 model
//! deltas and the Appendix C conventions) and the multiprocessor deltas
//! of Böhnlein/Papp/Yzelman 2024, not from the engine's. A bug in the
//! engine and a matching bug in a solver therefore cannot cancel out
//! here: any solution the system emits can be certified end-to-end by
//! code with a disjoint failure surface.
//! Differential agreement between certifier and engine (accept/reject
//! *and* costs) is itself property-tested in `tests/prop_certify.rs`.
//!
//! The single-processor game is certified as the `p = 1` special case
//! of the same interpreter, as the engine plays it on processor 0 of
//! [`crate::state::State::apply_on`]: neither side has a second rulebook.
//!
//! The only inputs the certifier consults are problem *data*: the DAG's
//! predecessor lists, R, the model kind/ε, p, the cost weights, and the
//! two conventions.

use crate::cost::Cost;
use crate::instance::{Instance, SinkConvention, SourceConvention};
use crate::model::ModelKind;
use crate::moves::Move;
use crate::trace::Pebbling;
use rbp_graph::NodeId;
use std::fmt;

/// What a node's board cell holds. A node has at most one pebble
/// globally; a red pebble records the processor whose private memory
/// holds it (always 0 in the single-processor game, so the p = 1 board
/// is the classic board under a different name — there is deliberately
/// only one code path).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Color {
    Empty,
    Red(u16),
    Blue,
}

impl Color {
    fn is_red(self) -> bool {
        matches!(self, Color::Red(_))
    }
}

/// The outcome of a successful certification: independently recomputed
/// cost figures for the trace.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Certificate {
    /// Load + store moves executed.
    pub transfers: u64,
    /// Compute moves executed.
    pub computes: u64,
    /// The canonical integer comparison key, recomputed from scratch:
    /// `transfers·den(ε) + computes·num(ε)` classically, or the
    /// comm/comp-weighted equivalent for multiprocessor instances
    /// (identical numbers under the default weights).
    pub scaled_cost: u128,
    /// Moves in the trace.
    pub steps: usize,
}

impl Certificate {
    /// Whether this certificate realizes exactly the claimed engine cost.
    pub fn matches(&self, cost: &Cost) -> bool {
        self.transfers == cost.transfers && self.computes == cost.computes
    }
}

/// Why certification rejected a trace.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CertifyError {
    /// A move at `step` (0-based) broke a rule of the model.
    Rejected {
        /// Index of the offending move.
        step: usize,
        /// The offending move.
        mv: Move,
        /// Plain-language rule that was violated.
        rule: &'static str,
    },
    /// The trace ran to completion but left a sink unsatisfied.
    Incomplete {
        /// The first sink without the required pebble.
        sink: NodeId,
    },
}

impl fmt::Display for CertifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertifyError::Rejected { step, mv, rule } => {
                write!(f, "certifier rejected step {step} ({mv:?}): {rule}")
            }
            CertifyError::Incomplete { sink } => {
                write!(f, "certifier: trace ends with sink {sink:?} unsatisfied")
            }
        }
    }
}

impl std::error::Error for CertifyError {}

/// Re-executes `trace` on `instance` with the independent interpreter
/// and checks the finishing condition. Returns the recomputed cost
/// figures, or the first rule violation.
pub fn certify(instance: &Instance, trace: &Pebbling) -> Result<Certificate, CertifyError> {
    let dag = instance.dag();
    let n = dag.n();
    let r_limit = instance.red_limit();
    let kind = instance.model().kind();
    let recompute_ok = kind != ModelKind::Oneshot;
    let delete_ok = kind != ModelKind::NoDel;
    let sources_locked = instance.source_convention() == SourceConvention::InitiallyBlue;
    // The multiprocessor dimension: processor count and per-processor
    // red budgets. The single-processor game is exactly the p = 1 case
    // of the same rules, so there is one interpreter, not two.
    let procs = instance.procs();

    let mut board = vec![Color::Empty; n];
    let mut computed = vec![false; n];
    let mut reds = vec![0usize; procs];
    if sources_locked {
        for s in dag.sources() {
            board[s.index()] = Color::Blue;
            computed[s.index()] = true;
        }
    }

    let mut transfers: u64 = 0;
    let mut computes: u64 = 0;
    let reject =
        |step: usize, mv: Move, rule: &'static str| CertifyError::Rejected { step, mv, rule };
    for (step, &mv) in trace.moves().iter().enumerate() {
        let p = trace.proc_of(step);
        if p as usize >= procs {
            return Err(reject(step, mv, "processor index out of range"));
        }
        let pi = p as usize;
        match mv {
            Move::Load(v) => {
                let i = v.index();
                if i >= n || board[i] != Color::Blue {
                    return Err(reject(step, mv, "load requires a blue pebble on the node"));
                }
                if reds[pi] >= r_limit {
                    return Err(reject(step, mv, "load would exceed the red budget R"));
                }
                board[i] = Color::Red(p);
                reds[pi] += 1;
                transfers += 1;
            }
            Move::Store(v) => {
                let i = v.index();
                if i >= n || board[i] != Color::Red(p) {
                    return Err(reject(step, mv, "store requires a red pebble on the node"));
                }
                board[i] = Color::Blue;
                reds[pi] -= 1;
                transfers += 1;
            }
            Move::Compute(v) => {
                let i = v.index();
                if i >= n {
                    return Err(reject(step, mv, "compute on a node outside the DAG"));
                }
                if board[i].is_red() {
                    return Err(reject(step, mv, "compute onto a red pebble"));
                }
                if !recompute_ok && computed[i] {
                    return Err(reject(step, mv, "oneshot model forbids recomputation"));
                }
                if sources_locked && dag.is_source(v) {
                    return Err(reject(
                        step,
                        mv,
                        "initially-blue sources are not computable",
                    ));
                }
                if dag
                    .preds(v)
                    .iter()
                    .any(|q| board[q.index()] != Color::Red(p))
                {
                    return Err(reject(
                        step,
                        mv,
                        "compute needs every input red on the computing processor",
                    ));
                }
                if reds[pi] >= r_limit {
                    return Err(reject(step, mv, "compute would exceed the red budget R"));
                }
                // computing replaces any blue pebble on the node
                board[i] = Color::Red(p);
                reds[pi] += 1;
                computed[i] = true;
                computes += 1;
            }
            Move::Delete(v) => {
                let i = v.index();
                if !delete_ok {
                    return Err(reject(step, mv, "nodel model forbids deletion"));
                }
                // a red pebble in another processor's memory is not
                // deletable by this processor (shared blue always is)
                if i >= n
                    || board[i] == Color::Empty
                    || (board[i].is_red() && board[i] != Color::Red(p))
                {
                    return Err(reject(step, mv, "delete on an unpebbled node"));
                }
                if board[i] == Color::Red(p) {
                    reds[pi] -= 1;
                }
                board[i] = Color::Empty;
            }
        }
    }

    let need_blue = instance.sink_convention() == SinkConvention::RequireBlue;
    for v in dag.sinks() {
        let satisfied = match board[v.index()] {
            Color::Blue => true,
            Color::Red(_) => !need_blue,
            Color::Empty => false,
        };
        if !satisfied {
            return Err(CertifyError::Incomplete { sink: v });
        }
    }

    // Recompute the scalar objective from scratch: the classic ε scale,
    // or the MPP comm/comp weights over their common denominator.
    let (comm_scale, comp_scale) = match instance.mpp() {
        Some(dim) => (
            dim.comm.num() * dim.comp.den(),
            dim.comp.num() * dim.comm.den(),
        ),
        None => {
            let eps = instance.model().epsilon();
            (eps.den(), eps.num())
        }
    };
    Ok(Certificate {
        transfers,
        computes,
        scaled_cost: transfers as u128 * comm_scale as u128 + computes as u128 * comp_scale as u128,
        steps: trace.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CostModel;
    use rbp_graph::DagBuilder;

    fn v(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// 0 -> 2, 1 -> 2
    fn join(model: CostModel, r: usize) -> Instance {
        let mut b = DagBuilder::new(3);
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        Instance::new(b.build().unwrap(), r, model)
    }

    #[test]
    fn certifies_a_valid_trace_with_exact_cost() {
        let inst = join(CostModel::oneshot(), 3);
        let mut p = Pebbling::new();
        p.compute(v(0));
        p.store(v(0));
        p.compute(v(1));
        p.load(v(0));
        p.compute(v(2));
        let cert = certify(&inst, &p).unwrap();
        assert_eq!(cert.transfers, 2);
        assert_eq!(cert.computes, 3);
        assert_eq!(cert.scaled_cost, 2, "computes free under oneshot ε = 0");
        assert_eq!(cert.steps, 5);
    }

    #[test]
    fn compcost_scaling_recomputed_independently() {
        let inst = join(CostModel::compcost(), 3);
        let mut p = Pebbling::new();
        p.compute(v(0));
        p.compute(v(1));
        p.compute(v(2));
        let cert = certify(&inst, &p).unwrap();
        // ε = 1/100: scaled = 0·100 + 3·1
        assert_eq!(cert.scaled_cost, 3);
    }

    #[test]
    fn rejects_rule_violations() {
        let inst = join(CostModel::oneshot(), 3);
        // compute the sink without red inputs
        let p = Pebbling::from_moves(vec![Move::Compute(v(2))]);
        match certify(&inst, &p).unwrap_err() {
            CertifyError::Rejected { step: 0, .. } => {}
            other => panic!("wrong rejection: {other}"),
        }
        // recompute under oneshot
        let p = Pebbling::from_moves(vec![
            Move::Compute(v(0)),
            Move::Delete(v(0)),
            Move::Compute(v(0)),
        ]);
        match certify(&inst, &p).unwrap_err() {
            CertifyError::Rejected { step: 2, .. } => {}
            other => panic!("wrong rejection: {other}"),
        }
    }

    #[test]
    fn rejects_incomplete_traces() {
        let inst = join(CostModel::base(), 3);
        let p = Pebbling::from_moves(vec![Move::Compute(v(0))]);
        assert_eq!(
            certify(&inst, &p).unwrap_err(),
            CertifyError::Incomplete { sink: v(2) }
        );
    }

    #[test]
    fn enforces_conventions() {
        let inst = join(CostModel::base(), 3)
            .with_source_convention(SourceConvention::InitiallyBlue)
            .with_sink_convention(SinkConvention::RequireBlue);
        // sources must be loaded, sink must end blue
        let mut p = Pebbling::new();
        p.load(v(0));
        p.load(v(1));
        p.compute(v(2));
        p.store(v(2));
        let cert = certify(&inst, &p).unwrap();
        assert_eq!(cert.transfers, 3);
        // computing a locked source is rejected
        let bad = Pebbling::from_moves(vec![Move::Compute(v(0))]);
        assert!(matches!(
            certify(&inst, &bad),
            Err(CertifyError::Rejected { .. })
        ));
        // red pebble on the sink does not satisfy RequireBlue
        let mut red_end = Pebbling::new();
        red_end.load(v(0));
        red_end.load(v(1));
        red_end.compute(v(2));
        assert_eq!(
            certify(&inst, &red_end).unwrap_err(),
            CertifyError::Incomplete { sink: v(2) }
        );
    }

    #[test]
    fn nodel_delete_rejected_red_budget_enforced() {
        let inst = join(CostModel::nodel(), 2);
        let p = Pebbling::from_moves(vec![Move::Compute(v(0)), Move::Delete(v(0))]);
        assert!(matches!(
            certify(&inst, &p),
            Err(CertifyError::Rejected { step: 1, .. })
        ));
        let p = Pebbling::from_moves(vec![
            Move::Compute(v(0)),
            Move::Compute(v(1)),
            Move::Compute(v(2)), // third red pebble, R = 2
        ]);
        assert!(matches!(
            certify(&inst, &p),
            Err(CertifyError::Rejected { step: 2, .. })
        ));
    }

    #[test]
    fn certifies_multiprocessor_traces() {
        let inst = join(CostModel::base(), 3).with_procs(2);
        let mut t = Pebbling::new();
        t.push_on(Move::Compute(v(0)), 0);
        t.push_on(Move::Compute(v(1)), 1);
        t.push_on(Move::Store(v(1)), 1);
        t.push_on(Move::Load(v(1)), 0);
        t.push_on(Move::Compute(v(2)), 0);
        let cert = certify(&inst, &t).unwrap();
        assert_eq!(cert.transfers, 2);
        assert_eq!(cert.computes, 3);
        // default weights: comm = 1, comp = ε = 0 → scaled = transfers
        assert_eq!(cert.scaled_cost, 2);
        // the engine agrees move for move
        let rep = crate::engine::simulate(&inst, &t).unwrap();
        assert!(cert.matches(&rep.cost));
        assert_eq!(cert.scaled_cost, rep.scaled_cost(&inst));
    }

    #[test]
    fn rejects_multiprocessor_rule_violations() {
        let inst = join(CostModel::base(), 3).with_procs(2);
        // inputs red on the wrong processor
        let mut t = Pebbling::new();
        t.push_on(Move::Compute(v(0)), 0);
        t.push_on(Move::Compute(v(1)), 1);
        t.push_on(Move::Compute(v(2)), 0);
        match certify(&inst, &t).unwrap_err() {
            CertifyError::Rejected { step: 2, rule, .. } => {
                assert_eq!(
                    rule,
                    "compute needs every input red on the computing processor"
                )
            }
            other => panic!("wrong rejection: {other}"),
        }
        // storing another processor's red pebble
        let mut t = Pebbling::new();
        t.push_on(Move::Compute(v(0)), 0);
        t.push_on(Move::Store(v(0)), 1);
        assert!(matches!(
            certify(&inst, &t),
            Err(CertifyError::Rejected { step: 1, .. })
        ));
        // processor index beyond p
        let mut t = Pebbling::new();
        t.push_on(Move::Compute(v(0)), 5);
        match certify(&inst, &t).unwrap_err() {
            CertifyError::Rejected { step: 0, rule, .. } => {
                assert_eq!(rule, "processor index out of range")
            }
            other => panic!("wrong rejection: {other}"),
        }
        // per-processor budgets: R = 1 each, two values on one proc
        let tight = join(CostModel::base(), 1).with_procs(2);
        let mut t = Pebbling::new();
        t.push_on(Move::Compute(v(0)), 0);
        t.push_on(Move::Compute(v(1)), 0);
        assert!(matches!(
            certify(&tight, &t),
            Err(CertifyError::Rejected { step: 1, .. })
        ));
        // ...but fine on separate processors
        let mut t = Pebbling::new();
        t.push_on(Move::Compute(v(0)), 0);
        t.push_on(Move::Compute(v(1)), 1);
        assert!(matches!(
            certify(&tight, &t),
            Err(CertifyError::Incomplete { .. })
        ));
    }

    #[test]
    fn mpp_weights_scale_the_certificate() {
        use crate::cost::Ratio;
        use crate::instance::MppDim;
        let inst = join(CostModel::base(), 3).with_mpp(MppDim {
            p: 2,
            comm: Ratio::new(1, 1),
            comp: Ratio::new(1, 1),
        });
        let mut t = Pebbling::new();
        t.push_on(Move::Compute(v(0)), 0);
        t.push_on(Move::Compute(v(1)), 1);
        t.push_on(Move::Store(v(1)), 1);
        t.push_on(Move::Load(v(1)), 0);
        t.push_on(Move::Compute(v(2)), 0);
        let cert = certify(&inst, &t).unwrap();
        // comm = comp = 1: scaled = 2 + 3
        assert_eq!(cert.scaled_cost, 5);
        assert_eq!(
            cert.scaled_cost,
            inst.scaled_cost(&crate::cost::Cost {
                transfers: cert.transfers,
                computes: cert.computes,
            })
        );
    }

    #[test]
    fn certificate_matches_engine_cost_type() {
        let inst = join(CostModel::base(), 3);
        let mut p = Pebbling::new();
        p.compute(v(0));
        p.compute(v(1));
        p.compute(v(2));
        let cert = certify(&inst, &p).unwrap();
        let engine_cost = crate::engine::cost_of(&inst, &p).unwrap();
        assert!(cert.matches(&engine_cost));
        assert!(!cert.matches(&Cost {
            transfers: 1,
            computes: 3
        }));
    }
}
