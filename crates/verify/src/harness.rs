//! The differential invariant harness.
//!
//! [`check_instance`] runs every spec in [`SPECS`] (plus the unpruned
//! `reference` solver on small DAGs) over one instance and checks the
//! cross-solver invariant lattice:
//!
//! | invariant | statement |
//! |---|---|
//! | [`Invariant::SolverError`] | no registry spec errors on a feasible instance |
//! | [`Invariant::OptimalAgreement`] | every `Quality::Optimal` claim equals the exact optimum |
//! | [`Invariant::HeuristicDominated`] | every heuristic cost ≥ the optimum |
//! | [`Invariant::DegradedBracket`] | budget-degraded `UpperBound`: `lower_bound ≤ optimum ≤ cost` |
//! | [`Invariant::CacheIdentity`] | a cache hit is byte-identical to the solution inserted |
//! | [`Invariant::InstanceRoundTrip`] | `write ∘ parse ∘ write` is identity for `instance v1` |
//! | [`Invariant::SolutionRoundTrip`] | `write ∘ parse ∘ write` is identity for `solution v1` |
//! | [`Invariant::Certification`] | the independent certifier accepts every returned trace at the exact claimed cost |
//! | [`Invariant::MppMonotone`] | `exact@mpp:1 == exact`, and the multiprocessor optimum never rises with p |
//! | [`Invariant::CoarseBracket`] | every `coarse` `UpperBound` bracket contains the exact optimum: `lower_bound ≤ optimum ≤ cost` |
//!
//! The optimum itself is anchored by the `exact` solver; everything else
//! is measured against it. A violation of *any* row is reported as a
//! [`Violation`] and minimized by [`mod@crate::shrink`].

use rbp_core::{bounds, certify, io, Instance};
use rbp_service::cache::{AcceptPolicy, SolutionCache};
use rbp_solvers::api::{Budget, Solution, SolveCtx};
use rbp_solvers::{registry, wire, SolveError};
use std::fmt;

/// The registry specs the harness differentials across — every solver
/// family, with the argument grammar exercised (greedy rules × eviction
/// policies, beam widths, coarse group counts and inner specs).
pub const SPECS: &[&str] = &[
    "exact",
    "exact:unseeded",
    "greedy",
    "greedy:fewest-blue-inputs/lru",
    "greedy:highest-red-ratio/fifo",
    "beam:1",
    "beam:8",
    "portfolio",
    "coarse:2",
    "coarse:3/greedy",
];

/// Which lattice row a violation falls under.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Invariant {
    /// A spec returned an error on a feasible instance.
    SolverError,
    /// A `Quality::Optimal` claim disagrees with the exact optimum.
    OptimalAgreement,
    /// A heuristic produced a cost below the proved optimum.
    HeuristicDominated,
    /// A budget-degraded upper bound fails `lb ≤ optimum ≤ cost`.
    DegradedBracket,
    /// A cache hit returned bytes different from the inserted solution.
    CacheIdentity,
    /// The `instance v1` wire round-trip is not the identity.
    InstanceRoundTrip,
    /// The `solution v1` wire round-trip is not the identity.
    SolutionRoundTrip,
    /// The independent certifier rejected a solution, or certified a
    /// different cost than the solver claimed.
    Certification,
    /// The multiprocessor lattice failed: `exact@mpp:1` disagrees with
    /// the classic optimum, or the optimum rose when processors were
    /// added (more private memory can never hurt).
    MppMonotone,
    /// A hierarchical `coarse` solve returned an `UpperBound` bracket
    /// that does not contain the exact optimum (`lower_bound ≤ optimum
    /// ≤ cost` failed), so either its stitched trace undercut the
    /// optimum or its fractional lower bound is unsound.
    CoarseBracket,
}

impl Invariant {
    /// Stable kebab-case token, used in counterexample files and logs.
    pub fn token(self) -> &'static str {
        match self {
            Invariant::SolverError => "solver-error",
            Invariant::OptimalAgreement => "optimal-agreement",
            Invariant::HeuristicDominated => "heuristic-dominated",
            Invariant::DegradedBracket => "degraded-bracket",
            Invariant::CacheIdentity => "cache-identity",
            Invariant::InstanceRoundTrip => "instance-round-trip",
            Invariant::SolutionRoundTrip => "solution-round-trip",
            Invariant::Certification => "certification",
            Invariant::MppMonotone => "mpp-monotone",
            Invariant::CoarseBracket => "coarse-bracket",
        }
    }
}

/// One observed invariant violation on one instance.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The lattice row that failed.
    pub invariant: Invariant,
    /// The spec (or spec pair) implicated.
    pub spec: String,
    /// Human-readable specifics: claimed vs. observed numbers.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}: {}",
            self.invariant.token(),
            self.spec,
            self.detail
        )
    }
}

/// Harness tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct HarnessConfig {
    /// Run the unpruned `reference` solver only on DAGs up to this many
    /// nodes (it enumerates the raw configuration graph).
    pub reference_max_nodes: usize,
    /// Expansion cap for the budget-degradation probe: small enough to
    /// trip mid-search on most instances, exercising the `UpperBound`
    /// path.
    pub degraded_max_expansions: u64,
    /// Run the exact multiprocessor lattice (`exact@mpp:p` for
    /// p ∈ {1, 2, 4}) only on DAGs up to this many nodes — the product
    /// state space is exponential in p. Larger instances still get the
    /// greedy multiprocessor probe plus certification.
    pub mpp_max_nodes: usize,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            reference_max_nodes: 8,
            degraded_max_expansions: 4,
            mpp_max_nodes: 5,
        }
    }
}

/// Aggregate tallies over a harness run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Instances checked (feasible ones actually solved).
    pub instances: usize,
    /// Instances skipped as infeasible (R ≤ Δ) before solving.
    pub skipped_infeasible: usize,
    /// Individual solver invocations.
    pub solves: usize,
    /// Solutions certified by the independent certifier.
    pub certified: usize,
    /// All violations observed, in discovery order.
    pub violations: Vec<Violation>,
}

impl Report {
    /// Folds one instance's outcome into the tallies.
    pub fn absorb(&mut self, outcome: InstanceOutcome) {
        self.instances += 1;
        self.solves += outcome.solves;
        self.certified += outcome.certified;
        self.violations.extend(outcome.violations);
    }
}

/// Per-instance result of [`check_instance`].
#[derive(Clone, Debug, Default)]
pub struct InstanceOutcome {
    /// Solver invocations made.
    pub solves: usize,
    /// Solutions the certifier accepted.
    pub certified: usize,
    /// Violations found on this instance.
    pub violations: Vec<Violation>,
}

impl InstanceOutcome {
    /// Whether the instance passed every lattice row.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Certifies one solution with the independent interpreter, recording a
/// [`Invariant::Certification`] violation on rejection or cost
/// disagreement.
fn certify_solution(instance: &Instance, spec: &str, sol: &Solution, out: &mut InstanceOutcome) {
    match certify::certify(instance, &sol.trace) {
        Ok(cert) => {
            if !cert.matches(&sol.cost) {
                out.violations.push(Violation {
                    invariant: Invariant::Certification,
                    spec: spec.to_string(),
                    detail: format!(
                        "certifier recomputed (t={}, c={}) but solver claimed (t={}, c={})",
                        cert.transfers, cert.computes, sol.cost.transfers, sol.cost.computes
                    ),
                });
            } else {
                out.certified += 1;
            }
        }
        Err(e) => out.violations.push(Violation {
            invariant: Invariant::Certification,
            spec: spec.to_string(),
            detail: format!("certifier rejected the trace: {e}"),
        }),
    }
}

/// Runs the full invariant lattice over one instance.
///
/// Infeasible instances (R ≤ Δ) return an empty outcome: every solver
/// correctly refuses them, and the ensembles never generate them.
pub fn check_instance(instance: &Instance, cfg: &HarnessConfig) -> InstanceOutcome {
    let mut out = InstanceOutcome::default();
    if !instance.is_feasible() {
        return out;
    }
    // -- anchor: the exact optimum --------------------------------------
    out.solves += 1;
    let anchor = match registry::solve("exact", instance) {
        Ok(sol) => sol,
        Err(e) => {
            out.violations.push(Violation {
                invariant: Invariant::SolverError,
                spec: "exact".to_string(),
                detail: format!("anchor solve failed on a feasible instance: {e}"),
            });
            return out; // nothing to differential against
        }
    };
    certify_solution(instance, "exact", &anchor, &mut out);
    // An anchor that degraded (internal state cap on an oversized
    // instance) is legal but cannot anchor optimum comparisons: the
    // optimum is then only known to lie in its bracket.
    let anchored = anchor.is_optimal();
    // every cost and bound below is priced with the instance's own
    // weights, the units `Quality::UpperBound::lower_bound` carries
    let opt = anchor.scaled_cost(instance);

    // -- the structural lower bound must not exceed the optimum ---------
    let structural_lb = instance.scaled_cost(&bounds::best_lower_bound(instance));
    if anchored && structural_lb > opt {
        out.violations.push(Violation {
            invariant: Invariant::DegradedBracket,
            spec: "bounds::best_lower_bound".to_string(),
            detail: format!("structural lower bound {structural_lb} exceeds optimum {opt}"),
        });
    }

    // -- every other spec, differentialled against the anchor -----------
    let mut specs: Vec<&str> = SPECS.iter().skip(1).copied().collect();
    if instance.dag().n() <= cfg.reference_max_nodes {
        specs.push("reference");
    }
    for spec in specs {
        out.solves += 1;
        let sol = match registry::solve(spec, instance) {
            Ok(sol) => sol,
            // Resource exhaustion is a documented degradation surface,
            // not a semantic violation: unseeded exact variants hold no
            // incumbent, so a state cap or budget expiry legally errors.
            Err(SolveError::StateLimitExceeded { .. }) | Err(SolveError::Interrupted) => continue,
            Err(e) => {
                out.violations.push(Violation {
                    invariant: Invariant::SolverError,
                    spec: spec.to_string(),
                    detail: format!("errored on a feasible instance: {e}"),
                });
                continue;
            }
        };
        certify_solution(instance, spec, &sol, &mut out);
        let cost = sol.scaled_cost(instance);
        if sol.is_optimal() {
            if anchored && cost != opt {
                out.violations.push(Violation {
                    invariant: Invariant::OptimalAgreement,
                    spec: spec.to_string(),
                    detail: format!("claims Optimal at {cost}, exact found {opt}"),
                });
            }
        } else if anchored && cost < opt {
            out.violations.push(Violation {
                invariant: Invariant::HeuristicDominated,
                spec: spec.to_string(),
                detail: format!("heuristic cost {cost} beats the proved optimum {opt}"),
            });
        }
        if let rbp_solvers::Quality::UpperBound { lower_bound } = sol.quality {
            if anchored && spec.starts_with("coarse") && !(lower_bound <= opt && opt <= cost) {
                out.violations.push(Violation {
                    invariant: Invariant::CoarseBracket,
                    spec: spec.to_string(),
                    detail: format!(
                        "bracket [{lower_bound}, {cost}] does not contain optimum {opt}"
                    ),
                });
            }
        }
    }

    // -- budget degradation: the bracket must stay sound ----------------
    out.solves += 1;
    let ctx = SolveCtx::new(Budget::none().with_max_expansions(cfg.degraded_max_expansions));
    match registry::solve_with("exact", instance, &ctx) {
        Ok(sol) if anchored => {
            certify_solution(instance, "exact(degraded)", &sol, &mut out);
            let cost = sol.scaled_cost(instance);
            match sol.quality {
                rbp_solvers::Quality::Optimal => {
                    if cost != opt {
                        out.violations.push(Violation {
                            invariant: Invariant::DegradedBracket,
                            spec: "exact(degraded)".to_string(),
                            detail: format!("degraded solve claims Optimal at {cost} != {opt}"),
                        });
                    }
                }
                rbp_solvers::Quality::UpperBound { lower_bound } => {
                    if !(lower_bound <= opt && opt <= cost) {
                        out.violations.push(Violation {
                            invariant: Invariant::DegradedBracket,
                            spec: "exact(degraded)".to_string(),
                            detail: format!(
                                "bracket [{lower_bound}, {cost}] does not contain optimum {opt}"
                            ),
                        });
                    }
                }
                rbp_solvers::Quality::Infeasible => {
                    out.violations.push(Violation {
                        invariant: Invariant::DegradedBracket,
                        spec: "exact(degraded)".to_string(),
                        detail: "degraded solve reported Infeasible on a feasible instance"
                            .to_string(),
                    });
                }
            }
        }
        Ok(sol) => {
            // no trusted optimum: certification is still checkable
            certify_solution(instance, "exact(degraded)", &sol, &mut out);
        }
        Err(SolveError::Interrupted) => {} // legal without an incumbent
        Err(e) => out.violations.push(Violation {
            invariant: Invariant::SolverError,
            spec: "exact(degraded)".to_string(),
            detail: format!("degraded solve errored: {e}"),
        }),
    }

    // -- the multiprocessor lattice: lift classic instances over p ------
    // Instances already carrying an mpp dimension arrive through the
    // mpp ensembles and are exercised by the generic rows above; the
    // lift here checks the cross-p laws, which need a classic baseline.
    if instance.mpp().is_none() {
        if anchored && instance.dag().n() <= cfg.mpp_max_nodes {
            let mut chain: Vec<(u32, u128)> = Vec::new();
            for p in [1u32, 2, 4] {
                let lifted = instance.with_procs(p);
                let spec = format!("exact@mpp:{p}");
                out.solves += 1;
                let sol = match registry::solve(&spec, instance) {
                    Ok(sol) => sol,
                    Err(SolveError::StateLimitExceeded { .. }) | Err(SolveError::Interrupted) => {
                        continue
                    }
                    Err(e) => {
                        out.violations.push(Violation {
                            invariant: Invariant::SolverError,
                            spec: spec.clone(),
                            detail: format!("errored on a feasible instance: {e}"),
                        });
                        continue;
                    }
                };
                certify_solution(&lifted, &spec, &sol, &mut out);
                let cost = sol.scaled_cost(&lifted);
                if !sol.is_optimal() {
                    continue; // degraded: no optimum to hang laws on
                }
                chain.push((p, cost));
                if p == 1 && cost != opt {
                    out.violations.push(Violation {
                        invariant: Invariant::MppMonotone,
                        spec: spec.clone(),
                        detail: format!(
                            "single-processor mpp optimum {cost} != classic optimum {opt}"
                        ),
                    });
                }
                let gspec = format!("greedy@mpp:{p}");
                out.solves += 1;
                match registry::solve(&gspec, instance) {
                    Ok(g) => {
                        certify_solution(&lifted, &gspec, &g, &mut out);
                        let gcost = g.scaled_cost(&lifted);
                        if gcost < cost {
                            out.violations.push(Violation {
                                invariant: Invariant::HeuristicDominated,
                                spec: gspec,
                                detail: format!(
                                    "greedy cost {gcost} beats the mpp optimum {cost} at p={p}"
                                ),
                            });
                        }
                    }
                    Err(e) => out.violations.push(Violation {
                        invariant: Invariant::SolverError,
                        spec: gspec,
                        detail: format!("errored on a feasible instance: {e}"),
                    }),
                }
            }
            for w in chain.windows(2) {
                let ((p_lo, c_lo), (p_hi, c_hi)) = (w[0], w[1]);
                if c_hi > c_lo {
                    out.violations.push(Violation {
                        invariant: Invariant::MppMonotone,
                        spec: format!("exact@mpp:{p_lo} vs exact@mpp:{p_hi}"),
                        detail: format!(
                            "optimum rose with processors: {c_lo} at p={p_lo}, {c_hi} at p={p_hi}"
                        ),
                    });
                }
            }
        } else {
            // too large for the exact product search: the greedy
            // scheduler must still produce a certifiable schedule
            let lifted = instance.with_procs(2);
            out.solves += 1;
            match registry::solve("greedy@mpp:2", instance) {
                Ok(sol) => certify_solution(&lifted, "greedy@mpp:2", &sol, &mut out),
                Err(e) => out.violations.push(Violation {
                    invariant: Invariant::SolverError,
                    spec: "greedy@mpp:2".to_string(),
                    detail: format!("errored on a feasible instance: {e}"),
                }),
            }
        }
    }

    // -- cache hit must be byte-identical to the inserted solution ------
    let cache = SolutionCache::new();
    let key = instance.canonical_key();
    let fresh_bytes = wire::write_solution("exact", &anchor);
    cache.insert_or_upgrade(key, "exact", anchor.clone(), opt);
    match cache.lookup(&key, AcceptPolicy::Bound) {
        Some(entry) => {
            let hit_bytes = wire::write_solution(&entry.spec, &entry.solution);
            if hit_bytes != fresh_bytes {
                out.violations.push(Violation {
                    invariant: Invariant::CacheIdentity,
                    spec: "cache".to_string(),
                    detail: "cache hit serialized differently from the inserted solution"
                        .to_string(),
                });
            }
        }
        None => out.violations.push(Violation {
            invariant: Invariant::CacheIdentity,
            spec: "cache".to_string(),
            detail: "freshly inserted key missed on lookup".to_string(),
        }),
    }

    // -- wire round-trips are identities --------------------------------
    let doc = io::write_instance(instance);
    match io::parse_instance(&doc) {
        Ok(parsed) => {
            if io::write_instance(&parsed) != doc || !io::same_instance(instance, &parsed) {
                out.violations.push(Violation {
                    invariant: Invariant::InstanceRoundTrip,
                    spec: "instance v1".to_string(),
                    detail: "write ∘ parse ∘ write is not the identity".to_string(),
                });
            }
        }
        Err(e) => out.violations.push(Violation {
            invariant: Invariant::InstanceRoundTrip,
            spec: "instance v1".to_string(),
            detail: format!("own serialization failed to parse: {e}"),
        }),
    }
    match wire::parse_solution(&fresh_bytes) {
        Ok(ws) => {
            if wire::write_solution(&ws.spec, &ws.solution) != fresh_bytes {
                out.violations.push(Violation {
                    invariant: Invariant::SolutionRoundTrip,
                    spec: "solution v1".to_string(),
                    detail: "write ∘ parse ∘ write is not the identity".to_string(),
                });
            }
        }
        Err(e) => out.violations.push(Violation {
            invariant: Invariant::SolutionRoundTrip,
            spec: "solution v1".to_string(),
            detail: format!("own serialization failed to parse: {e}"),
        }),
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbp_core::CostModel;
    use rbp_graph::DagBuilder;

    #[test]
    fn clean_on_a_known_instance() {
        let mut b = DagBuilder::new(4);
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        let inst = Instance::new(b.build().unwrap(), 3, CostModel::oneshot());
        let out = check_instance(&inst, &HarnessConfig::default());
        assert!(out.clean(), "violations: {:?}", out.violations);
        assert!(out.solves >= SPECS.len());
        assert!(out.certified >= SPECS.len(), "every solution certified");
    }

    #[test]
    fn clean_on_a_lifted_multiprocessor_instance() {
        // an instance already carrying the mpp dimension runs the
        // generic rows (the classic anchor is only an upper bound
        // there) and must stay violation-free
        let mut b = DagBuilder::new(4);
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        let inst = Instance::new(b.build().unwrap(), 3, CostModel::base()).with_procs(2);
        let out = check_instance(&inst, &HarnessConfig::default());
        assert!(out.clean(), "violations: {:?}", out.violations);
    }

    #[test]
    fn mpp_lattice_runs_on_small_classic_instances() {
        let mut b = DagBuilder::new(4);
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        let inst = Instance::new(b.build().unwrap(), 3, CostModel::oneshot());
        let cfg = HarnessConfig::default();
        assert!(inst.dag().n() <= cfg.mpp_max_nodes);
        let out = check_instance(&inst, &cfg);
        assert!(out.clean(), "violations: {:?}", out.violations);
        // the exact lattice adds 6 solves (exact+greedy at 3 values of p)
        assert!(out.solves >= SPECS.len() + 6, "mpp lattice did not run");
        // larger instances fall back to the greedy probe only
        let big = HarnessConfig {
            mpp_max_nodes: 3,
            ..cfg
        };
        let out_big = check_instance(&inst, &big);
        assert!(out_big.clean(), "violations: {:?}", out_big.violations);
        assert!(out_big.solves < out.solves);
    }

    #[test]
    fn infeasible_instances_are_skipped() {
        let mut b = DagBuilder::new(3);
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        let inst = Instance::new(b.build().unwrap(), 2, CostModel::base());
        assert!(!inst.is_feasible());
        let out = check_instance(&inst, &HarnessConfig::default());
        assert_eq!(out.solves, 0);
        assert!(out.clean());
    }
}
