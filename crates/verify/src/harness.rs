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
//! | [`Invariant::CacheCrossSpec`] | with every spec's answer in one cache, keyed by the problem the spec pebbles, each spec's hit certifies against that problem, and an `Optimal` hit equals its optimum |
//! | [`Invariant::CacheRelabel`] | a hit for a seeded relabeling π(I) of the instance certifies against π(I) |
//! | [`Invariant::InstanceRoundTrip`] | `write ∘ parse ∘ write` is identity for `instance v1` |
//! | [`Invariant::SolutionRoundTrip`] | `write ∘ parse ∘ write` is identity for `solution v1` |
//! | [`Invariant::Certification`] | the independent certifier accepts every returned trace at the exact claimed cost |
//! | [`Invariant::MppMonotone`] | `exact@mpp:1 == exact`, and the multiprocessor optimum never rises with p |
//! | [`Invariant::CoarseBracket`] | every `coarse` `UpperBound` bracket contains the exact optimum: `lower_bound ≤ optimum ≤ cost` |
//!
//! The optimum itself is anchored by the `exact` solver; everything else
//! is measured against it. A violation of *any* row is reported as a
//! [`Violation`] and minimized by [`mod@crate::shrink`].

use crate::shrink::with_dag;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rbp_core::{bounds, certify, io, Instance};
use rbp_graph::DagBuilder;
use rbp_service::cache::{AcceptPolicy, SolutionCache};
use rbp_solvers::api::{Budget, Solution, SolveCtx};
use rbp_solvers::{registry, wire, Quality, SolveError};
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
    /// With every answer in one cache, a spec's hit failed to certify
    /// against its problem, or an `Optimal` hit missed its optimum.
    CacheCrossSpec,
    /// A hit for a relabeled instance failed to certify against it.
    CacheRelabel,
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
            Invariant::CacheCrossSpec => "cache-cross-spec",
            Invariant::CacheRelabel => "cache-relabel",
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

    /// Records a violation of `invariant` by `spec`.
    fn violate(&mut self, invariant: Invariant, spec: impl Into<String>, detail: String) {
        self.violations.push(Violation {
            invariant,
            spec: spec.into(),
            detail,
        });
    }
}

/// Certifies `sol` against `instance` with the independent interpreter:
/// the certified scaled cost, or why the trace is rejected or certifies
/// at another cost than the solver claimed.
fn certified_cost(instance: &Instance, sol: &Solution) -> Result<u128, String> {
    let cert = certify::certify(instance, &sol.trace)
        .map_err(|e| format!("certifier rejected the trace: {e}"))?;
    if !cert.matches(&sol.cost) {
        return Err(format!(
            "certifier recomputed (t={}, c={}) but solver claimed (t={}, c={})",
            cert.transfers, cert.computes, sol.cost.transfers, sol.cost.computes
        ));
    }
    Ok(cert.scaled_cost)
}

/// Certifies one solution, recording a [`Invariant::Certification`]
/// violation on rejection or cost disagreement.
fn certify_solution(instance: &Instance, spec: &str, sol: &Solution, out: &mut InstanceOutcome) {
    match certified_cost(instance, sol) {
        Ok(_) => out.certified += 1,
        Err(detail) => out.violate(Invariant::Certification, spec, detail),
    }
}

/// `instance` with its nodes renumbered by a permutation drawn from
/// `seed`.
fn relabeled(instance: &Instance, seed: u64) -> Instance {
    let dag = instance.dag();
    let mut perm: Vec<usize> = (0..dag.n()).collect();
    perm.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut b = DagBuilder::new(dag.n());
    for (u, v) in dag.edges() {
        b.add_edge(perm[u.index()], perm[v.index()]);
    }
    let dag = b.build().expect("a renumbered DAG is still a DAG");
    with_dag(instance, dag)
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
            out.violate(
                Invariant::SolverError,
                "exact",
                format!("anchor solve failed on a feasible instance: {e}"),
            );
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
    // every answer, with the optimum of the problem its spec pebbles
    // when one is known, for the shared-cache rows at the end
    let mut answers: Vec<(String, Solution, Option<u128>)> =
        vec![("exact".to_string(), anchor.clone(), anchored.then_some(opt))];

    // -- the structural lower bound must not exceed the optimum ---------
    let structural_lb = instance.scaled_cost(&bounds::best_lower_bound(instance));
    if anchored && structural_lb > opt {
        out.violate(
            Invariant::DegradedBracket,
            "bounds::best_lower_bound",
            format!("structural lower bound {structural_lb} exceeds optimum {opt}"),
        );
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
                out.violate(
                    Invariant::SolverError,
                    spec,
                    format!("errored on a feasible instance: {e}"),
                );
                continue;
            }
        };
        certify_solution(instance, spec, &sol, &mut out);
        let cost = sol.scaled_cost(instance);
        if sol.is_optimal() {
            if anchored && cost != opt {
                out.violate(
                    Invariant::OptimalAgreement,
                    spec,
                    format!("claims Optimal at {cost}, exact found {opt}"),
                );
            }
        } else if anchored && cost < opt {
            out.violate(
                Invariant::HeuristicDominated,
                spec,
                format!("heuristic cost {cost} beats the proved optimum {opt}"),
            );
        }
        if let Quality::UpperBound { lower_bound } = sol.quality {
            if anchored && spec.starts_with("coarse") && !(lower_bound <= opt && opt <= cost) {
                out.violate(
                    Invariant::CoarseBracket,
                    spec,
                    format!("bracket [{lower_bound}, {cost}] does not contain optimum {opt}"),
                );
            }
        }
        answers.push((spec.to_string(), sol, anchored.then_some(opt)));
    }

    // -- budget degradation: the bracket must stay sound ----------------
    out.solves += 1;
    let ctx = SolveCtx::new(Budget::none().with_max_expansions(cfg.degraded_max_expansions));
    match registry::solve_with("exact", instance, &ctx) {
        Ok(sol) => {
            certify_solution(instance, "exact(degraded)", &sol, &mut out);
            let cost = sol.scaled_cost(instance);
            let detail = match sol.quality {
                // no trusted optimum: certification is all that is checkable
                _ if !anchored => None,
                Quality::Optimal if cost != opt => {
                    Some(format!("degraded solve claims Optimal at {cost} != {opt}"))
                }
                Quality::UpperBound { lower_bound } if !(lower_bound <= opt && opt <= cost) => {
                    Some(format!(
                        "bracket [{lower_bound}, {cost}] does not contain optimum {opt}"
                    ))
                }
                Quality::Infeasible => {
                    Some("degraded solve reported Infeasible on a feasible instance".to_string())
                }
                _ => None,
            };
            if let Some(detail) = detail {
                out.violate(Invariant::DegradedBracket, "exact(degraded)", detail);
            }
        }
        Err(SolveError::Interrupted) => {} // legal without an incumbent
        Err(e) => out.violate(
            Invariant::SolverError,
            "exact(degraded)",
            format!("degraded solve errored: {e}"),
        ),
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
                        out.violate(
                            Invariant::SolverError,
                            spec.clone(),
                            format!("errored on a feasible instance: {e}"),
                        );
                        continue;
                    }
                };
                certify_solution(&lifted, &spec, &sol, &mut out);
                let cost = sol.scaled_cost(&lifted);
                let optimal = sol.is_optimal();
                answers.push((spec.clone(), sol, optimal.then_some(cost)));
                if !optimal {
                    continue; // degraded: no optimum to hang laws on
                }
                chain.push((p, cost));
                if p == 1 && cost != opt {
                    out.violate(
                        Invariant::MppMonotone,
                        spec.clone(),
                        format!("single-processor mpp optimum {cost} != classic optimum {opt}"),
                    );
                }
                let gspec = format!("greedy@mpp:{p}");
                out.solves += 1;
                match registry::solve(&gspec, instance) {
                    Ok(g) => {
                        certify_solution(&lifted, &gspec, &g, &mut out);
                        let gcost = g.scaled_cost(&lifted);
                        if gcost < cost {
                            out.violate(
                                Invariant::HeuristicDominated,
                                gspec.clone(),
                                format!(
                                    "greedy cost {gcost} beats the mpp optimum {cost} at p={p}"
                                ),
                            );
                        }
                        answers.push((gspec, g, Some(cost)));
                    }
                    Err(e) => out.violate(
                        Invariant::SolverError,
                        gspec,
                        format!("errored on a feasible instance: {e}"),
                    ),
                }
            }
            for w in chain.windows(2) {
                let ((p_lo, c_lo), (p_hi, c_hi)) = (w[0], w[1]);
                if c_hi > c_lo {
                    out.violate(
                        Invariant::MppMonotone,
                        format!("exact@mpp:{p_lo} vs exact@mpp:{p_hi}"),
                        format!(
                            "optimum rose with processors: {c_lo} at p={p_lo}, {c_hi} at p={p_hi}"
                        ),
                    );
                }
            }
        } else {
            // too large for the exact product search: the greedy
            // scheduler must still produce a certifiable schedule
            let lifted = instance.with_procs(2);
            out.solves += 1;
            match registry::solve("greedy@mpp:2", instance) {
                Ok(sol) => {
                    certify_solution(&lifted, "greedy@mpp:2", &sol, &mut out);
                    answers.push(("greedy@mpp:2".to_string(), sol, None));
                }
                Err(e) => out.violate(
                    Invariant::SolverError,
                    "greedy@mpp:2",
                    format!("errored on a feasible instance: {e}"),
                ),
            }
        }
    }

    // -- cache hit must be byte-identical to the inserted solution ------
    let cache = SolutionCache::new();
    let key = instance.canonical_key();
    let fresh_bytes = wire::write_solution("exact", &anchor);
    cache.insert_or_upgrade(key, "exact", anchor.clone(), opt);
    let hit = cache.lookup(&key, AcceptPolicy::Bound);
    let hit_bytes = hit.map(|e| wire::write_solution(&e.spec, &e.solution));
    if hit_bytes.as_ref() != Some(&fresh_bytes) {
        let detail = "the inserted key missed, or its hit serialized differently";
        out.violate(Invariant::CacheIdentity, "cache", detail.to_string());
    }

    // -- one cache for every answer, looked up per spec and relabeled ---
    // Each answer is keyed by the problem its spec pebbles, inserted in
    // an order rotated by a seed drawn from the instance (which spec's
    // answer holds a shared slot varies), and must answer every lookup.
    let seed = key.digest()[0];
    let problem_of = |spec: &str, inst: &Instance| {
        registry::solver(spec)
            .expect("harness specs parse")
            .problem(inst)
    };
    let problems: Vec<Instance> = answers.iter().map(|a| problem_of(&a.0, instance)).collect();
    let shared = SolutionCache::new();
    for i in (0..answers.len()).map(|i| (i + seed as usize % answers.len()) % answers.len()) {
        let (spec, sol, _) = &answers[i];
        let scaled = sol.scaled_cost(&problems[i]);
        shared.insert_or_upgrade(problems[i].canonical_key(), spec, sol.clone(), scaled);
    }
    let moved = relabeled(instance, seed);
    for ((spec, _, optimum), own) in answers.iter().zip(problems) {
        for (invariant, problem, optimum) in [
            (Invariant::CacheCrossSpec, own, *optimum),
            (Invariant::CacheRelabel, problem_of(spec, &moved), None),
        ] {
            let Some(hit) = shared.lookup(&problem.canonical_key(), AcceptPolicy::Bound) else {
                continue;
            };
            let detail = match (certified_cost(&problem, &hit.solution), optimum) {
                (Err(e), _) => format!("hit from {}: {e}", hit.spec),
                (Ok(cost), Some(opt)) if hit.solution.is_optimal() && cost != opt => {
                    format!("Optimal hit from {} at {cost}, optimum {opt}", hit.spec)
                }
                _ => continue,
            };
            out.violate(invariant, spec, detail);
        }
    }

    // -- wire round-trips are identities --------------------------------
    let doc = io::write_instance(instance);
    match io::parse_instance(&doc) {
        Ok(parsed) => {
            if io::write_instance(&parsed) != doc || !io::same_instance(instance, &parsed) {
                out.violate(
                    Invariant::InstanceRoundTrip,
                    "instance v1",
                    "write ∘ parse ∘ write is not the identity".to_string(),
                );
            }
        }
        Err(e) => out.violate(
            Invariant::InstanceRoundTrip,
            "instance v1",
            format!("own serialization failed to parse: {e}"),
        ),
    }
    match wire::parse_solution(&fresh_bytes) {
        Ok(ws) => {
            if wire::write_solution(&ws.spec, &ws.solution) != fresh_bytes {
                out.violate(
                    Invariant::SolutionRoundTrip,
                    "solution v1",
                    "write ∘ parse ∘ write is not the identity".to_string(),
                );
            }
        }
        Err(e) => out.violate(
            Invariant::SolutionRoundTrip,
            "solution v1",
            format!("own serialization failed to parse: {e}"),
        ),
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
