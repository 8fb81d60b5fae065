//! # rbp-verify
//!
//! The adversarial verification engine: the permanent safety net every
//! model/solver refactor must pass before landing.
//!
//! Papp–Wattenhofer's results are hardness claims, so this repository
//! carries several solver families (exact, greedy, beam, portfolio,
//! coarse, and the multiprocessor pair) that can silently disagree in
//! ways no single unit test catches. This crate turns their redundancy
//! into an oracle:
//!
//! - [`harness`]: the differential invariant lattice — every registry
//!   spec is run over each instance and checked against the exact
//!   optimum (`Optimal` agreement for every spec, `reference` and
//!   `exact:unseeded` included, heuristic domination,
//!   budget-degradation brackets, cache hits that are byte-identical
//!   and certify across specs and relabelings, wire round-trip
//!   identity), with every returned trace re-executed by the
//!   **independent certifier** ([`mod@rbp_core::certify`]) that shares
//!   no code with the solvers or the engine;
//! - [`mod@shrink`]: greedy minimization of any violating DAG, persisted as
//!   a replayable `instance v1` counterexample under
//!   `results/counterexamples/`;
//! - [`ensemble_report`] / [`gadget_instances`]: the seeded random
//!   ensembles ([`rbp_workloads::ensemble`]) and the paper's gadget
//!   families, composed into one soak;
//! - `fuzz-soak` (the crate's binary): the CI entry point — fixed seed,
//!   bounded wall-clock, exits non-zero on any violation or certifier
//!   rejection, writes counterexample artifacts.
//!
//! ## Replaying a counterexample
//!
//! ```text
//! cargo run --release -p rbp-verify --bin fuzz-soak -- \
//!     --replay results/counterexamples/<name>.instance
//! ```
//!
//! Counterexample files are ordinary `instance v1` documents whose
//! leading `#` comments describe the violations observed when they
//! were minimized; the parser ignores comments, so the same file feeds
//! straight back into the harness (or into `rbp-service` for a
//! server-side reproduction).

pub mod harness;
pub mod shrink;

pub use harness::{
    check_instance, HarnessConfig, InstanceOutcome, Invariant, Report, Violation, SPECS,
};
pub use shrink::{shrink, write_counterexample};

use rbp_core::{CostModel, Instance};
use rbp_workloads::ensemble::{self, EnsembleConfig};

/// Small instances of every gadget and workload family, across models —
/// the deterministic half of the soak (the random ensembles are the
/// other half). Sizes are chosen so the full lattice (including the
/// unpruned reference solver) stays fast per instance.
pub fn gadget_instances() -> Vec<(String, Instance)> {
    let mut out: Vec<(String, Instance)> = Vec::new();
    let kind_name = |model: CostModel| match model.kind() {
        rbp_core::ModelKind::Base => "base",
        rbp_core::ModelKind::Oneshot => "oneshot",
        rbp_core::ModelKind::NoDel => "nodel",
        rbp_core::ModelKind::CompCost => "compcost",
    };
    let mut push = |name: &str, dag: rbp_graph::Dag, extra_r: usize, model: CostModel| {
        let base = Instance::new(dag, 1, model);
        let inst = base.with_red_limit(base.min_feasible_r() + extra_r);
        out.push((format!("{name}-{}", kind_name(model)), inst));
    };
    for model in [CostModel::base(), CostModel::oneshot(), CostModel::nodel()] {
        push("pyramid-h3", rbp_gadgets::pyramid::build(3).dag, 0, model);
        push(
            "tradeoff-d2",
            rbp_gadgets::tradeoff::build(2, 3).dag,
            1,
            model,
        );
        push(
            "stencil-3x2",
            rbp_workloads::stencil::build(3, 2, 1).dag,
            1,
            model,
        );
        push("tree-4x2", rbp_workloads::tree::build(4, 2).dag, 0, model);
        push("chain-6", rbp_graph::generate::chain(6), 1, model);
    }
    // the heavier families once each, under the model they were built
    // for — sizes stay within what the full exact lattice solves in
    // milliseconds (the 30-node greedy grid and 20-node matmul DAGs
    // belong to the gap atlas, not the per-instance differential soak)
    push(
        "fft-log2",
        rbp_workloads::fft::build(2).dag,
        1,
        CostModel::oneshot(),
    );
    push(
        "cd-ladder-2x2",
        rbp_gadgets::cd::build(2, 2).dag,
        0,
        CostModel::oneshot(),
    );
    push(
        "pyramid-h4",
        rbp_gadgets::pyramid::build(4).dag,
        1,
        CostModel::compcost(),
    );
    out
}

/// Runs the harness over the gadget set plus `count` seeded random
/// ensemble instances, folding everything into one [`Report`].
///
/// `on_violation` fires once per violating instance with its name, the
/// instance, and the violations — the fuzz-soak binary uses it to
/// shrink and persist counterexamples; tests pass a closure that
/// panics.
pub fn ensemble_report<F>(
    base_seed: u64,
    count: usize,
    harness_cfg: &HarnessConfig,
    ensemble_cfg: &EnsembleConfig,
    mut on_violation: F,
) -> Report
where
    F: FnMut(&str, &Instance, &[Violation]),
{
    let mut report = Report::default();
    for (name, inst) in gadget_instances() {
        let outcome = check_instance(&inst, harness_cfg);
        if !outcome.clean() {
            on_violation(&name, &inst, &outcome.violations);
        }
        report.absorb(outcome);
    }
    for g in ensemble::stream(base_seed, *ensemble_cfg).take(count) {
        if !g.instance.is_feasible() {
            report.skipped_infeasible += 1;
            continue;
        }
        let outcome = check_instance(&g.instance, harness_cfg);
        if !outcome.clean() {
            on_violation(&g.name, &g.instance, &outcome.violations);
        }
        report.absorb(outcome);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gadget_set_is_clean_and_diverse() {
        let cfg = HarnessConfig::default();
        let mut violations = Vec::new();
        for (name, inst) in gadget_instances() {
            assert!(inst.is_feasible(), "{name} must be feasible");
            let out = check_instance(&inst, &cfg);
            for v in out.violations {
                violations.push(format!("{name}: {v}"));
            }
        }
        assert!(violations.is_empty(), "gadget violations: {violations:#?}");
    }
}
