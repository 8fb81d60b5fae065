//! Greedy counterexample minimization.
//!
//! When the harness finds a violating instance, [`shrink`] reduces it
//! to a local minimum while the caller's *still-failing* predicate
//! holds: repeatedly try deleting one node (with its incident edges)
//! or one edge, keep any reduction that still fails, and stop at a
//! fixpoint where no single deletion preserves the failure. Candidates
//! that become infeasible are naturally rejected — the harness returns
//! a clean outcome for them, so the predicate turns false.
//!
//! [`write_counterexample`] persists the minimized instance as a
//! replayable `instance v1` document under `results/counterexamples/`,
//! with the violations recorded as `#` comment lines (the parser
//! ignores them), so `fuzz-soak --replay <file>` reproduces the failure
//! directly.

use crate::harness::Violation;
use rbp_core::{io, Instance};
use rbp_graph::{Dag, DagBuilder};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Rebuilds the DAG without node `victim`, dropping its incident edges
/// and shifting higher ids down by one.
fn remove_node(dag: &Dag, victim: usize) -> Option<Dag> {
    let n = dag.n();
    if n <= 1 {
        return None;
    }
    let mut b = DagBuilder::new(n - 1);
    let remap = |v: usize| if v > victim { v - 1 } else { v };
    for (u, v) in dag.edges() {
        let (u, v) = (u.index(), v.index());
        if u != victim && v != victim {
            b.add_edge(remap(u), remap(v));
        }
    }
    b.build().ok()
}

/// Rebuilds the DAG without the `skip`-th edge (in [`Dag::edges`]
/// order).
fn remove_edge(dag: &Dag, skip: usize) -> Option<Dag> {
    let mut b = DagBuilder::new(dag.n());
    for (i, (u, v)) in dag.edges().enumerate() {
        if i != skip {
            b.add_edge(u.index(), v.index());
        }
    }
    b.build().ok()
}

/// Same parameters, MPP dimension included, different DAG.
pub(crate) fn with_dag(instance: &Instance, dag: Dag) -> Instance {
    let out = Instance::new(dag, instance.red_limit(), instance.model())
        .with_source_convention(instance.source_convention())
        .with_sink_convention(instance.sink_convention());
    match instance.mpp() {
        Some(dim) => out.with_mpp(dim),
        None => out,
    }
}

/// Minimizes `instance` under `still_fails`, which must return `true`
/// for the input instance (and for any reduction that preserves the
/// violation being chased). Returns the fixpoint instance and the
/// number of successful reduction steps.
pub fn shrink<F>(instance: &Instance, still_fails: F) -> (Instance, usize)
where
    F: Fn(&Instance) -> bool,
{
    let mut current = instance.clone();
    let mut steps = 0usize;
    loop {
        let mut reduced = None;
        // prefer node deletions: they shrink fastest
        for victim in 0..current.dag().n() {
            if let Some(dag) = remove_node(current.dag(), victim) {
                let candidate = with_dag(&current, dag);
                if still_fails(&candidate) {
                    reduced = Some(candidate);
                    break;
                }
            }
        }
        if reduced.is_none() {
            let m = current.dag().num_edges();
            for skip in 0..m {
                if let Some(dag) = remove_edge(current.dag(), skip) {
                    let candidate = with_dag(&current, dag);
                    if still_fails(&candidate) {
                        reduced = Some(candidate);
                        break;
                    }
                }
            }
        }
        // finally try tightening R to the feasibility threshold
        if reduced.is_none() && current.red_limit() > current.min_feasible_r() {
            let candidate = current.with_red_limit(current.red_limit() - 1);
            if still_fails(&candidate) {
                reduced = Some(candidate);
            }
        }
        match reduced {
            Some(next) => {
                current = next;
                steps += 1;
            }
            None => return (current, steps),
        }
    }
}

/// Writes `instance` with its violations as a replayable counterexample
/// file `<dir>/<name>.instance` and returns the path. The violations
/// ride along as `#` comments, so the file still parses with
/// [`rbp_core::parse_instance`].
pub fn write_counterexample(
    dir: &Path,
    name: &str,
    instance: &Instance,
    violations: &[Violation],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.instance"));
    let mut f = std::fs::File::create(&path)?;
    writeln!(f, "# counterexample: {name}")?;
    for v in violations {
        writeln!(f, "# violation: {v}")?;
    }
    writeln!(
        f,
        "# replay: cargo run --release -p rbp-verify --bin fuzz-soak -- --replay <this file>"
    )?;
    f.write_all(io::write_instance(instance).as_bytes())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Invariant;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rbp_core::CostModel;
    use rbp_graph::generate;

    #[test]
    fn shrinks_to_a_minimal_witness() {
        // chase an artificial "violation": the DAG contains a node with
        // indegree ≥ 2. The minimal witness is 3 nodes and 2 edges.
        let mut rng = StdRng::seed_from_u64(5);
        let dag = generate::layered(4, 4, 3, &mut rng);
        let inst = Instance::new(dag, 8, CostModel::base());
        let fails = |i: &Instance| i.dag().nodes().any(|v| i.dag().indegree(v) >= 2);
        assert!(fails(&inst));
        let (small, steps) = shrink(&inst, fails);
        assert!(fails(&small), "shrinking must preserve the failure");
        assert_eq!(small.dag().n(), 3, "minimal witness is a 2-into-1 join");
        assert_eq!(small.dag().num_edges(), 2);
        assert!(steps > 0);
        assert_eq!(
            small.red_limit(),
            small.min_feasible_r(),
            "R tightened to the feasibility threshold"
        );
    }

    #[test]
    fn counterexample_files_replay() {
        let mut b = rbp_graph::DagBuilder::new(3);
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        let inst = Instance::new(b.build().unwrap(), 3, CostModel::nodel());
        let violations = vec![Violation {
            invariant: Invariant::HeuristicDominated,
            spec: "greedy".to_string(),
            detail: "synthetic".to_string(),
        }];
        let dir = std::env::temp_dir().join("rbp-verify-shrink-test");
        let path = write_counterexample(&dir, "synthetic", &inst, &violations).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("# violation: [heuristic-dominated]"));
        let parsed = rbp_core::parse_instance(&text).expect("comments must not break parsing");
        assert!(rbp_core::io::same_instance(&inst, &parsed));
        std::fs::remove_dir_all(&dir).ok();
    }
}
