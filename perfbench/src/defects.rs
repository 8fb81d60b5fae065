//! Reproduces the two cache defects the workloads steer clear of, so
//! their fix can be checked: `perfbench defects`.
//!
//! (a) A relabeled repeat hits the cache and is answered with the first
//!     submitter's node ids.
//! (b) `exact@mpp:2` on a classic document caches a p = 2 trace under
//!     the classic key, which a later classic `exact` is served.

use rbp_core::{certify, CostModel, Instance};
use rbp_graph::{Dag, DagBuilder};
use rbp_service::{Event, JobOptions, JobRequest, Server, ServerConfig};
use rbp_solvers::Solution;

fn chain(edges: &[(usize, usize)]) -> Dag {
    let mut b = DagBuilder::new(4);
    for &(u, v) in edges {
        b.add_edge(u, v);
    }
    b.build().expect("a chain is acyclic")
}

/// Solves one job on `server` and returns (cached, solution).
fn solve(
    server: &Server,
    id: &str,
    spec: &str,
    instance: &Instance,
) -> Result<(bool, Solution), String> {
    let events = server
        .submit_collect(JobRequest {
            id: id.into(),
            spec: spec.into(),
            instance: instance.clone(),
            options: JobOptions::default(),
        })
        .map_err(|e| e.to_string())?;
    match events.iter().find(Event::is_terminal) {
        Some(Event::Done {
            cached, solution, ..
        }) => Ok((cached, solution)),
        other => Err(format!("{id}: {other:?}")),
    }
}

/// Runs both reproductions and prints whether each defect is present.
pub fn run() -> Result<(), String> {
    let server = Server::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });

    let first = Instance::new(chain(&[(0, 1), (1, 2), (2, 3)]), 2, CostModel::base());
    let relabeled = Instance::new(chain(&[(2, 0), (0, 3), (3, 1)]), 2, CostModel::base());
    solve(&server, "a1", "exact", &first)?;
    let (cached, sol) = solve(&server, "a2", "exact", &relabeled)?;
    let verdict = certify(&relabeled, &sol.trace);
    println!(
        "(a) relabeled repeat: cached={cached}, certify: {}",
        verdict
            .as_ref()
            .map_or_else(|e| e.to_string(), |c| format!("ok, cost {}", c.scaled_cost))
    );
    println!("    {}", if verdict.is_err() { "PRESENT" } else { "fixed" });

    let pyramid = Instance::new(rbp_gadgets::pyramid::build(3).dag, 3, CostModel::nodel());
    solve(&server, "b1", "exact@mpp:2", &pyramid)?;
    let (cached, sol) = solve(&server, "b2", "exact", &pyramid)?;
    let fresh = rbp_solvers::registry::solve("exact", &pyramid).map_err(|e| e.to_string())?;
    let verdict = certify(&pyramid, &sol.trace);
    println!(
        "(b) classic exact after exact@mpp:2: cached={cached}, quality={:?}, cost {} (classic optimum {}), certify: {}",
        sol.quality,
        sol.scaled_cost(&pyramid),
        fresh.scaled_cost(&pyramid),
        verdict.as_ref().map_or_else(|e| e.to_string(), |c| format!("ok, cost {}", c.scaled_cost))
    );
    let wrong = verdict.is_err()
        || (sol.is_optimal() && sol.scaled_cost(&pyramid) != fresh.scaled_cost(&pyramid));
    println!("    {}", if wrong { "PRESENT" } else { "fixed" });
    server.shutdown();
    Ok(())
}
