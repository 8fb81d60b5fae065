//! # rbp-bench
//!
//! The experiment harness regenerating every table and figure of the
//! paper, plus Criterion benchmarks. Each `exp_*` module prints one
//! artifact's rows and writes the same data as CSV under `results/`.
//!
//! Run everything with:
//! ```text
//! cargo run --release -p rbp-bench --bin experiments -- all
//! ```
//! or a single experiment by id (`table1`, `table2`, `fig1`, `fig2`,
//! `fig4`, `fig5`, `fig67`, `fig8`, `workloads`, `ablation`).
//!
//! The extra `perf-snapshot` id (not part of `all`) records exact-solver
//! hot-path baselines of the incumbent-seeded `exact` spec to
//! `BENCH_exact.json` at the workspace root, and
//! `perf-check` diffs a fresh measurement against that committed
//! baseline — see [`perf_snapshot`]. Likewise `gap-atlas` records the
//! worst observed heuristic/optimal ratios per (model, spec) to
//! `GAP_ATLAS.json`, diffed by `gap-check` — see [`gap_atlas`]. Both
//! checks exit non-zero on a deterministic regression (a cost that
//! drifts, a search that expands or interns more states, a worst ratio
//! that grows); timing only warns.

pub mod exp_ablation;
pub mod exp_fig1;
pub mod exp_fig2;
pub mod exp_fig4;
pub mod exp_fig5;
pub mod exp_fig67;
pub mod exp_fig8;
pub mod exp_table1;
pub mod exp_table2;
pub mod exp_workloads;
pub mod gap_atlas;
pub mod perf_snapshot;
pub mod report;

use std::path::Path;

/// All experiment ids, in paper order.
pub const ALL_EXPERIMENTS: [&str; 10] = [
    "table1",
    "table2",
    "fig1",
    "fig2",
    "fig4",
    "fig5",
    "fig67",
    "fig8",
    "workloads",
    "ablation",
];

/// Dispatches one experiment by id. Panics on unknown ids.
pub fn run_experiment(id: &str, out: &Path) {
    match id {
        "table1" => exp_table1::run(out),
        "table2" => exp_table2::run(out),
        "fig1" => exp_fig1::run(out),
        "fig2" => exp_fig2::run(out),
        "fig4" => exp_fig4::run(out),
        "fig5" => exp_fig5::run(out),
        "fig67" => exp_fig67::run(out),
        "fig8" => exp_fig8::run(out),
        "workloads" => exp_workloads::run(out),
        "ablation" => exp_ablation::run(out),
        // informational perf baseline: always lands at the workspace
        // root (next to Cargo.lock) so the trajectory is tracked in git
        "perf-snapshot" => perf_snapshot::run(&report::workspace_root()),
        // diff of a fresh measurement against the committed baseline:
        // fails on cost drift or more search effort, warns on timing
        "perf-check" => {
            if perf_snapshot::check(&report::workspace_root()) > 0 {
                std::process::exit(1);
            }
        }
        // worst heuristic/optimal ratios, committed like BENCH_exact.json
        "gap-atlas" => gap_atlas::run(&report::workspace_root()),
        // diff of the atlas against the committed baseline: fails when
        // a worst ratio grows
        "gap-check" => {
            if gap_atlas::check(&report::workspace_root()) > 0 {
                std::process::exit(1);
            }
        }
        other => panic!(
            "unknown experiment id '{other}'; known: {ALL_EXPERIMENTS:?} plus 'perf-snapshot', \
             'perf-check', 'gap-atlas', and 'gap-check'"
        ),
    }
}
