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
//! Two more ids, not part of `all`, keep the committed baselines at the
//! workspace root: `perf-check` re-records `BENCH_exact.json`, the
//! exact-solver hot path of the incumbent-seeded `exact` spec (see
//! [`perf_snapshot`]), and `gap-check` re-records `GAP_ATLAS.json`, the
//! worst observed heuristic/optimal ratios per (model, spec) (see
//! [`gap_atlas`]). Each reads `HEAD`'s copy first, measures once,
//! rewrites the file and diffs the two through one gate ([`gate`]),
//! exiting non-zero on a deterministic regression (a cost that drifts, a
//! search that expands or interns more states, a worst ratio that
//! grows); timing only warns.

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
pub mod gate;
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
        // the committed baselines at the workspace root (next to
        // Cargo.lock): re-record, diff against HEAD's copy, fail on a
        // deterministic regression, warn on timing
        "perf-check" => {
            if perf_snapshot::check(&report::workspace_root()) > 0 {
                std::process::exit(1);
            }
        }
        "gap-check" => {
            if gap_atlas::check(&report::workspace_root()) > 0 {
                std::process::exit(1);
            }
        }
        other => panic!(
            "unknown experiment id '{other}'; known: {ALL_EXPERIMENTS:?} plus 'perf-check' and \
             'gap-check'"
        ),
    }
}
