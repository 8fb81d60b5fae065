//! `exact@mpp:1`-vs-classic equivalence over the full perf-snapshot
//! workload × model matrix: at one processor `exact@mpp` searches one
//! red plane with the classic rule set — the same pruned A* search as
//! `exact` — so it must prove every cell optimal at the classic `exact`
//! optimum, including the larger incumbent-tractable ones.
//!
//! Release-only: without `--release` the per-intern debug rescans put
//! the dense cells at minutes each (same policy as the exact rows on the
//! matmul cells of `solution_golden.rs`).

#![cfg(not(debug_assertions))]

use rbp_bench::perf_snapshot;
use rbp_core::engine;
use rbp_solvers::registry;

#[test]
fn full_matrix_mpp_one_proc_equals_classic_exact() {
    for case in &perf_snapshot::all_cells() {
        let inst = &case.instance;
        let mpp = registry::solve("exact@mpp:1", inst).unwrap();
        let sim = engine::simulate(inst, &mpp.trace).unwrap();
        assert_eq!(sim.cost, mpp.cost, "{}/{}", case.workload, case.model);
        assert!(
            mpp.is_optimal(),
            "{}/{}: exact@mpp:1 degraded instead of proving the optimum",
            case.workload,
            case.model
        );
        let classic = registry::solve("exact", inst).unwrap();
        assert!(classic.is_optimal());
        assert_eq!(
            mpp.scaled_cost(inst),
            classic.scaled_cost(inst),
            "{}/{}: exact@mpp:1 optimum drifted from the classic game",
            case.workload,
            case.model
        );
    }
}
