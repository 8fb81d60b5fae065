//! Golden answers of every deterministic registry spec: a 64-bit
//! `FxHasher` digest of the `solution v1` document that
//! `wire::write_solution` renders (trace, cost, quality and stats) per
//! (instance, spec). A change that claims to keep solver behaviour must
//! leave every document byte-identical, counters included.
//!
//! The digests live in `solution_golden.txt`, one `instance spec digest`
//! line each. `exact-parallel:2`, an alias of `exact`, is pinned on its
//! scaled cost and quality only: its rows were recorded when it named a
//! thread-timed parallel search.
//!
//! Some rows only run optimized (`cargo test --release`): the exact
//! specs on the matmul cells (about 10^6 states each, with a full
//! metadata rescan per intern in debug builds), `exact@mpp:2` on the
//! classic perf cells (the two-plane search takes 10–30 s per grid or
//! fft cell unoptimized), the scale-out cells and the large layered
//! draws. `exact@mpp:2` never runs on the matmul cells, where it takes
//! 10–30 s even optimized. A failing test prints its recomputed lines
//! in the table's format.

use rbp_bench::perf_snapshot;
use rbp_core::{Instance, ModelKind, SinkConvention, SourceConvention};
use rbp_graph::hash::FxHasher;
use rbp_solvers::{registry, wire};
use rbp_workloads::ensemble::{self, EnsembleConfig, LargeConfig};
use std::collections::HashMap;
use std::hash::Hasher;

/// Every deterministic spec pinned on the perf cells and ensemble draws:
/// the nine default portfolio members, a seeded random eviction, and
/// one of each other family.
const SPECS: [&str; 18] = [
    "greedy:most-red-inputs/min-uses",
    "greedy:most-red-inputs/lru",
    "greedy:most-red-inputs/fifo",
    "greedy:fewest-blue-inputs/min-uses",
    "greedy:fewest-blue-inputs/lru",
    "greedy:fewest-blue-inputs/fifo",
    "greedy:highest-red-ratio/min-uses",
    "greedy:highest-red-ratio/lru",
    "greedy:highest-red-ratio/fifo",
    "greedy:most-red-inputs/random(7)",
    "portfolio",
    "beam:8",
    "coarse",
    "coarse:3/greedy",
    "exact",
    "exact:unseeded",
    "greedy@mpp:2",
    "exact@mpp:2",
];

/// The specs pinned on the scale-out cells, where no exact spec reaches.
const COARSE_SPECS: [&str; 3] = ["greedy", "portfolio", "coarse"];

/// The spec whose answers are pinned on cost and quality only.
const PARALLEL: &str = "exact-parallel:2";

/// Seeds of the classic and the multiprocessor ensemble draws.
const ENSEMBLE_SEED: u64 = 14;
const MPP_ENSEMBLE_SEED: u64 = 1414;
/// Seed of the large layered draws, which only the heuristic specs
/// (every spec of [`SPECS`] that is neither exact nor multiprocessor)
/// answer.
const LARGE_SEED: u64 = 1616;

fn golden() -> HashMap<(String, String), u64> {
    include_str!("solution_golden.txt")
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(f.len(), 3, "malformed golden line {l:?}");
            let digest = u64::from_str_radix(f[2].trim_start_matches("0x"), 16)
                .unwrap_or_else(|_| panic!("bad digest in {l:?}"));
            ((f[0].to_string(), f[1].to_string()), digest)
        })
        .collect()
}

/// The `solution v1` document `spec` answers on `inst` (for
/// [`PARALLEL`], only its scaled cost and quality line), or the error it
/// reports.
fn answer(spec: &str, inst: &Instance) -> String {
    match registry::solve(spec, inst) {
        Ok(sol) if spec == PARALLEL => {
            let doc = wire::write_solution(spec, &sol);
            let quality = doc.lines().find(|l| l.starts_with("quality "));
            format!("scaled {}\n{}\n", sol.scaled_cost(inst), quality.unwrap())
        }
        Ok(sol) => wire::write_solution(spec, &sol),
        Err(e) => format!("error {e}\n"),
    }
}

fn digest(doc: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(doc.as_bytes());
    h.finish()
}

/// Digests `spec` on each labelled instance and compares against the
/// table; panics listing every recomputed line when any row differs.
fn check(rows: &[(String, &Instance, &str)]) {
    let table = golden();
    let mut lines = Vec::new();
    let mut wrong = Vec::new();
    for (label, inst, spec) in rows {
        let got = digest(&answer(spec, inst));
        lines.push(format!("{label} {spec} {got:#018x}"));
        match table.get(&(label.clone(), spec.to_string())) {
            Some(&want) if want == got => {}
            Some(&want) => wrong.push(format!(
                "{label} {spec}: {got:#018x}, recorded {want:#018x}"
            )),
            None => wrong.push(format!("{label} {spec}: no recorded digest")),
        }
    }
    assert!(
        wrong.is_empty(),
        "{} of {} answers moved:\n{}\nrecomputed:\n{}",
        wrong.len(),
        rows.len(),
        wrong.join("\n"),
        lines.join("\n")
    );
}

/// Whether `spec` runs an exact search.
fn is_exact(spec: &str) -> bool {
    spec.starts_with("exact") || spec == "reference"
}

/// The perf cells plus the multiprocessor cells, labelled
/// `workload/model`.
fn cells() -> Vec<(String, Instance)> {
    perf_snapshot::cells()
        .into_iter()
        .chain(perf_snapshot::mpp_cells())
        .map(|c| (format!("{}/{}", c.workload, c.model), c.instance))
        .collect()
}

/// 32 classic and 16 multiprocessor ensemble draws, labelled by name.
fn draws() -> Vec<(String, Instance)> {
    let cfg = EnsembleConfig::default();
    let classic = (0..32).map(|i| ensemble::instance_at(ENSEMBLE_SEED, i, &cfg));
    let mpp = (0..16).map(|i| ensemble::mpp_instance_at(MPP_ENSEMBLE_SEED, i, &cfg));
    classic
        .chain(mpp)
        .map(|g| (format!("ens/{}", g.name), g.instance))
        .collect()
}

#[test]
fn perf_cells_match_the_golden_table() {
    let cells = cells();
    let mut rows = Vec::new();
    for (label, inst) in &cells {
        let matmul = label.starts_with("matmul/");
        for spec in SPECS {
            let product = spec == "exact@mpp:2" && !label.contains("-mpp/");
            let skip = if cfg!(debug_assertions) {
                (matmul && is_exact(spec)) || product
            } else {
                matmul && product
            };
            if !skip {
                rows.push((label.clone(), inst, spec));
            }
        }
        if label.contains("-mpp/") {
            rows.push((label.clone(), inst, "reference"));
        }
    }
    check(&rows);
}

#[test]
fn ensemble_draws_match_the_golden_table() {
    let draws = draws();
    // the draws cover the conventions, compcost and weighted objectives
    let insts: Vec<&Instance> = draws.iter().map(|(_, i)| i).collect();
    assert!(insts
        .iter()
        .any(|i| i.source_convention() == SourceConvention::InitiallyBlue));
    assert!(insts
        .iter()
        .any(|i| i.sink_convention() == SinkConvention::RequireBlue));
    assert!(insts
        .iter()
        .any(|i| i.model().kind() == ModelKind::CompCost));
    assert!(insts.iter().any(|i| i.procs() == 1 && i.mpp().is_some()));
    assert!(insts.iter().any(|i| i.procs() > 1));
    let mut rows = Vec::new();
    for (label, inst) in &draws {
        for spec in SPECS {
            rows.push((label.clone(), inst, spec));
        }
    }
    check(&rows);
}

#[test]
fn scale_out_cells_match_the_golden_table() {
    if cfg!(debug_assertions) {
        return;
    }
    let cells: Vec<(String, Instance)> = perf_snapshot::coarse_cells()
        .into_iter()
        .map(|c| (format!("{}/{}", c.workload, c.model), c.instance))
        .collect();
    let mut rows = Vec::new();
    for (label, inst) in &cells {
        for spec in COARSE_SPECS {
            rows.push((label.clone(), inst, spec));
        }
    }
    check(&rows);
}

#[test]
fn large_layered_draws_match_the_golden_table() {
    if cfg!(debug_assertions) {
        return;
    }
    let cfg = LargeConfig::default();
    let draws: Vec<(String, Instance)> = (0..8)
        .map(|i| ensemble::large_layered_at(LARGE_SEED, i, &cfg))
        .map(|g| (format!("ens/{}", g.name), g.instance))
        .collect();
    let mut rows = Vec::new();
    for (label, inst) in &draws {
        for spec in SPECS {
            if !is_exact(spec) && !spec.contains('@') {
                rows.push((label.clone(), inst, spec));
            }
        }
    }
    check(&rows);
}

#[test]
fn exact_parallel_cost_and_quality_match_the_golden_table() {
    let all: Vec<(String, Instance)> = cells().into_iter().chain(draws()).collect();
    let rows: Vec<_> = all
        .iter()
        .filter(|(label, _)| !(cfg!(debug_assertions) && label.starts_with("matmul/")))
        .map(|(label, inst)| (label.clone(), inst, PARALLEL))
        .collect();
    check(&rows);
}
