//! `gap-atlas`: worst-observed heuristic/optimal ratios per (model, spec).
//!
//! Demaine–Liu and Chan et al. (PAPERS.md) predict large approximation
//! gaps between pebbling heuristics and optima. This module measures
//! them empirically: every heuristic registry spec in [`HEUR_SPECS`] is
//! swept against the exact optimum over a fixed instance pool — the
//! perf-snapshot workload matrix plus a seeded slice of the random
//! ensembles ([`rbp_workloads::ensemble`]) — and the worst observed
//! ratio per (model, spec) is committed to `GAP_ATLAS.json` at the
//! workspace root, diffed in CI by `gap-check` exactly like
//! `BENCH_exact.json` is by `perf-check`.
//!
//! Ratios are recorded as integer **milli-ratios** (`heur·1000 / opt`,
//! floor division over ε-scaled costs) so the file stays byte-stable:
//! every input is deterministic (seeded ensembles, deterministic
//! solvers), so any diff in a committed atlas row is a real behavior
//! change in a solver, not noise. Cells whose optimum is zero cannot
//! form a ratio; they are counted per row (`zero_opt_cells`) but only a
//! heuristic that pays a positive cost where the optimum is free is
//! reported, via the `worst_zero_opt_cost` column.

use crate::perf_snapshot;
use crate::report::Table;
use rbp_core::{bounds, Instance, ModelKind};
use rbp_solvers::registry;
use rbp_workloads::ensemble::{self, EnsembleConfig, LargeConfig};
use std::io::Write as _;
use std::path::Path;

/// The atlas JSON schema id.
pub const SCHEMA: &str = "rbp-gap-atlas/v1";

/// The heuristic specs the atlas tracks against `exact`. The random
/// evictor is deliberately absent: the atlas must be deterministic to
/// be diffable.
pub const HEUR_SPECS: [&str; 6] = [
    "greedy",
    "greedy:fewest-blue-inputs/lru",
    "greedy:highest-red-ratio/fifo",
    "beam:1",
    "beam:8",
    "portfolio",
];

/// Seed for the random half of the instance pool (distinct from the
/// fuzz-soak seed: the atlas wants a stable *measurement* set, the soak
/// wants churn).
pub const ATLAS_SEED: u64 = 0xA71A5;

/// Number of seeded ensemble instances in the pool.
pub const ENSEMBLE_COUNT: usize = 200;

/// The hierarchical coarsening specs measured on the large ensemble.
/// These rows are anchored on [`bounds::best_lower_bound`] instead of
/// `exact`: the large instances (hundreds of nodes) sit far beyond the
/// exact frontier, so the atlas records coarse-UB / fractional-LB
/// milli-ratios — an *upper bound* on the true approximation gap. The
/// `optimal_cost` column of these rows therefore holds the ε-scaled
/// lower bound, not a certified optimum.
pub const COARSE_SPECS: [&str; 2] = ["coarse", "coarse:auto/greedy"];

/// Number of seeded large-ensemble instances behind the coarse rows.
pub const LARGE_ENSEMBLE_COUNT: usize = 12;

/// One worst-case row of the atlas: the largest observed
/// heuristic/optimal ratio for a (model, spec) pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GapRow {
    /// Cost-model name (`base`, `oneshot`, `nodel`, `compcost`).
    pub model: String,
    /// The heuristic registry spec.
    pub spec: String,
    /// Worst `heur·1000 / opt` over cells with a positive optimum.
    pub worst_milli: u128,
    /// The instance realizing `worst_milli`.
    pub instance: String,
    /// The heuristic's ε-scaled cost on that instance.
    pub heuristic_cost: u128,
    /// The exact optimum (ε-scaled) on that instance.
    pub optimal_cost: u128,
    /// Cells measured for this row (positive-optimum cells only).
    pub cells: usize,
    /// Cells skipped because the optimum was zero.
    pub zero_opt_cells: usize,
    /// Worst heuristic cost observed on a zero-optimum cell (0 when the
    /// heuristic also always solved those for free).
    pub worst_zero_opt_cost: u128,
}

fn kind_name(kind: ModelKind) -> &'static str {
    match kind {
        ModelKind::Base => "base",
        ModelKind::Oneshot => "oneshot",
        ModelKind::NoDel => "nodel",
        ModelKind::CompCost => "compcost",
    }
}

/// The instance pool: the perf-snapshot workload matrix (named,
/// exact-tractable by construction) plus [`ENSEMBLE_COUNT`] seeded
/// random ensemble instances covering all four models and both
/// source/sink conventions.
pub fn pool() -> Vec<(String, Instance)> {
    let mut out: Vec<(String, Instance)> = perf_snapshot::cells()
        .into_iter()
        .map(|c| (format!("{}-{}", c.workload, c.model), c.instance))
        .collect();
    let cfg = EnsembleConfig {
        max_nodes: 9,
        ..EnsembleConfig::default()
    };
    for i in 0..ENSEMBLE_COUNT {
        let g = ensemble::instance_at(ATLAS_SEED, i as u64, &cfg);
        if g.instance.is_feasible() {
            out.push((g.name, g.instance));
        }
    }
    out
}

/// The large instance pool behind the coarse rows: [`LARGE_ENSEMBLE_COUNT`]
/// seeded layered DAGs of 150–600 nodes ([`ensemble::large_layered_at`]),
/// rotating all four cost models under the Hong–Kung conventions.
pub fn large_pool() -> Vec<(String, Instance)> {
    let cfg = LargeConfig::default();
    (0..LARGE_ENSEMBLE_COUNT as u64)
        .map(|i| {
            let g = ensemble::large_layered_at(ATLAS_SEED, i, &cfg);
            (g.name, g.instance)
        })
        .collect()
}

/// Sweeps [`COARSE_SPECS`] over [`large_pool`], anchoring each ratio on
/// the fractional lower bound rather than an exact optimum (see
/// [`COARSE_SPECS`]). Folds into one [`GapRow`] per (model, spec), same
/// shape and sort order as [`measure`] so the rows merge into the same
/// atlas file.
pub fn measure_coarse() -> Vec<GapRow> {
    let pool = large_pool();
    let mut rows: Vec<GapRow> = Vec::new();
    for kind in ModelKind::ALL {
        for spec in COARSE_SPECS {
            rows.push(GapRow {
                model: kind_name(kind).to_string(),
                spec: spec.to_string(),
                worst_milli: 0,
                instance: String::new(),
                heuristic_cost: 0,
                optimal_cost: 0,
                cells: 0,
                zero_opt_cells: 0,
                worst_zero_opt_cost: 0,
            });
        }
    }
    for (name, inst) in &pool {
        let lb = inst.scaled_cost(&bounds::best_lower_bound(inst));
        let model = kind_name(inst.model().kind());
        for spec in COARSE_SPECS {
            let coarse = registry::solve(spec, inst)
                .expect("coarse cannot exhaust resources on the large pool");
            let cost = coarse.scaled_cost(inst);
            let row = rows
                .iter_mut()
                .find(|r| r.model == model && r.spec == spec)
                .expect("row pre-seeded");
            if lb == 0 {
                row.zero_opt_cells += 1;
                row.worst_zero_opt_cost = row.worst_zero_opt_cost.max(cost);
                continue;
            }
            row.cells += 1;
            let milli = cost * 1000 / lb;
            if milli > row.worst_milli {
                row.worst_milli = milli;
                row.instance = name.clone();
                row.heuristic_cost = cost;
                row.optimal_cost = lb;
            }
        }
    }
    rows.retain(|r| r.cells > 0 || r.zero_opt_cells > 0);
    rows
}

/// Sweeps the pool and folds it into one [`GapRow`] per (model, spec).
/// Rows come out sorted by (model, spec) so the JSON is byte-stable.
pub fn measure() -> Vec<GapRow> {
    let pool = pool();
    let mut rows: Vec<GapRow> = Vec::new();
    for kind in ModelKind::ALL {
        for spec in HEUR_SPECS {
            rows.push(GapRow {
                model: kind_name(kind).to_string(),
                spec: spec.to_string(),
                worst_milli: 0,
                instance: String::new(),
                heuristic_cost: 0,
                optimal_cost: 0,
                cells: 0,
                zero_opt_cells: 0,
                worst_zero_opt_cost: 0,
            });
        }
    }
    for (name, inst) in &pool {
        let anchor = registry::solve("exact", inst).expect("pool instances are feasible");
        if !anchor.is_optimal() {
            // a budget-degraded anchor would poison every ratio
            continue;
        }
        let opt = anchor.scaled_cost(inst);
        let model = kind_name(inst.model().kind());
        for spec in HEUR_SPECS {
            let heur = registry::solve(spec, inst)
                .expect("heuristics cannot exhaust resources on the pool");
            let cost = heur.scaled_cost(inst);
            let row = rows
                .iter_mut()
                .find(|r| r.model == model && r.spec == spec)
                .expect("row pre-seeded");
            if opt == 0 {
                row.zero_opt_cells += 1;
                row.worst_zero_opt_cost = row.worst_zero_opt_cost.max(cost);
                continue;
            }
            row.cells += 1;
            let milli = cost * 1000 / opt;
            if milli > row.worst_milli {
                row.worst_milli = milli;
                row.instance = name.clone();
                row.heuristic_cost = cost;
                row.optimal_cost = opt;
            }
        }
    }
    rows.retain(|r| r.cells > 0 || r.zero_opt_cells > 0);
    rows.extend(measure_coarse());
    rows.sort_by(|a, b| (&a.model, &a.spec).cmp(&(&b.model, &b.spec)));
    rows
}

/// Writes the atlas as `<dir>/GAP_ATLAS.json` and returns the path.
pub fn write_json(rows: &[GapRow], dir: &Path) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("GAP_ATLAS.json");
    let mut f = std::fs::File::create(&path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"schema\": \"{SCHEMA}\",")?;
    writeln!(
        f,
        "  \"description\": \"worst observed heuristic/optimal milli-ratios per (model, spec); \
         deterministic — regenerate with `cargo run --release -p rbp-bench --bin experiments -- \
         gap-atlas`, diff with `... -- gap-check`\","
    )?;
    writeln!(f, "  \"seed\": {ATLAS_SEED},")?;
    writeln!(f, "  \"ensemble_count\": {ENSEMBLE_COUNT},")?;
    writeln!(f, "  \"rows\": [")?;
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        writeln!(
            f,
            "    {{\"model\": \"{}\", \"spec\": \"{}\", \"worst_milli\": {}, \
             \"instance\": \"{}\", \"heuristic_cost\": {}, \"optimal_cost\": {}, \
             \"cells\": {}, \"zero_opt_cells\": {}, \"worst_zero_opt_cost\": {}}}{}",
            r.model,
            r.spec,
            r.worst_milli,
            r.instance,
            r.heuristic_cost,
            r.optimal_cost,
            r.cells,
            r.zero_opt_cells,
            r.worst_zero_opt_cost,
            comma
        )?;
    }
    writeln!(f, "  ]")?;
    writeln!(f, "}}")?;
    Ok(path)
}

fn print_table(rows: &[GapRow]) {
    let mut table = Table::new(
        "gap-atlas — worst heuristic/optimal ratios (milli, over positive-optimum cells)",
        &[
            "model",
            "spec",
            "worst",
            "instance",
            "heur",
            "opt",
            "cells",
            "opt=0",
            "worst@opt=0",
        ],
    );
    for r in rows {
        table.row_strings(vec![
            r.model.clone(),
            r.spec.clone(),
            format!("{}.{:03}", r.worst_milli / 1000, r.worst_milli % 1000),
            r.instance.clone(),
            r.heuristic_cost.to_string(),
            r.optimal_cost.to_string(),
            r.cells.to_string(),
            r.zero_opt_cells.to_string(),
            r.worst_zero_opt_cost.to_string(),
        ]);
    }
    table.print();
}

/// Runs the sweep and writes `<dir>/GAP_ATLAS.json`.
pub fn run(dir: &Path) {
    let rows = measure();
    print_table(&rows);
    let path = write_json(&rows, dir).expect("write GAP_ATLAS.json");
    println!("  wrote {}", path.display());
}

// ---------------------------------------------------------------------
// gap-check: diff a fresh atlas against the committed baseline
// ---------------------------------------------------------------------

/// Parses a committed `GAP_ATLAS.json` (own fixed format, no JSON
/// dependency). `None` when the schema line is missing or wrong.
pub fn parse_atlas(json: &str) -> Option<Vec<GapRow>> {
    if !json.contains(&format!("\"schema\": \"{SCHEMA}\"")) {
        return None;
    }
    let mut rows = Vec::new();
    for line in json.lines() {
        if !line.trim_start().starts_with("{\"model\"") {
            continue;
        }
        rows.push(GapRow {
            model: perf_snapshot::str_field(line, "model")?,
            spec: perf_snapshot::str_field(line, "spec")?,
            worst_milli: perf_snapshot::num_field(line, "worst_milli")?,
            instance: perf_snapshot::str_field(line, "instance")?,
            heuristic_cost: perf_snapshot::num_field(line, "heuristic_cost")?,
            optimal_cost: perf_snapshot::num_field(line, "optimal_cost")?,
            cells: perf_snapshot::num_field(line, "cells")? as usize,
            zero_opt_cells: perf_snapshot::num_field(line, "zero_opt_cells")? as usize,
            worst_zero_opt_cost: perf_snapshot::num_field(line, "worst_zero_opt_cost")?,
        });
    }
    Some(rows)
}

/// The `HEAD`-committed atlas, when `dir` is inside a git checkout.
fn git_show_baseline(dir: &Path) -> Option<String> {
    let out = std::process::Command::new("git")
        .arg("-C")
        .arg(dir)
        .args(["show", "HEAD:GAP_ATLAS.json"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout).ok()
}

/// `gap-check`: diffs a fresh atlas against the committed
/// `GAP_ATLAS.json`, emitting one `::error::` annotation per row whose
/// worst ratio **grew** (a heuristic regression) and an informational
/// line per row that improved. Rows present on only one side are
/// warn-and-skip — never counted — so adding a spec or a model extends
/// the atlas without breaking CI. Returns the number of regressed rows;
/// the `experiments` binary exits non-zero when it is positive.
///
/// With `GAP_CHECK_REUSE_ATLAS=1` (set by the CI job right after its
/// `gap-atlas` step) the on-disk file is reused as the fresh side
/// instead of re-running the sweep.
pub fn check(dir: &Path) -> usize {
    let path = dir.join("GAP_ATLAS.json");
    let disk = std::fs::read_to_string(&path).ok();
    let Some(committed) = git_show_baseline(dir).or_else(|| disk.clone()) else {
        println!(
            "gap-check: no committed {} — nothing to diff",
            path.display()
        );
        return 0;
    };
    let Some(baseline) = parse_atlas(&committed) else {
        println!(
            "gap-check: {} is not schema {SCHEMA}; regenerate with `experiments gap-atlas`",
            path.display()
        );
        return 0;
    };
    let reuse = std::env::var("GAP_CHECK_REUSE_ATLAS").is_ok_and(|v| v == "1");
    let fresh = match disk.as_deref().filter(|d| reuse && *d != committed) {
        Some(regenerated) => match parse_atlas(regenerated) {
            Some(rows) => {
                println!("gap-check: reusing the regenerated on-disk atlas as the fresh side");
                rows
            }
            None => measure(),
        },
        None => measure(),
    };
    let mut regressed = 0;
    for new in &fresh {
        let Some(old) = baseline
            .iter()
            .find(|r| r.model == new.model && r.spec == new.spec)
        else {
            println!(
                "gap-check: new row {}/{} (no baseline; skipped)",
                new.model, new.spec
            );
            continue;
        };
        if new.worst_milli > old.worst_milli {
            regressed += 1;
            println!(
                "::error title=approximation gap grew::{}/{}: worst ratio {} milli vs \
                 committed {} (on {})",
                new.model, new.spec, new.worst_milli, old.worst_milli, new.instance
            );
        } else if new.worst_milli < old.worst_milli {
            println!(
                "gap-check: {}/{} improved: {} milli vs committed {}",
                new.model, new.spec, new.worst_milli, old.worst_milli
            );
        } else {
            println!(
                "gap-check: {}/{} unchanged ({} milli)",
                new.model, new.spec, new.worst_milli
            );
        }
    }
    for old in &baseline {
        if !fresh
            .iter()
            .any(|r| r.model == old.model && r.spec == old.spec)
        {
            println!(
                "gap-check: baseline row {}/{} no longer measured (skipped)",
                old.model, old.spec
            );
        }
    }
    println!(
        "gap-check: {regressed} regressed row(s) out of {} measured",
        fresh.len()
    );
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atlas_roundtrips_through_the_parser() {
        let rows = vec![
            GapRow {
                model: "base".into(),
                spec: "greedy".into(),
                worst_milli: 2500,
                instance: "matmul-base".into(),
                heuristic_cost: 25,
                optimal_cost: 10,
                cells: 12,
                zero_opt_cells: 3,
                worst_zero_opt_cost: 4,
            },
            GapRow {
                model: "oneshot".into(),
                spec: "beam:8".into(),
                worst_milli: 1000,
                instance: "chain-oneshot".into(),
                heuristic_cost: 7,
                optimal_cost: 7,
                cells: 9,
                zero_opt_cells: 0,
                worst_zero_opt_cost: 0,
            },
        ];
        let dir = std::env::temp_dir().join(format!("rbp_gap_atlas_test_{}", std::process::id()));
        let path = write_json(&rows, &dir).unwrap();
        let json = std::fs::read_to_string(path).unwrap();
        assert!(json.contains("\"schema\": \"rbp-gap-atlas/v1\""));
        let parsed = parse_atlas(&json).expect("own output must parse");
        assert_eq!(parsed, rows);
        assert!(parse_atlas("{\"schema\": \"rbp-gap-atlas/v0\"}").is_none());
    }

    #[test]
    fn pool_covers_all_models_and_is_deterministic() {
        let a = pool();
        let b = pool();
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|((n1, i1), (n2, i2))| { n1 == n2 && i1.canonical_key() == i2.canonical_key() }));
        for kind in ModelKind::ALL {
            assert!(
                a.iter().any(|(_, i)| i.model().kind() == kind),
                "pool misses model {kind:?}"
            );
        }
        assert!(a.len() > 100, "pool too small to be an atlas");
    }

    #[test]
    fn coarse_rows_anchor_on_a_positive_bound() {
        // the large pool runs under InitiallyBlue + RequireBlue, so the
        // fractional bound forces transfers — every coarse ratio is a
        // real UB/LB bracket, never a division guard
        let mut pool = large_pool();
        assert_eq!(pool.len(), LARGE_ENSEMBLE_COUNT);
        let (name, inst) = pool.swap_remove(0);
        let lb = inst.scaled_cost(&bounds::best_lower_bound(&inst));
        assert!(lb > 0, "{name}: conventions must force transfers");
        for spec in COARSE_SPECS {
            let cost = registry::solve(spec, &inst).unwrap().scaled_cost(&inst);
            assert!(cost >= lb, "{spec} beat the lower bound on {name}");
        }
    }

    #[test]
    fn measure_on_a_tiny_pool_reports_sane_ratios() {
        // a heuristic can never beat the optimum, so every ratio is
        // >= 1000 milli; exercised through the public sweep on two
        // cheap named cells by shrinking the pool via direct calls
        let inst = Instance::new(
            rbp_graph::generate::chain(8),
            2,
            rbp_core::CostModel::oneshot(),
        );
        let opt = registry::solve("exact", &inst).unwrap();
        assert!(opt.is_optimal());
        let opt_cost = opt.scaled_cost(&inst);
        for spec in HEUR_SPECS {
            let heur = registry::solve(spec, &inst).unwrap().scaled_cost(&inst);
            assert!(
                heur >= opt_cost,
                "{spec} beat the optimum: {heur} < {opt_cost}"
            );
        }
    }
}
