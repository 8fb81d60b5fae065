//! `gap-check`: worst-observed heuristic/optimal ratios per (model, spec).
//!
//! Demaine–Liu and Chan et al. (PAPERS.md) predict large approximation
//! gaps between pebbling heuristics and optima. This module measures
//! them empirically: every heuristic registry spec in [`HEUR_SPECS`] is
//! swept against the exact optimum over a fixed instance pool — the
//! perf-check workload matrix plus a seeded slice of the random
//! ensembles ([`rbp_workloads::ensemble`]) — and the worst observed
//! ratio per (model, spec) is committed to `GAP_ATLAS.json` at the
//! workspace root. [`check`] (`gap-check`) re-records the file and diffs
//! it against `HEAD`'s copy through the same gate ([`crate::gate`]) that
//! `perf-check` uses for `BENCH_exact.json`.
//!
//! Ratios are recorded as integer **milli-ratios** (`heur·1000 / opt`,
//! floor division over ε-scaled costs) so the file stays byte-stable:
//! every input is deterministic (seeded ensembles, deterministic
//! solvers), so any diff in a committed atlas row is a real behavior
//! change in a solver, not noise. Cells whose optimum is zero cannot
//! form a ratio; they are counted per row (`zero_opt_cells`) but only a
//! heuristic that pays a positive cost where the optimum is free is
//! reported, via the `worst_zero_opt_cost` column.

use crate::gate::{self, num_field, str_field, Row};
use crate::perf_snapshot;
use crate::report::Table;
use rbp_core::{bounds, Instance, ModelKind};
use rbp_solvers::registry;
use rbp_workloads::ensemble::{self, EnsembleConfig, LargeConfig};
use std::io::Write as _;
use std::path::Path;

/// The atlas JSON schema id.
pub const SCHEMA: &str = "rbp-gap-atlas/v1";

/// The committed atlas's file name, at the workspace root.
pub const FILE: &str = "GAP_ATLAS.json";

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

/// The instance pool: the perf-check workload matrix (named,
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

/// Folds `specs` over `pool` into one [`GapRow`] per (model, spec),
/// each cost compared against the instance's `anchor`: its reference
/// cost, or `None` to skip the instance.
fn fold(
    pool: &[(String, Instance)],
    specs: &[&str],
    anchor: impl Fn(&Instance) -> Option<u128>,
) -> Vec<GapRow> {
    let mut rows: Vec<GapRow> = Vec::new();
    for kind in ModelKind::ALL {
        for &spec in specs {
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
    for (name, inst) in pool {
        let Some(reference) = anchor(inst) else {
            continue;
        };
        let model = kind_name(inst.model().kind());
        for &spec in specs {
            let cost = registry::solve(spec, inst)
                .expect("heuristics cannot exhaust resources on the atlas pools")
                .scaled_cost(inst);
            let row = rows
                .iter_mut()
                .find(|r| r.model == model && r.spec == spec)
                .expect("row pre-seeded");
            if reference == 0 {
                row.zero_opt_cells += 1;
                row.worst_zero_opt_cost = row.worst_zero_opt_cost.max(cost);
                continue;
            }
            row.cells += 1;
            let milli = cost * 1000 / reference;
            if milli > row.worst_milli {
                row.worst_milli = milli;
                row.instance = name.clone();
                row.heuristic_cost = cost;
                row.optimal_cost = reference;
            }
        }
    }
    rows.retain(|r| r.cells > 0 || r.zero_opt_cells > 0);
    rows
}

/// Sweeps [`HEUR_SPECS`] over [`pool`] against the `exact` optimum and
/// [`COARSE_SPECS`] over [`large_pool`] against
/// [`bounds::best_lower_bound`]. Rows come out sorted by (model, spec)
/// so the JSON is byte-stable.
pub fn measure() -> Vec<GapRow> {
    let mut rows = fold(&pool(), &HEUR_SPECS, |inst| {
        let anchor = registry::solve("exact", inst).expect("pool instances are feasible");
        // a budget-degraded anchor would poison every ratio
        anchor.is_optimal().then(|| anchor.scaled_cost(inst))
    });
    rows.extend(fold(&large_pool(), &COARSE_SPECS, |inst| {
        Some(inst.scaled_cost(&bounds::best_lower_bound(inst)))
    }));
    rows.sort_by(|a, b| (&a.model, &a.spec).cmp(&(&b.model, &b.spec)));
    rows
}

/// Writes the atlas as `<dir>/GAP_ATLAS.json` and returns the path.
pub fn write_json(rows: &[GapRow], dir: &Path) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(FILE);
    let mut f = std::fs::File::create(&path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"schema\": \"{SCHEMA}\",")?;
    writeln!(
        f,
        "  \"description\": \"worst observed heuristic/optimal milli-ratios per (model, spec); \
         deterministic — re-record and diff against HEAD's copy with `cargo run --release -p \
         rbp-bench --bin experiments -- gap-check`\","
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
        "gap-check — worst heuristic/optimal ratios (milli, over positive-optimum cells)",
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
            model: str_field(line, "model")?,
            spec: str_field(line, "spec")?,
            worst_milli: num_field(line, "worst_milli")?,
            instance: str_field(line, "instance")?,
            heuristic_cost: num_field(line, "heuristic_cost")?,
            optimal_cost: num_field(line, "optimal_cost")?,
            cells: num_field(line, "cells")? as usize,
            zero_opt_cells: num_field(line, "zero_opt_cells")? as usize,
            worst_zero_opt_cost: num_field(line, "worst_zero_opt_cost")?,
        });
    }
    Some(rows)
}

/// A row regresses when its worst ratio grows.
impl Row for GapRow {
    fn key(&self) -> String {
        format!("{}/{}", self.model, self.spec)
    }

    fn regression(&self, old: &Self) -> Option<String> {
        (self.worst_milli > old.worst_milli).then(|| {
            format!(
                "worst ratio {} milli vs committed {} (on {})",
                self.worst_milli, old.worst_milli, self.instance
            )
        })
    }
}

/// `gap-check`: reads `HEAD`'s `GAP_ATLAS.json` as the baseline
/// ([`gate::committed`]), sweeps the atlas once, rewrites
/// `<dir>/GAP_ATLAS.json`, and diffs the two through [`gate::diff`]: an
/// `::error::` per row whose worst ratio **grew** (a heuristic
/// regression), an informational line per row that improved or held.
/// Returns the number of regressed rows; the `experiments` binary exits
/// non-zero when it is positive.
pub fn check(dir: &Path) -> usize {
    let committed = gate::committed(dir, FILE);
    let fresh = measure();
    print_table(&fresh);
    let path = write_json(&fresh, dir).expect("write GAP_ATLAS.json");
    println!("  wrote {}", path.display());
    let Some(baseline) = committed.as_deref().and_then(parse_atlas) else {
        println!("gap-check: no committed {FILE} of schema {SCHEMA} — nothing to diff");
        return 0;
    };
    let outcome = gate::diff("gap-check", &baseline, &fresh, |new, old| {
        if new.worst_milli < old.worst_milli {
            println!(
                "gap-check: {} improved: {} milli vs committed {}",
                new.key(),
                new.worst_milli,
                old.worst_milli
            );
        } else if new.worst_milli == old.worst_milli {
            println!(
                "gap-check: {} unchanged ({} milli)",
                new.key(),
                new.worst_milli
            );
        }
    });
    println!(
        "gap-check: {} regressed row(s) out of {} measured, {} new and {} lost row(s) \
         (one-sided rows are not counted)",
        outcome.failed,
        fresh.len(),
        outcome.new,
        outcome.lost
    );
    outcome.failed
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
