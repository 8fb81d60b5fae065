//! `perf-check`: recorded exact-solver throughput baselines.
//!
//! Sweeps a fixed instance matrix — {chain, pyramid, grid, layered,
//! matmul, fft} × {base, oneshot, nodel} at sizes that solve in
//! milliseconds, plus larger cells the incumbent-seeded solver makes
//! tractable — through every registry spec in [`SNAPSHOT_SPECS`] and
//! writes `BENCH_exact.json` (schema `rbp-perf-exact/v3`) with per-cell
//! median wall time, interned-state throughput, and search effort. The
//! file is committed at the workspace root so every PR leaves a perf
//! trajectory to compare against; [`check`] (`perf-check`) re-records it
//! and diffs it against `HEAD`'s copy, failing on a drifted cost or a
//! grown search-effort counter and annotating throughput regressions.
//!
//! Every row records the **registry spec** that produced it (`"exact"`,
//! the search with the greedy incumbent seed). Diffs are keyed by
//! `(workload, model, spec)`, so adding a solver to the matrix is
//! one more spec string, not a schema change — which is exactly how the
//! multiprocessor rows ride along: [`mpp_cells`] adds `chain-mpp` and
//! `pyramid-mpp` cells measured under `exact@mpp:1` / `exact@mpp:2` /
//! `greedy@mpp:2`, with the `exact@mpp:1` optimum pinned equal to the
//! classic `exact` optimum on the same instance.
//!
//! The same instance matrix backs the `bench_exact_hotpath` criterion
//! target, so interactive `cargo bench` numbers and the recorded JSON
//! stay comparable.

use crate::gate::{self, num_field, str_field, Row};
use crate::report::Table;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rbp_core::{CostModel, Instance, ModelKind};
use rbp_graph::generate;
use rbp_solvers::api::Solution;
use rbp_solvers::registry;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// The snapshot's JSON schema id. v3 replaced the bare `threads` key
/// with the registry `spec` that produced each row (threads is kept as
/// a derived display column), so future solver specs extend the matrix
/// without schema churn.
pub const SCHEMA: &str = "rbp-perf-exact/v3";

/// The committed baseline's file name, at the workspace root.
pub const FILE: &str = "BENCH_exact.json";

/// The registry specs every cell is measured under: the
/// incumbent-seeded exact search.
pub const SNAPSHOT_SPECS: [&str; 1] = ["exact"];

/// The registry specs the multiprocessor rows ([`mpp_cells`]) are
/// measured under. `exact@mpp:1` doubles as a continuously-pinned
/// correctness cell: its recorded optimum must equal the classic
/// `exact` optimum on the same instance (at `p = 1` it runs the classic
/// search), which `mpp_rows_pin_the_single_processor_optimum` asserts.
pub const MPP_SNAPSHOT_SPECS: [&str; 3] = ["exact@mpp:1", "exact@mpp:2", "greedy@mpp:2"];

/// The registry spec the scale-out cells ([`coarse_cells`]) are
/// measured under: hierarchical coarsening with the default
/// auto-sized partition and portfolio inner solver. These cells are
/// far beyond the exact frontier, so their `scaled_cost` column pins
/// the coarse *upper bound* trajectory rather than an optimum.
pub const COARSE_SNAPSHOT_SPECS: [&str; 1] = ["coarse"];

/// One workload × model cell of the perf matrix.
pub struct PerfCase {
    /// Workload family (`chain`, `pyramid`, `grid`, `layered`, `matmul`,
    /// `fft`, or one of the larger `pyramid5`/`grid5` cells).
    pub workload: &'static str,
    /// Cost-model name (`base`, `oneshot`, `nodel`).
    pub model: &'static str,
    /// The concrete instance solved by this cell.
    pub instance: Instance,
}

/// The models the snapshot tracks. `compcost` shares base's state space
/// (only edge weights differ), so it adds no distinct hot-path signal.
const MODELS: [(&str, ModelKind); 3] = [
    ("base", ModelKind::Base),
    ("oneshot", ModelKind::Oneshot),
    ("nodel", ModelKind::NoDel),
];

/// The fixed instance matrix. Sizes are chosen so each exact solve
/// finishes in at most a few hundred milliseconds optimized — the point
/// is a stable trajectory, not a stress test.
///
/// The red budget is per *cell*, not per workload, because the models'
/// state spaces scale oppositely in R on dense DAGs like matmul: base
/// (deletes + recomputation) needs enough slack that its optimum stays
/// near zero or its positive-cost frontier explodes, while nodel
/// (monotone pebbles) blows up when extra slack multiplies the reachable
/// monotone configurations.
pub fn cells() -> Vec<PerfCase> {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    // (workload, dag, [r_base, r_oneshot, r_nodel])
    let dags: Vec<(&'static str, rbp_graph::Dag, [usize; 3])> = vec![
        ("chain", generate::chain(12), [2; 3]),
        ("pyramid", rbp_gadgets::pyramid::build(4).dag, [3; 3]),
        // "grid": a time-tiled 3-point stencil, the 2-D grid workload
        ("grid", rbp_workloads::stencil::build(4, 2, 1).dag, [4; 3]),
        ("layered", generate::layered(3, 3, 2, &mut rng), [3; 3]),
        ("matmul", rbp_workloads::matmul::build(2).dag, [7, 5, 3]),
        ("fft", rbp_workloads::fft::build(2).dag, [3; 3]),
    ];
    let mut cases = Vec::with_capacity(dags.len() * MODELS.len());
    for (workload, dag, rs) in dags {
        for ((model, kind), r) in MODELS.into_iter().zip(rs) {
            cases.push(PerfCase {
                workload,
                model,
                instance: Instance::new(dag.clone(), r, CostModel::of_kind(kind)),
            });
        }
    }
    cases
}

/// Larger cells that the incumbent-seeded solver settles in under a
/// second: a height-5 pyramid and a width-5 stencil. Their base-model
/// variants at these sizes exceed the per-cell time budget (seconds of
/// search), so only the tractable model rows are recorded.
pub fn extra_cells() -> Vec<PerfCase> {
    vec![
        PerfCase {
            workload: "pyramid5",
            model: "base",
            instance: Instance::new(rbp_gadgets::pyramid::build(5).dag, 3, CostModel::base()),
        },
        PerfCase {
            workload: "pyramid5",
            model: "nodel",
            instance: Instance::new(rbp_gadgets::pyramid::build(5).dag, 3, CostModel::nodel()),
        },
        PerfCase {
            workload: "grid5",
            model: "oneshot",
            instance: Instance::new(
                rbp_workloads::stencil::build(5, 2, 1).dag,
                4,
                CostModel::oneshot(),
            ),
        },
        PerfCase {
            workload: "grid5",
            model: "nodel",
            instance: Instance::new(
                rbp_workloads::stencil::build(5, 2, 1).dag,
                4,
                CostModel::nodel(),
            ),
        },
    ]
}

/// Multiprocessor rows: a chain and a pyramid, each under the three
/// tracked models, solved by every spec in [`MPP_SNAPSHOT_SPECS`].
/// The `@mpp:P` specs lift the instance themselves
/// ([`rbp_core::Instance::with_procs`]), so the cells stay classic
/// instances and the `exact@mpp:1` rows remain directly comparable to
/// a classic `exact` solve. Sizes are smaller than the classic matrix
/// because the product state space carries one red plane *per
/// processor*.
pub fn mpp_cells() -> Vec<PerfCase> {
    let dags: Vec<(&'static str, rbp_graph::Dag, usize)> = vec![
        ("chain-mpp", generate::chain(8), 2),
        ("pyramid-mpp", rbp_gadgets::pyramid::build(3).dag, 3),
    ];
    let mut cases = Vec::with_capacity(dags.len() * MODELS.len());
    for (workload, dag, r) in dags {
        for (model, kind) in MODELS {
            cases.push(PerfCase {
                workload,
                model,
                instance: Instance::new(dag.clone(), r, CostModel::of_kind(kind)),
            });
        }
    }
    cases
}

/// Scale-out rows: matmul(16) and fft(64) under the Hong–Kung
/// conventions (`InitiallyBlue` sources, `RequireBlue` sinks — the
/// regime where the fractional bound engine has teeth), solved by the
/// `coarse` solver. Thousands of nodes; no exact spec could touch
/// these, which is the point of the hierarchical line.
pub fn coarse_cells() -> Vec<PerfCase> {
    use rbp_core::{SinkConvention, SourceConvention};
    let dags: Vec<(&'static str, rbp_graph::Dag, usize)> = vec![
        ("matmul16-coarse", rbp_workloads::matmul::build(16).dag, 4),
        ("fft64-coarse", rbp_workloads::fft::build(6).dag, 4),
    ];
    let mut cases = Vec::with_capacity(dags.len() * MODELS.len());
    for (workload, dag, r) in dags {
        for (model, kind) in MODELS {
            cases.push(PerfCase {
                workload,
                model,
                instance: Instance::new(dag.clone(), r, CostModel::of_kind(kind))
                    .with_source_convention(SourceConvention::InitiallyBlue)
                    .with_sink_convention(SinkConvention::RequireBlue),
            });
        }
    }
    cases
}

/// The full recorded matrix: the classic 6×3 cells plus the larger ones.
pub fn all_cells() -> Vec<PerfCase> {
    let mut cs = cells();
    cs.extend(extra_cells());
    cs
}

/// One cell of the snapshot, measured or parsed back from a committed
/// file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellResult {
    /// Workload family.
    pub workload: String,
    /// Cost-model name.
    pub model: String,
    /// DAG size.
    pub n: usize,
    /// Red-pebble budget.
    pub r: usize,
    /// The registry spec that produced this row.
    pub spec: String,
    /// The solver's `threads` stat (1 for every exact spec; 1 when the
    /// solver reports none), kept as a column of the v3 schema.
    pub threads: usize,
    /// Median wall time of one solve, nanoseconds.
    pub median_ns: u128,
    /// Distinct states interned by the median-representative solve.
    pub states_seen: usize,
    /// States popped from the queue.
    pub states_expanded: usize,
    /// Interned-state throughput: `states_seen / median_seconds`. The
    /// intern path dominates the expand loop, so this is the headline
    /// "how fast is the hot path" number.
    pub states_per_sec: u64,
    /// The optimum found (scaled cost), pinning correctness alongside
    /// speed.
    pub scaled_cost: u128,
}

/// Solves `cases` under every registry spec in `specs`, `samples` times
/// each, reporting the median-time run per (cell, spec) pair.
pub fn measure_cases(cases: &[PerfCase], samples: usize, specs: &[&str]) -> Vec<CellResult> {
    assert!(samples >= 1);
    let mut results = Vec::with_capacity(cases.len() * specs.len());
    for case in cases {
        for &spec in specs {
            let solver = registry::solver(spec).expect("snapshot specs parse");
            let mut runs: Vec<(u128, Solution)> = Vec::with_capacity(samples);
            for _ in 0..samples {
                let t0 = Instant::now();
                let sol = solver
                    .solve_default(&case.instance)
                    .expect("perf cells are feasible");
                runs.push((t0.elapsed().as_nanos(), sol));
            }
            // the stats must come from the SAME run as the median time,
            // so states_per_sec divides one run's states by its own time
            runs.sort_unstable_by_key(|(ns, _)| *ns);
            let (median_ns, sol) = &runs[runs.len() / 2];
            let median_ns = (*median_ns).max(1);
            let states_seen = sol.states_seen().unwrap_or(0) as usize;
            // specs that report no search effort (the greedy family)
            // record solves/sec instead, so the perf-check throughput
            // diff stays meaningful for them
            let states_per_sec = if states_seen == 0 {
                (1_000_000_000 / median_ns) as u64
            } else {
                ((states_seen as u128 * 1_000_000_000) / median_ns) as u64
            };
            results.push(CellResult {
                workload: case.workload.to_string(),
                model: case.model.to_string(),
                n: case.instance.dag().n(),
                r: case.instance.red_limit(),
                spec: spec.to_string(),
                threads: sol.stats.get("threads").unwrap_or(1) as usize,
                median_ns,
                states_seen,
                states_expanded: sol.states_expanded().unwrap_or(0) as usize,
                states_per_sec,
                scaled_cost: sol.scaled_cost(&case.instance),
            });
        }
    }
    results
}

/// Solves per recorded cell; its `median_ns` is the median of these.
pub const SAMPLES: usize = 5;

/// Measures the full recorded matrix at [`SNAPSHOT_SPECS`], the
/// multiprocessor rows ([`mpp_cells`] at [`MPP_SNAPSHOT_SPECS`]) and the
/// scale-out rows ([`coarse_cells`] at [`COARSE_SNAPSHOT_SPECS`]),
/// [`SAMPLES`] solves each.
pub fn measure() -> Vec<CellResult> {
    let mut results = measure_cases(&all_cells(), SAMPLES, &SNAPSHOT_SPECS);
    results.extend(measure_cases(&mpp_cells(), SAMPLES, &MPP_SNAPSHOT_SPECS));
    results.extend(measure_cases(
        &coarse_cells(),
        SAMPLES,
        &COARSE_SNAPSHOT_SPECS,
    ));
    results
}

/// Writes the snapshot as `<dir>/BENCH_exact.json` and returns the path.
pub fn write_json(results: &[CellResult], dir: &Path) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(FILE);
    let mut f = std::fs::File::create(&path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"schema\": \"{SCHEMA}\",")?;
    writeln!(
        f,
        "  \"description\": \"exact-solver hot-path baselines per registry spec; re-record \
         and diff against HEAD's copy with `cargo run --release -p rbp-bench --bin experiments \
         -- perf-check`\","
    )?;
    writeln!(
        f,
        "  \"host_parallelism\": {},",
        std::thread::available_parallelism().map_or(0, |p| p.get())
    )?;
    writeln!(f, "  \"cells\": [")?;
    for (i, c) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        writeln!(
            f,
            "    {{\"workload\": \"{}\", \"model\": \"{}\", \"n\": {}, \"r\": {}, \
             \"spec\": \"{}\", \"threads\": {}, \"median_ns\": {}, \"states_seen\": {}, \
             \"states_expanded\": {}, \"states_per_sec\": {}, \"scaled_cost\": {}}}{}",
            c.workload,
            c.model,
            c.n,
            c.r,
            c.spec,
            c.threads,
            c.median_ns,
            c.states_seen,
            c.states_expanded,
            c.states_per_sec,
            c.scaled_cost,
            comma
        )?;
    }
    writeln!(f, "  ]")?;
    writeln!(f, "}}")?;
    Ok(path)
}

fn print_table(results: &[CellResult]) {
    let mut table = Table::new(
        "perf-check — exact solver hot path (median over samples)",
        &[
            "workload", "model", "n", "R", "spec", "ms", "states", "expanded", "states/s", "cost",
        ],
    );
    for c in results {
        table.row_strings(vec![
            c.workload.clone(),
            c.model.clone(),
            c.n.to_string(),
            c.r.to_string(),
            c.spec.clone(),
            format!("{:.3}", c.median_ns as f64 / 1e6),
            c.states_seen.to_string(),
            c.states_expanded.to_string(),
            c.states_per_sec.to_string(),
            c.scaled_cost.to_string(),
        ]);
    }
    table.print();
}

/// Parses a committed snapshot (own fixed format, no JSON dependency).
/// Returns `None` when the schema line is missing or not [`SCHEMA`], or
/// a row lacks a column.
pub fn parse_snapshot(json: &str) -> Option<Vec<CellResult>> {
    if !json.contains(&format!("\"schema\": \"{SCHEMA}\"")) {
        return None;
    }
    let mut cells = Vec::new();
    for line in json.lines() {
        if !line.trim_start().starts_with("{\"workload\"") {
            continue;
        }
        let num = |name| num_field(line, name);
        cells.push(CellResult {
            workload: str_field(line, "workload")?,
            model: str_field(line, "model")?,
            n: num("n")? as usize,
            r: num("r")? as usize,
            spec: str_field(line, "spec")?,
            threads: num("threads")? as usize,
            median_ns: num("median_ns")?,
            states_seen: num("states_seen")? as usize,
            states_expanded: num("states_expanded")? as usize,
            states_per_sec: num("states_per_sec")? as u64,
            scaled_cost: num("scaled_cost")?,
        });
    }
    Some(cells)
}

/// The `host_parallelism` a snapshot was recorded at, when present.
pub fn parsed_host_parallelism(json: &str) -> Option<usize> {
    json.lines()
        .find(|l| l.contains("\"host_parallelism\""))
        .and_then(|l| num_field(l, "host_parallelism"))
        .map(|v| v as usize)
}

/// The deterministic columns gate: the optimum must not move, and the
/// search must not expand or intern more states. Timing is not compared.
impl Row for CellResult {
    fn key(&self) -> String {
        format!("{}/{}@{}", self.workload, self.model, self.spec)
    }

    fn regression(&self, old: &Self) -> Option<String> {
        if self.scaled_cost != old.scaled_cost {
            Some(format!(
                "scaled cost {} != committed {}",
                self.scaled_cost, old.scaled_cost
            ))
        } else if self.states_expanded > old.states_expanded || self.states_seen > old.states_seen {
            Some(format!(
                "search effort grew: states_expanded {} (committed {}), states_seen {} \
                 (committed {})",
                self.states_expanded, old.states_expanded, self.states_seen, old.states_seen
            ))
        } else {
            None
        }
    }
}

/// A cell regresses when fresh throughput drops below this fraction of
/// the committed baseline.
pub const REGRESSION_THRESHOLD: f64 = 0.75;

/// Cells whose committed median is below this (sub-5 ms solves) use
/// [`NOISE_THRESHOLD`] instead: at that scale, scheduler jitter alone
/// swings states/sec past 25%, and a warning that fires on noise trains
/// people to ignore it.
pub const NOISE_FLOOR_NS: u128 = 5_000_000;

/// Relaxed threshold for sub-[`NOISE_FLOOR_NS`] cells.
pub const NOISE_THRESHOLD: f64 = 0.40;

/// `perf-check`: reads `HEAD`'s `BENCH_exact.json` as the baseline
/// ([`gate::committed`]), measures the matrix once ([`SAMPLES`] per
/// cell), rewrites `<dir>/BENCH_exact.json`, and diffs the two through
/// [`gate::diff`]. A cell whose `scaled_cost` differs from the committed
/// one, or whose `states_expanded` or `states_seen` is higher, gets an
/// `::error::` and counts as failed. Timing never fails: a cell more than
/// 25% slower in states/sec gets a `::warning::` with its ratio, every
/// other cell prints its ratio. Returns the number of failed cells; the
/// `experiments` binary exits non-zero when it is positive.
pub fn check(dir: &Path) -> usize {
    let committed = gate::committed(dir, FILE);
    let fresh = measure();
    print_table(&fresh);
    let path = write_json(&fresh, dir).expect("write BENCH_exact.json");
    println!("  wrote {}", path.display());
    let Some(baseline) = committed.as_deref().and_then(parse_snapshot) else {
        println!("perf-check: no committed {FILE} of schema {SCHEMA} — nothing to diff");
        return 0;
    };
    // throughput is only comparable within a host class: a baseline
    // recorded on a different core count puts every pool-using row (the
    // portfolio seed) off by the hardware delta, drowning real
    // regressions in false "ok (500%)" readings. Cost and search effort
    // are still checked; throughput diffs are skipped.
    let here = std::thread::available_parallelism().map_or(0, |p| p.get());
    let recorded = committed
        .as_deref()
        .and_then(parsed_host_parallelism)
        .unwrap_or(0);
    let comparable_host = recorded == here;
    if !comparable_host {
        println!(
            "perf-check: baseline host_parallelism {recorded} != this host's {here}; \
             skipping throughput diffs (cost/search-effort checks still run) — \
             commit the rewritten {FILE} to restore them"
        );
    }
    let mut slower = 0;
    let outcome = gate::diff("perf-check", &baseline, &fresh, |new, old| {
        if !comparable_host {
            return;
        }
        let ratio = new.states_per_sec as f64 / old.states_per_sec.max(1) as f64;
        let threshold = if old.median_ns < NOISE_FLOOR_NS {
            NOISE_THRESHOLD
        } else {
            REGRESSION_THRESHOLD
        };
        if ratio < threshold {
            slower += 1;
            println!(
                "::warning title=perf regression::{}: {} states/s vs committed {} ({:.0}%)",
                new.key(),
                new.states_per_sec,
                old.states_per_sec,
                ratio * 100.0
            );
        } else {
            println!(
                "perf-check: {} ok ({:.0}% of baseline)",
                new.key(),
                ratio * 100.0
            );
        }
    });
    println!(
        "perf-check: {} failed cell(s) (cost drift or more search effort), {slower} slower \
         cell(s) (timing, never failing) out of {} measured, {} new and {} lost cell(s) \
         (one-sided cells are not counted)",
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
    fn snapshot_covers_the_classic_matrix_and_writes_json() {
        // one cheap sequential sample per classic cell: this test pins
        // the wiring and the file format, not the timings (the committed
        // file is regenerated in release by CI / the experiments binary)
        let dir =
            std::env::temp_dir().join(format!("rbp_perf_snapshot_test_{}", std::process::id()));
        let results = measure_cases(&cells(), 1, &["exact"]);
        let path = write_json(&results, &dir).unwrap();
        let json = std::fs::read_to_string(path).unwrap();
        assert!(json.contains("\"schema\": \"rbp-perf-exact/v3\""));
        assert!(json.contains("\"host_parallelism\""));
        assert!(json.matches("\"spec\": \"exact\"").count() >= 18);
        for w in ["chain", "pyramid", "grid", "layered", "matmul", "fft"] {
            assert!(
                json.contains(&format!("\"workload\": \"{w}\"")),
                "{w} missing"
            );
        }
        for m in ["base", "oneshot", "nodel"] {
            assert!(json.contains(&format!("\"model\": \"{m}\"")), "{m} missing");
        }
    }

    #[test]
    fn cells_are_exactly_the_documented_matrix() {
        let cs = cells();
        assert_eq!(cs.len(), 18, "6 workloads x 3 models");
        assert!(cs.iter().all(|c| c.instance.is_feasible()));
        let extra = extra_cells();
        assert_eq!(extra.len(), 4, "larger incumbent-tractable cells");
        assert!(extra.iter().all(|c| c.instance.is_feasible()));
        assert_eq!(all_cells().len(), 22);
        let mpp = mpp_cells();
        assert_eq!(mpp.len(), 6, "2 mpp workloads x 3 models");
        assert!(mpp.iter().all(|c| c.instance.is_feasible()));
        // the cells stay classic: the @mpp:P specs do the lifting
        assert!(mpp.iter().all(|c| c.instance.mpp().is_none()));
    }

    #[test]
    fn mpp_rows_pin_the_single_processor_optimum() {
        // every recorded exact@mpp:1 cell must carry the same scaled
        // optimum as the classic exact solver on the same instance —
        // the acceptance bar for the p = 1 ≡ sequential equivalence
        let rows = measure_cases(&mpp_cells(), 1, &["exact@mpp:1"]);
        for (row, case) in rows.iter().zip(mpp_cells().iter()) {
            let classic = registry::solve("exact", &case.instance).expect("mpp cells solve");
            assert_eq!(
                row.scaled_cost,
                classic.scaled_cost(&case.instance),
                "{}/{}: exact@mpp:1 drifted from the classic optimum",
                row.workload,
                row.model
            );
        }
        // greedy rows report no search effort; their throughput column
        // must fall back to solves/sec rather than recording zero
        // (zero would trip perf-check's ratio test forever)
        let greedy = measure_cases(&mpp_cells()[..1], 1, &["greedy@mpp:2"]);
        assert!(greedy[0].states_seen == 0 && greedy[0].states_per_sec > 0);
    }

    #[test]
    fn snapshot_roundtrips_through_the_parser() {
        let dir = std::env::temp_dir().join(format!("rbp_perf_parse_test_{}", std::process::id()));
        // tiny subset, two specs, to exercise the spec column
        let results = measure_cases(&cells()[..2], 1, &["exact", "exact:unseeded"]);
        let path = write_json(&results, &dir).unwrap();
        let parsed =
            parse_snapshot(&std::fs::read_to_string(path).unwrap()).expect("own output must parse");
        assert_eq!(parsed, results);
        // v2 files (or junk) refuse to parse instead of mis-diffing
        assert!(parse_snapshot("{\"schema\": \"rbp-perf-exact/v2\"}").is_none());
    }
}
