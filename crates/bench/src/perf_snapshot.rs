//! `perf-snapshot`: recorded exact-solver throughput baselines.
//!
//! Sweeps a fixed instance matrix — {chain, pyramid, grid, layered,
//! matmul, fft} × {base, oneshot, nodel} at sizes that solve in
//! milliseconds, plus larger cells the incumbent-seeded solver makes
//! tractable — through every registry spec in [`SNAPSHOT_SPECS`] and
//! writes `BENCH_exact.json` (schema `rbp-perf-exact/v3`) with per-cell
//! median wall time, interned-state throughput, and search effort. The
//! file is committed at the workspace root so every PR leaves a perf
//! trajectory to compare against; CI regenerates it as an artifact and
//! runs [`check`] (`perf-check`), which fails on a drifted cost or a
//! grown search-effort counter and annotates throughput regressions.
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
//! stay comparable. Four extra
//! rows ([`measure_service`]) record the batch-solve service's
//! round-trip latency on a cache miss, a cache hit, a structured
//! overload shed (`service-shed`), and a crash-recovery snapshot
//! reload (`cache-reload`).

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

/// One measured cell of the snapshot.
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
            // record solves/sec instead, mirroring the service rows, so
            // the perf-check throughput diff stays meaningful for them
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

/// Measures the full recorded matrix at [`SNAPSHOT_SPECS`], the
/// multiprocessor rows ([`mpp_cells`] at [`MPP_SNAPSHOT_SPECS`]), plus
/// the batch-solve service round-trip cells ([`measure_service`]).
pub fn measure(samples: usize) -> Vec<CellResult> {
    let mut results = measure_cases(&all_cells(), samples, &SNAPSHOT_SPECS);
    results.extend(measure_cases(&mpp_cells(), samples, &MPP_SNAPSHOT_SPECS));
    results.extend(measure_cases(
        &coarse_cells(),
        samples,
        &COARSE_SNAPSHOT_SPECS,
    ));
    results.extend(measure_service(samples));
    results
}

/// Round-trip latency of the batch-solve service (`rbp-service`) on the
/// grid cell, recorded as two extra rows:
///
/// - `service-miss` — submit → terminal event against a cold cache,
///   i.e. queueing + canonical-key hashing + a full solve;
/// - `service-hit` — the same request answered by the memoization
///   cache, i.e. the pure service overhead.
///
/// `median_ns` is the request round trip; `states_per_sec` doubles as
/// **requests/sec** (`1e9 / median_ns`) for these rows, so the same
/// perf-check threshold machinery covers service regressions. The
/// states columns carry the solve behind the cached entry.
pub fn measure_service(samples: usize) -> Vec<CellResult> {
    use rbp_service::{JobRequest, Server, ServerConfig};
    assert!(samples >= 1);
    let spec = "exact";
    let instance = Instance::new(
        rbp_workloads::stencil::build(4, 2, 1).dag,
        4,
        CostModel::oneshot(),
    );
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 4,
        ..ServerConfig::default()
    };
    let request = |id: &str| JobRequest {
        id: id.to_string(),
        spec: spec.to_string(),
        instance: instance.clone(),
        options: Default::default(),
    };
    let round_trip = |server: &Server, id: &str| -> (u128, Solution) {
        let t0 = Instant::now();
        let events = server.submit_collect(request(id)).expect("server accepts");
        let solution = events
            .iter()
            .find_map(|ev| match ev {
                rbp_service::Event::Done { solution, .. } => Some(solution),
                _ => None,
            })
            .expect("perf cells solve");
        (t0.elapsed().as_nanos(), solution)
    };

    // misses: a fresh server (and thus a cold cache) per sample —
    // server startup is outside the timed window
    let mut miss_runs: Vec<(u128, Solution)> = Vec::with_capacity(samples);
    for i in 0..samples {
        let server = Server::start(config);
        miss_runs.push(round_trip(&server, &format!("miss-{i}")));
        server.shutdown();
    }

    // hits: one server, warmed once, then timed resubmissions
    let server = Server::start(config);
    let _ = round_trip(&server, "warm");
    let mut hit_runs: Vec<(u128, Solution)> = Vec::with_capacity(samples);
    for i in 0..samples {
        hit_runs.push(round_trip(&server, &format!("hit-{i}")));
    }
    assert_eq!(server.stats().solves, 1, "hits must not re-solve");
    server.shutdown();

    let mut results = Vec::with_capacity(4);
    for (workload, mut runs) in [("service-miss", miss_runs), ("service-hit", hit_runs)] {
        runs.sort_unstable_by_key(|(ns, _)| *ns);
        let (median_ns, sol) = &runs[runs.len() / 2];
        let median_ns = (*median_ns).max(1);
        results.push(CellResult {
            workload: workload.to_string(),
            model: "oneshot".to_string(),
            n: instance.dag().n(),
            r: instance.red_limit(),
            spec: spec.to_string(),
            threads: 1,
            median_ns,
            states_seen: sol.states_seen().unwrap_or(0) as usize,
            states_expanded: sol.states_expanded().unwrap_or(0) as usize,
            states_per_sec: (1_000_000_000 / median_ns) as u64,
            scaled_cost: sol.scaled_cost(&instance),
        });
    }
    results.push(measure_service_shed(samples));
    results.push(measure_cache_reload(samples));
    results
}

/// `service-shed` — the cost of a structured overload rejection: a
/// server with a full queue, a busy worker, and a zero admission wait
/// turns a submission around as `Overloaded` without blocking. The row
/// keeps the perf trajectory of the hot shed path (hold it cheap: a
/// loaded server says "come back later" thousands of times a second).
/// `states_per_sec` doubles as sheds/sec; the states and cost columns
/// carry the solve of the job that was occupying the worker.
fn measure_service_shed(samples: usize) -> CellResult {
    use rbp_solvers::{Registry, SolveCtx, SolveError, Solver};
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::Duration;

    /// Blocks until the shared gate opens, then answers with greedy —
    /// deterministic worker occupancy without timing assumptions.
    struct Gate(Arc<(Mutex<bool>, Condvar)>);
    impl Solver for Gate {
        fn name(&self) -> &str {
            "gate"
        }
        fn solve(&self, instance: &Instance, ctx: &SolveCtx) -> Result<Solution, SolveError> {
            let (lock, cv) = &*self.0;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
            drop(open);
            rbp_solvers::GreedySolver::new().solve(instance, ctx)
        }
    }

    let instance = Instance::new(
        rbp_workloads::stencil::build(4, 2, 1).dag,
        4,
        CostModel::oneshot(),
    );
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let mut reg = Registry::with_builtins();
    {
        let gate = Arc::clone(&gate);
        reg.register(
            "gate",
            "perf: blocks until opened, then greedy",
            move |_| Ok(Box::new(Gate(Arc::clone(&gate)))),
        );
    }
    let server = rbp_service::Server::with_registry(
        rbp_service::ServerConfig {
            workers: 1,
            queue_capacity: 1,
            admission_wait: Duration::ZERO, // pure shedding, no blocking
        },
        reg,
    );
    let request = |id: &str, spec: &str| rbp_service::JobRequest {
        id: id.to_string(),
        spec: spec.to_string(),
        instance: instance.clone(),
        options: Default::default(),
    };
    // occupy the only worker, then fill the one queue slot
    let rx_busy = server
        .submit_collect(request("busy", "gate"))
        .expect("first job is accepted");
    while server.stats().queued > 0 {
        std::thread::yield_now();
    }
    let rx_fill = server
        .submit_collect(request("fill", "gate"))
        .expect("second job fills the queue");

    let mut runs: Vec<u128> = Vec::with_capacity(samples);
    for i in 0..samples {
        let (tx, _rx) = std::sync::mpsc::channel();
        let t0 = Instant::now();
        let err = server.submit(request(&format!("shed-{i}"), "exact"), tx);
        runs.push(t0.elapsed().as_nanos());
        assert!(
            matches!(err, Err(rbp_service::SubmitError::Overloaded { .. })),
            "a full queue with zero admission wait must shed"
        );
    }

    // release the gated jobs and keep their solution for the row
    {
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    }
    let solution = [rx_busy, rx_fill]
        .iter()
        .find_map(|rx| {
            rx.iter().find_map(|ev| match ev {
                rbp_service::Event::Done { solution, .. } => Some(solution),
                _ => None,
            })
        })
        .expect("gated jobs complete after release");
    server.shutdown();

    runs.sort_unstable();
    let median_ns = runs[runs.len() / 2].max(1);
    CellResult {
        workload: "service-shed".to_string(),
        model: "oneshot".to_string(),
        n: instance.dag().n(),
        r: instance.red_limit(),
        spec: "exact".to_string(),
        threads: 1,
        median_ns,
        states_seen: solution.states_seen().unwrap_or(0) as usize,
        states_expanded: solution.states_expanded().unwrap_or(0) as usize,
        states_per_sec: (1_000_000_000 / median_ns) as u64,
        scaled_cost: solution.scaled_cost(&instance),
    }
}

/// `cache-reload` — crash-recovery throughput: the time to load a
/// `cache v1` snapshot of 64 solved chain instances into a cold
/// [`rbp_service::SolutionCache`]. `states_seen` records the entry
/// count; `states_per_sec` doubles as reloads/sec.
fn measure_cache_reload(samples: usize) -> CellResult {
    const ENTRIES: usize = 64;
    let warm = rbp_service::SolutionCache::new();
    let mut last = None;
    for n in 0..ENTRIES {
        let inst = Instance::new(generate::chain(3 + n), 2, CostModel::oneshot());
        let sol = registry::solve("greedy", &inst).expect("chains solve");
        let scaled = sol.scaled_cost(&inst);
        warm.insert_or_upgrade(inst.canonical_key(), "greedy", sol.clone(), scaled);
        last = Some((inst, sol));
    }
    let snapshot = warm.write_snapshot();
    let (instance, solution) = last.expect("at least one entry");

    let mut runs: Vec<u128> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let cold = rbp_service::SolutionCache::new();
        let t0 = Instant::now();
        let report = cold.load_snapshot(&snapshot);
        runs.push(t0.elapsed().as_nanos());
        assert_eq!(report.recovered, ENTRIES as u64, "lossless reload");
        assert_eq!(report.skipped, 0);
    }
    runs.sort_unstable();
    let median_ns = runs[runs.len() / 2].max(1);
    CellResult {
        workload: "cache-reload".to_string(),
        model: "oneshot".to_string(),
        n: instance.dag().n(),
        r: instance.red_limit(),
        spec: "greedy".to_string(),
        threads: 1,
        median_ns,
        states_seen: ENTRIES,
        states_expanded: 0,
        states_per_sec: (1_000_000_000 / median_ns) as u64,
        scaled_cost: solution.scaled_cost(&instance),
    }
}

/// Writes the snapshot as `<dir>/BENCH_exact.json` and returns the path.
pub fn write_json(results: &[CellResult], dir: &Path) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("BENCH_exact.json");
    let mut f = std::fs::File::create(&path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"schema\": \"{SCHEMA}\",")?;
    writeln!(
        f,
        "  \"description\": \"exact-solver hot-path baselines per registry spec; regenerate \
         with `cargo run --release -p rbp-bench --bin experiments -- perf-snapshot`, diff with \
         `... -- perf-check`\","
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
        "perf-snapshot — exact solver hot path (median over samples)",
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

/// Runs the snapshot (5 samples per cell) and writes
/// `<dir>/BENCH_exact.json`, printing the matrix as a table.
pub fn run(dir: &Path) {
    run_with(dir, 5)
}

/// Like [`run`] with a configurable sample count (tests use 1).
pub fn run_with(dir: &Path, samples: usize) {
    let results = measure(samples);
    print_table(&results);
    let path = write_json(&results, dir).expect("write BENCH_exact.json");
    println!("  wrote {}", path.display());
}

// ---------------------------------------------------------------------
// perf-check: diff a fresh measurement against the committed baseline
// ---------------------------------------------------------------------

/// One cell parsed back out of a committed `BENCH_exact.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedCell {
    /// Workload family.
    pub workload: String,
    /// Cost-model name.
    pub model: String,
    /// The registry spec that produced the row (the diff key).
    pub spec: String,
    /// Recorded median wall time, nanoseconds.
    pub median_ns: u128,
    /// Recorded distinct states interned.
    pub states_seen: u128,
    /// Recorded states popped from the queue.
    pub states_expanded: u128,
    /// Recorded interned-state throughput.
    pub states_per_sec: u64,
    /// Recorded optimum (scaled cost).
    pub scaled_cost: u128,
}

pub(crate) fn str_field(line: &str, name: &str) -> Option<String> {
    let tag = format!("\"{name}\": \"");
    let start = line.find(&tag)? + tag.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

pub(crate) fn num_field(line: &str, name: &str) -> Option<u128> {
    let tag = format!("\"{name}\": ");
    let start = line.find(&tag)? + tag.len();
    let digits: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// The `host_parallelism` a snapshot was recorded at, when present.
pub fn parsed_host_parallelism(json: &str) -> Option<usize> {
    json.lines()
        .find(|l| l.contains("\"host_parallelism\""))
        .and_then(|l| num_field(l, "host_parallelism"))
        .map(|v| v as usize)
}

/// Parses the committed snapshot (own fixed format, no JSON dependency).
/// Returns `None` when the schema line is missing or not `v2` — callers
/// then skip the diff and ask for a regeneration.
pub fn parse_snapshot(json: &str) -> Option<Vec<ParsedCell>> {
    if !json.contains(&format!("\"schema\": \"{SCHEMA}\"")) {
        return None;
    }
    let mut cells = Vec::new();
    for line in json.lines() {
        if !line.trim_start().starts_with("{\"workload\"") {
            continue;
        }
        cells.push(ParsedCell {
            workload: str_field(line, "workload")?,
            model: str_field(line, "model")?,
            spec: str_field(line, "spec")?,
            median_ns: num_field(line, "median_ns")?,
            states_seen: num_field(line, "states_seen")?,
            states_expanded: num_field(line, "states_expanded")?,
            states_per_sec: num_field(line, "states_per_sec")? as u64,
            scaled_cost: num_field(line, "scaled_cost")?,
        });
    }
    Some(cells)
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

/// A fresh 3-sample measurement of the matrix, in diffable form.
fn measure_parsed() -> Vec<ParsedCell> {
    measure(3)
        .into_iter()
        .map(|c| ParsedCell {
            workload: c.workload,
            model: c.model,
            spec: c.spec,
            median_ns: c.median_ns,
            states_seen: c.states_seen as u128,
            states_expanded: c.states_expanded as u128,
            states_per_sec: c.states_per_sec,
            scaled_cost: c.scaled_cost,
        })
        .collect()
}

/// The `HEAD`-committed snapshot, when `dir` is inside a git checkout.
fn git_show_baseline(dir: &Path) -> Option<String> {
    let out = std::process::Command::new("git")
        .arg("-C")
        .arg(dir)
        .args(["show", "HEAD:BENCH_exact.json"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout).ok()
}

/// `perf-check`: diffs fresh numbers against the committed
/// `BENCH_exact.json` baseline. The deterministic columns gate: a cell
/// whose `scaled_cost` differs from the committed one, or whose
/// `states_expanded` or `states_seen` is higher, gets a GitHub Actions
/// `::error::` annotation and counts as failed. Timing never gates: a
/// cell regressing more than 25% in states/sec gets a `::warning::`
/// with its ratio, every other cell prints its ratio. Returns the number
/// of failed cells; the `experiments` binary exits non-zero when it is
/// positive.
///
/// The baseline is `HEAD`'s version of the file (falling back to the
/// on-disk copy outside a git checkout). When the environment sets
/// `PERF_CHECK_REUSE_SNAPSHOT=1` — the CI perf job does, right after
/// its `perf-snapshot` step regenerates the on-disk file — the on-disk
/// cells are reused as the fresh side instead of measuring the whole
/// matrix a second time. Reuse is opt-in only: inferring it from the
/// file differing from `HEAD` would let a stale leftover snapshot
/// masquerade as a measurement of the current code.
pub fn check(dir: &Path) -> usize {
    let path = dir.join("BENCH_exact.json");
    let disk = std::fs::read_to_string(&path).ok();
    let Some(committed) = git_show_baseline(dir).or_else(|| disk.clone()) else {
        println!(
            "perf-check: no committed {} — nothing to diff",
            path.display()
        );
        return 0;
    };
    let Some(baseline) = parse_snapshot(&committed) else {
        println!(
            "perf-check: {} is not schema {SCHEMA}; regenerate with `experiments perf-snapshot`",
            path.display()
        );
        return 0;
    };
    let reuse = std::env::var("PERF_CHECK_REUSE_SNAPSHOT").is_ok_and(|v| v == "1");
    let fresh: Vec<ParsedCell> = match disk.as_deref().filter(|d| reuse && *d != committed) {
        Some(regenerated) => match parse_snapshot(regenerated) {
            Some(cells) => {
                println!("perf-check: reusing the regenerated on-disk snapshot as the fresh side");
                cells
            }
            None => measure_parsed(),
        },
        None => measure_parsed(),
    };
    // throughput is only comparable within a host class: a baseline
    // recorded on a different core count (say a 1-core container vs a
    // 4-vCPU runner) puts every pool-using row (the portfolio seed, the
    // service rows) off by the hardware delta, drowning real regressions
    // in false "ok (500%)" readings. Cost and
    // coverage are still checked; throughput diffs are skipped.
    let here = std::thread::available_parallelism().map_or(0, |p| p.get());
    let recorded = parsed_host_parallelism(&committed).unwrap_or(0);
    let comparable_host = recorded == here;
    if !comparable_host {
        println!(
            "perf-check: baseline host_parallelism {recorded} != this host's {here}; \
             skipping throughput diffs (cost/coverage checks still run) — \
             re-commit a snapshot from this host class to restore them"
        );
    }
    let mut failed = 0;
    let mut slower = 0;
    for new in &fresh {
        let Some(old) = baseline
            .iter()
            .find(|c| c.workload == new.workload && c.model == new.model && c.spec == new.spec)
        else {
            // one-sided cell: a spec or atlas row added this PR has no
            // baseline yet — inform and skip, never count, so growing
            // the matrix can't trip the check
            println!(
                "perf-check: new cell {}/{}@{} (no baseline; skipped)",
                new.workload, new.model, new.spec
            );
            continue;
        };
        if new.scaled_cost != old.scaled_cost {
            println!(
                "::error title=optimum drift::{}/{}@{}: scaled cost {} != committed {}",
                new.workload, new.model, new.spec, new.scaled_cost, old.scaled_cost
            );
            failed += 1;
            continue;
        }
        if new.states_expanded > old.states_expanded || new.states_seen > old.states_seen {
            println!(
                "::error title=search effort grew::{}/{}@{}: states_expanded {} (committed {}), \
                 states_seen {} (committed {})",
                new.workload,
                new.model,
                new.spec,
                new.states_expanded,
                old.states_expanded,
                new.states_seen,
                old.states_seen
            );
            failed += 1;
        }
        if !comparable_host {
            continue;
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
                "::warning title=perf regression::{}/{}@{}: {} states/s vs committed {} ({:.0}%)",
                new.workload,
                new.model,
                new.spec,
                new.states_per_sec,
                old.states_per_sec,
                ratio * 100.0
            );
        } else {
            println!(
                "perf-check: {}/{}@{} ok ({:.0}% of baseline)",
                new.workload,
                new.model,
                new.spec,
                ratio * 100.0
            );
        }
    }
    // mirror direction: a baseline cell with no fresh counterpart means
    // the matrix lost coverage — warn so it's visible, but skip it in
    // the count: one-sided cells (either direction) must never trip the
    // check, or retiring a spec would break CI the same way adding one
    // used to
    let mut lost = 0;
    for old in &baseline {
        if !fresh
            .iter()
            .any(|c| c.workload == old.workload && c.model == old.model && c.spec == old.spec)
        {
            println!(
                "::warning title=lost coverage::{}/{}@{}: in the committed baseline but not \
                 measured anymore (skipped)",
                old.workload, old.model, old.spec
            );
            lost += 1;
        }
    }
    println!(
        "perf-check: {failed} failed cell(s) (cost drift or more search effort), {slower} \
         slower cell(s) (timing, never failing) out of {} measured, {lost} baseline cell(s) \
         no longer covered (one-sided cells are not counted)",
        fresh.len()
    );
    failed
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
    fn service_cells_record_hit_miss_shed_and_reload_round_trips() {
        let rows = measure_service(1);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].workload, "service-miss");
        assert_eq!(rows[1].workload, "service-hit");
        assert_eq!(rows[2].workload, "service-shed");
        assert_eq!(rows[3].workload, "cache-reload");
        for row in &rows {
            assert!(row.states_per_sec > 0, "requests/sec must be recorded");
        }
        // the hit is answered from the cache, so both rows carry the
        // same engine-validated optimum
        assert_eq!(rows[0].scaled_cost, rows[1].scaled_cost);
        // the shed path must be far cheaper than an actual solve
        assert!(rows[2].median_ns <= rows[0].median_ns);
        assert_eq!(rows[3].states_seen, 64, "reload row records entry count");
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
        assert_eq!(parsed.len(), results.len());
        for (p, r) in parsed.iter().zip(&results) {
            assert_eq!(p.workload, r.workload);
            assert_eq!(p.model, r.model);
            assert_eq!(p.spec, r.spec);
            assert_eq!(p.median_ns, r.median_ns);
            assert_eq!(p.states_seen, r.states_seen as u128);
            assert_eq!(p.states_expanded, r.states_expanded as u128);
            assert_eq!(p.states_per_sec, r.states_per_sec);
            assert_eq!(p.scaled_cost, r.scaled_cost);
        }
        // v2 files (or junk) refuse to parse instead of mis-diffing
        assert!(parse_snapshot("{\"schema\": \"rbp-perf-exact/v2\"}").is_none());
    }
}
