//! Solver-kernel scaling: exact Dijkstra/A* on growing DAGs, greedy on
//! large workloads, and the heuristic parity cells.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rbp_core::{CostModel, Instance, SinkConvention, SourceConvention};
use rbp_graph::generate;
use rbp_solvers::api::{ExactSolver, Solver};
use rbp_solvers::{registry, ExactConfig};
use rbp_workloads::{fft, matmul};

fn bench_exact_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_solver");
    group.sample_size(10);
    for n in [8usize, 10, 12] {
        let mut rng = StdRng::seed_from_u64(1);
        let dag = generate::gnp_dag(n, 0.3, 2, &mut rng);
        let r = dag.max_indegree() + 1;
        let inst = Instance::new(dag, r, CostModel::oneshot());
        let astar = registry::solver("exact").unwrap();
        group.bench_with_input(BenchmarkId::new("astar_oneshot", n), &inst, |b, inst| {
            b.iter(|| black_box(astar.solve_default(inst).unwrap().cost))
        });
        let dijkstra = ExactSolver::with_config(ExactConfig {
            astar: false,
            ..ExactConfig::default()
        });
        group.bench_with_input(BenchmarkId::new("dijkstra_oneshot", n), &inst, |b, inst| {
            b.iter(|| black_box(dijkstra.solve_default(inst).unwrap().cost))
        });
    }
    group.finish();
}

fn bench_greedy_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("greedy_solver");
    for n in [100usize, 400, 1600] {
        let mut rng = StdRng::seed_from_u64(2);
        let dag = generate::layered(n / 20, 20, 3, &mut rng);
        let inst = Instance::new(dag, 8, CostModel::oneshot());
        let greedy = registry::solver("greedy").unwrap();
        group.bench_with_input(BenchmarkId::new("layered", n), &inst, |b, inst| {
            b.iter(|| black_box(greedy.solve_default(inst).unwrap().cost))
        });
    }
    group.finish();
}

/// The heuristic parity cells: one large workload per solver that
/// builds its schedule move by move (`greedy`, its `portfolio`, `beam`
/// and the `greedy@mpp` list scheduler), under the Hong–Kung
/// conventions (sources initially blue, sinks required blue), R = 4 and
/// the base model.
fn bench_heuristic_parity(c: &mut Criterion) {
    let mut group = c.benchmark_group("heuristic_parity");
    for (spec, name, dag) in [
        ("greedy", "matmul16", matmul::build(16).dag),
        ("portfolio", "matmul12", matmul::build(12).dag),
        ("beam:8", "fft64", fft::build(6).dag),
        ("greedy@mpp:2", "matmul8", matmul::build(8).dag),
    ] {
        let inst = Instance::new(dag, 4, CostModel::base())
            .with_source_convention(SourceConvention::InitiallyBlue)
            .with_sink_convention(SinkConvention::RequireBlue);
        let solver = registry::solver(spec).unwrap();
        group.bench_with_input(BenchmarkId::new(spec, name), &inst, |b, inst| {
            b.iter(|| black_box(solver.solve_default(inst).unwrap().cost))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_exact_scaling,
    bench_greedy_scaling,
    bench_heuristic_parity
);
criterion_main!(benches);
