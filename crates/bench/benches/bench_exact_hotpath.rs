//! Exact-solver hot-path benchmark: the same {chain, pyramid, grid,
//! layered, matmul, fft} × {base, oneshot, nodel} matrix the
//! `perf-check` experiment records to `BENCH_exact.json`, run under
//! criterion for interactive before/after comparisons.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rbp_bench::perf_snapshot;
use rbp_solvers::registry;

fn bench_exact_hotpath(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_hotpath");
    group.sample_size(10);
    let exact = registry::solver("exact").unwrap();
    for case in perf_snapshot::cells() {
        group.bench_with_input(
            BenchmarkId::new(case.workload, case.model),
            &case.instance,
            |b, inst| b.iter(|| black_box(exact.solve_default(inst).unwrap().cost)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_exact_hotpath);
criterion_main!(benches);
