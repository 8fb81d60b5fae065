//! Regenerates the paper's tables and figures.
//!
//! ```text
//! experiments all            # everything, in paper order
//! experiments fig4 fig8      # selected artifacts
//! ```
//!
//! Output goes to stdout (aligned tables) and `results/*.csv`;
//! `perf-check` and `gap-check` rewrite `BENCH_exact.json` and
//! `GAP_ATLAS.json` at the workspace root.

use rbp_bench::{report, run_experiment, ALL_EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = report::results_dir();

    let ids: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        ALL_EXPERIMENTS.to_vec()
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    // `perf-check` and `gap-check` rewrite their baselines at the
    // workspace root instead
    if ids.iter().any(|id| ALL_EXPERIMENTS.contains(id)) {
        println!("writing CSVs to {}", out.display());
    }
    let t0 = std::time::Instant::now();
    for id in &ids {
        run_experiment(id, &out);
    }
    println!(
        "\ndone: {} experiment(s) in {:.1}s",
        ids.len(),
        t0.elapsed().as_secs_f64()
    );
}
