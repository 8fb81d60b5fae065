//! `perfbench`: the wire-to-solution benchmark of the batch-solve
//! service.
//!
//! ```text
//! perfbench --server PATH --workload NAME --seed N --seconds S --trace 0|1
//! perfbench diff A.json B.json
//! perfbench defects
//! ```
//!
//! A run starts `rbp-serve --tcp` (timing its set-up), drives it with two
//! closed-loop clients for `S` seconds, certifies every answer, and
//! prints the end-to-end metrics. With `--trace 1` the same load runs,
//! and its scored prefix is then replayed in-process through each
//! layer's public functions to report the per-layer metrics. The last
//! stdout line is the result; the line before it records provenance.
//! Both are saved under `.bench_out/`, with the spans of a traced run.
//! `diff` prints two saved results side by side; `defects` reproduces
//! the cache defects the workloads avoid.

mod check;
mod defects;
mod load;
mod replay;
mod report;
mod workload;

use load::{Answer, LoadRun, Sample, ServerProc};
use report::{metric, quantile, Metric};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use workload::Plan;

/// Server starts per run; `setup_s` is their median.
const SETUP_STARTS: usize = 25;
/// Pause between server starts, so that their median samples five
/// seconds of the shared host's speed rather than a fraction of one:
/// medians of back-to-back starts on `cached-repeats` ranged from 6.9 to
/// 12.9 ms between runs of the same code.
const SETUP_GAP: Duration = Duration::from_millis(200);
const OUT_DIR: &str = ".bench_out";

struct Args {
    server: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

enum Mode {
    Bench(Args),
    Diff(Vec<String>),
    Defects,
}

fn parse_args(raw: &[String]) -> Result<Mode, String> {
    let mut server = None;
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut positional = Vec::new();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} takes an integer, got '{v}'"))
        };
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(value()?)),
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(number(value()?)?),
            "--seconds" => seconds = Some(number(value()?)?),
            "--trace" => trace = Some(number(value()?)? != 0),
            _ if !flag.starts_with("--") => positional.push(flag.clone()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    match positional.first().map(String::as_str) {
        Some("diff") => return Ok(Mode::Diff(positional[1..].to_vec())),
        Some("defects") => return Ok(Mode::Defects),
        Some(other) => return Err(format!("unknown command '{other}'")),
        None => {}
    }
    let usage = "usage: perfbench --server PATH --workload NAME --seed N --seconds S --trace 0|1";
    Ok(Mode::Bench(Args {
        server: server.ok_or(usage)?,
        workload: workload.ok_or(usage)?,
        seed: seed.ok_or(usage)?,
        seconds: seconds.ok_or(usage)?.max(1),
        trace: trace.unwrap_or(false),
    }))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&raw).and_then(|mode| match mode {
        Mode::Bench(args) => bench(&args),
        Mode::Diff(paths) => report::diff(&paths),
        Mode::Defects => defects::run(),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn bench(a: &Args) -> Result<(), String> {
    let plan = workload::build(&a.workload, a.seed)?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let stem = format!("{OUT_DIR}/{}-seed{}", a.workload, a.seed);
    let snapshot = match &plan.snapshot {
        Some(text) => {
            let path = PathBuf::from(format!("{stem}.cache"));
            std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
            Some(path)
        }
        None => None,
    };

    let mut setups = Vec::new();
    let mut server = None;
    for i in 0..SETUP_STARTS {
        drop(server.take());
        if i > 0 {
            std::thread::sleep(SETUP_GAP);
        }
        let (s, took) = ServerProc::start(&a.server, snapshot.as_deref())?;
        setups.push(took.as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("SETUP_STARTS > 0");
    let load = load::run(&server, &plan, a.seconds);
    let stats_line = server.stats()?;
    let rss_kib = server.peak_rss_kib()?;
    drop(server);

    let verdicts = check::check(&plan, &load.bodies);
    let score = Score::of(&plan, &load, &verdicts);
    print_classes(&plan, &load.samples);
    for msg in &score.failures {
        eprintln!("perfbench: FAILED {msg}");
    }

    let latencies: Vec<f64> = load
        .samples
        .iter()
        .map(|s| s.latency.as_secs_f64() * 1e3)
        .collect();
    let metrics = if a.trace {
        layer_metrics(
            &plan,
            &load,
            &latencies,
            &stats_line,
            rss_kib,
            a.workload == "exact-search",
            &stem,
        )?
    } else {
        let attempted = score.attempted.max(1) as f64;
        vec![
            metric("setup_s", quantile(&setups, 0.5), "s"),
            metric(
                "throughput_rps",
                load.samples.len() as f64 / load.window.as_secs_f64(),
                "req/s",
            ),
            metric("latency_p50_ms", quantile(&latencies, 0.5), "ms"),
            metric(
                "success_frac",
                (score.attempted - score.failed) as f64 / attempted,
                "ratio",
            ),
            metric("bound_gap_geomean", score.bound_gap_geomean, "ratio"),
            metric("cost_geomean", score.cost_geomean, "scaled-cost"),
        ]
    };

    let provenance = provenance(a, &plan, &load, &score, &setups);
    let result = report::result_line(
        score.failed == 0 && score.attempted > 0,
        score.attempted,
        score.failed,
        &metrics,
    );
    let saved = format!("{stem}-trace{}.json", a.trace as u8);
    std::fs::write(&saved, format!("{provenance}\n{result}\n"))
        .map_err(|e| format!("{saved}: {e}"))?;
    println!("{provenance}");
    println!("{result}");
    Ok(())
}

/// Failures and the scored-prefix figures of a load run.
struct Score {
    attempted: usize,
    failed: usize,
    /// (attempted, completed) per client.
    clients: [(usize, usize); 2],
    /// Answers the cache served.
    cached: usize,
    bound_gap_geomean: f64,
    cost_geomean: f64,
    failures: Vec<String>,
}

impl Score {
    fn of(
        plan: &Plan,
        load: &LoadRun,
        verdicts: &std::collections::HashMap<(usize, u64), check::Verdict>,
    ) -> Score {
        let mut score = Score {
            attempted: 0,
            failed: 0,
            clients: [(0, 0); 2],
            cached: 0,
            bound_gap_geomean: 0.0,
            cost_geomean: 0.0,
            failures: Vec::new(),
        };
        // the geomeans weigh each distinct answer once, so a popular
        // instance does not outweigh the rest
        let mut scored = std::collections::HashSet::new();
        let (mut log_cost, mut log_gap) = (0.0f64, 0.0f64);
        let mut prefix_done = [0usize; 2];
        for s in &load.samples {
            score.attempted += 1;
            score.clients[s.client].0 += 1;
            let outcome = match &s.answer {
                Answer::Solution { digest, cached } => {
                    score.clients[s.client].1 += 1;
                    score.cached += *cached as usize;
                    match verdicts.get(&(s.doc, *digest)) {
                        Some(v) => v.ok.clone().map(|()| (v, *digest)),
                        None => Err("answer was never checked".to_string()),
                    }
                }
                Answer::Failed(msg) => Err(msg.clone()),
            };
            match outcome {
                Ok((v, digest)) if s.k < plan.prefix => {
                    prefix_done[s.client] += 1;
                    if scored.insert((s.doc, digest)) {
                        log_cost += (v.scaled as f64 + 1.0).ln();
                        log_gap += ((v.scaled as f64 + 1.0) / (v.lower as f64 + 1.0)).ln();
                    }
                }
                Ok(_) => {}
                Err(msg) => {
                    score.failed += 1;
                    if score.failures.len() < 8 {
                        let class = plan.docs[s.doc].class;
                        score
                            .failures
                            .push(format!("c{}r{} ({class}): {msg}", s.client, s.k));
                    }
                }
            }
        }
        if prefix_done.iter().any(|&d| d < plan.prefix) {
            score.failures.push(format!(
                "scored prefix incomplete: {prefix_done:?} of {}",
                plan.prefix
            ));
            score.failed += 1;
        }
        if !scored.is_empty() {
            score.cost_geomean = (log_cost / scored.len() as f64).exp();
            score.bound_gap_geomean = (log_gap / scored.len() as f64).exp();
        }
        score
    }
}

/// Per-class latency summary on stderr, for reading a run by eye.
fn print_classes(plan: &Plan, samples: &[Sample]) {
    let mut by: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for s in samples {
        let reqs = &plan.streams[s.client];
        let spec = reqs[s.k % reqs.len()].spec;
        by.entry((plan.docs[s.doc].class, spec))
            .or_default()
            .push(s.latency.as_secs_f64() * 1e3);
    }
    for ((class, spec), v) in by {
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        eprintln!(
            "perfbench: {class:>14} {spec:<20} n={:<6} mean={mean:>9.3}ms p50={:>9.3}ms max={:>9.3}ms",
            v.len(),
            quantile(&v, 0.5),
            quantile(&v, 1.0)
        );
    }
}

/// The traced run's per-layer metrics.
fn layer_metrics(
    plan: &Plan,
    load: &LoadRun,
    latencies: &[f64],
    stats_line: &str,
    rss_kib: u64,
    exact_search: bool,
    stem: &str,
) -> Result<Vec<Metric>, String> {
    let order: Vec<&Sample> = load.samples.iter().filter(|s| s.k < plan.prefix).collect();
    // two replays each way; the recorder's overhead is the difference of
    // the faster ones, since solve-time noise dwarfs it
    let off = [
        replay::replay(plan, &order, false),
        replay::replay(plan, &order, false),
    ];
    let on = replay::replay(plan, &order, true);
    let on_again = replay::replay(plan, &order, true);
    let fastest = |a: &replay::Replay, b: &replay::Replay| a.elapsed.min(b.elapsed).as_secs_f64();
    let overhead = fastest(&on, &on_again) - fastest(&off[0], &off[1]);
    let speedup = if exact_search {
        replay::speedup_t2(plan, &order)?
    } else {
        0.0
    };
    on.rec
        .write_tsv(&format!("{stem}.spans.tsv"), &order)
        .map_err(|e| format!("{stem}.spans.tsv: {e}"))?;
    if let Some(e) = on.items.iter().find_map(|r| r.error.as_ref()) {
        return Err(format!("replay failed: {e}"));
    }
    let mismatched = order
        .iter()
        .zip(&on.items)
        .filter(|(s, r)| matches!(s.answer, Answer::Solution { digest, .. } if Some(digest) != r.digest))
        .count();
    eprintln!(
        "perfbench: replayed {} requests; {mismatched} answers differ from the served ones",
        order.len()
    );

    let self_times = on.rec.self_times();
    let busy = |name: &str| on.rec.busy_s(&self_times, name);
    let n = order.len().max(1) as f64;
    let sum_stat = |family: &str, key: &str| -> f64 {
        on.items
            .iter()
            .filter(|r| r.solve.is_some_and(|(f, _)| f == family))
            .filter_map(|r| r.stats.get(key))
            .sum::<u64>() as f64
    };
    let overheads: Vec<f64> = order
        .iter()
        .zip(&on.items)
        .map(|(s, r)| (s.latency.as_secs_f64() - r.critical.as_secs_f64()) * 1e3)
        .collect();
    let stat_field = |key: &str| -> f64 {
        stats_line
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    };
    let lookups = (on.cache.hits + on.cache.misses) as f64;
    let greedy_points: Vec<(f64, f64)> = order
        .iter()
        .zip(&on.items)
        .filter(|(s, _)| plan.docs[s.doc].class.starts_with("matmul"))
        .filter_map(|(s, r)| match r.solve {
            Some(("solve.greedy", t)) => Some((plan.docs[s.doc].nodes as f64, t.as_secs_f64())),
            _ => None,
        })
        .collect();
    let coarse_edges: f64 = order
        .iter()
        .zip(&on.items)
        .filter(|(_, r)| r.solve.is_some_and(|(f, _)| f == "solve.coarse"))
        .map(|(s, _)| plan.docs[s.doc].edges as f64)
        .sum();
    // a degraded exact solve reports no expansions, so the rate counts
    // only the time of solves that do
    let (expanded, expanding_s) = on
        .items
        .iter()
        .filter_map(|r| match (r.solve, r.stats.get("states_expanded")) {
            (Some(("solve.exact", t)), Some(e)) => Some((e as f64, t.as_secs_f64())),
            _ => None,
        })
        .fold((0.0, 0.0), |(e, t), (de, dt)| (e + de, t + dt));
    let mib = (1u64 << 20) as f64;
    Ok(vec![
        metric("protocol.parse.busy_s", busy("protocol.parse"), "s"),
        metric("protocol.render.busy_s", busy("protocol.render"), "s"),
        metric(
            "protocol.request_mb",
            on.items.iter().map(|r| r.request_bytes).sum::<usize>() as f64 / mib,
            "MiB",
        ),
        metric(
            "protocol.response_mb",
            on.items.iter().map(|r| r.response_bytes).sum::<usize>() as f64 / mib,
            "MiB",
        ),
        metric(
            "instance.canonical_key.busy_s",
            busy("instance.canonical_key"),
            "s",
        ),
        metric(
            "quality.optimal_frac",
            on.items.iter().filter(|r| r.optimal).count() as f64 / n,
            "ratio",
        ),
        metric(
            "instance.key_invariant_frac",
            on.items.iter().filter(|r| r.key_invariant).count() as f64 / n,
            "ratio",
        ),
        metric("cache.lookup.busy_s", busy("cache.lookup"), "s"),
        metric("cache.insert.busy_s", busy("cache.insert"), "s"),
        metric(
            "cache.hit_ratio",
            if lookups > 0.0 {
                on.cache.hits as f64 / lookups
            } else {
                0.0
            },
            "ratio",
        ),
        metric("cache.upgrades", on.cache.upgrades as f64, "count"),
        metric("cache.reload.busy_s", busy("cache.reload"), "s"),
        // the tail has no bound: on scaleout it is the heaviest solves,
        // whose time follows the shared host's speed (±20–40% from one
        // run to the next)
        metric("server.latency_p99_ms", quantile(latencies, 0.99), "ms"),
        metric("server.overhead_p50_ms", quantile(&overheads, 0.5), "ms"),
        metric(
            "server.solves_per_request",
            stat_field("solves") / stat_field("submitted").max(1.0),
            "ratio",
        ),
        // peak memory has no bound: on cached-repeats it moves by whole
        // allocator arenas (≈ 3 MiB of ≈ 8) from seed to seed
        metric("server.peak_rss_mb", rss_kib as f64 / 1024.0, "MiB"),
        metric("exact.busy_s", busy("solve.exact"), "s"),
        metric(
            "exact.states_expanded",
            sum_stat("solve.exact", "states_expanded"),
            "count",
        ),
        metric(
            "exact.states_seen",
            sum_stat("solve.exact", "states_seen"),
            "count",
        ),
        metric(
            "exact.states_per_s",
            if expanding_s > 0.0 {
                expanded / expanding_s
            } else {
                0.0
            },
            "1/s",
        ),
        metric(
            "exact.degraded",
            sum_stat("solve.exact", "degraded"),
            "count",
        ),
        metric("mpp.busy_s", busy("solve.exact@mpp"), "s"),
        metric(
            "mpp.states_expanded",
            sum_stat("solve.exact@mpp", "states_expanded"),
            "count",
        ),
        metric("parallel.speedup_t2", speedup, "ratio"),
        metric("greedy.busy_s", busy("solve.greedy"), "s"),
        metric(
            "greedy.scaling_exp",
            report::power_law_exponent(&greedy_points),
            "exponent",
        ),
        metric("portfolio.busy_s", busy("solve.portfolio"), "s"),
        metric("beam.busy_s", busy("solve.beam"), "s"),
        metric("coarse.busy_s", busy("solve.coarse"), "s"),
        metric(
            "coarse.cut_frac",
            if coarse_edges > 0.0 {
                sum_stat("solve.coarse", "cut_edges") / coarse_edges
            } else {
                0.0
            },
            "ratio",
        ),
        metric(
            "coarse.flush_stores",
            sum_stat("solve.coarse", "flush_stores"),
            "count",
        ),
        metric("engine.simulate.busy_s", busy("engine.simulate"), "s"),
        metric("bounds.lower_bound.busy_s", busy("bounds.lower_bound"), "s"),
        metric(
            "trace.moves",
            on.items.iter().map(|r| r.moves).sum::<usize>() as f64,
            "count",
        ),
        metric("recorder.overhead_s", overhead, "s"),
    ])
}

/// The provenance line: seed, host, toolchain, commit, and per-client
/// request counts.
fn provenance(a: &Args, plan: &Plan, load: &LoadRun, score: &Score, setups: &[f64]) -> String {
    let command = |program: &str, args: &[&str]| -> String {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let clients: Vec<String> = score
        .clients
        .iter()
        .enumerate()
        .map(|(c, (att, done))| {
            format!("{{\"client\": {c}, \"attempted\": {att}, \"completed\": {done}}}")
        })
        .collect();
    let setups: Vec<String> = setups.iter().map(|s| s.to_string()).collect();
    format!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"commit\": {}, \"rustc\": {}, \"server_workers\": {}, \"clients\": [{}], \"cached_answers\": {}, \"scored_prefix_per_client\": {}, \"window_s\": {}, \"setup_runs_s\": [{}]}}}}",
        report::json_str(&a.workload),
        a.seed,
        a.seconds,
        a.trace as u8,
        report::json_str(&command("git", &["rev-parse", "HEAD"])),
        report::json_str(&command("rustc", &["-V"])),
        load::WORKERS,
        clients.join(", "),
        score.cached,
        plan.prefix,
        load.window.as_secs_f64(),
        setups.join(", "),
    )
}
