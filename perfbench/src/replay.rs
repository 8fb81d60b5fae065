//! The traced run: replays a load run's requests, in the order they were
//! sent, one at a time through each layer's public functions, with a
//! span around every call. Spans stay in memory and are written out when
//! the run ends.

use crate::load::Sample;
use crate::workload::Plan;
use rbp_core::{bounds, engine};
use rbp_service::protocol::render_event;
use rbp_service::{CacheStats, Event, JobOptions, Request, RequestReader, SolutionCache};
use rbp_solvers::{Budget, Registry, SolveCtx, Stats};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::Hasher;
use std::hint::black_box;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the recorder started.
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    /// Position of the request in the replay order.
    pub req: usize,
}

/// An in-memory span recorder; when off, it only runs the closures.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, req: usize) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end = self.now();
        }
    }

    fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let s = self.open(name, parent, req);
        let out = f();
        self.close(s);
        out
    }

    /// Each span's self time: its duration minus the part of it that its
    /// children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| {
                let mut cover: Vec<(u64, u64)> = kids
                    .iter()
                    .map(|&c| {
                        (
                            self.spans[c].start.max(s.start),
                            self.spans[c].end.min(s.end),
                        )
                    })
                    .filter(|(a, b)| a < b)
                    .collect();
                cover.sort_unstable();
                let mut covered = 0;
                let mut reach = 0;
                for (a, b) in cover {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end - s.start).saturating_sub(covered)
            })
            .collect()
    }

    /// Summed self time of every span named `name`, in seconds.
    pub fn busy_s(&self, self_times: &[u64], name: &str) -> f64 {
        self.spans
            .iter()
            .zip(self_times)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &t)| t)
            .sum::<u64>() as f64
            / 1e9
    }

    /// Writes the spans as tab-separated lines.
    pub fn write_tsv(&self, path: &str, order: &[&Sample]) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "request\tspan\tname\tstart_ns\tend_ns\tparent")?;
        for (i, s) in self.spans.iter().enumerate() {
            let r = &order[s.req];
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "c{}r{}\t{i}\t{}\t{}\t{}\t{parent}",
                r.client, r.k, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// The budget the server gives a job with these options (no deadline
/// is ever sent).
fn budget_of(options: &JobOptions) -> Budget {
    match options.max_expansions {
        Some(m) => Budget::none().with_max_expansions(m),
        None => Budget::none(),
    }
}

/// The span name of a solve, by the spec's family.
fn solve_span(spec: &str) -> &'static str {
    match spec.split(':').next().unwrap_or(spec) {
        "exact" => "solve.exact",
        "exact-parallel" => "solve.exact-parallel",
        "exact@mpp" => "solve.exact@mpp",
        "greedy" => "solve.greedy",
        "greedy@mpp" => "solve.greedy@mpp",
        "portfolio" => "solve.portfolio",
        "beam" => "solve.beam",
        "coarse" => "solve.coarse",
        _ => "solve.other",
    }
}

/// What replaying one request observed.
#[derive(Default)]
pub struct Replayed {
    /// Time from parsing the request to its rendered answer.
    pub critical: Duration,
    pub key_invariant: bool,
    /// The solve span, when the request solved (not a cache hit).
    pub solve: Option<(&'static str, Duration)>,
    pub stats: Stats,
    pub optimal: bool,
    pub moves: usize,
    pub request_bytes: usize,
    pub response_bytes: usize,
    /// Digest of the rendered `solution v1` document.
    pub digest: Option<u64>,
    pub error: Option<String>,
}

/// A whole replay.
pub struct Replay {
    pub rec: Recorder,
    pub items: Vec<Replayed>,
    pub cache: CacheStats,
    pub elapsed: Duration,
}

/// Replays `order` through the layers, with spans on or off.
pub fn replay(plan: &Plan, order: &[&Sample], spans: bool) -> Replay {
    let mut rec = Recorder::new(spans);
    let registry = Registry::with_builtins();
    let cache = SolutionCache::new();
    let started = Instant::now();
    if let Some(text) = &plan.snapshot {
        rec.span("cache.reload", None, 0, || cache.load_snapshot(text));
    }
    let items = order
        .iter()
        .enumerate()
        .map(|(i, s)| replay_one(&mut rec, &registry, &cache, plan, s, i))
        .collect();
    Replay {
        elapsed: started.elapsed(),
        rec,
        items,
        cache: cache.stats(),
    }
}

fn replay_one(
    rec: &mut Recorder,
    registry: &Registry,
    cache: &SolutionCache,
    plan: &Plan,
    s: &Sample,
    i: usize,
) -> Replayed {
    let reqs = &plan.streams[s.client];
    let req = reqs[s.k % reqs.len()];
    let text = req.head(&format!("c{}r{}", s.client, s.k)) + &plan.docs[req.doc].text;
    let mut out = Replayed {
        request_bytes: text.len(),
        ..Replayed::default()
    };
    let started = Instant::now();
    let root = rec.open("request", None, i);
    let parsed = rec.span("protocol.parse", root, i, || {
        RequestReader::new(text.as_bytes()).next_request()
    });
    let job = match parsed {
        Ok(Some(Ok(Request::Submit(job)))) => job,
        other => {
            rec.close(root);
            out.error = Some(format!("request did not parse: {other:?}"));
            return out;
        }
    };
    let key = rec.span("instance.canonical_key", root, i, || {
        job.instance.canonical_key()
    });
    out.key_invariant = key.is_relabeling_invariant();
    let hit = if job.options.use_cache {
        rec.span("cache.lookup", root, i, || {
            cache.lookup(&key, job.options.accept)
        })
    } else {
        None
    };
    let event = match hit {
        Some(entry) => Event::Done {
            id: job.id.clone(),
            spec: entry.spec,
            cached: true,
            solution: entry.solution,
        },
        None => {
            let solver = match rec.span("registry.parse", root, i, || registry.parse(&job.spec)) {
                Ok(solver) => solver,
                Err(e) => {
                    rec.close(root);
                    out.error = Some(e.to_string());
                    return out;
                }
            };
            let ctx = SolveCtx::new(budget_of(&job.options));
            let name = solve_span(&job.spec);
            let solve_started = Instant::now();
            let solved = rec.span(name, root, i, || solver.solve_lenient(&job.instance, &ctx));
            out.solve = Some((name, solve_started.elapsed()));
            let solution = match solved {
                Ok(solution) => solution,
                Err(e) => {
                    rec.close(root);
                    out.error = Some(e.to_string());
                    return out;
                }
            };
            let spec = solver.spec();
            if job.options.use_cache {
                let scaled = solution.scaled_cost(&job.instance);
                rec.span("cache.insert", root, i, || {
                    cache.insert_or_upgrade(key, &spec, solution.clone(), scaled)
                });
            }
            Event::Done {
                id: job.id.clone(),
                spec,
                cached: false,
                solution,
            }
        }
    };
    let rendered = rec.span("protocol.render", root, i, || render_event(&event));
    rec.close(root);
    out.critical = started.elapsed();
    out.response_bytes = rendered.len();
    let document = rendered.split_once('\n').map_or("", |(_, doc)| doc);
    let mut h = DefaultHasher::new();
    h.write(document.as_bytes());
    out.digest = Some(h.finish());

    // probes: work the solve already did, repeated off the critical path
    if let Event::Done { solution, .. } = &event {
        out.stats = solution.stats.clone();
        out.optimal = solution.is_optimal();
        out.moves = solution.trace.len();
        let probe = rec.open("probe", None, i);
        rec.span("engine.simulate", probe, i, || {
            black_box(engine::simulate(&job.instance, &solution.trace)).is_ok()
        });
        rec.span("bounds.lower_bound", probe, i, || {
            black_box(bounds::best_lower_bound(&job.instance))
        });
        rec.close(probe);
    }
    out
}

/// Distinct classic `exact` inputs the speed-up curve is timed on.
const SPEEDUP_INPUTS: usize = 24;

/// `exact` time over `exact-parallel:2` time on the first distinct
/// `exact` inputs of `order`, one request at a time so both threads get
/// a core.
pub fn speedup_t2(plan: &Plan, order: &[&Sample]) -> Result<f64, String> {
    let registry = Registry::with_builtins();
    let sequential = registry.parse("exact").map_err(|e| e.to_string())?;
    let parallel = registry
        .parse("exact-parallel:2")
        .map_err(|e| e.to_string())?;
    let mut seen = HashSet::new();
    let (mut t1, mut t2) = (Duration::ZERO, Duration::ZERO);
    for s in order {
        let reqs = &plan.streams[s.client];
        let req = reqs[s.k % reqs.len()];
        if req.spec != "exact" || !seen.insert(req.doc) {
            continue;
        }
        if seen.len() > SPEEDUP_INPUTS {
            break;
        }
        let text = req.head("speedup") + &plan.docs[req.doc].text;
        let job = match RequestReader::new(text.as_bytes()).next_request() {
            Ok(Some(Ok(Request::Submit(job)))) => job,
            other => return Err(format!("request did not parse: {other:?}")),
        };
        let ctx = SolveCtx::new(budget_of(&job.options));
        for (solver, total) in [(&sequential, &mut t1), (&parallel, &mut t2)] {
            let started = Instant::now();
            black_box(solver.solve_lenient(&job.instance, &ctx)).map_err(|e| e.to_string())?;
            *total += started.elapsed();
        }
    }
    Ok(if t2.is_zero() {
        0.0
    } else {
        t1.as_secs_f64() / t2.as_secs_f64()
    })
}
