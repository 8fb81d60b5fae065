//! The three workloads: seeded request streams for two closed-loop
//! clients. The server only ever sees the generated bytes.
//!
//! Every stream is built from a fixed composition whose details (order,
//! which model and R each request gets, the random DAGs) are drawn from
//! the seed, so two seeds load the same layers in the same proportions.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rbp_core::{write_instance, CanonicalKey, CostModel, Instance, ModelKind};
use rbp_graph::{generate, Dag};
use rbp_service::{Event, JobRequest, Request, RequestReader, Server, ServerConfig};
use rbp_workloads::ensemble::{self, EnsembleConfig, LargeConfig};
use rbp_workloads::{fft, matmul, stencil};
use std::collections::{HashMap, HashSet};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["scaleout", "exact-search", "cached-repeats"];

/// One instance document as it goes on the wire.
pub struct Doc {
    /// Input family label (`matmul16`, `large-layered`, …) for reports.
    pub class: &'static str,
    /// The `instance v1`/`v2` document.
    pub text: String,
    pub nodes: usize,
    pub edges: usize,
}

/// One request: a `submit` head plus a document.
#[derive(Clone, Copy)]
pub struct Req {
    /// Index into [`Plan::docs`].
    pub doc: usize,
    /// Registry spec.
    pub spec: &'static str,
    /// The `key=value` tail of the `submit` line.
    pub opts: &'static str,
}

impl Req {
    /// The `submit` line for request `id`.
    pub fn head(&self, id: &str) -> String {
        format!("submit {id} {} {}\n", self.spec, self.opts)
    }
}

/// Everything a run sends.
pub struct Plan {
    /// Distinct documents.
    pub docs: Vec<Doc>,
    /// Each client's request sequence.
    pub streams: [Vec<Req>; 2],
    /// Whether a client wraps around its stream (`cache=off` workloads,
    /// where a repeat is a fresh solve) or stops at its end.
    pub cycle: bool,
    /// Requests per client that every run completes: the scored part
    /// (`cost_geomean`, `optimal_frac`) and what the traced run replays.
    pub prefix: usize,
    /// A `cache v1` snapshot the server boots from.
    pub snapshot: Option<String>,
}

/// Builds the named workload for `seed`.
pub fn build(name: &str, seed: u64) -> Result<Plan, String> {
    match name {
        "scaleout" => Ok(scaleout(seed)),
        "exact-search" => Ok(exact_search(seed)),
        "cached-repeats" => cached_repeats(seed),
        other => Err(format!(
            "unknown workload '{other}' (known: {})",
            NAMES.join(", ")
        )),
    }
}

/// SplitMix64: the benchmark's own seeded draws.
pub struct Mix(u64);

impl Mix {
    pub fn new(seed: u64) -> Self {
        Mix(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Collects documents, sharing one per distinct (label, variant).
#[derive(Default)]
struct Docs {
    docs: Vec<Doc>,
    memo: HashMap<(&'static str, usize), usize>,
}

impl Docs {
    fn add(&mut self, class: &'static str, inst: &Instance) -> usize {
        self.docs.push(Doc {
            class,
            text: write_instance(inst),
            nodes: inst.dag().n(),
            edges: inst.dag().num_edges(),
        });
        self.docs.len() - 1
    }

    fn shared(
        &mut self,
        class: &'static str,
        variant: usize,
        make: impl FnOnce() -> Instance,
    ) -> usize {
        if let Some(&i) = self.memo.get(&(class, variant)) {
            return i;
        }
        let i = self.add(class, &make());
        self.memo.insert((class, variant), i);
        i
    }
}

/// The Hong–Kung conventions: sources start blue, sinks must end blue.
fn hong_kung(inst: Instance) -> Instance {
    inst.with_source_convention(rbp_core::SourceConvention::InitiallyBlue)
        .with_sink_convention(rbp_core::SinkConvention::RequireBlue)
}

/// (model, R − (Δ+1)) for combination `c` of the 4 × 3 grid.
fn combo(c: usize) -> (ModelKind, usize) {
    (ModelKind::ALL[c % 4], (c / 4) % 3)
}

/// Splits a deck between the two clients, alternating.
fn deal(deck: Vec<Req>) -> [Vec<Req>; 2] {
    let mut streams = [Vec::new(), Vec::new()];
    for (i, r) in deck.into_iter().enumerate() {
        streams[i % 2].push(r);
    }
    streams
}

const HEURISTICS: &[&str] = &["greedy", "coarse", "coarse:auto/greedy", "portfolio"];
const HEURISTICS_NO_PORTFOLIO: &[&str] = &["greedy", "coarse", "coarse:auto/greedy"];
const SCALEOUT_OPTS: &str = "cache=off";

/// Rounds per deck: one per (model, R offset) combination, so every
/// cell sees all four models and all three budgets once.
const ROUNDS: usize = 12;

/// Large layered requests per heuristic spec per round.
const LARGE_PER_SPEC: usize = 6;

/// `scaleout`: thousands-of-node DAGs under heuristics.
fn scaleout(seed: u64) -> Plan {
    let fixed: Vec<(&'static str, Dag, &'static [&'static str])> = vec![
        ("matmul8", matmul::build(8).dag, HEURISTICS),
        ("matmul12", matmul::build(12).dag, HEURISTICS),
        // portfolio takes over a second at 8448 nodes
        ("matmul16", matmul::build(16).dag, HEURISTICS_NO_PORTFOLIO),
        ("fft64", fft::build(6).dag, HEURISTICS),
        ("fft128", fft::build(7).dag, HEURISTICS),
        ("stencil64x16", stencil::build(64, 16, 1).dag, HEURISTICS),
        ("fft32", fft::build(5).dag, &["beam:8"]),
        ("matmul4", matmul::build(4).dag, &["beam:8"]),
    ];
    let mut mix = Mix::new(seed);
    let mut docs = Docs::default();
    let large_cfg = LargeConfig::default();
    let large_seed = mix.next();
    let mut large_index = 0u64;
    // a seeded offset per cell decides which round gets which combination
    let fixed_offsets: Vec<Vec<usize>> = fixed
        .iter()
        .map(|(_, _, specs)| specs.iter().map(|_| mix.below(ROUNDS)).collect())
        .collect();
    let large_offsets: Vec<usize> = HEURISTICS.iter().map(|_| mix.below(ROUNDS)).collect();

    let mut deck = Vec::new();
    for round in 0..ROUNDS {
        let mut entries = Vec::new();
        for (ci, (class, dag, specs)) in fixed.iter().enumerate() {
            for (si, &spec) in specs.iter().enumerate() {
                let c = (round + fixed_offsets[ci][si]) % ROUNDS;
                let (kind, slack) = combo(c);
                let doc = docs.shared(class, c, || {
                    let base = Instance::new(dag.clone(), 1, CostModel::of_kind(kind));
                    hong_kung(base.with_red_limit(base.min_feasible_r() + slack))
                });
                entries.push(Req {
                    doc,
                    spec,
                    opts: SCALEOUT_OPTS,
                });
            }
        }
        for (si, &spec) in HEURISTICS.iter().enumerate() {
            for j in 0..LARGE_PER_SPEC {
                let c = (round * LARGE_PER_SPEC + j + large_offsets[si]) % ROUNDS;
                let (kind, slack) = combo(c);
                let g = ensemble::large_layered_at(large_seed, large_index, &large_cfg);
                large_index += 1;
                let inst = g.instance.with_model(CostModel::of_kind(kind));
                let inst = inst.with_red_limit(inst.min_feasible_r() + slack);
                entries.push(Req {
                    doc: docs.add("large-layered", &inst),
                    spec,
                    opts: SCALEOUT_OPTS,
                });
            }
        }
        mix.shuffle(&mut entries);
        deck.extend(entries);
    }
    let streams = deal(deck);
    Plan {
        prefix: streams[0].len().min(streams[1].len()),
        docs: docs.docs,
        streams,
        cycle: true,
        snapshot: None,
    }
}

/// The ≤ 20-node cells of the exact-solver perf matrix: the classic
/// cells × {base, oneshot, nodel} with their per-cell red budgets, and
/// the larger pyramid5/grid5 rows.
fn perf_matrix() -> Vec<(&'static str, Instance)> {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let dags: Vec<(&'static str, Dag, [usize; 3])> = vec![
        ("perf-chain", generate::chain(12), [2; 3]),
        ("perf-pyramid", rbp_gadgets::pyramid::build(4).dag, [3; 3]),
        ("perf-grid", stencil::build(4, 2, 1).dag, [4; 3]),
        ("perf-layered", generate::layered(3, 3, 2, &mut rng), [3; 3]),
        ("perf-matmul", matmul::build(2).dag, [7, 5, 3]),
        ("perf-fft", fft::build(2).dag, [3; 3]),
    ];
    let kinds = [ModelKind::Base, ModelKind::Oneshot, ModelKind::NoDel];
    let mut cells = Vec::new();
    for (class, dag, rs) in dags {
        for (kind, r) in kinds.into_iter().zip(rs) {
            cells.push((
                class,
                Instance::new(dag.clone(), r, CostModel::of_kind(kind)),
            ));
        }
    }
    let pyramid5 = rbp_gadgets::pyramid::build(5).dag;
    let grid5 = stencil::build(5, 2, 1).dag;
    cells.extend([
        (
            "perf-pyramid5",
            Instance::new(pyramid5.clone(), 3, CostModel::base()),
        ),
        (
            "perf-pyramid5",
            Instance::new(pyramid5, 3, CostModel::nodel()),
        ),
        (
            "perf-grid5",
            Instance::new(grid5.clone(), 4, CostModel::oneshot()),
        ),
        ("perf-grid5", Instance::new(grid5, 4, CostModel::nodel())),
    ]);
    cells
}

/// Every exact-family request carries this one `max-expansions` cap
/// (also on `cached-repeats`). At 10 000 every capped search ends within
/// the server's ≈ 44 ms answer delay, so the latency tail does not track
/// the host's speed; a better search shows as fewer degraded answers.
const EXACT_OPTS: &str = "cache=off max-expansions=10000";

/// Ensemble draws per round of `exact-search`.
const DRAWS_PER_ROUND: usize = 48;
/// Rounds per `exact-search` deck.
const EXACT_ROUNDS: usize = 8;

/// Node-count bands of the `exact-search` draws. Exact time grows
/// steeply with n, so each band gets an equal share instead of leaving
/// the size to the draw. Every family can hit every band (a layered
/// DAG has layers × width nodes).
const BANDS: [(usize, usize); 3] = [(10, 12), (13, 14), (15, 16)];

/// A seeded ensemble draw with a node count in `band` from `family` (an
/// index into [`ensemble::Family::ALL`]), with the model taken from
/// `kind`.
fn ensemble_draw(
    seed: u64,
    next: &mut u64,
    family: usize,
    band: (usize, usize),
    kind: ModelKind,
) -> Instance {
    let cfg = EnsembleConfig {
        max_nodes: band.1,
        ..EnsembleConfig::default()
    };
    loop {
        // indices ≡ family (mod 4) keep the ensemble's family rotation
        let index = *next * 4 + family as u64;
        *next += 1;
        let g = ensemble::instance_at(seed, index, &cfg);
        if (band.0..=band.1).contains(&g.instance.dag().n()) {
            return g.instance.with_model(CostModel::of_kind(kind));
        }
    }
}

/// `exact-search`: < 1 KB documents under the capped exact search.
fn exact_search(seed: u64) -> Plan {
    let mut mix = Mix::new(seed);
    let mut docs = Docs::default();
    let cells: Vec<usize> = perf_matrix()
        .iter()
        .map(|(class, inst)| docs.add(class, inst))
        .collect();
    let pyramid = rbp_gadgets::pyramid::build(4).dag;
    let lifted: Vec<usize> = [ModelKind::Base, ModelKind::Oneshot, ModelKind::NoDel]
        .into_iter()
        .map(|kind| {
            let inst = Instance::new(pyramid.clone(), 3, CostModel::of_kind(kind)).with_procs(2);
            docs.add("pyramid4-p2", &inst)
        })
        .collect();
    let draw_seed = mix.next();
    let mut next = 0u64;
    let mut deck = Vec::new();
    for round in 0..EXACT_ROUNDS {
        let mut entries: Vec<Req> = cells
            .iter()
            .map(|&doc| Req {
                doc,
                spec: "exact",
                opts: EXACT_OPTS,
            })
            .collect();
        entries.extend(lifted.iter().map(|&doc| Req {
            doc,
            spec: "exact@mpp",
            opts: EXACT_OPTS,
        }));
        for j in 0..DRAWS_PER_ROUND {
            let slot = round * DRAWS_PER_ROUND + j;
            let kind = ModelKind::ALL[(slot / 4) % 4];
            let inst = ensemble_draw(draw_seed, &mut next, slot % 4, BANDS[slot % 3], kind);
            entries.push(Req {
                doc: docs.add("ensemble", &inst),
                spec: "exact",
                opts: EXACT_OPTS,
            });
        }
        mix.shuffle(&mut entries);
        deck.extend(entries);
    }
    let streams = deal(deck);
    Plan {
        prefix: streams[0].len().min(streams[1].len()),
        docs: docs.docs,
        streams,
        cycle: true,
        snapshot: None,
    }
}

/// Requests per user in the earlier slice the snapshot is built from.
const SLICE: usize = 200;
/// Requests per user after the slice (the stream a run draws from).
const STREAM: usize = 12_000;
/// Requests per user that every `cached-repeats` run completes. Its
/// fresh instances are what `cost_geomean` averages over; at 400 the
/// spread of that mean across seeds was 0.09–0.10.
const REPEATS_PREFIX: usize = 600;
/// Every `FRESH_EVERY`-th request of a user submits a fresh instance;
/// a fixed spacing keeps the cache's growth, and so the server's
/// memory, the same on every seed.
const FRESH_EVERY: usize = 5;
/// Size bands of the fresh large instances, rotated for the same reason.
const LARGE_BANDS: [(usize, usize); 4] = [(150, 262), (263, 375), (376, 487), (488, 600)];
/// Share of repeats of a large instance that resubmit it to `portfolio`
/// or `coarse` with `accept=optimal`.
const RESOLVE_SHARE: f64 = 0.1;

/// One user's instances of one kind, with cumulative Zipf(1) weights
/// over their ranks (earliest hottest).
#[derive(Default)]
struct Pool {
    reqs: Vec<Req>,
    cum: Vec<f64>,
}

impl Pool {
    fn push(&mut self, req: Req) {
        self.reqs.push(req);
        let last = self.cum.last().copied().unwrap_or(0.0);
        self.cum.push(last + 1.0 / self.reqs.len() as f64);
    }

    fn pick(&self, mix: &mut Mix) -> Req {
        let u = mix.unit() * self.cum.last().copied().unwrap_or(0.0);
        self.reqs[self
            .cum
            .partition_point(|&c| c < u)
            .min(self.reqs.len() - 1)]
    }
}

/// One user's stream (slice included). Fresh instances alternate between
/// small and large and join the user's pool of that kind; a repeat picks
/// a kind at even odds, then an instance by Zipf rank. Kinds and models
/// are balanced so that every seed has the same mix of costs.
fn user_stream(
    mix: &mut Mix,
    user: u64,
    docs: &mut Docs,
    keys: &mut HashSet<CanonicalKey>,
) -> Vec<Req> {
    // the ensemble's default ≤ 10 nodes: capped exact degrades from 12
    // nodes on, and a degraded answer is cached as a bound and re-solved
    // on every repeat, which a hot instance turns into a run's tail
    let small_cfg = EnsembleConfig::default();
    let seed = mix.next() ^ user;
    let mut next = 0u64;
    let mut pools = [Pool::default(), Pool::default()];
    let mut fresh = 0usize;
    let mut out = Vec::with_capacity(SLICE + STREAM);
    while out.len() < SLICE + STREAM {
        if out.len() % FRESH_EVERY == 0 || fresh < 2 {
            // a fresh instance whose key no earlier document holds, so a
            // cache hit always returns a trace for the same labelling
            let large = fresh % 2 == 1;
            let kind = ModelKind::ALL[(fresh / 2) % 4];
            let inst = loop {
                let index = next;
                next += 1;
                let inst = if large {
                    let (min_nodes, max_nodes) = LARGE_BANDS[(fresh / 2) % LARGE_BANDS.len()];
                    let cfg = LargeConfig {
                        min_nodes,
                        max_nodes,
                        ..LargeConfig::default()
                    };
                    ensemble::large_layered_at(seed, index, &cfg).instance
                } else {
                    ensemble::instance_at(seed, index, &small_cfg).instance
                };
                let inst = inst.with_model(CostModel::of_kind(kind));
                if keys.insert(inst.canonical_key()) {
                    break inst;
                }
            };
            let req = if large {
                Req {
                    doc: docs.add("large-layered", &inst),
                    spec: if (fresh / 8).is_multiple_of(2) {
                        "greedy"
                    } else {
                        "portfolio"
                    },
                    opts: "cache=on accept=bound",
                }
            } else {
                Req {
                    doc: docs.add("ensemble", &inst),
                    spec: "exact",
                    opts: "cache=on max-expansions=10000",
                }
            };
            pools[large as usize].push(req);
            fresh += 1;
            out.push(req);
        } else {
            let large = mix.below(2) == 1;
            let mut req = pools[large as usize].pick(mix);
            if large && mix.unit() < RESOLVE_SHARE {
                req.spec = if mix.below(2) == 0 {
                    "portfolio"
                } else {
                    "coarse"
                };
                req.opts = "cache=on accept=optimal";
            }
            out.push(req);
        }
    }
    out
}

/// `cached-repeats`: two users with disjoint pools, mostly repeats.
fn cached_repeats(seed: u64) -> Result<Plan, String> {
    let mut mix = Mix::new(seed);
    let mut docs = Docs::default();
    let mut keys = HashSet::new();
    let mut slices = Vec::new();
    let mut streams = [Vec::new(), Vec::new()];
    for (user, stream) in streams.iter_mut().enumerate() {
        let mut all = user_stream(&mut mix, user as u64, &mut docs, &mut keys);
        *stream = all.split_off(SLICE);
        slices.push(all);
    }
    let snapshot = snapshot_of(&docs.docs, &slices)?;
    Ok(Plan {
        docs: docs.docs,
        streams,
        cycle: false,
        prefix: REPEATS_PREFIX,
        snapshot: Some(snapshot),
    })
}

/// Runs the earlier slices through an in-process server, one request
/// at a time, and returns its cache as a `cache v1` snapshot.
fn snapshot_of(docs: &[Doc], slices: &[Vec<Req>]) -> Result<String, String> {
    let server = Server::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    for (user, slice) in slices.iter().enumerate() {
        for (k, req) in slice.iter().enumerate() {
            let text = req.head(&format!("slice{user}-{k}")) + &docs[req.doc].text;
            let job: JobRequest = match RequestReader::new(text.as_bytes()).next_request() {
                Ok(Some(Ok(Request::Submit(job)))) => job,
                other => return Err(format!("slice request did not parse: {other:?}")),
            };
            let events = server.submit_collect(job).map_err(|e| e.to_string())?;
            match events.iter().find(Event::is_terminal) {
                Some(Event::Done { .. }) => {}
                other => return Err(format!("slice request failed: {other:?}")),
            }
        }
    }
    let text = server.cache().write_snapshot();
    server.shutdown();
    Ok(text)
}
