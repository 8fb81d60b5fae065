//! End-to-end service tests: concurrent clients over a saturated queue,
//! deterministic cache-hit accounting, every served answer answering
//! the requester (relabeled and lifted repeats, snapshot entries that
//! fail their check, malformed specs, infeasible instances),
//! cancellation, priorities, and the quality-upgrade path
//! (`UpperBound` → `Optimal`) observable across requests.

use rbp_core::{certify, CostModel, Instance};
use rbp_graph::{generate, DagBuilder};
use rbp_service::protocol::{render_event, render_stats};
use rbp_service::{
    AcceptPolicy, Event, JobOptions, JobRequest, Server, ServerConfig, SolutionCache,
};
use rbp_solvers::wire::{self, WireSolution};
use rbp_solvers::{
    registry, GreedySolver, Quality, Registry, Solution, SolveCtx, SolveError, Solver,
};
use std::sync::mpsc;
use std::time::Duration;

/// A test solver that holds its worker for a while, then answers with
/// greedy — deterministic occupancy for queue/cancellation scenarios.
struct Sleeper(Duration);

impl Solver for Sleeper {
    fn name(&self) -> &str {
        "sleeper"
    }
    fn solve(&self, instance: &Instance, ctx: &SolveCtx) -> Result<Solution, SolveError> {
        std::thread::sleep(self.0);
        GreedySolver::new().solve(instance, ctx)
    }
}

fn registry_with_sleeper() -> Registry {
    let mut reg = Registry::with_builtins();
    reg.register("sleeper", "test: sleep <ms>, then greedy", |arg| {
        let ms: u64 = arg
            .unwrap_or("50")
            .parse()
            .map_err(|_| SolveError::BadSpec {
                spec: format!("sleeper:{}", arg.unwrap_or("")),
                reason: "sleeper takes milliseconds".into(),
            })?;
        Ok(Box::new(Sleeper(Duration::from_millis(ms))))
    });
    reg
}

fn chain_req(id: &str, n: usize, spec: &str, options: JobOptions) -> JobRequest {
    JobRequest {
        id: id.to_string(),
        spec: spec.to_string(),
        instance: Instance::new(generate::chain(n), 2, CostModel::oneshot()),
        options,
    }
}

/// stencil(4, 2, 1) under base at R=4: a real search (greedy does not
/// meet the trivial lower bound), still subsecond in debug builds.
fn grid4_base() -> Instance {
    Instance::new(
        rbp_workloads::stencil::build(4, 2, 1).dag,
        4,
        CostModel::base(),
    )
}

fn terminal(rx: &mpsc::Receiver<Event>) -> Event {
    loop {
        let ev = rx
            .recv_timeout(Duration::from_secs(120))
            .expect("job must reach a terminal event");
        if ev.is_terminal() {
            return ev;
        }
    }
}

#[test]
fn duplicates_hit_the_cache_without_resolving() {
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 8,
        ..ServerConfig::default()
    });
    let mut cached_flags = Vec::new();
    for i in 0..5 {
        let rx = server
            .submit_collect(chain_req(
                &format!("d{i}"),
                7,
                "exact",
                JobOptions::default(),
            ))
            .unwrap();
        match terminal(&rx) {
            Event::Done { cached, .. } => cached_flags.push(cached),
            other => panic!("{other:?}"),
        }
    }
    assert_eq!(cached_flags, [false, true, true, true, true]);
    let stats = server.stats();
    assert_eq!(stats.solves, 1, "one solver run serves five requests");
    assert_eq!(stats.cache.hits, 4);
    assert_eq!(stats.cache.entries, 1);
    server.shutdown();
}

// ---------------------------------------------------------------------
// Every served answer answers the requester. Each scenario below runs
// init (a fresh one-worker server) → actions (submit, resubmit) →
// read_state (the `result` line and `solution v1` document a client
// reads back, and the `stats` line).
// ---------------------------------------------------------------------

/// init: a one-worker server, so jobs run in submission order.
fn init() -> Server {
    Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 4,
        ..ServerConfig::default()
    })
}

/// action: submits one job and waits for its terminal event.
fn act(server: &Server, id: &str, spec: &str, instance: &Instance) -> Event {
    let rx = server
        .submit_collect(JobRequest {
            id: id.to_string(),
            spec: spec.to_string(),
            instance: instance.clone(),
            options: JobOptions::default(),
        })
        .unwrap();
    terminal(&rx)
}

/// read_state: the `cached` flag of the `result` line and the served
/// `solution v1` document, parsed back as a client would.
fn read_answer(ev: &Event) -> (bool, WireSolution) {
    let text = render_event(ev);
    let (head, doc) = text.split_once('\n').expect("a result line and a document");
    assert!(head.starts_with("result "), "{text}");
    let cached = head.ends_with(" cached=true");
    (
        cached,
        wire::parse_solution(doc).expect("served document parses"),
    )
}

/// The served trace certifies against `instance` at the cost it claims.
fn assert_certifies(instance: &Instance, served: &WireSolution) {
    let cert = certify(instance, &served.solution.trace).expect("served trace certifies");
    assert!(cert.matches(&served.solution.cost), "{cert:?}");
}

fn dag4(edges: &[(usize, usize)]) -> Instance {
    let mut b = DagBuilder::new(4);
    for &(u, v) in edges {
        b.add_edge(u, v);
    }
    Instance::new(b.build().unwrap(), 2, CostModel::oneshot())
}

/// pyramid(3) under nodel at R = 3: the classic optimum is 5, the
/// two-processor optimum 4.
fn pyramid3_nodel() -> Instance {
    Instance::new(rbp_gadgets::pyramid::build(3).dag, 3, CostModel::nodel())
}

#[test]
fn a_relabeled_repeat_is_solved_in_its_own_node_ids() {
    let server = init();
    let straight = dag4(&[(0, 1), (1, 2), (2, 3)]);
    // the same chain under the relabeling 0→2, 1→0, 2→3, 3→1
    let relabeled = dag4(&[(2, 0), (0, 3), (3, 1)]);
    let (cached, first) = read_answer(&act(&server, "a1", "exact", &straight));
    assert!(!cached);
    assert_certifies(&straight, &first);
    let (cached, second) = read_answer(&act(&server, "a2", "exact", &relabeled));
    assert!(!cached, "another edge set is another problem");
    assert_certifies(&relabeled, &second);
    let stats = server.stats();
    assert_eq!(
        (stats.solves, stats.cache.hits, stats.cache.entries),
        (2, 0, 2)
    );
    server.shutdown();
}

#[test]
fn a_lifted_answer_never_answers_the_classic_game() {
    let server = init();
    let pyramid = pyramid3_nodel();
    let (cached, lifted) = read_answer(&act(&server, "b1", "exact@mpp:2", &pyramid));
    assert!(!cached);
    assert_eq!(lifted.solution.scaled_cost(&pyramid.with_procs(2)), 4);
    let (cached, classic) = read_answer(&act(&server, "b2", "exact", &pyramid));
    assert!(!cached, "the p = 2 answer sits under the p = 2 key");
    assert!(classic.solution.is_optimal());
    assert_eq!(classic.solution.scaled_cost(&pyramid), 5);
    assert_certifies(&pyramid, &classic);
    let (cached, again) = read_answer(&act(&server, "b3", "exact@mpp:2", &pyramid));
    assert!(cached);
    assert_eq!(again.spec, "exact@mpp:2");
    assert_certifies(&pyramid.with_procs(2), &again);
    let stats = server.stats();
    assert_eq!(
        (stats.solves, stats.cache.hits, stats.cache.entries),
        (2, 1, 2)
    );
    server.shutdown();
}

#[test]
fn a_snapshot_entry_that_fails_its_check_is_evicted_and_solved() {
    // what a server that keyed by the document wrote after `exact@mpp:2`
    // on pyramid(3): a p = 2 trace under the classic key, flag 0
    let pyramid = pyramid3_nodel();
    let lifted = registry::solve("exact@mpp:2", &pyramid).unwrap();
    let old = SolutionCache::new();
    let scaled = lifted.scaled_cost(&pyramid);
    old.insert_or_upgrade(pyramid.canonical_key(), "exact@mpp:2", lifted, scaled);
    let snapshot = old.write_snapshot();
    assert!(snapshot.contains(&format!("entry {} 0 4\n", pyramid.canonical_key())));

    let server = init();
    assert_eq!(server.cache().load_snapshot(&snapshot).recovered, 1);
    let (cached, served) = read_answer(&act(&server, "c1", "exact", &pyramid));
    assert!(!cached, "the p = 2 trace is no classic schedule");
    assert_eq!(served.spec, "exact");
    assert!(served.solution.is_optimal());
    assert_eq!(served.solution.scaled_cost(&pyramid), 5);
    assert_certifies(&pyramid, &served);
    let stats = render_stats(&server.stats());
    assert!(stats.contains(" solves=1 "), "{stats}");
    assert!(stats.contains(" cache-evicted=1\n"), "{stats}");
    let (cached, again) = read_answer(&act(&server, "c2", "exact", &pyramid));
    assert!(cached);
    assert_certifies(&pyramid, &again);
    assert_eq!(server.stats().cache.evicted, 1);
    server.shutdown();
}

#[test]
fn a_malformed_spec_fails_even_on_a_cached_instance() {
    let server = init();
    let chain = Instance::new(generate::chain(5), 2, CostModel::oneshot());
    let (cached, _) = read_answer(&act(&server, "a", "exact", &chain));
    assert!(!cached);
    match act(&server, "b", "exat", &chain) {
        Event::Failed { error, .. } => assert!(error.contains("exat"), "{error}"),
        other => panic!("a malformed spec must fail, got {other:?}"),
    }
    let stats = server.stats();
    assert_eq!((stats.solves, stats.cache.hits), (1, 0));
    server.shutdown();
}

#[test]
fn an_infeasible_answer_is_served_from_the_cache() {
    let server = init();
    // R = 1 cannot hold a node together with its input
    let chain = Instance::new(generate::chain(4), 1, CostModel::oneshot());
    assert!(!chain.is_feasible());
    for (id, expect_cached) in [("i1", false), ("i2", true)] {
        let (cached, served) = read_answer(&act(&server, id, "exact", &chain));
        assert_eq!(cached, expect_cached);
        assert_eq!(served.solution.quality, Quality::Infeasible);
    }
    let stats = server.stats();
    assert_eq!(
        (stats.solves, stats.cache.hits, stats.cache.evicted),
        (1, 1, 0)
    );
    server.shutdown();
}

#[test]
fn upper_bound_upgrades_to_optimal_across_requests() {
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 4,
        ..ServerConfig::default()
    });

    // 1: a strangled budget degrades to the greedy incumbent's bound,
    // which is cached as UpperBound
    let opts = JobOptions {
        max_expansions: Some(1),
        ..JobOptions::default()
    };
    let rx = server
        .submit_collect(JobRequest {
            id: "tight".into(),
            spec: "exact".into(),
            instance: grid4_base(),
            options: opts,
        })
        .unwrap();
    let bound_cost = match terminal(&rx) {
        Event::Done {
            cached, solution, ..
        } => {
            assert!(!cached);
            assert!(
                matches!(solution.quality, Quality::UpperBound { .. }),
                "budgeted solve must degrade, got {:?}",
                solution.quality
            );
            solution.cost
        }
        other => panic!("{other:?}"),
    };
    assert_eq!(server.stats().cache.insertions, 1);

    // 2: accept=bound is answered by the cached UpperBound, no solve
    let opts = JobOptions {
        accept: AcceptPolicy::Bound,
        ..JobOptions::default()
    };
    let rx = server
        .submit_collect(JobRequest {
            id: "bound-ok".into(),
            spec: "exact".into(),
            instance: grid4_base(),
            options: opts,
        })
        .unwrap();
    match terminal(&rx) {
        Event::Done {
            cached, solution, ..
        } => {
            assert!(cached);
            assert!(matches!(solution.quality, Quality::UpperBound { .. }));
        }
        other => panic!("{other:?}"),
    }

    // 3: the default accept=optimal refuses the bound, solves for real,
    // and upgrades the entry in place
    let rx = server
        .submit_collect(JobRequest {
            id: "full".into(),
            spec: "exact".into(),
            instance: grid4_base(),
            options: JobOptions::default(),
        })
        .unwrap();
    match terminal(&rx) {
        Event::Done {
            cached, solution, ..
        } => {
            assert!(!cached);
            assert!(solution.is_optimal());
            assert!(solution.cost.transfers <= bound_cost.transfers);
        }
        other => panic!("{other:?}"),
    }
    let stats = server.stats();
    assert_eq!(stats.cache.upgrades, 1, "the slot was upgraded in place");
    assert_eq!(stats.cache.entries, 1, "upgrade, not a second entry");

    // 4: now even accept=optimal is a cache hit, carrying Optimal
    let rx = server
        .submit_collect(JobRequest {
            id: "hit".into(),
            spec: "exact".into(),
            instance: grid4_base(),
            options: JobOptions::default(),
        })
        .unwrap();
    match terminal(&rx) {
        Event::Done {
            cached, solution, ..
        } => {
            assert!(cached);
            assert!(solution.is_optimal());
        }
        other => panic!("{other:?}"),
    }
    assert_eq!(server.stats().solves, 2, "only the two genuine solves ran");
    server.shutdown();
}

#[test]
fn queued_jobs_cancel_cleanly_and_priorities_reorder() {
    let server = Server::with_registry(
        ServerConfig {
            workers: 1,
            queue_capacity: 8,
            ..ServerConfig::default()
        },
        registry_with_sleeper(),
    );
    let (tx, rx) = mpsc::channel();

    // occupy the single worker so everything below stays queued
    server
        .submit(
            chain_req("occupy", 4, "sleeper:400", JobOptions::default()),
            tx.clone(),
        )
        .unwrap();
    // wait for the worker to actually pick 'occupy' up, so everything
    // submitted below is competing in the queue, not with it
    while server.stats().solves == 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let low = JobOptions {
        priority: 0,
        use_cache: false,
        ..JobOptions::default()
    };
    let high = JobOptions {
        priority: 5,
        ..low.clone()
    };
    server
        .submit(chain_req("low", 5, "greedy", low.clone()), tx.clone())
        .unwrap();
    server
        .submit(chain_req("high", 6, "greedy", high), tx.clone())
        .unwrap();
    server
        .submit(chain_req("doomed", 7, "greedy", low), tx.clone())
        .unwrap();
    assert!(server.cancel("doomed"), "queued job is cancellable");
    drop(tx);

    let mut terminal_order = Vec::new();
    for ev in rx.iter() {
        match ev {
            Event::Done { id, .. } | Event::Cancelled { id } => terminal_order.push(id),
            _ => {}
        }
    }
    assert_eq!(
        terminal_order,
        ["occupy", "high", "low", "doomed"],
        "priority 5 jumps the queue; equal priorities stay FIFO; the \
         cancelled job still reports a terminal event (at pop time)"
    );
    server.shutdown();
}

#[test]
fn concurrent_clients_over_a_saturated_queue_lose_nothing() {
    const CLIENTS: usize = 4;
    const JOBS_PER_CLIENT: usize = 5;
    let server = Server::with_registry(
        ServerConfig {
            workers: 2,
            queue_capacity: 2, // deliberately tiny: submits must block, not drop
            // this test is about backpressure, not shedding: give the
            // admission wait enough headroom that no submission sheds
            admission_wait: Duration::from_secs(600),
        },
        registry_with_sleeper(),
    );

    let results: Vec<Vec<Event>> = std::thread::scope(|scope| {
        let server = &server;
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                scope.spawn(move || {
                    let mut terminals = Vec::new();
                    for j in 0..JOBS_PER_CLIENT {
                        let id = format!("c{t}-j{j}");
                        let req = match j % 3 {
                            // duplicates: every client submits the same instance
                            0 => chain_req(&id, 9, "exact", JobOptions::default()),
                            // budget-limited: unique instances, tiny budgets
                            1 => {
                                let o = JobOptions {
                                    max_expansions: Some(2),
                                    ..JobOptions::default()
                                };
                                chain_req(&id, 10 + t * JOBS_PER_CLIENT + j, "exact", o)
                            }
                            // slow + sometimes cancelled mid-flight
                            _ => {
                                let o = JobOptions {
                                    use_cache: false,
                                    ..JobOptions::default()
                                };
                                chain_req(&id, 5, "sleeper:30", o)
                            }
                        };
                        let rx = server.submit_collect(req).unwrap();
                        if j % 3 == 2 && t % 2 == 0 {
                            server.cancel(&id);
                        }
                        terminals.push(terminal(&rx));
                    }
                    terminals
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // every submission reached exactly one terminal event, in order
    for (t, events) in results.iter().enumerate() {
        assert_eq!(events.len(), JOBS_PER_CLIENT);
        for (j, ev) in events.iter().enumerate() {
            assert_eq!(ev.id(), format!("c{t}-j{j}"), "responses matched to jobs");
            match (j % 3, ev) {
                (0 | 1, Event::Done { .. }) => {}
                (2, Event::Done { .. } | Event::Cancelled { .. }) => {}
                other => panic!("unexpected terminal {other:?}"),
            }
        }
    }
    let stats = server.stats();
    assert_eq!(stats.submitted, (CLIENTS * JOBS_PER_CLIENT) as u64);
    assert_eq!(stats.completed, stats.submitted, "no job was dropped");
    // 8 duplicate submissions of one instance across 2 workers: at most
    // two can race past the empty cache before the first insert lands
    assert!(
        stats.cache.hits >= 6,
        "duplicates must be served from cache (hits={})",
        stats.cache.hits
    );
    server.shutdown();
}

#[test]
fn deadline_is_clocked_from_submission_not_solve_start() {
    let server = Server::with_registry(
        ServerConfig {
            workers: 1,
            queue_capacity: 8,
            ..ServerConfig::default()
        },
        registry_with_sleeper(),
    );
    let (tx, _rx_occupy) = mpsc::channel();
    // occupy the only worker long enough that the deadlined job spends
    // its whole deadline waiting in the queue
    server
        .submit(
            chain_req("occupy", 4, "sleeper:300", JobOptions::default()),
            tx,
        )
        .unwrap();
    while server.stats().solves == 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let opts = JobOptions {
        deadline: Some(Duration::from_millis(100)),
        use_cache: false,
        ..JobOptions::default()
    };
    let rx = server
        .submit_collect(JobRequest {
            id: "late".into(),
            spec: "exact".into(),
            instance: grid4_base(),
            options: opts,
        })
        .unwrap();
    // by the time the worker frees up, the submission-clocked deadline
    // has passed: the exact solver must degrade at its first budget
    // poll instead of burning a fresh 100ms from solve start
    match terminal(&rx) {
        Event::Done { solution, .. } => {
            assert!(
                matches!(solution.quality, Quality::UpperBound { .. }),
                "a queue-expired deadline must degrade, got {:?}",
                solution.quality
            );
        }
        other => panic!("{other:?}"),
    }
    server.shutdown();
}

#[test]
fn snapshot_round_trips_optimals_across_a_server_restart() {
    // first life: solve for real, then snapshot
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 4,
        ..ServerConfig::default()
    });
    let rx = server
        .submit_collect(JobRequest {
            id: "warm".into(),
            spec: "exact".into(),
            instance: grid4_base(),
            options: JobOptions::default(),
        })
        .unwrap();
    match terminal(&rx) {
        Event::Done { solution, .. } => assert!(solution.is_optimal()),
        other => panic!("{other:?}"),
    }
    let snapshot = server.cache().write_snapshot();
    server.shutdown();

    // second life: reload the snapshot; the same instance is a cache
    // hit carrying Optimal, with no solver run at all
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 4,
        ..ServerConfig::default()
    });
    let report = server.cache().load_snapshot(&snapshot);
    assert_eq!(report.recovered, 1);
    assert_eq!(report.skipped, 0);
    let rx = server
        .submit_collect(JobRequest {
            id: "reheat".into(),
            spec: "exact".into(),
            instance: grid4_base(),
            options: JobOptions::default(),
        })
        .unwrap();
    match terminal(&rx) {
        Event::Done {
            cached, solution, ..
        } => {
            assert!(cached, "restart must not lose the Optimal");
            assert!(solution.is_optimal());
        }
        other => panic!("{other:?}"),
    }
    assert_eq!(server.stats().solves, 0, "no re-solve after recovery");
    server.shutdown();
}

/// The ISSUE acceptance flow on the real grid5/base cell. Release-only:
/// the exact solve takes seconds optimized and the debug-assert-laden
/// debug build pushes it into minutes.
#[cfg(not(debug_assertions))]
#[test]
fn grid5_base_acceptance_flow() {
    let grid5 = || {
        Instance::new(
            rbp_workloads::stencil::build(5, 2, 1).dag,
            4,
            CostModel::base(),
        )
    };
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 4,
        ..ServerConfig::default()
    });

    // tight deadline first: the cache learns an UpperBound
    let tight = JobOptions {
        deadline: Some(Duration::from_millis(50)),
        ..JobOptions::default()
    };
    let rx = server
        .submit_collect(JobRequest {
            id: "tight".into(),
            spec: "exact".into(),
            instance: grid5(),
            options: tight,
        })
        .unwrap();
    match terminal(&rx) {
        Event::Done { solution, .. } => {
            assert!(matches!(solution.quality, Quality::UpperBound { .. }));
        }
        other => panic!("{other:?}"),
    }

    // unbudgeted: solves for real and upgrades the entry to Optimal
    let rx = server
        .submit_collect(JobRequest {
            id: "full".into(),
            spec: "exact".into(),
            instance: grid5(),
            options: JobOptions::default(),
        })
        .unwrap();
    match terminal(&rx) {
        Event::Done {
            cached, solution, ..
        } => {
            assert!(!cached);
            assert!(solution.is_optimal());
        }
        other => panic!("{other:?}"),
    }
    assert_eq!(server.stats().cache.upgrades, 1);

    // resubmit: answered from cache, no third solver run
    let rx = server
        .submit_collect(JobRequest {
            id: "again".into(),
            spec: "exact".into(),
            instance: grid5(),
            options: JobOptions::default(),
        })
        .unwrap();
    match terminal(&rx) {
        Event::Done {
            cached, solution, ..
        } => {
            assert!(cached);
            assert!(solution.is_optimal());
        }
        other => panic!("{other:?}"),
    }
    assert_eq!(server.stats().solves, 2);
    server.shutdown();
}
