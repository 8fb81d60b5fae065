//! Smoke test covering the facade's quickstart path end-to-end: the same
//! API the `quickstart.rs` example and the crate-level doctest exercise —
//! build a DAG through the prelude, solve it exactly, and replay the
//! schedule through the validating engine.

use red_blue_pebbling::prelude::*;

/// The crate-level quickstart: a 2×2 matmul DAG with a cache of 4,
/// solved exactly and engine-validated.
#[test]
fn quickstart_matmul_round_trip() {
    let mm = red_blue_pebbling::workloads::matmul::build(2);
    assert_eq!(mm.n, 2);
    // 4 entries of A, 4 of B, and per output entry two products plus one
    // accumulation: 8 + 4·3 = 20 nodes.
    assert_eq!(mm.dag.n(), 20);
    assert!(mm.dag.max_indegree() <= 2, "matmul is pebblable from R = 3");

    let inst = Instance::new(mm.dag.clone(), 4, CostModel::oneshot());
    let opt = registry::solve("exact", &inst).expect("R = 4 is feasible for matmul(2)");
    assert!(opt.is_optimal(), "exact solves carry Quality::Optimal");

    // The reported optimum must replay on the engine at exactly the
    // reported cost, within the red budget.
    let report = engine::simulate(&inst, &opt.trace).expect("optimal trace must validate");
    assert_eq!(report.cost, opt.cost);
    assert!(report.peak_red <= 4);

    // And it must sit inside the structural bracket from Section 3.
    let eps = inst.model().epsilon();
    assert!(bounds::trivial_lower_bound(&inst).scaled(eps) <= opt.cost.scaled(eps));
    assert!(opt.cost.scaled(eps) <= bounds::universal_upper_bound(&inst).scaled(eps));
}

/// The example's diamond DAG: sweeping R shrinks the optimum to zero
/// transfers once everything fits in fast memory.
#[test]
fn quickstart_diamond_sweep_is_monotone() {
    let mut b = DagBuilder::new(0);
    let x = b.add_labeled_node("x");
    let y = b.add_labeled_node("y");
    let f = b.add_labeled_node("f(x,y)");
    let g = b.add_labeled_node("g(y)");
    let out = b.add_labeled_node("out");
    b.add_edge_ids(x, f);
    b.add_edge_ids(y, f);
    b.add_edge_ids(y, g);
    b.add_edge_ids(f, out);
    b.add_edge_ids(g, out);
    let dag = b.build().expect("acyclic");

    let mut prev = u64::MAX;
    for r in 3..=5 {
        let inst = Instance::new(dag.clone(), r, CostModel::oneshot());
        let opt = registry::solve("exact", &inst).expect("feasible from R = 3");
        let report = engine::simulate(&inst, &opt.trace).expect("valid");
        assert_eq!(report.cost, opt.cost);
        assert!(opt.cost.transfers <= prev, "opt(R) must be non-increasing");
        prev = opt.cost.transfers;
    }
    // All five values fit at R = 5, so the game is I/O-free.
    assert_eq!(prev, 0);
}

/// Public-API smoke test: every spec string in the README's solver
/// registry grammar table parses and solves the quickstart diamond.
/// Documentation drift (a spec renamed in code but not in the README,
/// or vice versa) fails here, not in a user's shell.
#[test]
fn readme_registry_specs_parse_and_solve() {
    let readme = include_str!("../README.md");
    let section = readme
        .split("## Solver registry")
        .nth(1)
        .expect("README must keep a 'Solver registry' section");
    let section = section.split("\n## ").next().unwrap();
    let mut specs: Vec<&str> = Vec::new();
    for line in section.lines() {
        // table rows look like:  | `beam:256` | ... |
        let line = line.trim();
        let Some(rest) = line.strip_prefix("| `") else {
            continue;
        };
        let spec = rest.split('`').next().unwrap();
        specs.push(spec);
    }
    assert!(
        specs.len() >= 6,
        "README grammar table lists every family; found only {specs:?}"
    );

    // the quickstart diamond from the example above
    let mut b = DagBuilder::new(5);
    b.add_edge(0, 2);
    b.add_edge(1, 2);
    b.add_edge(1, 3);
    b.add_edge(2, 4);
    b.add_edge(3, 4);
    let inst = Instance::new(b.build().expect("acyclic"), 3, CostModel::oneshot());
    for spec in specs {
        let sol = registry::solve(spec, &inst)
            .unwrap_or_else(|e| panic!("README spec `{spec}` failed: {e}"));
        let report = engine::simulate(&inst, &sol.trace)
            .unwrap_or_else(|e| panic!("README spec `{spec}` produced an invalid trace: {e:?}"));
        assert_eq!(
            report.cost, sol.cost,
            "spec `{spec}` cost must be engine-exact"
        );
    }
}

/// Public-API smoke test for the "Multiprocessor pebbling" section:
/// replays the documented session verbatim and checks every claim the
/// prose makes — the `@mpp` grammar rows parse and solve, `p = 1`
/// matches the classic optimum, a second processor strictly helps on
/// the height-3 nodel pyramid, and the p = 2 schedule certifies on the
/// lifted instance.
#[test]
fn readme_mpp_session_replays() {
    let readme = include_str!("../README.md");
    let section = readme
        .split("## Multiprocessor pebbling")
        .nth(1)
        .expect("README must keep a 'Multiprocessor pebbling' section");
    let section = section.split("\n## ").next().unwrap();

    // the documented session
    let pyr = red_blue_pebbling::gadgets::pyramid::build(3);
    let inst = Instance::new(pyr.dag.clone(), 3, CostModel::nodel());
    let classic = registry::solve("exact", &inst).expect("feasible");
    let one = registry::solve("exact@mpp:1", &inst).expect("feasible");
    let two = registry::solve("exact@mpp:2", &inst).expect("feasible");
    assert_eq!(
        one.scaled_cost(&inst),
        classic.scaled_cost(&inst),
        "p = 1 must be the classic game"
    );
    assert!(
        two.scaled_cost(&inst) < one.scaled_cost(&inst),
        "the README claims a second processor strictly helps here"
    );

    // the p = 2 schedule replays on the engine of the lifted instance
    let lifted = inst.with_procs(2);
    let report = engine::simulate(&lifted, &two.trace).expect("p = 2 trace must validate");
    assert_eq!(report.cost, two.cost);

    // every `@mpp` spec the section's grammar table lists parses and
    // solves the same instance (the move-semantics table has no
    // backticked spec column, so filtering on `@mpp` selects exactly
    // the grammar rows)
    let specs: Vec<&str> = section
        .lines()
        .filter_map(|l| l.trim().strip_prefix("| `"))
        .map(|rest| rest.split('`').next().unwrap())
        .filter(|s| s.contains("@mpp"))
        .collect();
    assert_eq!(specs.len(), 2, "grammar table lists both mpp families");
    for spec in specs {
        registry::solve(spec, &inst)
            .unwrap_or_else(|e| panic!("README mpp spec `{spec}` failed: {e}"));
    }
}

/// Public-API smoke test for the "Scaling" section: replays the
/// documented matmul(16) session verbatim — the stitched `coarse`
/// schedule certifies at the claimed cost and carries a fractional
/// lower bound strictly above the trivial one — then parses the
/// section's grammar table and solves every `coarse` row on a small
/// butterfly, pinning `coarse:1/exact` to the exact optimum.
#[test]
fn readme_scaling_session_replays() {
    let readme = include_str!("../README.md");
    let section = readme
        .split("## Scaling")
        .nth(1)
        .expect("README must keep a 'Scaling' section");
    let section = section.split("\n## ").next().unwrap();

    // the documented session
    let mm = red_blue_pebbling::workloads::matmul::build(16);
    let inst = Instance::new(mm.dag.clone(), 4, CostModel::oneshot())
        .with_source_convention(SourceConvention::InitiallyBlue)
        .with_sink_convention(SinkConvention::RequireBlue);
    let sol = registry::solve("coarse", &inst).expect("coarse scales to matmul(16)");
    let cert = certify::certify(&inst, &sol.trace).expect("stitched trace certifies");
    assert!(cert.matches(&sol.cost));
    let Quality::UpperBound { lower_bound } = sol.quality else {
        panic!("8448 nodes will not hit the bound exactly")
    };
    let eps = inst.model().epsilon();
    assert!(lower_bound <= sol.cost.scaled(eps));
    assert!(
        lower_bound > bounds::trivial_lower_bound(&inst).scaled(eps),
        "the README claims a strictly stronger bound here"
    );

    // every `coarse` spec in the section's grammar table parses and
    // solves a small butterfly, and K = 1 with an exact inner solver
    // reproduces the exact optimum
    let specs: Vec<&str> = section
        .lines()
        .filter_map(|l| l.trim().strip_prefix("| `"))
        .map(|rest| rest.split('`').next().unwrap())
        .filter(|s| s.starts_with("coarse"))
        .collect();
    assert_eq!(specs.len(), 4, "grammar table lists the coarse variants");
    let small = red_blue_pebbling::workloads::fft::build(2);
    let small_inst = Instance::new(small.dag.clone(), 4, CostModel::oneshot());
    let opt = registry::solve("exact", &small_inst).expect("feasible");
    assert!(opt.is_optimal());
    for spec in specs {
        let sol = registry::solve(spec, &small_inst)
            .unwrap_or_else(|e| panic!("README scaling spec `{spec}` failed: {e}"));
        let report = engine::simulate(&small_inst, &sol.trace)
            .unwrap_or_else(|e| panic!("spec `{spec}` produced an invalid trace: {e:?}"));
        assert_eq!(report.cost, sol.cost);
        assert!(sol.scaled_cost(&small_inst) >= opt.scaled_cost(&small_inst));
        if spec == "coarse:1/exact" {
            assert!(sol.is_optimal(), "pure delegation must stay exact");
            assert_eq!(sol.scaled_cost(&small_inst), opt.scaled_cost(&small_inst));
        }
    }
}

/// Public-API smoke test for the "Serving" section: the exact protocol
/// session printed in the README is fed to an in-process server, and
/// the solution document it streams back must replay on the engine.
/// If the wire grammar drifts from the README, this fails here.
#[test]
fn readme_serving_protocol_round_trip() {
    use red_blue_pebbling::service::{serve_session, Server, ServerConfig};
    use std::io::BufReader;

    let readme = include_str!("../README.md");
    let section = readme
        .split("## Serving")
        .nth(1)
        .expect("README must keep a 'Serving' section");
    let section = section.split("\n## ").next().unwrap();
    let session = section
        .split("```text\n")
        .nth(1)
        .and_then(|s| s.split("```").next())
        .expect("the Serving section shows a protocol session in a text fence");
    assert!(
        session.starts_with("submit job-1 "),
        "README session must open with a submit: {session:?}"
    );

    let server = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 4,
        ..ServerConfig::default()
    });
    let mut response = Vec::new();
    serve_session(BufReader::new(session.as_bytes()), &mut response, &server)
        .expect("session runs clean");
    server.shutdown();
    let response = String::from_utf8(response).unwrap();

    assert!(
        !response.contains("protocol-error") && !response.contains("failed job-1"),
        "README session must be accepted verbatim:\n{response}"
    );
    assert!(response.contains("queued job-1"));
    assert!(response.contains("result job-1 spec=exact cached=false"));
    assert!(response.trim_end().ends_with("bye"));

    // the streamed solution document replays on the engine at its
    // advertised cost, against the instance embedded in the session
    let instance_doc: String = {
        let start = session.find("instance v1").unwrap();
        let end = session[start..].find("\nend").unwrap() + start + "\nend\n".len();
        session[start..end].to_string()
    };
    let inst = red_blue_pebbling::core::io::parse_instance(&instance_doc).expect("valid instance");
    let sol_start = response.find("solution v1").unwrap();
    let sol_end = response[sol_start..].find("\nend").unwrap() + sol_start + "\nend".len();
    let wire = red_blue_pebbling::solvers::wire::parse_solution(&response[sol_start..sol_end])
        .expect("valid solution document");
    assert_eq!(wire.spec, "exact");
    let report = engine::simulate(&inst, &wire.solution.trace).expect("trace must replay");
    assert_eq!(report.cost, wire.solution.cost);
}

/// Every model variant solves the quickstart diamond and validates.
#[test]
fn quickstart_all_models_validate() {
    let mut b = DagBuilder::new(5);
    b.add_edge(0, 2);
    b.add_edge(1, 2);
    b.add_edge(1, 3);
    b.add_edge(2, 4);
    b.add_edge(3, 4);
    let dag = b.build().expect("acyclic");
    for kind in ModelKind::ALL {
        let model = CostModel::of_kind(kind);
        let inst = Instance::new(dag.clone(), 3, model);
        let opt = registry::solve("exact", &inst).expect("feasible");
        let report = engine::simulate(&inst, &opt.trace).expect("valid");
        assert_eq!(report.cost, opt.cost, "engine disagrees under {kind:?}");
    }
}
