//! Budget semantics of the unified solver API: deadlines, expansion
//! caps, and cooperative cancellation must degrade exact solves to
//! valid incumbents — never to invalid traces, and never to errors when
//! an incumbent exists.

use red_blue_pebbling::prelude::*;
use red_blue_pebbling::workloads::stencil;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The grid(5)/base cell at tight R: the exact search interns hundreds
/// of thousands of states (seconds of work), so every budget below
/// trips mid-search.
fn hard_instance() -> Instance {
    Instance::new(stencil::build(5, 2, 1).dag.clone(), 4, CostModel::base())
}

/// A deadline-expired exact solve returns the greedy-seeded incumbent
/// as `UpperBound`, with `lower_bound` populated from
/// `bounds::trivial_lower_bound`, and a trace that replays through the
/// validating engine.
#[test]
fn deadline_expired_exact_returns_greedy_seeded_upper_bound() {
    let inst = hard_instance();
    let ctx = SolveCtx::new(Budget::none().with_deadline(Duration::from_millis(40)));
    let sol = registry::solver("exact")
        .unwrap()
        .solve(&inst, &ctx)
        .expect("deadline must degrade, not error");

    let eps = inst.model().epsilon();
    match sol.quality {
        Quality::UpperBound { lower_bound } => {
            assert_eq!(
                lower_bound,
                bounds::trivial_lower_bound(&inst).scaled(eps),
                "lower_bound comes from the structural bound"
            );
            assert!(lower_bound <= sol.scaled_cost(&inst));
        }
        Quality::Optimal => panic!("a 40 ms deadline cannot settle this search"),
        Quality::Infeasible => panic!("instance is feasible"),
    }
    // the incumbent is a real schedule: replays exactly, within budget R
    let report = engine::simulate(&inst, &sol.trace).expect("incumbent trace must validate");
    assert_eq!(report.cost, sol.cost);
    assert!(report.peak_red <= inst.red_limit());
    // and it is never worse than the best greedy (it IS the greedy seed,
    // or a goal the search found below it)
    let portfolio = registry::solve("portfolio", &inst).unwrap();
    assert!(sol.scaled_cost(&inst) <= portfolio.scaled_cost(&inst));
}

/// The expansion cap is honored within one poll quantum — a
/// deterministic variant of the deadline test.
#[test]
fn expansion_cap_is_honored_within_a_quantum() {
    let inst = hard_instance();
    let cap = 5_000u64;
    let ctx = SolveCtx::new(Budget::none().with_max_expansions(cap));
    let sol = registry::solver("exact")
        .unwrap()
        .solve(&inst, &ctx)
        .expect("cap must degrade, not error");
    assert!(!sol.is_optimal());
    if let Some(expanded) = sol.states_expanded() {
        // polls happen every 256 expansions; the overshoot is at most
        // one quantum
        assert!(
            expanded <= cap + 256,
            "expanded {expanded} states against a cap of {cap}"
        );
    }
    assert!(engine::simulate(&inst, &sol.trace).is_ok());
}

/// The cancellation flag stops the exact solver within one poll
/// quantum: after the flag flips, the solve returns promptly with the
/// incumbent instead of running the remaining (multi-second) search.
#[test]
fn cancellation_stops_the_exact_solver_within_one_quantum() {
    let inst = hard_instance();
    let flag = Arc::new(AtomicBool::new(false));
    let ctx = SolveCtx::new(Budget::none().with_cancel(Arc::clone(&flag)));

    let canceller = {
        let flag = Arc::clone(&flag);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(60));
            flag.store(true, Ordering::SeqCst);
            Instant::now()
        })
    };
    let solver = registry::solver("exact").unwrap();
    let sol = solver.solve(&inst, &ctx).expect("cancel must degrade");
    let returned_at = Instant::now();
    let cancelled_at = canceller.join().unwrap();

    // the search polls once per 256-expansion quantum; seconds of slack
    // absorbs debug-build slowness while still catching a search that
    // ignored the flag (it would run for minutes)
    assert!(
        returned_at.duration_since(cancelled_at) < Duration::from_secs(20),
        "exact solve ignored the cancellation flag"
    );
    assert!(!sol.is_optimal());
    assert!(engine::simulate(&inst, &sol.trace).is_ok());
}

/// A pre-set cancellation flag degrades immediately to the greedy seed —
/// and the same budget with seeding disabled is `Interrupted`.
#[test]
fn pre_cancelled_solves_degrade_or_interrupt() {
    let inst = hard_instance();
    let flag = Arc::new(AtomicBool::new(true));
    let ctx = SolveCtx::new(Budget::none().with_cancel(Arc::clone(&flag)));

    let sol = registry::solver("exact")
        .unwrap()
        .solve(&inst, &ctx)
        .expect("seeded solve degrades");
    assert_eq!(sol.stats.get("degraded"), Some(1));
    assert!(engine::simulate(&inst, &sol.trace).is_ok());

    let res = registry::solver("exact:unseeded")
        .unwrap()
        .solve(&inst, &ctx);
    assert_eq!(res.unwrap_err(), SolveError::Interrupted);
}

/// Budgets never change answers, only completeness: a budget loose
/// enough to finish returns the same optimum as the unbudgeted solve.
#[test]
fn loose_budgets_do_not_perturb_optima() {
    let mut b = DagBuilder::new(6);
    b.add_edge(0, 2);
    b.add_edge(1, 2);
    b.add_edge(2, 3);
    b.add_edge(2, 4);
    b.add_edge(3, 5);
    b.add_edge(4, 5);
    let inst = Instance::new(b.build().unwrap(), 3, CostModel::oneshot());
    let eps = inst.model().epsilon();
    let free = registry::solve("exact", &inst).unwrap();
    let ctx = SolveCtx::new(Budget::none().with_deadline(Duration::from_secs(60)));
    let budgeted = registry::solver("exact")
        .unwrap()
        .solve(&inst, &ctx)
        .unwrap();
    assert!(budgeted.is_optimal(), "exact finished well inside budget");
    assert_eq!(budgeted.cost.scaled(eps), free.cost.scaled(eps));
}

/// A capped search that ends without a goal answers with its greedy
/// seed but keeps the search's counters: pyramid(4) at R = 3 on two
/// processors finds no goal in 10 000 expansions, so `exact@mpp`
/// degrades to the list scheduler's schedule (scaled cost 8, optimum 6)
/// and still reports the expansions it spent.
#[test]
fn seed_fallback_keeps_the_search_counters() {
    let pyramid = red_blue_pebbling::gadgets::pyramid::build(4).dag;
    let inst = Instance::new(pyramid, 3, CostModel::base()).with_procs(2);
    let ctx = SolveCtx::new(Budget::none().with_max_expansions(10_000));
    let sol = registry::solver("exact@mpp")
        .unwrap()
        .solve(&inst, &ctx)
        .unwrap();
    assert_eq!(sol.stats.get("degraded"), Some(1));
    assert!(matches!(sol.quality, Quality::UpperBound { .. }));
    assert_eq!(sol.scaled_cost(&inst), 8);
    let expanded = sol
        .states_expanded()
        .expect("counters survive the fallback");
    assert!(expanded >= 10_000, "{expanded} expansions");
    assert!(sol.states_seen().unwrap() >= expanded);
}
