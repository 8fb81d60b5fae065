//! # rbp-solvers
//!
//! Solvers for red-blue pebble games, unified behind one interface.
//!
//! ## The `Solver` trait and the registry
//!
//! Every solver implements [`api::Solver`] — `solve(&self, &Instance,
//! &SolveCtx) -> Result<Solution, SolveError>` — and every solver is
//! addressable by a string spec through [`registry`]:
//!
//! ```
//! use rbp_core::{CostModel, Instance};
//! use rbp_graph::DagBuilder;
//! use rbp_solvers::api::{Budget, SolveCtx, Solver};
//! use rbp_solvers::registry;
//!
//! let mut b = DagBuilder::new(3);
//! b.add_edge(0, 2);
//! b.add_edge(1, 2);
//! let inst = Instance::new(b.build().unwrap(), 3, CostModel::oneshot());
//!
//! // spec-string dispatch…
//! let sol = registry::solve("exact", &inst).unwrap();
//! assert!(sol.is_optimal());
//!
//! // …or the same solver under a budget: on expiry the exact solvers
//! // return their best incumbent as Quality::UpperBound, not an error
//! let solver = registry::solver("exact").unwrap();
//! let ctx = SolveCtx::new(Budget::none().with_deadline(std::time::Duration::from_secs(5)));
//! let sol = solver.solve(&inst, &ctx).unwrap();
//! assert_eq!(sol.cost.transfers, 0);
//! ```
//!
//! [`api::Solution`] carries the engine-validated trace, its exact
//! cost, a [`api::Quality`] provenance tag (`Optimal` /
//! `UpperBound { lower_bound }` / `Infeasible`), and structured
//! [`api::Stats`] — the one result shape: every solver answers through
//! [`api::Solver::solve`], and its trace is replayed once, when the
//! `Solution` is built. Solutions serialize over the wire through
//! [`wire`], the solution half of the versioned instance/solution text
//! format the `rbp-service` batch server speaks.
//!
//! ## Solver families
//!
//! - [`exact`]: the one exact search — Dijkstra/A* over configurations
//!   with one red plane per processor searched, priced with the
//!   instance's weights, with per-model optimality-preserving pruning,
//!   incumbent-bound pruning, and an unpruned reference mode for
//!   cross-validation (`exact`, `exact:unseeded`, `reference`,
//!   `exact@mpp[:P]`; `exact-parallel[:N]` is an alias of `exact`);
//! - [`expand`]: the exact search's move generator, for any number of
//!   red planes;
//! - [`greedy`]: the three natural greedy rules of Section 8 with
//!   pluggable eviction policies;
//! - [`mpp`]: multiprocessor pebbling — the exact search over `p` red
//!   planes plus a greedy list scheduler (`exact@mpp[:P]` /
//!   `greedy@mpp[:P]`);
//! - [`beam`]: beam search over first-computation orderings;
//! - [`portfolio`]: parallel best-of-greedy (also the incumbent seed);
//! - [`coarse`]: hierarchical scale-out — partition the DAG into K
//!   acyclic groups ([`rbp_graph::partition()`]), solve each with any
//!   inner registry spec, stitch the traces through blue interface
//!   values, and report a fractional-lower-bound bracket
//!   (`coarse[:K[/INNER]]`);
//! - [`visit`]: visit-order solvers for the paper's input-group
//!   constructions (deterministic scheduler, exhaustive
//!   branch-and-bound, Held–Karp DP);
//! - [`sweep`]: opt(R) tradeoff curves (Section 5) over any
//!   [`api::Solver`], fanned out over the [`pool`] work queue.
//!
//! Every solver returns a concrete [`rbp_core::Pebbling`] trace whose
//! cost is produced by the validating engine — [`api::Solution`] replays
//! the trace before returning it, so a solver can never report a cost
//! its trace does not realize, and a heuristic's `UpperBound` bracket
//! comes from that replay.

pub mod api;
pub mod arena;
pub mod beam;
pub mod coarse;
pub mod error;
pub mod exact;
pub mod expand;
pub mod greedy;
pub mod mpp;
pub mod pool;
pub mod portfolio;
pub mod registry;
pub mod sweep;
pub mod visit;
pub mod wire;

pub use api::{
    panic_payload_to_string, BeamSolver, Budget, ExactSolver, GreedySolver, PortfolioSolver,
    Progress, Quality, Solution, SolveCtx, Solver, Stats,
};
pub use arena::{NodeTable, StateArena, NO_STATE};
pub use beam::BeamConfig;
pub use coarse::{CoarseConfig, CoarseSolver};
pub use error::SolveError;
pub use exact::ExactConfig;
pub use expand::{Expander, Meta};
pub use greedy::{EvictionPolicy, GreedyConfig, SelectionRule};
pub use mpp::{ExactMppSolver, GreedyMppSolver};
pub use portfolio::default_portfolio;
pub use registry::Registry;
pub use sweep::{check_tradeoff_laws, sweep_r, sweep_r_with, SweepPoint};
pub use visit::{best_order, best_order_from, held_karp, GroupSpec, GroupedDag, OrderResult};
pub use wire::{parse_solution, write_solution, WireSolution};
