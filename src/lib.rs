//! # red-blue-pebbling
//!
//! A complete implementation of red-blue pebble games after Papp &
//! Wattenhofer, *On the Hardness of Red-Blue Pebble Games* (SPAA 2020):
//! the four model variants (base, oneshot, nodel, compcost), a validating
//! game engine, exact and greedy solvers, every gadget and hardness
//! construction from the paper, the classical-problem solvers used to
//! verify the reductions, and realistic HPC workload generators.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`graph`] | `rbp-graph` | DAG substrate, bitsets, generators |
//! | [`core`] | `rbp-core` | models, costs, states, engine, bounds |
//! | [`solvers`] | `rbp-solvers` | exact, greedy, visit-order, sweeps |
//! | [`gadgets`] | `rbp-gadgets` | H2C, CD ladder, pyramid, tradeoff chain, greedy grid |
//! | [`reductions`] | `rbp-reductions` | Hamiltonian Path & Vertex Cover reductions + solvers |
//! | [`workloads`] | `rbp-workloads` | matmul, FFT, stencil, trees |
//! | [`service`] | `rbp-service` | batch-solve server, memoization cache, wire protocol |
//! | [`verify`] | `rbp-verify` | differential fuzz harness, shrinker, counterexamples |
//!
//! ## Quickstart
//! ```
//! use red_blue_pebbling::prelude::*;
//!
//! // a 2x2 matrix-multiplication DAG, cache of 4 values
//! let mm = red_blue_pebbling::workloads::matmul::build(2);
//! let inst = Instance::new(mm.dag.clone(), 4, CostModel::oneshot());
//!
//! // optimal I/O cost and a certified schedule, through the registry
//! let opt = registry::solve("exact", &inst).unwrap();
//! assert!(opt.is_optimal());
//! let report = engine::simulate(&inst, &opt.trace).unwrap();
//! assert_eq!(report.cost, opt.cost);
//! ```
//!
//! Solvers are selected by spec string (`"exact"`, `"exact@mpp:2"`,
//! `"greedy:most-red-inputs/lru"`, `"beam:256"`, `"portfolio"`) through
//! [`solvers::registry`], or constructed directly and used through the
//! [`solvers::api::Solver`] trait with budgets and progress observers —
//! see the `solver_registry` example.

pub use rbp_core as core;
pub use rbp_gadgets as gadgets;
pub use rbp_graph as graph;
pub use rbp_reductions as reductions;
pub use rbp_service as service;
pub use rbp_solvers as solvers;
pub use rbp_verify as verify;
pub use rbp_workloads as workloads;

/// The most common imports in one place.
pub mod prelude {
    pub use rbp_core::{
        bounds, certify, engine, Cost, CostModel, Instance, ModelKind, Move, Pebbling, Ratio,
        SinkConvention, SourceConvention, State,
    };
    pub use rbp_graph::{Dag, DagBuilder, Graph, NodeId};
    pub use rbp_solvers::api::{
        Budget, ExactSolver, GreedySolver, Progress, Quality, Solution, SolveCtx, Solver, Stats,
    };
    pub use rbp_solvers::{
        registry, sweep_r, EvictionPolicy, GreedyConfig, SelectionRule, SolveError,
    };
}
