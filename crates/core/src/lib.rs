//! # rbp-core
//!
//! Semantics of the red-blue pebble game, after Papp & Wattenhofer,
//! *On the Hardness of Red-Blue Pebble Games* (SPAA 2020).
//!
//! The game models the I/O cost of computing a DAG on a two-level memory
//! hierarchy: red pebbles are values in fast memory (at most R at a time),
//! blue pebbles are values in slow memory, and the four moves are
//! load (blue→red, cost 1), store (red→blue, cost 1), compute (place red on
//! a node whose inputs are all red), and delete. Four model variants differ
//! in whether computation is free, repeatable, or deletable — see
//! [`model::CostModel`] for the exact Table-1 semantics.
//!
//! The central types:
//! - [`Instance`]: DAG + red budget R + model + start/finish conventions;
//! - [`State`]: a configuration and the one transition function,
//!   [`State::apply_on`], of the multiprocessor (p-processor) extension
//!   of the game, reached by lifting an [`Instance`] with
//!   [`Instance::with_procs`]; the classic game is its `p = 1` case;
//! - [`Pebbling`]: a move trace, each move tagged with its processor;
//! - [`engine::simulate`]: the validating replayer every reported cost
//!   goes through;
//! - [`mod@certify`]: an *independent* second interpreter (no shared code
//!   with the engine or any solver) that re-executes solutions for
//!   end-to-end certification;
//! - [`bounds`]: the Section-3 structural bounds with constructive
//!   witnesses;
//! - [`transform`]: the super-source and Appendix-C convention adapters.
//!
//! # Example
//! ```
//! use rbp_core::{CostModel, Instance, Pebbling, engine};
//! use rbp_graph::{DagBuilder, NodeId};
//!
//! // Two inputs feeding one output, with room for all three values.
//! let mut b = DagBuilder::new(3);
//! b.add_edge(0, 2);
//! b.add_edge(1, 2);
//! let inst = Instance::new(b.build().unwrap(), 3, CostModel::oneshot());
//!
//! let mut p = Pebbling::new();
//! p.compute(NodeId::new(0));
//! p.compute(NodeId::new(1));
//! p.compute(NodeId::new(2));
//! let report = engine::simulate(&inst, &p).unwrap();
//! assert_eq!(report.cost.transfers, 0); // everything fit in fast memory
//! ```

pub mod analysis;
pub mod bounds;
pub mod certify;
pub mod cost;
pub mod engine;
pub mod error;
pub mod instance;
pub mod io;
pub mod model;
pub mod moves;
pub mod state;
pub mod trace;
pub mod transform;

pub use analysis::{analyze, NodeTraffic, TraceAnalysis};
pub use certify::{certify, Certificate, CertifyError};
pub use cost::{Cost, Ratio};
pub use engine::{cost_of, simulate, simulate_prefix, SimReport};
pub use error::{PebblingError, TraceError};
pub use instance::{CanonicalKey, Instance, MppDim, SinkConvention, SourceConvention};
pub use io::{parse_instance, write_instance};
pub use model::{CostModel, ModelKind};
pub use moves::Move;
pub use state::State;
pub use trace::{Pebbling, TraceStats};
