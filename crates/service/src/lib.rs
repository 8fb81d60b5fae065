//! # rbp-service
//!
//! Pebbling-as-a-service: a long-running batch-solve server over the
//! [`rbp_solvers`] registry, fronted by a line-oriented wire protocol
//! and a quality-aware memoization cache.
//!
//! The pieces:
//! - [`server::Server`]: bounded priority queue + worker pool +
//!   per-request budgets/cancellation, streaming [`server::Event`]s per
//!   job;
//! - [`cache::SolutionCache`]: instance-key → best-known-solution map
//!   with monotone quality (a cached heuristic bound upgrades in place
//!   when a later solve proves optimality), keyed by
//!   [`rbp_core::Instance::canonical_key`] of the problem the solver
//!   pebbles; the server checks every hit for the requester;
//! - [`protocol`]: the `submit`/`cancel`/`stats`/`shutdown` request
//!   grammar and the response renderer, built on the `instance v1`
//!   (`rbp_core::io`) and `solution v1` ([`rbp_solvers::wire`])
//!   document formats;
//! - [`session::serve_session`]: one protocol session over any byte
//!   streams (stdin/stdout in the `rbp-serve` binary);
//! - [`client::RetryPolicy`]: capped, jittered, deterministic backoff
//!   for resubmitting shed work
//!   ([`server::Server::submit_with_retry`]);
//! - `tcp` (behind the `tcp` feature): the same sessions over a TCP
//!   listener;
//! - `chaos` (feature, test/soak builds only): seeded deterministic
//!   fault injection — solver panics, worker deaths, routing delays,
//!   mid-stream disconnects, snapshot corruption.
//!
//! Everything is std-only: threads, channels, and condvars — no async
//! runtime.
//!
//! ## Failure containment
//!
//! Every fault is contained at the narrowest boundary that can absorb
//! it: a panicking solver becomes a structured
//! [`Event::Failed`] (never a lost job), a dying worker thread is
//! respawned by its supervisor guard, an overloaded queue sheds new
//! work with a retry-after hint instead of blocking forever, and a
//! corrupt cache snapshot loads every intact entry rather than
//! aborting. See the README's "Operational hardening" section for the
//! full failure matrix.
//!
//! # Example
//! ```
//! use rbp_core::{CostModel, Instance};
//! use rbp_graph::generate;
//! use rbp_service::{Event, JobOptions, JobRequest, Server, ServerConfig};
//!
//! let server = Server::start(ServerConfig {
//!     workers: 1,
//!     queue_capacity: 8,
//!     ..ServerConfig::default()
//! });
//! let req = JobRequest {
//!     id: "demo".into(),
//!     spec: "exact".into(),
//!     instance: Instance::new(generate::chain(5), 2, CostModel::oneshot()),
//!     options: JobOptions::default(),
//! };
//! let events = server.submit_collect(req).unwrap();
//! let done = events.iter().find(|e| e.is_terminal()).unwrap();
//! match done {
//!     Event::Done { cached, solution, .. } => {
//!         assert!(!cached);
//!         assert!(solution.is_optimal());
//!     }
//!     other => panic!("{other:?}"),
//! }
//! server.shutdown();
//! ```

pub mod cache;
#[cfg(feature = "chaos")]
pub mod chaos;
pub mod client;
pub mod protocol;
pub mod server;
pub mod session;
#[cfg(feature = "tcp")]
pub mod tcp;

pub use cache::{AcceptPolicy, CacheStats, SnapshotReport, SolutionCache, CACHE_SNAPSHOT_VERSION};
pub use client::{is_transient_io, RetryPolicy};
pub use protocol::{ProtocolError, Request, RequestReader};
pub use server::{Event, JobOptions, JobRequest, Server, ServerConfig, ServerStats, SubmitError};
pub use session::{serve_session, SessionError};
