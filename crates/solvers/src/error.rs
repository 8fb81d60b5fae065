//! Solver-level errors.

use rbp_core::PebblingError;
use std::fmt;

/// Why a solver could not produce a pebbling.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveError {
    /// The instance violates R ≥ Δ+1 (or another engine-level precondition).
    Pebbling(PebblingError),
    /// The exact solver's state budget was exhausted before the goal.
    StateLimitExceeded {
        /// The configured limit that was hit.
        limit: usize,
    },
    /// The search space was exhausted without reaching the goal (possible
    /// under restricted conventions, e.g. unreachable sinks).
    NoPebblingFound,
    /// The given visit order violates a group dependency: the named group
    /// needs an input that is a target of a group not yet visited.
    OrderDependencyViolated {
        /// Index (into the group list) of the group whose visit failed.
        group: usize,
    },
    /// A solver configuration holds a degenerate value (zero beam width,
    /// zero state budget, an empty portfolio, …). Raised by the `validate()`
    /// path every [`crate::api::Solver`] entry point runs before solving.
    BadConfig {
        /// What is wrong with the configuration.
        reason: String,
    },
    /// A registry spec string did not parse — unknown solver name or
    /// malformed arguments (see `crate::registry` for the grammar).
    BadSpec {
        /// The offending spec string.
        spec: String,
        /// Why it was rejected.
        reason: String,
    },
    /// A solver tried to return [`crate::api::Quality::UpperBound`]
    /// whose claimed `lower_bound` exceeds the trace's actual cost —
    /// an impossible bracket (`lower_bound ≤ optimum ≤ cost` must
    /// hold). Enforced centrally at [`crate::api::Solution`]
    /// construction so no individual solver is trusted with the
    /// invariant. Both figures are scaled by the model's ε.
    BoundViolation {
        /// The claimed lower bound (scaled).
        lower_bound: u128,
        /// The trace's engine-computed cost (scaled).
        cost: u128,
    },
    /// The solve was stopped by its [`crate::api::Budget`] (deadline,
    /// cancellation, or expansion cap) before any incumbent existed to
    /// degrade to. Solvers that hold an incumbent return it as
    /// [`crate::api::Quality::UpperBound`] instead of this error.
    Interrupted,
    /// The solver panicked mid-solve and the host running it under
    /// `catch_unwind` (the batch-solve service's workers) contained the
    /// panic. The per-job search state (arena, node table, heaps) died
    /// with the unwound stack, so the containing process stays healthy;
    /// `payload` is the stringified panic message for operator logs.
    Panicked {
        /// The panic payload, downcast to a string when possible.
        payload: String,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Pebbling(e) => write!(f, "{e}"),
            SolveError::StateLimitExceeded { limit } => {
                write!(f, "exact solver exceeded its state budget of {limit}")
            }
            SolveError::NoPebblingFound => write!(f, "search space exhausted without a pebbling"),
            SolveError::OrderDependencyViolated { group } => {
                write!(f, "visit order violates a dependency at group {group}")
            }
            SolveError::BadConfig { reason } => write!(f, "bad solver configuration: {reason}"),
            SolveError::BadSpec { spec, reason } => {
                write!(f, "bad solver spec '{spec}': {reason}")
            }
            SolveError::BoundViolation { lower_bound, cost } => {
                write!(
                    f,
                    "solver claimed lower bound {lower_bound} above its own cost {cost}"
                )
            }
            SolveError::Interrupted => {
                write!(
                    f,
                    "solve interrupted by its budget before any incumbent existed"
                )
            }
            SolveError::Panicked { payload } => {
                write!(f, "solver panicked: {payload}")
            }
        }
    }
}

impl std::error::Error for SolveError {}

impl From<PebblingError> for SolveError {
    fn from(e: PebblingError) -> Self {
        SolveError::Pebbling(e)
    }
}
