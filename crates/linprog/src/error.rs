//! Error type for LP model construction and solving.

use std::error::Error;
use std::fmt;

/// Error returned by LP model construction or the simplex solver.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LpError {
    /// A variable or constraint referenced an id that does not belong to the
    /// problem.
    UnknownId(String),
    /// A bound, coefficient or right-hand side was NaN or otherwise invalid.
    InvalidArgument(String),
    /// Variable bounds are contradictory (`lower > upper`).
    InvalidBounds {
        /// Name of the offending variable.
        name: String,
        /// Lower bound.
        lower: f64,
        /// Upper bound.
        upper: f64,
    },
    /// The pivot budget was exhausted before the solve finished (see
    /// [`LpProblem::solve`](crate::LpProblem::solve)).
    ///
    /// A structured stop, never a hang: degenerate or cycling-prone models
    /// surface here after exactly `pivots` pivots. Callers that iterate over
    /// many candidate models (e.g. the water-filling feasibility probes of a
    /// bisection) can treat this as "give up on the point" rather than a
    /// fatal error.
    PivotBudgetExceeded {
        /// Number of pivots performed before giving up (the budget).
        pivots: usize,
    },
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::UnknownId(what) => write!(f, "unknown id: {what}"),
            LpError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            LpError::InvalidBounds { name, lower, upper } => write!(
                f,
                "invalid bounds for variable {name}: lower {lower} exceeds upper {upper}"
            ),
            LpError::PivotBudgetExceeded { pivots } => {
                write!(f, "simplex pivot budget exhausted after {pivots} pivots")
            }
        }
    }
}

impl Error for LpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_mention_context() {
        let err = LpError::InvalidBounds {
            name: "x1".into(),
            lower: 2.0,
            upper: 1.0,
        };
        assert!(err.to_string().contains("x1"));
        let err = LpError::PivotBudgetExceeded { pivots: 128 };
        assert!(err.to_string().contains("128"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LpError>();
    }
}
