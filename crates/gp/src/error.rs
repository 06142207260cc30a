//! Error type for GP modeling and solving.

use std::error::Error;
use std::fmt;

/// Error returned by GP model construction or the interior-point solver.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GpError {
    /// A coefficient was not strictly positive (posynomials require
    /// positive coefficients) or another argument was invalid.
    InvalidArgument(String),
    /// A variable handle did not belong to the problem.
    UnknownVariable(usize),
    /// No objective was set before solving.
    MissingObjective,
    /// The phase-I search could not find a strictly feasible point.
    Infeasible,
    /// Phase I or phase II ran out of outer (barrier) iterations before
    /// reaching its gap tolerance, so the solver has neither an optimum nor
    /// a proof of infeasibility.
    DidNotConverge {
        /// Outer barrier iterations performed, both phases together.
        outer_iterations: usize,
    },
    /// A numerical failure (singular Newton system) occurred.
    Numerical(String),
}

impl fmt::Display for GpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            GpError::UnknownVariable(idx) => write!(f, "unknown variable #{idx}"),
            GpError::MissingObjective => write!(f, "no objective was set"),
            GpError::Infeasible => write!(f, "problem has no strictly feasible point"),
            GpError::DidNotConverge { outer_iterations } => {
                write!(
                    f,
                    "solver did not converge after {outer_iterations} barrier iterations"
                )
            }
            GpError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
        }
    }
}

impl Error for GpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(GpError::UnknownVariable(3).to_string().contains('3'));
        assert!(GpError::Infeasible.to_string().contains("feasible"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GpError>();
    }
}
