//! Error type for MINLP modeling and solving.

use std::error::Error;
use std::fmt;

use mfa_linprog::LpError;

/// Error returned by MINLP model construction or the branch-and-bound solver.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MinlpError {
    /// An argument (bound, coefficient, offset) was invalid.
    InvalidArgument(String),
    /// A term referenced a variable that does not belong to the problem.
    UnknownVariable(usize),
    /// A nonlinear term's variable has bounds outside the term's domain
    /// (for example a [`Reciprocal`](crate::Term::Reciprocal) over a variable
    /// whose lower bound is not strictly positive).
    DomainViolation(String),
    /// The node limit was reached before any feasible solution was found.
    NodeLimitWithoutSolution {
        /// Number of nodes explored.
        nodes: usize,
    },
    /// The underlying LP solver failed.
    Lp(LpError),
}

impl fmt::Display for MinlpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MinlpError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            MinlpError::UnknownVariable(idx) => write!(f, "unknown variable #{idx}"),
            MinlpError::DomainViolation(msg) => write!(f, "domain violation: {msg}"),
            MinlpError::NodeLimitWithoutSolution { nodes } => write!(
                f,
                "node limit reached after {nodes} nodes without a feasible solution"
            ),
            MinlpError::Lp(err) => write!(f, "lp solver failure: {err}"),
        }
    }
}

impl Error for MinlpError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MinlpError::Lp(err) => Some(err),
            _ => None,
        }
    }
}

impl From<LpError> for MinlpError {
    fn from(err: LpError) -> Self {
        MinlpError::Lp(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let err = MinlpError::from(LpError::PivotBudgetExceeded { pivots: 3 });
        assert!(err.to_string().contains("lp solver failure"));
        assert!(Error::source(&err).is_some());
        assert!(Error::source(&MinlpError::UnknownVariable(1)).is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MinlpError>();
    }
}
