//! Error type of the exploration engine.

use std::error::Error;
use std::fmt;

use mfa_alloc::AllocError;

/// Error returned by grid construction and the sweep executor.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ExploreError {
    /// The sweep grid is malformed (empty axis, out-of-range constraint, …).
    InvalidGrid(String),
    /// The executor or dispatcher options are malformed (zero chunk size, …).
    InvalidOptions(String),
    /// A point solver failed in a non-skippable way; the sweep is aborted.
    ///
    /// Skippable conditions (infeasible constraints, unplaceable
    /// discretizations, budget-exhausted MINLP solves without an incumbent)
    /// never surface here — those points are simply absent from the series.
    Solver {
        /// Label of the case being swept.
        case: String,
        /// FPGA count of the failing series.
        num_fpgas: usize,
        /// Label of the solver backend.
        backend: String,
        /// Resource constraint of the failing point.
        resource_constraint: f64,
        /// The underlying solver error.
        source: AllocError,
    },
    /// A churn replay inside a reallocation-frontier sweep failed (malformed
    /// event for the evolving problem, or a non-skippable re-solve error).
    Churn(String),
    /// The persistent sweep store failed at the directory level (cannot
    /// create/list the store, cannot commit a segment) or a grid point could
    /// not be canonically encoded for fingerprinting. Damaged store
    /// *contents* never raise this — corrupt entries are counted misses.
    Store(String),
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::InvalidGrid(msg) => write!(f, "invalid sweep grid: {msg}"),
            ExploreError::InvalidOptions(msg) => write!(f, "invalid executor options: {msg}"),
            ExploreError::Solver {
                case,
                num_fpgas,
                backend,
                resource_constraint,
                source,
            } => write!(
                f,
                "sweep point failed ({case}, {num_fpgas} FPGAs, {backend}, \
                 constraint {:.1}%): {source}",
                resource_constraint * 100.0
            ),
            ExploreError::Churn(msg) => write!(f, "churn replay failed: {msg}"),
            ExploreError::Store(msg) => write!(f, "sweep store failed: {msg}"),
        }
    }
}

impl Error for ExploreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExploreError::Solver { source, .. } => Some(source),
            ExploreError::InvalidGrid(_)
            | ExploreError::InvalidOptions(_)
            | ExploreError::Churn(_)
            | ExploreError::Store(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source_cover_variants() {
        let invalid = ExploreError::InvalidGrid("no cases".into());
        assert!(invalid.to_string().contains("no cases"));
        assert!(Error::source(&invalid).is_none());

        let options = ExploreError::InvalidOptions("chunk_size must be at least 1".into());
        assert!(options.to_string().contains("chunk_size"));
        assert!(Error::source(&options).is_none());

        let solver = ExploreError::Solver {
            case: "Alex-16 on 2 FPGAs".into(),
            num_fpgas: 2,
            backend: "GP+A".into(),
            resource_constraint: 0.65,
            source: AllocError::InvalidArgument("boom".into()),
        };
        let text = solver.to_string();
        assert!(text.contains("Alex-16"));
        assert!(text.contains("65.0%"));
        assert!(text.contains("boom"));
        assert!(Error::source(&solver).is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ExploreError>();
    }
}
