//! Solution container returned by the branch-and-bound solver.

use crate::model::MinlpVarId;

/// Outcome status of a MINLP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MinlpStatus {
    /// The incumbent is optimal within the configured gap tolerances.
    Optimal,
    /// A feasible incumbent was found but the search stopped early (node or
    /// time limit) or left a node open because one of its LPs ran out of
    /// simplex pivots; the reported [`gap`](crate::MinlpSolution::gap) bounds
    /// its distance from the optimum.
    Feasible,
    /// The problem has no feasible point.
    Infeasible,
}

impl std::fmt::Display for MinlpStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MinlpStatus::Optimal => write!(f, "optimal"),
            MinlpStatus::Feasible => write!(f, "feasible (limit reached)"),
            MinlpStatus::Infeasible => write!(f, "infeasible"),
        }
    }
}

/// Result of a branch-and-bound solve of a
/// [`MinlpProblem`](crate::MinlpProblem).
#[derive(Debug, Clone, PartialEq)]
pub struct MinlpSolution {
    status: MinlpStatus,
    objective: f64,
    best_bound: f64,
    values: Vec<f64>,
    nodes_explored: usize,
    lp_solves: usize,
    simplex_pivots: usize,
    warm_started: bool,
}

impl MinlpSolution {
    pub(crate) fn new(
        status: MinlpStatus,
        objective: f64,
        best_bound: f64,
        values: Vec<f64>,
        nodes_explored: usize,
        lp_solves: usize,
        simplex_pivots: usize,
    ) -> Self {
        MinlpSolution {
            status,
            objective,
            best_bound,
            values,
            nodes_explored,
            lp_solves,
            simplex_pivots,
            warm_started: false,
        }
    }

    /// Records that the search was seeded with an accepted warm-start
    /// incumbent (see
    /// [`MinlpProblem::set_initial_incumbent`](crate::MinlpProblem::set_initial_incumbent)).
    pub(crate) fn mark_warm_started(mut self) -> Self {
        self.warm_started = true;
        self
    }

    /// Solver status.
    pub fn status(&self) -> MinlpStatus {
        self.status
    }

    /// Returns `true` when a feasible incumbent is available
    /// ([`Optimal`](MinlpStatus::Optimal) or [`Feasible`](MinlpStatus::Feasible)).
    pub fn has_incumbent(&self) -> bool {
        matches!(self.status, MinlpStatus::Optimal | MinlpStatus::Feasible)
    }

    /// Objective value of the incumbent (minimization).
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Best proven lower bound on the optimal objective: `−∞` when a limit
    /// stopped the search, or the root LP ran out of pivots, before the root
    /// node was solved.
    pub fn best_bound(&self) -> f64 {
        self.best_bound
    }

    /// Relative optimality gap `(objective − best_bound) / max(1, |objective|)`.
    ///
    /// Zero (up to rounding) for [`MinlpStatus::Optimal`].
    pub fn gap(&self) -> f64 {
        if !self.has_incumbent() {
            return f64::INFINITY;
        }
        (self.objective - self.best_bound).max(0.0) / self.objective.abs().max(1.0)
    }

    /// Value of a variable in the incumbent.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to the solved problem.
    pub fn value(&self, var: MinlpVarId) -> f64 {
        self.values[var.index()]
    }

    /// All incumbent values, in variable creation order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of branch-and-bound nodes explored.
    pub fn nodes_explored(&self) -> usize {
        self.nodes_explored
    }

    /// Number of LP relaxations solved (including outer-approximation rounds).
    pub fn lp_solves(&self) -> usize {
        self.lp_solves
    }

    /// Total simplex pivots across every LP relaxation of the search — a
    /// machine-independent effort counter finer-grained than
    /// [`lp_solves`](Self::lp_solves).
    pub fn simplex_pivots(&self) -> usize {
        self.simplex_pivots
    }

    /// `true` when the search accepted a warm-start incumbent seed and could
    /// prune with it from node 0.
    pub fn warm_started(&self) -> bool {
        self.warm_started
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_display_and_gap() {
        assert_eq!(MinlpStatus::Optimal.to_string(), "optimal");
        let s = MinlpSolution::new(MinlpStatus::Feasible, 10.0, 9.0, vec![1.0], 5, 12, 40);
        assert!(s.has_incumbent());
        assert!((s.gap() - 0.1).abs() < 1e-12);
        assert_eq!(s.nodes_explored(), 5);
        assert_eq!(s.lp_solves(), 12);
        assert_eq!(s.simplex_pivots(), 40);
        let inf = MinlpSolution::new(MinlpStatus::Infeasible, 0.0, 0.0, vec![], 1, 1, 2);
        assert!(!inf.has_incumbent());
        assert!(inf.gap().is_infinite());
    }
}
