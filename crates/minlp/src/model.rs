//! MINLP problem builder.

use crate::bb::{self, SolverOptions};
use crate::solution::MinlpSolution;
use crate::term::Term;
use crate::MinlpError;

/// Handle to a decision variable of a [`MinlpProblem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MinlpVarId(usize);

impl MinlpVarId {
    /// Index of the variable in creation order.
    pub fn index(self) -> usize {
        self.0
    }

    /// Builds a handle from a raw index (primarily for tests/serialization).
    pub fn from_index(index: usize) -> Self {
        MinlpVarId(index)
    }
}

/// Relation of a constraint to its right-hand side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// Sum of terms `≤` right-hand side.
    LessEq,
    /// Sum of terms `≥` right-hand side.
    GreaterEq,
    /// Sum of terms `=` right-hand side.
    Equal,
}

#[derive(Debug, Clone)]
pub(crate) struct VarData {
    pub(crate) name: String,
    pub(crate) lower: f64,
    pub(crate) upper: f64,
    pub(crate) integer: bool,
    pub(crate) objective: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct ConstraintData {
    pub(crate) name: String,
    pub(crate) terms: Vec<Term>,
    pub(crate) relation: Relation,
    pub(crate) rhs: f64,
}

impl ConstraintData {
    /// Evaluates the left-hand side at an assignment.
    pub(crate) fn lhs(&self, values: &[f64]) -> f64 {
        self.terms
            .iter()
            .map(|t| t.eval(values[t.var().index()]))
            .sum()
    }

    /// Signed violation of the constraint (positive means violated).
    pub(crate) fn violation(&self, values: &[f64]) -> f64 {
        let lhs = self.lhs(values);
        match self.relation {
            Relation::LessEq => lhs - self.rhs,
            Relation::GreaterEq => self.rhs - lhs,
            Relation::Equal => (lhs - self.rhs).abs(),
        }
    }
}

/// A factorable mixed-integer nonlinear program with a linear objective.
///
/// Constraints are sums of [`Term`]s compared to a constant. The objective is
/// `minimize Σ c_j x_j` where `c_j` is each variable's objective coefficient.
/// See the [crate-level example](crate).
#[derive(Debug, Clone, Default)]
pub struct MinlpProblem {
    pub(crate) vars: Vec<VarData>,
    pub(crate) constraints: Vec<ConstraintData>,
    pub(crate) initial_incumbent: Option<Vec<f64>>,
}

impl MinlpProblem {
    /// Creates an empty problem (minimization).
    pub fn new() -> Self {
        MinlpProblem::default()
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Adds a continuous variable with the given bounds and objective
    /// coefficient.
    ///
    /// # Errors
    ///
    /// Returns [`MinlpError::InvalidArgument`] for NaN or inverted bounds or a
    /// non-finite objective coefficient.
    pub fn add_continuous_var(
        &mut self,
        name: impl Into<String>,
        lower: f64,
        upper: f64,
        objective: f64,
    ) -> Result<MinlpVarId, MinlpError> {
        self.add_var(name, lower, upper, objective, false)
    }

    /// Adds an integer variable with the given (inclusive) bounds and
    /// objective coefficient.
    ///
    /// Bounds must be finite so that branch-and-bound terminates.
    ///
    /// # Errors
    ///
    /// Returns [`MinlpError::InvalidArgument`] for NaN, inverted or infinite
    /// bounds or a non-finite objective coefficient.
    pub fn add_integer_var(
        &mut self,
        name: impl Into<String>,
        lower: f64,
        upper: f64,
        objective: f64,
    ) -> Result<MinlpVarId, MinlpError> {
        if !lower.is_finite() || !upper.is_finite() {
            return Err(MinlpError::InvalidArgument(
                "integer variables require finite bounds".into(),
            ));
        }
        self.add_var(name, lower, upper, objective, true)
    }

    fn add_var(
        &mut self,
        name: impl Into<String>,
        lower: f64,
        upper: f64,
        objective: f64,
        integer: bool,
    ) -> Result<MinlpVarId, MinlpError> {
        let name = name.into();
        if lower.is_nan() || upper.is_nan() || lower > upper {
            return Err(MinlpError::InvalidArgument(format!(
                "invalid bounds [{lower}, {upper}] for variable {name}"
            )));
        }
        if !objective.is_finite() {
            return Err(MinlpError::InvalidArgument(format!(
                "objective coefficient of {name} must be finite"
            )));
        }
        self.vars.push(VarData {
            name,
            lower,
            upper,
            integer,
            objective,
        });
        Ok(MinlpVarId(self.vars.len() - 1))
    }

    /// Adds the constraint `Σ terms  rel  rhs`.
    ///
    /// # Errors
    ///
    /// * [`MinlpError::UnknownVariable`] if a term references a variable that
    ///   was not added to this problem.
    /// * [`MinlpError::InvalidArgument`] for non-finite coefficients or rhs.
    /// * [`MinlpError::DomainViolation`] if a nonlinear term's variable bounds
    ///   leave the term's domain (e.g. reciprocal of a variable that can be 0).
    pub fn add_constraint(
        &mut self,
        name: impl Into<String>,
        terms: Vec<Term>,
        relation: Relation,
        rhs: f64,
    ) -> Result<(), MinlpError> {
        let name = name.into();
        if !rhs.is_finite() {
            return Err(MinlpError::InvalidArgument(format!(
                "right-hand side of {name} must be finite"
            )));
        }
        for term in &terms {
            let var = term.var();
            let data = self
                .vars
                .get(var.index())
                .ok_or(MinlpError::UnknownVariable(var.index()))?;
            match *term {
                Term::Linear { coeff, .. } => {
                    if !coeff.is_finite() {
                        return Err(MinlpError::InvalidArgument(format!(
                            "linear coefficient in {name} must be finite"
                        )));
                    }
                }
                Term::Reciprocal { coeff, .. } => {
                    if !(coeff.is_finite() && coeff > 0.0) {
                        return Err(MinlpError::InvalidArgument(format!(
                            "reciprocal coefficient in {name} must be positive and finite"
                        )));
                    }
                    if data.lower <= 0.0 {
                        return Err(MinlpError::DomainViolation(format!(
                            "reciprocal term in {name} requires variable {} to have a strictly positive lower bound",
                            data.name
                        )));
                    }
                }
                Term::Saturation { coeff, offset, .. } => {
                    if !(coeff.is_finite() && coeff > 0.0 && offset.is_finite() && offset > 0.0) {
                        return Err(MinlpError::InvalidArgument(format!(
                            "saturation term in {name} requires positive finite coefficient and offset"
                        )));
                    }
                    if data.lower < 0.0 {
                        return Err(MinlpError::DomainViolation(format!(
                            "saturation term in {name} requires variable {} to be nonnegative",
                            data.name
                        )));
                    }
                }
            }
        }
        self.constraints.push(ConstraintData {
            name,
            terms,
            relation,
            rhs,
        });
        Ok(())
    }

    /// Name of a variable.
    ///
    /// # Errors
    ///
    /// Returns [`MinlpError::UnknownVariable`] for a foreign handle.
    pub fn var_name(&self, var: MinlpVarId) -> Result<&str, MinlpError> {
        self.vars
            .get(var.index())
            .map(|v| v.name.as_str())
            .ok_or(MinlpError::UnknownVariable(var.index()))
    }

    /// Bounds of a variable.
    ///
    /// # Errors
    ///
    /// Returns [`MinlpError::UnknownVariable`] for a foreign handle.
    pub fn bounds(&self, var: MinlpVarId) -> Result<(f64, f64), MinlpError> {
        self.vars
            .get(var.index())
            .map(|v| (v.lower, v.upper))
            .ok_or(MinlpError::UnknownVariable(var.index()))
    }

    /// Evaluates the (linear) objective at an assignment.
    ///
    /// # Errors
    ///
    /// Returns [`MinlpError::InvalidArgument`] if `values` has the wrong length.
    pub fn objective_value(&self, values: &[f64]) -> Result<f64, MinlpError> {
        if values.len() != self.vars.len() {
            return Err(MinlpError::InvalidArgument(format!(
                "expected {} values, got {}",
                self.vars.len(),
                values.len()
            )));
        }
        Ok(self
            .vars
            .iter()
            .zip(values)
            .map(|(v, x)| v.objective * x)
            .sum())
    }

    /// Checks whether an assignment satisfies every bound, integrality
    /// requirement and (nonlinear) constraint within tolerance `tol`.
    ///
    /// # Errors
    ///
    /// Returns [`MinlpError::InvalidArgument`] if `values` has the wrong length.
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> Result<bool, MinlpError> {
        if values.len() != self.vars.len() {
            return Err(MinlpError::InvalidArgument(format!(
                "expected {} values, got {}",
                self.vars.len(),
                values.len()
            )));
        }
        for (v, &x) in self.vars.iter().zip(values) {
            if x < v.lower - tol || x > v.upper + tol {
                return Ok(false);
            }
            if v.integer && (x - x.round()).abs() > tol {
                return Ok(false);
            }
        }
        Ok(self.constraints.iter().all(|c| c.violation(values) <= tol))
    }

    /// Seeds the branch-and-bound with a warm-start incumbent: one value per
    /// variable in creation order. Integer entries are rounded; if the
    /// rounded point is feasible it becomes the initial incumbent and prunes
    /// the search from node 0, otherwise it is silently ignored. Seeding
    /// never changes the optimal value — only how much of the tree is
    /// explored to prove it (ties between equally-good incumbents go to the
    /// seed, since incumbents are replaced only on strict improvement).
    /// [`MinlpSolution::warm_started`](crate::MinlpSolution::warm_started)
    /// reports whether the seed was accepted.
    ///
    /// # Errors
    ///
    /// Returns [`MinlpError::InvalidArgument`] for a wrong-length or
    /// non-finite seed.
    pub fn set_initial_incumbent(&mut self, values: Vec<f64>) -> Result<(), MinlpError> {
        if values.len() != self.vars.len() {
            return Err(MinlpError::InvalidArgument(format!(
                "incumbent seed needs {} values, got {}",
                self.vars.len(),
                values.len()
            )));
        }
        if values.iter().any(|v| !v.is_finite()) {
            return Err(MinlpError::InvalidArgument(
                "incumbent seed values must be finite".into(),
            ));
        }
        self.initial_incumbent = Some(values);
        Ok(())
    }

    /// Solves the problem with default [`SolverOptions`].
    ///
    /// # Errors
    ///
    /// See [`MinlpProblem::solve_with`].
    pub fn solve(&self) -> Result<MinlpSolution, MinlpError> {
        self.solve_with(&SolverOptions::default())
    }

    /// Solves the problem by branch-and-bound with the given options.
    ///
    /// Infeasibility is reported through
    /// [`MinlpStatus::Infeasible`](crate::MinlpStatus::Infeasible) rather than
    /// an error.
    ///
    /// # Errors
    ///
    /// Returns [`MinlpError::Lp`] if the underlying LP solver fails and
    /// [`MinlpError::NodeLimitWithoutSolution`] if the node budget is exhausted
    /// before any feasible point is found.
    pub fn solve_with(&self, options: &SolverOptions) -> Result<MinlpSolution, MinlpError> {
        bb::solve(self, options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variable_validation() {
        let mut p = MinlpProblem::new();
        assert!(p.add_continuous_var("x", 1.0, 0.0, 0.0).is_err());
        assert!(p.add_integer_var("n", 0.0, f64::INFINITY, 0.0).is_err());
        assert!(p.add_continuous_var("x", 0.0, 1.0, f64::NAN).is_err());
        let x = p.add_continuous_var("x", 0.0, 1.0, 1.0).unwrap();
        assert_eq!(p.var_name(x).unwrap(), "x");
        assert_eq!(p.bounds(x).unwrap(), (0.0, 1.0));
        assert_eq!(p.num_vars(), 1);
        assert!(!p.vars[0].integer);
    }

    #[test]
    fn constraint_validation_covers_domains() {
        let mut p = MinlpProblem::new();
        let n0 = p.add_integer_var("n0", 0.0, 5.0, 0.0).unwrap();
        let n1 = p.add_integer_var("n1", 1.0, 5.0, 0.0).unwrap();
        // Reciprocal over a variable that may be zero is rejected.
        assert!(matches!(
            p.add_constraint(
                "bad",
                vec![Term::reciprocal(n0, 1.0)],
                Relation::LessEq,
                1.0
            ),
            Err(MinlpError::DomainViolation(_))
        ));
        // Reciprocal over a strictly positive variable is fine.
        assert!(p
            .add_constraint("ok", vec![Term::reciprocal(n1, 1.0)], Relation::LessEq, 1.0)
            .is_ok());
        // Saturation over a nonnegative variable is fine.
        assert!(p
            .add_constraint(
                "sat",
                vec![Term::saturation(n0, 1.0)],
                Relation::LessEq,
                1.0
            )
            .is_ok());
        // Unknown variable is rejected.
        assert!(matches!(
            p.add_constraint(
                "ghost",
                vec![Term::linear(MinlpVarId::from_index(9), 1.0)],
                Relation::LessEq,
                1.0
            ),
            Err(MinlpError::UnknownVariable(9))
        ));
    }

    #[test]
    fn feasibility_and_objective_evaluation() {
        let mut p = MinlpProblem::new();
        let n = p.add_integer_var("n", 1.0, 10.0, 0.0).unwrap();
        let ii = p.add_continuous_var("ii", 0.0, 100.0, 1.0).unwrap();
        p.add_constraint(
            "lat",
            vec![Term::reciprocal(n, 8.0), Term::linear(ii, -1.0)],
            Relation::LessEq,
            0.0,
        )
        .unwrap();
        // n = 4, ii = 2 satisfies 8/4 - 2 ≤ 0.
        assert!(p.is_feasible(&[4.0, 2.0], 1e-9).unwrap());
        // ii too small violates the constraint.
        assert!(!p.is_feasible(&[4.0, 1.0], 1e-9).unwrap());
        // non-integer n is rejected.
        assert!(!p.is_feasible(&[3.5, 3.0], 1e-9).unwrap());
        assert_eq!(p.objective_value(&[4.0, 2.0]).unwrap(), 2.0);
        assert_eq!(ii.index(), 1);
    }
}
