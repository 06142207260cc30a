//! LP problem builder: variables, linear constraints, objective.

use crate::simplex;
use crate::solution::LpSolution;
use crate::LpError;

/// Handle to a decision variable of an [`LpProblem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Index of the variable in the order of creation.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Handle to a constraint of an [`LpProblem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConstraintId(pub(crate) usize);

impl ConstraintId {
    /// Index of the constraint in the order of creation.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Direction of optimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Sense {
    /// Minimize the objective (default).
    #[default]
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// Relation of a linear constraint to its right-hand side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// Left-hand side `≤` right-hand side.
    LessEq,
    /// Left-hand side `≥` right-hand side.
    GreaterEq,
    /// Left-hand side `=` right-hand side.
    Equal,
}

#[derive(Debug, Clone)]
pub(crate) struct VarData {
    pub(crate) name: String,
    pub(crate) lower: f64,
    pub(crate) upper: f64,
    pub(crate) objective: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct ConstraintData {
    /// `(variable index, coefficient)` pairs; at most one entry per variable.
    pub(crate) terms: Vec<(usize, f64)>,
    pub(crate) relation: Relation,
    pub(crate) rhs: f64,
}

/// A linear program under construction.
///
/// Variables are added with bounds, an objective coefficient is attached per
/// variable, and constraints are linear combinations of variables related to
/// a constant. See the [crate-level example](crate) for typical use.
#[derive(Debug, Clone)]
pub struct LpProblem {
    sense: Sense,
    pub(crate) vars: Vec<VarData>,
    pub(crate) constraints: Vec<ConstraintData>,
}

impl LpProblem {
    /// Creates an empty problem with the given optimization sense.
    pub fn new(sense: Sense) -> Self {
        LpProblem {
            sense,
            vars: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// Optimization sense of the problem.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Adds a variable with bounds `lower ≤ x ≤ upper` and zero objective
    /// coefficient, returning its handle.
    ///
    /// `lower` may be `-∞` and `upper` may be `+∞`.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::InvalidBounds`] if `lower > upper`, and
    /// [`LpError::InvalidArgument`] if either bound is NaN.
    pub fn add_var(
        &mut self,
        name: impl Into<String>,
        lower: f64,
        upper: f64,
    ) -> Result<VarId, LpError> {
        let name = name.into();
        if lower.is_nan() || upper.is_nan() {
            return Err(LpError::InvalidArgument(format!(
                "bounds of variable {name} must not be NaN"
            )));
        }
        if lower > upper {
            return Err(LpError::InvalidBounds { name, lower, upper });
        }
        self.vars.push(VarData {
            name,
            lower,
            upper,
            objective: 0.0,
        });
        Ok(VarId(self.vars.len() - 1))
    }

    /// Sets the objective coefficient of `var`.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::UnknownId`] if the variable does not belong to this
    /// problem, and [`LpError::InvalidArgument`] for a non-finite coefficient.
    pub fn set_objective_coefficient(&mut self, var: VarId, coeff: f64) -> Result<(), LpError> {
        if !coeff.is_finite() {
            return Err(LpError::InvalidArgument(format!(
                "objective coefficient must be finite, got {coeff}"
            )));
        }
        let data = self
            .vars
            .get_mut(var.0)
            .ok_or_else(|| LpError::UnknownId(format!("variable #{}", var.0)))?;
        data.objective = coeff;
        Ok(())
    }

    /// Adds the linear constraint `Σ coeff·var  rel  rhs`, returning its handle.
    ///
    /// Duplicate variable entries in `terms` are summed.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::UnknownId`] if a term references a foreign variable
    /// and [`LpError::InvalidArgument`] for non-finite coefficients or
    /// right-hand side.
    pub fn add_constraint(
        &mut self,
        name: impl Into<String>,
        terms: &[(VarId, f64)],
        relation: Relation,
        rhs: f64,
    ) -> Result<ConstraintId, LpError> {
        let name = name.into();
        if !rhs.is_finite() {
            return Err(LpError::InvalidArgument(format!(
                "right-hand side of constraint {name} must be finite, got {rhs}"
            )));
        }
        let mut combined: Vec<(usize, f64)> = Vec::with_capacity(terms.len());
        for &(var, coeff) in terms {
            if var.0 >= self.vars.len() {
                return Err(LpError::UnknownId(format!(
                    "variable #{} in constraint {name}",
                    var.0
                )));
            }
            if !coeff.is_finite() {
                return Err(LpError::InvalidArgument(format!(
                    "coefficient of variable {} in constraint {name} must be finite",
                    self.vars[var.0].name
                )));
            }
            match combined.iter_mut().find(|(idx, _)| *idx == var.0) {
                Some((_, existing)) => *existing += coeff,
                None => combined.push((var.0, coeff)),
            }
        }
        self.constraints.push(ConstraintData {
            terms: combined,
            relation,
            rhs,
        });
        Ok(ConstraintId(self.constraints.len() - 1))
    }

    /// Updates the bounds of an existing variable.
    ///
    /// This is the hook used by branch-and-bound solvers to tighten bounds
    /// without rebuilding the model.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LpProblem::add_var`].
    pub fn set_bounds(&mut self, var: VarId, lower: f64, upper: f64) -> Result<(), LpError> {
        if lower.is_nan() || upper.is_nan() {
            return Err(LpError::InvalidArgument("bounds must not be NaN".into()));
        }
        let data = self
            .vars
            .get_mut(var.0)
            .ok_or_else(|| LpError::UnknownId(format!("variable #{}", var.0)))?;
        if lower > upper {
            return Err(LpError::InvalidBounds {
                name: data.name.clone(),
                lower,
                upper,
            });
        }
        data.lower = lower;
        data.upper = upper;
        Ok(())
    }

    /// Returns the `(lower, upper)` bounds of a variable.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::UnknownId`] for a foreign variable.
    pub fn bounds(&self, var: VarId) -> Result<(f64, f64), LpError> {
        let data = self
            .vars
            .get(var.0)
            .ok_or_else(|| LpError::UnknownId(format!("variable #{}", var.0)))?;
        Ok((data.lower, data.upper))
    }

    /// Returns the name of a variable.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::UnknownId`] for a foreign variable.
    pub fn var_name(&self, var: VarId) -> Result<&str, LpError> {
        self.vars
            .get(var.0)
            .map(|v| v.name.as_str())
            .ok_or_else(|| LpError::UnknownId(format!("variable #{}", var.0)))
    }

    /// Solves the problem with the two-phase simplex method.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::PivotBudgetExceeded`] if the pivot budget (50 000,
    /// both phases combined) is exhausted — a structured stop, never a hang.
    /// Infeasibility and unboundedness are *not* errors; they are reported
    /// via [`LpSolution::status`].
    ///
    /// # Example
    ///
    /// ```
    /// use mfa_linprog::{LpProblem, Sense};
    ///
    /// # fn main() -> Result<(), mfa_linprog::LpError> {
    /// let mut lp = LpProblem::new(Sense::Minimize);
    /// let x = lp.add_var("x", 0.0, 1.0)?;
    /// lp.set_objective_coefficient(x, 1.0)?;
    /// let solution = lp.solve()?;
    /// assert!(solution.is_optimal());
    /// # Ok(())
    /// # }
    /// ```
    pub fn solve(&self) -> Result<LpSolution, LpError> {
        simplex::solve(self, simplex::MAX_PIVOTS)
    }

    /// Evaluates the objective at a given assignment (useful for checking
    /// candidate solutions independently of the solver).
    ///
    /// # Errors
    ///
    /// Returns [`LpError::InvalidArgument`] if `values` has the wrong length.
    pub fn objective_value(&self, values: &[f64]) -> Result<f64, LpError> {
        if values.len() != self.vars.len() {
            return Err(LpError::InvalidArgument(format!(
                "expected {} values, got {}",
                self.vars.len(),
                values.len()
            )));
        }
        Ok(self
            .vars
            .iter()
            .zip(values.iter())
            .map(|(v, x)| v.objective * x)
            .sum())
    }

    /// Checks whether an assignment satisfies every constraint and bound
    /// within tolerance `tol`.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::InvalidArgument`] if `values` has the wrong length.
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> Result<bool, LpError> {
        if values.len() != self.vars.len() {
            return Err(LpError::InvalidArgument(format!(
                "expected {} values, got {}",
                self.vars.len(),
                values.len()
            )));
        }
        for (v, &x) in self.vars.iter().zip(values.iter()) {
            if x < v.lower - tol || x > v.upper + tol {
                return Ok(false);
            }
        }
        for c in &self.constraints {
            let lhs: f64 = c.terms.iter().map(|&(j, a)| a * values[j]).sum();
            let ok = match c.relation {
                Relation::LessEq => lhs <= c.rhs + tol,
                Relation::GreaterEq => lhs >= c.rhs - tol,
                Relation::Equal => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_var_validates_bounds() {
        let mut lp = LpProblem::new(Sense::Minimize);
        assert!(lp.add_var("x", 1.0, 0.0).is_err());
        assert!(lp.add_var("x", f64::NAN, 0.0).is_err());
        assert!(lp.add_var("x", 0.0, 1.0).is_ok());
    }

    #[test]
    fn objective_coefficient_requires_known_var() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x", 0.0, 1.0).unwrap();
        assert!(lp.set_objective_coefficient(x, 1.0).is_ok());
        assert!(lp.set_objective_coefficient(VarId(7), 1.0).is_err());
        assert!(lp.set_objective_coefficient(x, f64::INFINITY).is_err());
    }

    #[test]
    fn duplicate_terms_are_combined() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x", 0.0, 10.0).unwrap();
        let c = lp
            .add_constraint("c", &[(x, 1.0), (x, 2.0)], Relation::LessEq, 6.0)
            .unwrap();
        assert_eq!(c.index(), 0);
        assert_eq!(lp.constraints[0].terms, vec![(0, 3.0)]);
    }

    #[test]
    fn feasibility_check_covers_bounds_and_rows() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x", 0.0, 5.0).unwrap();
        let y = lp.add_var("y", 0.0, 5.0).unwrap();
        lp.add_constraint("c", &[(x, 1.0), (y, 1.0)], Relation::LessEq, 4.0)
            .unwrap();
        assert!(lp.is_feasible(&[1.0, 2.0], 1e-9).unwrap());
        assert!(!lp.is_feasible(&[3.0, 2.0], 1e-9).unwrap());
        assert!(!lp.is_feasible(&[-1.0, 0.0], 1e-9).unwrap());
        assert!(lp.is_feasible(&[0.0], 1e-9).is_err());
    }

    #[test]
    fn set_bounds_round_trips() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x", 0.0, 5.0).unwrap();
        lp.set_bounds(x, 1.0, 2.0).unwrap();
        assert_eq!(lp.bounds(x).unwrap(), (1.0, 2.0));
        assert!(lp.set_bounds(x, 3.0, 2.0).is_err());
        assert!(lp.bounds(VarId(9)).is_err());
    }

    #[test]
    fn objective_value_is_linear() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x", 0.0, 5.0).unwrap();
        let y = lp.add_var("y", 0.0, 5.0).unwrap();
        lp.set_objective_coefficient(x, 2.0).unwrap();
        lp.set_objective_coefficient(y, -1.0).unwrap();
        assert_eq!(lp.objective_value(&[1.0, 3.0]).unwrap(), -1.0);
    }
}
