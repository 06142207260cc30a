//! GP problem builder.

use crate::expr::Posynomial;
use crate::solver::{self, GpSolution, SolverOptions};
use crate::GpError;

/// Handle to a (strictly positive) GP decision variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GpVarId(usize);

impl GpVarId {
    /// Index of the variable in creation order.
    pub fn index(self) -> usize {
        self.0
    }

    /// Builds a handle from a raw index.
    ///
    /// Exposed for tests and for callers that serialize variable indices;
    /// passing an index that does not belong to the target problem results in
    /// an [`GpError::UnknownVariable`] at validation time.
    pub fn from_index(index: usize) -> Self {
        GpVarId(index)
    }
}

/// A constraint `posynomial ≤ 1`.
#[derive(Debug, Clone)]
pub(crate) struct GpConstraint {
    pub(crate) name: String,
    pub(crate) posy: Posynomial,
}

/// A geometric program in standard form:
/// minimize a posynomial subject to `posynomial ≤ 1` constraints over
/// strictly positive variables.
///
/// See the [crate-level example](crate) for typical use.
#[derive(Debug, Clone, Default)]
pub struct GpProblem {
    pub(crate) var_names: Vec<String>,
    pub(crate) objective: Option<Posynomial>,
    pub(crate) constraints: Vec<GpConstraint>,
}

impl GpProblem {
    /// Creates an empty problem.
    pub fn new() -> Self {
        GpProblem::default()
    }

    /// Adds a strictly positive decision variable.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::InvalidArgument`] if the name is empty.
    pub fn add_var(&mut self, name: impl Into<String>) -> Result<GpVarId, GpError> {
        let name = name.into();
        if name.is_empty() {
            return Err(GpError::InvalidArgument(
                "variable name must not be empty".into(),
            ));
        }
        self.var_names.push(name);
        Ok(GpVarId(self.var_names.len() - 1))
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Name of a variable.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::UnknownVariable`] for a foreign handle.
    pub fn var_name(&self, var: GpVarId) -> Result<&str, GpError> {
        self.var_names
            .get(var.0)
            .map(String::as_str)
            .ok_or(GpError::UnknownVariable(var.0))
    }

    /// Sets the posynomial objective to minimize.
    pub fn set_objective(&mut self, objective: Posynomial) {
        self.objective = Some(objective);
    }

    /// Adds the constraint `posy ≤ 1`.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::InvalidArgument`] if the posynomial has no terms and
    /// [`GpError::UnknownVariable`] if it references a variable that was not
    /// added to this problem.
    pub fn add_le_constraint(
        &mut self,
        name: impl Into<String>,
        posy: Posynomial,
    ) -> Result<(), GpError> {
        let name = name.into();
        if posy.is_empty() {
            return Err(GpError::InvalidArgument(format!(
                "constraint {name} has no terms"
            )));
        }
        if let Some(max_idx) = posy.max_var_index() {
            if max_idx >= self.var_names.len() {
                return Err(GpError::UnknownVariable(max_idx));
            }
        }
        self.constraints.push(GpConstraint { name, posy });
        Ok(())
    }

    /// Validates the model (objective present, every expression references
    /// only known variables, no empty posynomials).
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), GpError> {
        let objective = self.objective.as_ref().ok_or(GpError::MissingObjective)?;
        if objective.is_empty() {
            return Err(GpError::InvalidArgument("objective has no terms".into()));
        }
        if let Some(max_idx) = objective.max_var_index() {
            if max_idx >= self.var_names.len() {
                return Err(GpError::UnknownVariable(max_idx));
            }
        }
        for c in &self.constraints {
            if c.posy.is_empty() {
                return Err(GpError::InvalidArgument(format!(
                    "constraint {} has no terms",
                    c.name
                )));
            }
            if let Some(max_idx) = c.posy.max_var_index() {
                if max_idx >= self.var_names.len() {
                    return Err(GpError::UnknownVariable(max_idx));
                }
            }
        }
        Ok(())
    }

    /// Solves the problem from a cold start.
    ///
    /// # Errors
    ///
    /// Propagates validation errors and solver failures; see [`GpError`].
    pub fn solve(&self) -> Result<GpSolution, GpError> {
        self.solve_with(&SolverOptions::default())
    }

    /// Solves the problem from the warm start in `options`.
    ///
    /// # Errors
    ///
    /// Propagates validation errors and solver failures; see [`GpError`].
    pub fn solve_with(&self, options: &SolverOptions) -> Result<GpSolution, GpError> {
        self.validate()?;
        solver::solve(self, options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Posynomial;

    #[test]
    fn add_var_and_names() {
        let mut gp = GpProblem::new();
        let x = gp.add_var("x").unwrap();
        assert_eq!(gp.var_name(x).unwrap(), "x");
        assert_eq!(gp.num_vars(), 1);
        assert!(gp.add_var("").is_err());
        assert!(gp.var_name(GpVarId(5)).is_err());
    }

    #[test]
    fn validation_requires_objective() {
        let gp = GpProblem::new();
        assert_eq!(gp.validate(), Err(GpError::MissingObjective));
    }

    #[test]
    fn validation_rejects_foreign_variables() {
        let mut gp = GpProblem::new();
        let _x = gp.add_var("x").unwrap();
        let ghost = GpVarId::from_index(3);
        gp.set_objective(Posynomial::monomial(1.0, &[(ghost, 1.0)]));
        assert!(matches!(gp.validate(), Err(GpError::UnknownVariable(3))));
    }

    #[test]
    fn constraint_validation() {
        let mut gp = GpProblem::new();
        let x = gp.add_var("x").unwrap();
        assert!(gp.add_le_constraint("empty", Posynomial::new()).is_err());
        assert!(gp
            .add_le_constraint("ok", Posynomial::monomial(0.5, &[(x, 1.0)]))
            .is_ok());
        assert!(gp
            .add_le_constraint(
                "foreign",
                Posynomial::monomial(1.0, &[(GpVarId::from_index(9), 1.0)])
            )
            .is_err());
        assert_eq!(gp.num_constraints(), 1);
    }
}
