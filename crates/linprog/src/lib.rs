//! A small linear-programming library: model builder plus a dense two-phase
//! simplex solver.
//!
//! This crate is the LP substrate for the MINLP branch-and-bound solver in
//! `mfa-minlp` (node relaxations of the multi-FPGA allocation problem are
//! LPs after outer-approximation and secant convexification). It is a general
//! LP library, not tied to that use: variables with arbitrary bounds, `≤`/`≥`/
//! `=` constraints, minimization or maximization.
//!
//! The solver is a dense tableau two-phase simplex with Bland's rule as an
//! anti-cycling fallback. The largest LPs in this workspace, the VGG MINLP+G
//! node relaxations, have about 460 rows and 1150 columns, and their pivot
//! rows are sparse. So the reduced-cost row is priced in full once per phase
//! and then kept: after a pivot only the columns where the pivot row is
//! nonzero are repriced, and the other rows are updated in those columns
//! alone. Both give the same numbers as repricing and updating every column.
//!
//! # Example
//!
//! ```
//! use mfa_linprog::{LpProblem, Relation, Sense, SolverStatus};
//!
//! # fn main() -> Result<(), mfa_linprog::LpError> {
//! // maximize 3x + 5y  s.t.  x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18, x,y ≥ 0
//! let mut lp = LpProblem::new(Sense::Maximize);
//! let x = lp.add_var("x", 0.0, f64::INFINITY)?;
//! let y = lp.add_var("y", 0.0, f64::INFINITY)?;
//! lp.set_objective_coefficient(x, 3.0)?;
//! lp.set_objective_coefficient(y, 5.0)?;
//! lp.add_constraint("c1", &[(x, 1.0)], Relation::LessEq, 4.0)?;
//! lp.add_constraint("c2", &[(y, 2.0)], Relation::LessEq, 12.0)?;
//! lp.add_constraint("c3", &[(x, 3.0), (y, 2.0)], Relation::LessEq, 18.0)?;
//! let solution = lp.solve()?;
//! assert_eq!(solution.status(), SolverStatus::Optimal);
//! assert!((solution.objective() - 36.0).abs() < 1e-9);
//! assert!((solution.value(x) - 2.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod model;
mod simplex;
mod solution;

pub use error::LpError;
pub use model::{ConstraintId, LpProblem, Relation, Sense, VarId};
pub use solution::{LpSolution, SolverStatus};
