//! Geometric programming: posynomial modeling plus a log-barrier
//! interior-point solver.
//!
//! The heuristic of the reproduced paper (Shan et al., DAC 2019) solves a
//! relaxed compute-unit-count problem as a *geometric program* (GP). The
//! original work used GPkit; this crate is the in-repo substitute. It offers:
//!
//! * [`Monomial`] / [`Posynomial`] expression types over named positive
//!   variables,
//! * a [`GpProblem`] builder (`minimize posynomial` subject to
//!   `posynomial ≤ 1` constraints),
//! * a solver that applies the standard log-space transform (making the
//!   problem convex) and runs a log-barrier Newton interior-point method,
//!   using [`mfa_linalg`] for the Newton systems.
//!
//! Each Newton step evaluates every constraint once, into a workspace
//! allocated once per solver phase. A single-monomial constraint (in the
//! allocation GP: every latency, bound and implicit box row) is affine in
//! log-space and costs no `exp` or `ln`. A centering ends as soon as an
//! accepted step leaves the iterate bitwise unchanged, because every later
//! step would repeat it exactly. It also ends when a strictly feasible full
//! Newton step fails the Armijo test at a Newton decrement small enough that
//! backtracking provably accepts the full step on a self-concordant barrier:
//! there the barrier value's rounding, not its curvature, refused the step.
//! The barrier's settings (gap tolerance, barrier growth, iteration budgets,
//! implicit variable bounds) are fixed; [`SolverOptions`] carries only the
//! primal and dual warm starts. A phase that runs out of outer iterations
//! reports [`GpError::DidNotConverge`].
//!
//! # Example
//!
//! ```
//! use mfa_gp::{GpProblem, Posynomial};
//!
//! # fn main() -> Result<(), mfa_gp::GpError> {
//! // minimize 1/(x·y) subject to x ≤ 2 and y ≤ 3 (optimum 1/6 at (2, 3)).
//! let mut gp = GpProblem::new();
//! let x = gp.add_var("x")?;
//! let y = gp.add_var("y")?;
//! gp.set_objective(Posynomial::monomial(1.0, &[(x, -1.0), (y, -1.0)]));
//! gp.add_le_constraint("x ≤ 2", Posynomial::monomial(1.0 / 2.0, &[(x, 1.0)]))?;
//! gp.add_le_constraint("y ≤ 3", Posynomial::monomial(1.0 / 3.0, &[(y, 1.0)]))?;
//! let sol = gp.solve()?;
//! assert!((sol.value(x) - 2.0).abs() < 1e-4);
//! assert!((sol.objective() - 1.0 / 6.0).abs() < 1e-4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod expr;
mod model;
mod solver;

pub use error::GpError;
pub use expr::{Monomial, Posynomial};
pub use model::{GpProblem, GpVarId};
pub use solver::{GpDualState, GpSolution, SolverOptions};
