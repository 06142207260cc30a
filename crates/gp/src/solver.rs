//! Log-barrier interior-point solver for geometric programs.
//!
//! The GP is transformed to its convex log-space form: with `y = ln x`, every
//! posynomial `Σ c_t Π x^{a_t}` becomes the log-sum-exp function
//! `F(y) = log Σ exp(a_t·y + ln c_t)`, which is convex. The problem
//! `min F₀(y) s.t. F_i(y) ≤ 0` is then solved with a standard barrier method
//! (Newton inner iterations with backtracking line search, geometric increase
//! of the barrier parameter), preceded by a phase-I search for a strictly
//! feasible point.
//!
//! Each Newton step evaluates every row once: its value, then its gradient
//! and Hessian terms over the variables it references, into a workspace
//! allocated once per phase. A single-monomial row (every latency, bound and
//! implicit box row of the allocation GP) is affine in log-space, so it takes
//! no `exp` or `ln`. A line-search trial evaluates each constraint once and
//! rejects on the first that is not strictly negative, before any logarithm.
//! Every sum keeps the operand order of the plain dense evaluation, which the
//! unit tests check bit for bit at every step (`solver/reference.rs`).
//!
//! A centering ends when the Newton decrement is small, when the line search
//! accepts nothing, when it accepts a step that leaves `y` bitwise
//! unchanged, or when it refuses a full step that only rounding can refuse.
//! The third step would otherwise repeat, identically, until the centering's
//! Newton step budget ran out. The fourth is a full step that stays strictly
//! feasible but fails the Armijo test while the Newton decrement `λ` is at
//! most `η = (1 − 2c)/4`, `c` the Armijo constant. On a self-concordant
//! barrier backtracking accepts the full step there (Boyd & Vandenberghe,
//! *Convex Optimization*, §9.6.4), so the refusal is φ's rounding, not its
//! curvature: on the last rungs of the allocation GP, φ is about 1e8–1e9
//! and rounds away a decrease of `λ²`, and shorter steps would not lower
//! `λ` either. A full step refused for
//! leaving the domain still backtracks. Both exits leave every iterate
//! before them as it was; they save only Newton steps and factorizations.

use mfa_linalg::{KktFactorization, LinalgError, Matrix, Vector};

use crate::expr::Posynomial;
use crate::model::{GpProblem, GpVarId};
use crate::GpError;

/// Dual state of a completed barrier solve: the final barrier parameter and
/// the dual estimates `λ_i = 1 / (t · (−F_i(y*)))` of the problem's explicit
/// constraints, in declaration order (the solver's implicit box constraints
/// are excluded).
///
/// Feeding a prior solution's dual state into
/// [`SolverOptions::initial_dual`] lets a neighboring solve start phase II
/// near the previous barrier parameter instead of walking the whole central
/// path from the cold start's first rung — the *dual* half of a warm start,
/// complementing the primal [`SolverOptions::initial_point`].
#[derive(Debug, Clone, PartialEq)]
pub struct GpDualState {
    /// Final barrier parameter `t` of the producing solve.
    pub barrier_t: f64,
    /// Dual estimates for the explicit constraints, in declaration order.
    pub duals: Vec<f64>,
}

/// Target duality-gap tolerance: `m / t < TOLERANCE` stops the outer loop.
const TOLERANCE: f64 = 1e-8;
/// Newton decrement threshold of a centering: it ends once `λ²/2` is at
/// most this. It may end earlier, at numerical precision (see the module
/// documentation).
const NEWTON_TOLERANCE: f64 = 1e-10;
/// Multiplicative increase of the barrier parameter per outer iteration.
const BARRIER_GROWTH: f64 = 20.0;
/// Barrier parameter of the first centering.
const INITIAL_BARRIER: f64 = 1.0;
/// Newton steps per centering problem.
const MAX_NEWTON_ITERATIONS: usize = 80;
/// Outer (barrier) iterations per phase. A phase that runs out of them
/// before reaching [`TOLERANCE`] fails with [`GpError::DidNotConverge`].
const MAX_OUTER_ITERATIONS: usize = 60;
/// Implicit bounds on every variable.
///
/// GP variables are strictly positive but otherwise unbounded, which can
/// make the barrier subproblems unbounded along directions that only
/// increase constraint slack. The solver therefore restricts every variable
/// to `[VARIABLE_LOWER, VARIABLE_UPPER]`, far outside the value range of any
/// model in this workspace.
const VARIABLE_LOWER: f64 = 1e-9;
/// See [`VARIABLE_LOWER`].
const VARIABLE_UPPER: f64 = 1e9;

/// Warm-start options of the interior-point solver. The barrier's own
/// settings (gap tolerance, barrier growth, iteration budgets, implicit
/// variable bounds) are fixed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolverOptions {
    /// Optional warm-start point in the original (positive) variable space,
    /// one value per variable in creation order.
    ///
    /// When the point is strictly feasible for every constraint (including
    /// the implicit box bounds), the barrier path starts there and phase I is
    /// skipped entirely — the usual win when re-solving a neighbouring
    /// problem, e.g. an adjacent constraint point of a design-space sweep.
    /// A missing, wrong-length, non-positive, non-finite, or infeasible
    /// point is ignored and the solver falls back to the cold phase-I start,
    /// so a stale hint can never change feasibility or the reported optimum
    /// beyond solver tolerance. [`GpSolution::warm_started`] reports whether
    /// the hint was actually taken.
    pub initial_point: Option<Vec<f64>>,
    /// Optional dual warm start: the final barrier parameter and constraint
    /// duals of a prior solve (see [`GpSolution::dual_state`]).
    ///
    /// Only consumed when [`initial_point`](SolverOptions::initial_point) was
    /// accepted — the dual state describes the central path near that point.
    /// When taken, phase II starts at a barrier parameter derived from the
    /// surrogate duality gap `Σ λ_i · (−F_i(y_warm))` (clamped to at least
    /// the cold start's initial barrier parameter and at most `barrier_t`),
    /// skipping the early centering path entirely. A dual state with the
    /// wrong number of duals, non-finite or negative entries, or an
    /// out-of-range `barrier_t` is ignored; like a stale primal hint, a
    /// stale dual hint can only cost extra iterations, never change the
    /// reported optimum beyond solver tolerance.
    /// [`GpSolution::dual_warm_started`] reports whether it was taken.
    pub initial_dual: Option<GpDualState>,
}

/// Solution of a [`GpProblem`].
#[derive(Debug, Clone, PartialEq)]
pub struct GpSolution {
    values: Vec<f64>,
    objective: f64,
    newton_iterations: usize,
    warm_started: bool,
    dual_warm_started: bool,
    barrier_iterations: usize,
    factorizations: usize,
    dual_state: Option<GpDualState>,
}

impl GpSolution {
    /// Optimal value of a variable (in the original, positive space).
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to the solved problem.
    pub fn value(&self, var: GpVarId) -> f64 {
        self.values[var.index()]
    }

    /// All variable values, in creation order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Optimal objective value.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Total number of Newton steps across phase I and phase II.
    pub fn newton_iterations(&self) -> usize {
        self.newton_iterations
    }

    /// `true` when the solve started from a strictly feasible
    /// [`SolverOptions::initial_point`] (phase I skipped).
    pub fn warm_started(&self) -> bool {
        self.warm_started
    }

    /// `true` when a valid [`SolverOptions::initial_dual`] set the starting
    /// barrier parameter (the early centering path was skipped).
    pub fn dual_warm_started(&self) -> bool {
        self.dual_warm_started
    }

    /// Number of barrier centering problems solved, phase I and phase II
    /// combined — the machine-independent outer-iteration effort count.
    pub fn barrier_iterations(&self) -> usize {
        self.barrier_iterations
    }

    /// Number of KKT Cholesky factorization attempts across the solve: full
    /// refactorizations plus in-place diagonal (ridge) refreshes, failed
    /// attempts included. Each corresponds to one Newton system; together
    /// with [`barrier_iterations`](Self::barrier_iterations) this measures
    /// solve effort independently of the machine.
    pub fn factorizations(&self) -> usize {
        self.factorizations
    }

    /// Final barrier parameter and constraint duals, for warm-starting a
    /// neighboring solve via [`SolverOptions::initial_dual`]. `None` only
    /// for constant (variable-free) problems.
    pub fn dual_state(&self) -> Option<&GpDualState> {
        self.dual_state.as_ref()
    }
}

/// One monomial term in log-space: its sparse exponent vector `a_t` and
/// `b_t = ln(coeff)`.
type Term = (Vec<(usize, f64)>, f64);

/// The exponent `z_t = a_t · y + b_t` of one term.
fn exponent((a, b): &Term, y: &[f64]) -> f64 {
    a.iter().map(|&(j, e)| e * y[j]).sum::<f64>() + b
}

/// A posynomial in log-space: `F(y) = log Σ_t exp(a_t · y + b_t)`.
///
/// A single-monomial row is affine, `F(y) = z` for its one exponent `z`, so
/// neither its value nor its derivatives take an `exp` or a `ln`.
#[derive(Debug, Clone)]
struct LogSumExp {
    terms: Vec<Term>,
    /// The variables some term references, ascending. Derivatives are
    /// accumulated over this support only.
    support: Vec<usize>,
}

impl LogSumExp {
    fn new(terms: Vec<Term>) -> Self {
        let mut support: Vec<usize> = terms
            .iter()
            .flat_map(|(a, _)| a.iter().map(|&(j, _)| j))
            .collect();
        support.sort_unstable();
        support.dedup();
        LogSumExp { terms, support }
    }

    fn from_posynomial(p: &Posynomial) -> Self {
        LogSumExp::new(
            p.terms()
                .iter()
                .map(|m| {
                    let a = m.exponents().iter().map(|&(v, e)| (v.index(), e));
                    (a.collect(), m.coeff().ln())
                })
                .collect(),
        )
    }

    /// `F(y)`. An affine row returns `z + 0.0`, which is what the
    /// max-shifted log-sum-exp gives for one finite exponent. Other rows
    /// take that log-sum-exp and recompute each exponent in its second pass
    /// rather than store it.
    fn value(&self, y: &[f64]) -> f64 {
        if let [term] = self.terms.as_slice() {
            return exponent(term, y) + 0.0;
        }
        let max = self
            .terms
            .iter()
            .map(|term| exponent(term, y))
            .fold(f64::NEG_INFINITY, f64::max);
        if !max.is_finite() {
            return max;
        }
        let sum: f64 = self
            .terms
            .iter()
            .map(|term| (exponent(term, y) - max).exp())
            .sum();
        max + sum.ln()
    }

    /// Adds `grad_scale · ∇F` to the workspace's `∇φ` and
    /// `curvature_scale · ∇²F + rank_one_scale · ∇F ∇Fᵀ` to its `∇²φ`,
    /// given `value = F(y)`.
    ///
    /// Only entries on the row's support are touched. Off it, the dense sum
    /// would add `±0`, which changes nothing: an accumulator that starts at
    /// `+0.0` can never become `−0.0`.
    fn accumulate(
        &self,
        y: &[f64],
        value: f64,
        grad_scale: f64,
        curvature_scale: f64,
        rank_one_scale: f64,
        ws: &mut Workspace,
    ) {
        let grad = ws.grad.as_mut_slice();
        let hess = &mut ws.hess;
        if let [(a, _)] = self.terms.as_slice() {
            // One term has softmax weight 1: ∇F = a and ∇²F = 0.
            for &(j, e) in a {
                grad[j] += grad_scale * e;
            }
            if rank_one_scale != 0.0 {
                for &(j1, e1) in a {
                    for &(j2, e2) in a {
                        hess.add_to(j1, j2, rank_one_scale * e1 * e2);
                    }
                }
            }
            return;
        }
        let weights = &mut ws.weights;
        let row_grad = &mut ws.row_grad;
        // Softmax weights, then ∇F = Σ w_t a_t.
        weights.clear();
        weights.extend(
            self.terms
                .iter()
                .map(|term| (exponent(term, y) - value).exp()),
        );
        for ((a, _), w) in self.terms.iter().zip(weights.iter()) {
            for &(j, e) in a {
                row_grad[j] += w * e;
            }
        }
        for &j in &self.support {
            grad[j] += grad_scale * row_grad[j];
        }
        // ∇²F = Σ w_t a_t a_tᵀ − ∇F ∇Fᵀ; its −∇F ∇Fᵀ part joins the rank-one
        // term.
        if curvature_scale != 0.0 {
            for ((a, _), w) in self.terms.iter().zip(weights.iter()) {
                for &(j1, e1) in a {
                    for &(j2, e2) in a {
                        hess.add_to(j1, j2, curvature_scale * w * e1 * e2);
                    }
                }
            }
        }
        let combined = rank_one_scale - curvature_scale;
        if combined != 0.0 {
            for &j1 in &self.support {
                if row_grad[j1] == 0.0 {
                    continue;
                }
                for &j2 in &self.support {
                    hess.add_to(j1, j2, combined * row_grad[j1] * row_grad[j2]);
                }
            }
        }
        for &j in &self.support {
            row_grad[j] = 0.0;
        }
    }
}

/// Everything one phase's Newton steps write, allocated once per phase so
/// that no row evaluation and no line-search trial allocates.
struct Workspace {
    kkt: KktFactorization,
    /// `∇φ` and its negation, the Newton right-hand side.
    grad: Vector,
    neg_grad: Vector,
    /// `∇²φ`.
    hess: Matrix,
    /// Softmax weights `exp(z_t − F(y))` of the row being differentiated.
    weights: Vec<f64>,
    /// That row's `∇F`, dense; zero outside an `accumulate` call.
    row_grad: Vec<f64>,
    /// The line-search candidate and its constraint values.
    candidate: Vector,
    values: Vec<f64>,
}

/// Armijo constant of the backtracking line search: a step must decrease φ
/// by at least this share of the decrease the slope predicts for it.
const ARMIJO: f64 = 1e-4;

/// The Newton decrement `λ` at or below which backtracking accepts the full
/// step on a self-concordant barrier, `η = (1 − 2·ARMIJO) / 4` (Boyd &
/// Vandenberghe, *Convex Optimization*, §9.6.4).
const UNIT_STEP_DECREMENT: f64 = (1.0 - 2.0 * ARMIJO) / 4.0;

/// Internal convex problem: minimize `objective(y)` subject to
/// `constraints[i](y) ≤ 0`, all functions log-sum-exp (affine allowed).
struct ConvexProgram {
    objective: LogSumExp,
    constraints: Vec<LogSumExp>,
    n: usize,
}

impl ConvexProgram {
    fn workspace(&self) -> Result<Workspace, GpError> {
        let n = self.n;
        let max_terms = std::iter::once(&self.objective)
            .chain(&self.constraints)
            .map(|row| row.terms.len())
            .max()
            .unwrap_or(0);
        Ok(Workspace {
            kkt: KktFactorization::new(n).map_err(to_numerical)?,
            grad: Vector::zeros(n),
            neg_grad: Vector::zeros(n),
            hess: Matrix::zeros(n, n).map_err(to_numerical)?,
            weights: Vec::with_capacity(max_terms),
            row_grad: vec![0.0; n],
            candidate: Vector::zeros(n),
            values: vec![0.0; self.constraints.len()],
        })
    }

    /// Barrier centering: minimize `t·f0(y) − Σ log(−f_i(y))` by Newton.
    /// Returns the number of Newton steps. `y` must be strictly feasible.
    ///
    /// Every Newton system is factored through the workspace's reusable
    /// `kkt`: full refactorizations for the fresh Hessian of each step,
    /// in-place diagonal refreshes for the ridge fallback on near-singular
    /// Hessians. Its counters therefore accumulate the phase's factorization
    /// effort.
    fn center(&self, y: &mut Vector, t: f64, ws: &mut Workspace) -> Result<usize, GpError> {
        let mut steps = 0;
        for _ in 0..MAX_NEWTON_ITERATIONS {
            let phi = self.barrier_derivatives(y.as_slice(), t, ws)?;
            #[cfg(test)]
            self.check_derivatives(y.as_slice(), t, phi, ws);
            for (neg, g) in ws.neg_grad.as_mut_slice().iter_mut().zip(ws.grad.iter()) {
                *neg = -g;
            }
            // Solve H Δ = −g with a ridge fallback for near-singular
            // Hessians; the ridge only touches the diagonal, so the fallback
            // is an in-place refresh rather than a second factorization from
            // scratch.
            let step = match ws.kkt.refactor(&ws.hess) {
                Ok(()) => ws.kkt.solve(&ws.neg_grad).map_err(to_numerical)?,
                Err(LinalgError::NotPositiveDefinite { .. }) => {
                    let ridge: Vec<f64> = (0..self.n)
                        .map(|i| 1e-8 + 1e-8 * ws.hess.get(i, i).abs())
                        .collect();
                    ws.kkt.refresh_diagonal(&ridge).map_err(to_numerical)?;
                    ws.kkt.solve(&ws.neg_grad).map_err(to_numerical)?
                }
                Err(err) => return Err(to_numerical(err)),
            };
            let decrement_sq: f64 = ws.grad.iter().zip(step.iter()).map(|(g, s)| g * -s).sum();
            if decrement_sq * 0.5 <= NEWTON_TOLERANCE {
                break;
            }
            // Backtracking line search (Armijo on the barrier function,
            // restricted to the domain where all constraints stay negative).
            let mut alpha = 1.0;
            let slope = ws.grad.dot(&step).map_err(to_numerical)?;
            let mut accepted = false;
            for _ in 0..60 {
                for ((c, &yi), &si) in ws
                    .candidate
                    .as_mut_slice()
                    .iter_mut()
                    .zip(y.iter())
                    .zip(step.iter())
                {
                    *c = yi + alpha * si;
                }
                let trial = self.trial_value(ws.candidate.as_slice(), t, &mut ws.values);
                #[cfg(test)]
                self.check_trial(ws.candidate.as_slice(), t, trial);
                let sufficient = phi + ARMIJO * alpha * slope;
                if trial.is_some_and(|phi_candidate| phi_candidate <= sufficient) {
                    std::mem::swap(y, &mut ws.candidate);
                    accepted = true;
                    break;
                }
                // Inside the unit-step region a strictly feasible full step
                // fails Armijo only because φ's rounding hides the decrease,
                // and it would hide a shorter step's decrease as well.
                if alpha == 1.0
                    && trial.is_some()
                    && decrement_sq <= UNIT_STEP_DECREMENT * UNIT_STEP_DECREMENT
                {
                    break;
                }
                alpha *= 0.5;
            }
            steps += 1;
            // The line search accepted nothing, or it refused a full step
            // only rounding could refuse, or it accepted a step too small
            // to move `y` by a single bit, after which every later step
            // would repeat this one exactly. Each means we are at numerical
            // precision for this centering problem.
            if !accepted || same_bits(y.as_slice(), ws.candidate.as_slice()) {
                break;
            }
        }
        Ok(steps)
    }

    fn strictly_feasible(&self, y: &[f64]) -> bool {
        self.constraints.iter().all(|c| c.value(y) < 0.0)
    }

    /// The barrier function at a line-search candidate, or `None` when a
    /// constraint is not strictly negative there. Each constraint is
    /// evaluated once into `values`; the logarithms are taken only after
    /// every constraint passed.
    fn trial_value(&self, y: &[f64], t: f64, values: &mut [f64]) -> Option<f64> {
        for (c, value) in self.constraints.iter().zip(values.iter_mut()) {
            *value = c.value(y);
            if value.is_nan() || *value >= 0.0 {
                return None;
            }
        }
        let mut phi = t * self.objective.value(y);
        for value in values.iter() {
            phi -= (-value).ln();
        }
        Some(phi)
    }

    /// Writes `∇φ` and `∇²φ` of the barrier function
    /// `φ(y) = t·F₀(y) − Σ log(−F_i(y))` into the workspace and returns
    /// `φ(y)`. Each row is evaluated once.
    fn barrier_derivatives(&self, y: &[f64], t: f64, ws: &mut Workspace) -> Result<f64, GpError> {
        let n = self.n;
        ws.grad.as_mut_slice().fill(0.0);
        for i in 0..n {
            for j in 0..n {
                ws.hess.set(i, j, 0.0);
            }
        }
        // Objective contributes t·∇F₀ and t·∇²F₀.
        let f0 = self.objective.value(y);
        self.objective.accumulate(y, f0, t, t, 0.0, ws);
        let mut phi = t * f0;
        for c in &self.constraints {
            let value = c.value(y);
            if value >= 0.0 {
                return Err(GpError::Numerical(
                    "barrier evaluated at an infeasible point".into(),
                ));
            }
            let inv = 1.0 / (-value);
            // −log(−f): gradient ∇f/(−f), Hessian ∇²f/(−f) + ∇f∇fᵀ/f².
            c.accumulate(y, value, inv, inv, inv * inv, ws);
            phi -= (-value).ln();
        }
        Ok(phi)
    }
}

/// `true` when both slices hold the same bit patterns.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn to_numerical<E: std::fmt::Display>(err: E) -> GpError {
    GpError::Numerical(err.to_string())
}

/// Solves a validated [`GpProblem`]; entry point used by [`GpProblem::solve_with`].
pub(crate) fn solve(problem: &GpProblem, options: &SolverOptions) -> Result<GpSolution, GpError> {
    solve_within(problem, options, MAX_OUTER_ITERATIONS)
}

/// [`solve`] with at most `max_outer_iterations` barrier iterations per
/// phase, which lets the unit tests run a phase out of them.
fn solve_within(
    problem: &GpProblem,
    options: &SolverOptions,
    max_outer_iterations: usize,
) -> Result<GpSolution, GpError> {
    let n = problem.num_vars();
    let objective = problem
        .objective
        .as_ref()
        .ok_or(GpError::MissingObjective)?;
    if n == 0 {
        // No variables: the objective is a constant.
        return Ok(GpSolution {
            values: Vec::new(),
            objective: objective.eval(&[]),
            newton_iterations: 0,
            warm_started: false,
            dual_warm_started: false,
            barrier_iterations: 0,
            factorizations: 0,
            dual_state: None,
        });
    }
    let num_explicit = problem.constraints.len();
    let mut constraints: Vec<LogSumExp> = problem
        .constraints
        .iter()
        .map(|c| LogSumExp::from_posynomial(&c.posy))
        .collect();
    // Implicit box constraints keep every barrier subproblem bounded; see
    // `VARIABLE_LOWER`.
    let lower_log = VARIABLE_LOWER.ln();
    let upper_log = VARIABLE_UPPER.ln();
    for j in 0..n {
        // x_j ≤ upper  ⇔  y_j − ln(upper) ≤ 0.
        constraints.push(LogSumExp::new(vec![(vec![(j, 1.0)], -upper_log)]));
        // x_j ≥ lower  ⇔  −y_j + ln(lower) ≤ 0.
        constraints.push(LogSumExp::new(vec![(vec![(j, -1.0)], lower_log)]));
    }
    let program = ConvexProgram {
        objective: LogSumExp::from_posynomial(objective),
        constraints,
        n,
    };

    let mut total_newton = 0usize;
    let mut barrier_iterations = 0usize;
    let mut factorizations = 0usize;
    // Warm start: a strictly feasible hint becomes the barrier start point
    // and phase I is skipped. Anything invalid degrades to the cold start.
    let mut warm_started = false;
    let mut y = match warm_start_point(&program, options, n) {
        Some(point) => {
            warm_started = true;
            point
        }
        None => Vector::zeros(n),
    };
    // Phase I: find a strictly feasible y (all F_i(y) < 0). The box rows
    // make the constraint list non-empty.
    if !program.strictly_feasible(y.as_slice()) {
        let (feasible_y, effort) = phase_one(&program, max_outer_iterations)?;
        total_newton += effort.newton;
        barrier_iterations += effort.barrier;
        factorizations += effort.factorizations;
        y = feasible_y;
        if !program.strictly_feasible(y.as_slice()) {
            return Err(GpError::Infeasible);
        }
    }

    // Phase II: barrier path following. One workspace serves every Newton
    // step of the phase; consecutive Hessians share its factorization.
    let m = program.constraints.len();
    let mut ws = program.workspace()?;
    let mut t = INITIAL_BARRIER;
    let mut dual_warm_started = false;
    // Dual warm start: an accepted prior dual state places the starting
    // barrier parameter near the previous solve's endpoint, skipping the
    // early centering path from `INITIAL_BARRIER`.
    if warm_started {
        if let Some(warm_t) = warm_barrier_parameter(&program, &y, m, num_explicit, options) {
            t = warm_t;
            dual_warm_started = true;
        }
    }
    let mut converged = false;
    for _ in 0..max_outer_iterations {
        total_newton += program.center(&mut y, t, &mut ws)?;
        barrier_iterations += 1;
        if (m as f64) / t < TOLERANCE {
            converged = true;
            break;
        }
        t *= BARRIER_GROWTH;
    }
    if !converged {
        return Err(GpError::DidNotConverge {
            outer_iterations: barrier_iterations,
        });
    }
    factorizations += ws.kkt.factorizations() + ws.kkt.refreshes();

    // Dual estimates of the explicit constraints at the final center:
    // λ_i = 1 / (t · (−F_i(y))). Strict feasibility makes every slack
    // positive; the clamp only guards the last few ulps.
    let duals: Vec<f64> = program.constraints[..num_explicit]
        .iter()
        .map(|c| 1.0 / (t * (-c.value(y.as_slice())).max(f64::MIN_POSITIVE)))
        .collect();

    let values: Vec<f64> = (0..n).map(|j| y.get(j).exp()).collect();
    let objective_value = objective.eval(&values);
    Ok(GpSolution {
        values,
        objective: objective_value,
        newton_iterations: total_newton,
        warm_started,
        dual_warm_started,
        barrier_iterations,
        factorizations,
        dual_state: Some(GpDualState {
            barrier_t: t,
            duals,
        }),
    })
}

/// Validates [`SolverOptions::initial_dual`] against the program at the
/// accepted warm point `y` and derives the phase-II starting barrier
/// parameter from it. Returns `None` when the dual state must be ignored.
///
/// The parameter is `m / η` for the surrogate duality gap
/// `η = Σ λ_i · (−F_i(y))` over the explicit constraints, clamped to
/// `[INITIAL_BARRIER, barrier_t]` and then snapped *down* onto the cold
/// ladder `INITIAL_BARRIER · BARRIER_GROWTH^k`: at the producing solve's own
/// optimum every product is exactly `1/t`, so the estimate recovers (about)
/// the previous final `t`, while a genuinely perturbed neighboring problem
/// widens the slacks and lowers the start accordingly. The snap matters
/// because it makes the warm solve follow the exact `t`-sequence a cold
/// solve would — same rungs, same final `t`, same numerical regime for the
/// last centering — so the dual hint only removes early rungs instead of
/// shifting the whole ladder (an offset ladder overshoots the endpoint and
/// can stall its final centering at floating-point precision).
fn warm_barrier_parameter(
    program: &ConvexProgram,
    y: &Vector,
    m_total: usize,
    num_explicit: usize,
    options: &SolverOptions,
) -> Option<f64> {
    let dual = options.initial_dual.as_ref()?;
    if !(dual.barrier_t.is_finite() && dual.barrier_t >= INITIAL_BARRIER) {
        return None;
    }
    if dual.duals.len() != num_explicit || dual.duals.iter().any(|l| !(l.is_finite() && *l >= 0.0))
    {
        return None;
    }
    let mut surrogate_gap = 0.0;
    for (lambda, c) in dual.duals.iter().zip(&program.constraints[..num_explicit]) {
        let slack = -c.value(y.as_slice());
        if slack <= 0.0 {
            return None;
        }
        surrogate_gap += lambda * slack;
    }
    let estimate = if surrogate_gap > 0.0 && surrogate_gap.is_finite() {
        (m_total as f64) / surrogate_gap
    } else {
        // All-zero duals (e.g. a problem without explicit constraints):
        // fall back to the previous endpoint.
        dual.barrier_t
    };
    let clamped = estimate.clamp(INITIAL_BARRIER, dual.barrier_t);
    let rung = ((clamped / INITIAL_BARRIER).ln() / BARRIER_GROWTH.ln()).floor();
    Some(INITIAL_BARRIER * BARRIER_GROWTH.powi(rung as i32))
}

/// Validates [`SolverOptions::initial_point`] against the log-space program:
/// right length, strictly positive and finite values, strictly feasible for
/// every constraint (box bounds included). Returns the log-space point, or
/// `None` when the hint must be ignored.
fn warm_start_point(program: &ConvexProgram, options: &SolverOptions, n: usize) -> Option<Vector> {
    let point = options.initial_point.as_ref()?;
    if point.len() != n || point.iter().any(|&x| !(x.is_finite() && x > 0.0)) {
        return None;
    }
    let y: Vector = point.iter().map(|&x| x.ln()).collect();
    program.strictly_feasible(y.as_slice()).then_some(y)
}

/// Machine-independent effort counters of one solver phase.
#[derive(Debug, Clone, Copy, Default)]
struct Effort {
    /// Newton steps.
    newton: usize,
    /// Barrier centering problems solved.
    barrier: usize,
    /// KKT factorization attempts (full refactorizations plus refreshes).
    factorizations: usize,
}

/// Phase I: minimize `s` over `(y, s)` subject to `F_i(y) ≤ s`, stopping as
/// soon as a strictly feasible `y` is found.
fn phase_one(
    program: &ConvexProgram,
    max_outer_iterations: usize,
) -> Result<(Vector, Effort), GpError> {
    let n = program.n;
    // Extended problem over (y, s): objective = s (affine), constraints
    // F_i(y) − s ≤ 0. We reuse ConvexProgram by expressing everything as
    // LogSumExp over n+1 variables, where the objective is exp(s') with
    // s' = s (a single affine term) — but s can be negative, which is exactly
    // what log-space variables allow (s here is already a log-space value).
    let ext_constraints = program
        .constraints
        .iter()
        .map(|c| {
            let mut terms = c.terms.clone();
            for (a, _) in &mut terms {
                a.push((n, -1.0));
            }
            LogSumExp::new(terms)
        })
        .collect();
    let ext = ConvexProgram {
        objective: LogSumExp::new(vec![(vec![(n, 1.0)], 0.0)]),
        constraints: ext_constraints,
        n: n + 1,
    };

    // Start at y = 0, s = max F_i(0) + 1 (strictly feasible for the extended
    // problem by construction).
    let mut y_ext = Vector::zeros(n + 1);
    let worst = program
        .constraints
        .iter()
        .map(|c| c.value(&y_ext.as_slice()[..n]))
        .fold(f64::NEG_INFINITY, f64::max);
    y_ext.set(n, worst + 1.0);

    let mut effort = Effort::default();
    let mut ws = ext.workspace()?;
    let mut t = INITIAL_BARRIER;
    let mut converged = false;
    for _ in 0..max_outer_iterations {
        effort.newton += ext.center(&mut y_ext, t, &mut ws)?;
        effort.barrier += 1;
        let y_candidate = &y_ext.as_slice()[..n];
        if program
            .constraints
            .iter()
            .all(|c| c.value(y_candidate) < -1e-9)
        {
            break;
        }
        if (ext.constraints.len() as f64) / t < TOLERANCE {
            converged = true;
            break;
        }
        t *= BARRIER_GROWTH;
    }
    effort.factorizations = ws.kkt.factorizations() + ws.kkt.refreshes();
    let y_candidate = &y_ext.as_slice()[..n];
    if program.strictly_feasible(y_candidate) {
        Ok((Vector::from(y_candidate), effort))
    } else if converged {
        // Converged without reaching negative slack: infeasible.
        Err(GpError::Infeasible)
    } else {
        // Out of outer iterations short of the gap tolerance: no verdict.
        Err(GpError::DidNotConverge {
            outer_iterations: effort.barrier,
        })
    }
}

#[cfg(test)]
mod reference;
#[cfg(test)]
mod tests;
