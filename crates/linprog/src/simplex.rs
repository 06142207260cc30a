//! Dense two-phase tableau simplex.
//!
//! The solver first rewrites the user model into standard form
//! `min cᵀx  s.t.  A x = b, x ≥ 0, b ≥ 0` by shifting/splitting bounded
//! variables and adding slack, surplus and artificial columns, then runs the
//! classic two-phase tableau method. Dantzig's rule is used for speed with a
//! switch to Bland's rule after a pivot budget to guarantee termination.
//!
//! The tableau is one row-major buffer. Each phase prices the reduced-cost
//! row in full once, then keeps it. A pivot divides the pivot row and
//! records its nonzero entries. It then updates each other row whose factor
//! passes the `EPS` test, in those columns only: where the pivot row is
//! zero, an update would subtract zero. The same columns are the only ones
//! whose reduced costs can change, so only they are repriced, each with the
//! full sum over the priced rows in ascending order. Every reduced cost thus
//! equals a full recomputation (at most the sign of a zero differs, which no
//! `EPS` test sees), and the pivot sequence is that of full repricing.

use crate::model::{LpProblem, Relation, Sense};
use crate::solution::{LpSolution, SolverStatus};
use crate::LpError;

const EPS: f64 = 1e-9;
/// Pivot budget after which the solver switches to Bland's rule.
const DANTZIG_PIVOTS: usize = 5_000;
/// Hard pivot limit, phase 1 and phase 2 combined: far above any
/// well-posed model in this workspace, so reaching it means a degenerate
/// model, and the solve stops with [`LpError::PivotBudgetExceeded`].
pub(crate) const MAX_PIVOTS: usize = 50_000;

/// How a user variable was mapped into standard-form columns.
#[derive(Debug, Clone, Copy)]
enum VarMap {
    /// `x = lower + column`, optional upper-bound row added separately.
    Shifted { col: usize, lower: f64 },
    /// `x = upper − column` (used when only an upper bound is finite).
    Reflected { col: usize, upper: f64 },
    /// `x = plus − minus` (free variable).
    Split { plus: usize, minus: usize },
}

/// A single standard-form row `Σ a_j x_j (≤,≥,=) rhs` with `rhs ≥ 0` ensured
/// later during tableau construction.
#[derive(Debug, Clone)]
struct StdRow {
    coeffs: Vec<(usize, f64)>,
    relation: Relation,
    rhs: f64,
}

/// Standard-form representation of a user problem.
#[derive(Debug)]
struct StandardForm {
    /// Number of structural (non-slack) columns.
    num_cols: usize,
    /// Objective coefficients for structural columns (minimization).
    costs: Vec<f64>,
    rows: Vec<StdRow>,
    var_map: Vec<VarMap>,
}

fn build_standard_form(problem: &LpProblem) -> StandardForm {
    let sign = match problem.sense() {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    let mut var_map = Vec::with_capacity(problem.vars.len());
    let mut costs: Vec<f64> = Vec::new();
    let mut extra_rows: Vec<StdRow> = Vec::new();

    for v in &problem.vars {
        let c = sign * v.objective;
        if v.lower.is_finite() {
            let col = costs.len();
            costs.push(c);
            var_map.push(VarMap::Shifted {
                col,
                lower: v.lower,
            });
            if v.upper.is_finite() {
                extra_rows.push(StdRow {
                    coeffs: vec![(col, 1.0)],
                    relation: Relation::LessEq,
                    rhs: v.upper - v.lower,
                });
            }
        } else if v.upper.is_finite() {
            // Only an upper bound: reflect so the new column is nonnegative.
            let col = costs.len();
            costs.push(-c);
            var_map.push(VarMap::Reflected {
                col,
                upper: v.upper,
            });
        } else {
            let plus = costs.len();
            costs.push(c);
            let minus = costs.len();
            costs.push(-c);
            var_map.push(VarMap::Split { plus, minus });
        }
    }

    let mut rows: Vec<StdRow> = Vec::with_capacity(problem.constraints.len() + extra_rows.len());
    for c in &problem.constraints {
        let mut coeffs: Vec<(usize, f64)> = Vec::with_capacity(c.terms.len() + 1);
        let mut rhs = c.rhs;
        for &(j, a) in &c.terms {
            match var_map[j] {
                VarMap::Shifted { col, lower } => {
                    rhs -= a * lower;
                    push_coeff(&mut coeffs, col, a);
                }
                VarMap::Reflected { col, upper } => {
                    rhs -= a * upper;
                    push_coeff(&mut coeffs, col, -a);
                }
                VarMap::Split { plus, minus } => {
                    push_coeff(&mut coeffs, plus, a);
                    push_coeff(&mut coeffs, minus, -a);
                }
            }
        }
        rows.push(StdRow {
            coeffs,
            relation: c.relation,
            rhs,
        });
    }
    rows.extend(extra_rows);

    StandardForm {
        num_cols: costs.len(),
        costs,
        rows,
        var_map,
    }
}

fn push_coeff(coeffs: &mut Vec<(usize, f64)>, col: usize, a: f64) {
    if a == 0.0 {
        return;
    }
    match coeffs.iter_mut().find(|(j, _)| *j == col) {
        Some((_, existing)) => *existing += a,
        None => coeffs.push((col, a)),
    }
}

/// Dense tableau with an explicit basis, held row-major in one buffer.
struct Tableau {
    /// `rows × width`, `width = total_cols + 1`; the last entry of each row
    /// is its right-hand side.
    data: Vec<f64>,
    width: usize,
    /// Basic column index per row.
    basis: Vec<usize>,
    total_cols: usize,
    /// Indices of artificial columns (never allowed to re-enter in phase 2).
    artificial: Vec<bool>,
    pivots: usize,
    /// Hard pivot budget (both phases combined).
    max_pivots: usize,
}

impl Tableau {
    fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.width..(r + 1) * self.width]
    }

    fn rhs(&self, row: usize) -> f64 {
        self.row(row)[self.total_cols]
    }

    /// Pivots on `(row, col)` and returns the pivot row's nonzero entries
    /// (right-hand side included), normalized: the only columns the pivot
    /// changed. Each other row whose factor passes the `EPS` test is updated
    /// in those columns alone, since a zero there would subtract zero.
    fn pivot(&mut self, row: usize, col: usize) -> Vec<(usize, f64)> {
        let width = self.width;
        let pivot_row = &mut self.data[row * width..(row + 1) * width];
        let pivot_val = pivot_row[col];
        let mut nonzeros = Vec::new();
        for (j, a) in pivot_row.iter_mut().enumerate() {
            let nonzero = *a != 0.0;
            *a /= pivot_val;
            if nonzero {
                nonzeros.push((j, *a));
            }
        }
        for r in (0..self.basis.len()).filter(|&r| r != row) {
            let target = &mut self.data[r * width..(r + 1) * width];
            let factor = target[col];
            if factor.abs() < EPS {
                continue;
            }
            for &(j, a) in &nonzeros {
                target[j] -= factor * a;
            }
        }
        self.basis[row] = col;
        self.pivots += 1;
        nonzeros
    }

    /// Runs the simplex iteration on the current tableau for the given cost
    /// vector (length `total_cols`). Returns `None` if the LP is unbounded.
    ///
    /// The reduced-cost row is priced in full once, then kept: a pivot
    /// changes only the columns where its pivot row is nonzero, and
    /// [`Tableau::reprice`] recomputes exactly those with the same sum.
    fn optimize(&mut self, costs: &[f64], forbid_artificial: bool) -> Result<Option<()>, LpError> {
        let mut reduced = self.price(costs);
        loop {
            #[cfg(test)]
            assert!(
                reduced == self.reduced_costs(costs),
                "maintained reduced costs differ from a full recomputation after {} pivots",
                self.pivots
            );
            if self.pivots >= self.max_pivots {
                return Err(LpError::PivotBudgetExceeded {
                    pivots: self.pivots,
                });
            }
            let use_bland = self.pivots >= DANTZIG_PIVOTS;
            let entering = self.pick_entering(&reduced, forbid_artificial, use_bland);
            let Some(col) = entering else {
                return Ok(Some(()));
            };
            // Ratio test.
            let mut best_row: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for r in 0..self.basis.len() {
                let a = self.row(r)[col];
                if a > EPS {
                    let ratio = self.rhs(r) / a;
                    let better = match best_row {
                        None => true,
                        Some(br) => {
                            ratio < best_ratio - EPS
                                || ((ratio - best_ratio).abs() <= EPS
                                    && self.basis[r] < self.basis[br])
                        }
                    };
                    if better {
                        best_ratio = ratio;
                        best_row = Some(r);
                    }
                }
            }
            let Some(row) = best_row else {
                return Ok(None); // unbounded direction
            };
            let changed = self.pivot(row, col);
            self.reprice(costs, &changed, &mut reduced);
        }
    }

    /// Rows whose basic column has a nonzero cost, ascending, with that
    /// cost: the only rows a reduced cost sums over.
    fn priced_rows(&self, costs: &[f64]) -> Vec<(usize, f64)> {
        self.basis
            .iter()
            .map(|&b| costs[b])
            .enumerate()
            .filter(|&(_, cb)| cb != 0.0)
            .collect()
    }

    /// The full reduced-cost row `reduced_j = c_j − Σ_r c_B[r]·a_rj`: with a
    /// full tableau, `B⁻¹A_j` is just the current column. Each entry sums
    /// over the priced rows in ascending order.
    fn price(&self, costs: &[f64]) -> Vec<f64> {
        let mut reduced = costs.to_vec();
        for (r, cb) in self.priced_rows(costs) {
            for (red, &a) in reduced.iter_mut().zip(self.row(r)) {
                *red -= cb * a;
            }
        }
        reduced
    }

    /// Recomputes the reduced costs of the columns a pivot `changed`, each
    /// with the same sum as [`Tableau::price`].
    fn reprice(&self, costs: &[f64], changed: &[(usize, f64)], reduced: &mut [f64]) {
        let cols = || {
            changed
                .iter()
                .map(|&(j, _)| j)
                .filter(|&j| j < self.total_cols)
        };
        for j in cols() {
            reduced[j] = costs[j];
        }
        for (r, cb) in self.priced_rows(costs) {
            let row = self.row(r);
            for j in cols() {
                reduced[j] -= cb * row[j];
            }
        }
    }

    /// The reduced-cost row recomputed column by column over every row: the
    /// reference the maintained row must equal.
    #[cfg(test)]
    fn reduced_costs(&self, costs: &[f64]) -> Vec<f64> {
        let m = self.basis.len();
        let mut reduced = vec![0.0; self.total_cols];
        for (j, red) in reduced.iter_mut().enumerate() {
            let mut acc = costs[j];
            for r in 0..m {
                let cb = costs[self.basis[r]];
                if cb != 0.0 {
                    acc -= cb * self.row(r)[j];
                }
            }
            *red = acc;
        }
        reduced
    }

    fn pick_entering(
        &self,
        reduced: &[f64],
        forbid_artificial: bool,
        use_bland: bool,
    ) -> Option<usize> {
        if use_bland {
            for (j, &rc) in reduced.iter().enumerate() {
                if forbid_artificial && self.artificial[j] {
                    continue;
                }
                if rc < -EPS {
                    return Some(j);
                }
            }
            None
        } else {
            let mut best: Option<(usize, f64)> = None;
            for (j, &rc) in reduced.iter().enumerate() {
                if forbid_artificial && self.artificial[j] {
                    continue;
                }
                if rc < -EPS {
                    match best {
                        None => best = Some((j, rc)),
                        Some((_, b)) if rc < b => best = Some((j, rc)),
                        _ => {}
                    }
                }
            }
            best.map(|(j, _)| j)
        }
    }
}

/// The row's sign flip, relation and right-hand side once the right-hand
/// side is made nonnegative.
fn orient(row: &StdRow) -> (f64, Relation, f64) {
    if row.rhs < 0.0 {
        let relation = match row.relation {
            Relation::LessEq => Relation::GreaterEq,
            Relation::GreaterEq => Relation::LessEq,
            Relation::Equal => Relation::Equal,
        };
        (-1.0, relation, -row.rhs)
    } else {
        (1.0, row.relation, row.rhs)
    }
}

/// Solves the problem within `max_pivots` pivots; [`LpProblem::solve`]
/// passes [`MAX_PIVOTS`].
pub(crate) fn solve(problem: &LpProblem, max_pivots: usize) -> Result<LpSolution, LpError> {
    let std_form = build_standard_form(problem);
    let n = std_form.num_cols;
    let m = std_form.rows.len();

    if m == 0 {
        return solve_unconstrained(problem, &std_form);
    }

    // Column layout: [structural | slack/surplus | artificial]. Every row
    // but an equality gets a slack or surplus column; every `≥` or `=` row
    // (after orientation) gets an artificial one.
    let oriented: Vec<(f64, Relation, f64)> = std_form.rows.iter().map(orient).collect();
    let num_slack = oriented
        .iter()
        .filter(|&&(_, relation, _)| relation != Relation::Equal)
        .count();
    let num_artificial = oriented
        .iter()
        .filter(|&&(_, relation, _)| relation != Relation::LessEq)
        .count();
    let total_cols = n + num_slack + num_artificial;
    let width = total_cols + 1;

    let mut data = vec![0.0; m * width];
    let mut basis: Vec<usize> = vec![usize::MAX; m];
    let mut artificial_flags = vec![false; total_cols];
    let mut next_slack = n;
    let mut next_artificial = n + num_slack;

    for (r, (row, &(sign, relation, rhs))) in std_form.rows.iter().zip(&oriented).enumerate() {
        let dense = &mut data[r * width..(r + 1) * width];
        for &(j, a) in &row.coeffs {
            dense[j] += sign * a;
        }
        dense[total_cols] = rhs;
        match relation {
            Relation::LessEq => {
                let s = next_slack;
                next_slack += 1;
                dense[s] = 1.0;
                basis[r] = s;
            }
            Relation::GreaterEq => {
                let s = next_slack;
                next_slack += 1;
                dense[s] = -1.0;
                let a = next_artificial;
                next_artificial += 1;
                dense[a] = 1.0;
                artificial_flags[a] = true;
                basis[r] = a;
            }
            Relation::Equal => {
                let a = next_artificial;
                next_artificial += 1;
                dense[a] = 1.0;
                artificial_flags[a] = true;
                basis[r] = a;
            }
        }
    }

    let mut tableau = Tableau {
        data,
        width,
        basis,
        total_cols,
        artificial: artificial_flags,
        pivots: 0,
        max_pivots,
    };

    // Phase 1: minimize the sum of artificial variables.
    if num_artificial > 0 {
        let mut phase1_costs = vec![0.0; total_cols];
        for (j, flag) in tableau.artificial.iter().enumerate() {
            if *flag {
                phase1_costs[j] = 1.0;
            }
        }
        let outcome = tableau.optimize(&phase1_costs, false)?;
        if outcome.is_none() {
            // Phase 1 objective is bounded below by zero, so this cannot
            // happen; treat defensively as infeasible.
            return Ok(LpSolution::new(
                SolverStatus::Infeasible,
                0.0,
                vec![0.0; problem.num_vars()],
                tableau.pivots,
            ));
        }
        let phase1_value: f64 = (0..m)
            .map(|r| {
                if tableau.artificial[tableau.basis[r]] {
                    tableau.rhs(r)
                } else {
                    0.0
                }
            })
            .sum();
        if phase1_value > 1e-7 {
            return Ok(LpSolution::new(
                SolverStatus::Infeasible,
                0.0,
                vec![0.0; problem.num_vars()],
                tableau.pivots,
            ));
        }
        // Drive remaining artificial variables out of the basis when possible.
        for r in 0..m {
            if tableau.artificial[tableau.basis[r]] {
                let col = (0..n + num_slack)
                    .find(|&j| tableau.row(r)[j].abs() > 1e-7 && !tableau.artificial[j]);
                if let Some(col) = col {
                    tableau.pivot(r, col);
                }
                // If no pivot column exists the row is redundant; the
                // artificial stays basic at value ~0, which is harmless.
            }
        }
    }

    // Phase 2: original (minimization) costs on structural columns.
    let mut phase2_costs = vec![0.0; total_cols];
    phase2_costs[..n].copy_from_slice(&std_form.costs);
    let outcome = tableau.optimize(&phase2_costs, true)?;
    if outcome.is_none() {
        return Ok(LpSolution::new(
            SolverStatus::Unbounded,
            0.0,
            vec![0.0; problem.num_vars()],
            tableau.pivots,
        ));
    }

    // Read structural column values from the basis.
    let mut col_values = vec![0.0; total_cols];
    for r in 0..m {
        col_values[tableau.basis[r]] = tableau.rhs(r);
    }
    let mut user_values = vec![0.0; problem.num_vars()];
    for (i, vm) in std_form.var_map.iter().enumerate() {
        user_values[i] = match *vm {
            VarMap::Shifted { col, lower } => lower + col_values[col],
            VarMap::Reflected { col, upper } => upper - col_values[col],
            VarMap::Split { plus, minus } => col_values[plus] - col_values[minus],
        };
    }
    let objective = problem
        .objective_value(&user_values)
        .expect("solver produced values for every variable");
    Ok(LpSolution::new(
        SolverStatus::Optimal,
        objective,
        user_values,
        tableau.pivots,
    ))
}

/// Handles the degenerate case of a problem with no constraint rows: each
/// variable independently moves to whichever bound its cost prefers.
fn solve_unconstrained(
    problem: &LpProblem,
    std_form: &StandardForm,
) -> Result<LpSolution, LpError> {
    let _ = std_form;
    let sign = match problem.sense() {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    let mut values = vec![0.0; problem.num_vars()];
    for (i, v) in problem.vars.iter().enumerate() {
        let c = sign * v.objective;
        let target = if c > 0.0 {
            v.lower
        } else if c < 0.0 {
            v.upper
        } else if v.lower.is_finite() {
            v.lower
        } else if v.upper.is_finite() {
            v.upper
        } else {
            0.0
        };
        if !target.is_finite() && c != 0.0 {
            return Ok(LpSolution::new(
                SolverStatus::Unbounded,
                0.0,
                vec![0.0; problem.num_vars()],
                0,
            ));
        }
        values[i] = if target.is_finite() { target } else { 0.0 };
    }
    let objective = problem.objective_value(&values)?;
    Ok(LpSolution::new(SolverStatus::Optimal, objective, values, 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LpProblem, Relation, Sense, VarId};

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "expected {b}, got {a}");
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 0.0, f64::INFINITY).unwrap();
        let y = lp.add_var("y", 0.0, f64::INFINITY).unwrap();
        lp.set_objective_coefficient(x, 3.0).unwrap();
        lp.set_objective_coefficient(y, 5.0).unwrap();
        lp.add_constraint("c1", &[(x, 1.0)], Relation::LessEq, 4.0)
            .unwrap();
        lp.add_constraint("c2", &[(y, 2.0)], Relation::LessEq, 12.0)
            .unwrap();
        lp.add_constraint("c3", &[(x, 3.0), (y, 2.0)], Relation::LessEq, 18.0)
            .unwrap();
        let s = lp.solve().unwrap();
        assert!(s.is_optimal());
        assert_close(s.objective(), 36.0, 1e-8);
        assert_close(s.value(x), 2.0, 1e-8);
        assert_close(s.value(y), 6.0, 1e-8);
    }

    #[test]
    fn minimization_with_geq_rows_needs_phase_one() {
        // min 2x + 3y s.t. x + y >= 4, x + 3y >= 6, x,y >= 0 — optimum at (3,1): 9.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x", 0.0, f64::INFINITY).unwrap();
        let y = lp.add_var("y", 0.0, f64::INFINITY).unwrap();
        lp.set_objective_coefficient(x, 2.0).unwrap();
        lp.set_objective_coefficient(y, 3.0).unwrap();
        lp.add_constraint("c1", &[(x, 1.0), (y, 1.0)], Relation::GreaterEq, 4.0)
            .unwrap();
        lp.add_constraint("c2", &[(x, 1.0), (y, 3.0)], Relation::GreaterEq, 6.0)
            .unwrap();
        let s = lp.solve().unwrap();
        assert!(s.is_optimal());
        assert_close(s.objective(), 9.0, 1e-8);
        assert_close(s.value(x), 3.0, 1e-8);
        assert_close(s.value(y), 1.0, 1e-8);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + y = 10, x - y = 2 → x=6, y=4, obj 10.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x", 0.0, f64::INFINITY).unwrap();
        let y = lp.add_var("y", 0.0, f64::INFINITY).unwrap();
        lp.set_objective_coefficient(x, 1.0).unwrap();
        lp.set_objective_coefficient(y, 1.0).unwrap();
        lp.add_constraint("sum", &[(x, 1.0), (y, 1.0)], Relation::Equal, 10.0)
            .unwrap();
        lp.add_constraint("diff", &[(x, 1.0), (y, -1.0)], Relation::Equal, 2.0)
            .unwrap();
        let s = lp.solve().unwrap();
        assert!(s.is_optimal());
        assert_close(s.value(x), 6.0, 1e-8);
        assert_close(s.value(y), 4.0, 1e-8);
    }

    #[test]
    fn detects_infeasible() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x", 0.0, f64::INFINITY).unwrap();
        lp.set_objective_coefficient(x, 1.0).unwrap();
        lp.add_constraint("lo", &[(x, 1.0)], Relation::GreaterEq, 5.0)
            .unwrap();
        lp.add_constraint("hi", &[(x, 1.0)], Relation::LessEq, 3.0)
            .unwrap();
        let s = lp.solve().unwrap();
        assert_eq!(s.status(), SolverStatus::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 0.0, f64::INFINITY).unwrap();
        let y = lp.add_var("y", 0.0, f64::INFINITY).unwrap();
        lp.set_objective_coefficient(x, 1.0).unwrap();
        lp.set_objective_coefficient(y, 1.0).unwrap();
        lp.add_constraint("c", &[(x, 1.0), (y, -1.0)], Relation::LessEq, 1.0)
            .unwrap();
        let s = lp.solve().unwrap();
        assert_eq!(s.status(), SolverStatus::Unbounded);
    }

    #[test]
    fn respects_variable_upper_bounds() {
        // max x + y with x,y in [0, 2] and x + y <= 3.5 → 3.5.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 0.0, 2.0).unwrap();
        let y = lp.add_var("y", 0.0, 2.0).unwrap();
        lp.set_objective_coefficient(x, 1.0).unwrap();
        lp.set_objective_coefficient(y, 1.0).unwrap();
        lp.add_constraint("cap", &[(x, 1.0), (y, 1.0)], Relation::LessEq, 3.5)
            .unwrap();
        let s = lp.solve().unwrap();
        assert!(s.is_optimal());
        assert_close(s.objective(), 3.5, 1e-8);
        assert!(s.value(x) <= 2.0 + 1e-9);
        assert!(s.value(y) <= 2.0 + 1e-9);
    }

    #[test]
    fn handles_nonzero_lower_bounds() {
        // min x + y with x >= 2, y >= 3, x + y >= 7 → 7.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x", 2.0, f64::INFINITY).unwrap();
        let y = lp.add_var("y", 3.0, f64::INFINITY).unwrap();
        lp.set_objective_coefficient(x, 1.0).unwrap();
        lp.set_objective_coefficient(y, 1.0).unwrap();
        lp.add_constraint("c", &[(x, 1.0), (y, 1.0)], Relation::GreaterEq, 7.0)
            .unwrap();
        let s = lp.solve().unwrap();
        assert!(s.is_optimal());
        assert_close(s.objective(), 7.0, 1e-8);
        assert!(s.value(x) >= 2.0 - 1e-9);
        assert!(s.value(y) >= 3.0 - 1e-9);
    }

    #[test]
    fn handles_free_variables() {
        // min |style| problem: min x s.t. x >= -5 as a free var with a >= row.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x", f64::NEG_INFINITY, f64::INFINITY).unwrap();
        lp.set_objective_coefficient(x, 1.0).unwrap();
        lp.add_constraint("c", &[(x, 1.0)], Relation::GreaterEq, -5.0)
            .unwrap();
        let s = lp.solve().unwrap();
        assert!(s.is_optimal());
        assert_close(s.value(x), -5.0, 1e-8);
    }

    #[test]
    fn handles_upper_bounded_only_variable() {
        // max x with x <= 7 (no lower bound) → 7.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", f64::NEG_INFINITY, 7.0).unwrap();
        lp.set_objective_coefficient(x, 1.0).unwrap();
        lp.add_constraint("c", &[(x, 1.0)], Relation::LessEq, 100.0)
            .unwrap();
        let s = lp.solve().unwrap();
        assert!(s.is_optimal());
        assert_close(s.value(x), 7.0, 1e-8);
    }

    #[test]
    fn no_constraints_moves_to_bounds() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x", 1.0, 4.0).unwrap();
        let y = lp.add_var("y", -2.0, 2.0).unwrap();
        lp.set_objective_coefficient(x, 1.0).unwrap();
        lp.set_objective_coefficient(y, -1.0).unwrap();
        let s = lp.solve().unwrap();
        assert!(s.is_optimal());
        assert_close(s.value(x), 1.0, 1e-12);
        assert_close(s.value(y), 2.0, 1e-12);
    }

    #[test]
    fn negative_rhs_rows_are_normalized() {
        // min x s.t. -x <= -3  (i.e. x >= 3).
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x", 0.0, f64::INFINITY).unwrap();
        lp.set_objective_coefficient(x, 1.0).unwrap();
        lp.add_constraint("c", &[(x, -1.0)], Relation::LessEq, -3.0)
            .unwrap();
        let s = lp.solve().unwrap();
        assert!(s.is_optimal());
        assert_close(s.value(x), 3.0, 1e-8);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // A classically degenerate LP; checks anti-cycling protection.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x1 = lp.add_var("x1", 0.0, f64::INFINITY).unwrap();
        let x2 = lp.add_var("x2", 0.0, f64::INFINITY).unwrap();
        let x3 = lp.add_var("x3", 0.0, f64::INFINITY).unwrap();
        let x4 = lp.add_var("x4", 0.0, f64::INFINITY).unwrap();
        lp.set_objective_coefficient(x1, -0.75).unwrap();
        lp.set_objective_coefficient(x2, 150.0).unwrap();
        lp.set_objective_coefficient(x3, -0.02).unwrap();
        lp.set_objective_coefficient(x4, 6.0).unwrap();
        lp.add_constraint(
            "r1",
            &[(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
            Relation::LessEq,
            0.0,
        )
        .unwrap();
        lp.add_constraint(
            "r2",
            &[(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
            Relation::LessEq,
            0.0,
        )
        .unwrap();
        lp.add_constraint("r3", &[(x3, 1.0)], Relation::LessEq, 1.0)
            .unwrap();
        // Dantzig's rule cycles here until the switch to Bland's rule after
        // 5 000 pivots; Bland's rule then finishes in four.
        let s = solve_pinned(&lp, 5_004);
        assert!(s.is_optimal());
        assert_close(s.objective(), -0.05, 1e-6);
    }

    /// Solves `lp` and checks its pivot count against the one recorded for
    /// it, so a change that alters the pivot sequence shows up here.
    fn solve_pinned(lp: &LpProblem, pivots: usize) -> LpSolution {
        let s = lp.solve().unwrap();
        assert_eq!(s.pivots(), pivots, "pivot count");
        s
    }

    /// The Klee–Minty cube `max Σ 2^(n−j) x_j` s.t.
    /// `Σ_{j<i} 2^(i−j+1) x_j + x_i ≤ 5^i`: Dantzig's rule visits all `2^n`
    /// vertices before it reaches the optimum `x_n = 5^n`.
    #[test]
    fn klee_minty_cubes_take_exponentially_many_pivots() {
        for (n, pivots) in [(3, 7), (4, 15), (5, 31), (6, 63)] {
            let mut lp = LpProblem::new(Sense::Maximize);
            let x: Vec<VarId> = (0..n)
                .map(|j| lp.add_var(format!("x{j}"), 0.0, f64::INFINITY).unwrap())
                .collect();
            for (j, &v) in x.iter().enumerate() {
                lp.set_objective_coefficient(v, 2f64.powi((n - 1 - j) as i32))
                    .unwrap();
            }
            for i in 0..n {
                let mut terms: Vec<(VarId, f64)> = (0..i)
                    .map(|j| (x[j], 2f64.powi((i - j + 1) as i32)))
                    .collect();
                terms.push((x[i], 1.0));
                lp.add_constraint(
                    format!("r{i}"),
                    &terms,
                    Relation::LessEq,
                    5f64.powi(i as i32 + 1),
                )
                .unwrap();
            }
            let s = solve_pinned(&lp, pivots);
            assert!(s.is_optimal());
            assert_close(s.objective(), 5f64.powi(n as i32), 1e-6);
            assert_close(s.value(x[n - 1]), 5f64.powi(n as i32), 1e-6);
        }
    }

    /// One LP with rows scaled by 1e-6 … 1e6 solves to the optimum of the
    /// unscaled LP.
    #[test]
    fn badly_scaled_rows_keep_the_optimum() {
        let rows: [(&[f64], Relation, f64); 5] = [
            (&[1.0, 1.0, 2.0], Relation::LessEq, 4.0),
            (&[2.0, 0.0, 1.0], Relation::LessEq, 5.0),
            (&[1.0, 3.0, 0.0], Relation::GreaterEq, 1.0),
            (&[3.0, 1.0, 1.0], Relation::LessEq, 7.0),
            (&[0.0, 1.0, 1.0], Relation::LessEq, 3.0),
        ];
        let build = |scales: [f64; 5]| {
            let mut lp = LpProblem::new(Sense::Maximize);
            let x: Vec<VarId> = (0..3)
                .map(|j| lp.add_var(format!("x{j}"), 0.0, f64::INFINITY).unwrap())
                .collect();
            for (&v, c) in x.iter().zip([3.0, 2.0, 4.0]) {
                lp.set_objective_coefficient(v, c).unwrap();
            }
            for (i, ((coeffs, relation, rhs), scale)) in rows.iter().zip(scales).enumerate() {
                let terms: Vec<(VarId, f64)> = x
                    .iter()
                    .zip(*coeffs)
                    .map(|(&v, &a)| (v, a * scale))
                    .collect();
                lp.add_constraint(format!("r{i}"), &terms, *relation, rhs * scale)
                    .unwrap();
            }
            lp
        };
        let plain = solve_pinned(&build([1.0; 5]), 5);
        let scaled_lp = build([1e-6, 1e-3, 1.0, 1e3, 1e6]);
        let scaled = solve_pinned(&scaled_lp, 5);
        assert!(plain.is_optimal() && scaled.is_optimal());
        assert_close(scaled.objective(), plain.objective(), 1e-9);
        for (a, b) in scaled.values().iter().zip(plain.values()) {
            assert_close(*a, *b, 1e-9);
        }
        assert!(scaled_lp.is_feasible(scaled.values(), 1e-6).unwrap());
    }

    /// A redundant equality (twice another row) leaves an artificial basic
    /// at zero after phase 1 with no column to drive it out on; phase 2
    /// must still reach the optimum with that artificial barred from
    /// re-entering.
    #[test]
    fn redundant_equalities_keep_an_artificial_basic() {
        // min x + 2y + 3z s.t. x + y + z = 6, 2x + 2y + 2z = 12, x − y = 1:
        // z = 5 − 2y, objective 16 − 3y, optimum y = 2.5 → 8.5.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x", 0.0, f64::INFINITY).unwrap();
        let y = lp.add_var("y", 0.0, f64::INFINITY).unwrap();
        let z = lp.add_var("z", 0.0, f64::INFINITY).unwrap();
        for (v, c) in [(x, 1.0), (y, 2.0), (z, 3.0)] {
            lp.set_objective_coefficient(v, c).unwrap();
        }
        lp.add_constraint("sum", &[(x, 1.0), (y, 1.0), (z, 1.0)], Relation::Equal, 6.0)
            .unwrap();
        lp.add_constraint(
            "twice",
            &[(x, 2.0), (y, 2.0), (z, 2.0)],
            Relation::Equal,
            12.0,
        )
        .unwrap();
        lp.add_constraint("diff", &[(x, 1.0), (y, -1.0)], Relation::Equal, 1.0)
            .unwrap();
        let s = solve_pinned(&lp, 2);
        assert!(s.is_optimal());
        assert_close(s.objective(), 8.5, 1e-9);
        assert_close(s.value(x), 3.5, 1e-9);
        assert_close(s.value(y), 2.5, 1e-9);
        assert_close(s.value(z), 0.0, 1e-9);
    }

    /// Every row is satisfiable alone, so phase 1 has to pivot before its
    /// positive optimum proves the LP infeasible.
    #[test]
    fn detects_infeasibility_after_phase_one_pivots() {
        // x = 1 + y; x + 2y ≤ 4 ⇒ y ≤ 1; x + y ≥ 6 ⇒ y ≥ 2.5.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x", 0.0, f64::INFINITY).unwrap();
        let y = lp.add_var("y", 0.0, f64::INFINITY).unwrap();
        lp.set_objective_coefficient(x, 1.0).unwrap();
        lp.set_objective_coefficient(y, 1.0).unwrap();
        lp.add_constraint("lo", &[(x, 1.0), (y, 1.0)], Relation::GreaterEq, 6.0)
            .unwrap();
        lp.add_constraint("hi", &[(x, 1.0), (y, 2.0)], Relation::LessEq, 4.0)
            .unwrap();
        lp.add_constraint("tie", &[(x, 1.0), (y, -1.0)], Relation::Equal, 1.0)
            .unwrap();
        let s = solve_pinned(&lp, 2);
        assert_eq!(s.status(), SolverStatus::Infeasible);
    }

    /// The shape of a branch-and-bound node relaxation: free auxiliary
    /// columns held up by many tangent (`≥`) rows, latency rows tying them
    /// to the objective column and one shared budget row.
    #[test]
    fn relaxation_shaped_lp_with_many_geq_rows_on_free_columns() {
        // min II s.t. II ≥ aux_k ≥ tangents of w_k/N_k at N = 1..=8,
        // Σ 0.09·N_k ≤ 1, N_k ∈ [1, 20]. The tangents underestimate w/N,
        // so the optimum is at most the continuous 0.09·Σw = 6.48.
        let wcets = [7.0, 9.5, 11.0, 13.5, 14.0, 17.0];
        let mut lp = LpProblem::new(Sense::Minimize);
        let ii = lp.add_var("II", 0.0, 1000.0).unwrap();
        lp.set_objective_coefficient(ii, 1.0).unwrap();
        let mut budget = Vec::new();
        for (k, w) in wcets.into_iter().enumerate() {
            let n = lp.add_var(format!("N{k}"), 1.0, 20.0).unwrap();
            let aux = lp
                .add_var(format!("aux{k}"), f64::NEG_INFINITY, f64::INFINITY)
                .unwrap();
            for p in 1..=8 {
                // aux ≥ w/p − (w/p²)(N − p).
                let p = f64::from(p);
                lp.add_constraint(
                    format!("tangent{k}_{p}"),
                    &[(aux, 1.0), (n, w / (p * p))],
                    Relation::GreaterEq,
                    2.0 * w / p,
                )
                .unwrap();
            }
            lp.add_constraint(
                format!("latency{k}"),
                &[(aux, 1.0), (ii, -1.0)],
                Relation::LessEq,
                0.0,
            )
            .unwrap();
            budget.push((n, 0.09));
        }
        lp.add_constraint("budget", &budget, Relation::LessEq, 1.0)
            .unwrap();
        let s = solve_pinned(&lp, 63);
        assert!(s.is_optimal());
        assert!(lp.is_feasible(s.values(), 1e-7).unwrap());
        assert!(
            s.objective() > 6.0 && s.objective() <= 6.48 + 1e-9,
            "II = {}",
            s.objective()
        );
    }

    #[test]
    fn pivot_budget_stops_the_solve_with_a_structured_error() {
        // The textbook maximization needs a handful of pivots; a budget of
        // one cannot finish and must surface as PivotBudgetExceeded.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 0.0, f64::INFINITY).unwrap();
        let y = lp.add_var("y", 0.0, f64::INFINITY).unwrap();
        lp.set_objective_coefficient(x, 3.0).unwrap();
        lp.set_objective_coefficient(y, 5.0).unwrap();
        lp.add_constraint("c1", &[(x, 1.0)], Relation::LessEq, 4.0)
            .unwrap();
        lp.add_constraint("c2", &[(y, 2.0)], Relation::LessEq, 12.0)
            .unwrap();
        lp.add_constraint("c3", &[(x, 3.0), (y, 2.0)], Relation::LessEq, 18.0)
            .unwrap();
        let err = solve(&lp, 1).unwrap_err();
        assert!(
            matches!(err, LpError::PivotBudgetExceeded { pivots: 1 }),
            "expected PivotBudgetExceeded, got {err}"
        );
        // A sufficient budget solves identically to the default path and
        // reports its pivot count.
        let s = lp.solve().unwrap();
        assert!(s.is_optimal());
        assert_close(s.objective(), 36.0, 1e-8);
        assert!(s.pivots() > 1);
        assert_eq!(s.pivots(), s.iterations());
    }

    #[test]
    fn solution_satisfies_original_model() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 0.0, 10.0).unwrap();
        let y = lp.add_var("y", 1.0, 8.0).unwrap();
        let z = lp.add_var("z", 0.0, f64::INFINITY).unwrap();
        lp.set_objective_coefficient(x, 1.0).unwrap();
        lp.set_objective_coefficient(y, 2.0).unwrap();
        lp.set_objective_coefficient(z, 1.5).unwrap();
        lp.add_constraint("a", &[(x, 1.0), (y, 1.0), (z, 1.0)], Relation::LessEq, 12.0)
            .unwrap();
        lp.add_constraint("b", &[(x, 2.0), (z, 1.0)], Relation::LessEq, 9.0)
            .unwrap();
        lp.add_constraint("c", &[(y, 1.0), (z, -1.0)], Relation::GreaterEq, 0.5)
            .unwrap();
        let s = lp.solve().unwrap();
        assert!(s.is_optimal());
        assert!(lp.is_feasible(s.values(), 1e-6).unwrap());
    }
}
