//! Best-first branch-and-bound over the integer variables.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

use mfa_linprog::{LpError, LpProblem, LpSolution, SolverStatus};

use crate::model::{MinlpProblem, Relation};
use crate::relax::{self, CutPool};
use crate::solution::{MinlpSolution, MinlpStatus};
use crate::MinlpError;

/// Options controlling the branch-and-bound search.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverOptions {
    /// Maximum number of branch-and-bound nodes to explore.
    pub max_nodes: usize,
    /// Wall-clock budget in seconds (`None` for unlimited).
    pub time_limit_seconds: Option<f64>,
    /// Tolerance within which a value counts as integral.
    pub integer_tolerance: f64,
    /// Tolerance used when checking true (nonlinear) feasibility.
    pub feasibility_tolerance: f64,
    /// Absolute optimality gap at which the search stops.
    pub absolute_gap: f64,
    /// Relative optimality gap at which the search stops.
    pub relative_gap: f64,
    /// Maximum outer-approximation cut rounds per node.
    pub cut_rounds: usize,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            max_nodes: 200_000,
            time_limit_seconds: None,
            integer_tolerance: 1e-6,
            feasibility_tolerance: 1e-6,
            absolute_gap: 1e-7,
            relative_gap: 1e-6,
            cut_rounds: 6,
        }
    }
}

impl SolverOptions {
    /// Convenience constructor for a budgeted solve (node and time limit),
    /// used by design-space exploration loops that prefer a good incumbent
    /// quickly over a proof of optimality.
    pub fn with_budget(max_nodes: usize, time_limit_seconds: f64) -> Self {
        SolverOptions {
            max_nodes,
            time_limit_seconds: Some(time_limit_seconds),
            ..SolverOptions::default()
        }
    }
}

/// A branch-and-bound node: variable bounds plus the parent's lower bound.
#[derive(Debug, Clone)]
struct Node {
    bounds: Vec<(f64, f64)>,
    lower_bound: f64,
    depth: usize,
}

/// Heap ordering: smallest lower bound first (best-first search).
struct OrderedNode(Node);

impl PartialEq for OrderedNode {
    fn eq(&self, other: &Self) -> bool {
        self.0.lower_bound == other.0.lower_bound
    }
}
impl Eq for OrderedNode {}
impl PartialOrd for OrderedNode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrderedNode {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the smallest bound pops first.
        other
            .0
            .lower_bound
            .partial_cmp(&self.0.lower_bound)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.0.depth.cmp(&self.0.depth))
    }
}

struct SearchState {
    incumbent: Option<Vec<f64>>,
    incumbent_objective: f64,
    nodes_explored: usize,
    lp_solves: usize,
    simplex_pivots: usize,
    /// Smallest lower bound of a node left open because one of its LPs ran
    /// out of pivots.
    unresolved_bound: Option<f64>,
}

impl SearchState {
    /// Leaves a node with lower bound `bound` open: the search goes on, but
    /// can no longer prove optimality below `bound`.
    fn leave_open(&mut self, bound: f64) {
        self.unresolved_bound = Some(self.unresolved_bound.map_or(bound, |b| b.min(bound)));
    }
}

/// Result of processing one node's LP (with cut rounds).
enum NodeLp {
    Infeasible,
    /// An LP ran out of pivots before the node was resolved.
    OutOfPivots,
    Solved {
        bound: f64,
        values: Vec<f64>,
    },
}

/// Solves the problem; entry point used by [`MinlpProblem::solve_with`].
pub(crate) fn solve(
    problem: &MinlpProblem,
    options: &SolverOptions,
) -> Result<MinlpSolution, MinlpError> {
    let start = Instant::now();
    let root_bounds: Vec<(f64, f64)> = problem
        .vars
        .iter()
        .map(|v| {
            if v.integer {
                (v.lower.ceil(), v.upper.floor())
            } else {
                (v.lower, v.upper)
            }
        })
        .collect();
    if root_bounds.iter().any(|&(l, u)| l > u) {
        return Ok(MinlpSolution::new(
            MinlpStatus::Infeasible,
            0.0,
            0.0,
            vec![0.0; problem.num_vars()],
            0,
            0,
            0,
        ));
    }

    let mut state = SearchState {
        incumbent: None,
        incumbent_objective: f64::INFINITY,
        nodes_explored: 0,
        lp_solves: 0,
        simplex_pivots: 0,
        unresolved_bound: None,
    };
    // Warm start: a feasible (after integer rounding) seed becomes the
    // incumbent before the first node, so bound pruning is active from node
    // 0. An infeasible seed is ignored — seeding can only shrink the tree,
    // never change the optimum.
    let mut seeded = false;
    if let Some(seed) = &problem.initial_incumbent {
        let rounded = round_integers(problem, seed);
        if problem.is_feasible(&rounded, options.feasibility_tolerance)? {
            state.incumbent_objective = problem.objective_value(&rounded)?;
            state.incumbent = Some(rounded);
            seeded = true;
        }
    }
    let mut heap = BinaryHeap::new();
    heap.push(OrderedNode(Node {
        bounds: root_bounds,
        lower_bound: f64::NEG_INFINITY,
        depth: 0,
    }));
    // Set when a node or time limit stops the search: the bound of the node
    // popped then, which is dropped unexplored and so stays open.
    let mut dropped_bound: Option<f64> = None;

    while let Some(OrderedNode(node)) = heap.pop() {
        // Global stopping tests.
        let out_of_time = options
            .time_limit_seconds
            .is_some_and(|limit| start.elapsed().as_secs_f64() > limit);
        if state.nodes_explored >= options.max_nodes || out_of_time {
            dropped_bound = Some(node.lower_bound);
            break;
        }
        // Best-first: if the best remaining node cannot improve on the
        // incumbent, the incumbent is optimal.
        if node.lower_bound >= state.incumbent_objective - gap_threshold(&state, options) {
            break;
        }
        state.nodes_explored += 1;

        let lp_outcome = solve_node_lp(problem, &node.bounds, options, &mut state)?;
        let (bound, values) = match lp_outcome {
            NodeLp::Infeasible => continue,
            NodeLp::OutOfPivots => {
                state.leave_open(node.lower_bound);
                continue;
            }
            NodeLp::Solved { bound, values } => (bound, values),
        };
        if bound >= state.incumbent_objective - gap_threshold(&state, options) {
            continue; // pruned by bound
        }

        // Branching variable: most fractional integer variable.
        let fractional = most_fractional(problem, &values, options.integer_tolerance);

        // Rounding heuristic: periodically try to turn the (possibly
        // fractional) LP point into a feasible incumbent so that budgeted
        // solves always have something to report.
        if fractional.is_some() && (state.incumbent.is_none() || node.depth % 8 == 0) {
            let rounded = round_integers(problem, &values);
            improve_incumbent(problem, &rounded, bound, options, &mut state)?;
        }

        if let Some((var_idx, value)) = fractional {
            let (lo, hi) = node.bounds[var_idx];
            let mut left = node.bounds.clone();
            left[var_idx] = (lo, value.floor());
            let mut right = node.bounds.clone();
            right[var_idx] = (value.floor() + 1.0, hi);
            for child in [left, right] {
                if child[var_idx].0 <= child[var_idx].1 {
                    heap.push(OrderedNode(Node {
                        bounds: child,
                        lower_bound: bound,
                        depth: node.depth + 1,
                    }));
                }
            }
            continue;
        }

        // All integer variables integral: try to turn the point into a true
        // incumbent by re-solving with the integers fixed (which makes every
        // estimator of an integer-argument term exact).
        let rounded = round_integers(problem, &values);
        improve_incumbent(problem, &rounded, bound, options, &mut state)?;
        // Even after an incumbent update the node's relaxation may still be
        // below the true value of any integer point in the node (concave
        // estimator gap); branch spatially on a variable of a violated
        // nonlinear constraint to shrink that gap unless the node is closed.
        if bound >= state.incumbent_objective - gap_threshold(&state, options) {
            continue;
        }
        if let Some(var_idx) = spatial_branch_variable(problem, &node.bounds, &rounded) {
            let (lo, hi) = node.bounds[var_idx];
            let mid = ((lo + hi) / 2.0).floor();
            let mut left = node.bounds.clone();
            left[var_idx] = (lo, mid);
            let mut right = node.bounds.clone();
            right[var_idx] = (mid + 1.0, hi);
            for child in [left, right] {
                if child[var_idx].0 <= child[var_idx].1 {
                    heap.push(OrderedNode(Node {
                        bounds: child,
                        lower_bound: bound,
                        depth: node.depth + 1,
                    }));
                }
            }
        }
        // If no spatial branching variable exists the relaxation gap cannot be
        // reduced further in this node; accept the incumbent candidate as the
        // node's resolution (the bound stays as a valid global lower bound).
    }

    // A search stopped by a limit proves nothing: the dropped node and every
    // queued one are open, and their parents' bounds are valid lower bounds
    // for them. So is a node whose LP ran out of pivots.
    let mut open_bound = state.unresolved_bound;
    if let Some(dropped) = dropped_bound {
        let queued = heap.iter().fold(dropped, |bound, OrderedNode(node)| {
            bound.min(node.lower_bound)
        });
        open_bound = Some(open_bound.map_or(queued, |b| b.min(queued)));
    }
    match state.incumbent {
        Some(values) => {
            let (status, best_bound) = match open_bound {
                Some(open) => (MinlpStatus::Feasible, open.min(state.incumbent_objective)),
                None => (MinlpStatus::Optimal, state.incumbent_objective),
            };
            let solution = MinlpSolution::new(
                status,
                state.incumbent_objective,
                best_bound,
                values,
                state.nodes_explored,
                state.lp_solves,
                state.simplex_pivots,
            );
            Ok(if seeded {
                solution.mark_warm_started()
            } else {
                solution
            })
        }
        None if open_bound.is_some() => Err(MinlpError::NodeLimitWithoutSolution {
            nodes: state.nodes_explored,
        }),
        None => Ok(MinlpSolution::new(
            MinlpStatus::Infeasible,
            0.0,
            0.0,
            vec![0.0; problem.num_vars()],
            state.nodes_explored,
            state.lp_solves,
            state.simplex_pivots,
        )),
    }
}

fn gap_threshold(state: &SearchState, options: &SolverOptions) -> f64 {
    options
        .absolute_gap
        .max(options.relative_gap * state.incumbent_objective.abs().min(f64::MAX))
}

/// Solves the node LP with up to `cut_rounds` outer-approximation rounds.
fn solve_node_lp(
    problem: &MinlpProblem,
    bounds: &[(f64, f64)],
    options: &SolverOptions,
    state: &mut SearchState,
) -> Result<NodeLp, MinlpError> {
    let mut cuts = CutPool::default();
    let mut last: Option<(f64, Vec<f64>)> = None;
    for round in 0..options.cut_rounds.max(1) {
        let relaxation = relax::build(problem, bounds, &cuts)?;
        let Some(lp_solution) = solve_lp(&relaxation.lp, state)? else {
            return Ok(NodeLp::OutOfPivots);
        };
        match lp_solution.status() {
            SolverStatus::Infeasible => return Ok(NodeLp::Infeasible),
            SolverStatus::Unbounded => {
                // A relaxation of a bounded MINLP can only be unbounded if the
                // user model itself is; propagate a conservative -inf bound.
                return Ok(NodeLp::Solved {
                    bound: f64::NEG_INFINITY,
                    values: bounds.iter().map(|&(l, _)| l).collect(),
                });
            }
            SolverStatus::Optimal => {}
        }
        let values: Vec<f64> = relaxation
            .var_ids
            .iter()
            .map(|&id| lp_solution.value(id))
            .collect();
        let bound = lp_solution.objective();
        // Outer approximation: add tangent cuts where the aux variable
        // underestimates a convex term (or overestimates a concave one in a
        // `≥` row) at the current point.
        let mut added = false;
        if round + 1 < options.cut_rounds {
            for &(term_ref, aux_id, term) in &relaxation.aux {
                let constraint = &problem.constraints[term_ref.constraint];
                let x = values[term.var().index()];
                let aux_value = lp_solution.value(aux_id);
                let true_value = term.eval(x);
                let needs_cut = match constraint.relation {
                    Relation::LessEq => term.is_convex() && aux_value < true_value - 1e-7,
                    Relation::GreaterEq => term.is_concave() && aux_value > true_value + 1e-7,
                    Relation::Equal => {
                        (term.is_convex() && aux_value < true_value - 1e-7)
                            || (term.is_concave() && aux_value > true_value + 1e-7)
                    }
                };
                if needs_cut {
                    cuts.add(term_ref, x);
                    added = true;
                }
            }
        }
        last = Some((bound, values));
        if !added {
            break;
        }
    }
    let (bound, values) = last.expect("at least one LP round is always executed");
    Ok(NodeLp::Solved { bound, values })
}

/// Most fractional integer variable, if any.
fn most_fractional(problem: &MinlpProblem, values: &[f64], tol: f64) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64, f64)> = None;
    for (idx, data) in problem.vars.iter().enumerate() {
        if !data.integer {
            continue;
        }
        let value = values[idx];
        let frac = (value - value.round()).abs();
        if frac > tol {
            let distance_to_half = (value - value.floor() - 0.5).abs();
            match best {
                None => best = Some((idx, value, distance_to_half)),
                Some((_, _, d)) if distance_to_half < d => {
                    best = Some((idx, value, distance_to_half))
                }
                _ => {}
            }
        }
    }
    best.map(|(idx, value, _)| (idx, value))
}

fn round_integers(problem: &MinlpProblem, values: &[f64]) -> Vec<f64> {
    problem
        .vars
        .iter()
        .zip(values)
        .map(|(v, &x)| if v.integer { x.round() } else { x })
        .collect()
}

/// Solves one LP of the search and counts its pivots. `None` when the
/// simplex ran out of pivots: the caller leaves its node open rather than
/// abort the search.
fn solve_lp(lp: &LpProblem, state: &mut SearchState) -> Result<Option<LpSolution>, MinlpError> {
    state.lp_solves += 1;
    match lp.solve() {
        Ok(solution) => {
            state.simplex_pivots += solution.pivots();
            Ok(Some(solution))
        }
        Err(LpError::PivotBudgetExceeded { pivots }) => {
            state.simplex_pivots += pivots;
            Ok(None)
        }
        Err(err) => Err(err.into()),
    }
}

/// Repairs `rounded` (see [`repair_candidate`]) and makes the result the
/// incumbent if it is better. `bound` is the LP bound of the node the point
/// came from, left open if a repair LP runs out of pivots.
fn improve_incumbent(
    problem: &MinlpProblem,
    rounded: &[f64],
    bound: f64,
    options: &SolverOptions,
    state: &mut SearchState,
) -> Result<(), MinlpError> {
    if let Some((values, objective)) = repair_candidate(problem, rounded, bound, options, state)? {
        if objective < state.incumbent_objective - 1e-12 {
            state.incumbent_objective = objective;
            state.incumbent = Some(values);
        }
    }
    Ok(())
}

/// Re-solves the relaxation with every integer variable fixed to its rounded
/// value. Because all estimators are exact on collapsed intervals, the result
/// (if feasible) is a true feasible point of the MINLP. A repair LP that runs
/// out of pivots leaves the node (LP bound `bound`) open and yields `None`.
fn repair_candidate(
    problem: &MinlpProblem,
    rounded: &[f64],
    bound: f64,
    options: &SolverOptions,
    state: &mut SearchState,
) -> Result<Option<(Vec<f64>, f64)>, MinlpError> {
    let fixed_bounds: Vec<(f64, f64)> = problem
        .vars
        .iter()
        .zip(rounded)
        .map(|(v, &x)| {
            if v.integer {
                (x, x)
            } else {
                (v.lower, v.upper)
            }
        })
        .collect();
    // A couple of OA rounds so convex terms of *continuous* arguments are
    // represented accurately too.
    let mut cuts = CutPool::default();
    let mut best: Option<(Vec<f64>, f64)> = None;
    for _ in 0..options.cut_rounds.max(1) {
        let relaxation = relax::build(problem, &fixed_bounds, &cuts)?;
        let Some(lp_solution) = solve_lp(&relaxation.lp, state)? else {
            state.leave_open(bound);
            return Ok(None);
        };
        if lp_solution.status() != SolverStatus::Optimal {
            return Ok(None);
        }
        let values: Vec<f64> = relaxation
            .var_ids
            .iter()
            .map(|&id| lp_solution.value(id))
            .collect();
        let mut added = false;
        for &(term_ref, aux_id, term) in &relaxation.aux {
            let constraint = &problem.constraints[term_ref.constraint];
            let x = values[term.var().index()];
            let aux_value = lp_solution.value(aux_id);
            let true_value = term.eval(x);
            let needs_cut = match constraint.relation {
                Relation::LessEq => term.is_convex() && aux_value < true_value - 1e-9,
                Relation::GreaterEq => term.is_concave() && aux_value > true_value + 1e-9,
                Relation::Equal => (aux_value - true_value).abs() > 1e-9,
            };
            if needs_cut {
                cuts.add(term_ref, x);
                added = true;
            }
        }
        if problem.is_feasible(&values, options.feasibility_tolerance)? {
            let objective = problem.objective_value(&values)?;
            best = Some((values, objective));
            break;
        }
        if !added {
            break;
        }
    }
    Ok(best)
}

/// Picks an integer variable to branch on spatially when the LP point is
/// integral but the relaxation is still loose: a variable with non-collapsed
/// bounds appearing in a nonlinear term of a constraint that is violated at
/// the (rounded) point. Returns `None` if no such variable exists.
fn spatial_branch_variable(
    problem: &MinlpProblem,
    bounds: &[(f64, f64)],
    rounded: &[f64],
) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for constraint in &problem.constraints {
        let violation = constraint.violation(rounded);
        for term in &constraint.terms {
            if term.is_linear() {
                continue;
            }
            let idx = term.var().index();
            if !problem.vars[idx].integer {
                continue;
            }
            let (lo, hi) = bounds[idx];
            let width = hi - lo;
            if width < 0.5 {
                continue;
            }
            // Prefer variables in violated rows; fall back to the widest box.
            let score = violation.max(0.0) * 1e6 + width;
            match best {
                None => best = Some((idx, score)),
                Some((_, s)) if score > s => best = Some((idx, score)),
                _ => {}
            }
        }
    }
    best.map(|(idx, _)| idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{MinlpProblem, Relation};
    use crate::term::Term;
    use crate::MinlpStatus;

    /// Two-kernel allocation toy: minimize II with II ≥ WCET_k / N_k and a
    /// shared budget. Integer optimum differs from the continuous one.
    #[test]
    fn solves_two_kernel_toy_problem() {
        let mut p = MinlpProblem::new();
        let ii = p.add_continuous_var("II", 0.0, 1000.0, 1.0).unwrap();
        let n1 = p.add_integer_var("N1", 1.0, 10.0, 0.0).unwrap();
        let n2 = p.add_integer_var("N2", 1.0, 10.0, 0.0).unwrap();
        p.add_constraint(
            "k1",
            vec![Term::reciprocal(n1, 3.0), Term::linear(ii, -1.0)],
            Relation::LessEq,
            0.0,
        )
        .unwrap();
        p.add_constraint(
            "k2",
            vec![Term::reciprocal(n2, 5.0), Term::linear(ii, -1.0)],
            Relation::LessEq,
            0.0,
        )
        .unwrap();
        // 0.2·N1 + 0.3·N2 ≤ 1 → feasible integer combos: (1,1), (1,2), (2,1), (2,2), (3,1).
        p.add_constraint(
            "budget",
            vec![Term::linear(n1, 0.2), Term::linear(n2, 0.3)],
            Relation::LessEq,
            1.0,
        )
        .unwrap();
        let sol = p.solve().unwrap();
        assert_eq!(sol.status(), MinlpStatus::Optimal);
        // Best integer point: (2, 2) → II = max(1.5, 2.5) = 2.5.
        assert!(
            (sol.objective() - 2.5).abs() < 1e-5,
            "II = {}",
            sol.objective()
        );
        assert!((sol.value(n2) - 2.0).abs() < 1e-6);
        assert!(sol.nodes_explored() >= 1);
        assert!(sol.gap() < 1e-5);
    }

    #[test]
    fn detects_infeasible_problem() {
        let mut p = MinlpProblem::new();
        let n = p.add_integer_var("n", 1.0, 3.0, 1.0).unwrap();
        p.add_constraint(
            "impossible",
            vec![Term::linear(n, 1.0)],
            Relation::GreaterEq,
            10.0,
        )
        .unwrap();
        let sol = p.solve().unwrap();
        assert_eq!(sol.status(), MinlpStatus::Infeasible);
        assert!(!sol.has_incumbent());
    }

    #[test]
    fn empty_integer_domain_is_infeasible() {
        let mut p = MinlpProblem::new();
        let n = p.add_integer_var("n", 1.2, 1.8, 1.0).unwrap();
        p.add_constraint("noop", vec![Term::linear(n, 1.0)], Relation::GreaterEq, 0.0)
            .unwrap();
        let sol = p.solve().unwrap();
        assert_eq!(sol.status(), MinlpStatus::Infeasible);
    }

    /// Spreading-style objective: the concave saturation term must be handled
    /// by spatial branching, and minimizing spreading should consolidate.
    #[test]
    fn concave_spreading_terms_are_minimized_correctly() {
        // Two "FPGAs", one kernel needing exactly 4 CUs, each FPGA holds at
        // most 3. Minimize φ ≥ sat(n1) + sat(n2) subject to n1 + n2 = 4.
        // Options: (1,3): 0.5+0.75=1.25; (2,2): 2/3+2/3≈1.333; (3,1) same as (1,3).
        let mut p = MinlpProblem::new();
        let phi = p.add_continuous_var("phi", 0.0, 2.0, 1.0).unwrap();
        let n1 = p.add_integer_var("n1", 0.0, 3.0, 0.0).unwrap();
        let n2 = p.add_integer_var("n2", 0.0, 3.0, 0.0).unwrap();
        p.add_constraint(
            "total",
            vec![Term::linear(n1, 1.0), Term::linear(n2, 1.0)],
            Relation::Equal,
            4.0,
        )
        .unwrap();
        p.add_constraint(
            "spread",
            vec![
                Term::saturation(n1, 1.0),
                Term::saturation(n2, 1.0),
                Term::linear(phi, -1.0),
            ],
            Relation::LessEq,
            0.0,
        )
        .unwrap();
        let sol = p.solve().unwrap();
        assert_eq!(sol.status(), MinlpStatus::Optimal);
        assert!(
            (sol.objective() - 1.25).abs() < 1e-5,
            "phi = {}",
            sol.objective()
        );
        let ns = [sol.value(n1), sol.value(n2)];
        let max = ns.iter().cloned().fold(0.0, f64::max);
        let min = ns.iter().cloned().fold(10.0, f64::min);
        assert!((max - 3.0).abs() < 1e-6 && (min - 1.0).abs() < 1e-6);
    }

    /// A pure integer linear problem is solved exactly (degenerates to MILP).
    #[test]
    fn handles_pure_milp() {
        // Knapsack-ish: maximize 5a + 4b  ⇔ minimize −5a − 4b, 6a + 5b ≤ 28.
        let mut p = MinlpProblem::new();
        let a = p.add_integer_var("a", 0.0, 10.0, -5.0).unwrap();
        let b = p.add_integer_var("b", 0.0, 10.0, -4.0).unwrap();
        p.add_constraint(
            "cap",
            vec![Term::linear(a, 6.0), Term::linear(b, 5.0)],
            Relation::LessEq,
            28.0,
        )
        .unwrap();
        let sol = p.solve().unwrap();
        assert_eq!(sol.status(), MinlpStatus::Optimal);
        // Optimum: a=3, b=2 → 23 (check a few alternatives: a=4,b=0→20; a=2,b=3→22).
        assert!(
            (sol.objective() + 23.0).abs() < 1e-6,
            "obj = {}",
            sol.objective()
        );
    }

    #[test]
    fn node_limit_reports_feasible_with_gap() {
        let mut p = MinlpProblem::new();
        let ii = p.add_continuous_var("II", 0.0, 1000.0, 1.0).unwrap();
        let mut ns = Vec::new();
        for k in 0..6 {
            let n = p.add_integer_var(format!("N{k}"), 1.0, 20.0, 0.0).unwrap();
            p.add_constraint(
                format!("lat{k}"),
                vec![Term::reciprocal(n, 10.0 + k as f64), Term::linear(ii, -1.0)],
                Relation::LessEq,
                0.0,
            )
            .unwrap();
            ns.push(n);
        }
        let budget_terms: Vec<Term> = ns.iter().map(|&n| Term::linear(n, 0.11)).collect();
        p.add_constraint("budget", budget_terms, Relation::LessEq, 1.0)
            .unwrap();
        let options = SolverOptions {
            max_nodes: 3,
            ..SolverOptions::default()
        };
        let sol = p.solve_with(&options).unwrap();
        assert!(sol.has_incumbent());
        assert!(sol.nodes_explored() <= 3);
        assert!(sol.best_bound() <= sol.objective() + 1e-9);
    }

    /// A six-kernel allocation toy whose uneven WCETs make the LP rounding
    /// heuristic miss for a while, so the cold search explores a real tree
    /// before it can prune.
    fn six_kernel_problem() -> (MinlpProblem, Vec<crate::MinlpVarId>) {
        let wcets = [7.0, 9.5, 11.0, 13.5, 14.0, 17.0];
        let mut p = MinlpProblem::new();
        let ii = p.add_continuous_var("II", 0.0, 1000.0, 1.0).unwrap();
        let mut ns = Vec::new();
        for (k, wcet) in wcets.iter().enumerate() {
            let n = p.add_integer_var(format!("N{k}"), 1.0, 20.0, 0.0).unwrap();
            p.add_constraint(
                format!("lat{k}"),
                vec![Term::reciprocal(n, *wcet), Term::linear(ii, -1.0)],
                Relation::LessEq,
                0.0,
            )
            .unwrap();
            ns.push(n);
        }
        let budget_terms: Vec<Term> = ns.iter().map(|&n| Term::linear(n, 0.09)).collect();
        p.add_constraint("budget", budget_terms, Relation::LessEq, 1.0)
            .unwrap();
        let mut vars = vec![ii];
        vars.extend(ns);
        (p, vars)
    }

    #[test]
    fn incumbent_seed_prunes_from_node_zero() {
        let (cold_problem, vars) = six_kernel_problem();
        let cold = cold_problem.solve().unwrap();
        assert_eq!(cold.status(), MinlpStatus::Optimal);
        assert!(!cold.warm_started());
        // Seed the same model with the cold optimum: the search must prove
        // optimality in strictly fewer nodes, at the same objective.
        let mut seeded_problem = cold_problem.clone();
        seeded_problem
            .set_initial_incumbent(vars.iter().map(|&v| cold.value(v)).collect())
            .unwrap();
        let seeded = seeded_problem.solve().unwrap();
        assert_eq!(seeded.status(), MinlpStatus::Optimal);
        assert!(seeded.warm_started());
        assert!((seeded.objective() - cold.objective()).abs() < 1e-9);
        assert!(
            seeded.nodes_explored() < cold.nodes_explored(),
            "seeded {} vs cold {} nodes",
            seeded.nodes_explored(),
            cold.nodes_explored()
        );
    }

    #[test]
    fn infeasible_seed_is_ignored() {
        let (mut p, _) = six_kernel_problem();
        // Counts that blow the budget: 6 × 20 × 0.11 ≫ 1.
        p.set_initial_incumbent(vec![1.0, 20.0, 20.0, 20.0, 20.0, 20.0, 20.0])
            .unwrap();
        let sol = p.solve().unwrap();
        assert!(!sol.warm_started());
        assert_eq!(sol.status(), MinlpStatus::Optimal);
        let cold = six_kernel_problem().0.solve().unwrap();
        assert!((sol.objective() - cold.objective()).abs() < 1e-9);
    }

    /// A node cap that fires on the last queued node must still report the
    /// search as unfinished: that node was dropped unexplored.
    #[test]
    fn node_cap_on_the_last_open_node_is_not_optimal() {
        let (p, _) = six_kernel_problem();
        let optimum = p.solve().unwrap();
        assert_eq!(optimum.status(), MinlpStatus::Optimal);
        assert!((optimum.objective() - 8.5).abs() < 1e-9);
        let capped = p
            .solve_with(&SolverOptions {
                max_nodes: 2,
                ..SolverOptions::default()
            })
            .unwrap();
        assert_eq!(capped.status(), MinlpStatus::Feasible);
        assert_eq!(capped.nodes_explored(), 2);
        assert!(capped.objective() > 8.5 + 1e-9, "{}", capped.objective());
        assert!(capped.best_bound() <= 8.5 + 1e-9, "{}", capped.best_bound());
        assert!(capped.gap() > 0.0);
    }

    /// With no node budget a seeded search explores nothing: the seed is a
    /// feasible incumbent, not a proven optimum, and no bound is known.
    #[test]
    fn seeded_search_without_nodes_proves_nothing() {
        let (mut p, _) = six_kernel_problem();
        // One CU per kernel: II = 17, the slowest WCET.
        p.set_initial_incumbent(vec![17.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
            .unwrap();
        let sol = p
            .solve_with(&SolverOptions {
                max_nodes: 0,
                ..SolverOptions::default()
            })
            .unwrap();
        assert!(sol.warm_started());
        assert_eq!(sol.status(), MinlpStatus::Feasible);
        assert_eq!(sol.nodes_explored(), 0);
        assert!((sol.objective() - 17.0).abs() < 1e-9);
        assert_eq!(sol.best_bound(), f64::NEG_INFINITY);
        assert!(sol.gap().is_infinite());
    }

    #[test]
    fn malformed_seeds_are_rejected_up_front() {
        let (mut p, _) = six_kernel_problem();
        assert!(p.set_initial_incumbent(vec![1.0]).is_err());
        assert!(p
            .set_initial_incumbent(vec![f64::NAN, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
            .is_err());
    }

    #[test]
    fn options_with_budget_sets_limits() {
        let options = SolverOptions::with_budget(500, 1.5);
        assert_eq!(options.max_nodes, 500);
        assert_eq!(options.time_limit_seconds, Some(1.5));
    }
}
