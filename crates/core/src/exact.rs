//! The exact path: the full MINLP of Eqs. 5–10, solved with the
//! [`mfa_minlp`] branch-and-bound solver (the paper used Couenne).
//!
//! Two configurations are exposed, matching the paper's figure keys:
//!
//! * [`ExactMode::IiOnly`] ("MINLP") — optimize only the initiation interval,
//!   `β = 0`. This gives the best achievable II for a resource constraint but
//!   freely spreads CUs over FPGAs.
//! * [`ExactMode::IiAndSpreading`] ("MINLP+G") — optimize `α·II + β·ϕ` with
//!   the problem's weights, which consolidates kernels like GP+A does.
//!
//! Because the FPGAs *within a device group* are identical, the model admits
//! `Π_g F_g!` symmetric copies of every solution; an optional set of
//! symmetry-breaking rows (ordering the FPGAs of each group by their DSP
//! load) removes them and speeds the search up considerably without
//! affecting the optimal value. The rows never relate FPGAs of different
//! groups — those are genuinely distinguishable devices, and ordering across
//! them would cut off real solutions. Symmetry breaking is on by default and
//! can be disabled for ablation.

use std::time::{Duration, Instant};

use mfa_minlp::{MinlpProblem, MinlpStatus, Relation, SolverOptions, Term};

use crate::greedy::GreedyOptions;
use crate::problem::AllocationProblem;
use crate::realloc::ReallocContext;
use crate::solution::Allocation;
use crate::solver::{
    check_deadline, Deadline, SolveDiagnostics, SolveReport, StageTiming, WarmStart,
    WarmStartReport,
};
use crate::AllocError;

/// Which objective the exact solver optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExactMode {
    /// Minimize the initiation interval only (`β = 0`); the paper's "MINLP".
    #[default]
    IiOnly,
    /// Minimize `α·II + β·ϕ` with the problem's weights; the paper's
    /// "MINLP+G".
    IiAndSpreading,
}

impl ExactMode {
    /// The paper's figure key for the mode — the single source of the
    /// `MINLP`/`MINLP+G` labels used by backend names, series labels and
    /// reports.
    pub fn label(&self) -> &'static str {
        match self {
            ExactMode::IiOnly => "MINLP",
            ExactMode::IiAndSpreading => "MINLP+G",
        }
    }
}

/// Options of the exact solver.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactOptions {
    /// Objective configuration.
    pub mode: ExactMode,
    /// Branch-and-bound options (node/time budget, tolerances).
    pub solver: SolverOptions,
    /// Add symmetry-breaking rows over the identical FPGAs.
    pub symmetry_breaking: bool,
}

impl Default for ExactOptions {
    fn default() -> Self {
        ExactOptions {
            mode: ExactMode::IiOnly,
            solver: SolverOptions::default(),
            symmetry_breaking: true,
        }
    }
}

impl ExactOptions {
    /// Exact solve of the paper's "MINLP" configuration with a node/time
    /// budget (useful for the larger sweeps).
    pub fn ii_only_with_budget(max_nodes: usize, time_limit_seconds: f64) -> Self {
        ExactOptions {
            mode: ExactMode::IiOnly,
            solver: SolverOptions::with_budget(max_nodes, time_limit_seconds),
            symmetry_breaking: true,
        }
    }

    /// Exact solve of the paper's "MINLP+G" configuration with a node/time
    /// budget.
    pub fn with_spreading_and_budget(max_nodes: usize, time_limit_seconds: f64) -> Self {
        ExactOptions {
            mode: ExactMode::IiAndSpreading,
            solver: SolverOptions::with_budget(max_nodes, time_limit_seconds),
            symmetry_breaking: true,
        }
    }
}

/// Solves the exact MINLP formulation for [`crate::solver::Backend::Exact`].
///
/// A [`WarmStart`] counts hint is placed with the greedy allocator and — when
/// the placement is feasible for the model — seeds the branch-and-bound
/// incumbent, pruning from node 0. A [`Deadline`] caps the search's
/// wall-clock budget; an expired deadline surfaces as
/// [`AllocError::DeadlineExceeded`]. A node budget combines with the
/// options' own limit by minimum.
///
/// # Errors
///
/// Returns [`AllocError::Infeasible`] when the model has no feasible point,
/// [`AllocError::DeadlineExceeded`] when the deadline is exhausted before a
/// feasible incumbent exists, and propagates MINLP solver failures.
// `n_vars` is indexed `[kernel][fpga]`; clippy's enumerate-based rewrite of the
// `f` loops would iterate the wrong dimension, so the range loops stay.
#[allow(clippy::needless_range_loop)]
pub(crate) fn run(
    problem: &AllocationProblem,
    options: &ExactOptions,
    warm: &WarmStart,
    deadline: Option<&Deadline>,
    node_budget: Option<usize>,
) -> Result<SolveReport, AllocError> {
    let start = Instant::now();
    problem.validate_feasibility()?;
    check_deadline(deadline, "exact model build")?;
    let num_kernels = problem.num_kernels();
    let num_fpgas = problem.num_fpgas();
    let weights = problem.weights();
    let use_spreading = matches!(options.mode, ExactMode::IiAndSpreading) && weights.beta > 0.0;
    let realloc = ReallocContext::from_problem(problem)?;

    let mut model = MinlpProblem::new();

    // II and ϕ variables. The objective is linear in them.
    let ii_upper = problem
        .kernels()
        .iter()
        .map(|k| k.wcet_ms())
        .fold(0.0_f64, f64::max);
    let alpha = if use_spreading { weights.alpha } else { 1.0 };
    let ii = model
        .add_continuous_var("II", 0.0, ii_upper, alpha)
        .map_err(AllocError::from)?;
    let phi = if use_spreading {
        Some(
            model
                .add_continuous_var("phi", 0.0, num_fpgas as f64, weights.beta)
                .map_err(AllocError::from)?,
        )
    } else {
        None
    };

    // n_{k,f} integer variables and N_k totals. Each FPGA's upper bound
    // comes from its own device group: a CU costs a larger share of a
    // smaller device, and a group that cannot host the kernel pins its
    // variables at zero.
    let group_of: Vec<usize> = (0..num_fpgas).map(|f| problem.group_of_fpga(f)).collect();
    // On a platform with per-group WCET scaling the totals become *effective*
    // parallelism `N_k = Σ_f n_{k,f} / s_{g(f)}` — a CU on a group slowed by
    // `s > 1` contributes only `1/s` of a reference CU. Without scaling every
    // `s` is exactly 1 and all coefficients below are bit-identical to the
    // unscaled model.
    let scaled = problem.has_wcet_scaling();
    let min_effective_cu: f64 = 1.0
        / (0..problem.num_groups())
            .map(|g| problem.platform().group(g).wcet_scale())
            .fold(1.0, f64::max);
    let mut n_vars = vec![Vec::with_capacity(num_fpgas); num_kernels];
    let mut total_vars = Vec::with_capacity(num_kernels);
    for (k, kernel) in problem.kernels().iter().enumerate() {
        for f in 0..num_fpgas {
            let per_fpga_max = problem.max_cus_per_fpga_in_group(k, group_of[f]) as f64;
            let var = model
                .add_integer_var(format!("n_{}_{}", kernel.name(), f), 0.0, per_fpga_max, 0.0)
                .map_err(AllocError::from)?;
            n_vars[k].push(var);
        }
        let total = model
            .add_continuous_var(
                format!("N_{}", kernel.name()),
                min_effective_cu,
                problem.max_total_cus(k).max(1) as f64,
                0.0,
            )
            .map_err(AllocError::from)?;
        total_vars.push(total);
        // N_k = Σ_f n_{k,f} / s_{g(f)}.
        let mut terms: Vec<Term> = n_vars[k]
            .iter()
            .enumerate()
            .map(|(f, &v)| {
                Term::linear(v, 1.0 / problem.platform().group(group_of[f]).wcet_scale())
            })
            .collect();
        terms.push(Term::linear(total, -1.0));
        model
            .add_constraint(
                format!("total_{}", kernel.name()),
                terms,
                Relation::Equal,
                0.0,
            )
            .map_err(AllocError::from)?;
        // With scaling, `N_k ≥ 1/s_max` no longer implies one physical CU;
        // pin the count sum explicitly.
        if scaled {
            let cu_terms: Vec<Term> = n_vars[k].iter().map(|&v| Term::linear(v, 1.0)).collect();
            model
                .add_constraint(
                    format!("cus_{}", kernel.name()),
                    cu_terms,
                    Relation::GreaterEq,
                    1.0,
                )
                .map_err(AllocError::from)?;
        }
        // II ≥ WCET_k / N_k.
        model
            .add_constraint(
                format!("latency_{}", kernel.name()),
                vec![
                    Term::reciprocal(total, kernel.wcet_ms()),
                    Term::linear(ii, -1.0),
                ],
                Relation::LessEq,
                0.0,
            )
            .map_err(AllocError::from)?;
        // ϕ ≥ Σ_f n_{k,f} / (1 + n_{k,f}).
        if let Some(phi) = phi {
            let mut spread_terms: Vec<Term> = n_vars[k]
                .iter()
                .map(|&v| Term::saturation(v, 1.0))
                .collect();
            spread_terms.push(Term::linear(phi, -1.0));
            model
                .add_constraint(
                    format!("spreading_{}", kernel.name()),
                    spread_terms,
                    Relation::LessEq,
                    0.0,
                )
                .map_err(AllocError::from)?;
        }
    }

    // Per-FPGA resource and bandwidth rows (Eqs. 9–10), one per class in
    // use, with per-CU demands rescaled to each FPGA's device group. A
    // non-finite coefficient means the group cannot host the kernel at all;
    // its variable is already pinned at zero by the per-group upper bound,
    // so the term is simply omitted.
    for f in 0..num_fpgas {
        let g = group_of[f];
        let limit = problem.group_resource_limit(g);
        let class_rows: [(&str, crate::report::ResourceAccessor, f64); 4] = [
            ("lut", |r| r.lut, limit.lut),
            ("ff", |r| r.ff, limit.ff),
            ("bram", |r| r.bram, limit.bram),
            ("dsp", |r| r.dsp, limit.dsp),
        ];
        for (class, accessor, limit) in class_rows {
            let terms: Vec<Term> = (0..num_kernels)
                .filter_map(|k| {
                    let coeff = accessor(&problem.kernel_resources_on(k, g));
                    (coeff > 0.0 && coeff.is_finite()).then(|| Term::linear(n_vars[k][f], coeff))
                })
                .collect();
            if !terms.is_empty() {
                model
                    .add_constraint(format!("{class}_{f}"), terms, Relation::LessEq, limit)
                    .map_err(AllocError::from)?;
            }
        }
        let bw_terms: Vec<Term> = (0..num_kernels)
            .filter_map(|k| {
                let coeff = problem.kernel_bandwidth_on(k, g);
                (coeff > 0.0 && coeff.is_finite()).then(|| Term::linear(n_vars[k][f], coeff))
            })
            .collect();
        if !bw_terms.is_empty() {
            model
                .add_constraint(
                    format!("bandwidth_{f}"),
                    bw_terms,
                    Relation::LessEq,
                    problem.group_bandwidth_limit(g),
                )
                .map_err(AllocError::from)?;
        }
    }

    // Symmetry breaking: order the identical FPGAs of each device group by
    // non-increasing DSP load. Only within-group permutations are symmetric,
    // so consecutive FPGAs of different groups get no row.
    if options.symmetry_breaking && num_fpgas > 1 {
        for f in 0..num_fpgas - 1 {
            if group_of[f] != group_of[f + 1] {
                continue;
            }
            let g = group_of[f];
            let mut terms = Vec::with_capacity(2 * num_kernels);
            for k in 0..num_kernels {
                let scaled = problem.kernel_resources_on(k, g).dsp;
                let weight = if scaled.is_finite() {
                    scaled.max(1e-6)
                } else {
                    1e-6
                };
                terms.push(Term::linear(n_vars[k][f], weight));
                terms.push(Term::linear(n_vars[k][f + 1], -weight));
            }
            model
                .add_constraint(format!("symmetry_{f}"), terms, Relation::GreaterEq, 0.0)
                .map_err(AllocError::from)?;
        }
    }

    // Migration rows, absent entirely without an active reallocation spec:
    // a continuous `m_{k,g} ≥ Σ_{f∈g} n_{k,f} − incumbent_{k,g}` per kernel
    // and group, priced into the objective at `w·c_g` — the movement term
    // condenses into linear rows exactly like the latency rows — plus the
    // optional hard cap on total movement.
    let mut moved_vars: Vec<Vec<mfa_minlp::MinlpVarId>> = Vec::new();
    if let Some(ctx) = &realloc {
        for (k, kernel) in problem.kernels().iter().enumerate() {
            let mut row_vars = Vec::with_capacity(problem.num_groups());
            for g in 0..problem.num_groups() {
                let m = model
                    .add_continuous_var(
                        format!("m_{}_{}", kernel.name(), g),
                        0.0,
                        problem.max_total_cus(k).max(1) as f64,
                        ctx.weight * ctx.costs[g],
                    )
                    .map_err(AllocError::from)?;
                let mut terms: Vec<Term> = (0..num_fpgas)
                    .filter(|&f| group_of[f] == g)
                    .map(|f| Term::linear(n_vars[k][f], 1.0))
                    .collect();
                terms.push(Term::linear(m, -1.0));
                model
                    .add_constraint(
                        format!("moved_{}_{}", kernel.name(), g),
                        terms,
                        Relation::LessEq,
                        f64::from(ctx.inc_groups[k][g]),
                    )
                    .map_err(AllocError::from)?;
                row_vars.push(m);
            }
            moved_vars.push(row_vars);
        }
        if let Some(bound) = ctx.moved_bound {
            let terms: Vec<Term> = moved_vars
                .iter()
                .flatten()
                .map(|&m| Term::linear(m, 1.0))
                .collect();
            model
                .add_constraint("moved_total", terms, Relation::LessEq, f64::from(bound))
                .map_err(AllocError::from)?;
        }
    }

    // Warm start: place the hinted counts with the greedy allocator and seed
    // the branch-and-bound incumbent with the resulting assignment. Within
    // each device group the FPGA columns are ordered by the same weighted
    // DSP load the symmetry-breaking rows use, so an otherwise feasible seed
    // is never rejected just for naming the identical FPGAs in a different
    // order. An unplaceable or model-infeasible seed is silently dropped.
    // Under an active reallocation spec with no explicit hint, the
    // incumbent's own totals seed the search instead.
    let seed_counts: Option<Vec<u32>> = warm
        .cu_counts
        .clone()
        .or_else(|| realloc.as_ref().map(|ctx| ctx.inc_totals.clone()));
    if let Some(seed_allocation) = seed_counts
        .as_deref()
        .and_then(|counts| crate::solver::place_hint(problem, counts, &GreedyOptions::default()))
    {
        let columns = symmetry_sorted_columns(problem, &seed_allocation);
        let mut seed = vec![0.0; model.num_vars()];
        let seed_ii = seed_allocation.initiation_interval(problem);
        seed[ii.index()] = seed_ii;
        if let Some(phi) = phi {
            seed[phi.index()] = seed_allocation.spreading();
        }
        for k in 0..num_kernels {
            let mut total = 0.0;
            for (f, &column) in columns.iter().enumerate() {
                let n = f64::from(seed_allocation.cus(k, column));
                seed[n_vars[k][f].index()] = n;
                total += n / problem.platform().group(group_of[f]).wcet_scale();
            }
            seed[total_vars[k].index()] = total;
        }
        // The movement the seed actually incurs, so the seed satisfies the
        // migration rows with equality.
        if let Some(ctx) = &realloc {
            for k in 0..num_kernels {
                for g in 0..problem.num_groups() {
                    let placed: u32 = (0..num_fpgas)
                        .filter(|&f| group_of[f] == g)
                        .map(|f| seed_allocation.cus(k, columns[f]))
                        .sum();
                    let moved = placed.saturating_sub(ctx.inc_groups[k][g]);
                    seed[moved_vars[k][g].index()] = f64::from(moved);
                }
            }
        }
        // A malformed seed cannot occur (the vector is built to length), so
        // the only set failure is a non-finite II from a degenerate hint.
        let _ = model.set_initial_incumbent(seed);
    }

    check_deadline(deadline, "exact search")?;
    let mut solver_options = options.solver.clone();
    if let Some(cap) = node_budget {
        solver_options.max_nodes = solver_options.max_nodes.min(cap);
    }
    if let Some(deadline) = deadline {
        let remaining = deadline.remaining().as_secs_f64();
        solver_options.time_limit_seconds = Some(
            solver_options
                .time_limit_seconds
                .map_or(remaining, |limit| limit.min(remaining)),
        );
    }
    let solution = model.solve_with(&solver_options).map_err(|err| {
        // When the deadline was the binding budget, surface the structured
        // deadline error instead of the generic node/time-limit one.
        if matches!(err, mfa_minlp::MinlpError::NodeLimitWithoutSolution { .. })
            && deadline.is_some_and(Deadline::is_expired)
        {
            AllocError::DeadlineExceeded {
                stage: "exact search".to_owned(),
            }
        } else {
            AllocError::from(err)
        }
    })?;
    if solution.status() == MinlpStatus::Infeasible {
        return Err(AllocError::Infeasible(
            "the MINLP model has no feasible point".into(),
        ));
    }

    let mut allocation = Allocation::zeros(problem);
    for k in 0..num_kernels {
        for f in 0..num_fpgas {
            allocation.set_cus(k, f, solution.value(n_vars[k][f]).round().max(0.0) as u32);
        }
    }
    allocation.validate(problem, 1e-6)?;
    let objective = solution.objective();
    // A search stopped before it solved a node has no proven bound (−∞);
    // report none rather than a non-finite number the wire codec rejects.
    let best_bound = Some(solution.best_bound()).filter(|bound| bound.is_finite());
    let cu_counts = crate::solver::counts_of(problem, &allocation);
    let elapsed = start.elapsed();
    Ok(SolveReport {
        backend: options.mode.label().to_owned(),
        diagnostics: SolveDiagnostics {
            // For the pure-II objective the proven bound is itself a relaxed
            // II in milliseconds; the weighted objectives — spreading or a
            // positive migration weight — have no such reading.
            relaxed_ii_ms: match options.mode {
                ExactMode::IiOnly if !realloc.as_ref().is_some_and(|ctx| ctx.weight > 0.0) => {
                    best_bound
                }
                _ => None,
            },
            relaxation_gap: best_bound
                .map(|bound| (objective - bound).max(0.0) / objective.abs().max(1.0)),
            proven_optimal: Some(solution.status() == MinlpStatus::Optimal),
            dropped_cus: vec![0; num_kernels],
            cu_counts,
            bb_nodes: solution.nodes_explored(),
            moved_cus: 0,
            migration_cost: 0.0,
            relaxation_iterations: solution.lp_solves(),
            barrier_iterations: 0,
            factorizations: 0,
            simplex_pivots: solution.simplex_pivots(),
            gp_dual: None,
            warm_start: WarmStartReport {
                ii_hint_used: false,
                dual_hint_used: false,
                incumbent_used: solution.warm_started(),
            },
            degraded_from: None,
            timing: StageTiming {
                total: elapsed,
                relaxation: Duration::ZERO,
                discretization: elapsed,
                allocation: Duration::ZERO,
            },
        },
        allocation,
    })
}

/// FPGA columns reordered so that, within each device group, the columns
/// appear in non-increasing weighted DSP load — the exact order the
/// symmetry-breaking rows demand. Returns `columns` where model column `f`
/// takes its counts from allocation column `columns[f]`. Ties keep the
/// original column order (stable sort), so the mapping is deterministic.
fn symmetry_sorted_columns(problem: &AllocationProblem, allocation: &Allocation) -> Vec<usize> {
    let num_fpgas = problem.num_fpgas();
    let load = |f: usize| -> f64 {
        let g = problem.group_of_fpga(f);
        (0..problem.num_kernels())
            .map(|k| {
                let scaled = problem.kernel_resources_on(k, g).dsp;
                let weight = if scaled.is_finite() {
                    scaled.max(1e-6)
                } else {
                    1e-6
                };
                weight * f64::from(allocation.cus(k, f))
            })
            .sum()
    };
    let mut columns: Vec<usize> = (0..num_fpgas).collect();
    columns.sort_by(|&a, &b| {
        problem
            .group_of_fpga(a)
            .cmp(&problem.group_of_fpga(b))
            .then_with(|| load(b).total_cmp(&load(a)))
    });
    columns
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpa::GpaOptions;
    use crate::paper_data;
    use crate::problem::{GoalWeights, Kernel};
    use crate::solver::{Backend, SolveRequest};
    use mfa_platform::{MultiFpgaPlatform, ResourceBudget, ResourceVec};

    fn solve(
        problem: &AllocationProblem,
        options: &ExactOptions,
    ) -> Result<SolveReport, AllocError> {
        SolveRequest::new(problem)
            .backend(Backend::exact_with(options.clone()))
            .solve()
    }

    fn toy_problem() -> AllocationProblem {
        AllocationProblem::builder()
            .kernels(vec![
                Kernel::new("a", 3.0, ResourceVec::bram_dsp(0.02, 0.2), 0.01).unwrap(),
                Kernel::new("b", 5.0, ResourceVec::bram_dsp(0.02, 0.3), 0.01).unwrap(),
            ])
            .platform(MultiFpgaPlatform::aws_f1_4xlarge())
            .budget(ResourceBudget::uniform(1.0))
            .weights(GoalWeights::new(1.0, 0.5))
            .build()
            .unwrap()
    }

    #[test]
    fn minlp_matches_enumerated_optimum_on_toy_problem() {
        // Two FPGAs, budget 1.0 each: optimum (see discretize tests) is
        // II = 1.25 with counts (3, 4) or (4, 4).
        let problem = toy_problem();
        let report = solve(&problem, &ExactOptions::default()).unwrap();
        assert_eq!(report.diagnostics.proven_optimal, Some(true));
        let ii = report.initiation_interval_ms(&problem);
        assert!((ii - 1.25).abs() < 1e-5, "II = {ii}");
        // The proven bound is reported as the relaxed II for the pure-II mode.
        assert!(report.diagnostics.relaxed_ii_ms.unwrap() <= ii + 1e-6);
        assert!(report.diagnostics.relaxation_gap.unwrap() < 1e-5);
        report.allocation.validate(&problem, 1e-9).unwrap();
    }

    /// A node LP that runs out of simplex pivots leaves its node open; it
    /// does not abort the search. MINLP+G on Alex-32 at 0.65 meets such an
    /// LP within 40 nodes, which used to fail the whole solve with
    /// `Minlp(Lp(PivotBudgetExceeded { pivots: 50000 }))`.
    #[test]
    fn a_node_lp_out_of_pivots_leaves_the_search_unproven() {
        let p = crate::cases::PaperCase::Alex32OnFourFpgas
            .problem(0.65)
            .unwrap();
        let options = ExactOptions {
            mode: ExactMode::IiAndSpreading,
            solver: SolverOptions {
                max_nodes: 40,
                time_limit_seconds: None,
                ..SolverOptions::default()
            },
            symmetry_breaking: true,
        };
        match solve(&p, &options) {
            Ok(report) => {
                assert_eq!(report.diagnostics.proven_optimal, Some(false));
                report.allocation.validate(&p, 1e-9).unwrap();
            }
            Err(err) => assert!(
                matches!(
                    err,
                    AllocError::Minlp(mfa_minlp::MinlpError::NodeLimitWithoutSolution { .. })
                ),
                "{err}"
            ),
        }
    }

    #[test]
    fn minlp_with_spreading_consolidates() {
        let p = toy_problem();
        let ii_only = solve(&p, &ExactOptions::default()).unwrap();
        let with_spreading = solve(
            &p,
            &ExactOptions {
                mode: ExactMode::IiAndSpreading,
                ..ExactOptions::default()
            },
        )
        .unwrap();
        assert_eq!(with_spreading.backend, "MINLP+G");
        assert_eq!(with_spreading.diagnostics.relaxed_ii_ms, None);
        with_spreading.allocation.validate(&p, 1e-9).unwrap();
        // MINLP+G never spreads more than plain MINLP (the paper's qualitative
        // observation), and its goal value is at least as good.
        assert!(with_spreading.allocation.spreading() <= ii_only.allocation.spreading() + 1e-9);
        assert!(with_spreading.allocation.goal(&p) <= ii_only.allocation.goal(&p) + 1e-9);
    }

    #[test]
    fn exact_and_heuristic_agree_on_alex16() {
        let app = paper_data::alexnet_16bit();
        let p = AllocationProblem::from_application(app, 2, 0.70, GoalWeights::ii_only()).unwrap();
        let heuristic = SolveRequest::new(&p)
            .backend(Backend::gpa_with(GpaOptions::fast()))
            .solve()
            .unwrap();
        let exact = solve(&p, &ExactOptions::ii_only_with_budget(2_000, 10.0)).unwrap();
        let ii_heuristic = heuristic.initiation_interval_ms(&p);
        let ii_exact = exact.allocation.initiation_interval(&p);
        let best_bound = exact.diagnostics.relaxed_ii_ms.unwrap();
        // The MINLP's proven lower bound is valid for every allocation,
        // including the heuristic one.
        assert!(ii_heuristic >= best_bound - 1e-6);
        assert!(ii_exact >= best_bound - 1e-6);
        if exact.diagnostics.proven_optimal == Some(true) {
            // With a proof of optimality the exact II can only be better, and
            // the paper reports the heuristic tracking it closely away from
            // the tightest constraints.
            assert!(ii_exact <= ii_heuristic + 1e-6);
            assert!(
                ii_heuristic <= ii_exact * 1.30 + 1e-9,
                "heuristic {ii_heuristic} vs exact {ii_exact}"
            );
        } else {
            // Budgeted solve: the incumbent and the heuristic must both sit
            // within the proven optimality gap of each other.
            assert!(ii_heuristic <= best_bound * 1.5 + 1e-9);
        }
    }

    #[test]
    fn symmetry_breaking_does_not_change_the_optimum() {
        let p = toy_problem().with_num_fpgas(2);
        let with = solve(&p, &ExactOptions::default()).unwrap();
        let without = solve(
            &p,
            &ExactOptions {
                symmetry_breaking: false,
                ..ExactOptions::default()
            },
        )
        .unwrap();
        assert!(
            (with.initiation_interval_ms(&p) - without.initiation_interval_ms(&p)).abs() < 1e-6
        );
    }

    fn mixed_pair_problem() -> AllocationProblem {
        use mfa_platform::{DeviceGroup, FpgaDevice, HeterogeneousPlatform};
        AllocationProblem::builder()
            .kernels(vec![
                Kernel::new("a", 3.0, ResourceVec::bram_dsp(0.02, 0.2), 0.01).unwrap(),
                Kernel::new("b", 5.0, ResourceVec::bram_dsp(0.02, 0.3), 0.01).unwrap(),
            ])
            .platform(HeterogeneousPlatform::new(
                "1×VU9P + 1×KU115",
                vec![
                    DeviceGroup::new(FpgaDevice::vu9p(), 1),
                    DeviceGroup::new(FpgaDevice::ku115(), 1),
                ],
            ))
            .budget(ResourceBudget::uniform(0.8))
            .weights(GoalWeights::ii_only())
            .build()
            .unwrap()
    }

    #[test]
    fn heterogeneous_minlp_uses_both_devices_and_validates() {
        let p = mixed_pair_problem();
        let outcome = solve(&p, &ExactOptions::default()).unwrap();
        assert_eq!(outcome.diagnostics.proven_optimal, Some(true));
        outcome.allocation.validate(&p, 1e-6).unwrap();
        // The mixed pair can only reach this II by using the KU115 too:
        // a single VU9P at 0.8 tops out at II = 2.5 (counts (2, 2)).
        let single = AllocationProblem::builder()
            .kernels(p.kernels().to_vec())
            .platform(MultiFpgaPlatform::aws_f1_2xlarge())
            .budget(ResourceBudget::uniform(0.8))
            .weights(GoalWeights::ii_only())
            .build()
            .unwrap();
        let single_outcome = solve(&single, &ExactOptions::default()).unwrap();
        assert!(
            outcome.initiation_interval_ms(&p)
                < single_outcome.initiation_interval_ms(&single) - 1e-6
        );
        assert!(outcome.allocation.fpgas_used() == 2);
        // The exact optimum can never beat the continuous relaxation.
        let relaxed =
            crate::gp_step::solve(&p, crate::gp_step::RelaxationBackend::Bisection).unwrap();
        assert!(outcome.initiation_interval_ms(&p) >= relaxed.initiation_interval_ms - 1e-6);
    }

    #[test]
    fn within_group_symmetry_breaking_preserves_the_heterogeneous_optimum() {
        use mfa_platform::{DeviceGroup, FpgaDevice, HeterogeneousPlatform};
        let p = AllocationProblem::builder()
            .kernels(vec![
                Kernel::new("a", 3.0, ResourceVec::bram_dsp(0.02, 0.2), 0.01).unwrap(),
                Kernel::new("b", 5.0, ResourceVec::bram_dsp(0.02, 0.3), 0.01).unwrap(),
            ])
            .platform(HeterogeneousPlatform::new(
                "2×VU9P + 2×KU115",
                vec![
                    DeviceGroup::new(FpgaDevice::vu9p(), 2),
                    DeviceGroup::new(FpgaDevice::ku115(), 2),
                ],
            ))
            .budget(ResourceBudget::uniform(0.7))
            .weights(GoalWeights::ii_only())
            .build()
            .unwrap();
        let with = solve(&p, &ExactOptions::default()).unwrap();
        let without = solve(
            &p,
            &ExactOptions {
                symmetry_breaking: false,
                ..ExactOptions::default()
            },
        )
        .unwrap();
        let ii_with = with.initiation_interval_ms(&p);
        let ii_without = without.initiation_interval_ms(&p);
        assert!(
            (ii_with - ii_without).abs() < 1e-6,
            "with {ii_with} vs without {ii_without}"
        );
        with.allocation.validate(&p, 1e-6).unwrap();
    }

    #[test]
    fn budgeted_solve_reports_gap() {
        let app = paper_data::alexnet_16bit();
        let p = AllocationProblem::from_application(app, 2, 0.65, GoalWeights::ii_only()).unwrap();
        let outcome = solve(&p, &ExactOptions::ii_only_with_budget(50, 5.0)).unwrap();
        assert!(outcome.diagnostics.relaxation_gap.unwrap() >= 0.0);
        assert!(outcome.diagnostics.bb_nodes <= 50);
        outcome.allocation.validate(&p, 1e-6).unwrap();
    }

    #[test]
    fn seeded_solve_without_nodes_reports_no_bound() {
        // The seed becomes the answer, but no node was solved, so no bound
        // (and no gap) is proven.
        let p = toy_problem();
        let report = SolveRequest::new(&p)
            .backend(Backend::exact())
            .node_budget(0)
            .warm_start(WarmStart::none().with_cu_counts(vec![1, 1]))
            .solve()
            .unwrap();
        assert!(report.diagnostics.warm_start.incumbent_used);
        assert_eq!(report.diagnostics.bb_nodes, 0);
        assert_eq!(report.diagnostics.proven_optimal, Some(false));
        assert_eq!(report.diagnostics.relaxed_ii_ms, None);
        assert_eq!(report.diagnostics.relaxation_gap, None);
        report.allocation.validate(&p, 1e-9).unwrap();
    }
}
