//! Design-space exploration sweeps (the data behind Figs. 2–5).
//!
//! These are the stable single-threaded sweep primitives, built directly on
//! the request API in [`crate::solver`]. The first-class exploration engine —
//! multi-axis grids, a multi-threaded executor with warm-start caching and
//! JSON/CSV export — lives in the `mfa_explore` crate and drives the same
//! [`crate::solver::SolveRequest`] per point, so both paths produce identical
//! series for identical inputs.

use crate::exact::ExactOptions;
use crate::gpa::GpaOptions;
use crate::greedy::GreedyOptions;
use crate::problem::AllocationProblem;
use crate::solver::{Backend, SolveReport, SolveRequest, WarmStartReport};
use crate::AllocError;

/// One point of a resource-constraint sweep: the classic metrics plus the
/// additive solve diagnostics carried by every [`SolveReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Scalar key of the budget point: the uniform fraction on the classic
    /// constraint axis, or the largest per-class fraction for a per-resource
    /// budget point.
    pub resource_constraint: f64,
    /// The full per-FPGA budget the point was solved under (independent
    /// LUT/FF/BRAM/DSP fractions plus the bandwidth cap).
    pub budget: mfa_platform::ResourceBudget,
    /// Achieved initiation interval in milliseconds.
    pub initiation_interval_ms: f64,
    /// Average per-FPGA utilization of the critical resource.
    pub average_utilization: f64,
    /// Global spreading of the allocation.
    pub spreading: f64,
    /// Wall-clock solve time in seconds.
    pub solve_seconds: f64,
    /// Relative gap between the achieved II and the solve's lower bound
    /// (continuous relaxation for the heuristics, proven bound for the
    /// exact backend); zero when the backend reported none.
    pub relaxation_gap: f64,
    /// Branch-and-bound nodes visited (discretization for GP+A, MINLP tree
    /// for the exact backend).
    pub bb_nodes: usize,
    /// Interior-point barrier iterations of the GP relaxation (zero for
    /// bisection-only and exact solves).
    pub barrier_iterations: usize,
    /// KKT factorization attempts of the GP relaxation, full refactorizations
    /// and diagonal refreshes alike (zero for bisection-only and exact
    /// solves).
    pub factorizations: usize,
    /// Simplex pivots spent in the LP substrate (water-filling probes for the
    /// heuristics, node LPs for the exact MINLP).
    pub simplex_pivots: usize,
    /// Total CUs shed by the feasibility fallback.
    pub dropped_cus: u32,
    /// CUs newly configured relative to the reallocation incumbent (zero
    /// for static solves without a reallocation spec).
    pub moved_cus: u32,
    /// Unweighted priced movement `Σ_g c_g · moved_g` against the incumbent
    /// (zero for static solves).
    pub migration_cost: f64,
    /// Which warm-start hints the solve actually consumed.
    pub warm_start: WarmStartReport,
}

impl SweepPoint {
    /// Builds a sweep point from a solved report's metrics and diagnostics;
    /// the budget record comes from the problem instance itself.
    pub fn from_report(
        problem: &AllocationProblem,
        resource_constraint: f64,
        report: &SolveReport,
    ) -> Self {
        let metrics = report.allocation.metrics(problem);
        SweepPoint {
            resource_constraint,
            budget: *problem.budget(),
            initiation_interval_ms: metrics.initiation_interval_ms,
            average_utilization: metrics.average_utilization,
            spreading: metrics.spreading,
            solve_seconds: report.diagnostics.timing.total.as_secs_f64(),
            relaxation_gap: report.diagnostics.relaxation_gap.unwrap_or(0.0),
            bb_nodes: report.diagnostics.bb_nodes,
            barrier_iterations: report.diagnostics.barrier_iterations,
            factorizations: report.diagnostics.factorizations,
            simplex_pivots: report.diagnostics.simplex_pivots,
            dropped_cus: report.diagnostics.total_dropped_cus(),
            moved_cus: report.diagnostics.moved_cus,
            migration_cost: report.diagnostics.migration_cost,
            warm_start: report.diagnostics.warm_start,
        }
    }
}

/// The constraint values swept for a case: `count` evenly spaced points
/// between `lo` and `hi` inclusive.
pub fn constraint_grid(lo: f64, hi: f64, count: usize) -> Vec<f64> {
    assert!(count >= 2 && hi > lo, "need at least two sweep points");
    (0..count)
        .map(|i| lo + (hi - lo) * i as f64 / (count - 1) as f64)
        .collect()
}

/// Sweeps one backend over resource constraints: each point constrains the
/// base problem, builds a [`SolveRequest`] with the request's (default
/// lenient) skip policy, and measures the report. Skipped points — budgets
/// too tight for the application, unplaceable discretizations, budget-
/// exhausted exact solves — are simply absent, exactly as the paper's
/// figures omit them.
///
/// # Errors
///
/// Propagates non-skippable solver failures.
pub fn sweep_backend(
    problem: &AllocationProblem,
    constraints: &[f64],
    backend: &Backend,
) -> Result<Vec<SweepPoint>, AllocError> {
    let mut points = Vec::with_capacity(constraints.len());
    for &constraint in constraints {
        let instance = problem.with_resource_constraint(constraint);
        let report = SolveRequest::new(&instance)
            .backend(backend.clone())
            .solve_point()?;
        if let Some(report) = report {
            points.push(SweepPoint::from_report(&instance, constraint, &report));
        }
    }
    Ok(points)
}

/// Sweeps the GP+A heuristic over resource constraints
/// ([`sweep_backend`] with [`Backend::Gpa`]).
///
/// # Errors
///
/// Propagates unexpected solver failures (infeasibility is not an error here).
pub fn sweep_gpa(
    problem: &AllocationProblem,
    constraints: &[f64],
    options: &GpaOptions,
) -> Result<Vec<SweepPoint>, AllocError> {
    sweep_backend(problem, constraints, &Backend::gpa_with(options.clone()))
}

/// Sweeps the exact MINLP solver over resource constraints
/// ([`sweep_backend`] with [`Backend::Exact`]).
///
/// # Errors
///
/// Propagates unexpected solver failures (infeasibility is not an error here).
pub fn sweep_exact(
    problem: &AllocationProblem,
    constraints: &[f64],
    options: &ExactOptions,
) -> Result<Vec<SweepPoint>, AllocError> {
    sweep_backend(problem, constraints, &Backend::exact_with(options.clone()))
}

/// Sweeps the GP+A heuristic over the `T` parameter (the data of Fig. 2).
///
/// # Errors
///
/// Propagates unexpected solver failures.
pub fn sweep_t_parameter(
    problem: &AllocationProblem,
    constraints: &[f64],
    t_values: &[f64],
    delta: f64,
) -> Result<Vec<(f64, Vec<SweepPoint>)>, AllocError> {
    let mut series = Vec::with_capacity(t_values.len());
    for &t in t_values {
        let options = GpaOptions {
            greedy: GreedyOptions::with_t_delta(t, delta),
            ..GpaOptions::fast()
        };
        let points = sweep_gpa(problem, constraints, &options)?;
        series.push((t, points));
    }
    Ok(series)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::PaperCase;
    use crate::exact::ExactOptions;

    #[test]
    fn constraint_grid_is_inclusive_and_even() {
        let grid = constraint_grid(0.5, 0.9, 5);
        assert_eq!(grid.len(), 5);
        assert!((grid[0] - 0.5).abs() < 1e-12);
        assert!((grid[4] - 0.9).abs() < 1e-12);
        assert!((grid[2] - 0.7).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "two sweep points")]
    fn degenerate_grid_is_rejected() {
        let _ = constraint_grid(0.5, 0.5, 1);
    }

    #[test]
    fn gpa_sweep_is_monotone_in_the_constraint() {
        let problem = PaperCase::Alex16OnTwoFpgas.problem(0.65).unwrap();
        let grid = constraint_grid(0.55, 0.85, 4);
        let points = sweep_gpa(&problem, &grid, &GpaOptions::fast()).unwrap();
        assert!(points.len() >= 3);
        // Looser constraints can only improve (not worsen) the II, up to the
        // small non-monotonicities the greedy step may introduce.
        let first = points.first().unwrap().initiation_interval_ms;
        let last = points.last().unwrap().initiation_interval_ms;
        assert!(last <= first + 1e-9);
        for p in &points {
            assert!(p.average_utilization > 0.0 && p.average_utilization <= 1.0);
            assert!(p.solve_seconds >= 0.0);
            // Serial sweeps are cold: the diagnostics must say so.
            assert_eq!(p.warm_start.provenance(), "cold");
            assert!(p.relaxation_gap >= 0.0);
            assert!(p.bb_nodes >= 1);
        }
    }

    #[test]
    fn t_sweep_produces_one_series_per_t() {
        let problem = PaperCase::Alex16OnTwoFpgas.problem(0.65).unwrap();
        let grid = constraint_grid(0.60, 0.80, 3);
        let series = sweep_t_parameter(&problem, &grid, &[0.0, 0.10], 0.01).unwrap();
        assert_eq!(series.len(), 2);
        assert!((series[0].0 - 0.0).abs() < 1e-12);
        assert!((series[1].0 - 0.10).abs() < 1e-12);
        // The paper observes little effect of T; check the curves stay close.
        for (a, b) in series[0].1.iter().zip(&series[1].1) {
            assert!((a.initiation_interval_ms - b.initiation_interval_ms).abs() < 0.5);
        }
    }

    #[test]
    fn infeasible_points_are_skipped_not_fatal() {
        let problem = PaperCase::Alex32OnFourFpgas.problem(0.70).unwrap();
        // 30 % cannot host CONV2 (37.6 % DSP); 75 % can.
        let points = sweep_gpa(&problem, &[0.30, 0.75], &GpaOptions::fast()).unwrap();
        assert_eq!(points.len(), 1);
        assert!((points[0].resource_constraint - 0.75).abs() < 1e-12);
    }

    #[test]
    fn exact_sweep_skips_infeasible_points() {
        let problem = PaperCase::Alex16OnTwoFpgas.problem(0.70).unwrap();
        // 8 % cannot host CONV1 (10.6 % BRAM per CU for Alex-16); 80 % can.
        let points = sweep_exact(
            &problem,
            &[0.08, 0.80],
            &ExactOptions::ii_only_with_budget(2_000, 10.0),
        )
        .unwrap();
        assert_eq!(points.len(), 1);
        assert!((points[0].resource_constraint - 0.80).abs() < 1e-12);
        assert!(points[0].bb_nodes >= 1);
        assert_eq!(points[0].dropped_cus, 0);
    }

    #[test]
    fn backend_sweeps_cover_the_greedy_fallback_too() {
        let problem = PaperCase::Alex16OnTwoFpgas.problem(0.70).unwrap();
        let points = sweep_backend(&problem, &[0.65, 0.80], &Backend::greedy()).unwrap();
        assert_eq!(points.len(), 2);
        for p in &points {
            assert_eq!(p.bb_nodes, 0);
            assert!(p.initiation_interval_ms > 0.0);
        }
    }
}
