//! First step of the heuristic: the symmetric continuous relaxation
//! (Eqs. 14–18), solved as a geometric program, generalized to heterogeneous
//! platforms of device groups.
//!
//! With the spreading objective dropped (`β = 0`) and `n_{k,f}` allowed to be
//! real, the problem becomes symmetric across the identical FPGAs *within*
//! each device group, so only the per-group totals `N̂_{k,g}` matter. On the
//! paper's single-group platform (`F` identical FPGAs) this collapses to the
//! classic symmetric totals `N̂_k = F·n̂_k`:
//!
//! ```text
//! minimize  ÎI
//! s.t.      ÎI ≥ WCET_k / Σ_g N̂_{k,g}     ∀k
//!           Σ_g N̂_{k,g} ≥ 1              ∀k
//!           Σ_k N̂_{k,g} · R_{k,g} ≤ F_g·R   (per group, per resource class)
//!           Σ_k N̂_{k,g} · B_{k,g} ≤ F_g·B   (per group)
//! ```
//!
//! where `R_{k,g}`/`B_{k,g}` are kernel `k`'s per-CU fractions rescaled to
//! group `g`'s device. Two interchangeable backends solve it:
//!
//! * [`RelaxationBackend::GeometricProgram`] — the faithful route: the model
//!   is expressed in posynomial form and handed to the [`mfa_gp`]
//!   interior-point solver (the paper used GPkit here). On a single group the
//!   formulation is exact; with several groups the group-summed latency rows
//!   are not posynomial, so each is condensed into its best monomial
//!   approximation around the (exact) bisection solution — the standard
//!   signomial-programming move, anchored where it is tight — giving one
//!   latency row per kernel that sums the group contributions.
//! * [`RelaxationBackend::Bisection`] — an analytic route exploiting the
//!   problem's structure: for a trial `ÎI` the cheapest feasible totals are
//!   `N̂_k(ÎI) = max(1, WCET_k / ÎI)`, and feasibility — on several groups,
//!   the existence of a water-filling of those totals across groups, checked
//!   with the [`mfa_linprog`] simplex — is monotone in `ÎI`, so the optimal
//!   `ÎI` is found by bisection. Used as a fast cross-check and as the
//!   default engine inside the discretization branch-and-bound.
//!
//! Both return the same optimum (verified by unit and property tests); the
//! GP backend is the default for the top-level heuristic to stay close to the
//! paper's toolchain.

use mfa_gp::{GpDualState, GpProblem, Monomial, Posynomial};
use mfa_linprog::{LpError, LpProblem, Relation, Sense};

use crate::problem::AllocationProblem;
use crate::realloc::ReallocContext;
use crate::AllocError;

/// Which engine solves the continuous relaxation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RelaxationBackend {
    /// Posynomial model solved with the `mfa-gp` interior-point solver.
    #[default]
    GeometricProgram,
    /// Analytic bisection on `ÎI` (fast path).
    Bisection,
}

/// Result of the continuous relaxation.
#[derive(Debug, Clone, PartialEq)]
pub struct Relaxation {
    /// Fractional total CU count `N̂_k` per kernel (summed over groups).
    pub cu_counts: Vec<f64>,
    /// Fractional per-group CU counts `N̂_{k,g}`, kernel-major
    /// (`group_cu_counts[k][g]`). On a single-group platform every row is
    /// the one-element `[N̂_k]`.
    pub group_cu_counts: Vec<Vec<f64>>,
    /// Relaxed initiation interval `ÎI` in milliseconds.
    pub initiation_interval_ms: f64,
}

/// Per-kernel bounds `lo_k ≤ N̂_k ≤ hi_k` imposed by the discretization
/// branch-and-bound on top of the base relaxation.
pub(crate) type CuBounds = [(f64, f64)];

/// Deterministic effort and warm-start provenance of one relaxation solve:
/// bisection feasibility steps or GP Newton iterations, whether a
/// [`crate::solver::WarmStart`] relaxed-II hint was actually consumed
/// (bracket narrowed / interior point seeded), and the machine-independent
/// effort counters of the numeric substrate (barrier iterations, KKT
/// factorizations, simplex pivots).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct RelaxStats {
    pub(crate) iterations: usize,
    pub(crate) hint_used: bool,
    /// Whether the GP backend consumed a dual warm start (final barrier `t`
    /// and constraint multipliers of a neighbouring solve). Always `false`
    /// for the bisection backend, which has no dual path.
    pub(crate) dual_hint_used: bool,
    /// Outer barrier iterations of the GP interior-point solve (0 for
    /// bisection).
    pub(crate) barrier_iterations: usize,
    /// KKT factorization attempts (full refactorizations plus in-place ridge
    /// refreshes) of the GP solve (0 for bisection).
    pub(crate) factorizations: usize,
    /// Simplex pivots spent in water-filling feasibility probes (group
    /// splits on heterogeneous platforms; 0 on a single group).
    pub(crate) simplex_pivots: usize,
    /// Final dual state of the GP solve, handed to neighbouring solves as a
    /// dual warm start. `None` for the bisection backend.
    pub(crate) dual_state: Option<GpDualState>,
}

/// Solves the unbounded relaxation (Eqs. 14–18) cold. Warm-started solves go
/// through [`crate::solver::SolveRequest`], which plumbs the request's
/// relaxed-II hint into the hinted solver below.
///
/// # Errors
///
/// Returns [`AllocError::Infeasible`] if even one CU per kernel violates a
/// platform-wide budget, and propagates GP solver failures.
pub fn solve(
    problem: &AllocationProblem,
    backend: RelaxationBackend,
) -> Result<Relaxation, AllocError> {
    relax_hinted(problem, backend, None, None).map(|(relaxation, _)| relaxation)
}

/// Solves the unbounded relaxation, optionally warm-started from the relaxed
/// `ÎI` of a neighbouring problem. The hint narrows the bisection bracket
/// (both endpoints verified before use) or seeds the GP interior point
/// (taken only when strictly feasible), so a stale or wildly wrong hint
/// degrades to the cold start and the returned optimum is unaffected.
///
/// `dual` optionally carries the neighbouring solve's final barrier
/// parameter and constraint multipliers; the GP backend uses it (only when
/// the primal seed is accepted) to re-enter the barrier path near its end,
/// skipping the early centering sweeps. A dual whose layout no longer
/// matches — e.g. a heterogeneous anchor activated a different group set —
/// is rejected by the GP solver's validation and the solve proceeds
/// primal-warm only, so a stale dual never changes the optimum. The
/// bisection backend ignores it.
///
/// # Errors
///
/// Same contract as [`solve`].
pub(crate) fn relax_hinted(
    problem: &AllocationProblem,
    backend: RelaxationBackend,
    hint_ii_ms: Option<f64>,
    dual: Option<&GpDualState>,
) -> Result<(Relaxation, RelaxStats), AllocError> {
    let unbounded: Vec<(f64, f64)> = (0..problem.num_kernels())
        .map(|k| (1.0, problem.max_total_cus(k) as f64))
        .collect();
    relax_bounded_hinted(problem, &unbounded, backend, hint_ii_ms, dual)
}

/// [`relax_hinted`] with explicit per-kernel bounds on `N̂_k` (used by the
/// discretization branch-and-bound for its node relaxations).
///
/// # Errors
///
/// Returns [`AllocError::Infeasible`] if the bounds admit no feasible point
/// and propagates GP solver failures.
pub(crate) fn relax_bounded_hinted(
    problem: &AllocationProblem,
    bounds: &CuBounds,
    backend: RelaxationBackend,
    hint_ii_ms: Option<f64>,
    dual: Option<&GpDualState>,
) -> Result<(Relaxation, RelaxStats), AllocError> {
    if bounds.len() != problem.num_kernels() {
        return Err(AllocError::InvalidArgument(format!(
            "expected {} bounds, got {}",
            problem.num_kernels(),
            bounds.len()
        )));
    }
    for (k, kernel) in problem.kernels().iter().enumerate() {
        // A kernel that cannot fit even one CU on an FPGA makes the whole
        // problem infeasible regardless of the bounds.
        if problem.max_cus_per_fpga(k) == 0 {
            return Err(AllocError::Infeasible(format!(
                "kernel {} does not fit a single CU within the per-FPGA budget",
                kernel.name()
            )));
        }
        let (lo, hi) = bounds[k];
        if !(lo >= 1.0 && hi >= lo) {
            return Err(AllocError::InvalidArgument(format!(
                "invalid CU bounds [{lo}, {hi}] for kernel {}",
                kernel.name()
            )));
        }
    }
    // Quick infeasibility check: the cheapest configuration takes the lower
    // bound everywhere.
    let mut probe_pivots = 0usize;
    if !budgets_allow(
        problem,
        &bounds.iter().map(|&(lo, _)| lo).collect::<Vec<_>>(),
        &mut probe_pivots,
    )? {
        return Err(AllocError::Infeasible(
            "the minimum CU counts already exceed a platform-wide budget".into(),
        ));
    }
    let (relaxation, mut stats) = match backend {
        RelaxationBackend::GeometricProgram => solve_gp(problem, bounds, hint_ii_ms, dual)?,
        RelaxationBackend::Bisection => solve_bisection(problem, bounds, hint_ii_ms)?,
    };
    stats.simplex_pivots += probe_pivots;
    Ok((relaxation, stats))
}

/// Checks whether the fractional totals `N_k` can be realized within the
/// platform's aggregated budgets. On a single device group this is the
/// closed-form check `Σ_k N_k·R_k ≤ F·R` and `Σ_k N_k·B_k ≤ F·B`; with
/// several groups it asks whether *some* split of the totals across groups
/// satisfies every group's aggregated budgets (see
/// [`distribute_over_groups`]). Simplex pivots spent by the multi-group
/// water-filling LP are added to `pivots`; the closed-form single-group
/// check costs none.
///
/// # Errors
///
/// Propagates [`AllocError::Linprog`] when the water-filling LP exhausts its
/// pivot budget — a structured stop, distinct from "the split is
/// infeasible" (`Ok(false)`).
pub(crate) fn budgets_allow(
    problem: &AllocationProblem,
    cu_counts: &[f64],
    pivots: &mut usize,
) -> Result<bool, AllocError> {
    if problem.num_groups() > 1 {
        return Ok(distribute_over_groups(problem, cu_counts, pivots)?.is_some());
    }
    let f = problem.num_fpgas() as f64;
    let limit = problem.group_resource_limit(0) * f;
    let total: mfa_platform::ResourceVec = problem
        .kernels()
        .iter()
        .zip(cu_counts)
        .map(|(k, &n)| *k.resources() * n)
        .sum();
    if !total.fits_within(&limit, 1e-9) {
        return Ok(false);
    }
    let bw: f64 = problem
        .kernels()
        .iter()
        .zip(cu_counts)
        .map(|(k, &n)| k.bandwidth() * n)
        .sum();
    if bw > problem.group_bandwidth_limit(0) * f + 1e-9 {
        return Ok(false);
    }
    // A moved-CU bound restricts the single-group split arithmetically: the
    // only split of total N_k is N_k itself, so the fractional movement is
    // Σ_k max(0, N_k − inc_k).
    if let Some(ctx) = ReallocContext::from_problem(problem)? {
        if let Some(bound) = ctx.moved_bound {
            let moved: f64 = cu_counts
                .iter()
                .enumerate()
                .map(|(k, &n)| (n - ctx.inc_totals.get(k).copied().unwrap_or(0) as f64).max(0.0))
                .sum();
            if moved > f64::from(bound) + 1e-9 {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

/// Fractional water-filling of per-kernel totals across device groups: finds
/// `x_{k,g} ≥ 0` with `Σ_g x_{k,g} = N_k` satisfying every group's
/// aggregated resource and bandwidth budgets, or `Ok(None)` when no split
/// exists. The multi-resource transportation feasibility problem is solved
/// with the [`mfa_linprog`] two-phase simplex (deterministic, so sweeps stay
/// reproducible) under its pivot budget ([`LpProblem::solve`]); pivots
/// spent are added to `pivots` either way. Kernels that cannot be hosted on
/// a group (a resource class the device lacks) get no variable there.
///
/// # Errors
///
/// Returns [`AllocError::Linprog`] wrapping
/// [`LpError::PivotBudgetExceeded`] when the simplex runs out of pivots —
/// never silently reported as infeasibility — and propagates LP model
/// construction failures the same way.
// `vars` is indexed `[kernel][group]`; clippy's enumerate-based rewrite of
// the `g`/`k` loops would iterate the wrong dimension, so the range loops
// stay (same situation as the MINLP model builder in `exact`).
#[allow(clippy::needless_range_loop)]
pub(crate) fn distribute_over_groups(
    problem: &AllocationProblem,
    cu_counts: &[f64],
    pivots: &mut usize,
) -> Result<Option<Vec<Vec<f64>>>, AllocError> {
    let groups = problem.num_groups();
    if groups == 1 {
        return Ok(Some(cu_counts.iter().map(|&n| vec![n]).collect()));
    }
    let num_kernels = problem.num_kernels();
    let realloc = ReallocContext::from_problem(problem)?;
    let mut lp = LpProblem::new(Sense::Minimize);
    let mut vars: Vec<Vec<Option<mfa_linprog::VarId>>> = vec![vec![None; groups]; num_kernels];
    for k in 0..num_kernels {
        for (g, slot) in vars[k].iter_mut().enumerate() {
            let res = problem.kernel_resources_on(k, g);
            let hostable = [res.lut, res.ff, res.bram, res.dsp]
                .iter()
                .all(|x| x.is_finite())
                && problem.kernel_bandwidth_on(k, g).is_finite();
            if hostable {
                *slot = Some(
                    lp.add_var(format!("x_{k}_{g}"), 0.0, cu_counts[k].max(0.0))
                        .expect("bounds are finite and ordered"),
                );
            }
        }
        let terms: Vec<(mfa_linprog::VarId, f64)> =
            vars[k].iter().flatten().map(|&v| (v, 1.0)).collect();
        if terms.is_empty() {
            // No group can host this kernel at all.
            return Ok(None);
        }
        lp.add_constraint(format!("total_{k}"), &terms, Relation::Equal, cu_counts[k])?;
    }
    for g in 0..groups {
        let fpgas = problem.group_count(g) as f64;
        let group_limit = problem.group_resource_limit(g);
        type Accessor = fn(&mfa_platform::ResourceVec) -> f64;
        let classes: [(&str, Accessor, f64); 4] = [
            ("lut", |r| r.lut, group_limit.lut),
            ("ff", |r| r.ff, group_limit.ff),
            ("bram", |r| r.bram, group_limit.bram),
            ("dsp", |r| r.dsp, group_limit.dsp),
        ];
        for (class, accessor, limit) in classes {
            let terms: Vec<(mfa_linprog::VarId, f64)> = (0..num_kernels)
                .filter_map(|k| {
                    let coeff = accessor(&problem.kernel_resources_on(k, g));
                    vars[k][g].filter(|_| coeff > 0.0).map(|v| (v, coeff))
                })
                .collect();
            if !terms.is_empty() {
                lp.add_constraint(
                    format!("{class}_{g}"),
                    &terms,
                    Relation::LessEq,
                    fpgas * limit + 1e-9,
                )?;
            }
        }
        let bw_terms: Vec<(mfa_linprog::VarId, f64)> = (0..num_kernels)
            .filter_map(|k| {
                let coeff = problem.kernel_bandwidth_on(k, g);
                vars[k][g].filter(|_| coeff > 0.0).map(|v| (v, coeff))
            })
            .collect();
        if !bw_terms.is_empty() {
            lp.add_constraint(
                format!("bandwidth_{g}"),
                &bw_terms,
                Relation::LessEq,
                fpgas * problem.group_bandwidth_limit(g) + 1e-9,
            )?;
        }
    }
    // Migration-aware water-filling: with an active reallocation spec the
    // split is not just *a* feasible one — it is the feasible split moving
    // the least priced CUs. Movement variables `m_{k,g} ≥ max(0, x_{k,g} −
    // inc_{k,g})` linearize the rectifier exactly (the migration term
    // condenses into linear rows, like the latency rows do in the GP), the
    // objective minimizes `Σ c_g · m_{k,g}`, and an optional row caps the
    // fractional total movement. Inactive specs skip all of this, keeping the
    // LP — and its pivot trace — bit-identical to the static solve.
    if let Some(ctx) = &realloc {
        let mut moved_terms: Vec<(mfa_linprog::VarId, f64)> = Vec::new();
        for k in 0..num_kernels {
            for g in 0..groups {
                let Some(x) = vars[k][g] else { continue };
                let m = lp
                    .add_var(format!("m_{k}_{g}"), 0.0, cu_counts[k].max(0.0))
                    .expect("bounds are finite and ordered");
                // x_{k,g} − m_{k,g} ≤ inc_{k,g}.
                lp.add_constraint(
                    format!("moved_{k}_{g}"),
                    &[(x, 1.0), (m, -1.0)],
                    Relation::LessEq,
                    f64::from(ctx.inc_groups[k][g]),
                )?;
                // A zero-cost group still gets a tiny uniform coefficient so
                // the auxiliary variables are driven to the true movement
                // (and the split deterministically prefers fewer moves).
                lp.set_objective_coefficient(m, ctx.costs[g] + 1e-9)?;
                moved_terms.push((m, 1.0));
            }
        }
        if let Some(bound) = ctx.moved_bound {
            lp.add_constraint(
                "moved_total",
                &moved_terms,
                Relation::LessEq,
                f64::from(bound) + 1e-9,
            )?;
        }
    }
    let solution = lp.solve().map_err(|err| {
        if let LpError::PivotBudgetExceeded { pivots: spent } = &err {
            *pivots += spent;
        }
        AllocError::Linprog(err)
    })?;
    *pivots += solution.pivots();
    if !solution.is_optimal() {
        return Ok(None);
    }
    Ok(Some(
        vars.iter()
            .map(|row| {
                row.iter()
                    .map(|slot| slot.map_or(0.0, |v| solution.value(v).max(0.0)))
                    .collect()
            })
            .collect(),
    ))
}

fn solve_gp(
    problem: &AllocationProblem,
    bounds: &CuBounds,
    hint_ii_ms: Option<f64>,
    dual: Option<&GpDualState>,
) -> Result<(Relaxation, RelaxStats), AllocError> {
    if problem.num_groups() == 1 {
        solve_gp_homogeneous(problem, bounds, hint_ii_ms, dual)
    } else {
        solve_gp_heterogeneous(problem, bounds, hint_ii_ms, dual)
    }
}

/// Builds a strictly interior GP start point from a relaxed-II hint: the
/// target `ÎI` is inflated by 5 % and each kernel's total sits a hair above
/// its WCET-driven (or lower-bound) count, so every latency, bound and
/// budget row has positive slack near the optimum. The GP solver verifies
/// strict feasibility anyway — a point this construction gets wrong is
/// simply ignored and the solve falls back to phase I.
fn gp_warm_counts(
    problem: &AllocationProblem,
    bounds: &CuBounds,
    hint_ii_ms: f64,
) -> Option<(f64, Vec<f64>)> {
    if !(hint_ii_ms.is_finite() && hint_ii_ms > 0.0) {
        return None;
    }
    let ii0 = hint_ii_ms * 1.05;
    let counts = problem
        .kernels()
        .iter()
        .zip(bounds)
        .map(|(kernel, &(lo, hi))| {
            let wcet_driven = kernel.wcet_ms() / ii0;
            if wcet_driven <= lo {
                // Floor kernel: sit a hair above the lower bound.
                (lo * 1.001).min(hi * 0.999)
            } else {
                // Critical kernel: 2 % above the WCET-driven count keeps the
                // latency row strictly slack while staying ~3 % below the
                // (budget-tight) optimum counts.
                (wcet_driven * 1.02).min(hi * 0.999)
            }
        })
        .collect();
    Some((ii0, counts))
}

/// The exact posynomial model over the totals `N̂_k` (single device group).
fn solve_gp_homogeneous(
    problem: &AllocationProblem,
    bounds: &CuBounds,
    hint_ii_ms: Option<f64>,
    dual: Option<&GpDualState>,
) -> Result<(Relaxation, RelaxStats), AllocError> {
    let mut gp = GpProblem::new();
    let ii = gp.add_var("II")?;
    let mut n_vars = Vec::with_capacity(problem.num_kernels());
    for kernel in problem.kernels() {
        n_vars.push(gp.add_var(format!("N_{}", kernel.name()))?);
    }
    gp.set_objective(Posynomial::monomial(1.0, &[(ii, 1.0)]));

    for (k, kernel) in problem.kernels().iter().enumerate() {
        // ÎI ≥ WCET_k / N̂_k  ⇔  WCET_k · N̂_k⁻¹ · ÎI⁻¹ ≤ 1.
        gp.add_le_constraint(
            format!("latency_{}", kernel.name()),
            Posynomial::monomial(kernel.wcet_ms(), &[(n_vars[k], -1.0), (ii, -1.0)]),
        )?;
        // The interior-point solver needs a non-empty interior, so collapsed
        // or boundary-tight bound pairs are widened by a relative epsilon;
        // the discretization rounds the result anyway. The widened lower
        // bound is clamped at 1.0 so `N̂_k ≥ 1` (Eq. 16) is never relaxed —
        // widening `lo == 1.0` downward used to let counts dip below one.
        let (lo, hi) = bounds[k];
        let lo = (lo * (1.0 - 1e-7)).max(1.0);
        let hi = hi * (1.0 + 1e-7);
        // N̂_k ≥ lo  ⇔  lo · N̂_k⁻¹ ≤ 1 (lo ≥ 1 covers Eq. 16).
        gp.add_le_constraint(
            format!("lower_{}", kernel.name()),
            Posynomial::monomial(lo, &[(n_vars[k], -1.0)]),
        )?;
        // N̂_k ≤ hi  ⇔  N̂_k / hi ≤ 1.
        gp.add_le_constraint(
            format!("upper_{}", kernel.name()),
            Posynomial::monomial(1.0 / hi, &[(n_vars[k], 1.0)]),
        )?;
    }

    let f = problem.num_fpgas() as f64;
    let resource_budget = problem.group_resource_limit(0);
    let bandwidth_budget = problem.group_bandwidth_limit(0);
    // One posynomial budget row per resource class that is actually used.
    let class_rows: [(&str, crate::report::ResourceAccessor, f64); 4] = [
        ("lut", |r| r.lut, resource_budget.lut),
        ("ff", |r| r.ff, resource_budget.ff),
        ("bram", |r| r.bram, resource_budget.bram),
        ("dsp", |r| r.dsp, resource_budget.dsp),
    ];
    for (class, accessor, limit) in class_rows {
        let mut row = Posynomial::new();
        for (k, kernel) in problem.kernels().iter().enumerate() {
            let use_per_cu = accessor(kernel.resources());
            if use_per_cu > 0.0 {
                row.push(Monomial::new(use_per_cu / (f * limit), &[(n_vars[k], 1.0)]));
            }
        }
        if !row.is_empty() {
            gp.add_le_constraint(format!("budget_{class}"), row)?;
        }
    }
    let mut bw_row = Posynomial::new();
    for (k, kernel) in problem.kernels().iter().enumerate() {
        if kernel.bandwidth() > 0.0 {
            bw_row.push(Monomial::new(
                kernel.bandwidth() / (f * bandwidth_budget),
                &[(n_vars[k], 1.0)],
            ));
        }
    }
    if !bw_row.is_empty() {
        gp.add_le_constraint("budget_bandwidth", bw_row)?;
    }

    // A relaxed-II hint seeds the interior point (variable order: II first,
    // then the totals — matching creation order above).
    let mut options = mfa_gp::SolverOptions::default();
    if let Some((ii0, counts)) = hint_ii_ms.and_then(|h| gp_warm_counts(problem, bounds, h)) {
        let mut point = Vec::with_capacity(1 + counts.len());
        point.push(ii0);
        point.extend(counts);
        options.initial_point = Some(point);
        // Neighbouring sweep points share the problem shape, so the same
        // constraint rows exist in the same order and the neighbour's
        // multipliers line up row for row; the GP solver validates the dual
        // against the seeded point and ignores anything stale.
        options.initial_dual = dual.cloned();
    }
    let solution = gp.solve_with(&options).map_err(|err| match err {
        mfa_gp::GpError::Infeasible => {
            AllocError::Infeasible("the GP relaxation has no feasible point".into())
        }
        other => AllocError::from(other),
    })?;
    let stats = RelaxStats {
        iterations: solution.newton_iterations(),
        hint_used: solution.warm_started(),
        dual_hint_used: solution.dual_warm_started(),
        barrier_iterations: solution.barrier_iterations(),
        factorizations: solution.factorizations(),
        simplex_pivots: 0,
        dual_state: solution.dual_state().cloned(),
    };
    let cu_counts: Vec<f64> = n_vars.iter().map(|&v| solution.value(v)).collect();
    Ok((
        Relaxation {
            group_cu_counts: cu_counts.iter().map(|&n| vec![n]).collect(),
            cu_counts,
            initiation_interval_ms: solution.value(ii),
        },
        stats,
    ))
}

/// The heterogeneous GP: per-group variables `N̂_{k,g}`, exact per-group
/// budget and upper-bound rows, and one latency row per kernel summing the
/// group contributions. The group sum in a denominator is not posynomial, so
/// the latency (and lower-bound) rows condense `Σ_g N̂_{k,g}` into its best
/// monomial approximation `S₀·Π_g (N̂_{k,g}/x₀_{k,g})^{α_{k,g}}` with
/// `α = x₀/S₀`, anchored at the exact bisection optimum `x₀` — where the
/// approximation is tight (AM–GM), so the condensed GP shares the true
/// optimum and the solve stays a single interior-point run.
// `vars` is indexed `[kernel][group]`; see `distribute_over_groups`.
#[allow(clippy::needless_range_loop)]
fn solve_gp_heterogeneous(
    problem: &AllocationProblem,
    bounds: &CuBounds,
    hint_ii_ms: Option<f64>,
    dual: Option<&GpDualState>,
) -> Result<(Relaxation, RelaxStats), AllocError> {
    let (anchor, anchor_stats) = solve_bisection(problem, bounds, hint_ii_ms)?;
    let groups = problem.num_groups();
    let num_kernels = problem.num_kernels();

    let mut gp = GpProblem::new();
    let ii = gp.add_var("II")?;
    let mut vars: Vec<Vec<Option<mfa_gp::GpVarId>>> = vec![vec![None; groups]; num_kernels];
    for (k, kernel) in problem.kernels().iter().enumerate() {
        for g in 0..groups {
            // Only groups the anchor actually uses get a variable: GP
            // variables are strictly positive, and the condensation is
            // anchored where the optimum lies anyway.
            if anchor.group_cu_counts[k][g] > 1e-9 {
                vars[k][g] = Some(gp.add_var(format!("N_{}_{g}", kernel.name()))?);
            }
        }
    }
    gp.set_objective(Posynomial::monomial(1.0, &[(ii, 1.0)]));

    for (k, kernel) in problem.kernels().iter().enumerate() {
        let active: Vec<usize> = (0..groups).filter(|&g| vars[k][g].is_some()).collect();
        let s0: f64 = active
            .iter()
            .map(|&g| anchor.group_cu_counts[k][g])
            .sum::<f64>();
        // Exponents and constant of the condensed monomial m_k ≈ Σ_g N̂_{k,g}:
        // m_k = S₀ · Π (N̂_{k,g}/x₀_g)^{α_g}, so
        // m_k⁻¹ = (1/S₀) · Π x₀_g^{α_g} · Π N̂_{k,g}^{-α_g}.
        let alphas: Vec<f64> = active
            .iter()
            .map(|&g| anchor.group_cu_counts[k][g] / s0)
            .collect();
        let m_inv_coeff: f64 = active
            .iter()
            .zip(&alphas)
            .map(|(&g, &a)| anchor.group_cu_counts[k][g].powf(a))
            .product::<f64>()
            / s0;
        let inv_exponents: Vec<(mfa_gp::GpVarId, f64)> = active
            .iter()
            .zip(&alphas)
            .map(|(&g, &a)| (vars[k][g].expect("active"), -a))
            .collect();
        // Latency: WCET_k · ÎI⁻¹ · m_k⁻¹ ≤ 1.
        let mut latency_exponents = vec![(ii, -1.0)];
        latency_exponents.extend(inv_exponents.iter().copied());
        gp.add_le_constraint(
            format!("latency_{}", kernel.name()),
            Posynomial::monomial(kernel.wcet_ms() * m_inv_coeff, &latency_exponents),
        )?;
        let (lo, hi) = bounds[k];
        // Lower bound on the total: lo · m_k⁻¹ ≤ 1 (clamped at 1.0 so Eq. 16
        // is never relaxed by the interior widening).
        let lo = (lo * (1.0 - 1e-7)).max(1.0);
        gp.add_le_constraint(
            format!("lower_{}", kernel.name()),
            Posynomial::monomial(lo * m_inv_coeff, &inv_exponents),
        )?;
        // Upper bound on the total is exactly posynomial: Σ_g N̂_{k,g}/hi ≤ 1.
        let hi = hi * (1.0 + 1e-7);
        let mut upper = Posynomial::new();
        for &g in &active {
            upper.push(Monomial::new(
                1.0 / hi,
                &[(vars[k][g].expect("active"), 1.0)],
            ));
        }
        gp.add_le_constraint(format!("upper_{}", kernel.name()), upper)?;
    }

    // Per-group aggregated budget rows (exactly posynomial), under each
    // group's own scaled limits.
    for g in 0..groups {
        let fpgas = problem.group_count(g) as f64;
        let group_limit = problem.group_resource_limit(g);
        let class_rows: [(&str, crate::report::ResourceAccessor, f64); 4] = [
            ("lut", |r| r.lut, group_limit.lut),
            ("ff", |r| r.ff, group_limit.ff),
            ("bram", |r| r.bram, group_limit.bram),
            ("dsp", |r| r.dsp, group_limit.dsp),
        ];
        for (class, accessor, limit) in class_rows {
            let mut row = Posynomial::new();
            for k in 0..num_kernels {
                let Some(var) = vars[k][g] else { continue };
                let use_per_cu = accessor(&problem.kernel_resources_on(k, g));
                if use_per_cu > 0.0 {
                    row.push(Monomial::new(use_per_cu / (fpgas * limit), &[(var, 1.0)]));
                }
            }
            if !row.is_empty() {
                gp.add_le_constraint(format!("budget_{class}_{g}"), row)?;
            }
        }
        let mut bw_row = Posynomial::new();
        for k in 0..num_kernels {
            let Some(var) = vars[k][g] else { continue };
            let bw = problem.kernel_bandwidth_on(k, g);
            if bw > 0.0 {
                bw_row.push(Monomial::new(
                    bw / (fpgas * problem.group_bandwidth_limit(g)),
                    &[(var, 1.0)],
                ));
            }
        }
        if !bw_row.is_empty() {
            gp.add_le_constraint(format!("budget_bandwidth_{g}"), bw_row)?;
        }
    }

    // A hint the anchor bisection verified and consumed seeds the interior
    // point from the (exact) anchor:
    // II is inflated by 5 % and each kernel's group split is scaled by
    // `max(0.98, 1.001·lo/S₀)` — strictly inside the budget rows for
    // critical kernels, a hair above the lower bound for floor kernels. The
    // condensed latency monomials are degree-one in a uniform per-kernel
    // scaling, so the same slack analysis as the homogeneous case applies;
    // anything this construction gets wrong is rejected by the GP solver's
    // strict-feasibility check and the solve falls back to phase I.
    let mut options = mfa_gp::SolverOptions::default();
    if anchor_stats.hint_used {
        let mut point = vec![anchor.initiation_interval_ms * 1.05];
        for (k, row) in vars.iter().enumerate() {
            let s0: f64 = anchor.group_cu_counts[k].iter().sum();
            let (lo, _) = bounds[k];
            let scale = (1.001 * lo / s0.max(f64::MIN_POSITIVE)).max(0.98);
            for (g, slot) in row.iter().enumerate() {
                if slot.is_some() {
                    point.push(anchor.group_cu_counts[k][g] * scale);
                }
            }
        }
        options.initial_point = Some(point);
        // The condensed model's constraint layout depends on which groups
        // the anchor activates; when a neighbour's anchor differs, the
        // multiplier count no longer matches and the GP solver's dual
        // validation silently drops the hint.
        options.initial_dual = dual.cloned();
    }
    let solution = gp.solve_with(&options).map_err(|err| match err {
        mfa_gp::GpError::Infeasible => {
            AllocError::Infeasible("the GP relaxation has no feasible point".into())
        }
        other => AllocError::from(other),
    })?;
    let stats = RelaxStats {
        iterations: solution.newton_iterations(),
        // The seed above exists only when the bisection verified and
        // consumed the hint, so a rejected hint never claims provenance.
        hint_used: anchor_stats.hint_used,
        dual_hint_used: solution.dual_warm_started(),
        barrier_iterations: solution.barrier_iterations(),
        factorizations: solution.factorizations(),
        simplex_pivots: anchor_stats.simplex_pivots,
        dual_state: solution.dual_state().cloned(),
    };
    let group_cu_counts: Vec<Vec<f64>> = vars
        .iter()
        .map(|row| {
            row.iter()
                .map(|slot| slot.map_or(0.0, |v| solution.value(v)))
                .collect()
        })
        .collect();
    Ok((
        Relaxation {
            cu_counts: group_cu_counts.iter().map(|row| row.iter().sum()).collect(),
            group_cu_counts,
            initiation_interval_ms: solution.value(ii),
        },
        stats,
    ))
}

/// Assembles a [`Relaxation`] from feasible totals, water-filling them
/// across device groups (trivial on a single group).
fn relaxation_from_totals(
    problem: &AllocationProblem,
    cu_counts: Vec<f64>,
    initiation_interval_ms: f64,
    pivots: &mut usize,
) -> Result<Relaxation, AllocError> {
    let group_cu_counts = distribute_over_groups(problem, &cu_counts, pivots)?
        .expect("totals were verified feasible before assembling the relaxation");
    Ok(Relaxation {
        cu_counts,
        group_cu_counts,
        initiation_interval_ms,
    })
}

/// Analytic solution by bisection on `ÎI`.
fn solve_bisection(
    problem: &AllocationProblem,
    bounds: &CuBounds,
    hint_ii_ms: Option<f64>,
) -> Result<(Relaxation, RelaxStats), AllocError> {
    // For a target II the cheapest feasible counts are the WCET-driven counts
    // clamped into the node bounds; feasibility of the aggregated budgets is
    // monotone in II (larger II → fewer CUs → less resource use, and any
    // group water-filling of larger totals scales down to smaller ones).
    let counts_for = |ii: f64| -> Vec<f64> {
        problem
            .kernels()
            .iter()
            .zip(bounds)
            .map(|(kernel, &(lo, hi))| (kernel.wcet_ms() / ii).max(lo).min(hi))
            .collect()
    };
    // The largest II anyone needs is when every kernel sits at its lower
    // bound; that configuration is feasible (checked by the caller).
    let mut hi = problem
        .kernels()
        .iter()
        .zip(bounds)
        .map(|(kernel, &(lo, _))| kernel.wcet_ms() / lo)
        .fold(0.0_f64, f64::max);
    // Lower limit: every kernel at its upper bound.
    let mut lo = problem
        .kernels()
        .iter()
        .zip(bounds)
        .map(|(kernel, &(_, hi_k))| kernel.wcet_ms() / hi_k)
        .fold(0.0_f64, f64::max);
    let mut pivots = 0usize;
    if budgets_allow(problem, &counts_for(lo), &mut pivots)? {
        let relaxation = relaxation_from_totals(problem, counts_for(lo), lo, &mut pivots)?;
        return Ok((
            relaxation,
            RelaxStats {
                simplex_pivots: pivots,
                ..RelaxStats::default()
            },
        ));
    }
    // A warm-start hint from a neighbouring solve narrows the bracket. The
    // bisection invariants (lo infeasible, hi feasible) are re-verified on
    // each candidate endpoint, so a bad hint merely costs two feasibility
    // evaluations and the optimum is unchanged.
    let mut hint_used = false;
    if let Some(hint) = hint_ii_ms {
        if hint.is_finite() && hint > 0.0 {
            let cand_hi = (hint * 1.05).min(hi);
            if cand_hi > lo && budgets_allow(problem, &counts_for(cand_hi), &mut pivots)? {
                hi = cand_hi;
                hint_used = true;
            }
            let cand_lo = (hint * 0.95).max(lo);
            if cand_lo < hi && !budgets_allow(problem, &counts_for(cand_lo), &mut pivots)? {
                lo = cand_lo;
                hint_used = true;
            }
        }
    }
    let mut iterations = 0usize;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        iterations += 1;
        if budgets_allow(problem, &counts_for(mid), &mut pivots)? {
            hi = mid;
        } else {
            lo = mid;
        }
        if (hi - lo) <= 1e-12 * hi.max(1.0) {
            break;
        }
    }
    let relaxation = relaxation_from_totals(problem, counts_for(hi), hi, &mut pivots)?;
    Ok((
        relaxation,
        RelaxStats {
            iterations,
            hint_used,
            simplex_pivots: pivots,
            ..RelaxStats::default()
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_data;
    use crate::problem::{GoalWeights, Kernel};
    use mfa_platform::{MultiFpgaPlatform, ResourceBudget, ResourceVec};
    use proptest::prelude::*;

    fn two_kernel_problem() -> AllocationProblem {
        AllocationProblem::builder()
            .kernels(vec![
                Kernel::new("a", 3.0, ResourceVec::bram_dsp(0.0, 0.2), 0.0).unwrap(),
                Kernel::new("b", 5.0, ResourceVec::bram_dsp(0.0, 0.3), 0.0).unwrap(),
            ])
            .platform(MultiFpgaPlatform::aws_f1_2xlarge())
            .budget(ResourceBudget::uniform(1.0))
            .weights(GoalWeights::ii_only())
            .build()
            .unwrap()
    }

    /// The toy problem has the closed-form optimum II = 2.1 (both kernels
    /// critical, DSP budget tight): 0.2·3/II + 0.3·5/II = 1.
    #[test]
    fn backends_agree_on_closed_form_optimum() {
        let p = two_kernel_problem();
        let gp = solve(&p, RelaxationBackend::GeometricProgram).unwrap();
        let bis = solve(&p, RelaxationBackend::Bisection).unwrap();
        assert!(
            (gp.initiation_interval_ms - 2.1).abs() < 1e-3,
            "GP: {}",
            gp.initiation_interval_ms
        );
        assert!((bis.initiation_interval_ms - 2.1).abs() < 1e-6);
        for (a, b) in gp.cu_counts.iter().zip(&bis.cu_counts) {
            assert!((a - b).abs() < 1e-2, "counts differ: {a} vs {b}");
        }
    }

    #[test]
    fn bounded_relaxation_respects_bounds() {
        let p = two_kernel_problem();
        let bounds = vec![(1.0, 1.0), (1.0, 10.0)];
        let (r, _) =
            relax_bounded_hinted(&p, &bounds, RelaxationBackend::Bisection, None, None).unwrap();
        assert!((r.cu_counts[0] - 1.0).abs() < 1e-9);
        // Kernel a fixed at one CU → II at least 3.
        assert!(r.initiation_interval_ms >= 3.0 - 1e-9);
    }

    #[test]
    fn warm_start_hint_does_not_change_the_optimum() {
        let p = two_kernel_problem();
        let cold = solve(&p, RelaxationBackend::Bisection).unwrap();
        // Good, slightly-off, wildly wrong and degenerate hints all converge
        // to the same optimum because the bracket endpoints are verified.
        for hint in [
            cold.initiation_interval_ms,
            cold.initiation_interval_ms * 0.97,
            cold.initiation_interval_ms * 1.03,
            0.01,
            1_000.0,
            f64::NAN,
            -1.0,
        ] {
            let (warm, _) =
                relax_hinted(&p, RelaxationBackend::Bisection, Some(hint), None).unwrap();
            assert!(
                (warm.initiation_interval_ms - cold.initiation_interval_ms).abs()
                    < 1e-9 * cold.initiation_interval_ms.max(1.0),
                "hint {hint}: warm {} vs cold {}",
                warm.initiation_interval_ms,
                cold.initiation_interval_ms
            );
        }
    }

    #[test]
    fn good_hints_narrow_the_bisection_bracket() {
        let p = two_kernel_problem();
        let (cold, cold_stats) =
            relax_hinted(&p, RelaxationBackend::Bisection, None, None).unwrap();
        assert!(!cold_stats.hint_used);
        let (warm, warm_stats) = relax_hinted(
            &p,
            RelaxationBackend::Bisection,
            Some(cold.initiation_interval_ms),
            None,
        )
        .unwrap();
        assert!(warm_stats.hint_used);
        assert!(
            warm_stats.iterations < cold_stats.iterations,
            "warm {} vs cold {} bisection steps",
            warm_stats.iterations,
            cold_stats.iterations
        );
        assert!(
            (warm.initiation_interval_ms - cold.initiation_interval_ms).abs()
                < 1e-9 * cold.initiation_interval_ms
        );
    }

    #[test]
    fn gp_backend_consumes_the_hint_as_an_interior_start() {
        let p = two_kernel_problem();
        let (cold, cold_stats) =
            relax_hinted(&p, RelaxationBackend::GeometricProgram, None, None).unwrap();
        assert!(!cold_stats.hint_used);
        let (warm, warm_stats) = relax_hinted(
            &p,
            RelaxationBackend::GeometricProgram,
            Some(cold.initiation_interval_ms),
            None,
        )
        .unwrap();
        assert!(warm_stats.hint_used, "hint point rejected");
        assert!(
            warm_stats.iterations < cold_stats.iterations,
            "warm {} vs cold {} Newton steps",
            warm_stats.iterations,
            cold_stats.iterations
        );
        assert!(
            (warm.initiation_interval_ms - cold.initiation_interval_ms).abs()
                < 1e-4 * cold.initiation_interval_ms
        );
    }

    /// Tentpole contract: handing the GP backend the previous solve's dual
    /// state on top of the primal hint strictly reduces barrier iterations
    /// and KKT factorizations, and the optimum is unchanged.
    #[test]
    fn dual_hints_cut_barrier_iterations_and_factorizations() {
        let p = two_kernel_problem();
        let (cold, cold_stats) =
            relax_hinted(&p, RelaxationBackend::GeometricProgram, None, None).unwrap();
        let dual = cold_stats
            .dual_state
            .clone()
            .expect("the GP backend reports its final dual state");
        let hint = Some(cold.initiation_interval_ms);
        let (_, primal_stats) =
            relax_hinted(&p, RelaxationBackend::GeometricProgram, hint, None).unwrap();
        let (warm, warm_stats) =
            relax_hinted(&p, RelaxationBackend::GeometricProgram, hint, Some(&dual)).unwrap();
        assert!(!primal_stats.dual_hint_used);
        assert!(warm_stats.hint_used && warm_stats.dual_hint_used);
        assert!(
            warm_stats.barrier_iterations < cold_stats.barrier_iterations,
            "dual-warm {} vs cold {} barrier iterations",
            warm_stats.barrier_iterations,
            cold_stats.barrier_iterations
        );
        assert!(
            warm_stats.factorizations < cold_stats.factorizations,
            "dual-warm {} vs cold {} factorizations",
            warm_stats.factorizations,
            cold_stats.factorizations
        );
        assert!(
            (warm.initiation_interval_ms - cold.initiation_interval_ms).abs()
                < 1e-4 * cold.initiation_interval_ms
        );
    }

    /// The effort counters separate the substrates: bisection on a
    /// heterogeneous fleet spends simplex pivots but no barrier iterations,
    /// the GP backend the other way around (plus the anchor's pivots).
    #[test]
    fn effort_counters_attribute_work_to_the_right_substrate() {
        let p = mixed_fleet_problem(0.6);
        let (_, bis) = relax_hinted(&p, RelaxationBackend::Bisection, None, None).unwrap();
        assert!(bis.simplex_pivots > 0, "water-filling probes pivot");
        assert_eq!(bis.barrier_iterations, 0);
        assert_eq!(bis.factorizations, 0);
        assert!(bis.dual_state.is_none());
        let (_, gp) = relax_hinted(&p, RelaxationBackend::GeometricProgram, None, None).unwrap();
        assert!(gp.barrier_iterations > 0);
        assert!(gp.factorizations > 0);
        assert!(gp.simplex_pivots > 0, "the anchor bisection pivots");
        assert!(gp.dual_state.is_some());
        // Single-group problems never touch the LP.
        let (_, homo) = relax_hinted(
            &two_kernel_problem(),
            RelaxationBackend::Bisection,
            None,
            None,
        )
        .unwrap();
        assert_eq!(homo.simplex_pivots, 0);
    }

    /// Regression for the interior-widening bug: with a bound pair pinned at
    /// `(1.0, 1.0)` the widened lower bound used to become `1 − 1e-7`, and a
    /// kernel under downward resource pressure converged below one CU,
    /// violating Eq. 16. The widened lower bound is now clamped at 1.0.
    #[test]
    fn gp_lower_bound_clamps_at_one_cu() {
        // Kernel "a" is resource-heavy but latency-light, so the optimizer
        // pushes N̂_a down to free DSPs for the bottleneck kernel "b".
        let p = AllocationProblem::builder()
            .kernels(vec![
                Kernel::new("a", 0.1, ResourceVec::bram_dsp(0.0, 0.5), 0.0).unwrap(),
                Kernel::new("b", 5.0, ResourceVec::bram_dsp(0.0, 0.3), 0.0).unwrap(),
            ])
            .platform(MultiFpgaPlatform::aws_f1_2xlarge())
            .budget(ResourceBudget::uniform(1.0))
            .weights(GoalWeights::ii_only())
            .build()
            .unwrap();
        let bounds = vec![(1.0, 1.0), (1.0, 10.0)];
        let (r, _) =
            relax_bounded_hinted(&p, &bounds, RelaxationBackend::GeometricProgram, None, None)
                .unwrap();
        assert!(
            r.cu_counts[0] >= 1.0 - 1e-8,
            "N̂_a = {} dips below the Eq. 16 floor",
            r.cu_counts[0]
        );
    }

    fn mixed_fleet_problem(budget: f64) -> AllocationProblem {
        use mfa_platform::{DeviceGroup, FpgaDevice, HeterogeneousPlatform};
        AllocationProblem::builder()
            .kernels(vec![
                Kernel::new("a", 3.0, ResourceVec::bram_dsp(0.02, 0.2), 0.01).unwrap(),
                Kernel::new("b", 5.0, ResourceVec::bram_dsp(0.02, 0.3), 0.01).unwrap(),
                Kernel::new("c", 8.0, ResourceVec::bram_dsp(0.05, 0.15), 0.02).unwrap(),
            ])
            .platform(HeterogeneousPlatform::new(
                "2×VU9P + 2×KU115",
                vec![
                    DeviceGroup::new(FpgaDevice::vu9p(), 2),
                    DeviceGroup::new(FpgaDevice::ku115(), 2),
                ],
            ))
            .budget(ResourceBudget::uniform(budget))
            .weights(GoalWeights::ii_only())
            .build()
            .unwrap()
    }

    #[test]
    fn heterogeneous_backends_agree_within_two_percent() {
        for budget in [0.4, 0.6, 0.8] {
            let p = mixed_fleet_problem(budget);
            let bis = solve(&p, RelaxationBackend::Bisection).unwrap();
            let gp = solve(&p, RelaxationBackend::GeometricProgram).unwrap();
            assert!(
                (gp.initiation_interval_ms - bis.initiation_interval_ms).abs()
                    < 0.02 * bis.initiation_interval_ms,
                "budget {budget}: GP {} vs bisection {}",
                gp.initiation_interval_ms,
                bis.initiation_interval_ms
            );
            for (a, b) in gp.cu_counts.iter().zip(&bis.cu_counts) {
                assert!(
                    (a - b).abs() < 0.05 * b.max(1.0),
                    "counts differ: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn heterogeneous_group_counts_sum_to_totals_and_respect_budgets() {
        let p = mixed_fleet_problem(0.6);
        let r = solve(&p, RelaxationBackend::Bisection).unwrap();
        assert_eq!(r.group_cu_counts.len(), p.num_kernels());
        for (k, row) in r.group_cu_counts.iter().enumerate() {
            assert_eq!(row.len(), p.num_groups());
            let total: f64 = row.iter().sum();
            assert!(
                (total - r.cu_counts[k]).abs() < 1e-6 * r.cu_counts[k].max(1.0),
                "kernel {k}: group split {total} vs total {}",
                r.cu_counts[k]
            );
        }
        // Every group's aggregated DSP budget holds for the split.
        for g in 0..p.num_groups() {
            let used: f64 = (0..p.num_kernels())
                .map(|k| r.group_cu_counts[k][g] * p.kernel_resources_on(k, g).dsp)
                .sum();
            let limit = p.group_count(g) as f64 * p.budget().resource_fraction().dsp;
            assert!(used <= limit + 1e-6, "group {g}: {used} > {limit}");
        }
    }

    #[test]
    fn heterogeneous_relaxation_beats_the_reference_group_alone() {
        // The mixed fleet has strictly more capacity than its first group, so
        // the relaxed II must improve on (or match) the 2×VU9P sub-platform.
        let fleet = mixed_fleet_problem(0.6);
        let sub = AllocationProblem::builder()
            .kernels(fleet.kernels().to_vec())
            .platform(MultiFpgaPlatform::aws_f1_4xlarge())
            .budget(ResourceBudget::uniform(0.6))
            .weights(GoalWeights::ii_only())
            .build()
            .unwrap();
        let fleet_r = solve(&fleet, RelaxationBackend::Bisection).unwrap();
        let sub_r = solve(&sub, RelaxationBackend::Bisection).unwrap();
        assert!(fleet_r.initiation_interval_ms <= sub_r.initiation_interval_ms + 1e-9);
    }

    #[test]
    fn homogeneous_relaxation_reports_single_group_counts() {
        let p = two_kernel_problem();
        let r = solve(&p, RelaxationBackend::Bisection).unwrap();
        assert_eq!(r.group_cu_counts.len(), 2);
        for (k, row) in r.group_cu_counts.iter().enumerate() {
            assert_eq!(row.len(), 1);
            assert_eq!(row[0], r.cu_counts[k]);
        }
    }

    #[test]
    fn invalid_bounds_are_rejected() {
        let p = two_kernel_problem();
        let bounded = |bounds: &[(f64, f64)]| {
            relax_bounded_hinted(&p, bounds, RelaxationBackend::Bisection, None, None)
        };
        assert!(bounded(&[(1.0, 2.0)]).is_err());
        assert!(bounded(&[(0.0, 2.0), (1.0, 2.0)]).is_err());
        assert!(bounded(&[(3.0, 2.0), (1.0, 2.0)]).is_err());
    }

    #[test]
    fn infeasible_budget_is_detected() {
        let p = AllocationProblem::builder()
            .kernels(vec![
                Kernel::new("a", 3.0, ResourceVec::bram_dsp(0.0, 0.6), 0.0).unwrap(),
                Kernel::new("b", 5.0, ResourceVec::bram_dsp(0.0, 0.6), 0.0).unwrap(),
            ])
            .platform(MultiFpgaPlatform::aws_f1_2xlarge())
            .budget(ResourceBudget::uniform(0.5))
            .build()
            .unwrap();
        assert!(matches!(
            solve(&p, RelaxationBackend::Bisection),
            Err(AllocError::Infeasible(_))
        ));
    }

    /// Paper case: Alex-16 on 2 FPGAs. The relaxed II must lie below the
    /// single-CU bottleneck (6.7 ms) and above the fully replicated bound.
    #[test]
    fn alex16_relaxation_is_sensible() {
        let app = paper_data::alexnet_16bit();
        let p = AllocationProblem::from_application(app, 2, 0.65, GoalWeights::ii_only()).unwrap();
        let r = solve(&p, RelaxationBackend::Bisection).unwrap();
        assert!(r.initiation_interval_ms < 6.7);
        assert!(r.initiation_interval_ms > 0.3);
        // Every kernel gets at least one CU.
        assert!(r.cu_counts.iter().all(|&n| n >= 1.0 - 1e-9));
        // The aggregate budget is respected.
        let gp = solve(&p, RelaxationBackend::GeometricProgram).unwrap();
        assert!(
            (gp.initiation_interval_ms - r.initiation_interval_ms).abs()
                < 0.02 * r.initiation_interval_ms,
            "GP {} vs bisection {}",
            gp.initiation_interval_ms,
            r.initiation_interval_ms
        );
    }

    /// On the paper's three cases the two backends reach the same relaxed II
    /// (measured: at most 1.3e-9 relative over 0.55–0.85), so GP+A may use
    /// either.
    #[test]
    fn backends_agree_on_the_paper_cases() {
        for case in crate::cases::PaperCase::all() {
            for constraint in [0.55, 0.70, 0.85] {
                let p = case.problem(constraint).unwrap();
                let gp = solve(&p, RelaxationBackend::GeometricProgram).unwrap();
                let bis = solve(&p, RelaxationBackend::Bisection).unwrap();
                let relative = (gp.initiation_interval_ms - bis.initiation_interval_ms).abs()
                    / bis.initiation_interval_ms;
                assert!(
                    relative < 1e-6,
                    "{} at {constraint}: GP {} vs bisection {}",
                    case.label(),
                    gp.initiation_interval_ms,
                    bis.initiation_interval_ms
                );
            }
        }
    }

    proptest! {
        /// On random two-kernel problems the two backends agree.
        #[test]
        fn backends_agree_on_random_problems(
            wcet_a in 1.0..20.0f64,
            wcet_b in 1.0..20.0f64,
            dsp_a in 0.05..0.3f64,
            dsp_b in 0.05..0.3f64,
            budget in 0.5..1.0f64
        ) {
            let p = AllocationProblem::builder()
                .kernels(vec![
                    Kernel::new("a", wcet_a, ResourceVec::bram_dsp(0.01, dsp_a), 0.01).unwrap(),
                    Kernel::new("b", wcet_b, ResourceVec::bram_dsp(0.01, dsp_b), 0.01).unwrap(),
                ])
                .platform(MultiFpgaPlatform::aws_f1_4xlarge())
                .budget(ResourceBudget::uniform(budget))
                .build()
                .unwrap();
            let gp = solve(&p, RelaxationBackend::GeometricProgram).unwrap();
            let bis = solve(&p, RelaxationBackend::Bisection).unwrap();
            let tol = 0.02 * bis.initiation_interval_ms.max(0.1);
            prop_assert!((gp.initiation_interval_ms - bis.initiation_interval_ms).abs() < tol,
                "GP {} vs bisection {}", gp.initiation_interval_ms, bis.initiation_interval_ms);
        }

        /// The relaxed II never exceeds the single-CU bottleneck and never
        /// goes below the everything-maximally-replicated bound.
        #[test]
        fn relaxation_is_bracketed(
            wcets in proptest::collection::vec(1.0..30.0f64, 2..6),
            budget in 0.4..1.0f64
        ) {
            let kernels: Vec<Kernel> = wcets
                .iter()
                .enumerate()
                .map(|(i, &w)| {
                    Kernel::new(format!("k{i}"), w, ResourceVec::bram_dsp(0.02, 0.1), 0.01)
                        .unwrap()
                })
                .collect();
            let p = AllocationProblem::builder()
                .kernels(kernels)
                .platform(MultiFpgaPlatform::aws_f1_4xlarge())
                .budget(ResourceBudget::uniform(budget))
                .build()
                .unwrap();
            let r = solve(&p, RelaxationBackend::Bisection).unwrap();
            let bottleneck = wcets.iter().cloned().fold(0.0f64, f64::max);
            prop_assert!(r.initiation_interval_ms <= bottleneck + 1e-9);
            prop_assert!(r.initiation_interval_ms > 0.0);
        }
    }
}
