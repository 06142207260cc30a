//! The complete GP+A heuristic: geometric-programming relaxation,
//! discretization, greedy allocation.
//!
//! This is the paper's fast path (Sec. 3.2): it reaches essentially the same
//! initiation interval as the exact MINLP while running orders of magnitude
//! faster, which is what makes design-space exploration over resource
//! constraints and FPGA counts practical.
//!
//! The pipeline is driven through [`crate::solver::SolveRequest`] with
//! [`crate::solver::Backend::Gpa`]; this module defines its [`GpaOptions`]
//! and hosts the pipeline implementation. Warm starts (the relaxed-`ÎI`
//! bracket hint and the integer-counts incumbent), deadlines and node
//! budgets all arrive as request fields.

use std::time::Instant;

use crate::discretize::{self, DiscretizeOptions};
use crate::gp_step::{self, RelaxationBackend};
use crate::greedy::{self, GreedyOptions};
use crate::problem::AllocationProblem;
use crate::realloc::{MigrationOutcome, ReallocContext};
use crate::solution::Allocation;
use crate::solver::{
    check_deadline, Deadline, SolveDiagnostics, SolveReport, StageTiming, WarmStart,
    WarmStartReport,
};
use crate::AllocError;

/// Conventional label of the GP+A pipeline, shared by the backend registry,
/// the trait impl and the report so the three cannot drift.
pub(crate) const GPA_LABEL: &str = "GP+A";

/// Options of the GP+A heuristic.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GpaOptions {
    /// Backend for the continuous relaxation (default: the GP solver, as in
    /// the paper; the discretization step always uses the fast bisection
    /// engine for its node relaxations).
    pub relaxation_backend: RelaxationBackend,
    /// Discretization options.
    pub discretize: DiscretizeOptions,
    /// Greedy-allocator options (`T`, `Δ`).
    pub greedy: GreedyOptions,
}

impl GpaOptions {
    /// Options matching the paper's final configuration: GP relaxation,
    /// `T = 0`, `Δ = 1 %`.
    pub fn paper_defaults() -> Self {
        GpaOptions::default()
    }

    /// Fast configuration using the bisection backend everywhere (used inside
    /// large design-space sweeps).
    pub fn fast() -> Self {
        GpaOptions {
            relaxation_backend: RelaxationBackend::Bisection,
            ..GpaOptions::default()
        }
    }
}

/// Runs the full GP+A pipeline for [`crate::solver::Backend::Gpa`]: the
/// continuous relaxation (hinted by `warm.relaxed_ii_ms`), the discretization
/// branch-and-bound (seeded by `warm.cu_counts`), and the greedy placement
/// with its CU-shedding feasibility fallback.
///
/// # Errors
///
/// Propagates infeasibility and solver failures from the three steps, and
/// [`AllocError::DeadlineExceeded`] when the deadline expires at a stage
/// boundary or inside the discretization search; see [`AllocError`].
pub(crate) fn run_pipeline(
    problem: &AllocationProblem,
    options: &GpaOptions,
    warm: &WarmStart,
    deadline: Option<&Deadline>,
    node_budget: Option<usize>,
) -> Result<SolveReport, AllocError> {
    let start = Instant::now();
    problem.validate_feasibility()?;

    check_deadline(deadline, "relaxation")?;
    let relaxation_start = Instant::now();
    let dual_hint = warm.gp_dual.as_ref().map(mfa_gp::GpDualState::from);
    let (relaxation, relax_stats) = gp_step::relax_hinted(
        problem,
        options.relaxation_backend,
        warm.relaxed_ii_ms,
        dual_hint.as_ref(),
    )?;
    let relaxation_time = relaxation_start.elapsed();

    check_deadline(deadline, "discretization")?;
    let discretization_start = Instant::now();
    let (discrete, incumbent_used) = discretize::solve_seeded_inner(
        problem,
        &options.discretize,
        warm.cu_counts.as_deref(),
        deadline,
        node_budget,
    )?;
    let discretization_time = discretization_start.elapsed();

    check_deadline(deadline, "allocation")?;
    let allocation_start = Instant::now();
    let (allocation, mut cu_counts, dropped_cus) =
        place_with_drops(problem, discrete.cu_counts, &options.greedy, deadline)?;
    let allocation = snap_to_incumbent(problem, allocation)?;
    if problem.migration_active() {
        // The snap may have shed surplus CUs; keep the reported counts in
        // sync with what the allocation actually realizes.
        cu_counts = (0..allocation.num_kernels())
            .map(|k| allocation.total_cus(k))
            .collect();
    }
    let allocation_time = allocation_start.elapsed();

    let achieved = allocation.initiation_interval(problem);
    let relaxed = relaxation.initiation_interval_ms;
    Ok(SolveReport {
        allocation,
        backend: GPA_LABEL.to_owned(),
        diagnostics: SolveDiagnostics {
            relaxed_ii_ms: Some(relaxed),
            relaxation_gap: Some((achieved - relaxed).max(0.0) / relaxed.max(f64::MIN_POSITIVE)),
            proven_optimal: None,
            cu_counts,
            dropped_cus,
            bb_nodes: discrete.nodes_explored,
            moved_cus: 0,
            migration_cost: 0.0,
            relaxation_iterations: relax_stats.iterations,
            barrier_iterations: relax_stats.barrier_iterations,
            factorizations: relax_stats.factorizations,
            simplex_pivots: relax_stats.simplex_pivots,
            gp_dual: relax_stats
                .dual_state
                .as_ref()
                .map(crate::solver::DualWarmStart::from),
            warm_start: WarmStartReport {
                ii_hint_used: relax_stats.hint_used,
                dual_hint_used: relax_stats.dual_hint_used,
                incumbent_used,
            },
            degraded_from: None,
            timing: StageTiming {
                total: start.elapsed(),
                relaxation: relaxation_time,
                discretization: discretization_time,
                allocation: allocation_time,
            },
        },
    })
}

/// Places integer counts with the greedy allocator, shedding CUs one at a
/// time when no bin packing exists. Shared by the GP+A pipeline and the
/// greedy backend.
///
/// The discretized counts saturate the aggregated budget, so at very tight
/// resource constraints a perfect bin packing may not exist and Algorithm 1
/// cannot place every CU even after relaxing by `T`. In that case one CU is
/// dropped and the placement is retried — the heuristic then trades a little
/// II for feasibility, which is exactly the behaviour the paper reports for
/// GP+A at the low end of the constraint range. The victim is the kernel
/// whose drop yields the smallest *resulting pipeline* II
/// (`max_k WCET_k / N_k` after the drop), not merely the smallest own
/// post-drop latency: the pipeline runs at the maximum over kernels, so that
/// maximum is what the choice must minimize. Ties are broken by the victim's
/// own post-drop latency, then by kernel index, keeping the loop
/// deterministic.
///
/// # Errors
///
/// Propagates placement failures once no kernel has a CU left to shed, and
/// [`AllocError::DeadlineExceeded`] when the deadline expires between
/// placement attempts.
pub(crate) fn place_with_drops(
    problem: &AllocationProblem,
    mut cu_counts: Vec<u32>,
    greedy_options: &GreedyOptions,
    deadline: Option<&Deadline>,
) -> Result<(Allocation, Vec<u32>, Vec<u32>), AllocError> {
    let mut dropped_cus = vec![0u32; problem.num_kernels()];
    let allocation = loop {
        check_deadline(deadline, "allocation")?;
        match greedy::allocate(problem, &cu_counts, greedy_options) {
            Ok(allocation) => break allocation,
            Err(err @ AllocError::AllocationFailed { .. }) => {
                let pipeline_ii_after_dropping = |k: usize| -> f64 {
                    (0..problem.num_kernels())
                        .map(|j| {
                            let n = cu_counts[j] - u32::from(j == k);
                            problem.kernels()[j].wcet_ms() / n.max(1) as f64
                        })
                        .fold(0.0, f64::max)
                };
                let own_ii_after =
                    |k: usize| problem.kernels()[k].wcet_ms() / (cu_counts[k] - 1).max(1) as f64;
                let victim = (0..problem.num_kernels())
                    .filter(|&k| cu_counts[k] > 1)
                    .min_by(|&a, &b| {
                        pipeline_ii_after_dropping(a)
                            .total_cmp(&pipeline_ii_after_dropping(b))
                            .then_with(|| own_ii_after(a).total_cmp(&own_ii_after(b)))
                    });
                match victim {
                    Some(k) => {
                        cu_counts[k] -= 1;
                        dropped_cus[k] += 1;
                    }
                    None => return Err(err),
                }
            }
            Err(other) => return Err(other),
        }
    };
    Ok((allocation, cu_counts, dropped_cus))
}

/// Post-placement descent toward the incumbent, shared by the GP+A pipeline
/// and the greedy backend. The discretization accounts for migration on the
/// advisory group split, but the real per-FPGA placement assigns CUs to
/// FPGAs incumbent-blind, so a group can end up holding more CUs of a kernel
/// than the incumbent had there. While some kernel holds such a surplus, two
/// moves are tried from the highest-index FPGA of the surplus group hosting
/// a CU:
///
/// 1. **Relocation** — move the CU to an FPGA of a group still *below* its
///    incumbent count (lowest-index feasible destination). Totals are
///    preserved, so with uniform WCET scaling the II is unchanged and the
///    penalized score strictly improves at any positive weight; this sheds
///    the pure reshuffle the incumbent-blind placer introduces.
/// 2. **Shedding** — remove the CU outright (only while the kernel keeps at
///    least one), trading a little II for stability.
///
/// Either move is accepted whenever it strictly improves the penalized score
/// `II + w·migration`, or whenever the placement exceeds the moved-CU bound
/// and the move reduces movement. A no-op without an active reallocation
/// spec, so the static pipeline is untouched.
///
/// # Errors
///
/// Propagates incumbent/platform misalignment from the reallocation spec.
pub(crate) fn snap_to_incumbent(
    problem: &AllocationProblem,
    mut allocation: Allocation,
) -> Result<Allocation, AllocError> {
    let Some(ctx) = ReallocContext::from_problem(problem)? else {
        return Ok(allocation);
    };
    let score_of = |alloc: &Allocation| -> (f64, MigrationOutcome) {
        let outcome = problem.migration_of(alloc);
        (
            alloc.initiation_interval(problem) + ctx.weight * outcome.cost,
            outcome,
        )
    };
    let num_fpgas = problem.num_fpgas().min(allocation.num_fpgas());
    let num_kernels = problem.num_kernels().min(allocation.num_kernels());
    let (mut score, mut outcome) = score_of(&allocation);
    'descent: loop {
        for k in 0..num_kernels {
            let mut per_group = vec![0u32; problem.num_groups()];
            for f in 0..num_fpgas {
                per_group[problem.group_of_fpga(f)] += allocation.cus(k, f);
            }
            for (g, &placed) in per_group.iter().enumerate() {
                let incumbent = ctx.inc_groups[k][g];
                if placed <= incumbent {
                    continue;
                }
                let Some(src) = (0..num_fpgas)
                    .rev()
                    .find(|&f| problem.group_of_fpga(f) == g && allocation.cus(k, f) > 0)
                else {
                    continue;
                };
                let over_bound = ctx
                    .moved_bound
                    .is_some_and(|bound| outcome.moved_cus > bound);
                let accept = |candidate: &Allocation,
                              score: f64,
                              moved: u32|
                 -> Option<(f64, MigrationOutcome)> {
                    let (cand_score, cand_outcome) = score_of(candidate);
                    (cand_score < score - 1e-12 || (over_bound && cand_outcome.moved_cus < moved))
                        .then_some((cand_score, cand_outcome))
                };
                // Relocation first: it preserves the kernel's total CU count,
                // so it never costs II when groups run at the same speed.
                for (dst_g, &dst_placed) in per_group.iter().enumerate() {
                    if dst_g == g || dst_placed >= ctx.inc_groups[k][dst_g] {
                        continue;
                    }
                    for dst in (0..num_fpgas).filter(|&f| problem.group_of_fpga(f) == dst_g) {
                        let mut candidate = allocation.clone();
                        candidate.set_cus(k, src, candidate.cus(k, src) - 1);
                        candidate.set_cus(k, dst, candidate.cus(k, dst) + 1);
                        if candidate.validate(problem, 1e-9).is_err() {
                            continue;
                        }
                        if let Some((s, o)) = accept(&candidate, score, outcome.moved_cus) {
                            allocation = candidate;
                            score = s;
                            outcome = o;
                            // Every accepted move shrinks this kernel's
                            // surplus over the incumbent by one CU, so the
                            // descent terminates after at most the total
                            // initial movement.
                            continue 'descent;
                        }
                    }
                }
                if allocation.total_cus(k) <= 1 {
                    continue;
                }
                let mut candidate = allocation.clone();
                candidate.set_cus(k, src, candidate.cus(k, src) - 1);
                if let Some((s, o)) = accept(&candidate, score, outcome.moved_cus) {
                    allocation = candidate;
                    score = s;
                    outcome = o;
                    continue 'descent;
                }
            }
        }
        break;
    }
    Ok(allocation)
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::problem::GoalWeights;
    use crate::solver::{Backend, SolveRequest};
    use mfa_cnn::paper_data;

    fn gpa_report(
        problem: &AllocationProblem,
        options: &GpaOptions,
    ) -> Result<SolveReport, AllocError> {
        SolveRequest::new(problem)
            .backend(Backend::gpa_with(options.clone()))
            .solve()
    }

    #[test]
    fn alex16_on_two_fpgas_end_to_end() {
        let app = paper_data::alexnet_16bit();
        let problem =
            AllocationProblem::from_application(&app, 2, 0.65, GoalWeights::new(1.0, 0.7)).unwrap();
        let report = gpa_report(&problem, &GpaOptions::paper_defaults()).unwrap();
        report.allocation.validate(&problem, 1e-9).unwrap();
        let ii = report.initiation_interval_ms(&problem);
        // The paper's Fig. 3 shows II between roughly 1.0 and 1.7 ms in the
        // 55–85 % constraint range for Alex-16 on 2 FPGAs.
        assert!(ii < 2.0, "II = {ii}");
        assert!(ii >= report.diagnostics.relaxed_ii_ms.unwrap() - 1e-9);
        assert!(report.diagnostics.relaxation_gap.unwrap() >= 0.0);
        // Allocation realizes exactly the discretized CU counts.
        for (k, &n) in report.diagnostics.cu_counts.iter().enumerate() {
            assert_eq!(report.allocation.total_cus(k), n);
        }
    }

    #[test]
    fn vgg_on_eight_fpgas_is_fast_and_feasible() {
        let app = paper_data::vgg_16bit();
        let problem =
            AllocationProblem::from_application(&app, 8, 0.61, GoalWeights::new(1.0, 50.0))
                .unwrap();
        let report = gpa_report(&problem, &GpaOptions::fast()).unwrap();
        report.allocation.validate(&problem, 1e-9).unwrap();
        let ii = report.initiation_interval_ms(&problem);
        // Fig. 5 shows VGG on 8 FPGAs reaching II between ~10 and ~24 ms.
        assert!(ii < 30.0, "II = {ii}");
        assert!(report.diagnostics.timing.total.as_secs_f64() < 30.0);
    }

    #[test]
    fn gp_and_fast_backends_agree_on_final_ii() {
        let app = paper_data::alexnet_32bit();
        let problem =
            AllocationProblem::from_application(&app, 4, 0.70, GoalWeights::new(1.0, 6.0)).unwrap();
        let gp = gpa_report(&problem, &GpaOptions::paper_defaults()).unwrap();
        let fast = gpa_report(&problem, &GpaOptions::fast()).unwrap();
        let ii_gp = gp.initiation_interval_ms(&problem);
        let ii_fast = fast.initiation_interval_ms(&problem);
        assert!(
            (ii_gp - ii_fast).abs() < 1e-6,
            "GP backend {ii_gp} vs bisection {ii_fast}"
        );
    }

    #[test]
    fn cu_drop_fallback_records_drops_and_minimizes_pipeline_ii() {
        use crate::problem::Kernel;
        use mfa_platform::{MultiFpgaPlatform, ResourceBudget, ResourceVec};

        // Two FPGAs at 55 % DSP each. The aggregated budget admits counts
        // (2, 1) — 2·0.35 + 0.25 = 0.95 ≤ 1.1 — but no per-FPGA packing of
        // {0.35, 0.35, 0.25} into two bins of 0.55 exists, so the greedy
        // allocator fails and the fallback must shed one CU of "a".
        let problem = AllocationProblem::builder()
            .kernels(vec![
                Kernel::new("a", 10.0, ResourceVec::bram_dsp(0.01, 0.35), 0.01).unwrap(),
                Kernel::new("b", 4.0, ResourceVec::bram_dsp(0.01, 0.25), 0.01).unwrap(),
            ])
            .platform(MultiFpgaPlatform::aws_f1_4xlarge())
            .budget(ResourceBudget::uniform(0.55))
            .weights(GoalWeights::ii_only())
            .build()
            .unwrap();
        let report = gpa_report(&problem, &GpaOptions::fast()).unwrap();
        report.allocation.validate(&problem, 1e-9).unwrap();
        assert_eq!(report.diagnostics.dropped_cus, vec![1, 0]);
        assert_eq!(report.diagnostics.total_dropped_cus(), 1);
        assert_eq!(report.diagnostics.cu_counts, vec![1, 1]);
        // The drop was forced on the only candidate (b has a single CU), and
        // the resulting pipeline II is exactly the post-drop bottleneck.
        let ii = report.initiation_interval_ms(&problem);
        assert!((ii - 10.0).abs() < 1e-9, "II = {ii}");
    }

    #[test]
    fn undropped_solves_report_zero_dropped_cus() {
        use crate::problem::Kernel;
        use mfa_platform::{MultiFpgaPlatform, ResourceBudget, ResourceVec};

        // Small per-CU footprints and a generous budget: the discretized
        // counts always bin-pack, so the fallback never fires.
        let problem = AllocationProblem::builder()
            .kernels(vec![
                Kernel::new("a", 3.0, ResourceVec::bram_dsp(0.02, 0.1), 0.01).unwrap(),
                Kernel::new("b", 5.0, ResourceVec::bram_dsp(0.02, 0.1), 0.01).unwrap(),
            ])
            .platform(MultiFpgaPlatform::aws_f1_4xlarge())
            .budget(ResourceBudget::uniform(0.9))
            .weights(GoalWeights::ii_only())
            .build()
            .unwrap();
        let report = gpa_report(&problem, &GpaOptions::fast()).unwrap();
        assert_eq!(report.diagnostics.total_dropped_cus(), 0);
        assert!(report.diagnostics.dropped_cus.iter().all(|&d| d == 0));
        assert_eq!(report.diagnostics.dropped_cus.len(), problem.num_kernels());
        // Without drops the allocation realizes the discretized counts.
        for (k, &n) in report.diagnostics.cu_counts.iter().enumerate() {
            assert_eq!(report.allocation.total_cus(k), n);
        }
    }

    #[test]
    fn warm_start_from_a_neighbouring_constraint_matches_cold_solve() {
        let app = paper_data::alexnet_16bit();
        let neighbour_problem =
            AllocationProblem::from_application(&app, 2, 0.65, GoalWeights::new(1.0, 0.7)).unwrap();
        let problem =
            AllocationProblem::from_application(&app, 2, 0.70, GoalWeights::new(1.0, 0.7)).unwrap();
        let neighbour = gpa_report(&neighbour_problem, &GpaOptions::fast()).unwrap();
        let cold = gpa_report(&problem, &GpaOptions::fast()).unwrap();
        let warm = SolveRequest::new(&problem)
            .backend(Backend::gpa_with(GpaOptions::fast()))
            .warm_start(neighbour.warm_start())
            .solve()
            .unwrap();
        warm.allocation.validate(&problem, 1e-9).unwrap();
        let ii_cold = cold.initiation_interval_ms(&problem);
        let ii_warm = warm.initiation_interval_ms(&problem);
        assert!(
            (ii_cold - ii_warm).abs() < 1e-9 * ii_cold.max(1.0),
            "warm {ii_warm} vs cold {ii_cold}"
        );
        assert!(
            (warm.diagnostics.relaxed_ii_ms.unwrap() - cold.diagnostics.relaxed_ii_ms.unwrap())
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn heterogeneous_fleet_end_to_end() {
        use mfa_platform::{DeviceGroup, FpgaDevice, HeterogeneousPlatform};
        let app = paper_data::alexnet_16bit();
        let fleet = HeterogeneousPlatform::new(
            "1×VU9P + 1×KU115",
            vec![
                DeviceGroup::new(FpgaDevice::vu9p(), 1),
                DeviceGroup::new(FpgaDevice::ku115(), 1),
            ],
        );
        let problem = AllocationProblem::builder()
            .kernels(
                app.kernels()
                    .iter()
                    .map(crate::Kernel::from)
                    .collect::<Vec<_>>(),
            )
            .platform(fleet)
            .budget(mfa_platform::ResourceBudget::uniform(0.7))
            .weights(GoalWeights::new(1.0, 0.7))
            .build()
            .unwrap();
        for options in [GpaOptions::fast(), GpaOptions::paper_defaults()] {
            let report = gpa_report(&problem, &options).unwrap();
            report.allocation.validate(&problem, 1e-9).unwrap();
            let ii = report.initiation_interval_ms(&problem);
            // The mixed pair must land between the 2×VU9P platform (strictly
            // more capable) and a lone VU9P (strictly less capable).
            assert!(ii >= report.diagnostics.relaxed_ii_ms.unwrap() - 1e-9);
            assert!(ii < 6.7, "II = {ii}");
        }
        // GP and bisection backends agree on the final heterogeneous II.
        let gp = gpa_report(&problem, &GpaOptions::paper_defaults()).unwrap();
        let fast = gpa_report(&problem, &GpaOptions::fast()).unwrap();
        let ii_gp = gp.initiation_interval_ms(&problem);
        let ii_fast = fast.initiation_interval_ms(&problem);
        assert!(
            (ii_gp - ii_fast).abs() <= 0.02 * ii_fast,
            "GP {ii_gp} vs bisection {ii_fast}"
        );
    }

    #[test]
    fn infeasible_problems_are_rejected_up_front() {
        let app = paper_data::alexnet_32bit();
        // 20 % budget cannot even hold CONV2 (37.6 % DSP per CU).
        let problem =
            AllocationProblem::from_application(&app, 4, 0.20, GoalWeights::ii_only()).unwrap();
        assert!(matches!(
            gpa_report(&problem, &GpaOptions::paper_defaults()),
            Err(AllocError::Infeasible(_))
        ));
    }

    #[test]
    fn timing_breakdown_is_consistent() {
        let app = paper_data::alexnet_16bit();
        let problem =
            AllocationProblem::from_application(&app, 2, 0.75, GoalWeights::new(1.0, 0.7)).unwrap();
        let report = gpa_report(&problem, &GpaOptions::paper_defaults()).unwrap();
        let timing = report.diagnostics.timing;
        let parts = timing.relaxation + timing.discretization + timing.allocation;
        assert!(parts <= timing.total + Duration::from_millis(5));
    }
}
