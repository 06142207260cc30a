//! Whole-flow integration tests spanning the paper's measured kernels, the
//! optimization, allocation and simulation crates.

use mfa_alloc::cases::PaperCase;
use mfa_alloc::exact::{ExactMode, ExactOptions};
use mfa_alloc::gp_step::{self, RelaxationBackend};
use mfa_alloc::gpa::GpaOptions;
use mfa_alloc::report::utilization_breakdown;
use mfa_alloc::solver::{Backend, SolveRequest};
use mfa_explore::{constraint_grid, run_sweep, CaseSpec, ExecutorOptions, SolverSpec, SweepGrid};
use mfa_minlp::SolverOptions;
use mfa_sim::{simulate, SimConfig};

/// Every paper case runs through the full GP+A heuristic and produces a
/// feasible allocation whose II sits between the continuous relaxation and
/// the single-CU bottleneck.
#[test]
fn paper_cases_run_end_to_end() {
    for case in PaperCase::all() {
        let (lo, hi) = case.constraint_range();
        for constraint in [lo, 0.5 * (lo + hi), hi] {
            let problem = case.problem(constraint).expect("paper cases build");
            let request = SolveRequest::new(&problem).backend(Backend::gpa());
            let outcome = match request.solve() {
                Ok(outcome) => outcome,
                // The very tightest points can be infeasible for some cases;
                // the paper's figures simply omit such points.
                Err(mfa_alloc::AllocError::Infeasible(_)) => continue,
                Err(other) => panic!("{}: {other}", case.label()),
            };
            outcome
                .allocation
                .validate(&problem, 1e-9)
                .expect("allocation respects budgets");
            let ii = outcome.allocation.initiation_interval(&problem);
            let bottleneck = problem
                .kernels()
                .iter()
                .map(|k| k.wcet_ms())
                .fold(0.0_f64, f64::max);
            assert!(
                ii <= bottleneck + 1e-9,
                "{}: II above bottleneck",
                case.label()
            );
            assert!(
                ii >= outcome.diagnostics.relaxed_ii_ms.unwrap() - 1e-9,
                "{}: II below the relaxation bound",
                case.label()
            );
        }
    }
}

/// The exact MINLP (with a generous budget on the small case) agrees with the
/// heuristic within the band the paper reports, and its proven lower bound is
/// respected by both.
#[test]
fn exact_and_heuristic_are_consistent_on_alex16() {
    let problem = PaperCase::Alex16OnTwoFpgas.problem(0.75).expect("builds");
    let heuristic = SolveRequest::new(&problem)
        .backend(Backend::gpa())
        .solve()
        .expect("heuristic solves");
    let exact_outcome = SolveRequest::new(&problem)
        .backend(Backend::exact_with(ExactOptions {
            mode: ExactMode::IiOnly,
            solver: SolverOptions::with_budget(2_000, 20.0),
            symmetry_breaking: true,
        }))
        .solve()
        .expect("exact solves");
    let ii_h = heuristic.allocation.initiation_interval(&problem);
    let ii_e = exact_outcome.allocation.initiation_interval(&problem);
    let best_bound = exact_outcome.diagnostics.relaxed_ii_ms.unwrap();
    assert!(ii_h >= best_bound - 1e-6);
    assert!(ii_e >= best_bound - 1e-6);
    if exact_outcome.diagnostics.proven_optimal == Some(true) {
        assert!(ii_e <= ii_h + 1e-6);
        assert!(
            ii_h <= 1.3 * ii_e + 1e-9,
            "heuristic {ii_h} vs exact {ii_e}"
        );
    }
}

/// The simulator reproduces the analytic II for the allocations produced by
/// the heuristic on the paper cases.
#[test]
fn simulation_confirms_predicted_initiation_interval() {
    for case in [PaperCase::Alex16OnTwoFpgas, PaperCase::Alex32OnFourFpgas] {
        let problem = case.problem(0.75).expect("builds");
        let outcome = SolveRequest::new(&problem)
            .backend(Backend::gpa_fast())
            .solve()
            .expect("solves");
        let predicted = outcome.allocation.initiation_interval(&problem);
        let result = simulate(&problem, &outcome.allocation, &SimConfig::default());
        assert!(
            result.ii_error_vs(predicted) < 0.05,
            "{}: simulated {} vs predicted {}",
            case.label(),
            result.initiation_interval_ms,
            predicted
        );
    }
}

/// The GP relaxation is a true lower bound along a whole constraint sweep and
/// the sweep is (weakly) monotone, which is the qualitative shape of the
/// paper's Figs. 3–5.
#[test]
fn sweep_is_bounded_by_the_relaxation() {
    let grid = SweepGrid::builder()
        .case(CaseSpec::from_paper(PaperCase::VggOnEightFpgas))
        .fpga_counts([8])
        .constraints(constraint_grid(0.55, 0.80, 6).expect("valid axis"))
        .backend(SolverSpec::gpa(GpaOptions::fast()))
        .build()
        .expect("well-formed grid");
    let series = run_sweep(&grid, &ExecutorOptions::serial()).expect("sweep runs");
    let points = &series[0].points;
    assert!(points.len() >= 4);
    let problem = PaperCase::VggOnEightFpgas.problem(0.61).expect("builds");
    for point in points {
        let instance = problem.with_resource_constraint(point.resource_constraint);
        let relaxation =
            gp_step::solve(&instance, RelaxationBackend::Bisection).expect("relaxation solves");
        assert!(point.initiation_interval_ms >= relaxation.initiation_interval_ms - 1e-9);
    }
    let first = points.first().unwrap().initiation_interval_ms;
    let last = points.last().unwrap().initiation_interval_ms;
    assert!(last <= first + 1e-9);
}

/// Fig. 6-style breakdown: every FPGA stays within the 61 % constraint and
/// the stacked shares plus slack account for the whole device.
#[test]
fn vgg_distribution_respects_the_constraint() {
    let problem = PaperCase::VggOnEightFpgas.problem(0.61).expect("builds");
    let outcome = SolveRequest::new(&problem)
        .backend(Backend::gpa())
        .solve()
        .expect("solves");
    let breakdown = utilization_breakdown(&problem, &outcome.allocation);
    assert_eq!(breakdown.len(), 8);
    for fpga in &breakdown {
        let used: f64 = fpga.kernels.iter().map(|&(_, _, share)| share).sum();
        assert!(used <= 0.61 + 1e-9, "FPGA {} uses {used}", fpga.fpga);
        assert!(fpga.slack >= 0.39 - 1e-9);
    }
}
