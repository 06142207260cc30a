//! The paper's figure grids (Figs. 2–5) as reusable [`SweepGrid`] presets,
//! and its tables (Tables 2–4, Fig. 6 and the ablation) as one text report,
//! [`paper_tables`].
//!
//! The `dse` example, the golden-file regression tests and the sharded
//! dispatcher tests all sweep the *same* grids; defining them once here is
//! what lets the tests byte-compare serial, threaded and multi-process runs
//! against one committed snapshot without drifting from the example.
//!
//! Quick mode (the CI smoke configuration) deliberately gives the MINLP
//! backends a node budget but **no wall-clock limit**: a time limit makes
//! the explored tree — and therefore the reported incumbent — depend on
//! machine load, which would break the byte-identical golden comparison.
//! The small per-case node caps alone bound quick-mode runtime.

use std::fmt::Write as _;

use mfa_alloc::cases::PaperCase;
use mfa_alloc::exact::{ExactMode, ExactOptions};
use mfa_alloc::gp_step::{self, RelaxationBackend};
use mfa_alloc::gpa::GpaOptions;
use mfa_alloc::greedy::GreedyOptions;
use mfa_alloc::report::utilization_breakdown;
use mfa_alloc::solver::{SolveReport, SolveRequest};
use mfa_alloc::{paper_data, AllocError, AllocationProblem, Application};
use mfa_minlp::SolverOptions;

use crate::grid::{constraint_grid, CaseSpec, SolverSpec, SweepGrid};
use crate::ExploreError;

/// One of the paper's figures: a named grid plus the constraint values its
/// table axis prints.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureSpec {
    /// Short name used in export file names (`fig2` … `fig5`).
    pub name: &'static str,
    /// Human-readable title for console tables.
    pub title: String,
    /// The constraint values of the figure's x-axis (used for table rows;
    /// the grid's budget axis carries the same values).
    pub constraints: Vec<f64>,
    /// The sweep grid reproducing the figure's series.
    pub grid: SweepGrid,
}

/// MINLP node/time budgets per figure: small enough to finish, honest about
/// the gap. Quick mode is node-budget-only so the result is independent of
/// machine speed (see the module docs).
fn exact_budget(quick: bool, vgg: bool) -> SolverOptions {
    match (quick, vgg) {
        // Node-only budgets, sized so the whole quick exact sweep stays in
        // the tens of seconds: VGG nodes are an order of magnitude more
        // expensive than the Alex cases'. VGG's plain-MINLP series still
        // exhausts its budget without an incumbent, which keeps the
        // budget-exhausted skip path under test.
        (true, false) => SolverOptions {
            max_nodes: 12,
            time_limit_seconds: None,
            ..SolverOptions::default()
        },
        (true, true) => SolverOptions {
            max_nodes: 4,
            time_limit_seconds: None,
            ..SolverOptions::default()
        },
        (false, false) => SolverOptions::with_budget(2_000, 12.0),
        (false, true) => SolverOptions::with_budget(200, 15.0),
    }
}

/// The MINLP and MINLP+G backends of a figure, at [`exact_budget`].
fn exact_backends(quick: bool, vgg: bool) -> Vec<SolverSpec> {
    [ExactMode::IiOnly, ExactMode::IiAndSpreading]
        .into_iter()
        .map(|mode| {
            SolverSpec::exact(ExactOptions {
                mode,
                solver: exact_budget(quick, vgg),
                symmetry_breaking: true,
            })
        })
        .collect()
}

/// Builds Fig. 2 (the greedy `T` parameter on Alex-16): one labeled GP+A
/// backend per `T` value.
///
/// # Errors
///
/// Returns [`ExploreError::InvalidGrid`] only if the hard-coded axes were
/// edited into an invalid state.
pub fn figure2(quick: bool) -> Result<FigureSpec, ExploreError> {
    let t_values: &[f64] = if quick {
        &[0.0, 0.10]
    } else {
        &[0.0, 0.025, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30]
    };
    let constraints = if quick {
        constraint_grid(0.50, 0.90, 3)?
    } else {
        constraint_grid(0.40, 0.90, 11)?
    };
    let grid = SweepGrid::builder()
        .case(CaseSpec::from_paper(PaperCase::Alex16OnTwoFpgas))
        .fpga_counts([2])
        .constraints(constraints.iter().copied())
        .backends(t_values.iter().map(|&t| {
            SolverSpec::gpa_labeled(
                format!("T{:.1}%", t * 100.0),
                GpaOptions {
                    greedy: GreedyOptions::with_t_delta(t, 0.01),
                    ..GpaOptions::fast()
                },
            )
        }))
        .build()?;
    Ok(FigureSpec {
        name: "fig2",
        title: "Fig. 2: Alex-16 on 2 FPGAs — II (ms) vs constraint for several T".into(),
        constraints,
        grid,
    })
}

/// Builds one of Figs. 3–5 (GP+A vs MINLP vs MINLP+G on a paper case).
fn method_figure(
    name: &'static str,
    case: PaperCase,
    constraints: Vec<f64>,
    quick: bool,
    vgg: bool,
    exact: bool,
) -> Result<FigureSpec, ExploreError> {
    let mut builder = SweepGrid::builder()
        .case(CaseSpec::from_paper(case))
        .fpga_counts([case.num_fpgas()])
        .constraints(constraints.iter().copied())
        .backend(SolverSpec::gpa(GpaOptions::paper_defaults()));
    if exact {
        builder = builder.backends(exact_backends(quick, vgg));
    }
    Ok(FigureSpec {
        name,
        title: format!("{}: {} — II (ms) by method", name, case.label()),
        constraints,
        grid: builder.build()?,
    })
}

/// Builds Figs. 2–5 in order. `quick` selects the reduced CI grids (which
/// also exercise the infeasible-point skip paths); `exact = false` drops the
/// MINLP/MINLP+G series from Figs. 3–5.
///
/// # Errors
///
/// Returns [`ExploreError::InvalidGrid`] only if the hard-coded axes were
/// edited into an invalid state.
pub fn paper_figures(quick: bool, exact: bool) -> Result<Vec<FigureSpec>, ExploreError> {
    let mut figures = vec![figure2(quick)?];
    figures.push(method_figure(
        "fig3",
        PaperCase::Alex16OnTwoFpgas,
        if quick {
            // 8 % is infeasible for Alex-16 — exercises the skip path.
            vec![0.08, 0.65, 0.85]
        } else {
            constraint_grid(0.55, 0.85, 7)?
        },
        quick,
        false,
        exact,
    )?);
    figures.push(method_figure(
        "fig4",
        PaperCase::Alex32OnFourFpgas,
        if quick {
            // 30 % cannot host CONV2 (37.6 % DSP) — another skip path.
            vec![0.30, 0.70, 0.75]
        } else {
            constraint_grid(0.65, 0.75, 3)?
        },
        quick,
        false,
        exact,
    )?);
    figures.push(method_figure(
        "fig5",
        PaperCase::VggOnEightFpgas,
        if quick {
            vec![0.61, 0.80]
        } else {
            constraint_grid(0.55, 0.80, 6)?
        },
        quick,
        true,
        exact,
    )?);
    Ok(figures)
}

/// The heterogeneous-platform × per-resource-budget smoke grid the `dse`
/// example runs next to the figures (exported as `hetero`): Alex-16 on the
/// classic 2-FPGA platform *and* a mixed VU9P+KU115 pair, each under the
/// uniform 70 % constraint *and* a skewed per-resource budget.
///
/// # Errors
///
/// Returns [`ExploreError::InvalidGrid`] only if the hard-coded axes were
/// edited into an invalid state.
pub fn hetero_smoke() -> Result<FigureSpec, ExploreError> {
    use mfa_platform::{
        DeviceGroup, FpgaDevice, HeterogeneousPlatform, ResourceBudget, ResourceVec,
    };
    let mixed_pair = HeterogeneousPlatform::new(
        "1×VU9P + 1×KU115",
        vec![
            DeviceGroup::new(FpgaDevice::vu9p(), 1),
            DeviceGroup::new(FpgaDevice::ku115(), 1),
        ],
    );
    let skewed_budget = ResourceBudget::new(ResourceVec::new(0.9, 0.9, 0.6, 0.75), 0.9);
    let grid = SweepGrid::builder()
        .case(CaseSpec::from_paper(PaperCase::Alex16OnTwoFpgas))
        .fpga_counts([2])
        .platform(crate::PlatformSpec::platform(mixed_pair))
        .constraints([0.70])
        .budget(skewed_budget)
        .backend(SolverSpec::gpa(GpaOptions::fast()))
        .build()?;
    Ok(FigureSpec {
        name: "hetero",
        title: "New axes: heterogeneous platform × per-resource budget (Alex-16)".into(),
        constraints: vec![0.70, 0.90],
        grid,
    })
}

/// The paper's tables as one deterministic text report, one section each:
///
/// * Tables 2 and 3: the measured kernel characterizations of Alex-32,
///   Alex-16 and VGG ([`paper_data`]);
/// * Table 4: α and β per case, and GP+A's II, φ and goal at the middle of
///   each case's constraint range;
/// * Fig. 6: each FPGA's per-kernel share of the critical resource for VGG
///   at a 61 % constraint, under GP+A, MINLP and MINLP+G;
/// * the ablation: GP against bisection relaxed II per case at 70 %, and
///   MINLP symmetry breaking on and off for Alex-16 at 65 %.
///
/// Exact solves get the budgets of the figure presets (see
/// [`paper_figures`]); in quick mode those are node-only, so the quick
/// report is byte-stable. An exact solve whose budget runs out without an
/// incumbent prints as `-`, and `exact = false` leaves the exact rows out.
/// The report holds no wall-clock value.
///
/// # Errors
///
/// Returns [`ExploreError::Solver`] when a relaxation fails, or a point
/// solve fails in a way the lenient skip policy does not skip.
pub fn paper_tables(quick: bool, exact: bool) -> Result<String, ExploreError> {
    let measured =
        |table, app: Application| characterization(&format!("{table} (paper, measured)"), &app);
    let mut sections = vec![
        measured("Table 2", paper_data::alexnet_32bit()),
        measured("Table 2", paper_data::alexnet_16bit()),
        measured("Table 3", paper_data::vgg_16bit()),
    ];
    sections.push(table4()?);
    sections.push(figure6(quick, exact)?);
    sections.push(ablation(quick, exact)?);
    Ok(sections.join("\n"))
}

/// A paper-style kernel characterization table (Tables 2 and 3).
fn characterization(title: &str, app: &Application) -> String {
    let mut out = format!("=== {title}: {}\n", app.name());
    let _ = writeln!(
        out,
        "{:<10} {:>9} {:>9} {:>7} {:>10}",
        "kernel", "BRAM (%)", "DSP (%)", "BW (%)", "WCET (ms)"
    );
    for k in app.kernels() {
        let _ = writeln!(
            out,
            "{:<10} {:>9.2} {:>9.2} {:>7.1} {:>10.3}",
            k.name(),
            100.0 * k.resources().bram,
            100.0 * k.resources().dsp,
            100.0 * k.bandwidth(),
            k.wcet_ms()
        );
    }
    let totals = app.total_resources();
    let _ = writeln!(
        out,
        "{:<10} {:>9.2} {:>9.2} {:>7.1} {:>10.2}",
        "SUM",
        100.0 * totals.bram,
        100.0 * totals.dsp,
        100.0 * app.total_bandwidth(),
        app.total_wcet_ms()
    );
    out
}

/// Table 4: the spreading weights, and the goal GP+A reaches with them.
fn table4() -> Result<String, ExploreError> {
    let mut out = String::from("=== Table 4: parameters of the spreading function\n");
    let _ = writeln!(out, "{:<22} {:>6} {:>6}", "application", "alpha", "beta");
    for case in PaperCase::all() {
        let w = case.weights();
        let _ = writeln!(out, "{:<22} {:>6.1} {:>6.1}", case.label(), w.alpha, w.beta);
    }
    out.push_str("GP+A at the middle of each case's constraint range (g = alpha*II + beta*phi):\n");
    let gpa = SolverSpec::gpa(GpaOptions::paper_defaults());
    for case in PaperCase::all() {
        let (lo, hi) = case.constraint_range();
        let constraint = 0.5 * (lo + hi);
        let _ = write!(out, "  {:<22} {:>5.1}%", case.label(), 100.0 * constraint);
        match solve_case(case, constraint, &gpa)? {
            Some((problem, report)) => {
                let m = report.allocation.metrics(&problem);
                let _ = writeln!(
                    out,
                    "   II = {:>7.3} ms   phi = {:>6.3}   g = {:>8.3}",
                    m.initiation_interval_ms, m.spreading, m.goal
                );
            }
            None => out.push_str("   -\n"),
        }
    }
    Ok(out)
}

/// Fig. 6: VGG's per-FPGA shares of the critical resource at 61 %, from
/// [`utilization_breakdown`].
fn figure6(quick: bool, exact: bool) -> Result<String, ExploreError> {
    let mut out = String::from(
        "=== Fig. 6: VGG on 8 FPGAs at a 61% constraint, per-kernel share of each FPGA's \
         critical resource\n",
    );
    let mut methods = vec![SolverSpec::gpa(GpaOptions::paper_defaults())];
    if exact {
        methods.extend(exact_backends(quick, true));
    }
    for spec in &methods {
        let Some((problem, report)) = solve_case(PaperCase::VggOnEightFpgas, 0.61, spec)? else {
            let _ = writeln!(out, "--- {}: -", spec.label());
            continue;
        };
        let m = report.allocation.metrics(&problem);
        let _ = writeln!(
            out,
            "--- {}: II = {:.3} ms, spreading = {:.3}, FPGAs used = {}",
            spec.label(),
            m.initiation_interval_ms,
            m.spreading,
            report.allocation.fpgas_used()
        );
        for fpga in utilization_breakdown(&problem, &report.allocation) {
            let _ = write!(out, "F{}:", fpga.fpga + 1);
            for (kernel, cus, share) in &fpga.kernels {
                let _ = write!(out, " {kernel}x{cus} {:.1}%", 100.0 * share);
            }
            let _ = writeln!(out, " SLACK {:.1}%", 100.0 * fpga.slack);
        }
    }
    Ok(out)
}

/// The ablation: the two relaxation backends side by side, and the MINLP
/// with and without its symmetry-breaking rows.
fn ablation(quick: bool, exact: bool) -> Result<String, ExploreError> {
    let mut out = String::from("=== Ablation: GP against bisection relaxation at 70%\n");
    let _ = writeln!(
        out,
        "{:<22} {:>10} {:>15} {:>9}",
        "case", "GP II (ms)", "bisection (ms)", "rel. diff"
    );
    for case in PaperCase::all() {
        let fail = |source| point_error(case, "relaxation", 0.70, source);
        let problem = case.problem(0.70).map_err(fail)?;
        let relax = |backend| gp_step::solve(&problem, backend).map_err(fail);
        let gp = relax(RelaxationBackend::GeometricProgram)?.initiation_interval_ms;
        let bisection = relax(RelaxationBackend::Bisection)?.initiation_interval_ms;
        let _ = writeln!(
            out,
            "{:<22} {gp:>10.4} {bisection:>15.4} {:>9.1e}",
            case.label(),
            (gp - bisection).abs() / bisection
        );
    }
    if !exact {
        return Ok(out);
    }
    let case = PaperCase::Alex16OnTwoFpgas;
    let _ = writeln!(out, "MINLP symmetry breaking, {} at 65%:", case.label());
    for symmetry_breaking in [true, false] {
        let spec = SolverSpec::exact(ExactOptions {
            mode: ExactMode::IiOnly,
            solver: exact_budget(quick, false),
            symmetry_breaking,
        });
        let _ = write!(out, "  {:<3}", if symmetry_breaking { "on" } else { "off" });
        match solve_case(case, 0.65, &spec)? {
            Some((problem, report)) => {
                let _ = writeln!(
                    out,
                    "   II = {:.3} ms   nodes = {}   proven optimal = {}",
                    report.allocation.initiation_interval(&problem),
                    report.diagnostics.bb_nodes,
                    report.diagnostics.proven_optimal == Some(true)
                );
            }
            None => out.push_str("   -\n"),
        }
    }
    Ok(out)
}

/// Solves one paper case at one constraint under the lenient skip policy;
/// `None` when the point is skipped, as the figures skip it.
fn solve_case(
    case: PaperCase,
    constraint: f64,
    spec: &SolverSpec,
) -> Result<Option<(AllocationProblem, SolveReport)>, ExploreError> {
    let fail = |source| point_error(case, spec.label(), constraint, source);
    let problem = case.problem(constraint).map_err(fail)?;
    let report = SolveRequest::new(&problem)
        .backend(spec.to_backend())
        .solve_point()
        .map_err(fail)?;
    Ok(report.map(|report| (problem, report)))
}

fn point_error(
    case: PaperCase,
    backend: &str,
    constraint: f64,
    source: AllocError,
) -> ExploreError {
    ExploreError::Solver {
        case: case.label().to_owned(),
        num_fpgas: case.num_fpgas(),
        backend: backend.to_owned(),
        resource_constraint: constraint,
        source,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hetero_smoke_covers_both_new_axes() {
        let figure = hetero_smoke().unwrap();
        assert_eq!(figure.grid.num_series(), 2);
        assert_eq!(figure.grid.budgets().len(), 2);
        assert_eq!(figure.grid.platforms().len(), 2);
    }

    #[test]
    fn quick_figures_cover_fig2_to_fig5() {
        let figures = paper_figures(true, true).unwrap();
        assert_eq!(
            figures.iter().map(|f| f.name).collect::<Vec<_>>(),
            ["fig2", "fig3", "fig4", "fig5"]
        );
        // Fig. 2 sweeps T values as separate GP+A backends; Figs. 3–5 run
        // GP+A next to the two MINLP modes.
        assert_eq!(figures[0].grid.num_series(), 2);
        for figure in &figures[1..] {
            assert_eq!(figure.grid.num_series(), 3, "{}", figure.name);
        }
        // The constraint list mirrors the grid's budget axis.
        for figure in &figures {
            assert_eq!(
                figure.constraints.len(),
                figure.grid.budgets().len(),
                "{}",
                figure.name
            );
        }
    }

    #[test]
    fn t_sweep_produces_one_series_per_t() {
        let figure = figure2(true).unwrap();
        let series = crate::run_sweep(&figure.grid, &crate::ExecutorOptions::serial()).unwrap();
        assert_eq!(
            series
                .iter()
                .map(|s| s.backend.as_str())
                .collect::<Vec<_>>(),
            ["T0.0%", "T10.0%"]
        );
        assert_eq!(series[0].points.len(), figure.constraints.len());
        assert_eq!(series[1].points.len(), figure.constraints.len());
        // The paper observes little effect of T; check the curves stay close.
        for (a, b) in series[0].points.iter().zip(&series[1].points) {
            assert!((a.initiation_interval_ms - b.initiation_interval_ms).abs() < 0.5);
        }
    }

    #[test]
    fn quick_exact_budgets_are_node_limited_not_time_limited() {
        // A wall-clock limit would make the golden snapshots depend on
        // machine load; assert the quick configuration never carries one.
        for figure in paper_figures(true, true).unwrap() {
            for backend in figure.grid.backends() {
                if let SolverSpec::Exact { options, .. } = backend {
                    assert_eq!(options.solver.time_limit_seconds, None, "{}", figure.name);
                    assert!(options.solver.max_nodes <= 12);
                }
            }
        }
    }

    #[test]
    fn exact_flag_drops_the_minlp_series() {
        let figures = paper_figures(true, false).unwrap();
        for figure in &figures[1..] {
            assert_eq!(figure.grid.num_series(), 1, "{}", figure.name);
        }
    }

    #[test]
    fn full_figures_have_the_paper_axes() {
        let figures = paper_figures(false, true).unwrap();
        assert_eq!(figures[0].constraints.len(), 11);
        assert_eq!(figures[0].grid.num_series(), 8); // one per T value
        assert_eq!(figures[1].constraints.len(), 7);
        assert_eq!(figures[3].constraints.len(), 6);
    }
}
