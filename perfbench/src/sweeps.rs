//! The sweep workloads: `paper-quick` (the grids `dse --quick` computes) and
//! `gpa-sweep` (a fine GP+A grid over the three paper cases plus a fleet).

use std::collections::BTreeMap;
use std::time::Instant;

use mfa_alloc::cases::PaperCase;
use mfa_alloc::gpa::GpaOptions;
use mfa_explore::{
    compute_unit, constraint_grid, figures, plan_units, run_sweep, CaseSpec, ExecutorOptions,
    PlatformSpec, SolverSpec, SweepGrid, SweepPoint, SweepSeries,
};
use mfa_platform::{DeviceGroup, FpgaDevice, HeterogeneousPlatform, ResourceBudget, ResourceVec};

use crate::probes;
use crate::refs::{RefCheck, Refs};
use crate::stats;
use crate::sys;
use crate::trace::Tracer;
use crate::{Layers, Measured, Workload};

/// Executor threads. One: on the two-core virtual machine the benchmark is
/// sized for, identical two-thread sweeps took anywhere from 1× to 2× the
/// CPU time from one run to the next (the host shares the cores), while
/// one-thread work held within 5 %.
const THREADS: usize = 1;

/// Constraint points per paper case in `gpa-sweep`.
const GPA_CONSTRAINTS: usize = 150;

/// Skewed per-resource budgets of the `gpa-sweep` fleet series.
const FLEET_BUDGETS: usize = 32;

/// Nominal seconds of one `gpa-sweep` batch (8–12 s on the machine the
/// benchmark is sized for): a run does `--seconds` ÷ this many batches,
/// rounded, so two at 20 s.
const GPA_BATCH_S: f64 = 10.0;

/// Problems the traced run walks through the layer probes, at most.
const PROBE_PROBLEMS: usize = 240;

fn executor_options() -> ExecutorOptions {
    ExecutorOptions {
        num_threads: Some(THREADS),
        ..ExecutorOptions::default()
    }
}

/// The grids of `dse --quick`: the quick paper figures with their MINLP
/// series, plus the heterogeneous smoke grid.
pub fn paper_quick_grids() -> Vec<(&'static str, SweepGrid)> {
    let mut figs = figures::paper_figures(true, true).expect("quick figure grids are well-formed");
    figs.push(figures::hetero_smoke().expect("hetero grid is well-formed"));
    figs.into_iter().map(|f| (f.name, f.grid)).collect()
}

/// Each paper case at its paper FPGA count and twice that, over a fine grid
/// across its constraint range, plus Alex-16 on a 2×VU9P+2×KU115 fleet under
/// skewed per-resource budgets with both relaxation backends.
pub fn gpa_sweep_grids() -> Vec<(&'static str, SweepGrid)> {
    let case_grid = |case: PaperCase| {
        let (lo, hi) = case.constraint_range();
        SweepGrid::builder()
            .case(CaseSpec::from_paper(case))
            .fpga_counts([case.num_fpgas(), 2 * case.num_fpgas()])
            .constraints(constraint_grid(lo, hi, GPA_CONSTRAINTS).expect("range is valid"))
            .backend(SolverSpec::gpa(GpaOptions::paper_defaults()))
            .build()
            .expect("case grid is well-formed")
    };
    let fleet = HeterogeneousPlatform::new(
        "2×VU9P + 2×KU115",
        vec![
            DeviceGroup::new(FpgaDevice::vu9p(), 2),
            DeviceGroup::new(FpgaDevice::ku115(), 2),
        ],
    );
    let skewed = (0..FLEET_BUDGETS).map(|i| {
        let s = 0.7 + 0.3 * i as f64 / (FLEET_BUDGETS - 1) as f64;
        ResourceBudget::new(ResourceVec::new(0.9 * s, 0.9 * s, 0.6 * s, 0.75 * s), 0.9)
    });
    let fleet_grid = SweepGrid::builder()
        .case(CaseSpec::from_paper(PaperCase::Alex16OnTwoFpgas))
        .platform(PlatformSpec::platform(fleet))
        .budgets(skewed)
        .backend(SolverSpec::gpa_labeled(
            "GP+A GP",
            GpaOptions::paper_defaults(),
        ))
        .backend(SolverSpec::gpa_labeled(
            "GP+A bisection",
            GpaOptions::fast(),
        ))
        .build()
        .expect("fleet grid is well-formed");
    vec![
        ("alex16", case_grid(PaperCase::Alex16OnTwoFpgas)),
        ("alex32", case_grid(PaperCase::Alex32OnFourFpgas)),
        ("vgg", case_grid(PaperCase::VggOnEightFpgas)),
        ("fleet", fleet_grid),
    ]
}

/// Reference key of one planned point.
fn point_key(series: &SweepSeries, constraint: f64) -> String {
    format!(
        "{}|{}|{}|{constraint:.6}",
        series.case, series.platform, series.backend
    )
}

/// Every planned point of a finished grid with its II, `None` where the
/// sweep skipped it.
pub fn planned_points<'a>(
    grid: &'a SweepGrid,
    series: &'a [SweepSeries],
) -> impl Iterator<Item = (String, Option<&'a SweepPoint>)> + 'a {
    series.iter().flat_map(move |s| {
        grid.budgets().iter().map(move |spec| {
            let c = spec.scalar();
            let point = s.points.iter().find(|p| p.resource_constraint == c);
            (point_key(s, c), point)
        })
    })
}

fn is_exact(backend: &str, grid: &SweepGrid) -> bool {
    grid.backends()
        .iter()
        .any(|b| b.label() == backend && matches!(b, SolverSpec::Exact { .. }))
}

/// Effort counters of one batch, per grid and in total.
fn counters(grids: &[(&'static str, SweepGrid)], batch: &[Vec<SweepSeries>]) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let mut total: BTreeMap<&str, u64> = BTreeMap::new();
    for ((name, grid), series) in grids.iter().zip(batch) {
        let points: Vec<&SweepPoint> = series.iter().flat_map(|s| &s.points).collect();
        let sum = |f: fn(&SweepPoint) -> usize| points.iter().map(|p| f(p) as u64).sum::<u64>();
        let values = [
            ("points", points.len() as u64),
            ("skipped", (grid.num_points() - points.len()) as u64),
            ("barrier_iterations", sum(|p| p.barrier_iterations)),
            ("factorizations", sum(|p| p.factorizations)),
            ("simplex_pivots", sum(|p| p.simplex_pivots)),
            ("bb_nodes", sum(|p| p.bb_nodes)),
        ];
        for (key, value) in values {
            out.push((format!("{name}.{key}"), value));
            *total.entry(key).or_default() += value;
        }
    }
    out.extend(total.into_iter().map(|(k, v)| (format!("total.{k}"), v)));
    out
}

pub struct Sweeps {
    name: &'static str,
    grids: Vec<(&'static str, SweepGrid)>,
    refs: Refs,
    /// Series of the last batch measured, for the traced run's counters.
    last_batch: Vec<Vec<SweepSeries>>,
    /// Batches the last timed phase ran.
    last_batches: usize,
}

impl Sweeps {
    /// `paper-quick` or `gpa-sweep`.
    pub fn new(name: &'static str) -> Result<Sweeps, String> {
        let (grids, table) = match name {
            "paper-quick" => (paper_quick_grids(), include_str!("../ref/paper-quick.tsv")),
            _ => (gpa_sweep_grids(), include_str!("../ref/gpa-sweep.tsv")),
        };
        Ok(Sweeps {
            name,
            grids,
            refs: Refs::parse(table)?,
            last_batch: Vec::new(),
            last_batches: 0,
        })
    }

    /// One pass over every grid: per grid its series.
    fn batch(&self, tracer: &Tracer) -> Result<Vec<Vec<SweepSeries>>, String> {
        self.grids
            .iter()
            .map(|(name, grid)| {
                tracer
                    .span("executor.run_sweep", None, |_| {
                        run_sweep(grid, &executor_options())
                    })
                    .map_err(|err| format!("sweep of {name} failed: {err}"))
            })
            .collect()
    }

    /// Batches of a timed phase: a fixed count per `seconds`, so every run
    /// does the same work whatever the host's speed. One paper-quick batch
    /// outlasts any `seconds` the benchmark is run with.
    fn batches(&self, seconds: f64) -> usize {
        match self.name {
            "paper-quick" => 1,
            _ => ((seconds / GPA_BATCH_S).round() as usize).max(1),
        }
    }

    /// Reference rows of this workload at the current code.
    pub fn reference_rows(&self) -> Vec<(String, Option<f64>)> {
        let batch = self
            .batch(&Tracer::new(false))
            .expect("reference sweep runs");
        let mut rows = Vec::new();
        for ((_, grid), series) in self.grids.iter().zip(&batch) {
            rows.extend(
                planned_points(grid, series)
                    .map(|(key, p)| (key, p.map(|p| p.initiation_interval_ms))),
            );
        }
        rows
    }

    /// Unique problem instances of every grid point, thinned to at most
    /// [`PROBE_PROBLEMS`].
    fn probe_problems(&self) -> Vec<mfa_alloc::AllocationProblem> {
        let mut problems = Vec::new();
        for (_, grid) in &self.grids {
            for case in grid.cases() {
                for platform in grid.platforms() {
                    for budget in grid.budgets() {
                        problems.push(case.problem_at(platform, budget));
                    }
                }
            }
        }
        let step = problems.len().div_ceil(PROBE_PROBLEMS);
        problems.into_iter().step_by(step).collect()
    }
}

impl Workload for Sweeps {
    fn measure(&mut self, tracer: &Tracer, seconds: f64) -> Measured {
        let mut m = Measured::default();
        let (mut walls, mut cpus) = (Vec::new(), Vec::new());
        let mut first: Option<Vec<(String, u64)>> = None;
        let planned: usize = self.grids.iter().map(|(_, g)| g.num_points()).sum();
        let mut solved = 0usize;
        for _ in 0..self.batches(seconds) {
            let (cpu, start) = (sys::cpu_seconds(), Instant::now());
            let batch = match self.batch(tracer) {
                Ok(out) => out,
                Err(err) => {
                    m.fail(err);
                    break;
                }
            };
            walls.push(start.elapsed().as_secs_f64());
            cpus.push(sys::cpu_seconds() - cpu);
            m.attempted += planned;

            let mut check = RefCheck::default();
            for ((_, grid), series) in self.grids.iter().zip(&batch) {
                for (key, point) in planned_points(grid, series) {
                    self.refs
                        .check(&key, point.map(|p| p.initiation_interval_ms), &mut check);
                }
                solved += series.iter().map(|s| s.points.len()).sum::<usize>();
            }
            m.failed += check.failures.len();
            m.failures.extend(check.failures);
            m.ii_ratio = stats::geomean(&check.ratios);

            let counts = counters(&self.grids, &batch);
            match &first {
                None => first = Some(counts),
                Some(c) if *c != counts => m.fail("effort counters differ between batches".into()),
                Some(_) => {}
            }
            self.last_batch = batch;
            m.batches += 1;
        }
        self.last_batches = m.batches;
        if walls.is_empty() {
            return m;
        }
        m.wall_s = stats::median(&walls);
        m.cpu_s = stats::median(&cpus);
        // The operation is a batch. Per-point times mix problem sizes, so a
        // percentile over them lands between their clusters; those of one
        // series are timed inside a second or two of the run and follow the
        // host's swings more than the whole batch does.
        let batch_ms: Vec<f64> = walls.iter().map(|s| s * 1e3).collect();
        m.set_latencies(&batch_ms, 99.0, "batches");
        m.solved_share = solved as f64 / m.attempted as f64;
        m.undegraded_share = 1.0;
        m.counters = first.unwrap_or_default();
        m
    }

    fn layers(&mut self, tracer: &Tracer, layers: &mut Layers) {
        let gp_points: Vec<&SweepPoint> = self
            .grids
            .iter()
            .zip(&self.last_batch)
            .flat_map(|((_, grid), series)| {
                series
                    .iter()
                    .filter(|s| !is_exact(&s.backend, grid))
                    .flat_map(|s| &s.points)
            })
            .collect();
        let exact_points: Vec<&SweepPoint> = self
            .grids
            .iter()
            .zip(&self.last_batch)
            .flat_map(|((_, grid), series)| {
                series
                    .iter()
                    .filter(|s| is_exact(&s.backend, grid))
                    .flat_map(|s| &s.points)
            })
            .collect();
        let sum = |points: &[&SweepPoint], f: fn(&SweepPoint) -> usize| {
            points.iter().map(|p| f(p) as f64).sum::<f64>()
        };
        layers.set(
            "gp.barrier_iterations",
            sum(&gp_points, |p| p.barrier_iterations),
        );
        layers.set("gp.factorizations", sum(&gp_points, |p| p.factorizations));
        layers.set("discretize.bb_nodes", sum(&gp_points, |p| p.bb_nodes));
        layers.set("linprog.pivots", sum(&gp_points, |p| p.simplex_pivots));
        let minlp_nodes = sum(&exact_points, |p| p.bb_nodes);
        layers.set("minlp.bb_nodes", minlp_nodes);
        layers.set("minlp.pivots", sum(&exact_points, |p| p.simplex_pivots));
        if minlp_nodes > 0.0 {
            let solve_ms: f64 = exact_points.iter().map(|p| p.solve_seconds * 1e3).sum();
            layers.set("minlp.ms_per_node", solve_ms / minlp_nodes);
        }
        let all = gp_points.len() + exact_points.len();
        let warm = gp_points
            .iter()
            .chain(&exact_points)
            .filter(|p| p.warm_start.provenance() != "cold")
            .count();
        layers.set("executor.warm_share", warm as f64 / all.max(1) as f64);

        // The executor's span per sweep, then every planned unit serially.
        let sweep_s = tracer.total_s("executor.run_sweep") / self.last_batches.max(1) as f64;
        layers.set("executor.sweep_s", sweep_s);
        tracer.span("executor.serial_walk", None, |walk| {
            for (_, grid) in &self.grids {
                let units =
                    plan_units(grid, executor_options().chunk_size).expect("chunk size > 0");
                for unit in &units {
                    let backend = &grid.backends()[unit.series % grid.backends().len()];
                    let name = match backend {
                        SolverSpec::Exact { .. } => "executor.unit.exact",
                        SolverSpec::Gpa { .. } => "executor.unit.gpa",
                    };
                    tracer
                        .span(name, walk, |_| compute_unit(grid, unit, true).map(drop))
                        .expect("a unit that swept in parallel computes serially");
                }
            }
        });
        let exact_s = tracer.total_s("executor.unit.exact");
        let unit_sum_s = exact_s + tracer.total_s("executor.unit.gpa");
        layers.set("minlp.solve_s", exact_s);
        layers.set("executor.unit_sum_s", unit_sum_s);
        layers.set(
            "executor.parallel_eff",
            unit_sum_s / (sweep_s * THREADS as f64),
        );

        probes::solver_layers(tracer, &self.probe_problems(), layers);
    }
}
