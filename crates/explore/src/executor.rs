//! The multi-threaded sweep executor.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;

use mfa_alloc::solver::{Deadline, SolveReport, SolveRequest, WarmStart, WarmStartReport};
use mfa_alloc::AllocationProblem;

use crate::cache::{WarmStartCache, DEFAULT_CACHE_CAPACITY};
use crate::grid::{SolverSpec, SweepGrid};
use crate::store::{self, ResultStore, StorePlan, StoreRunReport};
use crate::ExploreError;

/// Options of the sweep executor.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutorOptions {
    /// Worker threads. `None` uses [`std::thread::available_parallelism`];
    /// `Some(1)` forces the serial path (no threads are spawned).
    pub num_threads: Option<usize>,
    /// Constraint points per work unit. Chunks are carved from each series
    /// along the constraint axis, so the decomposition — and therefore the
    /// warm-start state every point sees — depends only on the grid and this
    /// value, never on the thread count. Smaller chunks expose more
    /// parallelism; larger chunks let the warm-start cache carry further.
    pub chunk_size: usize,
    /// Warm-start GP+A solves from the nearest already-solved point of the
    /// same chunk (see [`WarmStartCache`]). Warm starts reach the same
    /// initiation interval as cold solves, faster; when several integer
    /// designs tie on II, the warm-started search may return the
    /// neighbour's design where a cold solve would find another
    /// equally-optimal one. Disable to solve every point cold.
    pub warm_start: bool,
    /// Entry bound of each unit's [`WarmStartCache`]. Eviction is FIFO and
    /// depends only on the insertion sequence, so any bound preserves the
    /// serial/parallel byte-identity contract; the default
    /// ([`DEFAULT_CACHE_CAPACITY`]) exceeds every realistic chunk size and
    /// never evicts in practice.
    pub cache_capacity: usize,
}

impl Default for ExecutorOptions {
    fn default() -> Self {
        ExecutorOptions {
            num_threads: None,
            chunk_size: 8,
            warm_start: true,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
        }
    }
}

impl ExecutorOptions {
    /// Forces the single-threaded path (useful as a reference in tests).
    pub fn serial() -> Self {
        ExecutorOptions {
            num_threads: Some(1),
            ..ExecutorOptions::default()
        }
    }
}

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
    pub(crate) fn from_report(
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

/// One series of a completed sweep: a (case, platform point, backend)
/// combination and its points in budget-axis order. Points whose budget is
/// infeasible or unplaceable are absent.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSeries {
    /// Label of the swept case.
    pub case: String,
    /// Label of the series' platform point (`"N FPGAs"` for the classic
    /// FPGA-count axis, the platform label for explicit — e.g.
    /// heterogeneous — platform points).
    pub platform: String,
    /// Total FPGA count of this series.
    pub num_fpgas: usize,
    /// Label of the solver backend.
    pub backend: String,
    /// Solved points, ordered along the grid's budget axis.
    pub points: Vec<SweepPoint>,
}

/// A contiguous run of budget points of one series — the unit of work the
/// executor (and the multi-process dispatcher in `mfa_dispatch`) schedules.
///
/// The decomposition of a grid into work units depends only on the grid and
/// the chunk size (see [`plan_units`]), never on thread or worker counts, and
/// each unit is solved with its own fresh [`WarmStartCache`]; a unit's result
/// is therefore a pure function of `(grid, unit, warm_start)`, which is what
/// makes distributing units across processes semantics-preserving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkUnit {
    /// Series index in grid order (see [`SweepGrid::num_series`]).
    pub series: usize,
    /// First budget-axis index of the run (inclusive).
    pub start: usize,
    /// One past the last budget-axis index of the run (exclusive).
    pub end: usize,
}

/// Decomposes a grid into [`WorkUnit`]s: each series is carved into runs of
/// at most `chunk_size` consecutive budget points, series-major. The result
/// depends only on the grid shape and `chunk_size`, so every executor —
/// serial, threaded, or multi-process — schedules the identical unit list.
///
/// # Errors
///
/// Returns [`ExploreError::InvalidOptions`] when `chunk_size` is zero.
pub fn plan_units(grid: &SweepGrid, chunk_size: usize) -> Result<Vec<WorkUnit>, ExploreError> {
    if chunk_size == 0 {
        return Err(ExploreError::InvalidOptions(
            "chunk_size must be at least 1, got 0".into(),
        ));
    }
    let num_points = grid.budgets.len();
    let mut units = Vec::new();
    for series in 0..grid.num_series() {
        let mut start = 0;
        while start < num_points {
            let end = (start + chunk_size).min(num_points);
            units.push(WorkUnit { series, start, end });
            start = end;
        }
    }
    Ok(units)
}

/// Assembles completed unit results into one [`SweepSeries`] per series, in
/// grid order. `results[i]` must be the output of [`compute_unit`] for
/// `units[i]`; because units are indexed, the assembly is independent of the
/// order units were *completed* in — the property the multi-process
/// dispatcher relies on to stay byte-identical under arbitrary completion
/// orders.
///
/// # Panics
///
/// Panics if `units` and `results` disagree in length or a unit's series
/// index is out of range for the grid.
pub fn assemble_series(
    grid: &SweepGrid,
    units: &[WorkUnit],
    results: Vec<Vec<Option<SweepPoint>>>,
) -> Vec<SweepSeries> {
    assert_eq!(
        units.len(),
        results.len(),
        "every work unit needs exactly one result"
    );
    let mut series: Vec<SweepSeries> = (0..grid.num_series())
        .map(|s| {
            let (case, platform, backend) = grid.series_key(s);
            SweepSeries {
                case: grid.cases[case].label().to_owned(),
                platform: grid.platforms[platform].label(),
                num_fpgas: grid.platforms[platform].num_fpgas(),
                backend: grid.backends[backend].label().to_owned(),
                points: Vec::new(),
            }
        })
        .collect();
    for (unit, points) in units.iter().zip(results) {
        series[unit.series]
            .points
            .extend(points.into_iter().flatten());
    }
    series
}

/// Sets every point's wall-clock `solve_seconds` to zero. Timing is the only
/// legitimate difference between two runs of the same grid; normalizing it
/// makes series (and their [`crate::export`] output) byte-comparable, which
/// the golden-file regression tests and the sharded-dispatch determinism
/// checks rely on.
pub fn zero_timing(series: &mut [SweepSeries]) {
    for s in series {
        for p in &mut s.points {
            p.solve_seconds = 0.0;
        }
    }
}

/// Resets the diagnostics that legitimately depend on the chunk
/// decomposition: warm-start provenance (which hints a point received is a
/// fact about its chunk), branch-and-bound node counts (seeded searches
/// prune differently), the effort counters (barrier iterations, KKT
/// factorizations and simplex pivots all shrink when a chunk's cache warms
/// the solve), and the relaxation gap (a warm-started bisection converges to
/// the same optimum from a narrower bracket, differing in the last few
/// ulps). Apply it — together with [`zero_timing`] — before comparing runs
/// that used *different* chunk sizes; runs with the same decomposition are
/// byte-identical without it.
pub fn zero_chunk_diagnostics(series: &mut [SweepSeries]) {
    for s in series {
        for p in &mut s.points {
            p.relaxation_gap = 0.0;
            p.bb_nodes = 0;
            p.barrier_iterations = 0;
            p.factorizations = 0;
            p.simplex_pivots = 0;
            p.warm_start = WarmStartReport::default();
        }
    }
}

/// Runs the grid and returns one [`SweepSeries`] per (case, FPGA count,
/// backend) combination, in grid order (case-major, then FPGA count, then
/// backend). The output is deterministic: for a fixed grid and `chunk_size`
/// it is identical whatever the thread count. With
/// [`ExecutorOptions::warm_start`] disabled every point is solved cold; with
/// warm starts on, ties between equally-optimal integer designs may resolve
/// differently (the achieved II is the same either way).
///
/// # Errors
///
/// Returns [`ExploreError::InvalidOptions`] when
/// [`ExecutorOptions::chunk_size`] is zero, and [`ExploreError::Solver`] for
/// the earliest (in grid order) non-skippable solver failure; skippable
/// point errors only omit the point. On a failure the executor stops picking
/// up new work units, so the error surfaces without sweeping the rest of the
/// grid.
pub fn run_sweep(
    grid: &SweepGrid,
    options: &ExecutorOptions,
) -> Result<Vec<SweepSeries>, ExploreError> {
    run_sweep_impl(grid, options, None).map(|(series, _)| series)
}

/// Like [`run_sweep`], but backed by a persistent [`ResultStore`] — a local
/// [`SweepStore`](crate::SweepStore) directory or `mfa_storenet`'s
/// `RemoteStore` client: units
/// every point of which is already stored replay verbatim without computing
/// anything, fresh units are persisted atomically *as they complete* (so a
/// killed run resumes where it stopped), and fresh solves are warm-started
/// from stored neighbouring points of the same series — including exact
/// B&B incumbents, which in-process caching must keep cold.
///
/// Determinism: for any store state — empty, partial (a killed run), or full
/// — the returned series are byte-identical to a storeless [`run_sweep`] of
/// the same grid and options, because replayed units reproduce exactly what
/// [`compute_unit`] computed and neighbour hints only flow from stored
/// points *outside* the current grid (see [`store::plan_store`]).
///
/// # Errors
///
/// Everything [`run_sweep`] returns, plus [`ExploreError::Store`] for
/// store-level I/O failures. Solver failures surface *after* completed units
/// persist, so a failed run still resumes.
pub fn run_sweep_stored(
    grid: &SweepGrid,
    options: &ExecutorOptions,
    store: &mut dyn ResultStore,
) -> Result<(Vec<SweepSeries>, StoreRunReport), ExploreError> {
    run_sweep_impl(grid, options, Some(store))
        .map(|(series, report)| (series, report.expect("store-backed runs produce a report")))
}

fn run_sweep_impl(
    grid: &SweepGrid,
    options: &ExecutorOptions,
    mut store: Option<&mut dyn ResultStore>,
) -> Result<(Vec<SweepSeries>, Option<StoreRunReport>), ExploreError> {
    let units = plan_units(grid, options.chunk_size)?;
    let plan: Option<StorePlan> = match store.as_deref_mut() {
        Some(s) => Some(store::plan_store(grid, &units, options.warm_start, s)?),
        None => None,
    };
    let mut report = store.as_deref().map(|s| StoreRunReport {
        corrupt_entries: s.corrupt_count(),
        version_mismatches: s.version_mismatch_count(),
        ..StoreRunReport::default()
    });

    let mut unit_results: Vec<Option<UnitResult>> = units.iter().map(|_| None).collect();

    // Replay fully-stored units up front; only the remainder is scheduled.
    let mut work: Vec<usize> = Vec::with_capacity(units.len());
    match (&plan, report.as_mut()) {
        (Some(plan), Some(report)) => {
            for (idx, unit_plan) in plan.units.iter().enumerate() {
                if let Some(points) = &unit_plan.cached {
                    report.units_replayed += 1;
                    report.points_replayed += points.len();
                    unit_results[idx] = Some(Ok(points.clone()));
                } else {
                    work.push(idx);
                }
            }
        }
        _ => work.extend(0..units.len()),
    }

    let threads = options
        .num_threads
        .unwrap_or_else(|| {
            thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        })
        .clamp(1, work.len().max(1));

    let seeds_of = |idx: usize| {
        plan.as_ref()
            .map(|p| p.units[idx].seeds.as_slice())
            .unwrap_or(&[])
    };
    let mut persist = |store: &mut Option<&mut dyn ResultStore>,
                       report: &mut Option<StoreRunReport>,
                       idx: usize,
                       out: &UnitOutput|
     -> Result<(), ExploreError> {
        let (Some(store), Some(plan), Some(report)) =
            (store.as_deref_mut(), &plan, report.as_mut())
        else {
            return Ok(());
        };
        store::commit_unit(store, &plan.units[idx], out)?;
        report.units_computed += 1;
        report.points_computed += out.points.len();
        report.warm_from_store += out.warm_from_store;
        Ok(())
    };

    if threads <= 1 {
        for &idx in &work {
            match compute_unit_hinted(
                grid,
                &units[idx],
                options.warm_start,
                options.cache_capacity,
                seeds_of(idx),
            ) {
                Ok(out) => {
                    persist(&mut store, &mut report, idx, &out)?;
                    unit_results[idx] = Some(Ok(out.points));
                }
                Err(err) => {
                    unit_results[idx] = Some(Err(err));
                    break;
                }
            }
        }
    } else {
        // The abort flag stops workers from *starting* new units after a
        // failure; units already underway run to completion. Because workers
        // take units in index order, every unit below the failing index has
        // been started and therefore finishes, which keeps the surfaced
        // error (the lowest-index one) independent of scheduling.
        let abort = AtomicBool::new(false);
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, Result<UnitOutput, ExploreError>)>();
        let mut persist_err: Option<ExploreError> = None;
        {
            let work = &work;
            let units = &units;
            let next = &next;
            let abort = &abort;
            let seeds_of = &seeds_of;
            let store = &mut store;
            let report = &mut report;
            let persist = &mut persist;
            let unit_results = &mut unit_results;
            let persist_err = &mut persist_err;
            thread::scope(move |scope| {
                for _ in 0..threads {
                    let tx = tx.clone();
                    scope.spawn(move || loop {
                        if abort.load(Ordering::Relaxed) {
                            break;
                        }
                        let pos = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&idx) = work.get(pos) else {
                            break;
                        };
                        let result = compute_unit_hinted(
                            grid,
                            &units[idx],
                            options.warm_start,
                            options.cache_capacity,
                            seeds_of(idx),
                        );
                        if result.is_err() {
                            abort.store(true, Ordering::Relaxed);
                        }
                        if tx.send((idx, result)).is_err() {
                            break;
                        }
                    });
                }
                drop(tx);
                // Drain on the main thread *inside* the scope: each unit is
                // persisted the moment it completes, not after the whole
                // sweep — which is what makes a killed threaded run
                // resumable from everything it finished.
                for (idx, result) in rx {
                    match result {
                        Ok(out) => {
                            if persist_err.is_none() {
                                if let Err(err) = persist(store, report, idx, &out) {
                                    *persist_err = Some(err);
                                    abort.store(true, Ordering::Relaxed);
                                }
                            }
                            unit_results[idx] = Some(Ok(out.points));
                        }
                        Err(err) => unit_results[idx] = Some(Err(err)),
                    }
                }
            });
        }
        if let Some(err) = persist_err {
            return Err(err);
        }
    }

    // Surface the lowest-index failure first, so which error wins when
    // several units fail is independent of scheduling.
    for slot in unit_results.iter_mut() {
        if matches!(slot, Some(Err(_))) {
            let Some(Err(err)) = slot.take() else {
                unreachable!("just matched an error")
            };
            return Err(err);
        }
    }

    // No failures: every unit up to the end was computed. Assemble in unit
    // order so each series' points follow the constraint axis.
    let results = unit_results
        .into_iter()
        .map(|slot| {
            slot.expect("without failures every work unit produces a result")
                .expect("failures were surfaced above")
        })
        .collect();
    Ok((assemble_series(grid, &units, results), report))
}

type UnitResult = Result<Vec<Option<SweepPoint>>, ExploreError>;

/// Solves one [`WorkUnit`]: the unit's budget points in axis order, each
/// GP+A solve warm-started from the nearest (in budget distance)
/// already-solved point of the same unit. `None` entries are skippable
/// points (infeasible or unplaceable budgets).
///
/// The result is a pure function of the arguments — the warm-start cache is
/// created fresh per unit — so a unit computes identically whether it runs
/// on a thread of [`run_sweep`] or in a remote worker process.
///
/// # Errors
///
/// Returns [`ExploreError::Solver`] for the unit's first non-skippable
/// solver failure.
pub fn compute_unit(
    grid: &SweepGrid,
    unit: &WorkUnit,
    warm_start: bool,
) -> Result<Vec<Option<SweepPoint>>, ExploreError> {
    compute_unit_hinted(grid, unit, warm_start, DEFAULT_CACHE_CAPACITY, &[]).map(|out| out.points)
}

/// Everything one computed [`WorkUnit`] produces: the points themselves plus
/// the per-point warm-start states a persistent store records for future
/// neighbour seeding.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitOutput {
    /// Solved points in budget-axis order; `None` entries are skipped
    /// (infeasible/unplaceable) budgets.
    pub points: Vec<Option<SweepPoint>>,
    /// Warm-start state each point's solve published, parallel to `points`
    /// (`None` exactly where the point was skipped).
    pub warms: Vec<Option<WarmStart>>,
    /// Points whose solve accepted a hint drawn from the store-neighbour
    /// `seeds` rather than the in-unit cache.
    pub warm_from_store: usize,
}

/// [`compute_unit`] with explicit cache capacity and store-neighbour seeds.
///
/// `seeds` are warm-start candidates from *outside* the unit (stored
/// neighbouring points of the same series — see
/// [`store::plan_store`](crate::store::plan_store)); they are fixed before
/// the unit runs, so the result stays a pure function of `(grid, unit,
/// warm_start, cache_capacity, seeds)`. With empty seeds this is exactly
/// [`compute_unit`].
///
/// Hint selection per point:
///
/// * **GP+A points** consult the in-unit cache *and* the seeds, taking the
///   overall-nearest under [`crate::budget_distance`] (the in-unit entry
///   wins ties — it is what a storeless sweep would have used).
/// * **Exact points** consult *only* the seeds. In-process exact solves must
///   stay cold so a node-capped incumbent never depends on the chunk
///   decomposition; seeds are chunking-independent by construction, so they
///   are the one legal way to warm an exact point. The incumbent is
///   verified before use, so a seed can only prune the search — never change
///   the optimum.
///
/// # Errors
///
/// Returns [`ExploreError::Solver`] for the unit's first non-skippable
/// solver failure.
pub fn compute_unit_hinted(
    grid: &SweepGrid,
    unit: &WorkUnit,
    warm_start: bool,
    cache_capacity: usize,
    seeds: &[(mfa_platform::ResourceBudget, WarmStart)],
) -> Result<UnitOutput, ExploreError> {
    let (case_idx, platform_idx, backend_idx) = grid.series_key(unit.series);
    let case = &grid.cases[case_idx];
    let platform = &grid.platforms[platform_idx];
    let backend = &grid.backends[backend_idx];
    let fail = |constraint: f64, source: mfa_alloc::AllocError| ExploreError::Solver {
        case: case.label().to_owned(),
        num_fpgas: platform.num_fpgas(),
        backend: backend.label().to_owned(),
        resource_constraint: constraint,
        source,
    };

    // The seeds live in their own cache so in-unit entries and stored
    // neighbours stay distinguishable (the warm-from-store counter) and the
    // seed set never evicts mid-unit.
    let mut seed_cache = WarmStartCache::with_capacity(seeds.len());
    for (budget, warm) in seeds {
        seed_cache.insert(budget, warm.clone());
    }

    let mut out = UnitOutput {
        points: Vec::with_capacity(unit.end - unit.start),
        warms: Vec::with_capacity(unit.end - unit.start),
        warm_from_store: 0,
    };
    let mut cache = WarmStartCache::with_capacity(cache_capacity);
    for budget_spec in &grid.budgets[unit.start..unit.end] {
        let instance = case.problem_at(platform, budget_spec);
        let constraint = budget_spec.scalar();
        let budget = *instance.budget();
        // GP+A points feed on (and feed) the unit's warm-start cache; exact
        // points never touch it, so a node-capped MINLP incumbent never
        // depends on the chunk decomposition — only chunking-independent
        // store seeds may warm them.
        let caching = matches!(backend, SolverSpec::Gpa { .. });
        let mut from_store = false;
        let hint = if !warm_start {
            WarmStart::none()
        } else if caching {
            match (
                cache.nearest_entry(&budget),
                seed_cache.nearest_entry(&budget),
            ) {
                (Some((d_unit, unit_hint)), Some((d_seed, seed_hint))) => {
                    if d_seed < d_unit {
                        from_store = true;
                        seed_hint.clone()
                    } else {
                        unit_hint.clone()
                    }
                }
                (Some((_, unit_hint)), None) => unit_hint.clone(),
                (None, Some((_, seed_hint))) => {
                    from_store = true;
                    seed_hint.clone()
                }
                (None, None) => WarmStart::none(),
            }
        } else {
            match seed_cache.nearest(&budget) {
                Some(seed_hint) => {
                    from_store = true;
                    seed_hint.clone()
                }
                None => WarmStart::none(),
            }
        };
        let mut request = SolveRequest::new(&instance)
            .backend(backend.to_backend())
            .warm_start(hint)
            .skip_policy(grid.skip_policy);
        if let Some(seconds) = grid.point_deadline_seconds {
            // The builder validated this at grid construction, but the
            // conversion stays panic-free regardless: a malformed float
            // surfaces as a typed error, never a `from_secs_f64` panic.
            let deadline = Deadline::within_seconds(seconds)
                .map_err(|err| ExploreError::InvalidOptions(err.to_string()))?;
            request = request.deadline(deadline);
        }
        match request.solve_point() {
            Ok(Some(report)) => {
                let warm_out = report.warm_start();
                if caching {
                    cache.insert(&budget, warm_out.clone());
                }
                let used = &report.diagnostics.warm_start;
                if from_store && (used.ii_hint_used || used.dual_hint_used || used.incumbent_used) {
                    out.warm_from_store += 1;
                }
                out.points.push(Some(SweepPoint::from_report(
                    &instance, constraint, &report,
                )));
                out.warms.push(Some(warm_out));
            }
            Ok(None) => {
                out.points.push(None);
                out.warms.push(None);
            }
            Err(err) => return Err(fail(constraint, err)),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{constraint_grid, CaseSpec};
    use mfa_alloc::cases::PaperCase;
    use mfa_alloc::exact::ExactOptions;
    use mfa_alloc::gpa::GpaOptions;
    use mfa_minlp::SolverOptions;

    fn alex16_grid(points: usize, backends: Vec<SolverSpec>) -> SweepGrid {
        SweepGrid::builder()
            .case(CaseSpec::from_paper(PaperCase::Alex16OnTwoFpgas))
            .fpga_counts([2])
            .constraints(constraint_grid(0.55, 0.85, points).unwrap())
            .backends(backends)
            .build()
            .unwrap()
    }

    /// Wall-clock fields are the only legitimate difference between two runs
    /// of the same grid.
    fn zeroed(mut series: Vec<SweepSeries>) -> Vec<SweepSeries> {
        zero_timing(&mut series);
        series
    }

    #[test]
    fn parallel_and_serial_sweeps_are_identical() {
        let grid = alex16_grid(6, vec![SolverSpec::gpa(GpaOptions::fast())]);
        // Same chunk decomposition, different thread counts: byte-identical
        // including every diagnostic column.
        let serial = run_sweep(
            &grid,
            &ExecutorOptions {
                chunk_size: 2,
                ..ExecutorOptions::serial()
            },
        )
        .unwrap();
        let parallel = run_sweep(
            &grid,
            &ExecutorOptions {
                num_threads: Some(4),
                chunk_size: 2,
                ..ExecutorOptions::default()
            },
        )
        .unwrap();
        assert_eq!(zeroed(serial), zeroed(parallel));
        // Across different decompositions the solution columns still agree;
        // only the chunk-dependent diagnostics may differ.
        let chunk8 = run_sweep(&grid, &ExecutorOptions::serial()).unwrap();
        let chunk2 = run_sweep(
            &grid,
            &ExecutorOptions {
                chunk_size: 2,
                ..ExecutorOptions::serial()
            },
        )
        .unwrap();
        let strip = |mut series: Vec<SweepSeries>| {
            zero_timing(&mut series);
            zero_chunk_diagnostics(&mut series);
            series
        };
        assert_eq!(strip(chunk8), strip(chunk2));
    }

    #[test]
    fn chunked_warm_starts_match_cold_solves() {
        let grid = alex16_grid(6, vec![SolverSpec::gpa(GpaOptions::fast())]);
        let warm = run_sweep(
            &grid,
            &ExecutorOptions {
                chunk_size: 6,
                ..ExecutorOptions::serial()
            },
        )
        .unwrap();
        let cold = run_sweep(
            &grid,
            &ExecutorOptions {
                warm_start: false,
                ..ExecutorOptions::serial()
            },
        )
        .unwrap();
        assert_eq!(warm[0].points.len(), cold[0].points.len());
        for (w, c) in warm[0].points.iter().zip(&cold[0].points) {
            assert!(
                (w.initiation_interval_ms - c.initiation_interval_ms).abs()
                    < 1e-9 * c.initiation_interval_ms.max(1.0),
                "warm {} vs cold {}",
                w.initiation_interval_ms,
                c.initiation_interval_ms
            );
        }
    }

    #[test]
    fn gpa_sweep_is_monotone_in_the_constraint() {
        let grid = alex16_grid(4, vec![SolverSpec::gpa(GpaOptions::fast())]);
        let cold = ExecutorOptions {
            warm_start: false,
            ..ExecutorOptions::serial()
        };
        let series = run_sweep(&grid, &cold).unwrap();
        let points = &series[0].points;
        assert!(points.len() >= 3);
        // Looser constraints can only improve (not worsen) the II, up to the
        // small non-monotonicities the greedy step may introduce.
        let first = points.first().unwrap().initiation_interval_ms;
        let last = points.last().unwrap().initiation_interval_ms;
        assert!(last <= first + 1e-9);
        for p in points {
            assert!(p.average_utilization > 0.0 && p.average_utilization <= 1.0);
            assert!(p.solve_seconds >= 0.0);
            // Warm starts are off: the diagnostics must say so.
            assert_eq!(p.warm_start.provenance(), "cold");
            assert!(p.relaxation_gap >= 0.0);
            assert!(p.bb_nodes >= 1);
        }
    }

    #[test]
    fn exact_sweep_skips_infeasible_points() {
        // 8 % cannot host CONV1 (10.6 % BRAM per CU for Alex-16); 80 % can.
        // A node cap with no wall-clock limit, as the quick figures use, so
        // the search stops at the same node on any host.
        let grid = SweepGrid::builder()
            .case(CaseSpec::from_paper(PaperCase::Alex16OnTwoFpgas))
            .fpga_counts([2])
            .constraints([0.08, 0.80])
            .backend(SolverSpec::exact(ExactOptions {
                solver: SolverOptions {
                    max_nodes: 12,
                    time_limit_seconds: None,
                    ..SolverOptions::default()
                },
                ..ExactOptions::default()
            }))
            .build()
            .unwrap();
        let series = run_sweep(&grid, &ExecutorOptions::serial()).unwrap();
        let points = &series[0].points;
        assert_eq!(points.len(), 1);
        assert!((points[0].resource_constraint - 0.80).abs() < 1e-12);
        assert!(points[0].bb_nodes >= 1);
        assert_eq!(points[0].dropped_cus, 0);
    }

    #[test]
    fn infeasible_points_are_absent_not_fatal() {
        let grid = SweepGrid::builder()
            .case(CaseSpec::from_paper(PaperCase::Alex32OnFourFpgas))
            .fpga_counts([4])
            // 30 % cannot host CONV2 (37.6 % DSP per CU); 75 % can.
            .constraints([0.30, 0.75])
            .backend(SolverSpec::gpa(GpaOptions::fast()))
            .build()
            .unwrap();
        let series = run_sweep(&grid, &ExecutorOptions::default()).unwrap();
        assert_eq!(series[0].points.len(), 1);
        assert!((series[0].points[0].resource_constraint - 0.75).abs() < 1e-12);
    }

    #[test]
    fn heterogeneous_platform_and_budget_axes_run_deterministically() {
        use mfa_platform::{
            DeviceGroup, FpgaDevice, HeterogeneousPlatform, ResourceBudget, ResourceVec,
        };
        let fleet = HeterogeneousPlatform::new(
            "1×VU9P + 1×KU115",
            vec![
                DeviceGroup::new(FpgaDevice::vu9p(), 1),
                DeviceGroup::new(FpgaDevice::ku115(), 1),
            ],
        );
        let grid = SweepGrid::builder()
            .case(CaseSpec::from_paper(PaperCase::Alex16OnTwoFpgas))
            .fpga_counts([2])
            .platform(crate::PlatformSpec::platform(fleet))
            .constraints([0.65, 0.80])
            .budget(ResourceBudget::new(
                ResourceVec::new(0.9, 0.9, 0.6, 0.75),
                0.9,
            ))
            .backend(SolverSpec::gpa(GpaOptions::fast()))
            .build()
            .unwrap();
        let serial = run_sweep(
            &grid,
            &ExecutorOptions {
                chunk_size: 2,
                ..ExecutorOptions::serial()
            },
        )
        .unwrap();
        let parallel = run_sweep(
            &grid,
            &ExecutorOptions {
                num_threads: Some(4),
                chunk_size: 2,
                ..ExecutorOptions::default()
            },
        )
        .unwrap();
        assert_eq!(zeroed(serial.clone()), zeroed(parallel));
        assert_eq!(serial.len(), 2);
        assert_eq!(serial[0].platform, "2 FPGAs");
        assert_eq!(serial[1].platform, "1×VU9P + 1×KU115");
        assert_eq!(serial[1].num_fpgas, 2);
        // All three budget points solve on both platforms.
        for s in &serial {
            assert_eq!(s.points.len(), 3, "{}: {:?}", s.platform, s.points);
            // The per-resource point records its full budget.
            let skewed = &s.points[2];
            assert!((skewed.budget.resource_fraction().bram - 0.6).abs() < 1e-12);
            assert!((skewed.budget.bandwidth_fraction() - 0.9).abs() < 1e-12);
            assert!((skewed.resource_constraint - 0.9).abs() < 1e-12);
        }
        // The uniform points inherit the case's full bandwidth.
        assert!((serial[0].points[0].budget.bandwidth_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn skip_policy_and_deadline_riders_reach_every_point_request() {
        use mfa_alloc::solver::SkipPolicy;
        use mfa_alloc::AllocError;
        // Every point carries an already-exhausted deadline. Lenient (the
        // default): all points are skipped and the sweep succeeds empty.
        let lenient = SweepGrid::builder()
            .case(CaseSpec::from_paper(PaperCase::Alex16OnTwoFpgas))
            .fpga_counts([2])
            .constraints([0.65, 0.80])
            .backend(SolverSpec::gpa(GpaOptions::fast()))
            .point_deadline_seconds(0.0)
            .build()
            .unwrap();
        let series = run_sweep(&lenient, &ExecutorOptions::serial()).unwrap();
        assert!(series[0].points.is_empty());
        // Strict: the same exhausted deadline aborts the sweep with the
        // structured error — the opt-in for exact sweeps that must account
        // for every point.
        let strict = SweepGrid::builder()
            .case(CaseSpec::from_paper(PaperCase::Alex16OnTwoFpgas))
            .fpga_counts([2])
            .constraints([0.65, 0.80])
            .backend(SolverSpec::gpa(GpaOptions::fast()))
            .point_deadline_seconds(0.0)
            .skip_policy(SkipPolicy::Strict)
            .build()
            .unwrap();
        assert_eq!(strict.skip_policy(), SkipPolicy::Strict);
        let err = run_sweep(&strict, &ExecutorOptions::serial()).unwrap_err();
        assert!(
            matches!(
                &err,
                ExploreError::Solver {
                    source: AllocError::DeadlineExceeded { .. },
                    ..
                }
            ),
            "expected a DeadlineExceeded sweep abort, got {err}"
        );
        // Strict mode still skips genuine infeasibility: a budget too tight
        // for Alex-32's CONV2 is "no data", not an engine failure.
        let strict_infeasible = SweepGrid::builder()
            .case(CaseSpec::from_paper(PaperCase::Alex32OnFourFpgas))
            .fpga_counts([4])
            .constraints([0.30, 0.75])
            .backend(SolverSpec::gpa(GpaOptions::fast()))
            .skip_policy(SkipPolicy::Strict)
            .build()
            .unwrap();
        let series = run_sweep(&strict_infeasible, &ExecutorOptions::serial()).unwrap();
        assert_eq!(series[0].points.len(), 1);
    }

    #[test]
    fn zero_chunk_size_errors_instead_of_hanging() {
        let grid = alex16_grid(4, vec![SolverSpec::gpa(GpaOptions::fast())]);
        let result = run_sweep(
            &grid,
            &ExecutorOptions {
                chunk_size: 0,
                ..ExecutorOptions::serial()
            },
        );
        assert!(matches!(result, Err(ExploreError::InvalidOptions(_))));
        assert!(matches!(
            plan_units(&grid, 0),
            Err(ExploreError::InvalidOptions(_))
        ));
    }

    #[test]
    fn planned_units_tile_every_series_in_order() {
        let grid = SweepGrid::builder()
            .case(CaseSpec::from_paper(PaperCase::Alex16OnTwoFpgas))
            .fpga_counts([1, 2])
            .constraints([0.6, 0.65, 0.7, 0.75, 0.8])
            .backend(SolverSpec::gpa(GpaOptions::fast()))
            .build()
            .unwrap();
        let units = plan_units(&grid, 2).unwrap();
        assert_eq!(
            units,
            vec![
                WorkUnit {
                    series: 0,
                    start: 0,
                    end: 2
                },
                WorkUnit {
                    series: 0,
                    start: 2,
                    end: 4
                },
                WorkUnit {
                    series: 0,
                    start: 4,
                    end: 5
                },
                WorkUnit {
                    series: 1,
                    start: 0,
                    end: 2
                },
                WorkUnit {
                    series: 1,
                    start: 2,
                    end: 4
                },
                WorkUnit {
                    series: 1,
                    start: 4,
                    end: 5
                },
            ]
        );
        // A chunk size at least as large as the budget axis yields one unit
        // per series.
        assert_eq!(plan_units(&grid, 64).unwrap().len(), grid.num_series());
    }

    #[test]
    fn assembly_is_independent_of_completion_order() {
        let grid = alex16_grid(6, vec![SolverSpec::gpa(GpaOptions::fast())]);
        let units = plan_units(&grid, 2).unwrap();
        let in_order: Vec<_> = units
            .iter()
            .map(|u| compute_unit(&grid, u, true).unwrap())
            .collect();
        // Compute the same units back to front — the stand-in for an
        // adversarial scheduler — and slot results by index.
        let mut reversed: Vec<Option<Vec<Option<SweepPoint>>>> = vec![None; units.len()];
        for (idx, unit) in units.iter().enumerate().rev() {
            reversed[idx] = Some(compute_unit(&grid, unit, true).unwrap());
        }
        let reversed: Vec<_> = reversed.into_iter().map(Option::unwrap).collect();
        let mut a = assemble_series(&grid, &units, in_order);
        let mut b = assemble_series(&grid, &units, reversed);
        zero_timing(&mut a);
        zero_timing(&mut b);
        assert_eq!(a, b);
        let mut serial = run_sweep(
            &grid,
            &ExecutorOptions {
                chunk_size: 2,
                ..ExecutorOptions::serial()
            },
        )
        .unwrap();
        zero_timing(&mut serial);
        assert_eq!(a, serial);
    }

    #[test]
    fn series_cover_the_full_axis_product() {
        let grid = SweepGrid::builder()
            .case(CaseSpec::from_paper(PaperCase::Alex16OnTwoFpgas))
            .fpga_counts([1, 2])
            .constraints([0.7, 0.8])
            .backend(SolverSpec::gpa(GpaOptions::fast()))
            .backend(SolverSpec::gpa_labeled(
                "GP+A/gp",
                GpaOptions::paper_defaults(),
            ))
            .build()
            .unwrap();
        let series = run_sweep(&grid, &ExecutorOptions::default()).unwrap();
        assert_eq!(series.len(), 4);
        assert_eq!(series[0].num_fpgas, 1);
        assert_eq!(series[0].backend, "GP+A");
        assert_eq!(series[1].backend, "GP+A/gp");
        assert_eq!(series[2].num_fpgas, 2);
        for s in &series {
            assert_eq!(s.case, "Alex-16 on 2 FPGAs");
            assert!(!s.points.is_empty());
        }
    }
}
