//! Benchmark-snapshot harness for the quick figure presets.
//!
//! Sweeps the same grids CI smokes (`dse --quick` plus the hetero grid) and
//! records, per figure, the *machine-independent* effort counters the solver
//! stack reports — interior-point barrier iterations, KKT factorizations,
//! simplex pivots, branch-and-bound nodes — next to informational wall-clock
//! timing. The counters are deterministic for a fixed grid and chunk size,
//! so the committed snapshot (`BENCH_0007.json` at the repository root)
//! byte-diffs across machines; wall-clock is recorded for humans and always
//! excluded from comparison.
//!
//! Each figure is measured twice: once with the executor's warm starts (the
//! default sweep configuration) and once cold (`--no-warm-start` executor
//! options), so the snapshot pins both the warm-started effort and the
//! baseline it saves against. Both blocks are compared by `--check`, and no
//! warm effort counter may exceed its cold one: warm starts never cost more
//! than cold solves. That invariant is enforced at measurement time, in
//! `--out` and `--check` alike.
//!
//! Version 3 adds a `store` block exercising the persistent sweep store in a
//! temporary directory: an identical re-run must replay every point
//! (`replay_points_computed` is pinned at 0), and a *shifted* constraint
//! grid seeded from the stored neighbours must spend strictly fewer
//! branch-and-bound nodes than the same grid solved cold while producing
//! identical solution columns. Those invariants are enforced at measurement
//! time — the binary fails even in `--out` mode if they break — and the
//! counters are pinned by `--check` like every other block.
//!
//! ```text
//! bench-snapshot --quick --out BENCH_0007.json   # (re)write the snapshot
//! bench-snapshot --quick --check BENCH_0007.json # CI: fail on counter drift
//! ```

use std::process::ExitCode;
use std::time::Instant;

use mfa_alloc::exact::{ExactMode, ExactOptions};
use mfa_alloc::gpa::GpaOptions;
use mfa_alloc::{AllocationProblem, GoalWeights, Kernel};
use mfa_explore::json::Json;
use mfa_explore::{
    figures, run_sweep, run_sweep_stored, zero_chunk_diagnostics, zero_timing, CaseSpec,
    ExecutorOptions, FigureSpec, SolverSpec, SweepGrid, SweepSeries, SweepStore,
};
use mfa_minlp::SolverOptions;
use mfa_platform::{MultiFpgaPlatform, ResourceBudget, ResourceVec};

/// Snapshot format version; bump when the schema changes shape.
/// Version 2 added the cold (`--no-warm-start`) counter block per figure.
/// Version 3 added the persistent-store replay/neighbour-warming block.
const SNAPSHOT_VERSION: usize = 3;

/// Effort counters of one figure sweep, summed over every solved point of
/// every series, plus the (excluded-from-diff) wall-clock.
struct FigureEffort {
    name: &'static str,
    /// Solved points across all series.
    points: usize,
    /// Planned-but-skipped points (infeasible budgets, exhausted node or
    /// pivot budgets) across all series.
    skipped: usize,
    barrier_iterations: usize,
    factorizations: usize,
    simplex_pivots: usize,
    bb_nodes: usize,
    wall_seconds: f64,
}

/// The deterministic counter keys a snapshot is compared on, in report
/// order. `points`/`skipped` guard against a sweep silently shrinking;
/// the rest are the solver-effort counters themselves.
const COUNTER_KEYS: [&str; 6] = [
    "points",
    "skipped",
    "barrier_iterations",
    "factorizations",
    "simplex_pivots",
    "bb_nodes",
];

impl FigureEffort {
    fn counter(&self, key: &str) -> usize {
        match key {
            "points" => self.points,
            "skipped" => self.skipped,
            "barrier_iterations" => self.barrier_iterations,
            "factorizations" => self.factorizations,
            "simplex_pivots" => self.simplex_pivots,
            "bb_nodes" => self.bb_nodes,
            _ => unreachable!("unknown counter key {key}"),
        }
    }
}

/// The benchmarked figure set: the quick paper figures (with the MINLP
/// series) plus the heterogeneous smoke grid — exactly the grids the golden
/// snapshots cover.
fn bench_figures() -> Vec<FigureSpec> {
    let mut figs = figures::paper_figures(true, true).expect("quick figure grids are well-formed");
    figs.push(figures::hetero_smoke().expect("hetero grid is well-formed"));
    figs
}

fn measure(figure: &FigureSpec, warm_start: bool) -> FigureEffort {
    let options = ExecutorOptions {
        warm_start,
        ..ExecutorOptions::default()
    };
    let start = Instant::now();
    let series: Vec<SweepSeries> = run_sweep(&figure.grid, &options)
        .unwrap_or_else(|err| panic!("sweep of {} failed: {err}", figure.name));
    let wall_seconds = start.elapsed().as_secs_f64();
    let planned = figure.grid.num_points();
    let mut effort = FigureEffort {
        name: figure.name,
        points: 0,
        skipped: 0,
        barrier_iterations: 0,
        factorizations: 0,
        simplex_pivots: 0,
        bb_nodes: 0,
        wall_seconds,
    };
    for s in &series {
        for p in &s.points {
            effort.points += 1;
            effort.barrier_iterations += p.barrier_iterations;
            effort.factorizations += p.factorizations;
            effort.simplex_pivots += p.simplex_pivots;
            effort.bb_nodes += p.bb_nodes;
        }
    }
    effort.skipped = planned - effort.points;
    effort
}

/// A figure measured twice: with the executor's warm starts (the default
/// sweep configuration) and cold (`--no-warm-start` executor options).
struct MeasuredFigure {
    warm: FigureEffort,
    cold: FigureEffort,
}

/// The effort counters a warm start may never raise above the cold solve's.
const WARM_BOUNDED_KEYS: [&str; 4] = [
    "barrier_iterations",
    "factorizations",
    "simplex_pivots",
    "bb_nodes",
];

impl MeasuredFigure {
    /// The counters on which the warm sweep spent more than the cold one,
    /// each naming the figure and the counter.
    fn warm_over_cold(&self) -> Vec<String> {
        WARM_BOUNDED_KEYS
            .iter()
            .filter(|&&key| self.warm.counter(key) > self.cold.counter(key))
            .map(|&key| {
                format!(
                    "{}: warm {key} {} exceeds cold {}",
                    self.warm.name,
                    self.warm.counter(key),
                    self.cold.counter(key)
                )
            })
            .collect()
    }
}

/// Counters of the persistent-store scenario (see [`measure_store`]).
struct StoreEffort {
    /// Points computed by an identical re-run against a populated store.
    /// Pinned at 0: the second run must replay everything.
    replay_points_computed: usize,
    /// Points replayed by that re-run (the whole populate grid).
    replay_points_replayed: usize,
    /// Points of the shifted grid whose solve accepted a store-neighbour
    /// hint.
    warm_from_store: usize,
    /// Branch-and-bound nodes of the shifted grid solved cold.
    bb_nodes_cold: usize,
    /// Branch-and-bound nodes of the shifted grid seeded from the store;
    /// must be strictly below `bb_nodes_cold`.
    bb_nodes_store: usize,
    /// Shifted-grid points whose solution columns differ between the cold
    /// and the store-seeded run. Pinned at 0: hints change effort, never
    /// solutions.
    solution_mismatches: usize,
}

/// The deterministic counter keys of the store block, in report order.
const STORE_KEYS: [&str; 6] = [
    "replay_points_computed",
    "replay_points_replayed",
    "warm_from_store",
    "bb_nodes_cold",
    "bb_nodes_store",
    "solution_mismatches",
];

impl StoreEffort {
    fn counter(&self, key: &str) -> usize {
        match key {
            "replay_points_computed" => self.replay_points_computed,
            "replay_points_replayed" => self.replay_points_replayed,
            "warm_from_store" => self.warm_from_store,
            "bb_nodes_cold" => self.bb_nodes_cold,
            "bb_nodes_store" => self.bb_nodes_store,
            "solution_mismatches" => self.solution_mismatches,
            _ => unreachable!("unknown store counter key {key}"),
        }
    }
}

/// The store scenario's grid: a small synthetic pipeline on two FPGAs, one
/// GP+A and one MINLP backend, over the given constraint axis. The case is
/// sized so the MINLP branch-and-bound *completes* on every point — a
/// truncated search would let an incumbent seed change the achieved II,
/// while a completed one proves the same optimum with or without seeds, so
/// seeds can only shrink the node count. (The paper cases' MINLP searches
/// exhaust any affordable node budget, which is exactly why the figure
/// presets cap them.)
fn store_grid(constraints: &[f64]) -> SweepGrid {
    let base = AllocationProblem::builder()
        .kernels(vec![
            Kernel::new("load", 3.0, ResourceVec::bram_dsp(0.05, 0.16), 0.02)
                .expect("kernel is well-formed"),
            Kernel::new("conv", 7.0, ResourceVec::bram_dsp(0.09, 0.30), 0.03)
                .expect("kernel is well-formed"),
            Kernel::new("pool", 4.0, ResourceVec::bram_dsp(0.04, 0.12), 0.02)
                .expect("kernel is well-formed"),
            Kernel::new("fc", 6.0, ResourceVec::bram_dsp(0.07, 0.22), 0.01)
                .expect("kernel is well-formed"),
        ])
        .platform(MultiFpgaPlatform::aws_f1_4xlarge())
        .budget(ResourceBudget::uniform(1.0))
        .weights(GoalWeights::new(1.0, 0.7))
        .build()
        .expect("store scenario case is well-formed");
    SweepGrid::builder()
        .case(CaseSpec::new("store-bench", base))
        .fpga_counts([2])
        .constraints(constraints.iter().copied())
        .backend(SolverSpec::gpa(GpaOptions::fast()))
        .backend(SolverSpec::exact(ExactOptions {
            mode: ExactMode::IiOnly,
            solver: SolverOptions {
                max_nodes: 20_000,
                time_limit_seconds: None,
                ..SolverOptions::default()
            },
            symmetry_breaking: true,
        }))
        .build()
        .expect("store scenario grid is well-formed")
}

fn total_bb_nodes(series: &[SweepSeries]) -> usize {
    series
        .iter()
        .flat_map(|s| &s.points)
        .map(|p| p.bb_nodes)
        .sum()
}

/// Exercises the persistent sweep store in a temporary directory and
/// asserts its two contracts: an identical re-run computes nothing, and
/// store-neighbour seeds on a shifted grid strictly reduce branch-and-bound
/// effort without changing any solution column.
fn measure_store() -> StoreEffort {
    let dir = std::env::temp_dir().join(format!("mfa-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = ExecutorOptions::default();
    let populate_grid = store_grid(&[0.55, 0.65, 0.75, 0.85]);
    let shifted_grid = store_grid(&[0.60, 0.70, 0.80]);

    // Populate, then replay the identical grid from a fresh store handle.
    let mut store = SweepStore::open(&dir).expect("store directory opens");
    run_sweep_stored(&populate_grid, &options, &mut store).expect("populate run succeeds");
    let mut store = SweepStore::open(&dir).expect("store directory reopens");
    let (_, replay) =
        run_sweep_stored(&populate_grid, &options, &mut store).expect("replay run succeeds");
    assert_eq!(
        replay.points_computed, 0,
        "an identical re-run must replay every stored point"
    );

    // The shifted grid, cold and store-seeded.
    let mut cold_series = run_sweep(&shifted_grid, &options).expect("cold shifted run succeeds");
    let bb_nodes_cold = total_bb_nodes(&cold_series);
    let mut store = SweepStore::open(&dir).expect("store directory reopens");
    let (mut warm_series, warmed) =
        run_sweep_stored(&shifted_grid, &options, &mut store).expect("seeded shifted run succeeds");
    let bb_nodes_store = total_bb_nodes(&warm_series);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        bb_nodes_store < bb_nodes_cold,
        "store-fed incumbents must strictly reduce B&B nodes          (cold {bb_nodes_cold}, store {bb_nodes_store})"
    );
    assert!(
        warmed.warm_from_store > 0,
        "the shifted grid must accept at least one store-neighbour hint"
    );

    // The achieved initiation intervals must be untouched by the hints.
    // This is the warm-start contract the in-unit cache already documents:
    // a seeded search proves the same optimum (only the effort changes),
    // though among II-tied integer designs it may return the neighbour's.
    let _ = (zero_timing(&mut cold_series), zero_timing(&mut warm_series));
    zero_chunk_diagnostics(&mut cold_series);
    zero_chunk_diagnostics(&mut warm_series);
    let solution_mismatches = cold_series
        .iter()
        .zip(&warm_series)
        .map(|(c, w)| {
            c.points.len().abs_diff(w.points.len())
                + c.points
                    .iter()
                    .zip(&w.points)
                    .filter(|(cp, wp)| {
                        cp.budget != wp.budget
                            || cp.initiation_interval_ms != wp.initiation_interval_ms
                    })
                    .count()
        })
        .sum::<usize>()
        + cold_series.len().abs_diff(warm_series.len());
    assert_eq!(
        solution_mismatches, 0,
        "store hints must never change an achieved initiation interval"
    );

    StoreEffort {
        replay_points_computed: replay.points_computed,
        replay_points_replayed: replay.points_replayed,
        warm_from_store: warmed.warm_from_store,
        bb_nodes_cold,
        bb_nodes_store,
        solution_mismatches,
    }
}

fn counters_json(e: &FigureEffort) -> Vec<(&'static str, Json)> {
    vec![
        ("points", Json::Num(e.points as f64)),
        ("skipped", Json::Num(e.skipped as f64)),
        ("barrier_iterations", Json::Num(e.barrier_iterations as f64)),
        ("factorizations", Json::Num(e.factorizations as f64)),
        ("simplex_pivots", Json::Num(e.simplex_pivots as f64)),
        ("bb_nodes", Json::Num(e.bb_nodes as f64)),
        // Informational only: never part of the --check diff.
        (
            "wall_seconds",
            Json::Num((e.wall_seconds * 1e3).round() / 1e3),
        ),
    ]
}

fn snapshot_json(measured: &[MeasuredFigure], store: &StoreEffort) -> String {
    let figures = measured
        .iter()
        .map(|m| {
            let mut fields = vec![("name", Json::str(m.warm.name))];
            fields.extend(counters_json(&m.warm));
            fields.push(("cold", Json::obj(counters_json(&m.cold))));
            Json::obj(fields)
        })
        .collect();
    let store_fields = STORE_KEYS
        .iter()
        .map(|&key| (key, Json::Num(store.counter(key) as f64)))
        .collect();
    let doc = Json::obj(vec![
        ("version", Json::Num(SNAPSHOT_VERSION as f64)),
        ("preset", Json::str("quick")),
        ("figures", Json::Arr(figures)),
        ("store", Json::obj(store_fields)),
    ]);
    let mut out = String::new();
    doc.write(&mut out);
    out.push('\n');
    out
}

/// Compares one counter block (warm or cold) against its snapshot entry,
/// appending human-readable differences. Wall-clock and unknown extra
/// fields are ignored by construction: only `COUNTER_KEYS` are compared.
fn diff_block(entry: &Json, effort: &FigureEffort, block: &str, diffs: &mut Vec<String>) {
    for key in COUNTER_KEYS {
        let Some(recorded) = entry.get(key).and_then(Json::as_usize) else {
            diffs.push(format!(
                "{}: snapshot lacks {block} counter {key}",
                effort.name
            ));
            continue;
        };
        let measured = effort.counter(key);
        if measured != recorded {
            let direction = if measured > recorded {
                "regressed"
            } else {
                "improved"
            };
            diffs.push(format!(
                "{}: {block} {key} {direction}: snapshot {recorded}, measured {measured}",
                effort.name
            ));
        }
    }
}

/// Compares the store block against its snapshot entry.
fn diff_store(committed: &Json, store: &StoreEffort, diffs: &mut Vec<String>) {
    let Some(entry) = committed.get("store") else {
        diffs.push("snapshot has no `store` block".into());
        return;
    };
    for key in STORE_KEYS {
        let Some(recorded) = entry.get(key).and_then(Json::as_usize) else {
            diffs.push(format!("snapshot lacks store counter {key}"));
            continue;
        };
        let measured = store.counter(key);
        if measured != recorded {
            diffs.push(format!(
                "store: {key} changed: snapshot {recorded}, measured {measured}"
            ));
        }
    }
}

/// Compares measured warm and cold counters against a committed snapshot.
/// Returns the human-readable differences (empty when counters match).
fn diff_against(committed: &Json, measured: &[MeasuredFigure]) -> Vec<String> {
    let mut diffs = Vec::new();
    let Some(figures) = committed.get("figures").and_then(Json::as_arr) else {
        return vec!["snapshot has no `figures` array".into()];
    };
    for m in measured {
        let Some(entry) = figures
            .iter()
            .find(|f| f.get("name").and_then(Json::as_str) == Some(m.warm.name))
        else {
            diffs.push(format!("snapshot has no entry for figure {}", m.warm.name));
            continue;
        };
        diff_block(entry, &m.warm, "warm", &mut diffs);
        match entry.get("cold") {
            Some(cold_entry) => diff_block(cold_entry, &m.cold, "cold", &mut diffs),
            None => diffs.push(format!(
                "{}: snapshot has no cold counter block",
                m.warm.name
            )),
        }
    }
    diffs
}

fn usage() -> ! {
    eprintln!(
        "usage: bench-snapshot [--quick] [--out PATH | --check PATH]\n\
         \n\
         --quick       run the quick (CI) figure presets [default; the only preset]\n\
         --out PATH    write the snapshot to PATH (default BENCH_0007.json)\n\
         --check PATH  re-measure and fail when any deterministic counter\n\
                       differs from the committed snapshot at PATH\n\
                       (wall_seconds is informational and never compared)"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            // The quick preset is the default (and only) preset; the flag is
            // accepted so invocations document what they run.
            "--quick" => {}
            "--out" => out_path = Some(args.next().unwrap_or_else(|| usage())),
            "--check" => check_path = Some(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    if out_path.is_some() && check_path.is_some() {
        usage();
    }

    let measured: Vec<MeasuredFigure> = bench_figures()
        .iter()
        .map(|figure| MeasuredFigure {
            warm: measure(figure, true),
            cold: measure(figure, false),
        })
        .collect();
    for m in &measured {
        for (block, e) in [("warm", &m.warm), ("cold", &m.cold)] {
            println!(
                "{:>7} ({block}): {} points ({} skipped), {} barrier iterations, \
                 {} factorizations, {} simplex pivots, {} bb nodes, {:.3}s",
                e.name,
                e.points,
                e.skipped,
                e.barrier_iterations,
                e.factorizations,
                e.simplex_pivots,
                e.bb_nodes,
                e.wall_seconds
            );
        }
    }

    let over: Vec<String> = measured
        .iter()
        .flat_map(MeasuredFigure::warm_over_cold)
        .collect();
    if !over.is_empty() {
        eprintln!("warm starts cost more than cold solves:");
        for line in &over {
            eprintln!("  {line}");
        }
        return ExitCode::FAILURE;
    }

    let store = measure_store();
    println!(
        "  store: replay computed {} / replayed {}, warm-from-store {}, \
         bb nodes cold {} vs store {}, solution mismatches {}",
        store.replay_points_computed,
        store.replay_points_replayed,
        store.warm_from_store,
        store.bb_nodes_cold,
        store.bb_nodes_store,
        store.solution_mismatches
    );

    if let Some(path) = check_path {
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(err) => {
                eprintln!("cannot read snapshot {path}: {err}");
                return ExitCode::FAILURE;
            }
        };
        let committed = match Json::parse(&text) {
            Ok(doc) => doc,
            Err(err) => {
                eprintln!("snapshot {path} is not valid JSON: {err}");
                return ExitCode::FAILURE;
            }
        };
        let mut diffs = diff_against(&committed, &measured);
        diff_store(&committed, &store, &mut diffs);
        if diffs.is_empty() {
            println!("counters match {path}");
            return ExitCode::SUCCESS;
        }
        eprintln!("effort counters diverged from {path}:");
        for diff in &diffs {
            eprintln!("  {diff}");
        }
        eprintln!("regenerate with: cargo run --release -p mfa_bench --bin bench-snapshot -- --quick --out {path}");
        return ExitCode::FAILURE;
    }

    let path = out_path.unwrap_or_else(|| "BENCH_0007.json".to_owned());
    if let Err(err) = std::fs::write(&path, snapshot_json(&measured, &store)) {
        eprintln!("cannot write {path}: {err}");
        return ExitCode::FAILURE;
    }
    println!("wrote {path}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn effort(factorizations: usize, bb_nodes: usize) -> FigureEffort {
        FigureEffort {
            name: "fig4",
            points: 6,
            skipped: 0,
            barrier_iterations: 19,
            factorizations,
            simplex_pivots: 40,
            bb_nodes,
            wall_seconds: 0.0,
        }
    }

    #[test]
    fn a_warm_counter_above_cold_names_the_figure_and_the_counter() {
        let figure = MeasuredFigure {
            warm: effort(223, 10),
            cold: effort(214, 12),
        };
        assert_eq!(
            figure.warm_over_cold(),
            ["fig4: warm factorizations 223 exceeds cold 214"]
        );
        let figure = MeasuredFigure {
            warm: effort(147, 12),
            cold: effort(171, 12),
        };
        assert!(figure.warm_over_cold().is_empty());
    }
}
