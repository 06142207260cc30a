//! `dse` — reproduce all of the paper's figure data (Figs. 2–5) in one run
//! of the parallel design-space exploration engine, plus the text report of
//! its tables (Tables 2–4, Fig. 6 and the ablation), optionally exporting
//! each figure's series as JSON + CSV and cross-validating a sample of the
//! swept designs through the `mfa_sim` discrete-event simulator.
//!
//! ```text
//! cargo run --release --example dse -- [FLAGS]
//!   --quick          reduced grids and tiny MINLP budgets (CI smoke mode;
//!                    also exercises the skip paths for infeasible points
//!                    and budget-exhausted exact solves)
//!   --threads N      worker threads (default: all cores)
//!   --workers N      shard each grid across N sweep-worker processes
//!                    (build them first: cargo build --release -p mfa_dispatch)
//!   --connect ADDR   use a TCP worker at ADDR (host:port started with
//!                    `sweep-worker --listen`; repeatable, overrides --workers)
//!   --out PREFIX     write PREFIX-{fig2,fig3,fig4,fig5,hetero}.{json,csv}
//!                    and PREFIX-tables.txt
//!   --zero-timing    zero the solve_seconds column before exporting (for
//!                    byte-comparable golden snapshots)
//!   --no-exact       skip the MINLP/MINLP+G series (GP+A only)
//!   --no-warm-start  solve every point cold (disable the per-chunk
//!                    warm-start cache; for effort/wall-clock comparisons)
//!   --compare-serial also run the Fig. 3 grid serially and report speedup
//!   --store SPEC     persist every figure sweep in a content-addressed
//!                    result store and replay stored points instead of
//!                    recomputing them; a second identical run computes 0
//!                    points and a killed run resumes from the units that
//!                    finished. SPEC is a directory (one subdirectory per
//!                    figure) or tcp://host:port for a store-server shared
//!                    across sweep hosts (one namespace per figure)
//!   --no-store       ignore an existing store (compute everything fresh,
//!                    persist nothing)
//! ```
//!
//! The figure grids and the tables report live in `mfa_explore::figures`,
//! shared with the golden-file regression tests and the dispatcher's
//! determinism tests. The report is computed in-process whatever the engine.

use std::time::Instant;

use mfa::dispatch::{
    default_worker_program, run_sweep_sharded, run_sweep_sharded_stored, spawned_workers,
    DispatchOptions, WorkerSpec,
};
use mfa::explore::{
    constraint_grid, export, figures, run_sweep, run_sweep_stored, validate, zero_timing, CaseSpec,
    ExecutorOptions, ResultStore, SolverSpec, StoreRunReport, SweepGrid, SweepSeries, SweepStore,
};
use mfa_alloc::cases::PaperCase;
use mfa_alloc::gpa::GpaOptions;
use mfa_sim::SimConfig;

struct Args {
    quick: bool,
    threads: Option<usize>,
    workers: Option<usize>,
    connect: Vec<String>,
    out: Option<String>,
    zero_timing: bool,
    exact: bool,
    warm_start: bool,
    compare_serial: bool,
    store: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        threads: None,
        workers: None,
        connect: Vec::new(),
        out: None,
        zero_timing: false,
        exact: true,
        warm_start: true,
        compare_serial: false,
        store: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--no-exact" => args.exact = false,
            "--no-warm-start" => args.warm_start = false,
            "--zero-timing" => args.zero_timing = true,
            "--compare-serial" => args.compare_serial = true,
            "--threads" => {
                let v = iter.next().ok_or("--threads needs a value")?;
                args.threads = Some(v.parse().map_err(|_| format!("bad thread count {v}"))?);
            }
            "--workers" => {
                let v = iter.next().ok_or("--workers needs a value")?;
                args.workers = Some(v.parse().map_err(|_| format!("bad worker count {v}"))?);
            }
            "--connect" => args
                .connect
                .push(iter.next().ok_or("--connect needs host:port")?),
            "--out" => args.out = Some(iter.next().ok_or("--out needs a path prefix")?),
            "--store" => {
                args.store = Some(
                    iter.next()
                        .ok_or("--store needs a directory or tcp:// URL")?,
                );
            }
            "--no-store" => args.store = None,
            other => return Err(format!("unknown flag {other} (see the header of dse.rs)")),
        }
    }
    Ok(args)
}

/// How grids are executed this run: in-process threads, or sharded across
/// worker processes / TCP peers.
enum Engine {
    Threads(ExecutorOptions),
    Sharded(Vec<WorkerSpec>),
}

impl Engine {
    fn run(
        &self,
        grid: &SweepGrid,
        store: Option<&mut (dyn ResultStore + 'static)>,
    ) -> Result<(Vec<SweepSeries>, Option<StoreRunReport>), Box<dyn std::error::Error>> {
        match (self, store) {
            (Engine::Threads(options), None) => Ok((run_sweep(grid, options)?, None)),
            (Engine::Threads(options), Some(store)) => {
                let (series, report) = run_sweep_stored(grid, options, store)?;
                Ok((series, Some(report)))
            }
            // The dispatcher's default chunk size and warm-start policy
            // match ExecutorOptions::default(), so both paths produce
            // byte-identical series (timing aside).
            (Engine::Sharded(workers), None) => Ok((
                run_sweep_sharded(grid, workers, &DispatchOptions::default())?,
                None,
            )),
            (Engine::Sharded(workers), Some(store)) => {
                let (series, report) =
                    run_sweep_sharded_stored(grid, workers, &DispatchOptions::default(), store)?;
                Ok((series, Some(report)))
            }
        }
    }
}

/// Opens the per-figure store when `--store` is active: a subdirectory of a
/// local store root, or a namespace on a `tcp://host:port` store-server.
/// Figures share grid points, so each figure gets its own store — a shared
/// one would replay one figure's points into another's first run.
fn open_store(
    args: &Args,
    figure_name: &str,
) -> Result<Option<Box<dyn ResultStore>>, Box<dyn std::error::Error>> {
    let Some(root) = &args.store else {
        return Ok(None);
    };
    Ok(Some(match mfa::storenet::store_url(root) {
        Some(addr) => Box::new(mfa::storenet::RemoteStore::connect(addr, figure_name)?),
        None => {
            let dir = std::path::Path::new(root).join(figure_name);
            Box::new(SweepStore::open(dir)?)
        }
    }))
}

fn report_store(figure_name: &str, report: Option<StoreRunReport>, total: &mut StoreRunReport) {
    if let Some(report) = report {
        println!(
            "    store[{figure_name}]: replayed={} units ({} points), computed={} units \
             ({} points), warm-from-store={}, corrupt={}, version-mismatch={}",
            report.units_replayed,
            report.points_replayed,
            report.units_computed,
            report.points_computed,
            report.warm_from_store,
            report.corrupt_entries,
            report.version_mismatches
        );
        total.absorb(&report);
    }
}

fn print_series_table(title: &str, constraints: &[f64], series: &[SweepSeries]) {
    println!();
    println!("=== {title}");
    print!("{:>12}", "constraint");
    for s in series {
        print!(" {:>10}", s.backend);
    }
    println!();
    for &c in constraints {
        print!("{:>11.0}%", c * 100.0);
        for s in series {
            match s
                .points
                .iter()
                .find(|p| (p.resource_constraint - c).abs() < 1e-9)
            {
                Some(p) => print!(" {:>10.3}", p.initiation_interval_ms),
                None => print!(" {:>10}", "-"),
            }
        }
        println!();
    }
}

fn export_figure(
    args: &Args,
    name: &str,
    series: &[SweepSeries],
) -> Result<(), Box<dyn std::error::Error>> {
    if let Some(prefix) = &args.out {
        let mut series = series.to_vec();
        if args.zero_timing {
            zero_timing(&mut series);
        }
        let json = format!("{prefix}-{name}.json");
        let csv = format!("{prefix}-{name}.csv");
        export::write_json(&json, &series)?;
        export::write_csv(&csv, &series)?;
        println!("    wrote {json} and {csv}");
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args().map_err(|msg| -> Box<dyn std::error::Error> { msg.into() })?;
    let options = ExecutorOptions {
        num_threads: args.threads,
        warm_start: args.warm_start,
        ..ExecutorOptions::default()
    };
    if !args.warm_start && (args.workers.is_some() || !args.connect.is_empty()) {
        return Err(
            "--no-warm-start configures the in-process executor and has no \
                    effect on sharded runs; drop it or drop --workers/--connect"
                .into(),
        );
    }
    if args.threads.is_some() && (args.workers.is_some() || !args.connect.is_empty()) {
        return Err(
            "--threads configures the in-process executor and has no effect \
                    on sharded runs; drop it or drop --workers/--connect"
                .into(),
        );
    }
    let engine = if !args.connect.is_empty() {
        println!(
            "sharding each grid across {} TCP worker(s): {}",
            args.connect.len(),
            args.connect.join(", ")
        );
        Engine::Sharded(
            args.connect
                .iter()
                .map(|addr| WorkerSpec::Connect { addr: addr.clone() })
                .collect(),
        )
    } else if let Some(n) = args.workers {
        let program = default_worker_program()?;
        println!(
            "sharding each grid across {n} worker process(es) ({})",
            program.display()
        );
        Engine::Sharded(spawned_workers(program, n))
    } else {
        Engine::Threads(options.clone())
    };
    let started = Instant::now();

    let mut store_total = StoreRunReport::default();

    // ---- Figs. 2–5 from the shared presets.
    for figure in figures::paper_figures(args.quick, args.exact)? {
        let mut store = open_store(&args, figure.name)?;
        let (series, report) = engine.run(&figure.grid, store.as_deref_mut())?;
        print_series_table(&figure.title, &figure.constraints, &series);
        report_store(figure.name, report, &mut store_total);
        export_figure(&args, figure.name, &series)?;
    }

    // ---- Heterogeneous platform + per-resource budget axes (one point
    //      each, also in --quick mode, so CI exercises both new axes on
    //      every push).
    let hetero_figure = figures::hetero_smoke()?;
    let mut hetero_store = open_store(&args, hetero_figure.name)?;
    let (hetero, hetero_report) = engine.run(&hetero_figure.grid, hetero_store.as_deref_mut())?;
    println!();
    println!("=== {}", hetero_figure.title);
    for s in &hetero {
        for p in &s.points {
            let b = p.budget.resource_fraction();
            println!(
                "{:<18} budget (lut {:.2}, ff {:.2}, bram {:.2}, dsp {:.2}, bw {:.2}): \
                 II {:.3} ms",
                s.platform,
                b.lut,
                b.ff,
                b.bram,
                b.dsp,
                p.budget.bandwidth_fraction(),
                p.initiation_interval_ms
            );
        }
    }
    let hetero_points: usize = hetero.iter().map(|s| s.points.len()).sum();
    assert_eq!(
        hetero_points, 4,
        "both platform points must solve both budget points"
    );
    report_store(hetero_figure.name, hetero_report, &mut store_total);
    export_figure(&args, hetero_figure.name, &hetero)?;

    // ---- Tables 2–4, Fig. 6 and the ablation as one text report.
    let tables = figures::paper_tables(args.quick, args.exact)?;
    println!();
    print!("{tables}");
    if let Some(prefix) = &args.out {
        let path = format!("{prefix}-tables.txt");
        std::fs::write(&path, &tables)?;
        println!("    wrote {path}");
    }

    if args.store.is_some() {
        println!();
        println!(
            "store total: computed={} points, replayed={} points, warm-from-store={}",
            store_total.points_computed, store_total.points_replayed, store_total.warm_from_store
        );
    }

    // ---- Cross-validate a sample of swept designs through the simulator.
    println!();
    println!("=== Cross-validation: GP+A predictions vs discrete-event simulation");
    println!(
        "{:<22} {:>10} {:>14} {:>14} {:>9}",
        "case", "constraint", "predicted (ms)", "simulated (ms)", "error"
    );
    let sim_config = SimConfig {
        num_items: if args.quick { 120 } else { 400 },
        ..SimConfig::default()
    };
    let mut worst_error = 0.0_f64;
    for case in PaperCase::all() {
        let (lo, hi) = case.constraint_range();
        let samples = [lo, 0.5 * (lo + hi), hi];
        let rows = validate::cross_validate_gpa(
            &CaseSpec::from_paper(case),
            case.num_fpgas(),
            if args.quick { &samples[..1] } else { &samples },
            &GpaOptions::fast(),
            &sim_config,
        )?;
        for row in rows {
            worst_error = worst_error.max(row.relative_error);
            println!(
                "{:<22} {:>9.0}% {:>14.3} {:>14.3} {:>8.2}%",
                row.case,
                row.resource_constraint * 100.0,
                row.predicted_ii_ms,
                row.simulated_ii_ms,
                row.relative_error * 100.0
            );
        }
    }
    if worst_error > 0.10 {
        return Err(format!(
            "simulation diverges from the analytic model: worst relative II error {:.1}% > 10%",
            worst_error * 100.0
        )
        .into());
    }

    // ---- Optional serial-vs-parallel comparison on the Fig. 3 GP+A grid.
    if args.compare_serial {
        let grid = SweepGrid::builder()
            .case(CaseSpec::from_paper(PaperCase::Alex16OnTwoFpgas))
            .case(CaseSpec::from_paper(PaperCase::Alex32OnFourFpgas))
            .fpga_counts([2, 4])
            .constraints(constraint_grid(0.55, 0.85, 7)?)
            .backend(SolverSpec::gpa(GpaOptions::fast()))
            .backend(SolverSpec::gpa_labeled(
                "GP+A/gp",
                GpaOptions::paper_defaults(),
            ))
            .build()?;
        let t0 = Instant::now();
        let serial = run_sweep(&grid, &ExecutorOptions::serial())?;
        let serial_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let parallel = run_sweep(&grid, &options)?;
        let parallel_s = t1.elapsed().as_secs_f64();
        assert_eq!(
            serial.iter().map(|s| s.points.len()).sum::<usize>(),
            parallel.iter().map(|s| s.points.len()).sum::<usize>(),
        );
        println!();
        println!(
            "serial {serial_s:.2} s vs parallel {parallel_s:.2} s ({:.2}x) on {} points",
            serial_s / parallel_s.max(1e-9),
            grid.num_points(),
        );
    }

    println!();
    println!(
        "dse completed in {:.2} s (quick = {}, exact = {})",
        started.elapsed().as_secs_f64(),
        args.quick,
        args.exact
    );
    Ok(())
}
