//! Acceptance tests of the parallel exploration engine (`mfa_explore`)
//! against the single-threaded sweeps in `mfa_alloc::explore`:
//!
//! * engine output (serial and parallel, warm-started or not) must match the
//!   core sweeps on the paper's Alex-16 and VGG cases, ordering included;
//! * the parallel executor must return byte-identical series to the serial
//!   path;
//! * on a multi-core host, sweeping a Fig. 3-sized grid in parallel must not
//!   be slower than sweeping it serially.

use std::num::NonZeroUsize;
use std::time::Instant;

use mfa_alloc::cases::PaperCase;
use mfa_alloc::exact::ExactOptions;
use mfa_alloc::explore as core_explore;
use mfa_alloc::gpa::GpaOptions;
use mfa_explore::{
    constraint_grid, run_sweep, CaseSpec, ExecutorOptions, SolverSpec, SweepGrid, SweepSeries,
};
use mfa_minlp::SolverOptions;

/// Wall-clock timing is the only field allowed to differ between runs.
fn zero_timing(mut series: Vec<SweepSeries>) -> Vec<SweepSeries> {
    for s in &mut series {
        for p in &mut s.points {
            p.solve_seconds = 0.0;
        }
    }
    series
}

fn assert_points_match(
    engine: &[mfa_explore::SweepPoint],
    core: &[mfa_explore::SweepPoint],
    label: &str,
) {
    assert_eq!(engine.len(), core.len(), "{label}: series lengths differ");
    for (e, c) in engine.iter().zip(core) {
        assert_eq!(e.resource_constraint, c.resource_constraint, "{label}");
        assert_eq!(
            e.initiation_interval_ms, c.initiation_interval_ms,
            "{label}"
        );
        assert_eq!(e.average_utilization, c.average_utilization, "{label}");
        assert_eq!(e.spreading, c.spreading, "{label}");
    }
}

#[test]
fn engine_matches_core_sweep_gpa_on_alex16() {
    let constraints = constraint_grid(0.55, 0.85, 5).unwrap();
    let options = GpaOptions::fast();
    let grid = SweepGrid::builder()
        .case(CaseSpec::from_paper(PaperCase::Alex16OnTwoFpgas))
        .fpga_counts([2])
        .constraints(constraints.iter().copied())
        .backend(SolverSpec::gpa(options.clone()))
        .build()
        .unwrap();
    // Warm starts off: the engine then follows exactly the same solve path
    // as the core sweep, so every metric field must be bit-identical.
    let engine = run_sweep(
        &grid,
        &ExecutorOptions {
            warm_start: false,
            ..ExecutorOptions::default()
        },
    )
    .unwrap();
    let problem = PaperCase::Alex16OnTwoFpgas.problem(0.70).unwrap();
    let core = core_explore::sweep_gpa(&problem, &constraints, &options).unwrap();
    assert_points_match(&engine[0].points, &core, "Alex-16 GP+A");
}

#[test]
fn engine_matches_core_sweep_gpa_on_vgg() {
    let constraints = [0.61, 0.70, 0.80];
    let options = GpaOptions::fast();
    let grid = SweepGrid::builder()
        .case(CaseSpec::from_paper(PaperCase::VggOnEightFpgas))
        .fpga_counts([8])
        .constraints(constraints)
        .backend(SolverSpec::gpa(options.clone()))
        .build()
        .unwrap();
    let engine = run_sweep(
        &grid,
        &ExecutorOptions {
            warm_start: false,
            ..ExecutorOptions::default()
        },
    )
    .unwrap();
    let problem = PaperCase::VggOnEightFpgas.problem(0.61).unwrap();
    let core = core_explore::sweep_gpa(&problem, &constraints, &options).unwrap();
    assert_points_match(&engine[0].points, &core, "VGG GP+A");
}

#[test]
fn engine_matches_core_sweep_exact_on_alex16() {
    let constraints = [0.70, 0.80];
    // A node cap with no wall-clock limit, as the quick figures use: both
    // runs then stop at the same node on any machine.
    let options = ExactOptions {
        solver: SolverOptions {
            max_nodes: 500,
            time_limit_seconds: None,
            ..SolverOptions::default()
        },
        ..ExactOptions::default()
    };
    let grid = SweepGrid::builder()
        .case(CaseSpec::from_paper(PaperCase::Alex16OnTwoFpgas))
        .fpga_counts([2])
        .constraints(constraints)
        .backend(SolverSpec::exact(options.clone()))
        .build()
        .unwrap();
    let engine = run_sweep(&grid, &ExecutorOptions::default()).unwrap();
    let problem = PaperCase::Alex16OnTwoFpgas.problem(0.70).unwrap();
    let core = core_explore::sweep_exact(&problem, &constraints, &options).unwrap();
    assert_points_match(&engine[0].points, &core, "Alex-16 MINLP");
}

#[test]
fn parallel_series_are_byte_identical_to_serial() {
    let grid = SweepGrid::builder()
        .case(CaseSpec::from_paper(PaperCase::Alex16OnTwoFpgas))
        .case(CaseSpec::from_paper(PaperCase::VggOnEightFpgas))
        .fpga_counts([2, 8])
        .constraints(constraint_grid(0.58, 0.80, 4).unwrap())
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
            warm_start: true,
            ..ExecutorOptions::default()
        },
    )
    .unwrap();
    assert_eq!(zero_timing(serial), zero_timing(parallel));
}

#[test]
fn parallel_sweep_is_not_slower_on_multicore() {
    let cores = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    if cores < 2 {
        eprintln!("skipping: single-core host cannot demonstrate a speedup");
        return;
    }
    // A Fig. 3-shaped workload: the Alex cases at the paper's FPGA counts
    // over the Fig. 3 constraint axis, GP+A backends only so the point cost
    // is stable enough for a timing comparison.
    let grid = SweepGrid::builder()
        .case(CaseSpec::from_paper(PaperCase::Alex16OnTwoFpgas))
        .case(CaseSpec::from_paper(PaperCase::Alex32OnFourFpgas))
        .fpga_counts([2, 4])
        .constraints(constraint_grid(0.55, 0.85, 7).unwrap())
        .backend(SolverSpec::gpa(GpaOptions::fast()))
        .backend(SolverSpec::gpa_labeled(
            "GP+A/gp",
            GpaOptions::paper_defaults(),
        ))
        .build()
        .unwrap();
    // Warm both paths up once so lazy initialization costs are excluded.
    let _ = run_sweep(&grid, &ExecutorOptions::serial()).unwrap();
    let t0 = Instant::now();
    let serial = run_sweep(&grid, &ExecutorOptions::serial()).unwrap();
    let serial_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let parallel = run_sweep(&grid, &ExecutorOptions::default()).unwrap();
    let parallel_s = t1.elapsed().as_secs_f64();
    assert_eq!(zero_timing(serial), zero_timing(parallel));
    assert!(
        parallel_s <= serial_s * 1.10,
        "parallel sweep ({parallel_s:.3} s) slower than serial ({serial_s:.3} s) on {cores} cores"
    );
}
