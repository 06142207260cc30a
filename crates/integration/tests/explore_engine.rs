//! Acceptance tests of the parallel exploration engine (`mfa_explore`):
//!
//! * the parallel executor must return byte-identical series to the serial
//!   path;
//! * on a multi-core host, sweeping a Fig. 3-sized grid in parallel must not
//!   be slower than sweeping it serially.

use std::num::NonZeroUsize;
use std::time::Instant;

use mfa_alloc::cases::PaperCase;
use mfa_alloc::gpa::GpaOptions;
use mfa_explore::{
    constraint_grid, run_sweep, zero_timing, CaseSpec, ExecutorOptions, SolverSpec, SweepGrid,
};

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
    let mut serial = run_sweep(
        &grid,
        &ExecutorOptions {
            chunk_size: 2,
            ..ExecutorOptions::serial()
        },
    )
    .unwrap();
    let mut parallel = run_sweep(
        &grid,
        &ExecutorOptions {
            num_threads: Some(4),
            chunk_size: 2,
            warm_start: true,
        },
    )
    .unwrap();
    zero_timing(&mut serial);
    zero_timing(&mut parallel);
    assert_eq!(serial, parallel);
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
    let mut serial = run_sweep(&grid, &ExecutorOptions::serial()).unwrap();
    let serial_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let mut parallel = run_sweep(&grid, &ExecutorOptions::default()).unwrap();
    let parallel_s = t1.elapsed().as_secs_f64();
    zero_timing(&mut serial);
    zero_timing(&mut parallel);
    assert_eq!(serial, parallel);
    assert!(
        parallel_s <= serial_s * 1.10,
        "parallel sweep ({parallel_s:.3} s) slower than serial ({serial_s:.3} s) on {cores} cores"
    );
}
