//! Property tests of the parallel exploration engine: the parallel executor
//! must return the same `SweepPoint` series as the serial path (ordering
//! included) for arbitrary problems, and degenerate grids must surface as
//! errors, not panics.

use mfa_alloc::gpa::GpaOptions;
use mfa_alloc::{AllocationProblem, GoalWeights, Kernel};
use mfa_explore::{
    constraint_grid, run_sweep, CaseSpec, ExecutorOptions, ExploreError, PlatformSpec, SolverSpec,
    SweepGrid, SweepSeries,
};
use mfa_platform::{
    DeviceGroup, FpgaDevice, HeterogeneousPlatform, MultiFpgaPlatform, ResourceBudget, ResourceVec,
};
use proptest::prelude::*;

/// Strips the wall-clock field, the only legitimate run-to-run difference.
fn zero_timing(mut series: Vec<SweepSeries>) -> Vec<SweepSeries> {
    for s in &mut series {
        for p in &mut s.points {
            p.solve_seconds = 0.0;
        }
    }
    series
}

fn random_case(wcets: &[f64], dsp: f64, bram: f64) -> CaseSpec {
    let kernels: Vec<Kernel> = wcets
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            Kernel::new(format!("k{i}"), w, ResourceVec::bram_dsp(bram, dsp), 0.01).unwrap()
        })
        .collect();
    let base = AllocationProblem::builder()
        .kernels(kernels)
        .platform(MultiFpgaPlatform::aws_f1_4xlarge())
        .budget(ResourceBudget::uniform(0.9))
        .weights(GoalWeights::ii_only())
        .build()
        .unwrap();
    CaseSpec::new("random", base)
}

proptest! {
    /// Parallel and serial execution agree exactly — same series, same
    /// points, same ordering — on random pipelines, FPGA counts and
    /// constraint grids, with warm starts enabled.
    #[test]
    fn parallel_equals_serial_on_random_problems(
        wcets in proptest::collection::vec(1.0..25.0f64, 2..5),
        dsp in 0.05..0.3f64,
        bram in 0.01..0.1f64,
        num_fpgas in 1usize..4,
        chunk_size in 1usize..4,
        lo in 0.35..0.55f64,
    ) {
        let case = random_case(&wcets, dsp, bram);
        let grid = SweepGrid::builder()
            .case(case)
            .fpga_counts([num_fpgas])
            .constraints(constraint_grid(lo, 0.9, 5).unwrap())
            .backend(SolverSpec::gpa(GpaOptions::fast()))
            .build()
            .unwrap();
        let serial = run_sweep(&grid, &ExecutorOptions {
            chunk_size,
            ..ExecutorOptions::serial()
        }).unwrap();
        let parallel = run_sweep(&grid, &ExecutorOptions {
            num_threads: Some(3),
            chunk_size,
            warm_start: true,
        }).unwrap();
        prop_assert_eq!(zero_timing(serial), zero_timing(parallel));
    }

    /// Cold and warm-started sweeps produce byte-identical series (modulo
    /// wall-clock timing) on random grids whose budget axis mixes uniform
    /// constraints with random per-resource budget points, and whose
    /// platform axis includes a heterogeneous fleet — the determinism
    /// contract of the new axes. (The executor's chunk decomposition and the
    /// budget-distance warm-start metric are both scheduling-independent, so
    /// serial ≡ parallel must keep holding with warm starts on.)
    #[test]
    fn parallel_equals_serial_with_budget_and_platform_axes(
        wcets in proptest::collection::vec(2.0..20.0f64, 2..4),
        dsp in 0.05..0.2f64,
        bram_budget in 0.5..1.0f64,
        dsp_budget in 0.5..1.0f64,
        bandwidth in 0.5..1.0f64,
        chunk_size in 1usize..4,
    ) {
        let case = random_case(&wcets, dsp, 0.02);
        let fleet = HeterogeneousPlatform::new(
            "1×VU9P + 1×KU115",
            vec![
                DeviceGroup::new(FpgaDevice::vu9p(), 1),
                DeviceGroup::new(FpgaDevice::ku115(), 1),
            ],
        );
        let grid = SweepGrid::builder()
            .case(case)
            .fpga_counts([2])
            .platform(PlatformSpec::platform(fleet))
            .constraints([0.6, 0.9])
            .budget(ResourceBudget::new(
                ResourceVec::new(0.95, 0.95, bram_budget, dsp_budget),
                bandwidth,
            ))
            .backend(SolverSpec::gpa(GpaOptions::fast()))
            .build()
            .unwrap();
        let serial = run_sweep(&grid, &ExecutorOptions {
            chunk_size,
            ..ExecutorOptions::serial()
        }).unwrap();
        let parallel = run_sweep(&grid, &ExecutorOptions {
            num_threads: Some(3),
            chunk_size,
            warm_start: true,
        }).unwrap();
        prop_assert_eq!(zero_timing(serial.clone()), zero_timing(parallel));
        // Warm-started and cold sweeps agree on every achieved II.
        let cold = run_sweep(&grid, &ExecutorOptions {
            warm_start: false,
            ..ExecutorOptions::serial()
        }).unwrap();
        for (w, c) in serial.iter().zip(&cold) {
            prop_assert_eq!(w.points.len(), c.points.len());
            for (wp, cp) in w.points.iter().zip(&c.points) {
                prop_assert!(
                    (wp.initiation_interval_ms - cp.initiation_interval_ms).abs()
                        < 1e-9 * cp.initiation_interval_ms.max(1.0),
                    "warm {} vs cold {}", wp.initiation_interval_ms, cp.initiation_interval_ms
                );
            }
        }
    }

    /// Warm-started sweeps reach the same initiation intervals as cold ones.
    #[test]
    fn warm_starts_do_not_change_results(
        wcets in proptest::collection::vec(1.0..25.0f64, 2..5),
        dsp in 0.05..0.25f64,
    ) {
        let case = random_case(&wcets, dsp, 0.02);
        let grid = SweepGrid::builder()
            .case(case)
            .fpga_counts([2])
            .constraints(constraint_grid(0.5, 0.9, 4).unwrap())
            .backend(SolverSpec::gpa(GpaOptions::fast()))
            .build()
            .unwrap();
        let warm = run_sweep(&grid, &ExecutorOptions {
            chunk_size: 4,
            ..ExecutorOptions::serial()
        }).unwrap();
        let cold = run_sweep(&grid, &ExecutorOptions {
            warm_start: false,
            ..ExecutorOptions::serial()
        }).unwrap();
        prop_assert_eq!(warm[0].points.len(), cold[0].points.len());
        for (w, c) in warm[0].points.iter().zip(&cold[0].points) {
            prop_assert!(
                (w.initiation_interval_ms - c.initiation_interval_ms).abs()
                    < 1e-9 * c.initiation_interval_ms.max(1.0),
                "warm {} vs cold {}", w.initiation_interval_ms, c.initiation_interval_ms
            );
        }
    }
}

#[test]
fn degenerate_grids_error_through_the_new_api() {
    // `constraint_grid` rejects bad shapes instead of panicking (the legacy
    // core helper asserts).
    assert!(matches!(
        constraint_grid(0.5, 0.5, 1),
        Err(ExploreError::InvalidGrid(_))
    ));
    assert!(matches!(
        constraint_grid(0.8, 0.4, 4),
        Err(ExploreError::InvalidGrid(_))
    ));
    assert!(matches!(
        constraint_grid(0.5, 0.9, 0),
        Err(ExploreError::InvalidGrid(_))
    ));
    assert!(matches!(
        constraint_grid(f64::NAN, 0.9, 3),
        Err(ExploreError::InvalidGrid(_))
    ));

    // And so does the grid builder, end to end.
    let empty = SweepGrid::builder().build();
    assert!(matches!(empty, Err(ExploreError::InvalidGrid(_))));
    let bad_constraint = SweepGrid::builder()
        .case(random_case(&[4.0, 8.0], 0.1, 0.02))
        .fpga_counts([2])
        .constraints([2.0])
        .backend(SolverSpec::gpa(GpaOptions::fast()))
        .build();
    assert!(matches!(bad_constraint, Err(ExploreError::InvalidGrid(_))));
}
