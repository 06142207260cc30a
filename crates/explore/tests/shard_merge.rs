//! Property tests for the sharding invariant the dispatcher is built on:
//! a sweep's merged output is a pure function of `(grid, chunk_size,
//! warm_start)` — never of how units are partitioned across workers or in
//! which order they complete.
//!
//! These tests exercise the invariant in-process through the public
//! work-unit API ([`plan_units`] / [`compute_unit`] / [`assemble_series`]),
//! which is exactly the pipeline a remote worker runs; the process-boundary
//! version (spawned and TCP workers, plus crash reassignment) is covered by
//! `crates/dispatch/tests/`.

use mfa_alloc::cases::PaperCase;
use mfa_alloc::gpa::GpaOptions;
use proptest::{prop_assert_eq, proptest, ProptestConfig, Strategy};

use mfa_explore::{
    assemble_series, compute_unit, export, plan_units, run_sweep, zero_timing, CaseSpec,
    ExecutorOptions, SolverSpec, SweepGrid, SweepPoint,
};

/// A random (but always feasible) Alex-16 constraint grid with one or two
/// GP+A backends.
fn random_grid() -> impl Strategy<Value = SweepGrid> {
    (0.55f64..0.70, 0.10f64..0.20, 2usize..6, 0usize..2).prop_map(
        |(lo, span, points, second_backend)| {
            let hi = (lo + span).min(0.9);
            let constraints: Vec<f64> = (0..points)
                .map(|i| lo + (hi - lo) * i as f64 / (points - 1).max(1) as f64)
                .collect();
            let mut builder = SweepGrid::builder()
                .case(CaseSpec::from_paper(PaperCase::Alex16OnTwoFpgas))
                .fpga_counts([2])
                .constraints(constraints)
                .backend(SolverSpec::gpa(GpaOptions::fast()));
            if second_backend == 1 {
                builder = builder.backend(SolverSpec::gpa_labeled(
                    "GP+A/T10",
                    GpaOptions {
                        greedy: mfa_alloc::greedy::GreedyOptions::with_t_delta(0.10, 0.01),
                        ..GpaOptions::fast()
                    },
                ));
            }
            builder.build().expect("axes are non-empty and in range")
        },
    )
}

/// Deterministic pseudo-random permutation of `0..len` (SplitMix64-driven
/// Fisher-Yates) — the adversarial completion order.
fn permutation(len: usize, seed: usize) -> Vec<usize> {
    let mut state = seed as u64 ^ 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        let j = (next() as usize) % (i + 1);
        order.swap(i, j);
    }
    order
}

/// Exported bytes of a series list, timing normalized.
fn bytes(mut series: Vec<mfa_explore::SweepSeries>) -> (String, String) {
    zero_timing(&mut series);
    (
        export::series_to_json(&series),
        export::series_to_csv(&series),
    )
}

/// Simulates a sharded run: partition units round-robin over `workers`
/// queues, complete them in the `seed`-derived adversarial order, slot
/// results by unit index, merge.
fn sharded_simulation(
    grid: &SweepGrid,
    chunk_size: usize,
    workers: usize,
    warm_start: bool,
    seed: usize,
) -> Vec<mfa_explore::SweepSeries> {
    let units = plan_units(grid, chunk_size).unwrap();
    // Partition: worker w owns units w, w+workers, w+2·workers, …
    let mut queues: Vec<Vec<usize>> = vec![Vec::new(); workers];
    for (idx, _) in units.iter().enumerate() {
        queues[idx % workers].push(idx);
    }
    // Adversarial completion: a global permutation decides which worker
    // "finishes next"; each worker completes its own queue in order (a
    // worker is sequential), but workers interleave arbitrarily.
    let mut results: Vec<Option<Vec<Option<SweepPoint>>>> = vec![None; units.len()];
    let mut cursors = vec![0usize; workers];
    for &step in &permutation(units.len(), seed) {
        // The permutation entry picks a worker (mod workers) that still has
        // units; scan forward from it so every unit completes exactly once.
        let mut w = step % workers;
        while cursors[w] >= queues[w].len() {
            w = (w + 1) % workers;
        }
        let uid = queues[w][cursors[w]];
        cursors[w] += 1;
        results[uid] = Some(compute_unit(grid, &units[uid], warm_start).unwrap());
    }
    let results: Vec<_> = results.into_iter().map(Option::unwrap).collect();
    assemble_series(grid, &units, results)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn sharded_simulation_is_byte_identical_to_serial(
        grid in random_grid(),
        chunk_size in 1usize..5,
        workers in 1usize..5,
        seed in 0usize..1_000_000,
    ) {
        let serial = run_sweep(
            &grid,
            &ExecutorOptions {
                num_threads: Some(1),
                chunk_size,
                warm_start: true,
            },
        )
        .unwrap();
        let sharded = sharded_simulation(&grid, chunk_size, workers, true, seed);
        prop_assert_eq!(bytes(sharded), bytes(serial));
    }

    #[test]
    fn cold_sharded_runs_are_partition_independent(
        grid in random_grid(),
        chunk_size in 1usize..5,
        workers in 1usize..5,
        seed in 0usize..1_000_000,
    ) {
        // With warm starts off every point solves cold, so the output is
        // additionally independent of the chunking itself: any partition
        // must reproduce ExecutorOptions::serial() (chunk 8) minus warm
        // starts, byte for byte.
        let serial = run_sweep(
            &grid,
            &ExecutorOptions {
                warm_start: false,
                ..ExecutorOptions::serial()
            },
        )
        .unwrap();
        let sharded = sharded_simulation(&grid, chunk_size, workers, false, seed);
        prop_assert_eq!(bytes(sharded), bytes(serial));
    }
}

/// Non-random spot check: the warm-started figure grids reproduce
/// [`ExecutorOptions::serial`]'s bytes under an adversarial order too (the
/// golden tests pin the same fact against committed snapshots).
#[test]
fn figure_grids_survive_reversed_completion() {
    let figure = &mfa_explore::figures::paper_figures(true, false).unwrap()[0];
    let serial = run_sweep(&figure.grid, &ExecutorOptions::serial()).unwrap();
    let units = plan_units(&figure.grid, 8).unwrap();
    let mut results: Vec<Option<Vec<Option<SweepPoint>>>> = vec![None; units.len()];
    for (idx, unit) in units.iter().enumerate().rev() {
        results[idx] = Some(compute_unit(&figure.grid, unit, true).unwrap());
    }
    let merged = assemble_series(
        &figure.grid,
        &units,
        results.into_iter().map(Option::unwrap).collect(),
    );
    assert_eq!(bytes(merged), bytes(serial));
}
