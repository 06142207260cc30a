//! Shared helpers for the dispatcher integration tests.
//!
//! The tests compare sharded runs against the `gp-*` golden snapshots
//! committed under `crates/integration/tests/golden/` (generated by
//! `dse --quick --no-exact --zero-timing`; see the header of
//! `crates/integration/tests/golden_figures.rs` for regeneration).

use mfa_dispatch::{run_sweep_sharded, DispatchOptions, WorkerSpec};
use mfa_explore::{
    export, figures, run_sweep, zero_chunk_diagnostics, zero_timing, ExecutorOptions, FigureSpec,
    SweepGrid,
};

/// Path of the `sweep-worker` binary cargo builds for this crate's tests.
pub fn worker_bin() -> &'static str {
    env!("CARGO_BIN_EXE_sweep-worker")
}

/// One spawned worker with extra flags (fault injection).
pub fn worker_with_args(args: &[&str]) -> WorkerSpec {
    WorkerSpec::Spawn {
        program: worker_bin().into(),
        args: args.iter().map(|s| s.to_string()).collect(),
    }
}

/// Reads one committed golden snapshot.
#[allow(dead_code)] // each integration-test binary links its own copy
pub fn golden(name: &str, ext: &str) -> String {
    let path = format!(
        "{}/../integration/tests/golden/gp-{name}.{ext}",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path)
        .unwrap_or_else(|err| panic!("missing golden snapshot {path} ({err})"))
}

/// The GP+A-only quick figures plus the hetero smoke grid — the grids the
/// `gp-*` goldens snapshot.
pub fn gp_figures() -> Vec<FigureSpec> {
    let mut figures = figures::paper_figures(true, false).expect("quick grids are well-formed");
    figures.push(figures::hetero_smoke().expect("hetero grid is well-formed"));
    figures
}

/// Runs `grid` sharded and returns its normalized export bytes.
pub fn sharded_bytes(
    grid: &SweepGrid,
    workers: &[WorkerSpec],
    options: &DispatchOptions,
) -> (String, String) {
    let mut series = run_sweep_sharded(grid, workers, options)
        .unwrap_or_else(|err| panic!("sharded run failed: {err}"));
    zero_timing(&mut series);
    (
        export::series_to_json(&series),
        export::series_to_csv(&series),
    )
}

/// Runs `grid` sharded and returns export bytes with the chunk-dependent
/// diagnostics normalized away (for comparisons across different partition
/// choices; see `mfa_explore::zero_chunk_diagnostics`).
#[allow(dead_code)] // each integration-test binary links its own copy
pub fn sharded_solution_bytes(
    grid: &SweepGrid,
    workers: &[WorkerSpec],
    options: &DispatchOptions,
) -> (String, String) {
    let mut series = run_sweep_sharded(grid, workers, options)
        .unwrap_or_else(|err| panic!("sharded run failed: {err}"));
    zero_timing(&mut series);
    zero_chunk_diagnostics(&mut series);
    (
        export::series_to_json(&series),
        export::series_to_csv(&series),
    )
}

/// Asserts a sharded run of `figure` is byte-identical to its golden files.
/// Only valid for runs using the goldens' decomposition
/// (`DispatchOptions::default()`'s chunk size); other partitions compare
/// against a same-chunk in-process reference via
/// [`assert_sharded_matches_local`].
#[allow(dead_code)] // each integration-test binary links its own copy
pub fn assert_sharded_matches_golden(
    figure: &FigureSpec,
    workers: &[WorkerSpec],
    options: &DispatchOptions,
    label: &str,
) {
    assert_eq!(
        options.chunk_size,
        DispatchOptions::default().chunk_size,
        "golden byte-comparison requires the goldens' chunk decomposition"
    );
    let (json, csv) = sharded_bytes(&figure.grid, workers, options);
    assert_eq!(
        json,
        golden(figure.name, "json"),
        "{label}: sharded {} diverged from the JSON golden",
        figure.name
    );
    assert_eq!(
        csv,
        golden(figure.name, "csv"),
        "{label}: sharded {} diverged from the CSV golden",
        figure.name
    );
}

/// Asserts a sharded run of `figure` is byte-identical — every diagnostic
/// column included — to the in-process run with the same chunk
/// decomposition and warm-start policy. The strongest fault-path check:
/// lease reassignment must not change a single exported byte.
#[allow(dead_code)] // each integration-test binary links its own copy
pub fn assert_sharded_matches_local(
    figure: &FigureSpec,
    workers: &[WorkerSpec],
    options: &DispatchOptions,
    label: &str,
) {
    let (json, csv) = sharded_bytes(&figure.grid, workers, options);
    let mut reference = run_sweep(
        &figure.grid,
        &ExecutorOptions {
            num_threads: Some(1),
            chunk_size: options.chunk_size,
            warm_start: options.warm_start,
        },
    )
    .unwrap_or_else(|err| panic!("reference run failed: {err}"));
    zero_timing(&mut reference);
    assert_eq!(
        json,
        export::series_to_json(&reference),
        "{label}: sharded {} diverged from the same-chunk in-process JSON",
        figure.name
    );
    assert_eq!(
        csv,
        export::series_to_csv(&reference),
        "{label}: sharded {} diverged from the same-chunk in-process CSV",
        figure.name
    );
}
