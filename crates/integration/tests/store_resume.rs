//! Persistent sweep-store integration tests: kill-and-resume against the
//! committed goldens, damaged-store robustness, store-fed warm starts, and
//! fingerprint invariants.
//!
//! The kill-and-resume tests replay the exact scenario the store exists
//! for: a sweep is interrupted after committing some of its work units (the
//! executor persists each unit the moment it completes, so a killed process
//! leaves exactly a unit-granular prefix behind), then re-run against the
//! same store. The resumed output must be byte-identical to the committed
//! `gp-*` goldens — the same bytes an uninterrupted cold run produces.

use std::path::PathBuf;

use proptest::prelude::*;

use mfa_alloc::cases::PaperCase;
use mfa_alloc::exact::{ExactMode, ExactOptions};
use mfa_alloc::gpa::GpaOptions;
use mfa_alloc::{AllocationProblem, GoalWeights, Kernel};
use mfa_explore::store::{commit_unit, plan_store, point_fingerprint, series_fingerprint};
use mfa_explore::{
    compute_unit_hinted, export, figures, plan_units, run_sweep, run_sweep_stored, zero_timing,
    CaseSpec, ExecutorOptions, SolverSpec, SweepGrid, SweepSeries, SweepStore,
};
use mfa_minlp::SolverOptions;
use mfa_platform::{MultiFpgaPlatform, ResourceBudget, ResourceVec};

/// A fresh per-test store directory under the system temp dir. Each test
/// passes a distinct tag so parallel test threads never share a store.
fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mfa-store-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn golden(name: &str, ext: &str) -> String {
    let path = format!(
        "{}/tests/golden/gp-{name}.{ext}",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).expect("committed golden snapshot exists")
}

/// The quick Fig. 2 grid (the greedy `T` sweep — several GP+A series, so
/// several work units): the committed `gp-fig2` goldens' input, affordable
/// in debug mode.
fn fig2_grid() -> SweepGrid {
    figures::paper_figures(true, false)
        .expect("quick grids are well-formed")
        .into_iter()
        .find(|f| f.name == "fig2")
        .expect("fig2 is one of the paper figures")
        .grid
}

fn assert_golden_bytes(mut series: Vec<SweepSeries>, label: &str) {
    zero_timing(&mut series);
    assert_eq!(
        export::series_to_json(&series),
        golden("fig2", "json"),
        "{label}: JSON diverged from the committed golden"
    );
    assert_eq!(
        export::series_to_csv(&series),
        golden("fig2", "csv"),
        "{label}: CSV diverged from the committed golden"
    );
}

/// Simulates a sweep killed mid-run: computes and commits only the units in
/// `keep`, exactly as the executor would have before dying.
fn commit_partial(grid: &SweepGrid, dir: &PathBuf, keep: impl Fn(usize) -> bool) {
    let options = ExecutorOptions::default();
    let units = plan_units(grid, options.chunk_size).expect("grid plans");
    let mut store = SweepStore::open(dir).expect("store opens");
    let plan = plan_store(grid, &units, options.warm_start, &mut store).expect("store plans");
    for (idx, unit) in units.iter().enumerate() {
        if !keep(idx) {
            continue;
        }
        let output = compute_unit_hinted(grid, unit, options.warm_start, &plan.units[idx].seeds)
            .expect("unit computes");
        commit_unit(&mut store, &plan.units[idx], &output).expect("unit commits");
    }
}

#[test]
fn killed_sweep_resumes_byte_identically_to_the_golden() {
    let grid = fig2_grid();
    let dir = temp_store("resume");
    let units = plan_units(&grid, ExecutorOptions::default().chunk_size).expect("grid plans");
    assert!(units.len() >= 2, "the scenario needs at least two units");
    let half = units.len() / 2;

    // "Kill" the first run after the first half of its units committed.
    commit_partial(&grid, &dir, |idx| idx < half);

    // Resume: the stored half replays, the rest computes fresh.
    let mut store = SweepStore::open(&dir).expect("store reopens");
    let (series, report) =
        run_sweep_stored(&grid, &ExecutorOptions::default(), &mut store).expect("resume runs");
    assert_eq!(report.units_replayed, half);
    assert_eq!(report.units_computed, units.len() - half);
    assert_golden_bytes(series, "resumed run");

    // A second full run replays everything and stays byte-identical.
    let mut store = SweepStore::open(&dir).expect("store reopens again");
    let (series, report) =
        run_sweep_stored(&grid, &ExecutorOptions::default(), &mut store).expect("replay runs");
    assert_eq!(report.points_computed, 0, "nothing left to compute");
    assert_eq!(report.units_replayed, units.len());
    assert_golden_bytes(series, "full replay");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A GP+A-only grid with three labeled backends — three series, hence
/// three store segments at the default chunk size.
fn three_segment_grid() -> SweepGrid {
    let mut builder = SweepGrid::builder()
        .case(CaseSpec::from_paper(PaperCase::Alex16OnTwoFpgas))
        .fpga_counts([2])
        .constraints([0.60, 0.70, 0.80, 0.90]);
    for (label, relaxation) in [("t0", 0.0), ("t3", 0.03), ("t5", 0.05)] {
        let mut options = GpaOptions::fast();
        options.greedy.max_relaxation = relaxation;
        builder = builder.backend(SolverSpec::gpa_labeled(label, options));
    }
    builder.build().unwrap()
}

#[test]
fn damaged_store_entries_are_counted_misses_and_never_change_output() {
    let grid = three_segment_grid();
    let dir = temp_store("damage");

    // Populate the store fully, then damage it in every way the decoder
    // distinguishes: a garbage line, a truncated frame, a version-mismatched
    // entry, and one whole segment replaced by binary junk.
    commit_partial(&grid, &dir, |_| true);
    let mut segments: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("store directory lists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("jsonl"))
        .collect();
    segments.sort();
    assert_eq!(segments.len(), 3, "one segment per series");

    // Segment 0: append garbage and a version-mismatched clone of a line.
    let text = std::fs::read_to_string(&segments[0]).expect("segment reads");
    let first_line = text.lines().next().expect("segment has entries").to_owned();
    let mismatched = first_line.replacen("{\"v\":1,", "{\"v\":999,", 1);
    assert_ne!(first_line, mismatched, "the entry carries the version");
    std::fs::write(
        &segments[0],
        format!("{text}not json at all\n{mismatched}\n"),
    )
    .expect("segment rewrites");

    // Segment 1: truncate mid-frame (as if the process died writing —
    // impossible with the tempfile-rename commit, but the decoder must
    // still absorb a torn file restored from a backup, say).
    let text = std::fs::read_to_string(&segments[1]).expect("segment reads");
    std::fs::write(&segments[1], &text[..text.len() / 2]).expect("segment truncates");

    // Segment 2: binary junk wholesale.
    std::fs::write(&segments[2], b"\x00\xff\xfe garbage \x01").expect("segment rewrites");

    let mut store = SweepStore::open(&dir).expect("a damaged store still opens");
    assert!(
        store.corrupt_entries() > 0,
        "the garbage lines must be counted"
    );
    assert!(
        store.version_mismatches() > 0,
        "the version-mismatched entry must be counted"
    );

    // The damaged points recompute; output is byte-identical to a cold run.
    let (mut series, report) =
        run_sweep_stored(&grid, &ExecutorOptions::default(), &mut store).expect("damaged run");
    assert!(
        report.points_computed > 0,
        "damaged units must be recomputed"
    );
    assert!(report.corrupt_entries > 0);
    assert!(report.version_mismatches > 0);
    let mut cold = run_sweep(&grid, &ExecutorOptions::default()).expect("cold reference run");
    zero_timing(&mut series);
    zero_timing(&mut cold);
    assert_eq!(
        export::series_to_json(&series),
        export::series_to_json(&cold),
        "a damaged store must not change the output bytes"
    );
    assert_eq!(export::series_to_csv(&series), export::series_to_csv(&cold));

    let _ = std::fs::remove_dir_all(&dir);
}

/// A small synthetic pipeline whose MINLP branch-and-bound completes, so
/// store-fed incumbents can only change effort, never the achieved II.
fn synthetic_grid(constraints: &[f64]) -> SweepGrid {
    let base = AllocationProblem::builder()
        .kernels(vec![
            Kernel::new("load", 3.0, ResourceVec::bram_dsp(0.05, 0.16), 0.02).unwrap(),
            Kernel::new("conv", 7.0, ResourceVec::bram_dsp(0.09, 0.30), 0.03).unwrap(),
            Kernel::new("pool", 4.0, ResourceVec::bram_dsp(0.04, 0.12), 0.02).unwrap(),
        ])
        .platform(MultiFpgaPlatform::aws_f1_4xlarge())
        .budget(ResourceBudget::uniform(1.0))
        .weights(GoalWeights::new(1.0, 0.7))
        .build()
        .unwrap();
    SweepGrid::builder()
        .case(CaseSpec::new("store-smoke", base))
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
        .unwrap()
}

#[test]
fn stored_neighbours_warm_shifted_grids_without_changing_the_ii() {
    let dir = temp_store("neighbour");
    let options = ExecutorOptions::default();
    let populate = synthetic_grid(&[0.65, 0.85]);
    let shifted = synthetic_grid(&[0.75]);

    let mut store = SweepStore::open(&dir).expect("store opens");
    run_sweep_stored(&populate, &options, &mut store).expect("populate runs");

    let cold = run_sweep(&shifted, &options).expect("cold shifted run");
    let mut store = SweepStore::open(&dir).expect("store reopens");
    let (warmed, report) =
        run_sweep_stored(&shifted, &options, &mut store).expect("seeded shifted run");

    assert!(
        report.warm_from_store > 0,
        "the shifted grid must accept at least one store-neighbour hint"
    );
    let hints_accepted = warmed.iter().flat_map(|s| &s.points).any(|p| {
        p.warm_start.ii_hint_used || p.warm_start.dual_hint_used || p.warm_start.incumbent_used
    });
    assert!(hints_accepted, "some point must record an accepted hint");
    // The warm-start contract: hints change effort, never the achieved II.
    for (c, w) in cold.iter().zip(&warmed) {
        assert_eq!(c.points.len(), w.points.len());
        for (cp, wp) in c.points.iter().zip(&w.points) {
            assert_eq!(cp.budget, wp.budget);
            assert_eq!(
                cp.initiation_interval_ms, wp.initiation_interval_ms,
                "store hints must not change the achieved II"
            );
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Fingerprint invariants.

/// Every solver-config mutation the fingerprint must be sensitive to: the
/// label-stripped backend options, field by field.
fn config_variants() -> Vec<(&'static str, SolverSpec)> {
    let gpa = |label: &'static str, options: GpaOptions| (label, SolverSpec::gpa(options));
    let mut variants = vec![
        gpa("gpa-default", GpaOptions::default()),
        gpa("gpa-fast", GpaOptions::fast()),
        gpa("gpa-greedy-relaxation", {
            let mut o = GpaOptions::default();
            o.greedy.max_relaxation = 0.07;
            o
        }),
        gpa("gpa-greedy-step", {
            let mut o = GpaOptions::default();
            o.greedy.relaxation_step = 0.02;
            o
        }),
        gpa("gpa-discretize-tolerance", {
            let mut o = GpaOptions::default();
            o.discretize.integer_tolerance *= 10.0;
            o
        }),
        gpa("gpa-discretize-nodes", {
            let mut o = GpaOptions::default();
            o.discretize.max_nodes += 1;
            o
        }),
    ];
    let exact = |mutate: fn(&mut ExactOptions)| {
        let mut o = ExactOptions::default();
        mutate(&mut o);
        SolverSpec::exact(o)
    };
    variants.extend([
        ("exact-default", exact(|_| {})),
        ("exact-mode", exact(|o| o.mode = ExactMode::IiAndSpreading)),
        ("exact-nodes", exact(|o| o.solver.max_nodes += 1)),
        (
            "exact-time-limit",
            exact(|o| o.solver.time_limit_seconds = Some(9.0)),
        ),
        (
            "exact-integer-tolerance",
            exact(|o| o.solver.integer_tolerance *= 10.0),
        ),
        (
            "exact-feasibility-tolerance",
            exact(|o| o.solver.feasibility_tolerance *= 10.0),
        ),
        (
            "exact-absolute-gap",
            exact(|o| o.solver.absolute_gap *= 10.0),
        ),
        (
            "exact-relative-gap",
            exact(|o| o.solver.relative_gap *= 10.0),
        ),
        ("exact-cut-rounds", exact(|o| o.solver.cut_rounds += 1)),
        (
            "exact-symmetry",
            exact(|o| o.symmetry_breaking = !o.symmetry_breaking),
        ),
    ]);
    variants
}

fn one_backend_grid(backend: SolverSpec) -> SweepGrid {
    SweepGrid::builder()
        .case(CaseSpec::from_paper(PaperCase::Alex16OnTwoFpgas))
        .fpga_counts([2])
        .constraints([0.65, 0.75])
        .backend(backend)
        .build()
        .unwrap()
}

#[test]
fn fingerprints_are_sensitive_to_every_solver_config_field() {
    // Labels are stripped from the fingerprint, so two configs collide iff
    // their actual solver options collide — every variant must be distinct.
    let fps: Vec<(&str, _)> = config_variants()
        .into_iter()
        .map(|(label, spec)| {
            let grid = one_backend_grid(spec);
            (
                label,
                point_fingerprint(&grid, 0, 0, true).expect("fingerprints"),
            )
        })
        .collect();
    for (i, (label_a, fp_a)) in fps.iter().enumerate() {
        for (label_b, fp_b) in &fps[i + 1..] {
            assert_ne!(
                fp_a, fp_b,
                "configs {label_a} and {label_b} must not share a fingerprint"
            );
        }
    }
    // And the executor warm-start mode is part of the key too.
    let grid = one_backend_grid(SolverSpec::gpa(GpaOptions::fast()));
    assert_ne!(
        point_fingerprint(&grid, 0, 0, true).unwrap(),
        point_fingerprint(&grid, 0, 0, false).unwrap(),
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        ..ProptestConfig::default()
    })]

    /// Point fingerprints never depend on the chunk decomposition: any
    /// chunk size yields the same (series, budget) → fingerprint mapping,
    /// and planning against an empty store derives the same per-point keys.
    #[test]
    fn fingerprints_are_invariant_under_chunking(chunk_size in 1usize..6) {
        let grid = fig2_grid();
        let dir = temp_store(&format!("chunking-{chunk_size}"));
        let mut store = SweepStore::open(&dir).expect("store opens");
        let units = plan_units(&grid, chunk_size).expect("grid plans");
        let plan = plan_store(&grid, &units, true, &mut store).expect("store plans");
        for (unit, unit_plan) in units.iter().zip(&plan.units) {
            let series_fp = series_fingerprint(&grid, unit.series, true).expect("series fp");
            prop_assert_eq!(series_fp, unit_plan.series_fp);
            for (offset, budget_idx) in (unit.start..unit.end).enumerate() {
                // The planned fingerprint equals the directly derived one —
                // chunking is not an input to either.
                let fp = point_fingerprint(&grid, unit.series, budget_idx, true)
                    .expect("point fp");
                prop_assert_eq!(fp, unit_plan.point_fps[offset]);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
