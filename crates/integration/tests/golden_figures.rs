//! Golden-file regression tests for the figure sweeps and the tables report.
//!
//! Two snapshot sets live under `tests/golden/`, both produced by the `dse`
//! example with `--zero-timing` (wall-clock is the only legitimate
//! run-to-run difference, so it is normalized out):
//!
//! * `gp-*` — `dse --quick --no-exact`: the GP+A-only figure series.
//!   Cheap enough to re-sweep in debug mode, so this suite byte-compares
//!   serial and threaded runs against them on every `cargo test`.
//! * `quick-*` — `dse --quick` (with the MINLP series): regenerated and
//!   byte-compared by the release-mode CI steps, where the node-capped
//!   exact solves are affordable. Here we only verify the snapshots are
//!   present and well-formed, so a stale or hand-edited golden still fails
//!   fast in debug.
//!
//! Each set also holds `tables.txt`, the text report of Tables 2–4, Fig. 6
//! and the ablation (`figures::paper_tables`); it has no timing, and both
//! are byte-compared here in debug, the `quick` one with its node-capped
//! exact rows.
//!
//! Regenerate either set after an intentional output change:
//!
//! ```text
//! cargo run --release --example dse -- --quick --zero-timing \
//!     --out crates/integration/tests/golden/quick
//! cargo run --release --example dse -- --quick --no-exact --zero-timing \
//!     --out crates/integration/tests/golden/gp
//! ```

use mfa_explore::json::Json;
use mfa_explore::{
    export, figures, run_sweep, zero_chunk_diagnostics, zero_timing, ExecutorOptions, FigureSpec,
    SweepSeries,
};

const FIGURE_NAMES: [&str; 5] = ["fig2", "fig3", "fig4", "fig5", "hetero"];

fn golden(prefix: &str, name: &str, ext: &str) -> String {
    let path = format!(
        "{}/tests/golden/{prefix}-{name}.{ext}",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|err| {
        panic!("missing golden snapshot {path} ({err}); see the header of this file")
    })
}

/// The GP+A-only quick figure set: Figs. 2–5 plus the hetero smoke grid —
/// everything the `gp-*` goldens snapshot.
fn gp_figures() -> Vec<FigureSpec> {
    let mut figures = figures::paper_figures(true, false).expect("quick grids are well-formed");
    figures.push(figures::hetero_smoke().expect("hetero grid is well-formed"));
    figures
}

fn assert_matches_golden(figure: &FigureSpec, mut series: Vec<SweepSeries>, label: &str) {
    zero_timing(&mut series);
    assert_eq!(
        export::series_to_json(&series),
        golden("gp", figure.name, "json"),
        "{label} run of {} diverged from the committed JSON golden",
        figure.name
    );
    assert_eq!(
        export::series_to_csv(&series),
        golden("gp", figure.name, "csv"),
        "{label} run of {} diverged from the committed CSV golden",
        figure.name
    );
}

#[test]
fn serial_runs_match_the_committed_goldens() {
    for figure in gp_figures() {
        let series = run_sweep(&figure.grid, &ExecutorOptions::serial()).unwrap();
        assert_matches_golden(&figure, series, "serial");
    }
}

#[test]
fn threaded_runs_match_the_committed_goldens() {
    // Default chunk size (the goldens' decomposition), adversarial thread
    // count: more threads than units for several of the grids.
    let options = ExecutorOptions {
        num_threads: Some(4),
        ..ExecutorOptions::default()
    };
    for figure in gp_figures() {
        let series = run_sweep(&figure.grid, &options).unwrap();
        assert_matches_golden(&figure, series, "threaded");
    }
}

#[test]
fn small_chunk_threaded_runs_match_the_default_decomposition() {
    // chunk_size 1 disables intra-chunk warm starts entirely, so the
    // decomposition differs from the goldens' — but GP+A warm starts are
    // verified to reach the same II as cold solves, and these grids have no
    // II ties, so every solution column must still match the default-chunk
    // reference. This is the strongest available check that warm-start
    // state never leaks across chunk boundaries. The per-request
    // diagnostics (warm-start provenance, node counts, relaxation-gap
    // ulps) are facts about the decomposition and are normalized out; see
    // `mfa_explore::zero_chunk_diagnostics`.
    let options = ExecutorOptions {
        num_threads: Some(3),
        chunk_size: 1,
        ..ExecutorOptions::default()
    };
    let strip = |mut series: Vec<SweepSeries>| {
        zero_timing(&mut series);
        zero_chunk_diagnostics(&mut series);
        (
            export::series_to_json(&series),
            export::series_to_csv(&series),
        )
    };
    for figure in gp_figures() {
        let chunk1 = run_sweep(&figure.grid, &options).unwrap();
        let reference = run_sweep(&figure.grid, &ExecutorOptions::default()).unwrap();
        assert_eq!(
            strip(chunk1),
            strip(reference),
            "chunk-1 threaded run of {} diverged from the default decomposition",
            figure.name
        );
    }
}

#[test]
fn paper_tables_match_the_committed_goldens() {
    for (prefix, exact) in [("quick", true), ("gp", false)] {
        assert_eq!(
            figures::paper_tables(true, exact).unwrap(),
            golden(prefix, "tables", "txt"),
            "the tables report diverged from {prefix}-tables.txt"
        );
    }
}

#[test]
fn full_quick_goldens_are_present_and_well_formed() {
    // The MINLP-bearing `quick-*` set is too expensive to re-sweep in debug
    // mode; CI regenerates and diffs it in release. Debug still verifies
    // every snapshot exists, parses as JSON, and covers the expected series.
    for name in FIGURE_NAMES {
        let json = golden("quick", name, "json");
        let doc = Json::parse(&json)
            .unwrap_or_else(|err| panic!("quick-{name}.json is not valid JSON: {err}"));
        let series = doc.as_arr().expect("top level is an array of series");
        assert!(!series.is_empty(), "quick-{name}.json has no series");
        for s in series {
            assert!(s.get("case").is_some());
            assert!(s.get("backend").is_some());
            assert!(s.get("points").is_some());
        }
        let csv = golden("quick", name, "csv");
        assert!(csv.starts_with("case,platform,num_fpgas,backend"));
        // Timing must be normalized, or byte-comparison would be meaningless
        // (solve_seconds is the 14th of the 23 columns).
        for line in csv.lines().skip(1) {
            let solve_seconds = line.split(',').nth(13).unwrap_or("");
            assert_eq!(
                solve_seconds, "0",
                "quick-{name}.csv carries non-zero solve_seconds: {line}"
            );
        }
    }
    // Figs. 3–5 carry the MINLP series in the full set.
    for name in ["fig3", "fig4", "fig5"] {
        let json = golden("quick", name, "json");
        assert!(
            json.contains("\"backend\": \"MINLP\""),
            "quick-{name}.json lost its MINLP series"
        );
    }
}

#[test]
fn gp_and_quick_goldens_agree_on_the_gpa_series() {
    // The GP+A series of fig3–fig5 appear in both sets and must be
    // byte-identical: the presence of MINLP backends on the grid cannot
    // perturb the GP+A results.
    for name in ["fig3", "fig4", "fig5"] {
        let gp = golden("gp", name, "csv");
        let quick = golden("quick", name, "csv");
        let gp_gpa: Vec<&str> = gp.lines().filter(|l| l.contains(",GP+A,")).collect();
        let quick_gpa: Vec<&str> = quick.lines().filter(|l| l.contains(",GP+A,")).collect();
        assert_eq!(gp_gpa, quick_gpa, "{name}: GP+A rows diverged");
        assert!(!gp_gpa.is_empty(), "{name}: no GP+A rows found");
    }
}
