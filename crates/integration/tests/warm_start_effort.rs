//! Warm starts never cost more than cold solves.
//!
//! Over 150 constraint points spread evenly across each paper case's
//! constraint range, GP+A (the paper's configuration, through
//! [`SolveRequest`]) is solved cold at every point and then warm, from the
//! cold report of the point before it in two walks:
//!
//! * (a) upward through the grid, each point from the point just below it
//!   (indices 0, 1, 2, …);
//! * (b) alternating a looser and a tighter step (indices 0, 2, 1, 3, 2, 4,
//!   …), so hints arrive from both sides.
//!
//! At every step the warm solve must spend no more KKT factorizations than
//! the cold one and achieve the same initiation interval. The grid costs
//! seconds with optimizations and minutes without; the release-mode CI step
//! runs this test, debug builds skip it.
//!
//! ```text
//! cargo test --release -p mfa_integration --test warm_start_effort
//! ```

use mfa_alloc::cases::PaperCase;
use mfa_alloc::solver::{Backend, SolveReport, SolveRequest, WarmStart};
use mfa_alloc::AllocationProblem;

const POINTS: usize = 150;

/// Walk (b): 0, 2, 1, 3, 2, 4, …, ending at the last index.
fn zigzag(points: usize) -> Vec<usize> {
    (0..points - 2).flat_map(|m| [m, m + 2]).collect()
}

fn solve(problem: &AllocationProblem, warm: Option<WarmStart>) -> SolveReport {
    let request = SolveRequest::new(problem).backend(Backend::gpa());
    match warm {
        Some(warm) => request.warm_start(warm),
        None => request,
    }
    .solve()
    .expect("every paper-range point is feasible")
}

#[test]
fn warm_starts_never_cost_more_than_cold_solves() {
    if cfg!(debug_assertions) {
        // About 2 700 GP+A solves; the release-mode CI step runs them.
        eprintln!("skipping the warm-start effort grid in debug build");
        return;
    }
    let mut failures = Vec::new();
    for case in PaperCase::all() {
        let (lo, hi) = case.constraint_range();
        let problems: Vec<AllocationProblem> = (0..POINTS)
            .map(|i| {
                let constraint = lo + (hi - lo) * i as f64 / (POINTS - 1) as f64;
                case.problem(constraint).expect("paper case builds")
            })
            .collect();
        let cold: Vec<SolveReport> = problems.iter().map(|p| solve(p, None)).collect();
        let upward: Vec<usize> = (0..POINTS).collect();
        for (walk, order) in [("a", upward), ("b", zigzag(POINTS))] {
            for step in order.windows(2) {
                let (from, to) = (step[0], step[1]);
                let warm = solve(&problems[to], Some(cold[from].warm_start()));
                let (warm_f, cold_f) = (
                    warm.diagnostics.factorizations,
                    cold[to].diagnostics.factorizations,
                );
                let (warm_ii, cold_ii) = (
                    warm.initiation_interval_ms(&problems[to]),
                    cold[to].initiation_interval_ms(&problems[to]),
                );
                if warm_f > cold_f || warm_ii != cold_ii {
                    failures.push(format!(
                        "{} walk ({walk}) {from}→{to}: factorizations warm {warm_f} \
                         cold {cold_f}, II warm {warm_ii} cold {cold_ii}",
                        case.label()
                    ));
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} warm solves cost more than cold or changed the II:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn the_zigzag_walk_alternates_looser_and_tighter_steps() {
    assert_eq!(zigzag(5), [0, 2, 1, 3, 2, 4]);
    let walk = zigzag(POINTS);
    assert_eq!(walk.last(), Some(&(POINTS - 1)));
    for (k, step) in walk.windows(2).enumerate() {
        let looser = step[1] > step[0];
        assert_eq!(looser, k % 2 == 0, "step {k}: {step:?}");
    }
}
