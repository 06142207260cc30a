//! Design-space exploration for VGG: sweep the number of FPGAs (2–8) and the
//! per-FPGA resource constraint (55–80 %), printing the achievable initiation
//! interval frontier. This is the kind of loop the paper's fast heuristic is
//! built for (a full MINLP in the inner loop would take hours per point) —
//! here the whole 7 × 6 grid is one `mfa_explore` sweep, fanned out across
//! every available core.
//!
//! Run with `cargo run --release --example vgg_design_space`.

use std::time::Instant;

use mfa::explore::{constraint_grid, run_sweep, CaseSpec, ExecutorOptions, SolverSpec, SweepGrid};
use mfa_alloc::gpa::GpaOptions;
use mfa_alloc::{paper_data, AllocationProblem, GoalWeights};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let app = paper_data::vgg_16bit();
    let constraints = constraint_grid(0.55, 0.80, 6)?;
    let base = AllocationProblem::from_application(app, 8, 0.61, GoalWeights::new(1.0, 50.0))?;
    let grid = SweepGrid::builder()
        .case(CaseSpec::new("VGG-16", base))
        .fpga_counts(2..=8)
        .constraints(constraints.iter().copied())
        .backend(SolverSpec::gpa(GpaOptions::fast()))
        .build()?;

    let start = Instant::now();
    let series = run_sweep(&grid, &ExecutorOptions::default())?;
    let elapsed = start.elapsed();

    println!("VGG-16 (16-bit fixed point), GP+A heuristic");
    println!("initiation interval (ms) by FPGA count and per-FPGA resource constraint:");
    print!("{:>8}", "FPGAs");
    for &c in &constraints {
        print!(" {:>8.0}%", c * 100.0);
    }
    println!("  best throughput");

    for s in &series {
        print!("{:>8}", s.num_fpgas);
        let mut best_ii = f64::INFINITY;
        for &c in &constraints {
            match s
                .points
                .iter()
                .find(|p| (p.resource_constraint - c).abs() < 1e-9)
            {
                Some(p) => {
                    best_ii = best_ii.min(p.initiation_interval_ms);
                    print!(" {:>9.2}", p.initiation_interval_ms);
                }
                None => print!(" {:>9}", "-"),
            }
        }
        if best_ii.is_finite() {
            println!("  {:>6.1} img/s", 1000.0 / best_ii);
        } else {
            println!("  (infeasible at every constraint)");
        }
    }

    println!();
    println!(
        "All {} grid points swept in {:.2} s across the available cores — the same sweep",
        grid.num_points(),
        elapsed.as_secs_f64()
    );
    println!(
        "with an exact MINLP in the loop is what the paper reports as taking minutes to hours per point."
    );
    Ok(())
}
