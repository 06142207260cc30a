//! Quickstart: allocate a small synthetic four-kernel pipeline onto two FPGAs
//! with the GP+A heuristic and print the resulting mapping.
//!
//! Run with `cargo run --release --example quickstart`.

use std::time::Duration;

use mfa_alloc::report::render_summary;
use mfa_alloc::solver::{Backend, Deadline, SolveRequest};
use mfa_alloc::{AllocationProblem, GoalWeights, Kernel};
use mfa_platform::{MultiFpgaPlatform, ResourceBudget, ResourceVec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A toy task-level pipeline: decode → detect → track → encode.
    // Per-CU figures are fractions of one FPGA (as measured by an HLS
    // characterization run, like the paper's Tables 2–3 in
    // `mfa_alloc::paper_data`).
    let kernels = vec![
        Kernel::new("decode", 2.0, ResourceVec::bram_dsp(0.04, 0.06), 0.05)?,
        Kernel::new("detect", 9.0, ResourceVec::bram_dsp(0.08, 0.22), 0.03)?,
        Kernel::new("track", 5.0, ResourceVec::bram_dsp(0.05, 0.12), 0.02)?,
        Kernel::new("encode", 3.0, ResourceVec::bram_dsp(0.06, 0.08), 0.06)?,
    ];

    let problem = AllocationProblem::builder()
        .kernels(kernels)
        .platform(MultiFpgaPlatform::aws_f1_4xlarge()) // two VU9P FPGAs
        .budget(ResourceBudget::uniform(0.70)) // use at most 70 % of each FPGA
        .weights(GoalWeights::new(1.0, 0.7)) // weigh II against CU spreading
        .build()?;

    // One request-shaped entry point drives every backend: pick GP+A, give
    // the solve a generous deadline, and read the structured diagnostics
    // off the report.
    let outcome = SolveRequest::new(&problem)
        .backend(Backend::gpa())
        .deadline(Deadline::within(Duration::from_secs(30)))
        .solve()?;

    println!(
        "GP relaxation:   II = {:.3} ms",
        outcome.diagnostics.relaxed_ii_ms.unwrap_or(f64::NAN)
    );
    println!("discretized CUs: {:?}", outcome.diagnostics.cu_counts);
    println!(
        "heuristic time:  {:.1} ms ({} B&B nodes, {} dropped CUs, {})",
        outcome.diagnostics.timing.total.as_secs_f64() * 1e3,
        outcome.diagnostics.bb_nodes,
        outcome.diagnostics.total_dropped_cus(),
        outcome.diagnostics.warm_start.provenance()
    );
    println!();
    println!("{}", render_summary(&problem, &outcome.allocation));
    Ok(())
}
