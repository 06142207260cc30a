//! Exact and heuristic allocation of multi-kernel applications to multi-FPGA
//! platforms.
//!
//! This crate implements the optimization method of *Shan, Casu, Cortadella,
//! Lavagno, Lazarescu — "Exact and Heuristic Allocation of Multi-kernel
//! Applications to Multi-FPGA Platforms", DAC 2019*: given a linear pipeline
//! of kernels (each replicable into compute units, CUs) and a platform of `F`
//! FPGAs — the paper's identical devices, or a heterogeneous fleet of device
//! groups — with per-FPGA resource and DRAM-bandwidth budgets, choose how
//! many CUs to instantiate per kernel and on which FPGA to place each of
//! them so that the pipeline initiation interval `II = max_k WCET_k / N_k` is
//! minimized while the CUs of each kernel are kept together as much as
//! possible (the *spreading* objective `ϕ`).
//!
//! Two solution paths are provided, exactly as in the paper:
//!
//! * **Exact** ([`exact`]): the mixed-integer nonlinear program of Eqs. 5–10,
//!   solved globally with the [`mfa_minlp`] branch-and-bound solver, either
//!   ignoring spreading (`MINLP`, β = 0) or weighting it (`MINLP+G`).
//! * **Heuristic GP+A** ([`gpa`]): (1) a symmetric geometric-programming
//!   relaxation (Eqs. 14–18, [`gp_step`]) that yields fractional CU counts,
//!   (2) a small branch-and-bound discretization ([`discretize`]) and (3) the
//!   greedy Algorithm 1 allocator ([`greedy`]) that places the CUs while
//!   consolidating each kernel on as few FPGAs as possible.
//!
//! Every backend is driven through one request-shaped entry point —
//! [`solver::SolveRequest`] — which carries warm-start hints, deadlines,
//! node budgets and the sweep skip policy as first-class request fields and
//! returns a [`solver::SolveReport`] with structured diagnostics.
//!
//! # Quick start
//!
//! ```
//! use mfa_alloc::solver::{Backend, SolveRequest};
//! use mfa_alloc::{AllocationProblem, GoalWeights, Kernel};
//! use mfa_platform::{MultiFpgaPlatform, ResourceBudget, ResourceVec};
//!
//! # fn main() -> Result<(), mfa_alloc::AllocError> {
//! let kernels = vec![
//!     Kernel::new("produce", 4.0, ResourceVec::bram_dsp(0.05, 0.20), 0.03)?,
//!     Kernel::new("transform", 9.0, ResourceVec::bram_dsp(0.08, 0.25), 0.02)?,
//!     Kernel::new("consume", 3.0, ResourceVec::bram_dsp(0.02, 0.10), 0.05)?,
//! ];
//! let problem = AllocationProblem::builder()
//!     .kernels(kernels)
//!     .platform(MultiFpgaPlatform::aws_f1_4xlarge())
//!     .budget(ResourceBudget::uniform(0.70))
//!     .weights(GoalWeights::new(1.0, 0.7))
//!     .build()?;
//! let report = SolveRequest::new(&problem).backend(Backend::gpa()).solve()?;
//! assert!(report.initiation_interval_ms(&problem) < 9.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cases;
pub mod discretize;
mod error;
pub mod exact;
pub mod fingerprint;
pub mod gp_step;
pub mod gpa;
pub mod greedy;
mod problem;
pub mod realloc;
pub mod report;
mod solution;
pub mod solver;

pub use error::AllocError;
pub use problem::{AllocationProblem, AllocationProblemBuilder, GoalWeights, Kernel};
pub use realloc::{Incumbent, MigrationCost, MigrationOutcome, ReallocationSpec};
pub use solution::{Allocation, AllocationMetrics};
pub use solver::{
    Backend, Deadline, DualWarmStart, SkipPolicy, SolveDiagnostics, SolveReport, SolveRequest,
    SolverBackend, StageTiming, WarmStart, WarmStartReport,
};
