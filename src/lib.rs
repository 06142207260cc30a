//! Facade crate for the multi-FPGA allocation workspace.
//!
//! Re-exports the member crates under one roof so downstream users (and the
//! `examples/` in this package) can depend on a single crate. See the
//! workspace `README.md` for the crate dependency graph.
//!
//! # Example
//!
//! Alex-16 from the paper's Table 2 on a two-FPGA AWS F1 instance, solved by
//! the GP+A heuristic:
//!
//! ```
//! use mfa::alloc::{paper_data, AllocationProblem, Backend, GoalWeights, SolveRequest};
//! use mfa::explore::constraint_grid;
//! use mfa::platform::MultiFpgaPlatform;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let app = paper_data::alexnet_16bit();
//! let bottleneck_ms = app.bottleneck().wcet_ms();
//! let problem = AllocationProblem::from_application(app, 2, 0.65, GoalWeights::new(1.0, 0.7))?;
//! assert_eq!(problem.num_fpgas(), MultiFpgaPlatform::aws_f1_4xlarge().num_fpgas());
//! let report = SolveRequest::new(&problem).backend(Backend::gpa()).solve()?;
//! // Replicating kernels beats the slowest kernel's single-CU latency.
//! assert!(report.initiation_interval_ms(&problem) < bottleneck_ms);
//! // The constraint axis of a sweep over the paper's 55–85 % range.
//! assert_eq!(constraint_grid(0.55, 0.85, 4)?.len(), 4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mfa_alloc as alloc;
pub use mfa_dispatch as dispatch;
pub use mfa_explore as explore;
pub use mfa_gp as gp;
pub use mfa_linalg as linalg;
pub use mfa_linprog as linprog;
pub use mfa_minlp as minlp;
pub use mfa_platform as platform;
pub use mfa_serve as serve;
pub use mfa_sim as sim;
pub use mfa_storenet as storenet;
