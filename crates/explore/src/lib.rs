//! Parallel design-space exploration for multi-FPGA allocation.
//!
//! The paper's point (Sec. 3.2, Figs. 2–5) is that the GP+A heuristic makes
//! sweeping the design space — resource constraints, FPGA counts, solver
//! configurations — *practical*. This crate promotes that exploration into a
//! first-class subsystem on top of the solvers in [`mfa_alloc`]:
//!
//! * [`SweepGrid`] — a declarative grid over four axes: case × platform ×
//!   budget × solver backend. Each (case, platform point, backend)
//!   combination is one *series*; the budget axis provides the points of
//!   that series. The platform axis mixes plain FPGA counts with explicit
//!   [`PlatformSpec`] points (heterogeneous fleets of device groups); the
//!   budget axis mixes the paper's uniform "resource constraint %" with full
//!   per-resource [`BudgetSpec`] points carrying independent
//!   LUT/FF/BRAM/DSP/bandwidth fractions.
//! * [`run_sweep`] — a multi-threaded executor built on [`std::thread::scope`]
//!   with chunked work distribution. Results are assembled in grid order, so
//!   the output is deterministic and identical to the serial path regardless
//!   of thread count or scheduling.
//! * [`WarmStartCache`] — within a chunk of neighbouring budget points, each
//!   GP+A solve is warm-started from the nearest already-solved point under
//!   the [`budget_distance`] metric: the continuous relaxation narrows its
//!   bisection bracket and the discretization branch-and-bound is seeded
//!   with an incumbent. Warm starts are verified before use and always reach
//!   the same initiation interval as a cold solve; when several integer
//!   designs tie on II, the warm-started search may return the neighbour's
//!   design (disable [`ExecutorOptions::warm_start`] to solve every point
//!   cold).
//! * [`figures`] — the paper's figure grids (Figs. 2–5) as presets, and
//!   its tables (Tables 2–4, Fig. 6, the ablation) as one text report,
//!   [`figures::paper_tables`].
//! * [`export`] — JSON and CSV serialization of swept series for plotting.
//! * [`validate`] — cross-checks a sample of swept designs against the
//!   [`mfa_sim`] discrete-event simulator.
//! * [`session`] — the JSON-lines framing, frame and session limits and
//!   threaded accept loop shared by the workspace's daemons, with the
//!   protocol version every handshake carries.
//!
//! Every point is one [`mfa_alloc::solver::SolveRequest`] under the grid's
//! [`mfa_alloc::solver::SkipPolicy`]. The grid carries the request riders: a
//! [`SweepGridBuilder::skip_policy`] (strict sweeps treat unplaceable points
//! and missed deadlines as errors) and a
//! [`SweepGridBuilder::point_deadline_seconds`] wall-clock cap per point.
//!
//! # Example
//!
//! ```
//! use mfa_alloc::cases::PaperCase;
//! use mfa_alloc::gpa::GpaOptions;
//! use mfa_explore::{constraint_grid, run_sweep, CaseSpec, ExecutorOptions, SolverSpec, SweepGrid};
//!
//! # fn main() -> Result<(), mfa_explore::ExploreError> {
//! let grid = SweepGrid::builder()
//!     .case(CaseSpec::from_paper(PaperCase::Alex16OnTwoFpgas))
//!     .fpga_counts([2])
//!     .constraints(constraint_grid(0.60, 0.80, 3)?)
//!     .backend(SolverSpec::gpa(GpaOptions::fast()))
//!     .build()?;
//! let series = run_sweep(&grid, &ExecutorOptions::default())?;
//! assert_eq!(series.len(), 1);
//! assert!(!series[0].points.is_empty());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod error;
mod executor;
pub mod export;
pub mod figures;
pub mod frontier;
mod grid;
pub mod json;
pub mod session;
pub mod store;
pub mod validate;
pub mod wire;

pub use cache::{budget_distance, WarmStartCache, DEFAULT_CACHE_CAPACITY};
pub use error::ExploreError;
pub use executor::{
    assemble_series, compute_unit, compute_unit_hinted, plan_units, run_sweep, run_sweep_stored,
    zero_chunk_diagnostics, zero_timing, ExecutorOptions, SweepPoint, SweepSeries, UnitOutput,
    WorkUnit,
};
pub use figures::FigureSpec;
pub use frontier::{frontier_to_csv, frontier_to_json, run_frontier, FrontierPoint, FrontierSpec};
pub use grid::{
    constraint_grid, BudgetSpec, CaseSpec, PlatformSpec, SolverSpec, SweepGrid, SweepGridBuilder,
};
pub use store::{
    GcReport, ResultStore, StoreEntry, StoreRunReport, StoreStats, SweepStore, STORE_VERSION,
};
