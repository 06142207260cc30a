//! The unified request-shaped solver API.
//!
//! Every allocation backend in this crate — the GP+A heuristic pipeline, the
//! greedy fallback, and the exact MINLP — is driven through one entry point:
//! build a [`SolveRequest`], attach [`WarmStart`] hints, a [`Deadline`] or
//! node budget, and a [`SkipPolicy`], then call [`SolveRequest::solve`] (or
//! [`SolveRequest::solve_point`] inside sweeps). The result is a
//! [`SolveReport`] carrying the placement plus structured
//! [`SolveDiagnostics`]: relaxation gap, dropped CUs, branch-and-bound nodes,
//! per-stage timing, and the [`WarmStartReport`] provenance of the hints.
//!
//! # Example
//!
//! ```
//! use std::time::Duration;
//! use mfa_alloc::solver::{Backend, Deadline, SolveRequest};
//! use mfa_alloc::{AllocationProblem, GoalWeights, Kernel};
//! use mfa_platform::{MultiFpgaPlatform, ResourceBudget, ResourceVec};
//!
//! # fn main() -> Result<(), mfa_alloc::AllocError> {
//! let problem = AllocationProblem::builder()
//!     .kernels(vec![
//!         Kernel::new("produce", 4.0, ResourceVec::bram_dsp(0.05, 0.20), 0.03)?,
//!         Kernel::new("consume", 9.0, ResourceVec::bram_dsp(0.08, 0.25), 0.02)?,
//!     ])
//!     .platform(MultiFpgaPlatform::aws_f1_4xlarge())
//!     .budget(ResourceBudget::uniform(0.70))
//!     .weights(GoalWeights::new(1.0, 0.7))
//!     .build()?;
//! let report = SolveRequest::new(&problem)
//!     .backend(Backend::gpa())
//!     .deadline(Deadline::within(Duration::from_secs(30)))
//!     .solve()?;
//! assert!(report.initiation_interval_ms(&problem) < 9.0);
//! assert!(report.diagnostics.bb_nodes >= 1);
//! # Ok(())
//! # }
//! ```

use std::time::{Duration, Instant};

use mfa_linprog::LpError;

use crate::exact::{self, ExactOptions};
use crate::gp_step::RelaxationBackend;
use crate::gpa::{self, GpaOptions};
use crate::greedy::{self, GreedyOptions};
use crate::problem::AllocationProblem;
use crate::solution::Allocation;
use crate::AllocError;

/// Dual warm-start state of a GP relaxation: the final barrier parameter `t`
/// and the constraint multiplier estimates of the producing solve, carried
/// between neighbouring solves by [`WarmStart::gp_dual`].
pub use mfa_gp::GpDualState;

// ---------------------------------------------------------------------------
// Deadlines.

/// An absolute point in time after which a solve must give up with
/// [`AllocError::DeadlineExceeded`] instead of continuing to run.
///
/// Deadlines are checked at every stage boundary and inside every
/// branch-and-bound node loop, so an exhausted deadline surfaces as a
/// structured error — never a hang, never a panic — from every backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    instant: Instant,
}

impl Deadline {
    /// A deadline `budget` from now.
    pub fn within(budget: Duration) -> Self {
        Deadline {
            instant: Instant::now() + budget,
        }
    }

    /// A deadline `seconds` from now, validating the float first.
    ///
    /// Prefer this over `Deadline::within(Duration::from_secs_f64(s))` for
    /// budgets that arrive as floats over a wire or CLI: `from_secs_f64`
    /// panics on NaN/negative input, whereas this surfaces a typed error.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::InvalidArgument`] when `seconds` is non-finite,
    /// negative, or too large to represent as a [`Duration`] — such a budget
    /// would otherwise silently become an always-expired (or panicking)
    /// deadline.
    pub fn within_seconds(seconds: f64) -> Result<Self, AllocError> {
        if !(seconds.is_finite() && seconds >= 0.0) {
            return Err(AllocError::InvalidArgument(format!(
                "a deadline budget must be a finite, non-negative number of seconds, got {seconds}"
            )));
        }
        // A finite float can still overflow `Duration` (u64 whole seconds),
        // and a representable `Duration` can still overflow `Instant + budget`
        // (e.g. 1e19 s): `Duration::from_secs_f64` and `Instant::add` both
        // panic there, which a wire- or CLI-supplied budget must never be
        // able to trigger.
        let overflow = || {
            AllocError::InvalidArgument(format!(
                "a deadline budget of {seconds} seconds overflows a Duration"
            ))
        };
        let budget = Duration::try_from_secs_f64(seconds).map_err(|_| overflow())?;
        let instant = Instant::now().checked_add(budget).ok_or_else(overflow)?;
        Ok(Deadline { instant })
    }

    /// A deadline at an absolute instant.
    pub fn at(instant: Instant) -> Self {
        Deadline { instant }
    }

    /// A deadline that is already exhausted (useful in tests and for
    /// cancelling queued requests).
    pub fn expired() -> Self {
        Deadline {
            instant: Instant::now(),
        }
    }

    /// Time left before the deadline (zero when exhausted).
    pub fn remaining(&self) -> Duration {
        self.instant.saturating_duration_since(Instant::now())
    }

    /// `true` once the deadline has passed.
    pub fn is_expired(&self) -> bool {
        Instant::now() >= self.instant
    }

    /// Errors with [`AllocError::DeadlineExceeded`] naming `stage` when the
    /// deadline has passed.
    pub(crate) fn check(&self, stage: &str) -> Result<(), AllocError> {
        if self.is_expired() {
            Err(AllocError::DeadlineExceeded {
                stage: stage.to_owned(),
            })
        } else {
            Ok(())
        }
    }
}

/// `deadline.check(stage)` for an optional deadline.
pub(crate) fn check_deadline(deadline: Option<&Deadline>, stage: &str) -> Result<(), AllocError> {
    match deadline {
        Some(d) => d.check(stage),
        None => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// Warm starts.

/// Hints carried from a neighbouring solve (an adjacent budget point of a
/// sweep, the previous request for the same tenant, …). One uniform shape
/// for every backend; each backend consumes the hints it has a use for and
/// ignores the rest:
///
/// * `relaxed_ii_ms` narrows the bisection bracket of the continuous
///   relaxation and seeds the GP interior-point solver's start point
///   (consumed by [`Backend::Gpa`] and [`Backend::Greedy`]);
/// * `gp_dual` carries the neighbouring GP relaxation's final barrier
///   parameter and constraint multipliers, letting the interior-point solve
///   re-enter the barrier path near its end instead of re-running the early
///   centering sweeps (consumed by [`Backend::Gpa`] with the GP relaxation
///   backend, and only when the `relaxed_ii_ms` seed is accepted);
/// * `cu_counts` seeds the discretization branch-and-bound and — placed by
///   the greedy allocator — the exact MINLP's incumbent, both pruning from
///   node 0 (consumed by [`Backend::Gpa`] and [`Backend::Exact`]).
///
/// Hints are verified before use: a stale or wrong hint degrades to a cold
/// start and can never change feasibility or solution quality, only how much
/// work the search does (ties between equally-optimal designs go to the
/// hint). [`SolveDiagnostics::warm_start`] reports which hints were taken.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WarmStart {
    /// Relaxed initiation interval of the neighbouring solve, in ms.
    pub relaxed_ii_ms: Option<f64>,
    /// Final (post-drop) integer CU counts of the neighbouring solve.
    pub cu_counts: Option<Vec<u32>>,
    /// Dual state of the neighbouring solve's GP relaxation, if it ran one.
    pub gp_dual: Option<GpDualState>,
}

impl WarmStart {
    /// An empty warm start (a cold solve).
    pub fn none() -> Self {
        WarmStart::default()
    }

    /// Sets the relaxed-II hint.
    #[must_use]
    pub fn with_relaxed_ii(mut self, ii_ms: f64) -> Self {
        self.relaxed_ii_ms = Some(ii_ms);
        self
    }

    /// Sets the integer-counts hint.
    #[must_use]
    pub fn with_cu_counts(mut self, counts: Vec<u32>) -> Self {
        self.cu_counts = Some(counts);
        self
    }

    /// Sets the GP dual-state hint.
    #[must_use]
    pub fn with_gp_dual(mut self, dual: GpDualState) -> Self {
        self.gp_dual = Some(dual);
        self
    }

    /// `true` when no hint is present.
    pub fn is_empty(&self) -> bool {
        self.relaxed_ii_ms.is_none() && self.cu_counts.is_none() && self.gp_dual.is_none()
    }
}

impl From<&SolveReport> for WarmStart {
    /// The warm-start state a solved report provides to its neighbours.
    fn from(report: &SolveReport) -> Self {
        WarmStart {
            relaxed_ii_ms: report.diagnostics.relaxed_ii_ms,
            cu_counts: Some(report.diagnostics.cu_counts.clone()),
            gp_dual: report.diagnostics.gp_dual.clone(),
        }
    }
}

/// Which warm-start hints a solve actually used (the *provenance* of the
/// result): distinct from which hints were merely present in the request,
/// since invalid hints are verified and dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmStartReport {
    /// The relaxed-II hint narrowed the bisection bracket or seeded the GP
    /// interior point.
    pub ii_hint_used: bool,
    /// The GP dual-state hint re-entered the barrier path near its end (only
    /// possible when the relaxed-II seed was also accepted).
    pub dual_hint_used: bool,
    /// The integer-counts hint was accepted as a branch-and-bound incumbent
    /// (discretization or exact MINLP).
    pub incumbent_used: bool,
}

impl WarmStartReport {
    /// Compact label used in exports: `cold` or a `+`-joined subset of
    /// `ii`, `dual`, `incumbent` (e.g. `ii+dual+incumbent`).
    pub fn provenance(&self) -> &'static str {
        match (self.ii_hint_used, self.dual_hint_used, self.incumbent_used) {
            (false, false, false) => "cold",
            (true, false, false) => "ii",
            (false, true, false) => "dual",
            (false, false, true) => "incumbent",
            (true, true, false) => "ii+dual",
            (true, false, true) => "ii+incumbent",
            (false, true, true) => "dual+incumbent",
            (true, true, true) => "ii+dual+incumbent",
        }
    }

    /// Parses a [`provenance`](Self::provenance) label.
    pub fn from_provenance(label: &str) -> Option<Self> {
        let mut report = WarmStartReport::default();
        if label == "cold" {
            return Some(report);
        }
        for part in label.split('+') {
            match part {
                "ii" if !report.ii_hint_used => report.ii_hint_used = true,
                "dual" if !report.dual_hint_used => report.dual_hint_used = true,
                "incumbent" if !report.incumbent_used => report.incumbent_used = true,
                _ => return None,
            }
        }
        // Only accept the canonical ordering `provenance` emits.
        (Self::provenance(&report) == label).then_some(report)
    }
}

// ---------------------------------------------------------------------------
// Skip policy.

/// Whether a per-point solver error means "this point has no solution — skip
/// it" rather than "the request itself is broken — error".
///
/// Sweeps over constraint grids routinely cross infeasible territory; the
/// paper's figures simply omit such points. [`SolveRequest::solve_point`]
/// applies the request's policy; [`SolveRequest::solve`] always errors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SkipPolicy {
    /// A constraint too tight for the application
    /// ([`AllocError::Infeasible`]), a discretized configuration the
    /// allocator cannot bin-pack ([`AllocError::AllocationFailed`]), a
    /// budgeted MINLP solve that exhausts its node budget without an
    /// incumbent, an exhausted water-filling simplex pivot budget
    /// ([`LpError::PivotBudgetExceeded`]), and an exhausted [`Deadline`] all
    /// mean "no data for this point". Anything else (invalid arguments,
    /// numerical solver failures) is an error.
    #[default]
    Lenient,
    /// Only genuine infeasibility ([`AllocError::Infeasible`]) is skipped;
    /// an unplaceable discretization, an exhausted node or pivot budget and
    /// a missed deadline are hard errors. Exact sweeps that must account for
    /// every point opt into this.
    Strict,
}

impl SkipPolicy {
    /// Applies the policy to an error.
    pub fn is_skippable(&self, err: &AllocError) -> bool {
        match self {
            SkipPolicy::Lenient => matches!(
                err,
                AllocError::Infeasible(_)
                    | AllocError::AllocationFailed { .. }
                    | AllocError::DeadlineExceeded { .. }
                    | AllocError::Minlp(mfa_minlp::MinlpError::NodeLimitWithoutSolution { .. })
                    | AllocError::Linprog(LpError::PivotBudgetExceeded { .. })
            ),
            SkipPolicy::Strict => matches!(err, AllocError::Infeasible(_)),
        }
    }

    /// Label used by exports and the wire codec.
    pub fn label(&self) -> &'static str {
        match self {
            SkipPolicy::Lenient => "lenient",
            SkipPolicy::Strict => "strict",
        }
    }

    /// Parses a [`label`](Self::label).
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "lenient" => Some(SkipPolicy::Lenient),
            "strict" => Some(SkipPolicy::Strict),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Backends.

/// Conventional label of the greedy fallback, shared by the registry and the
/// report so the two cannot drift (see `gpa::GPA_LABEL`).
pub(crate) const GREEDY_LABEL: &str = "Greedy";

/// The backend registry. Each variant names one solution path and carries
/// its options.
#[derive(Debug, Clone, PartialEq)]
pub enum Backend {
    /// The paper's GP+A heuristic: continuous relaxation (GP interior point
    /// or analytic bisection, per [`GpaOptions::relaxation_backend`]),
    /// branch-and-bound discretization, greedy placement.
    Gpa {
        /// Pipeline options (relaxation engine, discretization, greedy `T`/`Δ`).
        options: GpaOptions,
    },
    /// The cheap serving fallback: bisection relaxation, floor rounding (no
    /// discretization search), greedy placement. Roughly the cost of one
    /// relaxation; the discretization optimality gap is reported in the
    /// diagnostics.
    Greedy {
        /// Greedy-allocator options (`T`, `Δ`).
        options: GreedyOptions,
    },
    /// The exact MINLP of Eqs. 5–10 solved by branch-and-bound.
    Exact {
        /// Exact-solver options (objective mode, node/time budget, symmetry
        /// breaking).
        options: ExactOptions,
    },
}

impl Backend {
    /// GP+A with the paper's configuration (GP relaxation, `T = 0`).
    pub fn gpa() -> Self {
        Backend::Gpa {
            options: GpaOptions::paper_defaults(),
        }
    }

    /// GP+A with the fast bisection relaxation.
    pub fn gpa_fast() -> Self {
        Backend::Gpa {
            options: GpaOptions::fast(),
        }
    }

    /// GP+A with explicit options.
    pub fn gpa_with(options: GpaOptions) -> Self {
        Backend::Gpa { options }
    }

    /// The greedy fallback with default options.
    pub fn greedy() -> Self {
        Backend::Greedy {
            options: GreedyOptions::default(),
        }
    }

    /// The exact MINLP with default options (`β = 0`, unbounded search).
    pub fn exact() -> Self {
        Backend::Exact {
            options: ExactOptions::default(),
        }
    }

    /// The exact MINLP with explicit options.
    pub fn exact_with(options: ExactOptions) -> Self {
        Backend::Exact { options }
    }

    /// Conventional label of the backend, matching the paper's figure keys
    /// where one exists (`GP+A`, `Greedy`, `MINLP`, `MINLP+G`).
    pub fn label(&self) -> &'static str {
        match self {
            Backend::Gpa { .. } => gpa::GPA_LABEL,
            Backend::Greedy { .. } => GREEDY_LABEL,
            Backend::Exact { options } => options.mode.label(),
        }
    }
}

// ---------------------------------------------------------------------------
// The request.

/// One allocation request: problem + backend selection + hints + limits +
/// skip policy. Build with the fluent methods, then [`solve`](Self::solve).
#[derive(Debug, Clone)]
pub struct SolveRequest<'p> {
    problem: &'p AllocationProblem,
    backend: Backend,
    warm_start: WarmStart,
    deadline: Option<Deadline>,
    node_budget: Option<usize>,
    skip_policy: SkipPolicy,
}

impl<'p> SolveRequest<'p> {
    /// A request for `problem` with the default backend ([`Backend::gpa`]),
    /// no hints, no limits, and the [`SkipPolicy::Lenient`] policy.
    pub fn new(problem: &'p AllocationProblem) -> Self {
        SolveRequest {
            problem,
            backend: Backend::gpa(),
            warm_start: WarmStart::none(),
            deadline: None,
            node_budget: None,
            skip_policy: SkipPolicy::default(),
        }
    }

    /// Selects the backend.
    #[must_use]
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Attaches warm-start hints.
    #[must_use]
    pub fn warm_start(mut self, warm_start: WarmStart) -> Self {
        self.warm_start = warm_start;
        self
    }

    /// Attaches a deadline.
    #[must_use]
    pub fn deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Caps the branch-and-bound node count of whichever search the backend
    /// runs (the discretization for GP+A, the MINLP tree for exact). The cap
    /// combines with the backend options' own limit by minimum.
    #[must_use]
    pub fn node_budget(mut self, max_nodes: usize) -> Self {
        self.node_budget = Some(max_nodes);
        self
    }

    /// Sets the skip policy applied by [`solve_point`](Self::solve_point).
    #[must_use]
    pub fn skip_policy(mut self, policy: SkipPolicy) -> Self {
        self.skip_policy = policy;
        self
    }

    /// The problem being solved.
    pub fn problem(&self) -> &'p AllocationProblem {
        self.problem
    }

    /// Serves the request with the selected [`Backend`].
    ///
    /// # Errors
    ///
    /// Infeasibility, placement failure, [`AllocError::DeadlineExceeded`]
    /// when the deadline is exhausted (checked before any work starts and at
    /// every stage boundary), and solver failures.
    pub fn solve(&self) -> Result<SolveReport, AllocError> {
        let deadline = self.deadline.as_ref();
        check_deadline(deadline, "request admission")?;
        let (problem, warm) = (self.problem, &self.warm_start);
        let report = match &self.backend {
            Backend::Gpa { options } => {
                gpa::run_pipeline(problem, options, warm, deadline, self.node_budget)
            }
            Backend::Greedy { options } => solve_greedy(problem, options, warm, deadline),
            Backend::Exact { options } => {
                exact::run(problem, options, warm, deadline, self.node_budget)
            }
        }?;
        Ok(self.fill_migration_diagnostics(report))
    }

    /// Fills [`SolveDiagnostics::moved_cus`]/
    /// [`SolveDiagnostics::migration_cost`] from the problem's reallocation
    /// spec — centrally, so every backend reports movement uniformly.
    fn fill_migration_diagnostics(&self, mut report: SolveReport) -> SolveReport {
        if self.problem.reallocation().is_some() {
            let outcome = self.problem.migration_of(&report.allocation);
            report.diagnostics.moved_cus = outcome.moved_cus;
            report.diagnostics.migration_cost = outcome.cost;
        }
        report
    }

    /// [`solve`](Self::solve) with the request's [`SkipPolicy`] applied:
    /// `Ok(None)` for skippable errors ("this point has no solution"),
    /// `Err` only for failures the policy treats as fatal.
    ///
    /// # Errors
    ///
    /// Non-skippable solver failures under the request's policy.
    pub fn solve_point(&self) -> Result<Option<SolveReport>, AllocError> {
        match self.solve() {
            Ok(report) => Ok(Some(report)),
            Err(err) if self.skip_policy.is_skippable(&err) => Ok(None),
            Err(err) => Err(err),
        }
    }
}

// ---------------------------------------------------------------------------
// The report.

/// Wall-clock time spent in each stage of a solve. Informational only: the
/// deterministic effort counters ([`SolveDiagnostics::bb_nodes`],
/// [`SolveDiagnostics::relaxation_iterations`]) are what reproducible
/// pipelines should compare.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTiming {
    /// Whole solve.
    pub total: Duration,
    /// Continuous relaxation (GP or bisection); zero for the exact backend.
    pub relaxation: Duration,
    /// Discretization branch-and-bound (GP+A) or the MINLP search (exact).
    pub discretization: Duration,
    /// Greedy placement; zero for the exact backend.
    pub allocation: Duration,
}

/// Structured diagnostics of one solve, alongside the placement itself.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveDiagnostics {
    /// Relaxed (continuous) initiation interval in ms — the lower bound the
    /// heuristic discretized from, or the MINLP's proven bound. `None` when
    /// the backend has no meaningful relaxation value.
    pub relaxed_ii_ms: Option<f64>,
    /// Relative gap between the achieved initiation interval and the solve's
    /// lower bound: `(II − bound) / bound` for the heuristic backends,
    /// the branch-and-bound optimality gap for the exact backend.
    pub relaxation_gap: Option<f64>,
    /// `true` when the exact backend proved optimality; `None` for the
    /// heuristics.
    pub proven_optimal: Option<bool>,
    /// Final integer CU counts per kernel (post-drop).
    pub cu_counts: Vec<u32>,
    /// CUs removed per kernel by the feasibility fallback (all zeros when
    /// the discretized counts were placed as-is; always zeros for exact).
    pub dropped_cus: Vec<u32>,
    /// Branch-and-bound nodes visited (discretization for GP+A, MINLP tree
    /// for exact, zero for greedy).
    pub bb_nodes: usize,
    /// Deterministic relaxation effort: bisection feasibility steps or GP
    /// Newton iterations of the top-level relaxation.
    pub relaxation_iterations: usize,
    /// Interior-point barrier iterations of the top-level GP relaxation
    /// (zero for bisection-only and exact solves). Machine-independent.
    pub barrier_iterations: usize,
    /// KKT factorizations performed by the GP relaxation, counting full
    /// factorizations and in-place diagonal refreshes alike (zero for
    /// bisection-only and exact solves). Machine-independent.
    pub factorizations: usize,
    /// Simplex pivots spent in the linear-programming substrate: the
    /// water-filling feasibility probes of the heuristic backends, or every
    /// node LP of the exact MINLP search. Machine-independent.
    pub simplex_pivots: usize,
    /// CUs the returned placement newly configures relative to the problem's
    /// incumbent (group-granular; zero when no
    /// [`ReallocationSpec`](crate::realloc::ReallocationSpec) is attached).
    /// Filled centrally by [`SolveRequest::solve`] for every backend.
    pub moved_cus: u32,
    /// The unweighted migration cost `Σ_g c_g · moved_g` of the returned
    /// placement (zero when no reallocation spec is attached).
    pub migration_cost: f64,
    /// Dual state of the GP relaxation, offered to neighbouring solves via
    /// [`WarmStart::gp_dual`]. `None` when no GP relaxation ran.
    pub gp_dual: Option<GpDualState>,
    /// Which warm-start hints the solve actually consumed.
    pub warm_start: WarmStartReport,
    /// Label of the backend the caller originally requested, when a serving
    /// layer downgraded the request to a cheaper backend (deadline-aware
    /// graceful degradation). `None` for every direct solve; backends never
    /// set this themselves — it is provenance written by the layer that made
    /// the substitution, so a degraded result is auditable instead of
    /// silently passing as the requested backend's output.
    pub degraded_from: Option<String>,
    /// Wall-clock stage timing.
    pub timing: StageTiming,
}

impl SolveDiagnostics {
    /// Total CUs dropped by the feasibility fallback.
    pub fn total_dropped_cus(&self) -> u32 {
        self.dropped_cus.iter().sum()
    }
}

/// Outcome of a [`SolveRequest`]: the placement plus structured diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport {
    /// The placement.
    pub allocation: Allocation,
    /// Name of the backend that served the request.
    pub backend: String,
    /// Structured solve diagnostics.
    pub diagnostics: SolveDiagnostics,
}

impl SolveReport {
    /// Initiation interval of the returned placement in milliseconds.
    pub fn initiation_interval_ms(&self, problem: &AllocationProblem) -> f64 {
        self.allocation.initiation_interval(problem)
    }

    /// The warm-start state this solve provides to a neighbouring request
    /// (shorthand for `WarmStart::from(report)`).
    pub fn warm_start(&self) -> WarmStart {
        WarmStart::from(self)
    }
}

// ---------------------------------------------------------------------------
// The greedy backend.

/// [`Backend::Greedy`]: bisection relaxation, floor rounding, greedy
/// placement — no discretization search.
fn solve_greedy(
    problem: &AllocationProblem,
    options: &GreedyOptions,
    warm: &WarmStart,
    deadline: Option<&Deadline>,
) -> Result<SolveReport, AllocError> {
    let start = Instant::now();
    problem.validate_feasibility()?;

    check_deadline(deadline, "greedy relaxation")?;
    let relaxation_start = Instant::now();
    let (relaxation, stats) = crate::gp_step::relax_hinted(
        problem,
        RelaxationBackend::Bisection,
        warm.relaxed_ii_ms,
        None,
    )?;
    let relaxation_time = relaxation_start.elapsed();

    // Floor the fractional counts (never below one CU). Floors of a
    // budget-feasible fractional point stay budget-feasible, so the drop
    // loop below only ever fires on bin-packing failures.
    check_deadline(deadline, "greedy placement")?;
    let cu_counts: Vec<u32> = relaxation
        .cu_counts
        .iter()
        .map(|&n| (n.floor() as u32).max(1))
        .collect();
    let allocation_start = Instant::now();
    let (allocation, mut cu_counts, dropped_cus) =
        gpa::place_with_drops(problem, cu_counts, options, deadline)?;
    let allocation = gpa::snap_to_incumbent(problem, allocation)?;
    if problem.migration_active() {
        cu_counts = (0..allocation.num_kernels())
            .map(|k| allocation.total_cus(k))
            .collect();
    }
    let allocation_time = allocation_start.elapsed();

    let achieved = allocation.initiation_interval(problem);
    let relaxed = relaxation.initiation_interval_ms;
    Ok(SolveReport {
        allocation,
        backend: GREEDY_LABEL.to_owned(),
        diagnostics: SolveDiagnostics {
            relaxed_ii_ms: Some(relaxed),
            relaxation_gap: Some((achieved - relaxed).max(0.0) / relaxed.max(f64::MIN_POSITIVE)),
            proven_optimal: None,
            cu_counts,
            dropped_cus,
            bb_nodes: 0,
            relaxation_iterations: stats.iterations,
            barrier_iterations: stats.barrier_iterations,
            factorizations: stats.factorizations,
            simplex_pivots: stats.simplex_pivots,
            moved_cus: 0,
            migration_cost: 0.0,
            gp_dual: stats.dual_state,
            warm_start: WarmStartReport {
                ii_hint_used: stats.hint_used,
                dual_hint_used: stats.dual_hint_used,
                incumbent_used: false,
            },
            degraded_from: None,
            timing: StageTiming {
                total: start.elapsed(),
                relaxation: relaxation_time,
                discretization: Duration::ZERO,
                allocation: allocation_time,
            },
        },
    })
}

/// Derives the integer CU counts of an allocation, kernel-major — used to
/// seed MINLP incumbents and to report exact-backend counts.
pub(crate) fn counts_of(problem: &AllocationProblem, allocation: &Allocation) -> Vec<u32> {
    (0..problem.num_kernels())
        .map(|k| allocation.total_cus(k))
        .collect()
}

/// Places warm-start counts with the greedy allocator, returning `None` when
/// the counts are not placeable as-is (warm starts are advisory — an
/// unplaceable hint is dropped, never an error).
pub(crate) fn place_hint(
    problem: &AllocationProblem,
    counts: &[u32],
    options: &GreedyOptions,
) -> Option<Allocation> {
    if counts.len() != problem.num_kernels() || counts.contains(&0) {
        return None;
    }
    greedy::allocate(problem, counts, options).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::PaperCase;
    use crate::paper_data;
    use mfa_platform::{MultiFpgaPlatform, ResourceBudget, ResourceVec};

    fn alex16(constraint: f64) -> AllocationProblem {
        PaperCase::Alex16OnTwoFpgas.problem(constraint).unwrap()
    }

    #[test]
    fn request_defaults_and_accessors() {
        let problem = alex16(0.70);
        let request = SolveRequest::new(&problem);
        assert_eq!(request.backend.label(), "GP+A");
        assert!(request.warm_start.is_empty());
        assert!(request.deadline.is_none());
        assert_eq!(request.skip_policy, SkipPolicy::Lenient);
        let request = request
            .backend(Backend::exact())
            .node_budget(7)
            .skip_policy(SkipPolicy::Strict);
        assert_eq!(request.backend.label(), "MINLP");
        assert_eq!(request.node_budget, Some(7));
        assert_eq!(request.skip_policy, SkipPolicy::Strict);
    }

    #[test]
    fn all_backends_solve_alex16_and_agree_on_feasibility() {
        let problem = alex16(0.70);
        for backend in [
            Backend::gpa_fast(),
            Backend::gpa(),
            Backend::greedy(),
            Backend::exact_with(ExactOptions::ii_only_with_budget(2_000, 10.0)),
        ] {
            let label = backend.label();
            let report = SolveRequest::new(&problem)
                .backend(backend)
                .solve()
                .unwrap_or_else(|err| panic!("{label}: {err}"));
            report.allocation.validate(&problem, 1e-6).unwrap();
            assert!(report.initiation_interval_ms(&problem) < 6.7, "{label}");
            assert_eq!(report.diagnostics.cu_counts.len(), problem.num_kernels());
            // The reported counts match the placement.
            for (k, &n) in report.diagnostics.cu_counts.iter().enumerate() {
                assert_eq!(report.allocation.total_cus(k), n, "{label} kernel {k}");
            }
        }
    }

    #[test]
    fn greedy_backend_is_cheap_and_bounded_by_the_relaxation() {
        let problem = alex16(0.70);
        let greedy = SolveRequest::new(&problem)
            .backend(Backend::greedy())
            .solve()
            .unwrap();
        let gpa = SolveRequest::new(&problem)
            .backend(Backend::gpa_fast())
            .solve()
            .unwrap();
        assert_eq!(greedy.diagnostics.bb_nodes, 0);
        let relaxed = greedy.diagnostics.relaxed_ii_ms.unwrap();
        // Floor rounding can only be worse than (or equal to) the searched
        // discretization, and both are bounded below by the relaxation.
        assert!(greedy.initiation_interval_ms(&problem) >= relaxed - 1e-9);
        assert!(
            greedy.initiation_interval_ms(&problem) >= gpa.initiation_interval_ms(&problem) - 1e-9
        );
    }

    #[test]
    fn exhausted_deadline_is_a_structured_error_from_every_backend() {
        let problem = alex16(0.70);
        for backend in [
            Backend::gpa_fast(),
            Backend::gpa(),
            Backend::greedy(),
            Backend::exact(),
        ] {
            let label = backend.label();
            let err = SolveRequest::new(&problem)
                .backend(backend)
                .deadline(Deadline::expired())
                .solve()
                .unwrap_err();
            assert!(
                matches!(err, AllocError::DeadlineExceeded { .. }),
                "{label}: {err}"
            );
        }
    }

    #[test]
    fn solve_point_applies_the_skip_policy() {
        // 20 % cannot host Alex-32's CONV2 → Infeasible is skipped by both
        // policies.
        let infeasible = PaperCase::Alex32OnFourFpgas.problem(0.20).unwrap();
        for policy in [SkipPolicy::Lenient, SkipPolicy::Strict] {
            let point = SolveRequest::new(&infeasible)
                .backend(Backend::gpa_fast())
                .skip_policy(policy)
                .solve_point()
                .unwrap();
            assert!(point.is_none(), "{policy:?}");
        }
        // An exhausted deadline is a skipped point only under Lenient.
        let problem = alex16(0.70);
        let lenient = SolveRequest::new(&problem)
            .deadline(Deadline::expired())
            .solve_point()
            .unwrap();
        assert!(lenient.is_none());
        let strict = SolveRequest::new(&problem)
            .deadline(Deadline::expired())
            .skip_policy(SkipPolicy::Strict)
            .solve_point();
        assert!(matches!(strict, Err(AllocError::DeadlineExceeded { .. })));
    }

    #[test]
    fn skip_policy_classification_matches_the_old_predicate() {
        let lenient = SkipPolicy::Lenient;
        assert!(lenient.is_skippable(&AllocError::Infeasible("too tight".into())));
        assert!(lenient.is_skippable(&AllocError::AllocationFailed {
            unplaced: vec![("CONV1".into(), 2)],
        }));
        assert!(lenient.is_skippable(&AllocError::from(
            mfa_minlp::MinlpError::NodeLimitWithoutSolution { nodes: 34 }
        )));
        assert!(lenient.is_skippable(&AllocError::DeadlineExceeded {
            stage: "relaxation".into()
        }));
        assert!(
            lenient.is_skippable(&AllocError::from(LpError::PivotBudgetExceeded {
                pivots: 50_000
            }))
        );
        assert!(!lenient.is_skippable(&AllocError::InvalidArgument("bad".into())));
        assert!(!lenient.is_skippable(&AllocError::from(mfa_minlp::MinlpError::UnknownVariable(0))));
        assert!(
            !lenient.is_skippable(&AllocError::from(LpError::InvalidArgument(
                "nan coefficient".into()
            )))
        );

        let strict = SkipPolicy::Strict;
        assert!(strict.is_skippable(&AllocError::Infeasible("too tight".into())));
        assert!(!strict.is_skippable(&AllocError::AllocationFailed {
            unplaced: vec![("CONV1".into(), 2)],
        }));
        assert!(!strict.is_skippable(&AllocError::from(
            mfa_minlp::MinlpError::NodeLimitWithoutSolution { nodes: 34 }
        )));
        assert!(!strict.is_skippable(&AllocError::DeadlineExceeded {
            stage: "relaxation".into()
        }));
        assert!(
            !strict.is_skippable(&AllocError::from(LpError::PivotBudgetExceeded {
                pivots: 50_000
            }))
        );
    }

    #[test]
    fn warm_start_round_trips_through_a_report() {
        let problem = alex16(0.70);
        let report = SolveRequest::new(&problem)
            .backend(Backend::gpa_fast())
            .solve()
            .unwrap();
        let warm = report.warm_start();
        assert_eq!(warm.relaxed_ii_ms, report.diagnostics.relaxed_ii_ms);
        assert_eq!(
            warm.cu_counts.as_deref(),
            Some(&report.diagnostics.cu_counts[..])
        );
        assert!(!warm.is_empty());
        assert!(WarmStart::none().is_empty());
    }

    #[test]
    fn bisection_hint_narrows_the_bracket() {
        let problem = alex16(0.70);
        let cold = SolveRequest::new(&problem)
            .backend(Backend::gpa_fast())
            .solve()
            .unwrap();
        assert_eq!(cold.diagnostics.warm_start.provenance(), "cold");
        let warm = SolveRequest::new(&problem)
            .backend(Backend::gpa_fast())
            .warm_start(WarmStart::none().with_relaxed_ii(cold.diagnostics.relaxed_ii_ms.unwrap()))
            .solve()
            .unwrap();
        assert!(warm.diagnostics.warm_start.ii_hint_used);
        assert_eq!(warm.diagnostics.warm_start.provenance(), "ii");
        assert!(
            warm.diagnostics.relaxation_iterations < cold.diagnostics.relaxation_iterations,
            "warm {} vs cold {} bisection steps",
            warm.diagnostics.relaxation_iterations,
            cold.diagnostics.relaxation_iterations
        );
        assert!(
            (warm.initiation_interval_ms(&problem) - cold.initiation_interval_ms(&problem)).abs()
                < 1e-9
        );
    }

    #[test]
    fn gp_hint_seeds_the_interior_point() {
        let problem = alex16(0.70);
        let cold = SolveRequest::new(&problem)
            .backend(Backend::gpa())
            .solve()
            .unwrap();
        let warm = SolveRequest::new(&problem)
            .backend(Backend::gpa())
            .warm_start(WarmStart::none().with_relaxed_ii(cold.diagnostics.relaxed_ii_ms.unwrap()))
            .solve()
            .unwrap();
        assert!(warm.diagnostics.warm_start.ii_hint_used);
        assert!(
            warm.diagnostics.relaxation_iterations < cold.diagnostics.relaxation_iterations,
            "warm {} vs cold {} Newton steps",
            warm.diagnostics.relaxation_iterations,
            cold.diagnostics.relaxation_iterations
        );
        // The relaxed optimum is unchanged beyond solver tolerance.
        let a = warm.diagnostics.relaxed_ii_ms.unwrap();
        let b = cold.diagnostics.relaxed_ii_ms.unwrap();
        assert!((a - b).abs() < 1e-4 * b, "warm {a} vs cold {b}");
    }

    /// Shared body of the two dual warm-start effort tests: solve `problem`
    /// cold, solve `neighbour` cold, then re-solve `problem` seeded with the
    /// neighbour's full warm-start state (primal + dual + incumbent, exactly
    /// what the explore layer's cache hands over) and require the dual hint
    /// to be consumed and to strictly cut both barrier iterations and KKT
    /// factorizations against the cold solve — without moving the optimum.
    fn assert_dual_warm_start_cuts_barrier_effort(
        problem: &AllocationProblem,
        neighbour: &AllocationProblem,
    ) {
        let cold = SolveRequest::new(problem)
            .backend(Backend::gpa())
            .solve()
            .unwrap();
        assert!(
            cold.diagnostics.gp_dual.is_some(),
            "a GP relaxation must publish its dual state"
        );
        assert!(cold.diagnostics.barrier_iterations > 0);
        assert!(cold.diagnostics.factorizations > 0);

        let seed = SolveRequest::new(neighbour)
            .backend(Backend::gpa())
            .solve()
            .unwrap();
        assert!(seed.warm_start().gp_dual.is_some());

        let warm = SolveRequest::new(problem)
            .backend(Backend::gpa())
            .warm_start(seed.warm_start())
            .solve()
            .unwrap();
        assert!(warm.diagnostics.warm_start.ii_hint_used);
        assert!(
            warm.diagnostics.warm_start.dual_hint_used,
            "the neighbouring dual state was not consumed"
        );
        assert!(
            warm.diagnostics.barrier_iterations < cold.diagnostics.barrier_iterations,
            "warm {} vs cold {} barrier iterations",
            warm.diagnostics.barrier_iterations,
            cold.diagnostics.barrier_iterations
        );
        assert!(
            warm.diagnostics.factorizations < cold.diagnostics.factorizations,
            "warm {} vs cold {} factorizations",
            warm.diagnostics.factorizations,
            cold.diagnostics.factorizations
        );
        // The relaxed optimum is unchanged beyond solver tolerance: a dual
        // hint only spends less effort, it never moves the answer.
        let a = warm.diagnostics.relaxed_ii_ms.unwrap();
        let b = cold.diagnostics.relaxed_ii_ms.unwrap();
        assert!((a - b).abs() < 1e-4 * b, "warm {a} vs cold {b}");
    }

    #[test]
    fn alex16_dual_warm_start_cuts_barrier_effort() {
        // Neighbouring sweep points of the Fig. 2 Alex-16 quick preset: the
        // tighter point's solution is feasible at the looser one, so every
        // hint — primal II, dual state, incumbent counts — is accepted.
        assert_dual_warm_start_cuts_barrier_effort(&alex16(0.70), &alex16(0.65));
    }

    #[test]
    fn vgg_dual_warm_start_cuts_barrier_effort() {
        let vgg = |constraint: f64| {
            AllocationProblem::from_application(
                paper_data::vgg_16bit(),
                8,
                constraint,
                crate::problem::GoalWeights::ii_only(),
            )
            .unwrap()
        };
        // The Fig. 5 VGG quick case and its next-tighter neighbour.
        assert_dual_warm_start_cuts_barrier_effort(&vgg(0.80), &vgg(0.78));
    }

    #[test]
    fn counts_hint_seeds_the_discretization_incumbent() {
        let problem = alex16(0.65);
        let cold = SolveRequest::new(&problem)
            .backend(Backend::gpa_fast())
            .solve()
            .unwrap();
        let warm = SolveRequest::new(&problem)
            .backend(Backend::gpa_fast())
            .warm_start(WarmStart::none().with_cu_counts(cold.diagnostics.cu_counts.clone()))
            .solve()
            .unwrap();
        assert!(warm.diagnostics.warm_start.incumbent_used);
        assert_eq!(warm.diagnostics.warm_start.provenance(), "incumbent");
        assert!(
            warm.diagnostics.bb_nodes <= cold.diagnostics.bb_nodes,
            "warm {} vs cold {} nodes",
            warm.diagnostics.bb_nodes,
            cold.diagnostics.bb_nodes
        );
        assert!(
            (warm.initiation_interval_ms(&problem) - cold.initiation_interval_ms(&problem)).abs()
                < 1e-9
        );
    }

    #[test]
    fn exact_hint_seeds_the_minlp_incumbent() {
        let problem = alex16(0.70);
        let hint = SolveRequest::new(&problem)
            .backend(Backend::gpa_fast())
            .solve()
            .unwrap();
        // Cold, one node is nowhere near enough for an incumbent (the first
        // cold incumbent on this instance needs ~10 nodes, and is worse).
        let cold = SolveRequest::new(&problem)
            .backend(Backend::exact())
            .node_budget(1)
            .solve_point()
            .unwrap();
        assert!(cold.is_none());
        // Seeded with the GP+A counts, the incumbent exists at node 0 and a
        // single node serves the request at the heuristic's (optimal) II.
        let warm = SolveRequest::new(&problem)
            .backend(Backend::exact())
            .node_budget(1)
            .warm_start(hint.warm_start())
            .solve()
            .unwrap();
        assert!(warm.diagnostics.warm_start.incumbent_used);
        assert_eq!(warm.diagnostics.bb_nodes, 1);
        assert!(
            (warm.initiation_interval_ms(&problem) - hint.initiation_interval_ms(&problem)).abs()
                < 1e-6
        );
        warm.allocation.validate(&problem, 1e-6).unwrap();
    }

    #[test]
    fn node_budget_caps_the_search() {
        let problem = alex16(0.65);
        // Cold, five nodes are not enough to even find an incumbent — the
        // lenient skip policy turns that into a skipped point.
        let cold = SolveRequest::new(&problem)
            .backend(Backend::exact())
            .node_budget(5)
            .solve_point()
            .unwrap();
        assert!(cold.is_none());
        // With a GP+A warm start the same budget serves the request.
        let hint = SolveRequest::new(&problem)
            .backend(Backend::gpa_fast())
            .solve()
            .unwrap();
        let report = SolveRequest::new(&problem)
            .backend(Backend::exact())
            .node_budget(5)
            .warm_start(hint.warm_start())
            .solve()
            .unwrap();
        assert!(report.diagnostics.bb_nodes <= 5);
        assert!(report.diagnostics.proven_optimal.is_some());
        assert!(report.diagnostics.relaxation_gap.unwrap() >= 0.0);
    }

    #[test]
    fn provenance_labels_round_trip() {
        for bits in 0u8..8 {
            let report = WarmStartReport {
                ii_hint_used: bits & 1 != 0,
                dual_hint_used: bits & 2 != 0,
                incumbent_used: bits & 4 != 0,
            };
            assert_eq!(
                WarmStartReport::from_provenance(report.provenance()),
                Some(report)
            );
        }
        assert_eq!(WarmStartReport::from_provenance("warmish"), None);
        // Non-canonical orderings and repeats are rejected, keeping the
        // label space closed under round-tripping.
        assert_eq!(WarmStartReport::from_provenance("dual+ii"), None);
        assert_eq!(WarmStartReport::from_provenance("ii+ii"), None);
        assert_eq!(WarmStartReport::from_provenance(""), None);
        assert_eq!(SkipPolicy::from_label("lenient"), Some(SkipPolicy::Lenient));
        assert_eq!(SkipPolicy::from_label("strict"), Some(SkipPolicy::Strict));
        assert_eq!(SkipPolicy::from_label("loose"), None);
    }

    #[test]
    fn deadline_helpers_behave() {
        let expired = Deadline::expired();
        assert!(expired.is_expired());
        assert_eq!(expired.remaining(), Duration::ZERO);
        let far = Deadline::within(Duration::from_secs(3600));
        assert!(!far.is_expired());
        assert!(far.remaining() > Duration::from_secs(3500));
        let at = Deadline::at(Instant::now() + Duration::from_secs(10));
        assert!(!at.is_expired());
        assert!(check_deadline(None, "anything").is_ok());
        let err = check_deadline(Some(&expired), "relaxation").unwrap_err();
        assert!(err.to_string().contains("relaxation"));
    }

    #[test]
    fn float_deadline_budgets_are_validated() {
        // Finite-but-huge budgets overflow `Duration` and used to panic in
        // `Duration::from_secs_f64`; they must be typed errors like the
        // non-finite and negative cases.
        for bad in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -1.0,
            -1e-12,
            1e19,
            f64::MAX,
        ] {
            assert!(
                matches!(
                    Deadline::within_seconds(bad),
                    Err(AllocError::InvalidArgument(_))
                ),
                "budget {bad} must be rejected"
            );
        }
        let d = Deadline::within_seconds(3600.0).unwrap();
        assert!(!d.is_expired());
        assert!(d.remaining() > Duration::from_secs(3500));
        // A zero budget is a valid, already-exhausted deadline.
        assert!(Deadline::within_seconds(0.0).unwrap().remaining() <= Duration::from_millis(1));
    }

    #[test]
    fn exhausted_deadlines_skip_under_lenient_on_every_backend() {
        // The serving-path contract: an already-expired deadline surfaces as
        // a skipped point from every backend under the lenient policy —
        // never a hang, never a panic, never a hard error.
        let problem = alex16(0.70);
        for backend in [
            Backend::gpa(),
            Backend::gpa_fast(),
            Backend::greedy(),
            Backend::exact(),
        ] {
            let label = backend.label();
            let point = SolveRequest::new(&problem)
                .backend(backend)
                .deadline(Deadline::expired())
                .skip_policy(SkipPolicy::Lenient)
                .solve_point()
                .unwrap_or_else(|err| panic!("{label}: expired deadline must skip, got {err}"));
            assert!(point.is_none(), "{label}: expired deadline must skip");
        }
    }

    #[test]
    fn dropped_cus_surface_in_the_diagnostics() {
        use crate::problem::{GoalWeights, Kernel};
        // See gpa::tests: (2, 1) fits the aggregated budget but cannot be
        // bin-packed, so one CU of "a" is shed.
        let problem = AllocationProblem::builder()
            .kernels(vec![
                Kernel::new("a", 10.0, ResourceVec::bram_dsp(0.01, 0.35), 0.01).unwrap(),
                Kernel::new("b", 4.0, ResourceVec::bram_dsp(0.01, 0.25), 0.01).unwrap(),
            ])
            .platform(MultiFpgaPlatform::aws_f1_4xlarge())
            .budget(ResourceBudget::uniform(0.55))
            .weights(GoalWeights::ii_only())
            .build()
            .unwrap();
        let report = SolveRequest::new(&problem)
            .backend(Backend::gpa_fast())
            .solve()
            .unwrap();
        assert_eq!(report.diagnostics.dropped_cus, vec![1, 0]);
        assert_eq!(report.diagnostics.total_dropped_cus(), 1);
        assert_eq!(report.diagnostics.cu_counts, vec![1, 1]);
    }

    #[test]
    fn vgg_exact_quick_case_visits_fewer_nodes_with_a_hint() {
        // The ROADMAP follow-up satellite: on the VGG quick case the MINLP
        // must prune from node 0 when seeded with the GP+A solution. The
        // node cap matches the quick figure preset for Fig. 5.
        let app = paper_data::vgg_16bit();
        let problem = AllocationProblem::from_application(
            app,
            8,
            0.80,
            crate::problem::GoalWeights::ii_only(),
        )
        .unwrap();
        let hint = SolveRequest::new(&problem)
            .backend(Backend::gpa_fast())
            .solve()
            .unwrap();
        let options = ExactOptions {
            solver: mfa_minlp::SolverOptions {
                // The quick-figure preset for Fig. 5 (see
                // `mfa_explore::figures`): node-only budget, 4 nodes.
                max_nodes: 4,
                time_limit_seconds: None,
                ..mfa_minlp::SolverOptions::default()
            },
            ..ExactOptions::default()
        };
        // Cold, all four nodes are visited without finding any incumbent:
        // the point is skipped.
        let cold = SolveRequest::new(&problem)
            .backend(Backend::exact_with(options.clone()))
            .skip_policy(SkipPolicy::Lenient)
            .solve_point()
            .unwrap();
        assert!(cold.is_none(), "cold quick VGG solve found an incumbent");
        // Seeded, the incumbent prunes from node 0 and a single node serves
        // the request -- strictly fewer nodes than the cold search burned.
        let warm = SolveRequest::new(&problem)
            .backend(Backend::exact_with(options))
            .warm_start(hint.warm_start())
            .node_budget(1)
            .solve()
            .unwrap();
        assert!(warm.diagnostics.warm_start.incumbent_used);
        assert!(
            warm.diagnostics.bb_nodes < 4,
            "warm {} vs the cold search's 4 nodes",
            warm.diagnostics.bb_nodes
        );
        warm.allocation.validate(&problem, 1e-6).unwrap();
    }
}
