//! The sweep grid: cases × platforms × budgets × backends.
//!
//! The platform axis accepts both plain FPGA counts (re-parameterizing the
//! case's base platform, as in the paper's figures) and explicit
//! — possibly heterogeneous — [`HeterogeneousPlatform`] specs; the budget
//! axis accepts both the paper's uniform "resource constraint %" points and
//! full per-resource [`ResourceBudget`] points with independent
//! LUT/FF/BRAM/DSP/bandwidth fractions.

use mfa_alloc::cases::PaperCase;
use mfa_alloc::exact::ExactOptions;
use mfa_alloc::gpa::GpaOptions;
use mfa_alloc::solver::{Backend, SkipPolicy};
use mfa_alloc::AllocationProblem;
use mfa_platform::{HeterogeneousPlatform, ResourceBudget};

use crate::ExploreError;

/// One point of the grid's platform axis.
#[derive(Debug, Clone, PartialEq)]
pub enum PlatformSpec {
    /// Re-parameterize the case's base platform to `n` FPGAs of its
    /// reference device (the classic "FPGA count" axis of Figs. 3–5).
    FpgaCount(usize),
    /// Swap in an explicit platform — typically a heterogeneous fleet of
    /// device groups.
    Platform {
        /// Label used in series identifiers and exports.
        label: String,
        /// The platform each point of the series runs on.
        platform: HeterogeneousPlatform,
    },
}

impl PlatformSpec {
    /// An explicit platform point labeled by the platform's own name.
    pub fn platform(platform: HeterogeneousPlatform) -> Self {
        PlatformSpec::Platform {
            label: platform.name().to_owned(),
            platform,
        }
    }

    /// An explicit platform point with a custom label.
    pub fn platform_labeled(label: impl Into<String>, platform: HeterogeneousPlatform) -> Self {
        PlatformSpec::Platform {
            label: label.into(),
            platform,
        }
    }

    /// The label used in series identifiers and exports.
    pub fn label(&self) -> String {
        match self {
            PlatformSpec::FpgaCount(n) => format!("{n} FPGAs"),
            PlatformSpec::Platform { label, .. } => label.clone(),
        }
    }

    /// Total FPGA count of the point.
    pub fn num_fpgas(&self) -> usize {
        match self {
            PlatformSpec::FpgaCount(n) => *n,
            PlatformSpec::Platform { platform, .. } => platform.num_fpgas(),
        }
    }

    /// Applies the point to a case's base problem.
    pub(crate) fn apply(&self, base: &AllocationProblem) -> AllocationProblem {
        match self {
            PlatformSpec::FpgaCount(n) => base.with_num_fpgas(*n),
            PlatformSpec::Platform { platform, .. } => base.with_platform(platform.clone()),
        }
    }
}

/// One point of the grid's budget axis.
#[derive(Debug, Clone, PartialEq)]
pub enum BudgetSpec {
    /// The paper's uniform "resource constraint %": the fraction applies to
    /// every resource class, the bandwidth cap stays at the case's base.
    Uniform(f64),
    /// A full per-resource budget: independent LUT/FF/BRAM/DSP fractions
    /// plus a bandwidth fraction.
    PerResource(ResourceBudget),
}

impl BudgetSpec {
    /// Scalar key of the point: the uniform fraction, or the largest
    /// per-class fraction of a per-resource budget. Exports and warm-start
    /// bookkeeping use the full budget; this scalar only orders and labels
    /// points.
    pub fn scalar(&self) -> f64 {
        match self {
            BudgetSpec::Uniform(fraction) => *fraction,
            BudgetSpec::PerResource(budget) => budget.resource_fraction().max_component(),
        }
    }

    /// The full budget the point solves under, given a case's base problem
    /// (a uniform point inherits the base bandwidth cap).
    pub fn budget(&self, base: &AllocationProblem) -> ResourceBudget {
        match self {
            BudgetSpec::Uniform(fraction) => ResourceBudget::new(
                mfa_platform::ResourceVec::uniform(*fraction),
                base.budget().bandwidth_fraction(),
            ),
            BudgetSpec::PerResource(budget) => *budget,
        }
    }

    /// Applies the point to an (already platform-adjusted) problem.
    pub(crate) fn apply(&self, problem: &AllocationProblem) -> AllocationProblem {
        problem.with_budget(self.budget(problem))
    }
}

/// One application case to sweep: a label plus a base [`AllocationProblem`]
/// whose FPGA count and resource constraint the grid re-parameterizes per
/// point. Kernels, platform and goal weights come from the base problem.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseSpec {
    label: String,
    base: AllocationProblem,
}

impl CaseSpec {
    /// Creates a case from a label and a base problem.
    pub fn new(label: impl Into<String>, base: AllocationProblem) -> Self {
        CaseSpec {
            label: label.into(),
            base,
        }
    }

    /// The case label used in series identifiers and exports.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The base problem the grid re-parameterizes per point (used by the
    /// wire codec to ship cases to worker processes).
    pub fn base(&self) -> &AllocationProblem {
        &self.base
    }

    /// Builds one of the paper's three representative cases (Table 4).
    pub fn from_paper(case: PaperCase) -> Self {
        let (_, hi) = case.constraint_range();
        let base = case
            .problem(hi)
            .expect("the paper's cases are well-formed by construction");
        CaseSpec::new(case.label(), base)
    }

    /// The problem instance of one grid point on the classic axes (FPGA
    /// count × uniform constraint).
    pub fn problem(&self, num_fpgas: usize, resource_constraint: f64) -> AllocationProblem {
        self.problem_at(
            &PlatformSpec::FpgaCount(num_fpgas),
            &BudgetSpec::Uniform(resource_constraint),
        )
    }

    /// The problem instance of one grid point on the generalized axes.
    pub fn problem_at(&self, platform: &PlatformSpec, budget: &BudgetSpec) -> AllocationProblem {
        budget.apply(&platform.apply(&self.base))
    }
}

/// A solver backend on the grid's fourth axis.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverSpec {
    /// The GP+A heuristic (Sec. 3.2).
    Gpa {
        /// Label used in series identifiers and exports.
        label: String,
        /// Heuristic options.
        options: GpaOptions,
    },
    /// The exact MINLP (Eqs. 5–10).
    Exact {
        /// Label used in series identifiers and exports.
        label: String,
        /// Exact-solver options (mode, budget, symmetry breaking).
        options: ExactOptions,
    },
}

impl SolverSpec {
    /// GP+A backend with the conventional "GP+A" label.
    pub fn gpa(options: GpaOptions) -> Self {
        SolverSpec::gpa_labeled("GP+A", options)
    }

    /// GP+A backend with a custom label (e.g. one per `T` value in Fig. 2).
    pub fn gpa_labeled(label: impl Into<String>, options: GpaOptions) -> Self {
        SolverSpec::Gpa {
            label: label.into(),
            options,
        }
    }

    /// Exact backend labeled by its mode, matching the paper's figure keys:
    /// "MINLP" for `β = 0`, "MINLP+G" with spreading.
    pub fn exact(options: ExactOptions) -> Self {
        let label = options.mode.label();
        SolverSpec::exact_labeled(label, options)
    }

    /// Exact backend with a custom label.
    pub fn exact_labeled(label: impl Into<String>, options: ExactOptions) -> Self {
        SolverSpec::Exact {
            label: label.into(),
            options,
        }
    }

    /// The backend label used in series identifiers and exports.
    pub fn label(&self) -> &str {
        match self {
            SolverSpec::Gpa { label, .. } | SolverSpec::Exact { label, .. } => label,
        }
    }

    /// The [`Backend`] a point of this series is solved with.
    pub fn to_backend(&self) -> Backend {
        match self {
            SolverSpec::Gpa { options, .. } => Backend::gpa_with(options.clone()),
            SolverSpec::Exact { options, .. } => Backend::exact_with(options.clone()),
        }
    }
}

/// A declarative sweep grid. Build with [`SweepGrid::builder`]; run with
/// [`crate::run_sweep`]. Series are enumerated case-major, then platform
/// point, then backend; points within a series follow the budget axis order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepGrid {
    pub(crate) cases: Vec<CaseSpec>,
    pub(crate) platforms: Vec<PlatformSpec>,
    pub(crate) budgets: Vec<BudgetSpec>,
    pub(crate) backends: Vec<SolverSpec>,
    pub(crate) skip_policy: SkipPolicy,
    pub(crate) point_deadline_seconds: Option<f64>,
}

impl SweepGrid {
    /// Starts building a grid.
    pub fn builder() -> SweepGridBuilder {
        SweepGridBuilder::default()
    }

    /// Number of series: cases × platform points × backends.
    pub fn num_series(&self) -> usize {
        self.cases.len() * self.platforms.len() * self.backends.len()
    }

    /// Number of grid points: series × budget points.
    pub fn num_points(&self) -> usize {
        self.num_series() * self.budgets.len()
    }

    /// The budget axis.
    pub fn budgets(&self) -> &[BudgetSpec] {
        &self.budgets
    }

    /// The platform axis.
    pub fn platforms(&self) -> &[PlatformSpec] {
        &self.platforms
    }

    /// The case axis.
    pub fn cases(&self) -> &[CaseSpec] {
        &self.cases
    }

    /// The solver-backend axis.
    pub fn backends(&self) -> &[SolverSpec] {
        &self.backends
    }

    /// The skip policy every point request carries (default
    /// [`SkipPolicy::Lenient`], matching the paper's figures which simply
    /// omit unsolvable points).
    pub fn skip_policy(&self) -> SkipPolicy {
        self.skip_policy
    }

    /// The per-point wall-clock deadline in seconds, if any. Each point
    /// request gets `Deadline::within` this budget; under the lenient skip
    /// policy an exhausted deadline skips the point, under the strict policy
    /// it aborts the sweep.
    pub fn point_deadline_seconds(&self) -> Option<f64> {
        self.point_deadline_seconds
    }

    /// Decomposes a series index into (case, platform, backend) indices.
    pub(crate) fn series_key(&self, series: usize) -> (usize, usize, usize) {
        let backends = self.backends.len();
        let platforms = self.platforms.len();
        (
            series / (platforms * backends),
            (series / backends) % platforms,
            series % backends,
        )
    }
}

/// Builder for [`SweepGrid`]; every axis must end up non-empty.
#[derive(Debug, Clone, Default)]
pub struct SweepGridBuilder {
    cases: Vec<CaseSpec>,
    platforms: Vec<PlatformSpec>,
    budgets: Vec<BudgetSpec>,
    backends: Vec<SolverSpec>,
    skip_policy: SkipPolicy,
    point_deadline_seconds: Option<f64>,
}

impl SweepGridBuilder {
    /// Adds one case.
    #[must_use]
    pub fn case(mut self, case: CaseSpec) -> Self {
        self.cases.push(case);
        self
    }

    /// Adds several cases.
    #[must_use]
    pub fn cases(mut self, cases: impl IntoIterator<Item = CaseSpec>) -> Self {
        self.cases.extend(cases);
        self
    }

    /// Adds FPGA counts to the platform axis (each re-parameterizes the
    /// case's base platform, as in the paper's figures).
    #[must_use]
    pub fn fpga_counts(mut self, counts: impl IntoIterator<Item = usize>) -> Self {
        self.platforms
            .extend(counts.into_iter().map(PlatformSpec::FpgaCount));
        self
    }

    /// Adds one explicit platform point (e.g. a heterogeneous fleet).
    #[must_use]
    pub fn platform(mut self, platform: PlatformSpec) -> Self {
        self.platforms.push(platform);
        self
    }

    /// Adds several explicit platform points.
    #[must_use]
    pub fn platforms(mut self, platforms: impl IntoIterator<Item = PlatformSpec>) -> Self {
        self.platforms.extend(platforms);
        self
    }

    /// Adds uniform resource-constraint points (fractions in `(0, 1]`) to
    /// the budget axis.
    #[must_use]
    pub fn constraints(mut self, constraints: impl IntoIterator<Item = f64>) -> Self {
        self.budgets
            .extend(constraints.into_iter().map(BudgetSpec::Uniform));
        self
    }

    /// Adds one per-resource budget point (independent LUT/FF/BRAM/DSP
    /// fractions plus a bandwidth cap).
    #[must_use]
    pub fn budget(mut self, budget: ResourceBudget) -> Self {
        self.budgets.push(BudgetSpec::PerResource(budget));
        self
    }

    /// Adds several per-resource budget points.
    #[must_use]
    pub fn budgets(mut self, budgets: impl IntoIterator<Item = ResourceBudget>) -> Self {
        self.budgets
            .extend(budgets.into_iter().map(BudgetSpec::PerResource));
        self
    }

    /// Adds one solver backend.
    #[must_use]
    pub fn backend(mut self, backend: SolverSpec) -> Self {
        self.backends.push(backend);
        self
    }

    /// Adds several solver backends.
    #[must_use]
    pub fn backends(mut self, backends: impl IntoIterator<Item = SolverSpec>) -> Self {
        self.backends.extend(backends);
        self
    }

    /// Sets the skip policy every point request carries (default
    /// [`SkipPolicy::Lenient`]). Strict sweeps treat unplaceable points,
    /// exhausted node budgets and missed deadlines as errors instead of
    /// skipped points.
    #[must_use]
    pub fn skip_policy(mut self, policy: SkipPolicy) -> Self {
        self.skip_policy = policy;
        self
    }

    /// Caps each point's solve at a wall-clock budget in seconds (see
    /// [`SweepGrid::point_deadline_seconds`]).
    #[must_use]
    pub fn point_deadline_seconds(mut self, seconds: f64) -> Self {
        self.point_deadline_seconds = Some(seconds);
        self
    }

    /// Validates the axes and builds the grid.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::InvalidGrid`] when an axis is empty, an FPGA
    /// count is zero, or a uniform constraint is not a fraction in `(0, 1]`
    /// (per-resource budget points are validated by [`ResourceBudget`]'s own
    /// constructors), and [`ExploreError::InvalidOptions`] when the per-point
    /// deadline is NaN, negative, infinite, or too large for a
    /// [`std::time::Duration`].
    pub fn build(self) -> Result<SweepGrid, ExploreError> {
        if self.cases.is_empty() {
            return Err(ExploreError::InvalidGrid("no cases on the grid".into()));
        }
        if self.platforms.is_empty() {
            return Err(ExploreError::InvalidGrid(
                "no platform points (FPGA counts or platforms) on the grid".into(),
            ));
        }
        if self.budgets.is_empty() {
            return Err(ExploreError::InvalidGrid(
                "no budget points (constraints or budgets) on the grid".into(),
            ));
        }
        if self.backends.is_empty() {
            return Err(ExploreError::InvalidGrid(
                "no solver backends on the grid".into(),
            ));
        }
        if let Some(bad) = self.platforms.iter().find_map(|p| match p {
            PlatformSpec::FpgaCount(0) => Some(0usize),
            _ => None,
        }) {
            return Err(ExploreError::InvalidGrid(format!(
                "FPGA count must be at least 1, got {bad}"
            )));
        }
        if let Some(bad) = self.budgets.iter().find_map(|b| match b {
            BudgetSpec::Uniform(c) if !c.is_finite() || *c <= 0.0 || *c > 1.0 => Some(*c),
            _ => None,
        }) {
            return Err(ExploreError::InvalidGrid(format!(
                "resource constraints must be fractions in (0, 1], got {bad}"
            )));
        }
        if let Some(seconds) = self.point_deadline_seconds {
            // The executor turns this into a `Deadline` per point; NaN,
            // negative, infinite *and* Duration-overflowing (huge finite)
            // values would all panic inside `Duration::from_secs_f64` there,
            // so every one of them must die here as a typed error. The
            // deadline is an executor rider, not a grid axis, hence
            // `InvalidOptions` rather than `InvalidGrid`.
            if mfa_alloc::Deadline::within_seconds(seconds).is_err() {
                return Err(ExploreError::InvalidOptions(format!(
                    "the per-point deadline must be a non-negative number of \
                     seconds representable as a Duration, got {seconds}"
                )));
            }
        }
        Ok(SweepGrid {
            cases: self.cases,
            platforms: self.platforms,
            budgets: self.budgets,
            backends: self.backends,
            skip_policy: self.skip_policy,
            point_deadline_seconds: self.point_deadline_seconds,
        })
    }
}

/// `count` evenly spaced constraint values between `lo` and `hi` inclusive;
/// degenerate inputs surface as [`ExploreError::InvalidGrid`], never as a
/// panic.
///
/// # Errors
///
/// Returns [`ExploreError::InvalidGrid`] when `count < 2`, the bounds are not
/// finite fractions in `(0, 1]`, or `hi ≤ lo`.
pub fn constraint_grid(lo: f64, hi: f64, count: usize) -> Result<Vec<f64>, ExploreError> {
    if count < 2 {
        return Err(ExploreError::InvalidGrid(format!(
            "a constraint grid needs at least two points, got {count}"
        )));
    }
    if !(lo.is_finite() && hi.is_finite() && lo > 0.0 && hi <= 1.0) {
        return Err(ExploreError::InvalidGrid(format!(
            "constraint bounds must be finite fractions in (0, 1], got [{lo}, {hi}]"
        )));
    }
    if hi <= lo {
        return Err(ExploreError::InvalidGrid(format!(
            "constraint bounds must satisfy lo < hi, got [{lo}, {hi}]"
        )));
    }
    Ok((0..count)
        .map(|i| lo + (hi - lo) * i as f64 / (count - 1) as f64)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfa_alloc::exact::ExactMode;

    fn tiny_grid() -> SweepGrid {
        SweepGrid::builder()
            .case(CaseSpec::from_paper(PaperCase::Alex16OnTwoFpgas))
            .case(CaseSpec::from_paper(PaperCase::Alex32OnFourFpgas))
            .fpga_counts([2, 4, 8])
            .constraints([0.6, 0.7])
            .backend(SolverSpec::gpa(GpaOptions::fast()))
            .backend(SolverSpec::exact(ExactOptions::default()))
            .build()
            .unwrap()
    }

    #[test]
    fn series_enumeration_is_case_major_and_complete() {
        let grid = tiny_grid();
        assert_eq!(grid.num_series(), 2 * 3 * 2);
        assert_eq!(grid.num_points(), 2 * 3 * 2 * 2);
        assert_eq!(grid.series_key(0), (0, 0, 0));
        assert_eq!(grid.series_key(1), (0, 0, 1));
        assert_eq!(grid.series_key(2), (0, 1, 0));
        assert_eq!(grid.series_key(6), (1, 0, 0));
        assert_eq!(grid.series_key(11), (1, 2, 1));
    }

    #[test]
    fn malformed_point_deadlines_are_typed_errors() {
        // Regression: 1e19 seconds is finite and non-negative, so it used to
        // pass validation — and then panic inside `Duration::from_secs_f64`
        // when the executor built the per-point deadline. Every malformed
        // budget must be an `InvalidOptions` error at build time instead.
        for bad in [f64::NAN, -1.0, f64::INFINITY, f64::NEG_INFINITY, 1e19] {
            let result = SweepGrid::builder()
                .case(CaseSpec::from_paper(PaperCase::Alex16OnTwoFpgas))
                .fpga_counts([2])
                .constraints([0.7])
                .backend(SolverSpec::gpa(GpaOptions::fast()))
                .point_deadline_seconds(bad)
                .build();
            assert!(
                matches!(result, Err(ExploreError::InvalidOptions(_))),
                "deadline {bad} must be rejected, got {result:?}"
            );
        }
        // Zero stays valid: an already-exhausted deadline is how strict
        // sweeps probe the deadline paths deterministically.
        assert!(SweepGrid::builder()
            .case(CaseSpec::from_paper(PaperCase::Alex16OnTwoFpgas))
            .fpga_counts([2])
            .constraints([0.7])
            .backend(SolverSpec::gpa(GpaOptions::fast()))
            .point_deadline_seconds(0.0)
            .build()
            .is_ok());
    }

    #[test]
    fn backend_labels_follow_the_paper() {
        assert_eq!(SolverSpec::gpa(GpaOptions::default()).label(), "GP+A");
        assert_eq!(SolverSpec::exact(ExactOptions::default()).label(), "MINLP");
        let g = SolverSpec::exact(ExactOptions {
            mode: ExactMode::IiAndSpreading,
            ..ExactOptions::default()
        });
        assert_eq!(g.label(), "MINLP+G");
        assert_eq!(
            SolverSpec::gpa_labeled("T=5%", GpaOptions::fast()).label(),
            "T=5%"
        );
    }

    #[test]
    fn empty_axes_are_rejected() {
        let base = CaseSpec::from_paper(PaperCase::Alex16OnTwoFpgas);
        let backend = || SolverSpec::gpa(GpaOptions::fast());
        assert!(matches!(
            SweepGrid::builder()
                .fpga_counts([2])
                .constraints([0.6])
                .backend(backend())
                .build(),
            Err(ExploreError::InvalidGrid(_))
        ));
        assert!(matches!(
            SweepGrid::builder()
                .case(base.clone())
                .constraints([0.6])
                .backend(backend())
                .build(),
            Err(ExploreError::InvalidGrid(_))
        ));
        assert!(matches!(
            SweepGrid::builder()
                .case(base.clone())
                .fpga_counts([2])
                .backend(backend())
                .build(),
            Err(ExploreError::InvalidGrid(_))
        ));
        assert!(matches!(
            SweepGrid::builder()
                .case(base.clone())
                .fpga_counts([2])
                .constraints([0.6])
                .build(),
            Err(ExploreError::InvalidGrid(_))
        ));
        assert!(matches!(
            SweepGrid::builder()
                .case(base.clone())
                .fpga_counts([0])
                .constraints([0.6])
                .backend(backend())
                .build(),
            Err(ExploreError::InvalidGrid(_))
        ));
        for bad in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                SweepGrid::builder()
                    .case(base.clone())
                    .fpga_counts([2])
                    .constraints([bad])
                    .backend(backend())
                    .build(),
                Err(ExploreError::InvalidGrid(_))
            ));
        }
    }

    #[test]
    fn constraint_grid_is_inclusive_and_even() {
        let grid = constraint_grid(0.5, 0.9, 5).unwrap();
        assert_eq!(grid.len(), 5);
        for (value, expected) in grid.iter().zip([0.5, 0.6, 0.7, 0.8, 0.9]) {
            assert!((value - expected).abs() < 1e-12, "{value} vs {expected}");
        }
    }

    #[test]
    fn constraint_grid_matches_the_core_shape() {
        // Points are lo + (hi − lo)·i/(count − 1), bit for bit, as every
        // paper sweep has used; lo + i·step or a running sum would round
        // some interior points differently and move the solves' budgets.
        // The grid is Fig. 3's full axis.
        let grid = constraint_grid(0.55, 0.85, 7).unwrap();
        let expected: [f64; 7] = [
            0.55,
            0.6000000000000001,
            0.65,
            0.7,
            0.75,
            0.7999999999999999,
            0.85,
        ];
        assert_eq!(grid.len(), expected.len());
        for (value, expected) in grid.iter().zip(expected) {
            assert_eq!(
                value.to_bits(),
                expected.to_bits(),
                "{value:?} vs {expected:?}"
            );
        }
    }

    #[test]
    fn degenerate_grid_is_rejected() {
        // A single point is a typed error that says why, not a panic.
        match constraint_grid(0.5, 0.5, 1) {
            Err(ExploreError::InvalidGrid(message)) => {
                assert!(message.contains("at least two points"), "{message}");
            }
            other => panic!("expected an InvalidGrid error, got {other:?}"),
        }
    }

    #[test]
    fn degenerate_constraint_grids_error_instead_of_panicking() {
        assert!(constraint_grid(0.5, 0.5, 1).is_err());
        assert!(constraint_grid(0.5, 0.5, 5).is_err());
        assert!(constraint_grid(0.9, 0.5, 5).is_err());
        assert!(constraint_grid(0.5, 0.9, 0).is_err());
        assert!(constraint_grid(0.5, 0.9, 1).is_err());
        assert!(constraint_grid(f64::NAN, 0.9, 3).is_err());
        assert!(constraint_grid(0.5, f64::INFINITY, 3).is_err());
        assert!(constraint_grid(-0.1, 0.9, 3).is_err());
        assert!(constraint_grid(0.5, 1.1, 3).is_err());
    }

    #[test]
    fn case_spec_reparameterizes_the_base_problem() {
        let case = CaseSpec::from_paper(PaperCase::Alex16OnTwoFpgas);
        assert_eq!(case.label(), "Alex-16 on 2 FPGAs");
        let p = case.problem(4, 0.6);
        assert_eq!(p.num_fpgas(), 4);
        let q = case.problem(2, 0.8);
        assert_eq!(q.num_fpgas(), 2);
        assert_eq!(p.num_kernels(), q.num_kernels());
    }

    fn mixed_fleet() -> mfa_platform::HeterogeneousPlatform {
        use mfa_platform::{DeviceGroup, FpgaDevice, HeterogeneousPlatform};
        HeterogeneousPlatform::new(
            "2×VU9P + 2×KU115",
            vec![
                DeviceGroup::new(FpgaDevice::vu9p(), 2),
                DeviceGroup::new(FpgaDevice::ku115(), 2),
            ],
        )
    }

    #[test]
    fn platform_axis_mixes_counts_and_heterogeneous_fleets() {
        let count = PlatformSpec::FpgaCount(4);
        assert_eq!(count.label(), "4 FPGAs");
        assert_eq!(count.num_fpgas(), 4);
        let fleet = PlatformSpec::platform(mixed_fleet());
        assert_eq!(fleet.label(), "2×VU9P + 2×KU115");
        assert_eq!(fleet.num_fpgas(), 4);
        let labeled = PlatformSpec::platform_labeled("mixed", mixed_fleet());
        assert_eq!(labeled.label(), "mixed");

        let case = CaseSpec::from_paper(PaperCase::Alex16OnTwoFpgas);
        let p = case.problem_at(&fleet, &BudgetSpec::Uniform(0.7));
        assert_eq!(p.num_groups(), 2);
        assert_eq!(p.num_fpgas(), 4);
        assert!((p.budget().resource_fraction().dsp - 0.7).abs() < 1e-12);
    }

    #[test]
    fn budget_axis_mixes_uniform_and_per_resource_points() {
        use mfa_platform::{ResourceBudget, ResourceVec};
        let uniform = BudgetSpec::Uniform(0.65);
        assert_eq!(uniform.scalar(), 0.65);
        let skewed = BudgetSpec::PerResource(ResourceBudget::new(
            ResourceVec::new(0.9, 0.9, 0.5, 0.7),
            0.8,
        ));
        assert_eq!(skewed.scalar(), 0.9);

        let case = CaseSpec::from_paper(PaperCase::Alex16OnTwoFpgas);
        let p = case.problem_at(&PlatformSpec::FpgaCount(2), &skewed);
        assert!((p.budget().resource_fraction().bram - 0.5).abs() < 1e-12);
        assert!((p.budget().bandwidth_fraction() - 0.8).abs() < 1e-12);

        let grid = SweepGrid::builder()
            .case(case)
            .fpga_counts([2])
            .platform(PlatformSpec::platform(mixed_fleet()))
            .constraints([0.6, 0.7])
            .budget(ResourceBudget::new(
                ResourceVec::new(0.9, 0.9, 0.5, 0.7),
                0.8,
            ))
            .backend(SolverSpec::gpa(GpaOptions::fast()))
            .build()
            .unwrap();
        assert_eq!(grid.num_series(), 2);
        assert_eq!(grid.num_points(), 6);
        assert_eq!(grid.budgets().len(), 3);
        assert_eq!(grid.platforms().len(), 2);
    }
}
