//! Problem formulation: kernels, platform, budgets and objective weights.

use mfa_cnn::{Application, KernelCharacterization};
use mfa_platform::{HeterogeneousPlatform, MultiFpgaPlatform, ResourceBudget, ResourceVec};

use crate::realloc::{migration_against, MigrationOutcome, ReallocationSpec};
use crate::solution::Allocation;
use crate::AllocError;

/// One pipeline kernel: the constants the optimization model needs
/// (`WCET_k`, `R_k`, `B_k` in the paper's notation).
///
/// Resource and bandwidth figures are fractions of one *reference* FPGA (the
/// device the kernel was characterized on — the first device group of a
/// heterogeneous platform). [`AllocationProblem::kernel_resources_on`]
/// rescales them for other device groups.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    name: String,
    wcet_ms: f64,
    resources: ResourceVec,
    bandwidth: f64,
}

impl Kernel {
    /// Creates a kernel description.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::InvalidArgument`] if `wcet_ms` is not strictly
    /// positive, a resource fraction is invalid or outside `[0, 1]`, or the
    /// bandwidth fraction is outside `[0, 1]`.
    pub fn new(
        name: impl Into<String>,
        wcet_ms: f64,
        resources: ResourceVec,
        bandwidth: f64,
    ) -> Result<Self, AllocError> {
        let name = name.into();
        if !(wcet_ms.is_finite() && wcet_ms > 0.0) {
            return Err(AllocError::InvalidArgument(format!(
                "kernel {name}: WCET must be positive, got {wcet_ms}"
            )));
        }
        if !resources.is_valid() || resources.max_component() > 1.0 {
            return Err(AllocError::InvalidArgument(format!(
                "kernel {name}: per-CU resources must be fractions in [0, 1]"
            )));
        }
        if !(0.0..=1.0).contains(&bandwidth) || !bandwidth.is_finite() {
            return Err(AllocError::InvalidArgument(format!(
                "kernel {name}: bandwidth must be a fraction in [0, 1], got {bandwidth}"
            )));
        }
        Ok(Kernel {
            name,
            wcet_ms,
            resources,
            bandwidth,
        })
    }

    /// Kernel name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Worst-case execution time of a single CU, in milliseconds.
    pub fn wcet_ms(&self) -> f64 {
        self.wcet_ms
    }

    /// Per-CU resources as fractions of one FPGA.
    pub fn resources(&self) -> &ResourceVec {
        &self.resources
    }

    /// Per-CU DRAM bandwidth as a fraction of one FPGA's bandwidth.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }
}

impl From<&KernelCharacterization> for Kernel {
    fn from(k: &KernelCharacterization) -> Self {
        Kernel {
            name: k.name().to_owned(),
            wcet_ms: k.wcet_ms(),
            resources: *k.resources(),
            bandwidth: k.bandwidth(),
        }
    }
}

/// The weights `α` (initiation interval) and `β` (spreading) of the goal
/// function `g = α·II + β·ϕ` (paper Eq. 5 and Table 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoalWeights {
    /// Weight of the initiation interval.
    pub alpha: f64,
    /// Weight of the spreading penalty.
    pub beta: f64,
}

impl GoalWeights {
    /// Creates a weight pair.
    ///
    /// # Panics
    ///
    /// Panics if either weight is negative or non-finite.
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(
            alpha.is_finite() && alpha >= 0.0 && beta.is_finite() && beta >= 0.0,
            "goal weights must be nonnegative and finite"
        );
        GoalWeights { alpha, beta }
    }

    /// Weights that optimize the initiation interval only (`β = 0`), the
    /// setting the paper calls plain "MINLP".
    pub fn ii_only() -> Self {
        GoalWeights::new(1.0, 0.0)
    }
}

impl Default for GoalWeights {
    fn default() -> Self {
        GoalWeights::ii_only()
    }
}

/// A complete allocation problem instance: the kernel pipeline, the platform
/// (homogeneous or a heterogeneous fleet of device groups), the per-FPGA
/// budget, the objective weights, and — for re-solves under churn — an
/// optional [`ReallocationSpec`] describing the incumbent placement and the
/// migration pricing.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocationProblem {
    kernels: Vec<Kernel>,
    platform: HeterogeneousPlatform,
    budget: ResourceBudget,
    weights: GoalWeights,
    reallocation: Option<ReallocationSpec>,
}

impl AllocationProblem {
    /// Starts building a problem.
    pub fn builder() -> AllocationProblemBuilder {
        AllocationProblemBuilder::default()
    }

    /// Convenience constructor for the common case: a characterized
    /// application on `num_fpgas` FPGAs under a uniform resource constraint.
    ///
    /// # Errors
    ///
    /// Propagates the same validation errors as the [builder](Self::builder).
    pub fn from_application(
        application: &Application,
        num_fpgas: usize,
        resource_constraint: f64,
        weights: GoalWeights,
    ) -> Result<Self, AllocError> {
        AllocationProblem::builder()
            .kernels(
                application
                    .kernels()
                    .iter()
                    .map(Kernel::from)
                    .collect::<Vec<_>>(),
            )
            .platform(MultiFpgaPlatform::aws_f1_16xlarge().with_num_fpgas(num_fpgas))
            .budget(ResourceBudget::uniform(resource_constraint))
            .weights(weights)
            .build()
    }

    /// The kernels, in pipeline order.
    pub fn kernels(&self) -> &[Kernel] {
        &self.kernels
    }

    /// Number of kernels `|K|`.
    pub fn num_kernels(&self) -> usize {
        self.kernels.len()
    }

    /// The platform.
    pub fn platform(&self) -> &HeterogeneousPlatform {
        &self.platform
    }

    /// Number of FPGAs `F` (total across device groups).
    pub fn num_fpgas(&self) -> usize {
        self.platform.num_fpgas()
    }

    /// Number of device groups `G` (1 for the paper's identical-FPGA model).
    pub fn num_groups(&self) -> usize {
        self.platform.num_groups()
    }

    /// Number of FPGAs in device group `g` (`F_g`).
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn group_count(&self, g: usize) -> usize {
        self.platform.group(g).count()
    }

    /// Device group of FPGA `f` under group-major enumeration.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range.
    pub fn group_of_fpga(&self, f: usize) -> usize {
        self.platform.group_of_fpga(f)
    }

    /// Per-CU resources of kernel `k` as fractions of group `g`'s device
    /// (the characterized fractions rescaled by the capacity ratio; a class
    /// the device lacks comes back infinite, meaning the kernel cannot be
    /// hosted there).
    ///
    /// # Panics
    ///
    /// Panics if `k` or `g` is out of range.
    pub fn kernel_resources_on(&self, k: usize, g: usize) -> ResourceVec {
        self.platform.scale_to_group(g, self.kernels[k].resources())
    }

    /// Per-CU DRAM bandwidth of kernel `k` as a fraction of group `g`'s
    /// device bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `k` or `g` is out of range.
    pub fn kernel_bandwidth_on(&self, k: usize, g: usize) -> f64 {
        self.platform
            .scale_bandwidth_to_group(g, self.kernels[k].bandwidth())
    }

    /// WCET of one CU of kernel `k` when hosted on device group `g`, in
    /// milliseconds: the characterized (reference-device) WCET inflated by
    /// the group's slowdown factor
    /// [`wcet_scale`](mfa_platform::DeviceGroup::wcet_scale).
    ///
    /// # Panics
    ///
    /// Panics if `k` or `g` is out of range.
    pub fn kernel_wcet_on(&self, k: usize, g: usize) -> f64 {
        self.kernels[k].wcet_ms() * self.platform.group(g).wcet_scale()
    }

    /// `true` when any device group carries a non-unit WCET slowdown, i.e.
    /// the scaled initiation-interval metrics differ from the
    /// reference-speed surrogate the relaxation optimizes.
    pub fn has_wcet_scaling(&self) -> bool {
        (0..self.num_groups()).any(|g| self.platform.group(g).wcet_scale() != 1.0)
    }

    /// Per-FPGA resource limit on device group `g`: the budget's resource
    /// fraction scaled by the group's
    /// [`budget_scale`](mfa_platform::DeviceGroup::budget_scale).
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn group_resource_limit(&self, g: usize) -> ResourceVec {
        *self.budget.resource_fraction() * self.platform.group(g).budget_scale()
    }

    /// Per-FPGA bandwidth limit on device group `g`: the budget's bandwidth
    /// fraction scaled by the group's
    /// [`budget_scale`](mfa_platform::DeviceGroup::budget_scale).
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn group_bandwidth_limit(&self, g: usize) -> f64 {
        self.budget.bandwidth_fraction() * self.platform.group(g).budget_scale()
    }

    /// The per-FPGA budget (resource constraint and bandwidth cap).
    pub fn budget(&self) -> &ResourceBudget {
        &self.budget
    }

    /// The reallocation spec riding on this problem, if any.
    pub fn reallocation(&self) -> Option<&ReallocationSpec> {
        self.reallocation.as_ref()
    }

    /// `true` when an *active* reallocation spec rides on the problem — a
    /// positive migration weight or a moved-CU bound. Solvers gate every
    /// behavioural change on this, so an inert spec (or none) keeps them
    /// byte-identical to the static solve.
    pub fn migration_active(&self) -> bool {
        self.reallocation
            .as_ref()
            .is_some_and(ReallocationSpec::is_active)
    }

    /// The incumbent aligned to this problem's kernel order (one per-group
    /// row per kernel, zeros for kernels the incumbent does not know), or
    /// `None` when no reallocation spec is attached.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::InvalidArgument`] when the incumbent's group
    /// count does not match the platform's.
    pub fn aligned_incumbent(&self) -> Result<Option<Vec<Vec<u32>>>, AllocError> {
        match &self.reallocation {
            Some(spec) => spec.incumbent().aligned_to(self).map(Some),
            None => Ok(None),
        }
    }

    /// Movement of per-group CU counts `groups` (`[kernel][group]`) against
    /// the attached incumbent. Zero when no spec is attached.
    pub fn migration_of_groups(&self, groups: &[Vec<u32>]) -> MigrationOutcome {
        let Some(spec) = &self.reallocation else {
            return MigrationOutcome::default();
        };
        let Ok(incumbent) = spec.incumbent().aligned_to(self) else {
            return MigrationOutcome::default();
        };
        let costs: Vec<f64> = (0..self.num_groups())
            .map(|g| spec.migration().group_cost(g))
            .collect();
        migration_against(&incumbent, &costs, groups)
    }

    /// Movement of a placed allocation against the attached incumbent
    /// (group-granular: reshuffles among an identical group's FPGAs are
    /// free). Zero when no spec is attached.
    pub fn migration_of(&self, allocation: &Allocation) -> MigrationOutcome {
        if self.reallocation.is_none() {
            return MigrationOutcome::default();
        }
        let mut groups = vec![vec![0u32; self.num_groups()]; self.num_kernels()];
        let num_fpgas = self.num_fpgas().min(allocation.num_fpgas());
        for (k, row) in groups.iter_mut().enumerate().take(allocation.num_kernels()) {
            for f in 0..num_fpgas {
                row[self.group_of_fpga(f)] += allocation.cus(k, f);
            }
        }
        self.migration_of_groups(&groups)
    }

    /// The objective weights.
    pub fn weights(&self) -> &GoalWeights {
        &self.weights
    }

    /// Returns a copy of the problem with a different uniform resource
    /// constraint (used by the constraint sweeps of Figs. 2–5).
    #[must_use]
    pub fn with_resource_constraint(&self, fraction: f64) -> Self {
        AllocationProblem {
            budget: ResourceBudget::new(
                ResourceVec::uniform(fraction),
                self.budget.bandwidth_fraction(),
            ),
            ..self.clone()
        }
    }

    /// Returns a copy of the problem under a different per-FPGA budget
    /// (used by the per-resource budget axis of design-space sweeps).
    #[must_use]
    pub fn with_budget(&self, budget: ResourceBudget) -> Self {
        AllocationProblem {
            budget,
            ..self.clone()
        }
    }

    /// Returns a copy of the problem on a different platform (used by the
    /// platform axis of design-space sweeps).
    #[must_use]
    pub fn with_platform(&self, platform: impl Into<HeterogeneousPlatform>) -> Self {
        AllocationProblem {
            platform: platform.into(),
            ..self.clone()
        }
    }

    /// Returns a copy of the problem with different objective weights.
    #[must_use]
    pub fn with_weights(&self, weights: GoalWeights) -> Self {
        AllocationProblem {
            weights,
            ..self.clone()
        }
    }

    /// Returns a copy of the problem with a different (or no) reallocation
    /// spec — `None` turns a re-solve back into a static solve.
    #[must_use]
    pub fn with_reallocation(&self, reallocation: Option<ReallocationSpec>) -> Self {
        AllocationProblem {
            reallocation,
            ..self.clone()
        }
    }

    /// Returns a copy of the problem on a different number of FPGAs.
    #[must_use]
    pub fn with_num_fpgas(&self, num_fpgas: usize) -> Self {
        AllocationProblem {
            platform: self.platform.with_num_fpgas(num_fpgas),
            ..self.clone()
        }
    }

    /// Largest number of CUs of kernel `k` that fit on a single FPGA of
    /// device group `g` under the current budget (resource classes and
    /// bandwidth combined).
    ///
    /// # Panics
    ///
    /// Panics if `k` or `g` is out of range.
    pub fn max_cus_per_fpga_in_group(&self, k: usize, g: usize) -> u32 {
        let resources = self.kernel_resources_on(k, g);
        let bandwidth = self.kernel_bandwidth_on(k, g);
        let resource_bound = resources.max_copies_within(&self.group_resource_limit(g));
        let bandwidth_bound = if bandwidth > 0.0 {
            Some((self.group_bandwidth_limit(g) / bandwidth + 1e-9).floor() as u32)
        } else {
            None
        };
        match (resource_bound, bandwidth_bound) {
            (Some(r), Some(b)) => r.min(b),
            (Some(r), None) => r,
            (None, Some(b)) => b,
            // A kernel with zero resources and zero bandwidth can be
            // replicated arbitrarily; cap it at something sane.
            (None, None) => u32::MAX / 2,
        }
    }

    /// Largest number of CUs of kernel `k` that fit on a single FPGA of the
    /// most capable device group under the current budget.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn max_cus_per_fpga(&self, k: usize) -> u32 {
        (0..self.num_groups())
            .map(|g| self.max_cus_per_fpga_in_group(k, g))
            .max()
            .expect("a platform has at least one device group")
    }

    /// Largest useful total CU count for kernel `k` across the whole platform
    /// (summed over device groups).
    pub fn max_total_cus(&self, k: usize) -> u32 {
        (0..self.num_groups()).fold(0u32, |acc, g| {
            acc.saturating_add(
                self.max_cus_per_fpga_in_group(k, g)
                    .saturating_mul(self.group_count(g) as u32),
            )
        })
    }

    /// Checks that at least one CU of every kernel can be placed somewhere.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::Infeasible`] naming the first kernel that cannot
    /// fit a single CU within the per-FPGA budget on any device group, or
    /// whose one-CU-per-kernel baseline cannot be packed onto the platform by
    /// a simple first-fit.
    pub fn validate_feasibility(&self) -> Result<(), AllocError> {
        for (k, kernel) in self.kernels.iter().enumerate() {
            if self.max_cus_per_fpga(k) == 0 {
                return Err(AllocError::Infeasible(format!(
                    "kernel {} does not fit a single CU within the per-FPGA budget",
                    kernel.name()
                )));
            }
        }
        // First-fit-decreasing packing of one CU per kernel; the per-CU
        // demand is rescaled to each FPGA's own device group.
        let mut slack: Vec<(usize, ResourceVec, f64)> = (0..self.num_fpgas())
            .map(|f| {
                let g = self.group_of_fpga(f);
                (
                    g,
                    self.group_resource_limit(g),
                    self.group_bandwidth_limit(g),
                )
            })
            .collect();
        let mut order: Vec<usize> = (0..self.kernels.len()).collect();
        order.sort_by(|&a, &b| {
            self.kernels[b]
                .resources()
                .max_component()
                .total_cmp(&self.kernels[a].resources().max_component())
        });
        for k in order {
            let kernel = &self.kernels[k];
            let placed = slack.iter_mut().find(|(g, res, bw)| {
                self.kernel_resources_on(k, *g).fits_within(res, 1e-9)
                    && self.kernel_bandwidth_on(k, *g) <= *bw + 1e-9
            });
            match placed {
                Some((g, res, bw)) => {
                    *res = *res - self.kernel_resources_on(k, *g);
                    *bw -= self.kernel_bandwidth_on(k, *g);
                }
                None => {
                    return Err(AllocError::Infeasible(format!(
                        "one CU per kernel does not fit on {} FPGAs under the budget \
                         (kernel {} could not be placed)",
                        self.num_fpgas(),
                        kernel.name()
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Builder for [`AllocationProblem`].
#[derive(Debug, Clone, Default)]
pub struct AllocationProblemBuilder {
    kernels: Vec<Kernel>,
    platform: Option<HeterogeneousPlatform>,
    budget: Option<ResourceBudget>,
    weights: Option<GoalWeights>,
    reallocation: Option<ReallocationSpec>,
}

impl AllocationProblemBuilder {
    /// Sets the kernel pipeline (replaces any previously set kernels).
    #[must_use]
    pub fn kernels(mut self, kernels: Vec<Kernel>) -> Self {
        self.kernels = kernels;
        self
    }

    /// Adds one kernel to the pipeline.
    #[must_use]
    pub fn kernel(mut self, kernel: Kernel) -> Self {
        self.kernels.push(kernel);
        self
    }

    /// Sets the platform (a [`MultiFpgaPlatform`] converts into the
    /// one-group heterogeneous form).
    #[must_use]
    pub fn platform(mut self, platform: impl Into<HeterogeneousPlatform>) -> Self {
        self.platform = Some(platform.into());
        self
    }

    /// Sets the per-FPGA budget.
    #[must_use]
    pub fn budget(mut self, budget: ResourceBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Sets the objective weights.
    #[must_use]
    pub fn weights(mut self, weights: GoalWeights) -> Self {
        self.weights = Some(weights);
        self
    }

    /// Attaches a reallocation spec (incumbent placement + migration
    /// pricing) so solvers re-solve *from* the incumbent rather than from
    /// scratch.
    #[must_use]
    pub fn reallocation(mut self, spec: ReallocationSpec) -> Self {
        self.reallocation = Some(spec);
        self
    }

    /// Builds the problem.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::InvalidArgument`] if no kernels were provided.
    /// Platform, budget and weights default to an 8-FPGA AWS F1 instance,
    /// a 100 % budget and `α = 1, β = 0`.
    pub fn build(self) -> Result<AllocationProblem, AllocError> {
        if self.kernels.is_empty() {
            return Err(AllocError::InvalidArgument(
                "an allocation problem needs at least one kernel".into(),
            ));
        }
        Ok(AllocationProblem {
            kernels: self.kernels,
            platform: self
                .platform
                .unwrap_or_else(|| MultiFpgaPlatform::aws_f1_16xlarge().into()),
            budget: self.budget.unwrap_or_default(),
            weights: self.weights.unwrap_or_default(),
            reallocation: self.reallocation,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfa_cnn::paper_data;

    fn toy_kernel(name: &str, wcet: f64, dsp: f64) -> Kernel {
        Kernel::new(name, wcet, ResourceVec::bram_dsp(0.05, dsp), 0.02).unwrap()
    }

    #[test]
    fn kernel_validation() {
        assert!(Kernel::new("k", 0.0, ResourceVec::zero(), 0.0).is_err());
        assert!(Kernel::new("k", 1.0, ResourceVec::uniform(1.5), 0.0).is_err());
        assert!(Kernel::new("k", 1.0, ResourceVec::zero(), 1.5).is_err());
        let k = toy_kernel("CONV", 2.0, 0.3);
        assert_eq!(k.name(), "CONV");
        assert_eq!(k.wcet_ms(), 2.0);
        assert_eq!(k.bandwidth(), 0.02);
    }

    #[test]
    fn builder_requires_kernels_and_applies_defaults() {
        assert!(AllocationProblem::builder().build().is_err());
        let p = AllocationProblem::builder()
            .kernel(toy_kernel("a", 1.0, 0.1))
            .build()
            .unwrap();
        assert_eq!(p.num_fpgas(), 8);
        assert_eq!(p.weights().beta, 0.0);
        assert_eq!(p.budget().resource_fraction().dsp, 1.0);
        assert_eq!(p.num_kernels(), 1);
    }

    #[test]
    fn from_application_uses_paper_data() {
        let app = paper_data::alexnet_16bit();
        let p =
            AllocationProblem::from_application(&app, 2, 0.65, GoalWeights::new(1.0, 0.7)).unwrap();
        assert_eq!(p.num_kernels(), 8);
        assert_eq!(p.num_fpgas(), 2);
        assert!((p.budget().resource_fraction().dsp - 0.65).abs() < 1e-12);
        assert!(p.validate_feasibility().is_ok());
    }

    #[test]
    fn max_cus_respects_all_constraints() {
        let p = AllocationProblem::builder()
            .kernel(Kernel::new("k", 1.0, ResourceVec::bram_dsp(0.1, 0.2), 0.3).unwrap())
            .budget(ResourceBudget::uniform(0.65))
            .platform(MultiFpgaPlatform::aws_f1_4xlarge())
            .build()
            .unwrap();
        // Resource bound: floor(0.65/0.2) = 3; bandwidth bound: floor(1/0.3) = 3.
        assert_eq!(p.max_cus_per_fpga(0), 3);
        assert_eq!(p.max_total_cus(0), 6);
    }

    #[test]
    fn infeasibility_is_detected() {
        // A kernel that needs 80 % DSP under a 60 % budget cannot fit.
        let p = AllocationProblem::builder()
            .kernel(Kernel::new("big", 1.0, ResourceVec::bram_dsp(0.1, 0.8), 0.1).unwrap())
            .budget(ResourceBudget::uniform(0.6))
            .build()
            .unwrap();
        assert!(matches!(
            p.validate_feasibility(),
            Err(AllocError::Infeasible(_))
        ));
        // Too many kernels for one FPGA at one CU each.
        let p = AllocationProblem::builder()
            .kernels(
                (0..5)
                    .map(|i| toy_kernel(&format!("k{i}"), 1.0, 0.4))
                    .collect(),
            )
            .platform(MultiFpgaPlatform::aws_f1_2xlarge())
            .budget(ResourceBudget::uniform(0.9))
            .build()
            .unwrap();
        assert!(p.validate_feasibility().is_err());
    }

    #[test]
    fn heterogeneous_problems_scale_per_group() {
        use mfa_platform::{DeviceGroup, FpgaDevice, HeterogeneousPlatform};

        let fleet = HeterogeneousPlatform::new(
            "1×VU9P + 1×KU115",
            vec![
                DeviceGroup::new(FpgaDevice::vu9p(), 1),
                DeviceGroup::new(FpgaDevice::ku115(), 1),
            ],
        );
        let p = AllocationProblem::builder()
            .kernel(Kernel::new("k", 1.0, ResourceVec::bram_dsp(0.1, 0.2), 0.3).unwrap())
            .budget(ResourceBudget::uniform(0.65))
            .platform(fleet)
            .build()
            .unwrap();
        assert_eq!(p.num_groups(), 2);
        assert_eq!(p.num_fpgas(), 2);
        assert_eq!(p.group_count(0), 1);
        assert_eq!(p.group_of_fpga(0), 0);
        assert_eq!(p.group_of_fpga(1), 1);
        // Reference group: fractions unchanged.
        assert_eq!(p.kernel_resources_on(0, 0), ResourceVec::bram_dsp(0.1, 0.2));
        assert_eq!(p.kernel_bandwidth_on(0, 0), 0.3);
        // KU115: DSP fraction inflates by 6840/5520, bandwidth by 64/38.4.
        let scaled = p.kernel_resources_on(0, 1);
        assert!((scaled.dsp - 0.2 * 6_840.0 / 5_520.0).abs() < 1e-12);
        assert!((p.kernel_bandwidth_on(0, 1) - 0.3 * 64.0 / 38.4).abs() < 1e-12);
        // Per-group CU caps: VU9P bounded by resources/bandwidth as before;
        // KU115 bounded tighter (DSP 0.2478/CU → 2, bandwidth 0.5/CU → 2).
        assert_eq!(p.max_cus_per_fpga_in_group(0, 0), 3);
        assert_eq!(p.max_cus_per_fpga_in_group(0, 1), 2);
        assert_eq!(p.max_cus_per_fpga(0), 3);
        assert_eq!(p.max_total_cus(0), 5);
        assert!(p.validate_feasibility().is_ok());
    }

    #[test]
    fn with_platform_swaps_the_fleet() {
        use mfa_platform::{DeviceGroup, FpgaDevice, HeterogeneousPlatform};

        let p = AllocationProblem::builder()
            .kernel(toy_kernel("a", 1.0, 0.1))
            .build()
            .unwrap();
        let fleet = HeterogeneousPlatform::new(
            "fleet",
            vec![
                DeviceGroup::new(FpgaDevice::vu9p(), 2),
                DeviceGroup::new(FpgaDevice::ku115(), 2),
            ],
        );
        let q = p.with_platform(fleet);
        assert_eq!(q.num_fpgas(), 4);
        assert_eq!(q.num_groups(), 2);
        // Budget axis modifier.
        let r = q.with_budget(ResourceBudget::new(
            ResourceVec::new(0.9, 0.9, 0.5, 0.7),
            0.8,
        ));
        assert_eq!(r.budget().resource_fraction().bram, 0.5);
        assert_eq!(r.budget().bandwidth_fraction(), 0.8);
        // Original untouched.
        assert_eq!(p.num_fpgas(), 8);
    }

    #[test]
    fn group_scales_shift_wcet_and_limits() {
        use mfa_platform::{DeviceGroup, FpgaDevice, HeterogeneousPlatform};

        let fleet = HeterogeneousPlatform::new(
            "scaled",
            vec![
                DeviceGroup::new(FpgaDevice::vu9p(), 1),
                DeviceGroup::new(FpgaDevice::vu9p(), 1)
                    .with_wcet_scale(1.5)
                    .with_budget_scale(0.5),
            ],
        );
        let p = AllocationProblem::builder()
            .kernel(Kernel::new("k", 2.0, ResourceVec::bram_dsp(0.1, 0.2), 0.3).unwrap())
            .budget(ResourceBudget::uniform(0.65))
            .platform(fleet)
            .build()
            .unwrap();
        assert!(p.has_wcet_scaling());
        assert_eq!(p.kernel_wcet_on(0, 0), 2.0);
        assert_eq!(p.kernel_wcet_on(0, 1), 3.0);
        // Group 1's limits halve: floor(0.325/0.2)=1 by DSP, floor(0.5/0.3)=1 by bw.
        assert!((p.group_resource_limit(1).dsp - 0.325).abs() < 1e-12);
        assert!((p.group_bandwidth_limit(1) - 0.5).abs() < 1e-12);
        assert_eq!(p.max_cus_per_fpga_in_group(0, 0), 3);
        assert_eq!(p.max_cus_per_fpga_in_group(0, 1), 1);
        // Neutral scales leave the limits bit-identical to the raw budget.
        let neutral = AllocationProblem::builder()
            .kernel(Kernel::new("k", 2.0, ResourceVec::bram_dsp(0.1, 0.2), 0.3).unwrap())
            .budget(ResourceBudget::uniform(0.65))
            .platform(MultiFpgaPlatform::aws_f1_4xlarge())
            .build()
            .unwrap();
        assert!(!neutral.has_wcet_scaling());
        assert_eq!(
            neutral.group_resource_limit(0),
            *neutral.budget().resource_fraction()
        );
        assert_eq!(
            neutral.group_bandwidth_limit(0),
            neutral.budget().bandwidth_fraction()
        );
    }

    #[test]
    fn migration_accounting_rides_on_the_problem() {
        use crate::realloc::{Incumbent, MigrationCost};
        use crate::solution::Allocation;

        let p = AllocationProblem::builder()
            .kernel(toy_kernel("a", 1.0, 0.1))
            .kernel(toy_kernel("b", 2.0, 0.1))
            .platform(MultiFpgaPlatform::aws_f1_4xlarge())
            .build()
            .unwrap();
        // No spec: everything reports zero movement.
        assert_eq!(p.migration_of_groups(&[vec![5], vec![5]]).moved_cus, 0);
        assert!(!p.migration_active());

        let inc = Incumbent::new(vec![("a".into(), vec![2]), ("b".into(), vec![1])]).unwrap();
        let spec = ReallocationSpec::new(inc, MigrationCost::new(0.5).unwrap());
        let q = p.with_reallocation(Some(spec));
        assert!(q.migration_active());
        let m = q.migration_of_groups(&[vec![3], vec![1]]);
        assert_eq!(m.moved_cus, 1);
        assert!((m.cost - 1.0).abs() < 1e-12);
        // Placed form sums FPGAs into groups first.
        let mut alloc = Allocation::zeros(&q);
        alloc.set_cus(0, 0, 2);
        alloc.set_cus(0, 1, 2);
        alloc.set_cus(1, 0, 1);
        let m = q.migration_of(&alloc);
        assert_eq!(m.moved_cus, 2);
        // Inert spec (weight 0, no bound) is not "active".
        let inert = ReallocationSpec::new(
            Incumbent::new(vec![("a".into(), vec![2])]).unwrap(),
            MigrationCost::free(),
        );
        assert!(!p.with_reallocation(Some(inert)).migration_active());
    }

    #[test]
    fn with_modifiers_return_updated_copies() {
        let app = paper_data::alexnet_32bit();
        let p = AllocationProblem::from_application(&app, 4, 0.70, GoalWeights::ii_only()).unwrap();
        let tighter = p.with_resource_constraint(0.5);
        assert!((tighter.budget().resource_fraction().bram - 0.5).abs() < 1e-12);
        let weighted = p.with_weights(GoalWeights::new(1.0, 6.0));
        assert_eq!(weighted.weights().beta, 6.0);
        let bigger = p.with_num_fpgas(8);
        assert_eq!(bigger.num_fpgas(), 8);
        // Original unchanged.
        assert_eq!(p.num_fpgas(), 4);
    }
}
