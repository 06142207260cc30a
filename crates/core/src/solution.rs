//! Allocation solutions and their derived metrics.

use mfa_platform::ResourceVec;

use crate::problem::AllocationProblem;
use crate::AllocError;

/// A complete CU allocation: `n[k][f]` compute units of kernel `k` on FPGA `f`
/// (the paper's `n_{k,f}`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    n: Vec<Vec<u32>>,
}

impl Allocation {
    /// Creates an allocation from the CU matrix `n[k][f]`.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::InvalidArgument`] if the matrix is empty or
    /// ragged.
    pub fn new(n: Vec<Vec<u32>>) -> Result<Self, AllocError> {
        if n.is_empty() || n[0].is_empty() {
            return Err(AllocError::InvalidArgument(
                "allocation matrix must be non-empty".into(),
            ));
        }
        let width = n[0].len();
        if n.iter().any(|row| row.len() != width) {
            return Err(AllocError::InvalidArgument(
                "allocation matrix rows must have equal length".into(),
            ));
        }
        Ok(Allocation { n })
    }

    /// An all-zero allocation shaped for `problem`.
    pub fn zeros(problem: &AllocationProblem) -> Self {
        Allocation {
            n: vec![vec![0; problem.num_fpgas()]; problem.num_kernels()],
        }
    }

    /// Number of kernels (rows).
    pub fn num_kernels(&self) -> usize {
        self.n.len()
    }

    /// Number of FPGAs (columns).
    pub fn num_fpgas(&self) -> usize {
        self.n[0].len()
    }

    /// CUs of kernel `k` on FPGA `f`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn cus(&self, k: usize, f: usize) -> u32 {
        self.n[k][f]
    }

    /// Sets the CUs of kernel `k` on FPGA `f`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn set_cus(&mut self, k: usize, f: usize, cus: u32) {
        self.n[k][f] = cus;
    }

    /// Total CUs of kernel `k` across all FPGAs (`N_k`).
    pub fn total_cus(&self, k: usize) -> u32 {
        self.n[k].iter().sum()
    }

    /// The underlying matrix, row per kernel.
    pub fn matrix(&self) -> &[Vec<u32>] {
        &self.n
    }

    /// Execution time of kernel `k` (`ET_k = WCET_k / N_k`), in milliseconds.
    ///
    /// On a platform with per-group WCET scaling, `N_k` is the *effective*
    /// parallelism `Σ_f n_{k,f} / s_{g(f)}`: a CU on a group slowed by
    /// `s > 1` contributes only `1/s` of a reference CU. Without scaling
    /// this reduces exactly to the plain count.
    ///
    /// Returns infinity if the kernel has no CUs.
    pub fn execution_time(&self, problem: &AllocationProblem, k: usize) -> f64 {
        if problem.has_wcet_scaling() {
            let effective: f64 = (0..self.num_fpgas().min(problem.num_fpgas()))
                .map(|f| {
                    let g = problem.group_of_fpga(f);
                    f64::from(self.n[k][f]) / problem.platform().group(g).wcet_scale()
                })
                .sum();
            if effective <= 0.0 {
                return f64::INFINITY;
            }
            return problem.kernels()[k].wcet_ms() / effective;
        }
        let total = self.total_cus(k);
        if total == 0 {
            f64::INFINITY
        } else {
            problem.kernels()[k].wcet_ms() / total as f64
        }
    }

    /// Pipeline initiation interval `II = max_k ET_k`, in milliseconds.
    pub fn initiation_interval(&self, problem: &AllocationProblem) -> f64 {
        (0..self.num_kernels())
            .map(|k| self.execution_time(problem, k))
            .fold(0.0, f64::max)
    }

    /// Pipeline throughput in items per second (`1000 / II`).
    pub fn throughput_per_second(&self, problem: &AllocationProblem) -> f64 {
        1_000.0 / self.initiation_interval(problem)
    }

    /// Spreading of kernel `k`: `ϕ_k = Σ_f n_{k,f} / (1 + n_{k,f})` (Eq. 4).
    pub fn spreading_of(&self, k: usize) -> f64 {
        self.n[k]
            .iter()
            .map(|&n| {
                let n = n as f64;
                n / (1.0 + n)
            })
            .sum()
    }

    /// Global spreading `ϕ = max_k ϕ_k` (Eq. 7 makes `ϕ` an upper bound on
    /// every kernel's spreading, and the objective drives it to the maximum).
    pub fn spreading(&self) -> f64 {
        (0..self.num_kernels())
            .map(|k| self.spreading_of(k))
            .fold(0.0, f64::max)
    }

    /// The goal function `g = α·II + β·ϕ` (Eq. 5).
    pub fn goal(&self, problem: &AllocationProblem) -> f64 {
        let w = problem.weights();
        w.alpha * self.initiation_interval(problem) + w.beta * self.spreading()
    }

    /// Resources used on FPGA `f`, as fractions of that FPGA's own device
    /// (per-CU demands are rescaled to the FPGA's device group). Kernels with
    /// zero CUs on `f` contribute nothing, even where the device cannot host
    /// them at all.
    pub fn fpga_resources(&self, problem: &AllocationProblem, f: usize) -> ResourceVec {
        let g = problem.group_of_fpga(f);
        (0..self.num_kernels())
            .filter(|&k| self.n[k][f] > 0)
            .map(|k| problem.kernel_resources_on(k, g) * self.n[k][f] as f64)
            .sum()
    }

    /// Bandwidth used on FPGA `f`, as a fraction of that FPGA's own device
    /// bandwidth.
    pub fn fpga_bandwidth(&self, problem: &AllocationProblem, f: usize) -> f64 {
        let g = problem.group_of_fpga(f);
        (0..self.num_kernels())
            .filter(|&k| self.n[k][f] > 0)
            .map(|k| problem.kernel_bandwidth_on(k, g) * self.n[k][f] as f64)
            .sum()
    }

    /// Average over FPGAs of the *critical* (largest) resource-class
    /// utilization, the quantity plotted on the x-axis of the paper's
    /// "Average Resource (%)" figures.
    pub fn average_utilization(&self, problem: &AllocationProblem) -> f64 {
        let total: f64 = (0..self.num_fpgas())
            .map(|f| self.fpga_resources(problem, f).max_component())
            .sum();
        total / self.num_fpgas() as f64
    }

    /// Number of FPGAs that host at least one CU.
    pub fn fpgas_used(&self) -> usize {
        (0..self.num_fpgas())
            .filter(|&f| (0..self.num_kernels()).any(|k| self.n[k][f] > 0))
            .count()
    }

    /// Checks that the allocation respects the problem: at least one CU per
    /// kernel and every per-FPGA budget satisfied (within `tol`).
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::InvalidArgument`] if the matrix shape does not
    /// match the problem, and [`AllocError::Infeasible`] describing the first
    /// violated condition otherwise.
    pub fn validate(&self, problem: &AllocationProblem, tol: f64) -> Result<(), AllocError> {
        if self.num_kernels() != problem.num_kernels() || self.num_fpgas() != problem.num_fpgas() {
            return Err(AllocError::InvalidArgument(format!(
                "allocation is {}×{} but the problem is {}×{}",
                self.num_kernels(),
                self.num_fpgas(),
                problem.num_kernels(),
                problem.num_fpgas()
            )));
        }
        for k in 0..self.num_kernels() {
            if self.total_cus(k) == 0 {
                return Err(AllocError::Infeasible(format!(
                    "kernel {} has no CUs",
                    problem.kernels()[k].name()
                )));
            }
        }
        for f in 0..self.num_fpgas() {
            let g = problem.group_of_fpga(f);
            let used = self.fpga_resources(problem, f);
            if !used.fits_within(&problem.group_resource_limit(g), tol) {
                return Err(AllocError::Infeasible(format!(
                    "FPGA {f} exceeds the resource budget ({used})"
                )));
            }
            let bw = self.fpga_bandwidth(problem, f);
            if bw > problem.group_bandwidth_limit(g) + tol {
                return Err(AllocError::Infeasible(format!(
                    "FPGA {f} exceeds the bandwidth budget ({bw:.3})"
                )));
            }
        }
        Ok(())
    }

    /// Summarizes the allocation into an [`AllocationMetrics`] record.
    pub fn metrics(&self, problem: &AllocationProblem) -> AllocationMetrics {
        AllocationMetrics {
            initiation_interval_ms: self.initiation_interval(problem),
            spreading: self.spreading(),
            goal: self.goal(problem),
            average_utilization: self.average_utilization(problem),
            fpgas_used: self.fpgas_used(),
            total_cus: (0..self.num_kernels()).map(|k| self.total_cus(k)).sum(),
        }
    }
}

/// Summary metrics of an allocation (the quantities reported in the paper's
/// figures).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllocationMetrics {
    /// Initiation interval in milliseconds.
    pub initiation_interval_ms: f64,
    /// Global spreading `ϕ`.
    pub spreading: f64,
    /// Goal value `α·II + β·ϕ`.
    pub goal: f64,
    /// Average per-FPGA utilization of the critical resource.
    pub average_utilization: f64,
    /// FPGAs hosting at least one CU.
    pub fpgas_used: usize,
    /// Total CU count across kernels.
    pub total_cus: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{GoalWeights, Kernel};
    use mfa_platform::{MultiFpgaPlatform, ResourceBudget, ResourceVec};

    fn problem() -> AllocationProblem {
        AllocationProblem::builder()
            .kernels(vec![
                Kernel::new("a", 8.0, ResourceVec::bram_dsp(0.05, 0.20), 0.04).unwrap(),
                Kernel::new("b", 4.0, ResourceVec::bram_dsp(0.10, 0.10), 0.02).unwrap(),
            ])
            .platform(MultiFpgaPlatform::aws_f1_4xlarge())
            .budget(ResourceBudget::uniform(0.70))
            .weights(GoalWeights::new(1.0, 0.5))
            .build()
            .unwrap()
    }

    #[test]
    fn construction_validates_shape() {
        assert!(Allocation::new(vec![]).is_err());
        assert!(Allocation::new(vec![vec![1], vec![1, 2]]).is_err());
        let a = Allocation::new(vec![vec![1, 2], vec![0, 1]]).unwrap();
        assert_eq!(a.num_kernels(), 2);
        assert_eq!(a.num_fpgas(), 2);
        assert_eq!(a.cus(0, 1), 2);
        assert_eq!(a.total_cus(0), 3);
        assert_eq!(a.matrix()[1], vec![0, 1]);
    }

    #[test]
    fn metrics_match_hand_computation() {
        let p = problem();
        // Kernel a: 2 CUs on FPGA0, 1 on FPGA1 → N=3, ET = 8/3.
        // Kernel b: 1 CU on FPGA0 → N=1, ET = 4.
        let mut a = Allocation::zeros(&p);
        a.set_cus(0, 0, 2);
        a.set_cus(0, 1, 1);
        a.set_cus(1, 0, 1);
        assert!((a.execution_time(&p, 0) - 8.0 / 3.0).abs() < 1e-12);
        assert!((a.initiation_interval(&p) - 4.0).abs() < 1e-12);
        assert!((a.throughput_per_second(&p) - 250.0).abs() < 1e-9);
        // Spreading: kernel a: 2/3 + 1/2 = 7/6; kernel b: 1/2. Global = 7/6.
        assert!((a.spreading_of(0) - 7.0 / 6.0).abs() < 1e-12);
        assert!((a.spreading() - 7.0 / 6.0).abs() < 1e-12);
        assert!((a.goal(&p) - (4.0 + 0.5 * 7.0 / 6.0)).abs() < 1e-12);
        // FPGA 0 resources: 2×(0.05,0.20) + 1×(0.10,0.10) = (0.20, 0.50).
        let r0 = a.fpga_resources(&p, 0);
        assert!((r0.dsp - 0.5).abs() < 1e-12);
        assert!((r0.bram - 0.2).abs() < 1e-12);
        assert!((a.fpga_bandwidth(&p, 0) - 0.10).abs() < 1e-12);
        assert_eq!(a.fpgas_used(), 2);
        // Average utilization over the 2 FPGAs: max components 0.5 and 0.2.
        assert!((a.average_utilization(&p) - 0.35).abs() < 1e-12);
        let m = a.metrics(&p);
        assert_eq!(m.total_cus, 4);
        assert_eq!(m.fpgas_used, 2);
    }

    #[test]
    fn validation_catches_problems() {
        let p = problem();
        let mut a = Allocation::zeros(&p);
        // Kernel b has no CUs.
        a.set_cus(0, 0, 1);
        assert!(matches!(
            a.validate(&p, 1e-9),
            Err(AllocError::Infeasible(_))
        ));
        // Too many CUs on one FPGA exceeds DSP budget (4 × 0.20 = 0.8 > 0.7).
        a.set_cus(1, 1, 1);
        a.set_cus(0, 0, 4);
        assert!(a.validate(&p, 1e-9).is_err());
        // A correct allocation validates.
        a.set_cus(0, 0, 2);
        assert!(a.validate(&p, 1e-9).is_ok());
        // Shape mismatch is reported as invalid argument.
        let wrong = Allocation::new(vec![vec![1, 1]]).unwrap();
        assert!(matches!(
            wrong.validate(&p, 1e-9),
            Err(AllocError::InvalidArgument(_))
        ));
    }

    #[test]
    fn wcet_scaling_discounts_slow_group_cus() {
        use mfa_platform::{DeviceGroup, FpgaDevice, HeterogeneousPlatform};
        let p = AllocationProblem::builder()
            .kernels(vec![Kernel::new(
                "a",
                6.0,
                ResourceVec::bram_dsp(0.05, 0.1),
                0.01,
            )
            .unwrap()])
            .platform(HeterogeneousPlatform::new(
                "fast+slow",
                vec![
                    DeviceGroup::new(FpgaDevice::vu9p(), 1),
                    DeviceGroup::new(FpgaDevice::vu9p(), 1).with_wcet_scale(2.0),
                ],
            ))
            .budget(ResourceBudget::uniform(0.7))
            .build()
            .unwrap();
        let mut a = Allocation::zeros(&p);
        a.set_cus(0, 0, 1);
        a.set_cus(0, 1, 1);
        // Effective parallelism 1 + 1/2 = 1.5 → ET = 6 / 1.5 = 4 ms, slower
        // than two reference CUs (3 ms) but faster than one (6 ms).
        assert!((a.execution_time(&p, 0) - 4.0).abs() < 1e-12);
        assert!((a.initiation_interval(&p) - 4.0).abs() < 1e-12);
        // A CU on the slow group alone runs at the scaled WCET.
        let mut slow = Allocation::zeros(&p);
        slow.set_cus(0, 1, 1);
        assert!((slow.execution_time(&p, 0) - 12.0).abs() < 1e-12);
    }

    #[test]
    fn execution_time_of_unallocated_kernel_is_infinite() {
        let p = problem();
        let a = Allocation::zeros(&p);
        assert!(a.execution_time(&p, 0).is_infinite());
        assert!(a.initiation_interval(&p).is_infinite());
    }
}
