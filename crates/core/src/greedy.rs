//! Second step of the heuristic, part two: the greedy FPGA allocator
//! (Algorithm 1 of the paper).
//!
//! Given the integer CU counts `N_k`, the allocator places CUs on FPGAs while
//! consolidating each kernel onto as few FPGAs as possible:
//!
//! 1. Kernels are sorted by *criticality* — the increase of the initiation
//!    interval caused by removing one CU, `WCET_k / (N_k (N_k − 1))`
//!    (infinite when `N_k = 1`), ties broken by larger resource demand — so
//!    that the kernels whose CUs matter most are placed first.
//! 2. Kernels whose full CU set cannot fit on one FPGA are pre-split across
//!    previously untouched FPGAs (lines 11–21 of the pseudocode).
//! 3. Every kernel then tries to place all of its remaining CUs on the most
//!    occupied FPGA that can still take them (FPGAs sorted by increasing
//!    slack); if none can, as many CUs as possible go to the least occupied
//!    FPGA (lines 23–37).
//! 4. If CUs remain unplaced, the per-FPGA capacity is relaxed by `Δ` and the
//!    placement restarts, up to a maximum relaxation of `T` (the while loop of
//!    line 9). The paper finds `T` has little effect and uses `T = 0`.
//!
//! On a heterogeneous platform every fit check rescales the kernel's per-CU
//! demand to the candidate FPGA's own device group, so the same CU costs a
//! larger share of a smaller device; the budget fractions themselves apply
//! uniformly to each FPGA's own capacity.

use mfa_platform::ResourceVec;

use crate::problem::AllocationProblem;
use crate::solution::Allocation;
use crate::AllocError;

/// Options of the greedy allocator (the paper's `T` and `Δ` parameters).
#[derive(Debug, Clone, PartialEq)]
pub struct GreedyOptions {
    /// Maximum relaxation of the per-FPGA resource constraint, as an absolute
    /// fraction added to the budget (the paper's `T`, e.g. `0.05` for 5 %).
    pub max_relaxation: f64,
    /// Relaxation step (the paper's `Δ`, default 1 %).
    pub relaxation_step: f64,
}

impl Default for GreedyOptions {
    fn default() -> Self {
        GreedyOptions {
            max_relaxation: 0.0,
            relaxation_step: 0.01,
        }
    }
}

impl GreedyOptions {
    /// Convenience constructor mirroring the paper's notation (`T`, `Δ`).
    pub fn with_t_delta(max_relaxation: f64, relaxation_step: f64) -> Self {
        GreedyOptions {
            max_relaxation,
            relaxation_step,
        }
    }
}

/// Per-FPGA free capacity during placement. `group` is the FPGA's device
/// group: per-CU demands are rescaled to it before any fit check, so a CU
/// costs a larger share of a smaller device.
#[derive(Debug, Clone, Copy)]
struct Slack {
    fpga: usize,
    group: usize,
    resources: ResourceVec,
    bandwidth: f64,
    untouched: bool,
}

impl Slack {
    /// Scalar used to order FPGAs by "how full they already are": the sum of
    /// remaining fractions over the tracked classes plus bandwidth. Any
    /// monotone aggregate works for the consolidation heuristic; this one
    /// treats all classes equally.
    fn total(&self) -> f64 {
        self.resources.lut
            + self.resources.ff
            + self.resources.bram
            + self.resources.dsp
            + self.bandwidth
    }

    fn can_take(&self, per_cu: &ResourceVec, bandwidth: f64, copies: u32) -> bool {
        let needed = *per_cu * copies as f64;
        needed.fits_within(&self.resources, 1e-9)
            && bandwidth * copies as f64 <= self.bandwidth + 1e-9
    }

    fn take(&mut self, per_cu: &ResourceVec, bandwidth: f64, copies: u32) {
        self.resources = self.resources - *per_cu * copies as f64;
        self.bandwidth -= bandwidth * copies as f64;
        if copies > 0 {
            self.untouched = false;
        }
    }

    /// Largest number of copies that still fit.
    fn max_copies(&self, per_cu: &ResourceVec, bandwidth: f64) -> u32 {
        let by_resources = per_cu.max_copies_within(&self.resources);
        let by_bandwidth = if bandwidth > 0.0 {
            Some(((self.bandwidth + 1e-12) / bandwidth).floor() as u32)
        } else {
            None
        };
        match (by_resources, by_bandwidth) {
            (Some(r), Some(b)) => r.min(b),
            (Some(r), None) => r,
            (None, Some(b)) => b,
            (None, None) => u32::MAX / 2,
        }
    }
}

/// Criticality of a kernel: the II increase caused by removing one CU.
fn criticality(problem: &AllocationProblem, k: usize, cu_count: u32) -> f64 {
    let wcet = problem.kernels()[k].wcet_ms();
    if cu_count <= 1 {
        f64::INFINITY
    } else {
        let n = cu_count as f64;
        wcet / (n * (n - 1.0))
    }
}

/// Places `cu_counts[k]` CUs of each kernel onto the problem's FPGAs.
///
/// # Errors
///
/// Returns [`AllocError::InvalidArgument`] if `cu_counts` has the wrong length
/// or contains a zero, and [`AllocError::AllocationFailed`] if CUs remain
/// unplaced even at the maximum relaxation `R + T`.
pub fn allocate(
    problem: &AllocationProblem,
    cu_counts: &[u32],
    options: &GreedyOptions,
) -> Result<Allocation, AllocError> {
    if cu_counts.len() != problem.num_kernels() {
        return Err(AllocError::InvalidArgument(format!(
            "expected {} CU counts, got {}",
            problem.num_kernels(),
            cu_counts.len()
        )));
    }
    if let Some(k) = cu_counts.iter().position(|&n| n == 0) {
        return Err(AllocError::InvalidArgument(format!(
            "kernel {} must have at least one CU",
            problem.kernels()[k].name()
        )));
    }
    // NaN steps must be rejected too, hence the negated comparison.
    let step_is_positive = options.relaxation_step > 0.0;
    if !step_is_positive || options.max_relaxation < 0.0 {
        return Err(AllocError::InvalidArgument(
            "relaxation step must be positive and the maximum relaxation nonnegative".into(),
        ));
    }

    let mut relaxation = 0.0;
    loop {
        match try_allocate(problem, cu_counts, relaxation) {
            Ok(allocation) => return Ok(allocation),
            Err(unplaced) => {
                if relaxation + 1e-12 >= options.max_relaxation {
                    return Err(AllocError::AllocationFailed { unplaced });
                }
                relaxation = (relaxation + options.relaxation_step).min(options.max_relaxation);
            }
        }
    }
}

/// One placement pass at a fixed relaxation; on failure returns the unplaced
/// CUs per kernel.
fn try_allocate(
    problem: &AllocationProblem,
    cu_counts: &[u32],
    relaxation: f64,
) -> Result<Allocation, Vec<(String, u32)>> {
    let num_kernels = problem.num_kernels();
    let num_fpgas = problem.num_fpgas();
    let num_groups = problem.num_groups();
    // Per-group placement limits: each FPGA offers its device group's scaled
    // share of the budget (plus the current relaxation, capped at the full
    // device). With all budget scales at 1 these are exactly the old uniform
    // limits.
    let capacity_on: Vec<ResourceVec> = (0..num_groups)
        .map(|g| {
            let limit = problem.group_resource_limit(g);
            ResourceVec {
                lut: (limit.lut + relaxation).min(1.0),
                ff: (limit.ff + relaxation).min(1.0),
                bram: (limit.bram + relaxation).min(1.0),
                dsp: (limit.dsp + relaxation).min(1.0),
            }
        })
        .collect();
    let bw_limit_on: Vec<f64> = (0..num_groups)
        .map(|g| problem.group_bandwidth_limit(g))
        .collect();
    // Per-CU demand of each kernel rescaled to every device group.
    let res_on: Vec<Vec<ResourceVec>> = (0..num_kernels)
        .map(|k| {
            (0..num_groups)
                .map(|g| problem.kernel_resources_on(k, g))
                .collect()
        })
        .collect();
    let bw_on: Vec<Vec<f64>> = (0..num_kernels)
        .map(|k| {
            (0..num_groups)
                .map(|g| problem.kernel_bandwidth_on(k, g))
                .collect()
        })
        .collect();
    // Does the full CU set of kernel `k` fit on one FPGA of *some* group?
    let fits_one_fpga = |k: usize, cus: u32| -> bool {
        (0..num_groups).any(|g| {
            (res_on[k][g] * cus as f64).fits_within(&capacity_on[g], 1e-9)
                && bw_on[k][g] * cus as f64 <= bw_limit_on[g] + 1e-9
        })
    };

    let mut allocation = Allocation::zeros(problem);
    let mut remaining: Vec<u32> = cu_counts.to_vec();
    let mut slacks: Vec<Slack> = (0..num_fpgas)
        .map(|f| {
            let g = problem.group_of_fpga(f);
            Slack {
                fpga: f,
                group: g,
                resources: capacity_on[g],
                bandwidth: bw_limit_on[g],
                untouched: true,
            }
        })
        .collect();

    // Kernel order: descending criticality, ties broken by larger demand.
    let mut order: Vec<usize> = (0..num_kernels).collect();
    order.sort_by(|&a, &b| {
        criticality(problem, b, cu_counts[b])
            .total_cmp(&criticality(problem, a, cu_counts[a]))
            .then_with(|| {
                problem.kernels()[b]
                    .resources()
                    .max_component()
                    .total_cmp(&problem.kernels()[a].resources().max_component())
            })
    });

    // Lines 11–21: pre-split kernels whose full CU set cannot fit on one FPGA
    // of any device group, filling previously untouched FPGAs.
    for &k in &order {
        let mut f = 0;
        while f < num_fpgas && !fits_one_fpga(k, remaining[k]) {
            if slacks[f].untouched {
                let g = slacks[f].group;
                let copies = slacks[f]
                    .max_copies(&res_on[k][g], bw_on[k][g])
                    .min(remaining[k]);
                if copies == 0 {
                    // This FPGA's device group cannot host the kernel; on a
                    // heterogeneous fleet a later FPGA may belong to a group
                    // that can, so keep scanning instead of aborting the
                    // pre-split (on identical FPGAs the scan just ends a few
                    // steps later with the same outcome).
                    f += 1;
                    continue;
                }
                slacks[f].take(&res_on[k][g], bw_on[k][g], copies);
                allocation.set_cus(
                    k,
                    slacks[f].fpga,
                    allocation.cus(k, slacks[f].fpga) + copies,
                );
                remaining[k] -= copies;
            } else {
                f += 1;
            }
        }
    }

    // Lines 22–37: consolidate the rest.
    slacks.sort_by(|a, b| a.total().total_cmp(&b.total()));
    for &k in &order {
        if remaining[k] == 0 {
            continue;
        }
        // Try to fit all remaining CUs on the most occupied FPGA that can
        // take them (slacks are sorted by increasing free capacity).
        let mut placed_all = false;
        for slack in slacks.iter_mut() {
            let g = slack.group;
            if slack.can_take(&res_on[k][g], bw_on[k][g], remaining[k]) {
                slack.take(&res_on[k][g], bw_on[k][g], remaining[k]);
                allocation.set_cus(k, slack.fpga, allocation.cus(k, slack.fpga) + remaining[k]);
                remaining[k] = 0;
                placed_all = true;
                break;
            }
        }
        if !placed_all {
            // Put as many as possible on the least occupied FPGA (line 33 of
            // the pseudocode), then keep filling the remaining FPGAs from the
            // emptiest down instead of leaving CUs unplaced — a strictly
            // stronger fallback than the paper's single attempt, which only
            // matters when the aggregate budget is almost exactly saturated.
            for slack in slacks.iter_mut().rev() {
                if remaining[k] == 0 {
                    break;
                }
                let g = slack.group;
                let copies = slack
                    .max_copies(&res_on[k][g], bw_on[k][g])
                    .min(remaining[k]);
                if copies > 0 {
                    slack.take(&res_on[k][g], bw_on[k][g], copies);
                    allocation.set_cus(k, slack.fpga, allocation.cus(k, slack.fpga) + copies);
                    remaining[k] -= copies;
                }
            }
        }
        slacks.sort_by(|a, b| a.total().total_cmp(&b.total()));
    }

    if remaining.iter().all(|&r| r == 0) {
        Ok(allocation)
    } else {
        Err(remaining
            .iter()
            .enumerate()
            .filter(|&(_, &r)| r > 0)
            .map(|(k, &r)| (problem.kernels()[k].name().to_owned(), r))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_data;
    use crate::problem::{GoalWeights, Kernel};
    use mfa_platform::{MultiFpgaPlatform, ResourceBudget};
    use proptest::prelude::*;

    fn problem(num_fpgas: usize, budget: f64, kernels: Vec<Kernel>) -> AllocationProblem {
        AllocationProblem::builder()
            .kernels(kernels)
            .platform(MultiFpgaPlatform::aws_f1_16xlarge().with_num_fpgas(num_fpgas))
            .budget(ResourceBudget::uniform(budget))
            .weights(GoalWeights::ii_only())
            .build()
            .unwrap()
    }

    fn kernel(name: &str, wcet: f64, dsp: f64, bw: f64) -> Kernel {
        Kernel::new(name, wcet, ResourceVec::bram_dsp(dsp / 2.0, dsp), bw).unwrap()
    }

    #[test]
    fn consolidates_small_pipeline_on_one_fpga() {
        let p = problem(
            4,
            0.8,
            vec![
                kernel("a", 4.0, 0.2, 0.02),
                kernel("b", 2.0, 0.1, 0.02),
                kernel("c", 1.0, 0.1, 0.02),
            ],
        );
        let allocation = allocate(&p, &[2, 1, 1], &GreedyOptions::default()).unwrap();
        allocation.validate(&p, 1e-9).unwrap();
        // Everything fits on one FPGA (2·0.2 + 0.1 + 0.1 = 0.6 ≤ 0.8).
        assert_eq!(allocation.fpgas_used(), 1);
        assert_eq!(allocation.total_cus(0), 2);
    }

    #[test]
    fn splits_kernels_that_exceed_one_fpga() {
        let p = problem(
            2,
            0.6,
            vec![
                kernel("big", 10.0, 0.25, 0.01),
                kernel("small", 1.0, 0.1, 0.01),
            ],
        );
        // 4 CUs of "big" need 1.0 DSP > 0.6 → must span both FPGAs.
        let allocation = allocate(&p, &[4, 1], &GreedyOptions::default()).unwrap();
        allocation.validate(&p, 1e-9).unwrap();
        assert_eq!(allocation.total_cus(0), 4);
        assert!(allocation.cus(0, 0) > 0 && allocation.cus(0, 1) > 0);
    }

    #[test]
    fn fails_cleanly_when_capacity_is_insufficient() {
        let p = problem(1, 0.5, vec![kernel("a", 4.0, 0.2, 0.02)]);
        let result = allocate(&p, &[4], &GreedyOptions::default());
        assert!(matches!(result, Err(AllocError::AllocationFailed { .. })));
        // With a relaxed constraint (T = 30 %) the same counts fit
        // (4 × 0.2 = 0.8 ≤ 0.5 + 0.3).
        let relaxed = allocate(&p, &[4], &GreedyOptions::with_t_delta(0.30, 0.01));
        assert!(relaxed.is_ok());
    }

    #[test]
    fn rejects_malformed_inputs() {
        let p = problem(2, 0.6, vec![kernel("a", 4.0, 0.2, 0.02)]);
        assert!(allocate(&p, &[1, 2], &GreedyOptions::default()).is_err());
        assert!(allocate(&p, &[0], &GreedyOptions::default()).is_err());
        assert!(allocate(
            &p,
            &[1],
            &GreedyOptions {
                relaxation_step: 0.0,
                max_relaxation: 0.0
            }
        )
        .is_err());
    }

    #[test]
    fn alex16_counts_place_within_budget_on_two_fpgas() {
        let app = paper_data::alexnet_16bit();
        let p =
            AllocationProblem::from_application(app, 2, 0.65, GoalWeights::new(1.0, 0.7)).unwrap();
        // Representative integer counts from the discretization step.
        let counts = vec![3, 1, 1, 2, 1, 4, 3, 2];
        let allocation = allocate(&p, &counts, &GreedyOptions::default()).unwrap();
        allocation.validate(&p, 1e-9).unwrap();
        for (k, &n) in counts.iter().enumerate() {
            assert_eq!(allocation.total_cus(k), n);
        }
        // The heuristic consolidates: no kernel is spread over more FPGAs than
        // strictly necessary (here every kernel fits on one FPGA by itself,
        // so per-kernel spreading must stay ≤ the single-FPGA value).
        for k in 0..p.num_kernels() {
            let n = allocation.total_cus(k) as f64;
            let single_fpga_spread = n / (1.0 + n);
            assert!(allocation.spreading_of(k) <= single_fpga_spread + 0.51);
        }
    }

    #[test]
    fn heterogeneous_placement_respects_each_devices_budget() {
        use mfa_platform::{DeviceGroup, FpgaDevice, HeterogeneousPlatform};
        // One VU9P and one KU115 at 60 %. Kernel "big" costs 0.25 DSP per CU
        // on the VU9P but 0.25·6840/5520 ≈ 0.31 on the KU115, so the only
        // split of three CUs is 2 on the VU9P + 1 on the KU115.
        let p = AllocationProblem::builder()
            .kernels(vec![
                Kernel::new("big", 10.0, ResourceVec::bram_dsp(0.05, 0.25), 0.01).unwrap(),
                Kernel::new("small", 1.0, ResourceVec::bram_dsp(0.02, 0.05), 0.01).unwrap(),
            ])
            .platform(HeterogeneousPlatform::new(
                "1×VU9P + 1×KU115",
                vec![
                    DeviceGroup::new(FpgaDevice::vu9p(), 1),
                    DeviceGroup::new(FpgaDevice::ku115(), 1),
                ],
            ))
            .budget(ResourceBudget::uniform(0.6))
            .weights(GoalWeights::ii_only())
            .build()
            .unwrap();
        let allocation = allocate(&p, &[3, 1], &GreedyOptions::default()).unwrap();
        allocation.validate(&p, 1e-9).unwrap();
        assert_eq!(allocation.total_cus(0), 3);
        // The KU115 (FPGA 1) can host at most one CU of "big": its rescaled
        // per-CU DSP share is 0.25·6840/5520 ≈ 0.31, and 2×0.31 > 0.6.
        assert!(allocation.cus(0, 1) <= 1);
        // Per-FPGA utilization stays within each device's own budget.
        for f in 0..2 {
            let used = allocation.fpga_resources(&p, f);
            assert!(
                used.fits_within(&ResourceVec::uniform(0.6), 1e-9),
                "FPGA {f}: {used}"
            );
        }
    }

    // Regression: the pre-split loop used to `break` on the first untouched
    // FPGA that could take zero copies — correct only when all FPGAs are
    // identical. On a fleet whose leading group cannot host the kernel, the
    // scan must advance to a hostable group's FPGAs instead of aborting the
    // whole pre-split phase.
    #[test]
    fn pre_split_skips_groups_that_cannot_host_the_kernel() {
        use mfa_platform::{DeviceGroup, FpgaDevice, HeterogeneousPlatform};
        // FPGA 0: the reference VU9P, where kernel "wide" costs 0.9 DSP per
        // CU — over the 80 % budget, so the VU9P can never host it. FPGAs
        // 1–2: a double-capacity device where the same CU costs 0.45.
        let big = FpgaDevice::new(
            "double",
            ResourceVec::new(2_364_480.0, 4_728_960.0, 4_320.0, 13_680.0),
            128.0,
        );
        let p = AllocationProblem::builder()
            .kernels(vec![
                Kernel::new("wide", 10.0, ResourceVec::bram_dsp(0.01, 0.9), 0.01).unwrap(),
                Kernel::new("tiny", 1.0, ResourceVec::bram_dsp(0.01, 0.05), 0.01).unwrap(),
            ])
            .platform(HeterogeneousPlatform::new(
                "1×VU9P + 2×double",
                vec![
                    DeviceGroup::new(FpgaDevice::vu9p(), 1),
                    DeviceGroup::new(big, 2),
                ],
            ))
            .budget(ResourceBudget::uniform(0.8))
            .weights(GoalWeights::ii_only())
            .build()
            .unwrap();
        // Two CUs of "wide" fit no single FPGA (0.9 on the big devices), so
        // the pre-split must spread them 1+1 over the big FPGAs — skipping
        // the VU9P instead of aborting there.
        let allocation = allocate(&p, &[2, 1], &GreedyOptions::default()).unwrap();
        allocation.validate(&p, 1e-9).unwrap();
        assert_eq!(allocation.cus(0, 0), 0);
        assert_eq!(allocation.cus(0, 1), 1);
        assert_eq!(allocation.cus(0, 2), 1);
        // With the pre-split done, "tiny" consolidates onto an already-used
        // big FPGA; the aborted pre-split used to leave every FPGA untouched
        // and park it on the VU9P instead.
        assert_eq!(allocation.cus(1, 0), 0);
    }

    #[test]
    fn criticality_orders_single_cu_kernels_first() {
        let p = problem(
            2,
            0.9,
            vec![kernel("one", 5.0, 0.2, 0.0), kernel("many", 50.0, 0.2, 0.0)],
        );
        assert!(criticality(&p, 0, 1).is_infinite());
        assert!(criticality(&p, 1, 10) < criticality(&p, 1, 2));
    }

    proptest! {
        /// Whatever the greedy allocator returns is feasible and places the
        /// exact requested CU counts.
        #[test]
        fn allocations_are_always_feasible(
            wcets in proptest::collection::vec(1.0..20.0f64, 2..6),
            dsp in 0.05..0.2f64,
            budget in 0.5..0.9f64,
            num_fpgas in 2usize..6
        ) {
            let kernels: Vec<Kernel> = wcets
                .iter()
                .enumerate()
                .map(|(i, &w)| kernel(&format!("k{i}"), w, dsp, 0.01))
                .collect();
            let p = problem(num_fpgas, budget, kernels);
            // Ask for a CU count that certainly fits: one per kernel plus one
            // extra for the slowest kernel.
            let mut counts = vec![1u32; p.num_kernels()];
            counts[0] += 1;
            if let Ok(allocation) = allocate(&p, &counts, &GreedyOptions::default()) {
                prop_assert!(allocation.validate(&p, 1e-9).is_ok());
                for (k, &n) in counts.iter().enumerate() {
                    prop_assert_eq!(allocation.total_cus(k), n);
                }
            }
        }
    }
}
