//! Second step of the heuristic, part one: discretizing the fractional CU
//! counts `N̂_k` into integers `N_k` with a small branch-and-bound
//! (Sec. 3.2.2 of the paper).
//!
//! Two subproblems are generated per fractional variable — `N_k ≤ ⌊N̂_k⌋` and
//! `N_k ≥ ⌈N̂_k⌉` — and the search is pruned whenever a subproblem's relaxed
//! `ÎI` is no better than the best integer solution found so far. Node
//! relaxations reuse the bounded relaxation in [`crate::gp_step`]; the fast
//! bisection backend is the default engine (the GP backend gives identical
//! results and is exercised in tests).

use crate::gp_step::{self, RelaxationBackend};
use crate::problem::AllocationProblem;
use crate::realloc::ReallocContext;
use crate::solver::{check_deadline, Deadline};
use crate::AllocError;

/// Options for the discretization search.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscretizeOptions {
    /// Relaxation engine used at every node.
    pub backend: RelaxationBackend,
    /// Tolerance within which a fractional count is taken as integral.
    pub integer_tolerance: f64,
    /// Safety cap on explored nodes (the tree is tiny in practice because
    /// only kernels with fractional counts are branched on).
    pub max_nodes: usize,
}

impl Default for DiscretizeOptions {
    fn default() -> Self {
        DiscretizeOptions {
            backend: RelaxationBackend::Bisection,
            integer_tolerance: 1e-6,
            max_nodes: 20_000,
        }
    }
}

/// Result of the discretization.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteCounts {
    /// Integer CU count `N_k` per kernel.
    pub cu_counts: Vec<u32>,
    /// Integer per-group CU counts `N_{k,g}`, kernel-major
    /// (`group_cu_counts[k][g]`), obtained by largest-remainder rounding of
    /// the winning node's fractional group water-filling so each row sums to
    /// `cu_counts[k]`. On a single-group platform every row is `[N_k]`. The
    /// split is advisory — the greedy allocator performs the real per-FPGA
    /// placement — but seeds reporting and placement heuristics.
    pub group_cu_counts: Vec<Vec<u32>>,
    /// Initiation interval implied by the integer counts, in milliseconds.
    pub initiation_interval_ms: f64,
    /// Branch-and-bound nodes explored.
    pub nodes_explored: usize,
}

/// Discretizes the relaxed counts for `problem` cold. Warm-started
/// (incumbent-seeded) discretization goes through
/// [`crate::solver::SolveRequest`], which plumbs the request's counts hint
/// into the seeded branch-and-bound below.
///
/// # Errors
///
/// Propagates relaxation errors; returns [`AllocError::Infeasible`] if no
/// integer assignment satisfies the aggregated budgets.
pub fn solve(
    problem: &AllocationProblem,
    options: &DiscretizeOptions,
) -> Result<DiscreteCounts, AllocError> {
    solve_seeded_inner(problem, options, None, None, None).map(|(counts, _)| counts)
}

/// [`solve`] with an optional incumbent seeding the branch-and-bound, an
/// optional [`Deadline`] checked at every node, and an optional node budget
/// combined with [`DiscretizeOptions::max_nodes`] by minimum. Returns the
/// counts plus whether the incumbent was accepted.
///
/// A valid incumbent (right length, every count ≥ 1, within the per-kernel
/// caps and the aggregated budgets) becomes the initial best solution, so
/// subtrees that cannot beat it are pruned immediately; an invalid one is
/// silently ignored. Seeding never changes the optimal `II` — only how much
/// of the tree is explored to prove it. Since `best` is replaced only on
/// strict improvement, the incumbent wins II ties: a seeded search may
/// return the incumbent's counts where an unseeded one would find another
/// equally-optimal vector.
///
/// # Errors
///
/// Same contract as [`solve`], plus [`AllocError::DeadlineExceeded`] when
/// the deadline expires mid-search.
pub(crate) fn solve_seeded_inner(
    problem: &AllocationProblem,
    options: &DiscretizeOptions,
    incumbent: Option<&[u32]>,
    deadline: Option<&Deadline>,
    node_budget: Option<usize>,
) -> Result<(DiscreteCounts, bool), AllocError> {
    let root_bounds: Vec<(f64, f64)> = (0..problem.num_kernels())
        .map(|k| (1.0, problem.max_total_cus(k).max(1) as f64))
        .collect();
    let max_nodes = node_budget.map_or(options.max_nodes, |cap| cap.min(options.max_nodes));
    let realloc = ReallocContext::from_problem(problem)?;

    // `best` carries (counts, group split, II, penalized score). Without an
    // active reallocation spec the score equals the II and the search is
    // byte-identical to the static one.
    type BestNode = (Vec<u32>, Vec<Vec<u32>>, f64, f64);
    let mut best: Option<BestNode> = None;
    // Seed 1: the reallocation incumbent itself — zero movement by
    // construction, so its score is exactly its II.
    if let Some(ctx) = &realloc {
        let totals = ctx.inc_totals.clone();
        if incumbent_is_valid(problem, &totals) {
            let ii = implied_ii(problem, &totals);
            best = Some((totals, ctx.inc_groups.clone(), ii, ii));
        }
    }
    // Seed 2: the warm-start counts hint, kept only if it beats seed 1.
    let mut incumbent_used = false;
    if let Some(counts) = incumbent.filter(|counts| incumbent_is_valid(problem, counts)) {
        let groups = group_split_for(problem, counts, realloc.as_ref());
        let ii = implied_ii(problem, counts);
        let score = ii
            + realloc
                .as_ref()
                .map_or(0.0, |ctx| ctx.penalty_of_groups(&groups));
        let within_bound = !realloc
            .as_ref()
            .is_some_and(|ctx| ctx.exceeds_bound(&groups));
        if within_bound {
            incumbent_used = true;
            if best.as_ref().map_or(true, |(_, _, _, b)| score < *b) {
                best = Some((counts.to_vec(), groups, ii, score));
            }
        }
    }
    let mut nodes = 0usize;
    let mut stack = vec![root_bounds];

    while let Some(bounds) = stack.pop() {
        if nodes >= max_nodes {
            break;
        }
        check_deadline(deadline, "discretization")?;
        nodes += 1;
        let relaxation =
            match gp_step::relax_bounded_hinted(problem, &bounds, options.backend, None, None) {
                Ok((r, _)) => r,
                Err(AllocError::Infeasible(_)) => continue,
                Err(other) => return Err(other),
            };
        if let Some((_, _, _, best_score)) = &best {
            // Prune: the relaxed II is a lower bound on any integer solution
            // in this subtree, and the migration penalty is non-negative, so
            // it also lower-bounds the penalized score. A small relative
            // margin keeps the pruning sound when the GP backend returns its
            // optimum only to solver tolerance.
            if relaxation.initiation_interval_ms >= *best_score * (1.0 + 1e-7) - 1e-12 {
                continue;
            }
        }
        // Find the most fractional count.
        let fractional = relaxation
            .cu_counts
            .iter()
            .enumerate()
            .filter_map(|(k, &n)| {
                let frac = (n - n.round()).abs();
                if frac > options.integer_tolerance {
                    Some((k, n, (n - n.floor() - 0.5).abs()))
                } else {
                    None
                }
            })
            .min_by(|a, b| a.2.total_cmp(&b.2));

        match fractional {
            None => {
                // Integral: the exact II of the rounded counts, with the
                // node's fractional group water-filling rounded per group —
                // breaking remainder ties toward the incumbent when a
                // reallocation spec is active, so rounding never invents
                // movement the fractional split did not have.
                let counts: Vec<u32> = relaxation
                    .cu_counts
                    .iter()
                    .map(|&n| n.round().max(1.0) as u32)
                    .collect();
                let ii = implied_ii(problem, &counts);
                let groups: Vec<Vec<u32>> = counts
                    .iter()
                    .enumerate()
                    .map(|(k, &total)| {
                        let fracs = &relaxation.group_cu_counts[k];
                        match &realloc {
                            Some(ctx) => round_group_split_toward(fracs, total, &ctx.inc_groups[k]),
                            None => round_group_split(fracs, total),
                        }
                    })
                    .collect();
                let score = ii
                    + realloc
                        .as_ref()
                        .map_or(0.0, |ctx| ctx.penalty_of_groups(&groups));
                let within_bound = !realloc
                    .as_ref()
                    .is_some_and(|ctx| ctx.exceeds_bound(&groups));
                if within_bound && best.as_ref().map_or(true, |(_, _, _, b)| score < *b) {
                    best = Some((counts, groups, ii, score));
                }
            }
            Some((k, value, _)) => {
                let (lo, hi) = bounds[k];
                let mut left = bounds.clone();
                left[k] = (lo, value.floor());
                let mut right = bounds.clone();
                right[k] = (value.ceil(), hi);
                if left[k].0 <= left[k].1 {
                    stack.push(left);
                }
                if right[k].0 <= right[k].1 {
                    stack.push(right);
                }
            }
        }
    }

    match best {
        Some((cu_counts, group_cu_counts, initiation_interval_ms, _)) => Ok((
            DiscreteCounts {
                cu_counts,
                group_cu_counts,
                initiation_interval_ms,
                nodes_explored: nodes,
            },
            incumbent_used,
        )),
        None => Err(AllocError::Infeasible(
            "no integer CU assignment satisfies the aggregated budgets".into(),
        )),
    }
}

/// Largest-remainder rounding of one kernel's fractional group split so the
/// integers sum exactly to `total`. Ties go to the lower group index, keeping
/// the rounding deterministic.
fn round_group_split(fracs: &[f64], total: u32) -> Vec<u32> {
    let mut counts: Vec<u32> = fracs.iter().map(|&x| x.max(0.0).floor() as u32).collect();
    let mut assigned: u64 = counts.iter().map(|&c| u64::from(c)).sum();
    // Float drift can leave the floors above the target; shave the largest.
    while assigned > u64::from(total) {
        let g = counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| c)
            .map(|(g, _)| g)
            .expect("a split has at least one group");
        counts[g] -= 1;
        assigned -= 1;
    }
    let mut remainders: Vec<(usize, f64)> = fracs
        .iter()
        .enumerate()
        .map(|(g, &x)| (g, x.max(0.0) - x.max(0.0).floor()))
        .collect();
    remainders.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let mut leftover = u64::from(total) - assigned;
    'distribute: while leftover > 0 {
        for (g, _) in &remainders {
            counts[*g] += 1;
            leftover -= 1;
            if leftover == 0 {
                break 'distribute;
            }
        }
    }
    counts
}

/// [`round_group_split`] that breaks remainder (and shaving) ties toward the
/// incumbent row: among groups with equal claim, ones still below their
/// incumbent count receive leftover CUs first and surrender excess CUs last.
/// With identical fractional input this never moves more CUs than the
/// incumbent-agnostic rounding (property-tested below), and with no ties it
/// produces byte-identical output.
pub(crate) fn round_group_split_toward(fracs: &[f64], total: u32, inc: &[u32]) -> Vec<u32> {
    let mut counts: Vec<u32> = fracs.iter().map(|&x| x.max(0.0).floor() as u32).collect();
    let mut assigned: u64 = counts.iter().map(|&c| u64::from(c)).sum();
    // Float drift above the target: shave the largest group, preferring —
    // among equally large ones — a group already above its incumbent count
    // (shaving there reduces movement).
    while assigned > u64::from(total) {
        let g = counts
            .iter()
            .enumerate()
            .max_by(|&(ga, &ca), &(gb, &cb)| {
                let surplus_a = ca > inc.get(ga).copied().unwrap_or(0);
                let surplus_b = cb > inc.get(gb).copied().unwrap_or(0);
                ca.cmp(&cb)
                    .then(surplus_a.cmp(&surplus_b))
                    .then(gb.cmp(&ga))
            })
            .map(|(g, _)| g)
            .expect("a split has at least one group");
        counts[g] -= 1;
        assigned -= 1;
    }
    let mut remainders: Vec<(usize, f64)> = fracs
        .iter()
        .enumerate()
        .map(|(g, &x)| (g, x.max(0.0) - x.max(0.0).floor()))
        .collect();
    remainders.sort_by(|a, b| {
        let deficit =
            |&(g, _): &(usize, f64)| u32::from(counts[g] < inc.get(g).copied().unwrap_or(0));
        b.1.total_cmp(&a.1)
            .then_with(|| deficit(b).cmp(&deficit(a)))
            .then_with(|| a.0.cmp(&b.0))
    });
    let mut leftover = u64::from(total) - assigned;
    'distribute: while leftover > 0 {
        for (g, _) in &remainders {
            counts[*g] += 1;
            leftover -= 1;
            if leftover == 0 {
                break 'distribute;
            }
        }
    }
    counts
}

/// Group split for a warm-start incumbent: water-fill the integer totals
/// fractionally across groups, then round per group (toward the reallocation
/// incumbent when one is active).
fn group_split_for(
    problem: &AllocationProblem,
    counts: &[u32],
    realloc: Option<&ReallocContext>,
) -> Vec<Vec<u32>> {
    let totals: Vec<f64> = counts.iter().map(|&n| f64::from(n)).collect();
    let fractional = gp_step::distribute_over_groups(problem, &totals, &mut 0)
        .expect("the incumbent water-filling LP stays within its pivot budget")
        .expect("a valid incumbent passed the aggregated budget check");
    counts
        .iter()
        .enumerate()
        .zip(&fractional)
        .map(|((k, &total), fracs)| match realloc {
            Some(ctx) => round_group_split_toward(fracs, total, &ctx.inc_groups[k]),
            None => round_group_split(fracs, total),
        })
        .collect()
}

/// A warm-start incumbent is usable only if it is itself a feasible point of
/// the aggregated problem: right length, at least one CU everywhere, within
/// the per-kernel caps and the platform-wide budgets.
fn incumbent_is_valid(problem: &AllocationProblem, counts: &[u32]) -> bool {
    counts.len() == problem.num_kernels()
        && counts
            .iter()
            .enumerate()
            .all(|(k, &n)| n >= 1 && n <= problem.max_total_cus(k).max(1))
        // A pivot-budget failure counts as "not usable" rather than an error:
        // the solve then simply proceeds without the incumbent.
        && gp_step::budgets_allow(
            problem,
            &counts.iter().map(|&n| n as f64).collect::<Vec<_>>(),
            &mut 0,
        )
        .unwrap_or(false)
}

/// `max_k WCET_k / N_k` for integer counts.
fn implied_ii(problem: &AllocationProblem, counts: &[u32]) -> f64 {
    problem
        .kernels()
        .iter()
        .zip(counts)
        .map(|(kernel, &n)| kernel.wcet_ms() / n.max(1) as f64)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{GoalWeights, Kernel};
    use mfa_cnn::paper_data;
    use mfa_platform::{MultiFpgaPlatform, ResourceBudget, ResourceVec};
    use proptest::prelude::*;

    fn toy_problem(budget: f64) -> AllocationProblem {
        AllocationProblem::builder()
            .kernels(vec![
                Kernel::new("a", 3.0, ResourceVec::bram_dsp(0.01, 0.2), 0.01).unwrap(),
                Kernel::new("b", 5.0, ResourceVec::bram_dsp(0.01, 0.3), 0.01).unwrap(),
            ])
            // Two FPGAs (f1.4xlarge), so the aggregated DSP budget is 2·budget.
            .platform(MultiFpgaPlatform::aws_f1_4xlarge())
            .budget(ResourceBudget::uniform(budget))
            .weights(GoalWeights::ii_only())
            .build()
            .unwrap()
    }

    #[test]
    fn integer_counts_beat_naive_rounding_down() {
        // Continuous optimum (budget 1.0): N_a = 1.43, N_b = 2.38, II = 2.1.
        // Best integer point under 0.2·N_a + 0.3·N_b ≤ 2 (two FPGAs):
        // enumerate: (2,4): 0.4+1.2=1.6 ok → II = max(1.5, 1.25) = 1.5;
        // (3,4): 0.6+1.2=1.8 ok → II = max(1.0,1.25) = 1.25;
        // (3,5): 0.6+1.5=2.1 > 2 no; (4,4): 0.8+1.2=2.0 ok → II = 1.25;
        // (4,5): 2.3 no. So optimum II = 1.25.
        let p = toy_problem(1.0);
        let d = solve(&p, &DiscretizeOptions::default()).unwrap();
        assert!(
            (d.initiation_interval_ms - 1.25).abs() < 1e-9,
            "II = {}",
            d.initiation_interval_ms
        );
        assert!(d.nodes_explored >= 1);
    }

    #[test]
    fn gp_and_bisection_backends_agree() {
        let p = toy_problem(0.8);
        let bis = solve(&p, &DiscretizeOptions::default()).unwrap();
        let gp = solve(
            &p,
            &DiscretizeOptions {
                backend: RelaxationBackend::GeometricProgram,
                ..DiscretizeOptions::default()
            },
        )
        .unwrap();
        // The GP backend solves each node only to interior-point tolerance, so
        // allow a small relative slack when comparing against bisection.
        let tol = 1e-4 * bis.initiation_interval_ms;
        assert!(
            (bis.initiation_interval_ms - gp.initiation_interval_ms).abs() < tol,
            "bisection {} vs GP {}",
            bis.initiation_interval_ms,
            gp.initiation_interval_ms
        );
    }

    #[test]
    fn every_kernel_keeps_at_least_one_cu() {
        let app = paper_data::alexnet_16bit();
        let p = AllocationProblem::from_application(&app, 2, 0.60, GoalWeights::ii_only()).unwrap();
        let d = solve(&p, &DiscretizeOptions::default()).unwrap();
        assert_eq!(d.cu_counts.len(), 8);
        assert!(d.cu_counts.iter().all(|&n| n >= 1));
        // Discretized II can only be ≥ the continuous relaxation.
        let relaxed = gp_step::solve(&p, RelaxationBackend::Bisection).unwrap();
        assert!(d.initiation_interval_ms >= relaxed.initiation_interval_ms - 1e-9);
    }

    #[test]
    fn seeding_preserves_the_optimum_and_never_explores_more() {
        let p = toy_problem(1.0);
        let cold = solve(&p, &DiscretizeOptions::default()).unwrap();
        let (warm, used) = solve_seeded_inner(
            &p,
            &DiscretizeOptions::default(),
            Some(&cold.cu_counts),
            None,
            None,
        )
        .unwrap();
        assert!(used);
        assert!(
            (warm.initiation_interval_ms - cold.initiation_interval_ms).abs() < 1e-9,
            "warm {} vs cold {}",
            warm.initiation_interval_ms,
            cold.initiation_interval_ms
        );
        assert!(warm.nodes_explored <= cold.nodes_explored);
    }

    #[test]
    fn invalid_incumbents_are_ignored() {
        let p = toy_problem(1.0);
        let cold = solve(&p, &DiscretizeOptions::default()).unwrap();
        for bad in [vec![0u32, 4], vec![200, 200], vec![1u32]] {
            let (seeded, used) =
                solve_seeded_inner(&p, &DiscretizeOptions::default(), Some(&bad), None, None)
                    .unwrap();
            assert!(!used);
            assert!((seeded.initiation_interval_ms - cold.initiation_interval_ms).abs() < 1e-9);
        }
    }

    #[test]
    fn round_group_split_is_exact_and_deterministic() {
        assert_eq!(round_group_split(&[2.6, 1.4], 4), vec![3, 1]);
        assert_eq!(round_group_split(&[1.5, 1.5], 3), vec![2, 1]); // tie → lower index
        assert_eq!(round_group_split(&[3.0], 3), vec![3]);
        assert_eq!(round_group_split(&[0.0, 5.0], 5), vec![0, 5]);
        // Float drift above the target is shaved from the largest group.
        assert_eq!(round_group_split(&[3.000000001, 1.0], 4), vec![3, 1]);
        let split = round_group_split(&[2.2, 1.9, 0.9], 5);
        assert_eq!(split.iter().sum::<u32>(), 5);
    }

    #[test]
    fn toward_rounding_breaks_ties_to_the_incumbent() {
        // Equal remainders: the agnostic rounding goes to the lower index,
        // the incumbent-aware one to the group still below its incumbent.
        assert_eq!(round_group_split(&[1.5, 1.5], 3), vec![2, 1]);
        assert_eq!(
            round_group_split_toward(&[1.5, 1.5], 3, &[1, 2]),
            vec![1, 2]
        );
        // Without ties the two roundings are byte-identical.
        assert_eq!(
            round_group_split_toward(&[2.6, 1.4], 4, &[0, 4]),
            vec![3, 1]
        );
        // The row still sums exactly to the total.
        let split = round_group_split_toward(&[2.2, 1.9, 0.9], 5, &[5, 0, 0]);
        assert_eq!(split.iter().sum::<u32>(), 5);
        // Float drift above the target is shaved from a surplus group first.
        assert_eq!(
            round_group_split_toward(&[2.000000001, 2.0], 3, &[2, 0]),
            vec![2, 1]
        );
    }

    #[test]
    fn migration_weight_trades_movement_for_ii() {
        use crate::realloc::{Incumbent, MigrationCost, ReallocationSpec};
        let incumbent =
            Incumbent::new(vec![("a".to_string(), vec![2]), ("b".to_string(), vec![4])]).unwrap();
        // A heavy migration weight keeps the incumbent counts (II 1.5) even
        // though II 1.25 is reachable by moving one CU.
        let heavy = toy_problem(1.0).with_reallocation(Some(ReallocationSpec::new(
            incumbent.clone(),
            MigrationCost::new(1.0).unwrap(),
        )));
        let d = solve(&heavy, &DiscretizeOptions::default()).unwrap();
        assert_eq!(d.cu_counts, vec![2, 4]);
        assert!((d.initiation_interval_ms - 1.5).abs() < 1e-9);
        // A light weight pays the move and recovers the static optimum.
        let light = toy_problem(1.0).with_reallocation(Some(ReallocationSpec::new(
            incumbent,
            MigrationCost::new(0.01).unwrap(),
        )));
        let d = solve(&light, &DiscretizeOptions::default()).unwrap();
        assert!((d.initiation_interval_ms - 1.25).abs() < 1e-9);
    }

    #[test]
    fn heterogeneous_discretization_rounds_per_group() {
        use mfa_platform::{DeviceGroup, FpgaDevice, HeterogeneousPlatform};
        let p = AllocationProblem::builder()
            .kernels(vec![
                Kernel::new("a", 3.0, ResourceVec::bram_dsp(0.01, 0.2), 0.01).unwrap(),
                Kernel::new("b", 5.0, ResourceVec::bram_dsp(0.01, 0.3), 0.01).unwrap(),
            ])
            .platform(HeterogeneousPlatform::new(
                "1×VU9P + 1×KU115",
                vec![
                    DeviceGroup::new(FpgaDevice::vu9p(), 1),
                    DeviceGroup::new(FpgaDevice::ku115(), 1),
                ],
            ))
            .budget(ResourceBudget::uniform(0.8))
            .build()
            .unwrap();
        let d = solve(&p, &DiscretizeOptions::default()).unwrap();
        assert_eq!(d.group_cu_counts.len(), 2);
        for (k, row) in d.group_cu_counts.iter().enumerate() {
            assert_eq!(row.len(), 2);
            assert_eq!(row.iter().sum::<u32>(), d.cu_counts[k]);
        }
        // The discretized II is still lower-bounded by the relaxation.
        let relaxed = gp_step::solve(&p, RelaxationBackend::Bisection).unwrap();
        assert!(d.initiation_interval_ms >= relaxed.initiation_interval_ms - 1e-9);
        // And the heterogeneous pair beats either single FPGA alone.
        let single = AllocationProblem::builder()
            .kernels(p.kernels().to_vec())
            .platform(MultiFpgaPlatform::aws_f1_2xlarge())
            .budget(ResourceBudget::uniform(0.8))
            .build()
            .unwrap();
        let single_d = solve(&single, &DiscretizeOptions::default()).unwrap();
        assert!(d.initiation_interval_ms <= single_d.initiation_interval_ms + 1e-9);
    }

    #[test]
    fn homogeneous_group_counts_are_single_column() {
        let p = toy_problem(1.0);
        let d = solve(&p, &DiscretizeOptions::default()).unwrap();
        for (k, row) in d.group_cu_counts.iter().enumerate() {
            assert_eq!(row, &vec![d.cu_counts[k]]);
        }
        // Warm-started solves fill the split for the incumbent too.
        let (warm, _) = solve_seeded_inner(
            &p,
            &DiscretizeOptions::default(),
            Some(&d.cu_counts),
            None,
            None,
        )
        .unwrap();
        for (k, row) in warm.group_cu_counts.iter().enumerate() {
            assert_eq!(row.iter().sum::<u32>(), warm.cu_counts[k]);
        }
    }

    #[test]
    fn infeasible_problems_are_reported() {
        // Two kernels that each need more than half of the single FPGA's DSPs
        // can coexist only if the budget allows both lower bounds; shrink the
        // budget below one kernel's need.
        let p = AllocationProblem::builder()
            .kernels(vec![
                Kernel::new("a", 3.0, ResourceVec::bram_dsp(0.01, 0.4), 0.01).unwrap(),
                Kernel::new("b", 5.0, ResourceVec::bram_dsp(0.01, 0.4), 0.01).unwrap(),
            ])
            .platform(MultiFpgaPlatform::aws_f1_2xlarge())
            .budget(ResourceBudget::uniform(0.3))
            .build()
            .unwrap();
        assert!(matches!(
            solve(&p, &DiscretizeOptions::default()),
            Err(AllocError::Infeasible(_))
        ));
    }

    proptest! {
        /// The discretized counts always satisfy the aggregated budgets and the
        /// implied II is never better than the continuous relaxation.
        #[test]
        fn discretization_is_sound(
            wcets in proptest::collection::vec(1.0..20.0f64, 2..6),
            dsp in 0.05..0.25f64,
            budget in 0.5..1.0f64
        ) {
            let kernels: Vec<Kernel> = wcets
                .iter()
                .enumerate()
                .map(|(i, &w)| {
                    Kernel::new(format!("k{i}"), w, ResourceVec::bram_dsp(0.02, dsp), 0.01).unwrap()
                })
                .collect();
            let p = AllocationProblem::builder()
                .kernels(kernels)
                .platform(MultiFpgaPlatform::aws_f1_4xlarge())
                .budget(ResourceBudget::uniform(budget))
                .build()
                .unwrap();
            // Random instances may be infeasible (one CU per kernel already
            // exceeding the aggregated budget); those are not interesting here.
            let relaxed = match gp_step::solve(&p, RelaxationBackend::Bisection) {
                Ok(r) => r,
                Err(AllocError::Infeasible(_)) => return Ok(()),
                Err(other) => panic!("unexpected error: {other}"),
            };
            let d = solve(&p, &DiscretizeOptions::default()).unwrap();
            prop_assert!(d.initiation_interval_ms >= relaxed.initiation_interval_ms - 1e-9);
            // Aggregated budget check.
            let f = p.num_fpgas() as f64;
            let total_dsp: f64 = d
                .cu_counts
                .iter()
                .zip(p.kernels())
                .map(|(&n, k)| n as f64 * k.resources().dsp)
                .sum();
            prop_assert!(total_dsp <= f * budget + 1e-6);
        }

        /// Satellite invariant: breaking rounding ties toward the incumbent
        /// never moves more CUs than the incumbent-agnostic rounding of the
        /// same fractional split (equal relaxed totals by construction).
        #[test]
        fn toward_rounding_never_moves_more(
            fracs in proptest::collection::vec(0.0..6.0f64, 1..5),
            inc_raw in proptest::collection::vec(0usize..6, 5)
        ) {
            let total = fracs.iter().sum::<f64>().round() as u32;
            let inc: Vec<u32> = inc_raw[..fracs.len()].iter().map(|&i| i as u32).collect();
            let inc = &inc[..];
            let agnostic = round_group_split(&fracs, total);
            let toward = round_group_split_toward(&fracs, total, inc);
            prop_assert_eq!(toward.iter().sum::<u32>(), total);
            prop_assert_eq!(agnostic.iter().sum::<u32>(), total);
            let moved = |counts: &[u32]| -> u32 {
                counts.iter().zip(inc).map(|(&n, &i)| n.saturating_sub(i)).sum()
            };
            prop_assert!(
                moved(&toward) <= moved(&agnostic),
                "toward {:?} moves more than agnostic {:?} for inc {:?}",
                toward, agnostic, inc
            );
        }
    }
}
