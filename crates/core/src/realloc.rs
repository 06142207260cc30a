//! The reallocation model: incumbents, migration costs and moved-CU bounds.
//!
//! A static [`crate::AllocationProblem`] answers "what is the best
//! allocation?". Under churn — kernels arriving and departing, request mixes
//! drifting, device groups failing — the operative question becomes "I
//! already run an allocation; what is the best allocation *from here*?".
//! This module provides the vocabulary:
//!
//! * [`Incumbent`] — the current per-group CU placement, keyed by kernel
//!   name so it survives kernel add/remove events;
//! * [`MigrationCost`] — a penalty of `weight × Σ_g c_g · moved_g` added to
//!   the objective, where `moved_g` counts the CUs a candidate allocation
//!   adds on group `g` beyond the incumbent (a CU that must be newly
//!   configured there) and `c_g` is the group's per-CU reconfiguration cost;
//! * [`ReallocationSpec`] — incumbent + cost + an optional hard bound on
//!   the total moved CUs, attached to a problem via
//!   [`crate::AllocationProblem::with_reallocation`].
//!
//! Movement is accounted at *device-group* granularity: shuffling CUs among
//! the identical FPGAs of one group is free (the bitstream is the same; the
//! host simply routes items elsewhere), while raising a group's count above
//! the incumbent means configuring new CUs there. With a migration weight of
//! zero and no moved-CU bound the spec is inert and every solver path is
//! byte-identical to the static solve.

use crate::problem::AllocationProblem;
use crate::solution::Allocation;
use crate::AllocError;

/// Per-group reconfiguration pricing and the objective weight of migration.
///
/// The penalty added to the solve objective (in the II's milliseconds) is
/// `weight × Σ_g group_cost(g) × moved_g`.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationCost {
    weight: f64,
    group_costs: Option<Vec<f64>>,
}

impl MigrationCost {
    /// A migration term with objective weight `weight` (ms of II the solver
    /// will trade per unit of migration cost) and a uniform per-CU group
    /// cost of 1.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::InvalidArgument`] when `weight` is non-finite
    /// or negative — a NaN weight would otherwise poison every objective
    /// comparison and a negative one would *reward* churn.
    pub fn new(weight: f64) -> Result<Self, AllocError> {
        if !(weight.is_finite() && weight >= 0.0) {
            return Err(AllocError::InvalidArgument(format!(
                "migration weight must be finite and non-negative, got {weight}"
            )));
        }
        Ok(MigrationCost {
            weight,
            group_costs: None,
        })
    }

    /// A zero-weight (inert) migration term.
    pub fn free() -> Self {
        MigrationCost {
            weight: 0.0,
            group_costs: None,
        }
    }

    /// Sets per-group per-CU reconfiguration costs `c_g` (one per device
    /// group, in declaration order).
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::InvalidArgument`] when any cost is non-finite
    /// or negative.
    pub fn with_group_costs(mut self, costs: Vec<f64>) -> Result<Self, AllocError> {
        for (g, &c) in costs.iter().enumerate() {
            if !(c.is_finite() && c >= 0.0) {
                return Err(AllocError::InvalidArgument(format!(
                    "migration cost for group {g} must be finite and non-negative, got {c}"
                )));
            }
        }
        self.group_costs = Some(costs);
        Ok(self)
    }

    /// The objective weight.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Per-CU reconfiguration cost of group `g` (1.0 unless configured).
    pub fn group_cost(&self, g: usize) -> f64 {
        self.group_costs
            .as_ref()
            .and_then(|c| c.get(g).copied())
            .unwrap_or(1.0)
    }

    /// The explicit per-group costs, if any were set.
    pub fn group_costs(&self) -> Option<&[f64]> {
        self.group_costs.as_deref()
    }
}

/// The current per-group CU placement, keyed by kernel name.
///
/// Rows are `(kernel name, per-group CU counts)`. Keying by name rather than
/// index lets the incumbent survive churn events that add or remove kernels:
/// [`Incumbent::aligned_to`] re-indexes the rows against whatever kernel set
/// the re-solve's problem carries, treating absent kernels as all-zero rows
/// (everything they get is a move).
#[derive(Debug, Clone, PartialEq)]
pub struct Incumbent {
    rows: Vec<(String, Vec<u32>)>,
    num_groups: usize,
}

impl Incumbent {
    /// Creates an incumbent from explicit `(kernel name, group counts)` rows.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::InvalidArgument`] when `rows` is empty, rows
    /// have unequal group counts, or a kernel name repeats.
    pub fn new(rows: Vec<(String, Vec<u32>)>) -> Result<Self, AllocError> {
        let Some(first) = rows.first() else {
            return Err(AllocError::InvalidArgument(
                "an incumbent needs at least one kernel row".into(),
            ));
        };
        let num_groups = first.1.len();
        if num_groups == 0 {
            return Err(AllocError::InvalidArgument(
                "an incumbent row needs at least one group column".into(),
            ));
        }
        for (name, counts) in &rows {
            if counts.len() != num_groups {
                return Err(AllocError::InvalidArgument(format!(
                    "incumbent row {name} has {} group columns, expected {num_groups}",
                    counts.len()
                )));
            }
        }
        for (i, (name, _)) in rows.iter().enumerate() {
            if rows[..i].iter().any(|(other, _)| other == name) {
                return Err(AllocError::InvalidArgument(format!(
                    "incumbent names kernel {name} twice"
                )));
            }
        }
        Ok(Incumbent { rows, num_groups })
    }

    /// Captures the incumbent of a solved placement: per-group CU counts of
    /// `allocation`, keyed by `problem`'s kernel names.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::InvalidArgument`] when the allocation's shape
    /// does not match the problem.
    pub fn from_allocation(
        problem: &AllocationProblem,
        allocation: &Allocation,
    ) -> Result<Self, AllocError> {
        if allocation.num_kernels() != problem.num_kernels()
            || allocation.num_fpgas() != problem.num_fpgas()
        {
            return Err(AllocError::InvalidArgument(format!(
                "allocation is {}×{} but the problem is {}×{}",
                allocation.num_kernels(),
                allocation.num_fpgas(),
                problem.num_kernels(),
                problem.num_fpgas()
            )));
        }
        let rows = problem
            .kernels()
            .iter()
            .enumerate()
            .map(|(k, kernel)| {
                let mut per_group = vec![0u32; problem.num_groups()];
                for f in 0..problem.num_fpgas() {
                    per_group[problem.group_of_fpga(f)] += allocation.cus(k, f);
                }
                (kernel.name().to_owned(), per_group)
            })
            .collect();
        Ok(Incumbent {
            rows,
            num_groups: problem.num_groups(),
        })
    }

    /// The `(kernel name, per-group counts)` rows.
    pub fn rows(&self) -> &[(String, Vec<u32>)] {
        &self.rows
    }

    /// Number of group columns.
    pub fn num_groups(&self) -> usize {
        self.num_groups
    }

    /// The per-group counts recorded for `kernel`, if present.
    pub fn row(&self, kernel: &str) -> Option<&[u32]> {
        self.rows
            .iter()
            .find(|(name, _)| name == kernel)
            .map(|(_, counts)| counts.as_slice())
    }

    /// The incumbent after device group `g` is lost: the column is removed
    /// (its CUs are gone with the hardware). Used by churn traces to remap
    /// the incumbent alongside the platform.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::InvalidArgument`] when `g` is out of range or
    /// it is the last remaining group.
    pub fn drop_group(&self, g: usize) -> Result<Self, AllocError> {
        if g >= self.num_groups {
            return Err(AllocError::InvalidArgument(format!(
                "cannot drop group {g}: the incumbent has {} groups",
                self.num_groups
            )));
        }
        if self.num_groups == 1 {
            return Err(AllocError::InvalidArgument(
                "cannot drop the last device group of an incumbent".into(),
            ));
        }
        let rows = self
            .rows
            .iter()
            .map(|(name, counts)| {
                let mut counts = counts.clone();
                counts.remove(g);
                (name.clone(), counts)
            })
            .collect();
        Ok(Incumbent {
            rows,
            num_groups: self.num_groups - 1,
        })
    }

    /// Re-indexes the incumbent against `problem`'s kernel order: one row of
    /// per-group counts per problem kernel, all-zero for kernels the
    /// incumbent does not know (new arrivals start from nothing).
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::InvalidArgument`] when the incumbent's group
    /// count does not match the problem's (the incumbent must be remapped —
    /// see [`drop_group`](Self::drop_group) — before re-solving on a changed
    /// platform).
    pub fn aligned_to(&self, problem: &AllocationProblem) -> Result<Vec<Vec<u32>>, AllocError> {
        if self.num_groups != problem.num_groups() {
            return Err(AllocError::InvalidArgument(format!(
                "incumbent has {} group columns but the platform has {} groups",
                self.num_groups,
                problem.num_groups()
            )));
        }
        Ok(problem
            .kernels()
            .iter()
            .map(|kernel| {
                self.row(kernel.name())
                    .map_or_else(|| vec![0; self.num_groups], <[u32]>::to_vec)
            })
            .collect())
    }
}

/// A full reallocation request rider: the incumbent placement, the migration
/// pricing, and an optional hard cap on moved CUs.
#[derive(Debug, Clone, PartialEq)]
pub struct ReallocationSpec {
    incumbent: Incumbent,
    migration: MigrationCost,
    max_moved_cus: Option<u32>,
}

impl ReallocationSpec {
    /// A spec penalizing movement away from `incumbent` by `migration`.
    pub fn new(incumbent: Incumbent, migration: MigrationCost) -> Self {
        ReallocationSpec {
            incumbent,
            migration,
            max_moved_cus: None,
        }
    }

    /// Adds a hard bound on the total moved CUs.
    #[must_use]
    pub fn with_moved_bound(mut self, max_moved_cus: u32) -> Self {
        self.max_moved_cus = Some(max_moved_cus);
        self
    }

    /// The incumbent placement.
    pub fn incumbent(&self) -> &Incumbent {
        &self.incumbent
    }

    /// The migration pricing.
    pub fn migration(&self) -> &MigrationCost {
        &self.migration
    }

    /// The moved-CU bound, if any.
    pub fn max_moved_cus(&self) -> Option<u32> {
        self.max_moved_cus
    }

    /// `true` when the spec can influence the solution: a positive migration
    /// weight or a moved-CU bound. An inert spec (weight 0, no bound) leaves
    /// every solver path byte-identical to the static solve and only fills
    /// the movement diagnostics.
    pub fn is_active(&self) -> bool {
        self.migration.weight() > 0.0 || self.max_moved_cus.is_some()
    }
}

/// Movement of a candidate against an incumbent: CUs newly configured and
/// their priced cost.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MigrationOutcome {
    /// Total CUs moved: `Σ_k Σ_g max(0, n_{k,g} − incumbent_{k,g})`.
    pub moved_cus: u32,
    /// Priced movement `Σ_g c_g · moved_g` (unweighted).
    pub cost: f64,
}

/// Solver-side view of an active reallocation spec, aligned to one problem:
/// incumbent rows in kernel order, per-group costs, the weight and bound.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ReallocContext {
    /// Incumbent per-group counts, `[kernel][group]`, aligned to the problem.
    pub(crate) inc_groups: Vec<Vec<u32>>,
    /// Incumbent totals per kernel (row sums).
    pub(crate) inc_totals: Vec<u32>,
    /// Objective weight of the migration term.
    pub(crate) weight: f64,
    /// Per-CU reconfiguration cost per group.
    pub(crate) costs: Vec<f64>,
    /// Hard cap on total moved CUs, if any.
    pub(crate) moved_bound: Option<u32>,
}

impl ReallocContext {
    /// Builds the context when the problem carries an *active* reallocation
    /// spec; `Ok(None)` otherwise (including the inert weight-0/no-bound
    /// case, which must leave the solvers untouched).
    ///
    /// # Errors
    ///
    /// Propagates incumbent/platform misalignment as
    /// [`AllocError::InvalidArgument`].
    pub(crate) fn from_problem(problem: &AllocationProblem) -> Result<Option<Self>, AllocError> {
        let Some(spec) = problem.reallocation() else {
            return Ok(None);
        };
        if !spec.is_active() {
            return Ok(None);
        }
        let inc_groups = spec.incumbent().aligned_to(problem)?;
        let inc_totals = inc_groups.iter().map(|row| row.iter().sum()).collect();
        let costs = (0..problem.num_groups())
            .map(|g| spec.migration().group_cost(g))
            .collect();
        Ok(Some(ReallocContext {
            inc_groups,
            inc_totals,
            weight: spec.migration().weight(),
            costs,
            moved_bound: spec.max_moved_cus(),
        }))
    }

    /// Movement of integer per-group counts against the incumbent.
    pub(crate) fn migration_of_groups(&self, groups: &[Vec<u32>]) -> MigrationOutcome {
        migration_against(&self.inc_groups, &self.costs, groups)
    }

    /// The weighted objective penalty of integer per-group counts.
    pub(crate) fn penalty_of_groups(&self, groups: &[Vec<u32>]) -> f64 {
        self.weight * self.migration_of_groups(groups).cost
    }

    /// `true` when `groups` violates the moved-CU bound.
    pub(crate) fn exceeds_bound(&self, groups: &[Vec<u32>]) -> bool {
        self.moved_bound
            .is_some_and(|bound| self.migration_of_groups(groups).moved_cus > bound)
    }
}

/// Movement accounting shared by the solver context and the diagnostics
/// post-fill: `moved_g = Σ_k max(0, n_{k,g} − inc_{k,g})`, cost `Σ c_g·moved_g`.
/// Rows missing on either side count as zero.
pub(crate) fn migration_against(
    incumbent: &[Vec<u32>],
    costs: &[f64],
    groups: &[Vec<u32>],
) -> MigrationOutcome {
    let mut moved_cus = 0u32;
    let mut cost = 0.0f64;
    for (k, row) in groups.iter().enumerate() {
        for (g, &n) in row.iter().enumerate() {
            let inc = incumbent
                .get(k)
                .and_then(|r| r.get(g))
                .copied()
                .unwrap_or(0);
            if n > inc {
                let moved = n - inc;
                moved_cus += moved;
                cost += costs.get(g).copied().unwrap_or(1.0) * f64::from(moved);
            }
        }
    }
    MigrationOutcome { moved_cus, cost }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Kernel;
    use mfa_platform::{MultiFpgaPlatform, ResourceBudget, ResourceVec};

    fn toy_problem() -> AllocationProblem {
        AllocationProblem::builder()
            .kernels(vec![
                Kernel::new("a", 3.0, ResourceVec::bram_dsp(0.01, 0.2), 0.01).unwrap(),
                Kernel::new("b", 5.0, ResourceVec::bram_dsp(0.01, 0.3), 0.01).unwrap(),
            ])
            .platform(MultiFpgaPlatform::aws_f1_4xlarge())
            .budget(ResourceBudget::uniform(1.0))
            .build()
            .unwrap()
    }

    #[test]
    fn migration_cost_rejects_bad_weights() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5] {
            assert!(
                matches!(MigrationCost::new(bad), Err(AllocError::InvalidArgument(_))),
                "weight {bad} must be rejected"
            );
        }
        assert_eq!(MigrationCost::new(0.25).unwrap().weight(), 0.25);
        assert_eq!(MigrationCost::free().weight(), 0.0);
    }

    #[test]
    fn migration_cost_rejects_bad_group_costs() {
        let base = MigrationCost::new(1.0).unwrap();
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            assert!(matches!(
                base.clone().with_group_costs(vec![1.0, bad]),
                Err(AllocError::InvalidArgument(_))
            ));
        }
        let priced = base.with_group_costs(vec![2.0, 0.5]).unwrap();
        assert_eq!(priced.group_cost(0), 2.0);
        assert_eq!(priced.group_cost(1), 0.5);
        // Groups beyond the explicit list default to a unit cost.
        assert_eq!(priced.group_cost(7), 1.0);
        assert_eq!(priced.group_costs(), Some(&[2.0, 0.5][..]));
    }

    #[test]
    fn incumbent_validates_its_rows() {
        assert!(Incumbent::new(vec![]).is_err());
        assert!(Incumbent::new(vec![("a".into(), vec![])]).is_err());
        assert!(Incumbent::new(vec![("a".into(), vec![1]), ("a".into(), vec![2])]).is_err());
        assert!(Incumbent::new(vec![("a".into(), vec![1]), ("b".into(), vec![1, 2])]).is_err());
        let inc = Incumbent::new(vec![("a".into(), vec![2, 0]), ("b".into(), vec![1, 1])]).unwrap();
        assert_eq!(inc.num_groups(), 2);
        assert_eq!(inc.row("b"), Some(&[1, 1][..]));
        assert_eq!(inc.row("zz"), None);
    }

    #[test]
    fn incumbent_aligns_by_kernel_name() {
        let p = toy_problem();
        // Known kernel "b", unknown "zombie"; "a" absent → zero row.
        let inc = Incumbent::new(vec![("b".into(), vec![4]), ("zombie".into(), vec![9])]).unwrap();
        let aligned = inc.aligned_to(&p).unwrap();
        assert_eq!(aligned, vec![vec![0], vec![4]]);
        // Group-count mismatch is a typed error.
        let wide = Incumbent::new(vec![("a".into(), vec![1, 1])]).unwrap();
        assert!(matches!(
            wide.aligned_to(&p),
            Err(AllocError::InvalidArgument(_))
        ));
    }

    #[test]
    fn incumbent_from_allocation_sums_groups() {
        let p = toy_problem();
        let mut alloc = Allocation::zeros(&p);
        alloc.set_cus(0, 0, 2);
        alloc.set_cus(0, 1, 1);
        alloc.set_cus(1, 1, 4);
        let inc = Incumbent::from_allocation(&p, &alloc).unwrap();
        // Single-group platform: group counts are the totals.
        assert_eq!(inc.row("a"), Some(&[3][..]));
        assert_eq!(inc.row("b"), Some(&[4][..]));
        let wrong = Allocation::new(vec![vec![1u32; 3]]).unwrap();
        assert!(Incumbent::from_allocation(&p, &wrong).is_err());
    }

    #[test]
    fn drop_group_removes_one_column() {
        let inc = Incumbent::new(vec![("a".into(), vec![2, 5]), ("b".into(), vec![1, 0])]).unwrap();
        let dropped = inc.drop_group(1).unwrap();
        assert_eq!(dropped.num_groups(), 1);
        assert_eq!(dropped.row("a"), Some(&[2][..]));
        assert!(inc.drop_group(2).is_err());
        assert!(dropped.drop_group(0).is_err());
    }

    #[test]
    fn movement_accounting_counts_only_growth() {
        let incumbent = vec![vec![2, 1], vec![0, 3]];
        let costs = vec![1.0, 2.5];
        // Kernel 0 grows by 1 on group 1; kernel 1 shrinks (free).
        let groups = vec![vec![2, 2], vec![0, 1]];
        let m = migration_against(&incumbent, &costs, &groups);
        assert_eq!(m.moved_cus, 1);
        assert!((m.cost - 2.5).abs() < 1e-12);
        // Identical counts move nothing.
        let still = migration_against(&incumbent, &costs, &incumbent);
        assert_eq!(still.moved_cus, 0);
        assert_eq!(still.cost, 0.0);
    }

    #[test]
    fn inert_specs_produce_no_context() {
        let p = toy_problem();
        assert!(ReallocContext::from_problem(&p).unwrap().is_none());
        let inc = Incumbent::new(vec![("a".into(), vec![2]), ("b".into(), vec![3])]).unwrap();
        let inert = ReallocationSpec::new(inc.clone(), MigrationCost::free());
        assert!(!inert.is_active());
        let p_inert = p.with_reallocation(Some(inert));
        assert!(ReallocContext::from_problem(&p_inert).unwrap().is_none());
        // A bound alone activates the spec even at weight 0.
        let bounded = ReallocationSpec::new(inc.clone(), MigrationCost::free()).with_moved_bound(2);
        assert!(bounded.is_active());
        let ctx = ReallocContext::from_problem(&p.with_reallocation(Some(bounded)))
            .unwrap()
            .unwrap();
        assert_eq!(ctx.inc_totals, vec![2, 3]);
        assert_eq!(ctx.moved_bound, Some(2));
        assert!(ctx.exceeds_bound(&[vec![5], vec![3]]));
        assert!(!ctx.exceeds_bound(&[vec![4], vec![3]]));
        // Weighted spec: penalty = weight × cost.
        let weighted = ReallocationSpec::new(inc, MigrationCost::new(0.5).unwrap());
        let ctx = ReallocContext::from_problem(&p.with_reallocation(Some(weighted)))
            .unwrap()
            .unwrap();
        assert!((ctx.penalty_of_groups(&[vec![4], vec![3]]) - 1.0).abs() < 1e-12);
    }
}
