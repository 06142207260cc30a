//! Warm-start cache for neighbouring budget points.

use mfa_alloc::solver::WarmStart;
use mfa_platform::ResourceBudget;

/// Euclidean distance between two per-FPGA budgets over the five budget
/// dimensions (the four resource-class fractions plus the bandwidth
/// fraction). For two uniform budgets this reduces to `2·|a − b|` — a
/// monotone function of the old scalar constraint distance, so nearest
/// lookups on classic constraint-only sweeps pick the same neighbours as the
/// scalar key did.
pub fn budget_distance(a: &ResourceBudget, b: &ResourceBudget) -> f64 {
    let ra = a.resource_fraction();
    let rb = b.resource_fraction();
    let deltas = [
        ra.lut - rb.lut,
        ra.ff - rb.ff,
        ra.bram - rb.bram,
        ra.dsp - rb.dsp,
        a.bandwidth_fraction() - b.bandwidth_fraction(),
    ];
    deltas.iter().map(|d| d * d).sum::<f64>().sqrt()
}

/// Remembers the GP+A state of already-solved budget points so that a
/// neighbouring point can be warm-started from the nearest one (nearest
/// under [`budget_distance`] — the relaxations of nearby budgets are close,
/// so the nearest hint narrows the bisection bracket the most and its
/// integer counts make the strongest branch-and-bound incumbent).
///
/// Entries hold the full [`WarmStart`] a report publishes, so the GP dual
/// state ([`WarmStart::gp_dual`] — the final barrier parameter plus
/// constraint multipliers) is cached and handed over alongside the primal
/// hints: a GP-backed sweep re-enters the barrier path near the neighbour's
/// endpoint instead of re-running the early centering rungs. The solver
/// validates the dual against the new point and silently drops it when
/// stale, so caching it can only reduce effort, never change a solution.
///
/// The executor keeps one cache per work-unit chunk. That choice is what
/// makes parallel and serial sweeps byte-identical: the chunk decomposition
/// depends only on the grid and the chunk size, never on the thread count or
/// on scheduling, so every point sees exactly the same cache state either
/// way.
///
/// Growth is bounded: the cache holds at most its capacity
/// ([`DEFAULT_CACHE_CAPACITY`] unless built with
/// [`WarmStartCache::with_capacity`]) and evicts the *oldest* entry when
/// full. FIFO eviction is deterministic — it depends only on the insertion
/// sequence, which itself depends only on the grid and chunk decomposition —
/// so a bounded cache preserves the serial/parallel byte-identity contract.
/// A hint can only narrow search brackets or seed incumbents that are
/// verified before use, so eviction (like any cache state) never changes the
/// achieved initiation interval.
#[derive(Debug, Clone)]
pub struct WarmStartCache {
    entries: Vec<(ResourceBudget, WarmStart)>,
    capacity: usize,
}

/// Default bound on [`WarmStartCache`] entries. Far above any chunk size the
/// executor produces (chunks default to 8 points), so eviction only engages
/// on deliberately tiny capacities or very long-lived caches.
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

impl Default for WarmStartCache {
    fn default() -> Self {
        WarmStartCache::with_capacity(DEFAULT_CACHE_CAPACITY)
    }
}

impl WarmStartCache {
    /// An empty cache with the [`DEFAULT_CACHE_CAPACITY`].
    pub fn new() -> Self {
        WarmStartCache::default()
    }

    /// An empty cache holding at most `capacity` entries (a capacity of 0
    /// caches nothing and every lookup misses).
    pub fn with_capacity(capacity: usize) -> Self {
        WarmStartCache {
            entries: Vec::new(),
            capacity,
        }
    }

    /// The configured entry bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached points.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records the warm-start state of a solved budget point, evicting the
    /// oldest entry first when the cache is at capacity.
    ///
    /// Re-inserting an already-cached budget refreshes that entry *in place*
    /// (keeping its FIFO age): a long-lived cache fed repeated keys — a
    /// serving daemon seeing the same tenant's budget over and over — must
    /// not accumulate duplicates that consume capacity and FIFO-evict a live
    /// neighbour. The cache therefore never holds more entries than distinct
    /// budgets inserted.
    pub fn insert(&mut self, budget: &ResourceBudget, warm: WarmStart) {
        if self.capacity == 0 {
            return;
        }
        if let Some(entry) = self.entries.iter_mut().find(|(b, _)| b == budget) {
            entry.1 = warm;
            return;
        }
        if self.entries.len() == self.capacity {
            self.entries.remove(0);
        }
        self.entries.push((*budget, warm));
    }

    /// The cached state nearest to `budget` under [`budget_distance`], if
    /// any. Ties keep the earliest-inserted entry, so lookups are
    /// deterministic.
    pub fn nearest(&self, budget: &ResourceBudget) -> Option<&WarmStart> {
        self.nearest_entry(budget).map(|(_, warm)| warm)
    }

    /// Like [`WarmStartCache::nearest`], but also returns the distance of the
    /// winning entry, so two caches can be compared for the overall-nearest
    /// hint.
    pub fn nearest_entry(&self, budget: &ResourceBudget) -> Option<(f64, &WarmStart)> {
        self.entries
            .iter()
            .min_by(|(a, _), (b, _)| {
                budget_distance(a, budget).total_cmp(&budget_distance(b, budget))
            })
            .map(|(b, warm)| (budget_distance(b, budget), warm))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfa_platform::ResourceVec;

    fn warm(ii: f64) -> WarmStart {
        WarmStart::none()
            .with_relaxed_ii(ii)
            .with_cu_counts(vec![1, 2])
    }

    #[test]
    fn nearest_picks_the_closest_uniform_budget() {
        let mut cache = WarmStartCache::new();
        assert!(cache.is_empty());
        assert!(cache.nearest(&ResourceBudget::uniform(0.6)).is_none());
        cache.insert(&ResourceBudget::uniform(0.55), warm(2.0));
        cache.insert(&ResourceBudget::uniform(0.85), warm(1.0));
        assert_eq!(cache.len(), 2);
        let near = |c: f64| cache.nearest(&ResourceBudget::uniform(c)).unwrap();
        assert!((near(0.60).relaxed_ii_ms.unwrap() - 2.0).abs() < 1e-12);
        assert!((near(0.80).relaxed_ii_ms.unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_tie_keeps_the_earliest_insertion() {
        // Two cached budgets exactly equidistant (in the full 5-D metric)
        // from the query — dyadic fractions, so the distances are bit-exact
        // ties: the earliest-inserted entry must win, pinning the executor's
        // determinism under the budget-distance metric.
        let mut cache = WarmStartCache::new();
        cache.insert(&ResourceBudget::uniform(0.5), warm(2.0));
        cache.insert(&ResourceBudget::uniform(1.0), warm(1.0));
        assert!(
            (cache
                .nearest(&ResourceBudget::uniform(0.75))
                .unwrap()
                .relaxed_ii_ms
                .unwrap()
                - 2.0)
                .abs()
                < 1e-12
        );
        // Same tie, reversed insertion order: the other entry wins.
        let mut reversed = WarmStartCache::new();
        reversed.insert(&ResourceBudget::uniform(1.0), warm(1.0));
        reversed.insert(&ResourceBudget::uniform(0.5), warm(2.0));
        assert!(
            (reversed
                .nearest(&ResourceBudget::uniform(0.75))
                .unwrap()
                .relaxed_ii_ms
                .unwrap()
                - 1.0)
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn distance_separates_per_resource_budgets_with_equal_scalars() {
        // Two budgets share the same max component (the old scalar key) but
        // differ per class; the metric must tell them apart.
        let skewed = ResourceBudget::new(ResourceVec::new(0.9, 0.9, 0.3, 0.6), 1.0);
        let uniformish = ResourceBudget::new(ResourceVec::new(0.9, 0.9, 0.85, 0.9), 1.0);
        let query = ResourceBudget::new(ResourceVec::new(0.9, 0.9, 0.8, 0.9), 1.0);
        assert!(budget_distance(&query, &uniformish) < budget_distance(&query, &skewed));
        let mut cache = WarmStartCache::new();
        cache.insert(&skewed, warm(3.0));
        cache.insert(&uniformish, warm(4.0));
        assert!((cache.nearest(&query).unwrap().relaxed_ii_ms.unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn cached_entries_carry_the_gp_dual_state() {
        use mfa_alloc::solver::GpDualState;
        let mut cache = WarmStartCache::new();
        let dual = GpDualState {
            barrier_t: 1.6e9,
            duals: vec![0.25, 0.0, 1.5],
        };
        cache.insert(
            &ResourceBudget::uniform(0.7),
            warm(1.5).with_gp_dual(dual.clone()),
        );
        let hit = cache.nearest(&ResourceBudget::uniform(0.72)).unwrap();
        // The dual rides the cache untouched, ready for the next solve.
        assert_eq!(hit.gp_dual.as_ref(), Some(&dual));
        assert!(!hit.is_empty());
    }

    #[test]
    fn capacity_bounds_growth_with_fifo_eviction() {
        let mut cache = WarmStartCache::with_capacity(2);
        assert_eq!(cache.capacity(), 2);
        cache.insert(&ResourceBudget::uniform(0.5), warm(1.0));
        cache.insert(&ResourceBudget::uniform(0.6), warm(2.0));
        cache.insert(&ResourceBudget::uniform(0.7), warm(3.0));
        // Oldest entry (0.5) evicted; a query right on it now hits 0.6.
        assert_eq!(cache.len(), 2);
        let hit = cache.nearest(&ResourceBudget::uniform(0.5)).unwrap();
        assert!((hit.relaxed_ii_ms.unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn reinserting_a_cached_budget_refreshes_in_place() {
        // Duplicate keys used to append, consuming capacity and FIFO-evicting
        // a live neighbour; a refresh must update the entry instead.
        let mut cache = WarmStartCache::with_capacity(2);
        cache.insert(&ResourceBudget::uniform(0.5), warm(1.0));
        cache.insert(&ResourceBudget::uniform(0.9), warm(2.0));
        for _ in 0..10 {
            cache.insert(&ResourceBudget::uniform(0.5), warm(3.0));
        }
        assert_eq!(cache.len(), 2);
        // The refreshed entry serves the new state…
        let hit = cache.nearest(&ResourceBudget::uniform(0.5)).unwrap();
        assert!((hit.relaxed_ii_ms.unwrap() - 3.0).abs() < 1e-12);
        // …and its neighbour was never evicted.
        let other = cache.nearest(&ResourceBudget::uniform(0.9)).unwrap();
        assert!((other.relaxed_ii_ms.unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let mut cache = WarmStartCache::with_capacity(0);
        cache.insert(&ResourceBudget::uniform(0.5), warm(1.0));
        assert!(cache.is_empty());
        assert!(cache.nearest(&ResourceBudget::uniform(0.5)).is_none());
    }

    #[test]
    fn nearest_entry_reports_the_winning_distance() {
        let mut cache = WarmStartCache::new();
        cache.insert(&ResourceBudget::uniform(0.55), warm(2.0));
        cache.insert(&ResourceBudget::uniform(0.85), warm(1.0));
        let (dist, hit) = cache.nearest_entry(&ResourceBudget::uniform(0.60)).unwrap();
        assert!((dist - 2.0 * 0.05).abs() < 1e-12);
        assert!((hit.relaxed_ii_ms.unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_distance_is_twice_the_scalar_distance() {
        let a = ResourceBudget::uniform(0.55);
        let b = ResourceBudget::uniform(0.85);
        assert!((budget_distance(&a, &b) - 2.0 * 0.30).abs() < 1e-12);
        assert_eq!(budget_distance(&a, &a), 0.0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The duplicate-key invariant: however inserts repeat, the cache
            /// never holds more entries than distinct budgets (and never more
            /// than its capacity).
            #[test]
            fn len_never_exceeds_distinct_keys(
                keys in proptest::collection::vec(1usize..=8, 0usize..64),
                capacity in 0usize..6,
            ) {
                let mut cache = WarmStartCache::with_capacity(capacity);
                let mut distinct = std::collections::BTreeSet::new();
                for (step, key) in keys.into_iter().enumerate() {
                    let budget = ResourceBudget::uniform(key as f64 / 10.0);
                    cache.insert(&budget, warm(step as f64));
                    distinct.insert(key);
                    prop_assert!(cache.len() <= distinct.len());
                    prop_assert!(cache.len() <= capacity);
                }
            }
        }
    }
}
