//! Per-FPGA resource and bandwidth budgets.

use crate::ResourceVec;

/// The per-FPGA constraint applied during allocation: a fraction of each
/// resource class plus a fraction of the DRAM bandwidth that the mapped CUs
/// may use together.
///
/// The paper sweeps a single "resource constraint %" that applies to every
/// resource class while the bandwidth budget stays at 100 %; use
/// [`ResourceBudget::uniform`] for that case.
///
/// # Example
///
/// ```
/// use mfa_platform::ResourceBudget;
///
/// let budget = ResourceBudget::uniform(0.61);
/// assert!((budget.resource_fraction().bram - 0.61).abs() < 1e-12);
/// assert!((budget.bandwidth_fraction() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceBudget {
    resource_fraction: ResourceVec,
    bandwidth_fraction: f64,
}

impl ResourceBudget {
    /// A budget that allows `fraction` of every resource class and the full
    /// DRAM bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `(0, 1]`.
    pub fn uniform(fraction: f64) -> Self {
        ResourceBudget::new(ResourceVec::uniform(fraction), 1.0)
    }

    /// A budget with independent per-class resource fractions and a bandwidth
    /// fraction.
    ///
    /// # Panics
    ///
    /// Panics if any fraction is not in `(0, 1]`.
    pub fn new(resource_fraction: ResourceVec, bandwidth_fraction: f64) -> Self {
        assert!(
            resource_fraction.is_valid()
                && resource_fraction.max_component() <= 1.0
                && resource_fraction.lut > 0.0
                && resource_fraction.ff > 0.0
                && resource_fraction.bram > 0.0
                && resource_fraction.dsp > 0.0,
            "resource fractions must lie in (0, 1]"
        );
        assert!(
            bandwidth_fraction > 0.0 && bandwidth_fraction <= 1.0,
            "bandwidth fraction must lie in (0, 1]"
        );
        ResourceBudget {
            resource_fraction,
            bandwidth_fraction,
        }
    }

    /// Per-class resource fractions.
    pub fn resource_fraction(&self) -> &ResourceVec {
        &self.resource_fraction
    }

    /// Bandwidth fraction.
    pub fn bandwidth_fraction(&self) -> f64 {
        self.bandwidth_fraction
    }

    /// Returns a copy of the budget with its resource fractions scaled by
    /// `factor`, clamped to 1.0 (used by the heuristic's `T`/`Δ` relaxation
    /// loop, which temporarily allows exceeding the nominal constraint).
    ///
    /// # Panics
    ///
    /// Panics if the scaled fractions leave `(0, 1]` — i.e. if `factor` is
    /// zero, negative or NaN. The result goes through the same validation as
    /// [`ResourceBudget::new`], so no constructor path can smuggle in a
    /// budget the others would reject.
    #[must_use]
    pub fn scaled_resources(&self, factor: f64) -> Self {
        let scaled = self.resource_fraction * factor;
        // `f64::min` would silently swallow a NaN factor (min(NaN, 1.0) is
        // 1.0); this clamp keeps NaN so validation can reject it.
        fn clamp(x: f64) -> f64 {
            if x > 1.0 {
                1.0
            } else {
                x
            }
        }
        ResourceBudget::new(
            ResourceVec {
                lut: clamp(scaled.lut),
                ff: clamp(scaled.ff),
                bram: clamp(scaled.bram),
                dsp: clamp(scaled.dsp),
            },
            self.bandwidth_fraction,
        )
    }
}

impl Default for ResourceBudget {
    fn default() -> Self {
        ResourceBudget::uniform(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_budget() {
        let b = ResourceBudget::uniform(0.75);
        assert_eq!(b.resource_fraction().dsp, 0.75);
        assert_eq!(b.bandwidth_fraction(), 1.0);
        assert_eq!(ResourceBudget::default().resource_fraction().lut, 1.0);
    }

    #[test]
    fn scaled_resources_clamps_at_one() {
        let b = ResourceBudget::uniform(0.8).scaled_resources(2.0);
        assert_eq!(b.resource_fraction().dsp, 1.0);
        assert_eq!(b.bandwidth_fraction(), 1.0);
        let smaller = ResourceBudget::uniform(0.8).scaled_resources(0.5);
        assert!((smaller.resource_fraction().bram - 0.4).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "resource fractions")]
    fn zero_fraction_is_rejected() {
        let _ = ResourceBudget::uniform(0.0);
    }

    // Regression: `scaled_resources` used to construct the struct directly,
    // bypassing `new()`'s validation, so a zero/negative/NaN factor silently
    // produced a budget every other constructor rejects.
    #[test]
    #[should_panic(expected = "resource fractions")]
    fn scaling_by_zero_is_rejected() {
        let _ = ResourceBudget::uniform(0.8).scaled_resources(0.0);
    }

    #[test]
    #[should_panic(expected = "resource fractions")]
    fn scaling_by_a_negative_factor_is_rejected() {
        let _ = ResourceBudget::uniform(0.8).scaled_resources(-2.0);
    }

    #[test]
    #[should_panic(expected = "resource fractions")]
    fn scaling_by_nan_is_rejected() {
        let _ = ResourceBudget::uniform(0.8).scaled_resources(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "bandwidth fraction")]
    fn bandwidth_fraction_above_one_is_rejected() {
        let _ = ResourceBudget::new(ResourceVec::uniform(0.5), 1.5);
    }
}
