//! Component-wise FPGA resource vectors.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A vector over the four FPGA resource classes the allocator tracks.
///
/// The same type is used for absolute capacities (e.g. "6 840 DSP slices"),
/// absolute usages, and fractional utilizations (e.g. "0.21 of the device's
/// DSPs") — the interpretation is the caller's. The paper's experiments work
/// in fractions of one FPGA, which is also what the allocation crates use.
///
/// # Example
///
/// ```
/// use mfa_platform::ResourceVec;
///
/// let a = ResourceVec::bram_dsp(0.10, 0.20);
/// let b = a * 3.0;
/// assert!((b.dsp - 0.60).abs() < 1e-12);
/// assert!(b.fits_within(&ResourceVec::uniform(0.75), 1e-9));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResourceVec {
    /// Look-up tables.
    pub lut: f64,
    /// Flip-flops.
    pub ff: f64,
    /// Block RAM (36 Kb blocks or a fraction thereof).
    pub bram: f64,
    /// DSP slices.
    pub dsp: f64,
}

impl ResourceVec {
    /// All-zero resource vector.
    pub fn zero() -> Self {
        ResourceVec::default()
    }

    /// Creates a vector with every component equal to `value`.
    pub fn uniform(value: f64) -> Self {
        ResourceVec {
            lut: value,
            ff: value,
            bram: value,
            dsp: value,
        }
    }

    /// Creates a vector from all four components.
    pub fn new(lut: f64, ff: f64, bram: f64, dsp: f64) -> Self {
        ResourceVec { lut, ff, bram, dsp }
    }

    /// Creates a vector with only BRAM and DSP set (the two classes the paper
    /// reports, the others being non-critical).
    pub fn bram_dsp(bram: f64, dsp: f64) -> Self {
        ResourceVec {
            lut: 0.0,
            ff: 0.0,
            bram,
            dsp,
        }
    }

    /// Largest component.
    pub fn max_component(&self) -> f64 {
        self.lut.max(self.ff).max(self.bram).max(self.dsp)
    }

    /// Component-wise `self ≤ other + tol`.
    pub fn fits_within(&self, other: &ResourceVec, tol: f64) -> bool {
        self.lut <= other.lut + tol
            && self.ff <= other.ff + tol
            && self.bram <= other.bram + tol
            && self.dsp <= other.dsp + tol
    }

    /// Component-wise division (used to turn absolute usage into utilization
    /// relative to a capacity). Components whose divisor is zero map to zero.
    pub fn fraction_of(&self, capacity: &ResourceVec) -> ResourceVec {
        fn div(a: f64, b: f64) -> f64 {
            if b == 0.0 {
                0.0
            } else {
                a / b
            }
        }
        ResourceVec {
            lut: div(self.lut, capacity.lut),
            ff: div(self.ff, capacity.ff),
            bram: div(self.bram, capacity.bram),
            dsp: div(self.dsp, capacity.dsp),
        }
    }

    /// Component-wise maximum.
    pub fn max(&self, other: &ResourceVec) -> ResourceVec {
        ResourceVec {
            lut: self.lut.max(other.lut),
            ff: self.ff.max(other.ff),
            bram: self.bram.max(other.bram),
            dsp: self.dsp.max(other.dsp),
        }
    }

    /// Returns `true` if every component is finite and nonnegative.
    pub fn is_valid(&self) -> bool {
        [self.lut, self.ff, self.bram, self.dsp]
            .iter()
            .all(|x| x.is_finite() && *x >= 0.0)
    }

    /// The largest integer `k ≥ 0` (within a relative tolerance of `1e-9` on
    /// the limiting ratio, absorbing accumulated float error) such that
    /// `k · self` still fits within `budget` (component-wise); `None` when
    /// `self` is zero in every component (in which case any `k` fits).
    /// Ratios beyond the `u32` range are capped at `u32::MAX`.
    pub fn max_copies_within(&self, budget: &ResourceVec) -> Option<u32> {
        let mut bound: Option<f64> = None;
        for (need, avail) in [
            (self.lut, budget.lut),
            (self.ff, budget.ff),
            (self.bram, budget.bram),
            (self.dsp, budget.dsp),
        ] {
            if need > 0.0 {
                let k = (avail / need).max(0.0);
                bound = Some(bound.map_or(k, |b: f64| b.min(k)));
            }
        }
        bound.map(|b| {
            // The tolerance must scale with the ratio: an absolute `+1e-9`
            // nudge both miscounted near-integer ratios of tiny per-copy
            // needs and was rounded away entirely on large ratios. The
            // conversion is capped explicitly so ratios beyond u32 range
            // degrade to `u32::MAX` instead of relying on silent saturation.
            let copies = (b * (1.0 + 1e-9)).floor();
            if copies >= u32::MAX as f64 {
                u32::MAX
            } else {
                copies as u32
            }
        })
    }
}

impl Add for ResourceVec {
    type Output = ResourceVec;
    fn add(self, rhs: ResourceVec) -> ResourceVec {
        ResourceVec {
            lut: self.lut + rhs.lut,
            ff: self.ff + rhs.ff,
            bram: self.bram + rhs.bram,
            dsp: self.dsp + rhs.dsp,
        }
    }
}

impl AddAssign for ResourceVec {
    fn add_assign(&mut self, rhs: ResourceVec) {
        *self = *self + rhs;
    }
}

impl Sub for ResourceVec {
    type Output = ResourceVec;
    fn sub(self, rhs: ResourceVec) -> ResourceVec {
        ResourceVec {
            lut: self.lut - rhs.lut,
            ff: self.ff - rhs.ff,
            bram: self.bram - rhs.bram,
            dsp: self.dsp - rhs.dsp,
        }
    }
}

impl Mul<f64> for ResourceVec {
    type Output = ResourceVec;
    fn mul(self, rhs: f64) -> ResourceVec {
        ResourceVec {
            lut: self.lut * rhs,
            ff: self.ff * rhs,
            bram: self.bram * rhs,
            dsp: self.dsp * rhs,
        }
    }
}

impl Sum for ResourceVec {
    fn sum<I: Iterator<Item = ResourceVec>>(iter: I) -> ResourceVec {
        iter.fold(ResourceVec::zero(), |acc, x| acc + x)
    }
}

impl fmt::Display for ResourceVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lut {:.3}, ff {:.3}, bram {:.3}, dsp {:.3}",
            self.lut, self.ff, self.bram, self.dsp
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors_and_accessors() {
        let r = ResourceVec::new(1.0, 2.0, 3.0, 4.0);
        assert_eq!(r.max_component(), 4.0);
        assert_eq!(ResourceVec::uniform(0.5).lut, 0.5);
        let bd = ResourceVec::bram_dsp(0.1, 0.2);
        assert_eq!(bd.lut, 0.0);
        assert_eq!(bd.dsp, 0.2);
        assert!(ResourceVec::zero().is_valid());
        assert!(!ResourceVec::new(-1.0, 0.0, 0.0, 0.0).is_valid());
    }

    #[test]
    fn arithmetic_behaves_componentwise() {
        let a = ResourceVec::new(1.0, 2.0, 3.0, 4.0);
        let b = ResourceVec::uniform(1.0);
        assert_eq!((a + b).dsp, 5.0);
        assert_eq!((a - b).lut, 0.0);
        assert_eq!((a * 2.0).bram, 6.0);
        let mut c = a;
        c += b;
        assert_eq!(c.ff, 3.0);
        let total: ResourceVec = vec![a, b].into_iter().sum();
        assert_eq!(total, c);
        assert_eq!(a.max(&(b * 10.0)).lut, 10.0);
    }

    #[test]
    fn fits_within_and_fraction() {
        let usage = ResourceVec::new(10.0, 20.0, 30.0, 40.0);
        let capacity = ResourceVec::new(100.0, 100.0, 100.0, 100.0);
        assert!(usage.fits_within(&capacity, 0.0));
        assert!(!capacity.fits_within(&usage, 0.0));
        let frac = usage.fraction_of(&capacity);
        assert!((frac.dsp - 0.4).abs() < 1e-12);
        let zero_cap = ResourceVec::zero();
        assert_eq!(usage.fraction_of(&zero_cap), ResourceVec::zero());
    }

    #[test]
    fn max_copies_within_budget() {
        let per_cu = ResourceVec::bram_dsp(0.10, 0.21);
        let budget = ResourceVec::uniform(0.65);
        // DSP limits: floor(0.65 / 0.21) = 3.
        assert_eq!(per_cu.max_copies_within(&budget), Some(3));
        assert_eq!(ResourceVec::zero().max_copies_within(&budget), None);
    }

    // Regression: the old absolute `+1e-9` epsilon was rounded away on large
    // ratios, under-counting a ratio sitting a relative 5e-10 below an
    // integer; the relative epsilon admits it.
    #[test]
    fn large_ratios_use_a_relative_tolerance() {
        let per_cu = ResourceVec::bram_dsp(0.0, 1.0);
        let budget = ResourceVec::uniform(999_999.999_5);
        assert_eq!(per_cu.max_copies_within(&budget), Some(1_000_000));
    }

    // Regression: ratios beyond u32 range are capped explicitly instead of
    // relying on the silent saturation of the bare `as u32` cast.
    #[test]
    fn huge_ratios_cap_at_u32_max() {
        let per_cu = ResourceVec::bram_dsp(0.0, 1e-30);
        let budget = ResourceVec::uniform(1.0);
        assert_eq!(per_cu.max_copies_within(&budget), Some(u32::MAX));
    }

    #[test]
    fn display_mentions_all_components() {
        let text = ResourceVec::uniform(0.25).to_string();
        for key in ["lut", "ff", "bram", "dsp"] {
            assert!(text.contains(key));
        }
    }

    proptest! {
        #[test]
        fn addition_is_commutative_and_monotone(
            a in proptest::collection::vec(0.0..10.0f64, 4),
            b in proptest::collection::vec(0.0..10.0f64, 4)
        ) {
            let x = ResourceVec::new(a[0], a[1], a[2], a[3]);
            let y = ResourceVec::new(b[0], b[1], b[2], b[3]);
            prop_assert_eq!(x + y, y + x);
            prop_assert!(x.fits_within(&(x + y), 1e-12));
        }

        #[test]
        fn max_copies_is_maximal(
            bram in 0.01..0.5f64, dsp in 0.01..0.5f64, budget in 0.1..1.0f64
        ) {
            let per_cu = ResourceVec::bram_dsp(bram, dsp);
            let cap = ResourceVec::uniform(budget);
            let k = per_cu.max_copies_within(&cap).unwrap();
            prop_assert!((per_cu * k as f64).fits_within(&cap, 1e-6));
            prop_assert!(!(per_cu * (k + 1) as f64).fits_within(&cap, -1e-6));
        }

        /// Tiny per-copy needs: the returned count is still correct within a
        /// relative tolerance (the absolute epsilon of the old code was the
        /// wrong scale for these inputs).
        #[test]
        fn tiny_needs_count_within_relative_tolerance(
            need in 1e-12..1e-6f64, mult in 0.1..10.0f64
        ) {
            let per_cu = ResourceVec::bram_dsp(0.0, need);
            let avail = need * mult;
            let cap = ResourceVec::bram_dsp(0.0, avail);
            let k = per_cu.max_copies_within(&cap).unwrap();
            prop_assert!(k as f64 * need <= avail * (1.0 + 1e-6),
                "k = {k}, need = {need}, avail = {avail}");
            prop_assert!((k + 1) as f64 * need > avail * (1.0 - 1e-6),
                "k = {k}, need = {need}, avail = {avail}");
        }

        /// Huge ratios never wrap or panic: they cap at `u32::MAX`.
        #[test]
        fn huge_ratios_are_capped(
            need in 1e-30..1e-20f64, avail in 0.1..1.0f64
        ) {
            let per_cu = ResourceVec::bram_dsp(need, need);
            let cap = ResourceVec::uniform(avail);
            prop_assert_eq!(per_cu.max_copies_within(&cap), Some(u32::MAX));
        }
    }
}
