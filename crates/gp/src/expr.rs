//! Monomial and posynomial expressions over positive variables.

use std::fmt;

use crate::model::GpVarId;

/// A monomial `c · Π xⱼ^{aⱼ}` with a strictly positive coefficient `c`.
///
/// Exponents may be any real number (positive, negative, fractional).
#[derive(Debug, Clone, PartialEq)]
pub struct Monomial {
    coeff: f64,
    /// `(variable, exponent)` pairs, at most one entry per variable.
    exponents: Vec<(GpVarId, f64)>,
}

impl Monomial {
    /// Creates a monomial from a coefficient and `(variable, exponent)` pairs.
    ///
    /// Duplicate variables have their exponents summed; zero exponents are
    /// dropped.
    ///
    /// # Panics
    ///
    /// Panics if `coeff` is not strictly positive and finite (posynomial
    /// algebra requires positive coefficients). Use
    /// [`Monomial::try_new`] for a fallible constructor.
    pub fn new(coeff: f64, exponents: &[(GpVarId, f64)]) -> Self {
        Monomial::try_new(coeff, exponents)
            .expect("monomial coefficient must be strictly positive and finite")
    }

    /// Fallible variant of [`Monomial::new`].
    ///
    /// Returns `None` if `coeff` is not strictly positive and finite or an
    /// exponent is not finite.
    pub fn try_new(coeff: f64, exponents: &[(GpVarId, f64)]) -> Option<Self> {
        if !(coeff.is_finite() && coeff > 0.0) {
            return None;
        }
        let mut combined: Vec<(GpVarId, f64)> = Vec::with_capacity(exponents.len());
        for &(v, e) in exponents {
            if !e.is_finite() {
                return None;
            }
            match combined.iter_mut().find(|(existing, _)| *existing == v) {
                Some((_, acc)) => *acc += e,
                None => combined.push((v, e)),
            }
        }
        combined.retain(|&(_, e)| e != 0.0);
        combined.sort_by_key(|&(v, _)| v);
        Some(Monomial {
            coeff,
            exponents: combined,
        })
    }

    /// A constant monomial.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not strictly positive and finite.
    pub fn constant(value: f64) -> Self {
        Monomial::new(value, &[])
    }

    /// The coefficient `c`.
    pub fn coeff(&self) -> f64 {
        self.coeff
    }

    /// The `(variable, exponent)` pairs, sorted by variable.
    pub fn exponents(&self) -> &[(GpVarId, f64)] {
        &self.exponents
    }

    /// Evaluates the monomial at the given variable assignment.
    ///
    /// `values[v.index()]` must be the (positive) value of variable `v`.
    ///
    /// # Panics
    ///
    /// Panics if `values` is too short.
    pub fn eval(&self, values: &[f64]) -> f64 {
        let mut acc = self.coeff;
        for &(v, e) in &self.exponents {
            acc *= values[v.index()].powf(e);
        }
        acc
    }

    /// Product of two monomials.
    pub fn mul(&self, other: &Monomial) -> Monomial {
        let mut exps = self.exponents.clone();
        for &(v, e) in &other.exponents {
            match exps.iter_mut().find(|(existing, _)| *existing == v) {
                Some((_, acc)) => *acc += e,
                None => exps.push((v, e)),
            }
        }
        exps.retain(|&(_, e)| e != 0.0);
        exps.sort_by_key(|&(v, _)| v);
        Monomial {
            coeff: self.coeff * other.coeff,
            exponents: exps,
        }
    }

    /// Monomial raised to a power (valid for any real exponent).
    pub fn powf(&self, power: f64) -> Monomial {
        Monomial {
            coeff: self.coeff.powf(power),
            exponents: self
                .exponents
                .iter()
                .map(|&(v, e)| (v, e * power))
                .filter(|&(_, e)| e != 0.0)
                .collect(),
        }
    }

    /// Largest variable index referenced, if any.
    pub fn max_var_index(&self) -> Option<usize> {
        self.exponents.iter().map(|&(v, _)| v.index()).max()
    }
}

impl fmt::Display for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.coeff)?;
        for &(v, e) in &self.exponents {
            write!(f, "·x{}^{e:.3}", v.index())?;
        }
        Ok(())
    }
}

/// A posynomial: a sum of [`Monomial`]s.
///
/// The empty posynomial (zero terms) is allowed during construction but is
/// rejected by the model validation since `0 ≤ 1` constraints and zero
/// objectives are not meaningful GPs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Posynomial {
    terms: Vec<Monomial>,
}

impl Posynomial {
    /// Creates an empty posynomial (no terms).
    pub fn new() -> Self {
        Posynomial { terms: Vec::new() }
    }

    /// Creates a posynomial consisting of a single monomial
    /// `coeff · Π x^{e}`.
    ///
    /// # Panics
    ///
    /// Panics if `coeff` is not strictly positive and finite.
    pub fn monomial(coeff: f64, exponents: &[(GpVarId, f64)]) -> Self {
        Posynomial {
            terms: vec![Monomial::new(coeff, exponents)],
        }
    }

    /// Creates a constant posynomial.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not strictly positive and finite.
    pub fn constant(value: f64) -> Self {
        Posynomial {
            terms: vec![Monomial::constant(value)],
        }
    }

    /// Adds a monomial term.
    pub fn push(&mut self, term: Monomial) {
        self.terms.push(term);
    }

    /// Adds a monomial term, builder style.
    #[must_use]
    pub fn with_term(mut self, term: Monomial) -> Self {
        self.push(term);
        self
    }

    /// The monomial terms.
    pub fn terms(&self) -> &[Monomial] {
        &self.terms
    }

    /// Number of terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Returns `true` if there are no terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Evaluates the posynomial at the given variable assignment.
    ///
    /// # Panics
    ///
    /// Panics if `values` is too short for some referenced variable.
    pub fn eval(&self, values: &[f64]) -> f64 {
        self.terms.iter().map(|t| t.eval(values)).sum()
    }

    /// Sum of two posynomials.
    pub fn add(&self, other: &Posynomial) -> Posynomial {
        let mut terms = self.terms.clone();
        terms.extend(other.terms.iter().cloned());
        Posynomial { terms }
    }

    /// Product with a monomial (posynomials are closed under this).
    pub fn mul_monomial(&self, m: &Monomial) -> Posynomial {
        Posynomial {
            terms: self.terms.iter().map(|t| t.mul(m)).collect(),
        }
    }

    /// Multiplies every coefficient by a positive scalar.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive and finite.
    pub fn scaled(&self, factor: f64) -> Posynomial {
        self.mul_monomial(&Monomial::constant(factor))
    }

    /// Largest variable index referenced, if any.
    pub fn max_var_index(&self) -> Option<usize> {
        self.terms.iter().filter_map(Monomial::max_var_index).max()
    }
}

impl From<Monomial> for Posynomial {
    fn from(m: Monomial) -> Self {
        Posynomial { terms: vec![m] }
    }
}

impl FromIterator<Monomial> for Posynomial {
    fn from_iter<I: IntoIterator<Item = Monomial>>(iter: I) -> Self {
        Posynomial {
            terms: iter.into_iter().collect(),
        }
    }
}

impl fmt::Display for Posynomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "0");
        }
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GpVarId;
    use proptest::prelude::*;

    fn v(i: usize) -> GpVarId {
        GpVarId::from_index(i)
    }

    #[test]
    fn monomial_combines_duplicate_variables() {
        let m = Monomial::new(2.0, &[(v(0), 1.0), (v(0), 2.0), (v(1), -1.0)]);
        assert_eq!(m.exponents(), &[(v(0), 3.0), (v(1), -1.0)]);
        assert_eq!(m.coeff(), 2.0);
    }

    #[test]
    fn monomial_rejects_nonpositive_coefficient() {
        assert!(Monomial::try_new(0.0, &[]).is_none());
        assert!(Monomial::try_new(-1.0, &[]).is_none());
        assert!(Monomial::try_new(f64::NAN, &[]).is_none());
        assert!(Monomial::try_new(1.0, &[(v(0), f64::INFINITY)]).is_none());
    }

    #[test]
    fn monomial_eval_matches_formula() {
        let m = Monomial::new(3.0, &[(v(0), 2.0), (v(1), -1.0)]);
        // 3 · 2² · 4⁻¹ = 3.
        assert!((m.eval(&[2.0, 4.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn monomial_mul_and_pow() {
        let a = Monomial::new(2.0, &[(v(0), 1.0)]);
        let b = Monomial::new(3.0, &[(v(0), 2.0), (v(1), 1.0)]);
        let ab = a.mul(&b);
        assert_eq!(ab.coeff(), 6.0);
        assert_eq!(ab.exponents(), &[(v(0), 3.0), (v(1), 1.0)]);
        let sq = a.powf(2.0);
        assert_eq!(sq.coeff(), 4.0);
        assert_eq!(sq.exponents(), &[(v(0), 2.0)]);
        // Inverse of a monomial is a monomial.
        let inv = b.powf(-1.0);
        assert!((inv.eval(&[2.0, 5.0]) * b.eval(&[2.0, 5.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn posynomial_eval_is_sum_of_terms() {
        let p =
            Posynomial::monomial(1.0, &[(v(0), 1.0)]).with_term(Monomial::new(2.0, &[(v(1), 2.0)]));
        assert!((p.eval(&[3.0, 2.0]) - 11.0).abs() < 1e-12);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn posynomial_algebra() {
        let a = Posynomial::monomial(1.0, &[(v(0), 1.0)]);
        let b = Posynomial::monomial(2.0, &[(v(1), 1.0)]);
        let sum = a.add(&b);
        assert_eq!(sum.len(), 2);
        let scaled = sum.scaled(3.0);
        assert!((scaled.eval(&[1.0, 1.0]) - 9.0).abs() < 1e-12);
        let shifted = sum.mul_monomial(&Monomial::new(1.0, &[(v(0), -1.0)]));
        assert!((shifted.eval(&[2.0, 4.0]) - (1.0 + 2.0 * 4.0 / 2.0)).abs() < 1e-12);
    }

    #[test]
    fn max_var_index_reports_largest_reference() {
        let p = Posynomial::monomial(1.0, &[(v(3), 1.0)])
            .with_term(Monomial::new(1.0, &[(v(7), -2.0)]));
        assert_eq!(p.max_var_index(), Some(7));
        assert_eq!(Posynomial::constant(1.0).max_var_index(), None);
        assert_eq!(Posynomial::new().max_var_index(), None);
    }

    #[test]
    fn display_shows_terms() {
        let p = Posynomial::monomial(2.0, &[(v(0), 1.0)]).with_term(Monomial::constant(1.0));
        let text = p.to_string();
        assert!(text.contains(" + "));
        assert!(text.contains("x0"));
        assert_eq!(Posynomial::new().to_string(), "0");
    }

    proptest! {
        #[test]
        fn monomial_product_evaluates_to_product_of_evals(
            c1 in 0.1..10.0f64, c2 in 0.1..10.0f64,
            e1 in -3.0..3.0f64, e2 in -3.0..3.0f64,
            x in 0.2..5.0f64, y in 0.2..5.0f64
        ) {
            let a = Monomial::new(c1, &[(v(0), e1)]);
            let b = Monomial::new(c2, &[(v(0), e2), (v(1), 1.0)]);
            let vals = [x, y];
            let lhs = a.mul(&b).eval(&vals);
            let rhs = a.eval(&vals) * b.eval(&vals);
            prop_assert!((lhs - rhs).abs() <= 1e-9 * rhs.abs().max(1.0));
        }

        #[test]
        fn posynomial_values_are_positive(
            coeffs in proptest::collection::vec(0.1..5.0f64, 1..6),
            x in 0.1..10.0f64
        ) {
            let p: Posynomial = coeffs
                .iter()
                .enumerate()
                .map(|(i, &c)| Monomial::new(c, &[(v(0), i as f64 - 2.0)]))
                .collect();
            prop_assert!(p.eval(&[x]) > 0.0);
        }
    }
}
