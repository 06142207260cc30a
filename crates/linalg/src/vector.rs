//! Dense vector type.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

use crate::LinalgError;

/// A dense column vector of `f64` entries.
///
/// # Example
///
/// ```
/// use mfa_linalg::Vector;
///
/// let v = Vector::from(vec![1.0, 2.0, 2.0]);
/// assert_eq!(v.len(), 3);
/// assert!((v.norm2() - 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Creates a zero vector of length `n`.
    pub fn zeros(n: usize) -> Self {
        Vector { data: vec![0.0; n] }
    }

    /// Creates a vector of length `n` filled with `value`.
    pub fn filled(n: usize, value: f64) -> Self {
        Vector {
            data: vec![value; n],
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the vector has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns entry `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn get(&self, i: usize) -> f64 {
        self.data[i]
    }

    /// Sets entry `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn set(&mut self, i: usize, value: f64) {
        self.data[i] = value;
    }

    /// Borrows the underlying slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the underlying slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Dot product with another vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if lengths differ.
    pub fn dot(&self, other: &Vector) -> Result<f64, LinalgError> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch(format!(
                "dot of lengths {} and {}",
                self.len(),
                other.len()
            )));
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .sum())
    }

    /// Euclidean norm.
    pub fn norm2(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry (infinity norm); zero for an empty vector.
    pub fn norm_inf(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |acc, x| acc.max(x.abs()))
    }

    /// Returns a new vector scaled by `factor`.
    pub fn scaled(&self, factor: f64) -> Vector {
        Vector {
            data: self.data.iter().map(|x| x * factor).collect(),
        }
    }

    /// In-place `self += alpha * other` (BLAS `axpy`).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if lengths differ.
    pub fn axpy(&mut self, alpha: f64, other: &Vector) -> Result<(), LinalgError> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch(format!(
                "axpy of lengths {} and {}",
                self.len(),
                other.len()
            )));
        }
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Returns `true` if every entry is finite (no NaN or ±∞).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Iterator over the entries.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }
}

impl From<Vec<f64>> for Vector {
    fn from(data: Vec<f64>) -> Self {
        Vector { data }
    }
}

impl From<&[f64]> for Vector {
    fn from(data: &[f64]) -> Self {
        Vector {
            data: data.to_vec(),
        }
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Vector {
            data: iter.into_iter().collect(),
        }
    }
}

impl AsRef<[f64]> for Vector {
    fn as_ref(&self) -> &[f64] {
        &self.data
    }
}

impl Index<usize> for Vector {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, x) in self.data.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x:.6}")?;
        }
        write!(f, "]")
    }
}

impl Add<&Vector> for &Vector {
    type Output = Vector;
    fn add(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "vector addition length mismatch");
        Vector {
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub<&Vector> for &Vector {
    type Output = Vector;
    fn sub(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "vector subtraction length mismatch");
        Vector {
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;
    fn mul(self, rhs: f64) -> Vector {
        self.scaled(rhs)
    }
}

impl Neg for &Vector {
    type Output = Vector;
    fn neg(self) -> Vector {
        self.scaled(-1.0)
    }
}

impl AddAssign<&Vector> for Vector {
    fn add_assign(&mut self, rhs: &Vector) {
        assert_eq!(self.len(), rhs.len(), "vector += length mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }
}

impl SubAssign<&Vector> for Vector {
    fn sub_assign(&mut self, rhs: &Vector) {
        assert_eq!(self.len(), rhs.len(), "vector -= length mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a -= b;
        }
    }
}

impl<'a> IntoIterator for &'a Vector {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_and_filled() {
        let z = Vector::zeros(4);
        assert_eq!(z.len(), 4);
        assert_eq!(z.norm2(), 0.0);
        let f = Vector::filled(3, 2.0);
        assert_eq!(f.as_slice(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn dot_and_norm() {
        let a = Vector::from(vec![1.0, 2.0, 3.0]);
        let b = Vector::from(vec![4.0, 5.0, 6.0]);
        assert_eq!(a.dot(&b).unwrap(), 32.0);
        assert!((a.norm2() - 14.0_f64.sqrt()).abs() < 1e-12);
        assert_eq!(a.norm_inf(), 3.0);
    }

    #[test]
    fn dot_dimension_mismatch_errors() {
        let a = Vector::zeros(2);
        let b = Vector::zeros(3);
        assert!(matches!(a.dot(&b), Err(LinalgError::DimensionMismatch(_))));
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut a = Vector::from(vec![1.0, 1.0]);
        let b = Vector::from(vec![2.0, 3.0]);
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.as_slice(), &[2.0, 2.5]);
    }

    #[test]
    fn arithmetic_operators() {
        let a = Vector::from(vec![1.0, 2.0]);
        let b = Vector::from(vec![3.0, 5.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 3.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c.as_slice(), &[4.0, 7.0]);
        c -= &b;
        assert_eq!(c.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn collects_from_iterator() {
        let v: Vector = (0..3).map(|i| i as f64).collect();
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn is_finite_detects_nan() {
        let v = Vector::from(vec![1.0, f64::NAN]);
        assert!(!v.is_finite());
        let w = Vector::from(vec![1.0, 2.0]);
        assert!(w.is_finite());
    }

    #[test]
    fn display_is_nonempty() {
        let v = Vector::from(vec![1.0, -2.5]);
        let s = v.to_string();
        assert!(s.starts_with('[') && s.ends_with(']'));
        assert!(s.contains("-2.5"));
    }

    proptest! {
        #[test]
        fn dot_is_commutative(xs in proptest::collection::vec(-100.0..100.0f64, 1..20)) {
            let ys: Vec<f64> = xs.iter().map(|x| x * 0.5 + 1.0).collect();
            let a = Vector::from(xs);
            let b = Vector::from(ys);
            let ab = a.dot(&b).unwrap();
            let ba = b.dot(&a).unwrap();
            prop_assert!((ab - ba).abs() <= 1e-9 * (1.0 + ab.abs()));
        }

        #[test]
        fn cauchy_schwarz(xs in proptest::collection::vec(-50.0..50.0f64, 1..16),
                          scale in -2.0..2.0f64) {
            let ys: Vec<f64> = xs.iter().rev().map(|x| x * scale).collect();
            let a = Vector::from(xs);
            let b = Vector::from(ys);
            let dot = a.dot(&b).unwrap().abs();
            prop_assert!(dot <= a.norm2() * b.norm2() + 1e-6);
        }

        #[test]
        fn norm_inf_bounds_norm2(xs in proptest::collection::vec(-50.0..50.0f64, 1..16)) {
            let v = Vector::from(xs.clone());
            let n = xs.len() as f64;
            prop_assert!(v.norm_inf() <= v.norm2() + 1e-9);
            prop_assert!(v.norm2() <= n.sqrt() * v.norm_inf() + 1e-9);
        }
    }
}
