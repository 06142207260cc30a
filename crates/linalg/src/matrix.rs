//! Dense row-major matrix type.

use std::fmt;

use crate::factor::{Cholesky, Lu};
use crate::{LinalgError, Vector};

/// A dense row-major matrix of `f64` entries.
///
/// # Example
///
/// ```
/// use mfa_linalg::{Matrix, Vector};
///
/// # fn main() -> Result<(), mfa_linalg::LinalgError> {
/// let a = Matrix::identity(3);
/// let x = Vector::from(vec![1.0, 2.0, 3.0]);
/// assert_eq!(a.mul_vec(&x)?, x);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Result<Self, LinalgError> {
        if rows == 0 || cols == 0 {
            return Err(LinalgError::InvalidArgument(format!(
                "matrix dimensions must be nonzero, got {rows}x{cols}"
            )));
        }
        Ok(Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        })
    }

    /// Creates the `n × n` identity matrix.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n).expect("identity dimension must be nonzero");
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if `rows` is empty or the rows
    /// have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(LinalgError::InvalidArgument(
                "from_rows requires at least one nonempty row".into(),
            ));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(LinalgError::InvalidArgument(format!(
                    "row {i} has length {} but expected {cols}",
                    r.len()
                )));
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns entry `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        self.data[i * self.cols + j]
    }

    /// Sets entry `(i, j)` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        self.data[i * self.cols + j] = value;
    }

    /// Adds `value` to entry `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn add_to(&mut self, i: usize, j: usize, value: f64) {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        self.data[i * self.cols + j] += value;
    }

    /// Copies `other`'s entries into this matrix without reallocating.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn copy_from(&mut self, other: &Matrix) {
        assert!(
            self.rows == other.rows && self.cols == other.cols,
            "copy_from requires matching shapes"
        );
        self.data.copy_from_slice(&other.data);
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &Vector) -> Result<Vector, LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch(format!(
                "matrix is {}x{} but vector has length {}",
                self.rows,
                self.cols,
                x.len()
            )));
        }
        let mut out = Vector::zeros(self.rows);
        for i in 0..self.rows {
            let row = self.row(i);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x.iter()) {
                acc += a * b;
            }
            out.set(i, acc);
        }
        Ok(out)
    }

    /// Matrix–matrix product `A B`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `self.cols() != other.rows()`.
    pub fn mul(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch(format!(
                "{}x{} times {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let mut out = Matrix::zeros(self.rows, other.cols)?;
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.get(i, k);
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out.add_to(i, j, aik * other.get(k, j));
                }
            }
        }
        Ok(out)
    }

    /// Returns the transpose of the matrix.
    pub fn transposed(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows).expect("nonzero dims");
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Returns `true` if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// LU factorization with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] for non-square matrices and
    /// [`LinalgError::Singular`] if a zero pivot is encountered.
    pub fn lu(&self) -> Result<Lu, LinalgError> {
        Lu::factor(self)
    }

    /// Cholesky factorization (`A = L Lᵀ`) of a symmetric positive-definite
    /// matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] if a nonpositive pivot is
    /// encountered, and [`LinalgError::InvalidArgument`] for non-square input.
    pub fn cholesky(&self) -> Result<Cholesky, LinalgError> {
        Cholesky::factor(self)
    }

    /// Solves `A x = b` via LU factorization.
    ///
    /// # Errors
    ///
    /// Propagates factorization errors; see [`Matrix::lu`].
    pub fn solve(&self, b: &Vector) -> Result<Vector, LinalgError> {
        self.lu()?.solve(b)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.6}", self.get(i, j))?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_rejects_empty_dimensions() {
        assert!(Matrix::zeros(0, 3).is_err());
        assert!(Matrix::zeros(3, 0).is_err());
    }

    #[test]
    fn from_rows_validates_shape() {
        assert!(Matrix::from_rows(&[]).is_err());
        assert!(Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).is_err());
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    fn identity_times_vector_is_identity() {
        let a = Matrix::identity(4);
        let x = Vector::from(vec![1.0, -2.0, 3.0, 0.5]);
        assert_eq!(a.mul_vec(&x).unwrap(), x);
    }

    #[test]
    fn mul_vec_checks_dimensions() {
        let a = Matrix::identity(3);
        let x = Vector::zeros(2);
        assert!(a.mul_vec(&x).is_err());
    }

    #[test]
    fn matrix_multiplication_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.mul(&b).unwrap();
        assert_eq!(c.get(0, 0), 19.0);
        assert_eq!(c.get(0, 1), 22.0);
        assert_eq!(c.get(1, 0), 43.0);
        assert_eq!(c.get(1, 1), 50.0);
    }

    #[test]
    fn transpose_roundtrips() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let t = a.transposed();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.transposed(), a);
    }

    proptest! {
        #[test]
        fn transpose_is_involutive(
            entries in proptest::collection::vec(-10.0..10.0f64, 12..=12)
        ) {
            let rows: Vec<&[f64]> = entries.chunks(4).collect();
            let a = Matrix::from_rows(&rows).unwrap();
            prop_assert_eq!(a.transposed().transposed(), a);
        }
    }
}
