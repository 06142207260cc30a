//! Matrix factorizations: LU with partial pivoting, Cholesky, and the
//! reusable [`KktFactorization`] workspace for sequences of closely related
//! symmetric positive-definite systems.

use crate::{LinalgError, Matrix, Vector};

/// Writes the lower-triangular Cholesky factor of `a` into `l`.
///
/// Only the lower triangle of `a` is read and only the lower triangle of `l`
/// is written; `l`'s upper triangle must already be zero. Shared kernel of
/// [`Cholesky::factor`] and [`KktFactorization`].
fn cholesky_lower(a: &Matrix, l: &mut Matrix) -> Result<(), LinalgError> {
    let n = a.rows();
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a.get(i, j);
            for k in 0..j {
                sum -= l.get(i, k) * l.get(j, k);
            }
            if i == j {
                if sum <= 0.0 || !sum.is_finite() {
                    return Err(LinalgError::NotPositiveDefinite { index: i });
                }
                l.set(i, j, sum.sqrt());
            } else {
                l.set(i, j, sum / l.get(j, j));
            }
        }
    }
    Ok(())
}

/// Solves `L Lᵀ x = b` by forward and back substitution.
fn cholesky_solve(l: &Matrix, b: &Vector) -> Result<Vector, LinalgError> {
    let n = l.rows();
    if b.len() != n {
        return Err(LinalgError::DimensionMismatch(format!(
            "system is {n}x{n} but right-hand side has length {}",
            b.len()
        )));
    }
    // Forward substitution: L y = b.
    let mut y = Vector::zeros(n);
    for i in 0..n {
        let mut acc = b.get(i);
        for j in 0..i {
            acc -= l.get(i, j) * y.get(j);
        }
        y.set(i, acc / l.get(i, i));
    }
    // Back substitution: Lᵀ x = y.
    let mut x = Vector::zeros(n);
    for i in (0..n).rev() {
        let mut acc = y.get(i);
        for j in (i + 1)..n {
            acc -= l.get(j, i) * x.get(j);
        }
        x.set(i, acc / l.get(i, i));
    }
    Ok(x)
}

/// LU factorization with partial pivoting of a square matrix.
///
/// Computed by [`Matrix::lu`]; used to solve linear systems `A x = b`.
///
/// # Example
///
/// ```
/// use mfa_linalg::{Matrix, Vector};
///
/// # fn main() -> Result<(), mfa_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]])?;
/// let b = Vector::from(vec![3.0, 5.0]);
/// let x = a.lu()?.solve(&b)?;
/// let r = &a.mul_vec(&x)? - &b;
/// assert!(r.norm_inf() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    /// Combined L (strict lower, unit diagonal implied) and U (upper) factors.
    lu: Matrix,
    /// Row permutation: row `i` of the factored matrix came from `perm[i]` of
    /// the original.
    perm: Vec<usize>,
    /// Sign of the permutation, used for the determinant.
    sign: f64,
}

impl Lu {
    /// Factors the matrix.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::InvalidArgument`] if the matrix is not square or has
    ///   non-finite entries.
    /// * [`LinalgError::Singular`] if a pivot is (numerically) zero.
    pub fn factor(a: &Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::InvalidArgument(format!(
                "LU requires a square matrix, got {}x{}",
                a.rows(),
                a.cols()
            )));
        }
        if !a.is_finite() {
            return Err(LinalgError::InvalidArgument(
                "LU input contains non-finite entries".into(),
            ));
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;

        for col in 0..n {
            // Partial pivoting: pick the row with the largest magnitude in
            // this column at or below the diagonal.
            let mut pivot_row = col;
            let mut pivot_val = lu.get(col, col).abs();
            for r in (col + 1)..n {
                let v = lu.get(r, col).abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < 1e-14 {
                return Err(LinalgError::Singular { pivot: col });
            }
            if pivot_row != col {
                for j in 0..n {
                    let tmp = lu.get(col, j);
                    lu.set(col, j, lu.get(pivot_row, j));
                    lu.set(pivot_row, j, tmp);
                }
                perm.swap(col, pivot_row);
                sign = -sign;
            }
            let pivot = lu.get(col, col);
            for r in (col + 1)..n {
                let factor = lu.get(r, col) / pivot;
                lu.set(r, col, factor);
                for j in (col + 1)..n {
                    lu.add_to(r, j, -factor * lu.get(col, j));
                }
            }
        }
        Ok(Lu { lu, perm, sign })
    }

    /// Solves `A x = b` using the stored factorization.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b` has the wrong length.
    pub fn solve(&self, b: &Vector) -> Result<Vector, LinalgError> {
        let n = self.lu.rows();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch(format!(
                "system is {n}x{n} but right-hand side has length {}",
                b.len()
            )));
        }
        // Apply the permutation, then forward- and back-substitute.
        let mut x = Vector::zeros(n);
        for i in 0..n {
            x.set(i, b.get(self.perm[i]));
        }
        for i in 0..n {
            let mut acc = x.get(i);
            for j in 0..i {
                acc -= self.lu.get(i, j) * x.get(j);
            }
            x.set(i, acc);
        }
        for i in (0..n).rev() {
            let mut acc = x.get(i);
            for j in (i + 1)..n {
                acc -= self.lu.get(i, j) * x.get(j);
            }
            x.set(i, acc / self.lu.get(i, i));
        }
        Ok(x)
    }

    /// Determinant of the original matrix.
    pub fn determinant(&self) -> f64 {
        let n = self.lu.rows();
        let mut det = self.sign;
        for i in 0..n {
            det *= self.lu.get(i, i);
        }
        det
    }
}

/// Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite matrix.
///
/// Computed by [`Matrix::cholesky`]; the factorization of the Newton system
/// Hessian is the inner kernel of the GP interior-point solver.
///
/// # Example
///
/// ```
/// use mfa_linalg::{Matrix, Vector};
///
/// # fn main() -> Result<(), mfa_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
/// let chol = a.cholesky()?;
/// let x = chol.solve(&Vector::from(vec![2.0, 1.0]))?;
/// assert!((&a.mul_vec(&x)? - &Vector::from(vec![2.0, 1.0])).norm_inf() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor, stored densely.
    l: Matrix,
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; symmetry of the upper triangle
    /// is the caller's responsibility (checked loosely).
    ///
    /// # Errors
    ///
    /// * [`LinalgError::InvalidArgument`] if the matrix is not square or has
    ///   non-finite entries.
    /// * [`LinalgError::NotPositiveDefinite`] if a leading minor is not
    ///   positive definite.
    pub fn factor(a: &Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::InvalidArgument(format!(
                "Cholesky requires a square matrix, got {}x{}",
                a.rows(),
                a.cols()
            )));
        }
        if !a.is_finite() {
            return Err(LinalgError::InvalidArgument(
                "Cholesky input contains non-finite entries".into(),
            ));
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n)?;
        cholesky_lower(a, &mut l)?;
        Ok(Cholesky { l })
    }

    /// Solves `A x = b` using the stored factorization.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b` has the wrong length.
    pub fn solve(&self, b: &Vector) -> Result<Vector, LinalgError> {
        cholesky_solve(&self.l, b)
    }

    /// Borrows the lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }
}

/// Validity of the factor held by a [`KktFactorization`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FactorState {
    /// No matrix has been factored yet.
    Empty,
    /// The stored factor matches the stored matrix.
    Factored,
    /// The last update failed; the factor is unusable until a successful
    /// [`KktFactorization::refactor`] or
    /// [`KktFactorization::refresh_diagonal`].
    Stale,
}

/// A reusable Cholesky workspace for sequences of closely related symmetric
/// positive-definite systems — the KKT/Newton systems of an interior-point
/// solve, where consecutive systems share the structural (curvature) part and
/// differ mainly in the diagonal/barrier terms.
///
/// Unlike [`Cholesky`], which allocates a fresh factor per call, this object
/// owns its matrix and factor buffers and refreshes them in place:
///
/// * [`refactor`](Self::refactor) replaces the stored matrix wholesale and
///   refactors (counted as a *factorization*);
/// * [`refresh_diagonal`](Self::refresh_diagonal) perturbs only the stored
///   diagonal — the barrier/ridge update between neighboring solves — and
///   refactors without touching the off-diagonal entries (counted as a
///   *refresh*).
///
/// The [`factorizations`](Self::factorizations) and
/// [`refreshes`](Self::refreshes) counters record *attempts* (a
/// positive-definiteness failure costs the same work as a success), making
/// them machine-independent effort measures; the GP solver surfaces their sum
/// per solve.
///
/// After a failed update the factor is stale: [`solve`](Self::solve) refuses
/// with [`LinalgError::InvalidArgument`] until a later update succeeds. The
/// intended recovery is a diagonal refresh with a positive ridge, mirroring
/// the interior-point fallback.
///
/// # Example
///
/// ```
/// use mfa_linalg::{KktFactorization, Matrix, Vector};
///
/// # fn main() -> Result<(), mfa_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
/// let mut kkt = KktFactorization::new(2)?;
/// kkt.refactor(&a)?;
/// let x = kkt.solve(&Vector::from(vec![1.0, 2.0]))?;
/// assert!((&a.mul_vec(&x)? - &Vector::from(vec![1.0, 2.0])).norm_inf() < 1e-12);
/// // A barrier step only strengthens the diagonal: refresh in place.
/// kkt.refresh_diagonal(&[0.5, 0.5])?;
/// assert_eq!(kkt.factorizations(), 1);
/// assert_eq!(kkt.refreshes(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct KktFactorization {
    /// The currently stored matrix (lower triangle authoritative).
    a: Matrix,
    /// Lower-triangular Cholesky factor of `a` (when `state == Factored`).
    l: Matrix,
    state: FactorState,
    factorizations: usize,
    refreshes: usize,
}

impl KktFactorization {
    /// Creates an unfactored `n × n` workspace. No numerical work happens
    /// until the first [`refactor`](Self::refactor).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if `n` is zero.
    pub fn new(n: usize) -> Result<Self, LinalgError> {
        if n == 0 {
            return Err(LinalgError::InvalidArgument(
                "KKT factorization needs at least one unknown".into(),
            ));
        }
        Ok(KktFactorization {
            a: Matrix::zeros(n, n)?,
            l: Matrix::zeros(n, n)?,
            state: FactorState::Empty,
            factorizations: 0,
            refreshes: 0,
        })
    }

    /// Replaces the stored matrix with `a` and factors it in place,
    /// incrementing the factorization counter. The workspace is resized if
    /// `a`'s dimension differs from the current one.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::InvalidArgument`] if `a` is not square or has
    ///   non-finite entries.
    /// * [`LinalgError::NotPositiveDefinite`] if a leading minor is not
    ///   positive definite; the factor is stale afterwards (recover with
    ///   [`refresh_diagonal`](Self::refresh_diagonal)).
    pub fn refactor(&mut self, a: &Matrix) -> Result<(), LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::InvalidArgument(format!(
                "KKT factorization requires a square matrix, got {}x{}",
                a.rows(),
                a.cols()
            )));
        }
        if !a.is_finite() {
            return Err(LinalgError::InvalidArgument(
                "KKT factorization input contains non-finite entries".into(),
            ));
        }
        if a.rows() != self.a.rows() {
            self.a = a.clone();
            self.l = Matrix::zeros(a.rows(), a.rows())?;
        } else {
            self.a.copy_from(a);
        }
        self.factorizations += 1;
        self.state = FactorState::Stale;
        cholesky_lower(&self.a, &mut self.l)?;
        self.state = FactorState::Factored;
        Ok(())
    }

    /// Adds `delta[i]` to the `i`-th diagonal entry of the stored matrix and
    /// refactors in place, incrementing the refresh counter. This is the
    /// cheap path for neighboring interior-point solves, where only the
    /// barrier (diagonal) terms move; off-diagonal entries are untouched and
    /// no buffer is reallocated.
    ///
    /// Deltas accumulate: two refreshes with ridge `r` leave the diagonal at
    /// `+2r`, matching the escalating-ridge recovery loop of the GP solver.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::InvalidArgument`] if nothing has been factored yet or
    ///   `delta` contains non-finite entries.
    /// * [`LinalgError::DimensionMismatch`] if `delta`'s length is not the
    ///   system dimension.
    /// * [`LinalgError::NotPositiveDefinite`] if the perturbed matrix is not
    ///   positive definite; the factor stays stale.
    pub fn refresh_diagonal(&mut self, delta: &[f64]) -> Result<(), LinalgError> {
        if self.state == FactorState::Empty {
            return Err(LinalgError::InvalidArgument(
                "refresh_diagonal needs a previously factored matrix".into(),
            ));
        }
        let n = self.a.rows();
        if delta.len() != n {
            return Err(LinalgError::DimensionMismatch(format!(
                "system is {n}x{n} but the diagonal delta has length {}",
                delta.len()
            )));
        }
        if delta.iter().any(|d| !d.is_finite()) {
            return Err(LinalgError::InvalidArgument(
                "diagonal delta contains non-finite entries".into(),
            ));
        }
        for (i, d) in delta.iter().enumerate() {
            self.a.add_to(i, i, *d);
        }
        self.refreshes += 1;
        self.state = FactorState::Stale;
        cholesky_lower(&self.a, &mut self.l)?;
        self.state = FactorState::Factored;
        Ok(())
    }

    /// Solves `A x = b` with the current factor.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::InvalidArgument`] if there is no valid factor (never
    ///   factored, or the last update failed).
    /// * [`LinalgError::DimensionMismatch`] if `b` has the wrong length.
    pub fn solve(&self, b: &Vector) -> Result<Vector, LinalgError> {
        match self.state {
            FactorState::Factored => cholesky_solve(&self.l, b),
            FactorState::Empty => Err(LinalgError::InvalidArgument(
                "no matrix has been factored yet".into(),
            )),
            FactorState::Stale => Err(LinalgError::InvalidArgument(
                "factorization is stale after a failed update".into(),
            )),
        }
    }

    /// Number of full factorizations attempted (including failed ones — a
    /// positive-definiteness failure costs the same work).
    pub fn factorizations(&self) -> usize {
        self.factorizations
    }

    /// Number of in-place diagonal refreshes attempted.
    pub fn refreshes(&self) -> usize {
        self.refreshes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn random_spd(n: usize, entries: &[f64]) -> Matrix {
        // Build A = Bᵀ B + n·I which is symmetric positive definite.
        let rows: Vec<&[f64]> = entries.chunks(n).take(n).collect();
        let b = Matrix::from_rows(&rows).unwrap();
        let mut a = b.transposed().mul(&b).unwrap();
        for i in 0..n {
            a.add_to(i, i, n as f64);
        }
        a
    }

    #[test]
    fn lu_solves_small_system() {
        let a =
            Matrix::from_rows(&[&[3.0, 2.0, -1.0], &[2.0, -2.0, 4.0], &[-1.0, 0.5, -1.0]]).unwrap();
        let b = Vector::from(vec![1.0, -2.0, 0.0]);
        let x = a.solve(&b).unwrap();
        let expected = Vector::from(vec![1.0, -2.0, -2.0]);
        assert!((&x - &expected).norm_inf() < 1e-10);
    }

    #[test]
    fn lu_rejects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(a.lu(), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn lu_rejects_non_square_and_nan() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]).unwrap();
        assert!(a.lu().is_err());
        let b = Matrix::from_rows(&[&[1.0, f64::NAN], &[0.0, 1.0]]).unwrap();
        assert!(b.lu().is_err());
    }

    #[test]
    fn lu_determinant_of_identity_is_one() {
        let a = Matrix::identity(5);
        assert!((a.lu().unwrap().determinant() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lu_determinant_matches_2x2_formula() {
        let a = Matrix::from_rows(&[&[3.0, 7.0], &[2.0, 5.0]]).unwrap();
        assert!((a.lu().unwrap().determinant() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn cholesky_solves_spd_system() {
        let a = Matrix::from_rows(&[&[4.0, 2.0, 0.0], &[2.0, 5.0, 1.0], &[0.0, 1.0, 3.0]]).unwrap();
        let b = Vector::from(vec![1.0, 2.0, 3.0]);
        let x = a.cholesky().unwrap().solve(&b).unwrap();
        assert!((&a.mul_vec(&x).unwrap() - &b).norm_inf() < 1e-10);
    }

    #[test]
    fn cholesky_rejects_indefinite_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(
            a.cholesky(),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn cholesky_factor_reconstructs_matrix() {
        let a = Matrix::from_rows(&[&[6.0, 2.0], &[2.0, 4.0]]).unwrap();
        let chol = a.cholesky().unwrap();
        let l = chol.l();
        let reconstructed = l.mul(&l.transposed()).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!((reconstructed.get(i, j) - a.get(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn solve_checks_rhs_length() {
        let a = Matrix::identity(3);
        let b = Vector::zeros(2);
        assert!(a.lu().unwrap().solve(&b).is_err());
        assert!(a.cholesky().unwrap().solve(&b).is_err());
    }

    #[test]
    fn kkt_solves_and_counts_like_cholesky() {
        let a = Matrix::from_rows(&[&[4.0, 2.0, 0.0], &[2.0, 5.0, 1.0], &[0.0, 1.0, 3.0]]).unwrap();
        let b = Vector::from(vec![1.0, 2.0, 3.0]);
        let mut kkt = KktFactorization::new(3).unwrap();
        assert_eq!(kkt.a.rows(), 3);
        // Solving before the first refactor is an error, not a panic.
        assert!(kkt.solve(&b).is_err());
        kkt.refactor(&a).unwrap();
        let x = kkt.solve(&b).unwrap();
        let reference = a.cholesky().unwrap().solve(&b).unwrap();
        assert!((&x - &reference).norm_inf() < 1e-14);
        assert_eq!(kkt.factorizations(), 1);
        assert_eq!(kkt.refreshes(), 0);
    }

    #[test]
    fn kkt_diagonal_refresh_matches_a_full_refactor() {
        let a = Matrix::from_rows(&[&[4.0, 2.0, 0.0], &[2.0, 5.0, 1.0], &[0.0, 1.0, 3.0]]).unwrap();
        let b = Vector::from(vec![1.0, -1.0, 2.0]);
        let mut kkt = KktFactorization::new(3).unwrap();
        kkt.refactor(&a).unwrap();
        kkt.refresh_diagonal(&[0.5, 1.0, 0.25]).unwrap();
        // Reference: factor the perturbed matrix from scratch.
        let mut perturbed = a.clone();
        for (i, d) in [0.5, 1.0, 0.25].iter().enumerate() {
            perturbed.add_to(i, i, *d);
        }
        let x = kkt.solve(&b).unwrap();
        let reference = perturbed.cholesky().unwrap().solve(&b).unwrap();
        assert!((&x - &reference).norm_inf() < 1e-14);
        assert_eq!(kkt.factorizations(), 1);
        assert_eq!(kkt.refreshes(), 1);
        // Deltas accumulate across refreshes.
        kkt.refresh_diagonal(&[0.5, 1.0, 0.25]).unwrap();
        for (i, d) in [0.5, 1.0, 0.25].iter().enumerate() {
            perturbed.add_to(i, i, *d);
        }
        let x = kkt.solve(&b).unwrap();
        let reference = perturbed.cholesky().unwrap().solve(&b).unwrap();
        assert!((&x - &reference).norm_inf() < 1e-14);
        assert_eq!(kkt.refreshes(), 2);
    }

    #[test]
    fn kkt_recovers_from_an_indefinite_matrix_via_ridge_refresh() {
        // Indefinite: eigenvalues 3 and -1.
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        let mut kkt = KktFactorization::new(2).unwrap();
        assert!(matches!(
            kkt.refactor(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
        // Stale factor refuses to solve.
        assert!(kkt.solve(&Vector::zeros(2)).is_err());
        // A large enough ridge restores positive definiteness in place.
        kkt.refresh_diagonal(&[2.0, 2.0]).unwrap();
        let b = Vector::from(vec![1.0, 1.0]);
        let x = kkt.solve(&b).unwrap();
        let mut ridged = a.clone();
        ridged.add_to(0, 0, 2.0);
        ridged.add_to(1, 1, 2.0);
        assert!((&ridged.mul_vec(&x).unwrap() - &b).norm_inf() < 1e-12);
        // Both the failed factorization and the refresh were counted.
        assert_eq!(kkt.factorizations(), 1);
        assert_eq!(kkt.refreshes(), 1);
    }

    #[test]
    fn kkt_refactor_resizes_the_workspace() {
        let mut kkt = KktFactorization::new(2).unwrap();
        let a3 =
            Matrix::from_rows(&[&[4.0, 1.0, 0.0], &[1.0, 4.0, 1.0], &[0.0, 1.0, 4.0]]).unwrap();
        kkt.refactor(&a3).unwrap();
        assert_eq!(kkt.a.rows(), 3);
        let b = Vector::from(vec![1.0, 2.0, 3.0]);
        let x = kkt.solve(&b).unwrap();
        assert!((&a3.mul_vec(&x).unwrap() - &b).norm_inf() < 1e-12);
    }

    #[test]
    fn kkt_validates_inputs() {
        assert!(KktFactorization::new(0).is_err());
        let mut kkt = KktFactorization::new(2).unwrap();
        // Refresh before any factorization is an error.
        assert!(kkt.refresh_diagonal(&[0.1, 0.1]).is_err());
        let rect = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]).unwrap();
        assert!(kkt.refactor(&rect).is_err());
        let nan = Matrix::from_rows(&[&[1.0, f64::NAN], &[0.0, 1.0]]).unwrap();
        assert!(kkt.refactor(&nan).is_err());
        let spd = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 2.0]]).unwrap();
        kkt.refactor(&spd).unwrap();
        assert!(kkt.refresh_diagonal(&[0.1]).is_err());
        assert!(kkt.refresh_diagonal(&[f64::NAN, 0.0]).is_err());
        assert!(kkt.solve(&Vector::zeros(3)).is_err());
    }

    proptest! {
        #[test]
        fn kkt_refresh_agrees_with_scratch_factorization(
            entries in proptest::collection::vec(-3.0..3.0f64, 16..=16),
            delta in proptest::collection::vec(0.0..2.0f64, 4..=4),
            rhs in proptest::collection::vec(-5.0..5.0f64, 4..=4)
        ) {
            let a = random_spd(4, &entries);
            let b = Vector::from(rhs);
            let mut kkt = KktFactorization::new(4).unwrap();
            kkt.refactor(&a).unwrap();
            kkt.refresh_diagonal(&delta).unwrap();
            let mut perturbed = a.clone();
            for (i, d) in delta.iter().enumerate() {
                perturbed.add_to(i, i, *d);
            }
            let x = kkt.solve(&b).unwrap();
            let reference = perturbed.cholesky().unwrap().solve(&b).unwrap();
            prop_assert!((&x - &reference).norm_inf() < 1e-10);
        }

        #[test]
        fn lu_and_cholesky_agree_on_spd_systems(
            entries in proptest::collection::vec(-3.0..3.0f64, 16..=16),
            rhs in proptest::collection::vec(-5.0..5.0f64, 4..=4)
        ) {
            let a = random_spd(4, &entries);
            let b = Vector::from(rhs);
            let x_lu = a.lu().unwrap().solve(&b).unwrap();
            let x_ch = a.cholesky().unwrap().solve(&b).unwrap();
            prop_assert!((&x_lu - &x_ch).norm_inf() < 1e-8);
        }

        #[test]
        fn lu_solution_residual_is_small(
            entries in proptest::collection::vec(-3.0..3.0f64, 9..=9),
            rhs in proptest::collection::vec(-5.0..5.0f64, 3..=3)
        ) {
            let a = random_spd(3, &entries);
            let b = Vector::from(rhs);
            let x = a.solve(&b).unwrap();
            let residual = (&a.mul_vec(&x).unwrap() - &b).norm_inf();
            prop_assert!(residual < 1e-8, "residual {residual}");
        }
    }
}
