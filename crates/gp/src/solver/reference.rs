//! The barrier evaluation as it stood before each row was evaluated once per
//! Newton step: a dense gradient buffer per row, every log-sum-exp computed
//! twice per Newton step and twice per line-search trial, and `exp`/`ln` on
//! affine rows too. Under `cfg(test)` every Newton step and every
//! line-search trial of the solver checks its φ, ∇φ, ∇²φ and trial value
//! against this reference, bit for bit.

use mfa_linalg::{Matrix, Vector};

use super::{same_bits, ConvexProgram, LogSumExp, Workspace};

fn log_sum_exp(zs: &[f64]) -> f64 {
    let max = zs.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
    if !max.is_finite() {
        return max;
    }
    max + zs.iter().map(|z| (z - max).exp()).sum::<f64>().ln()
}

impl LogSumExp {
    fn reference_value(&self, y: &Vector) -> f64 {
        let zs: Vec<f64> = self
            .terms
            .iter()
            .map(|(a, b)| a.iter().map(|&(j, e)| e * y.get(j)).sum::<f64>() + b)
            .collect();
        log_sum_exp(&zs)
    }

    fn reference_accumulate(
        &self,
        y: &Vector,
        grad_scale: f64,
        grad: &mut Vector,
        hess: (&mut Matrix, f64, f64),
    ) -> f64 {
        let zs: Vec<f64> = self
            .terms
            .iter()
            .map(|(a, b)| a.iter().map(|&(j, e)| e * y.get(j)).sum::<f64>() + b)
            .collect();
        let value = log_sum_exp(&zs);
        let weights: Vec<f64> = zs.iter().map(|z| (z - value).exp()).collect();
        let n = y.len();
        let mut local_grad = vec![0.0; n];
        for ((a, _), w) in self.terms.iter().zip(weights.iter()) {
            for &(j, e) in a {
                local_grad[j] += w * e;
            }
        }
        if grad_scale != 0.0 {
            for j in 0..n {
                grad[j] += grad_scale * local_grad[j];
            }
        }
        let (h, curvature_scale, rank_one_scale) = hess;
        let affine = self.terms.len() == 1;
        if curvature_scale != 0.0 && !affine {
            for ((a, _), w) in self.terms.iter().zip(weights.iter()) {
                for &(j1, e1) in a {
                    for &(j2, e2) in a {
                        h.add_to(j1, j2, curvature_scale * w * e1 * e2);
                    }
                }
            }
        }
        let combined = rank_one_scale - if affine { 0.0 } else { curvature_scale };
        if combined != 0.0 {
            for j1 in 0..n {
                if local_grad[j1] == 0.0 {
                    continue;
                }
                for j2 in 0..n {
                    h.add_to(j1, j2, combined * local_grad[j1] * local_grad[j2]);
                }
            }
        }
        value
    }
}

impl ConvexProgram {
    fn reference_barrier_value(&self, y: &Vector, t: f64) -> Option<f64> {
        if !self.constraints.iter().all(|c| c.reference_value(y) < 0.0) {
            return None;
        }
        let mut phi = t * self.objective.reference_value(y);
        for c in &self.constraints {
            let v = c.reference_value(y);
            if v >= 0.0 {
                return Some(f64::INFINITY);
            }
            phi -= (-v).ln();
        }
        Some(phi)
    }

    fn reference_barrier_derivatives(&self, y: &Vector, t: f64) -> (f64, Vector, Matrix) {
        let n = self.n;
        let mut grad = Vector::zeros(n);
        let mut hess = Matrix::zeros(n, n).unwrap();
        let f0 = self
            .objective
            .reference_accumulate(y, t, &mut grad, (&mut hess, t, 0.0));
        let mut phi = t * f0;
        for c in &self.constraints {
            let value = c.reference_value(y);
            assert!(value < 0.0, "barrier evaluated at an infeasible point");
            let inv = 1.0 / (-value);
            c.reference_accumulate(y, inv, &mut grad, (&mut hess, inv, inv * inv));
            phi -= (-value).ln();
        }
        (phi, grad, hess)
    }

    /// Panics unless the workspace's `∇φ`, `∇²φ` and the returned `φ` at `y`
    /// equal the reference evaluation bit for bit.
    pub(super) fn check_derivatives(&self, y: &[f64], t: f64, phi: f64, ws: &Workspace) {
        let (ref_phi, ref_grad, ref_hess) = self.reference_barrier_derivatives(&Vector::from(y), t);
        assert_eq!(phi.to_bits(), ref_phi.to_bits(), "φ: {phi} vs {ref_phi}");
        assert!(
            same_bits(ws.grad.as_slice(), ref_grad.as_slice()),
            "∇φ: {:?} vs {:?}",
            ws.grad,
            ref_grad
        );
        for i in 0..self.n {
            assert!(
                same_bits(ws.hess.row(i), ref_hess.row(i)),
                "∇²φ row {i}: {:?} vs {:?}",
                ws.hess.row(i),
                ref_hess.row(i)
            );
        }
    }

    /// Panics unless a line-search trial's value at `y` (`None`: some
    /// constraint not strictly negative) equals the reference's.
    pub(super) fn check_trial(&self, y: &[f64], t: f64, trial: Option<f64>) {
        let reference = self.reference_barrier_value(&Vector::from(y), t);
        assert_eq!(
            trial.map(f64::to_bits),
            reference.map(f64::to_bits),
            "trial value: {trial:?} vs {reference:?}"
        );
    }
}
