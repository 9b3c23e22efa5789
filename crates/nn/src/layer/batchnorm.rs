//! 1-D batch normalisation (Ioffe & Szegedy 2015), the paper's §6.1.2
//! choice for the first four layers of the embedding network.

use super::{Layer, Mode};
use crate::plan::InferencePlan;
use pilote_tensor::reduce::Axis;
use pilote_tensor::Tensor;

/// Per-feature batch normalisation over a `[batch, features]` tensor.
///
/// Training mode normalises with batch statistics and maintains running
/// estimates (exponential moving average, PyTorch-compatible `momentum`
/// semantics: `running ← (1−momentum)·running + momentum·batch`). Eval
/// mode normalises with the running estimates.
#[derive(Debug, Clone)]
pub struct BatchNorm1d {
    gamma: Tensor,
    beta: Tensor,
    grad_gamma: Tensor,
    grad_beta: Tensor,
    running_mean: Tensor,
    running_var: Tensor,
    momentum: f32,
    eps: f32,
    // Cached intermediates from the last training-mode forward.
    cache: Option<BnCache>,
}

#[derive(Debug, Clone)]
struct BnCache {
    x_hat: Tensor,
    inv_std: Tensor,
    batch: usize,
    /// Whether the forward ran in training mode (affects backward formula).
    train: bool,
}

impl BatchNorm1d {
    /// New batch-norm over `dim` features with PyTorch-default
    /// `momentum = 0.1`, `eps = 1e-5`.
    pub fn new(dim: usize) -> Self {
        Self::with_params(dim, 0.1, 1e-5)
    }

    /// New batch-norm with explicit momentum and epsilon.
    pub fn with_params(dim: usize, momentum: f32, eps: f32) -> Self {
        BatchNorm1d {
            gamma: Tensor::ones([dim]),
            beta: Tensor::zeros([dim]),
            grad_gamma: Tensor::zeros([dim]),
            grad_beta: Tensor::zeros([dim]),
            running_mean: Tensor::zeros([dim]),
            running_var: Tensor::ones([dim]),
            momentum,
            eps,
            cache: None,
        }
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.gamma.len()
    }

    /// Running mean estimate (for inspection/tests).
    pub fn running_mean(&self) -> &Tensor {
        &self.running_mean
    }

    /// Running variance estimate (for inspection/tests).
    pub fn running_var(&self) -> &Tensor {
        &self.running_var
    }
}

impl Layer for BatchNorm1d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        debug_assert_eq!(input.cols(), self.dim(), "BatchNorm1d: width mismatch");
        let n = input.rows();
        let (mean, var) = match mode {
            Mode::Train => {
                let mean = input.mean_axis(Axis::Rows).expect("bn mean");
                let var = input.var_axis(Axis::Rows).expect("bn var");
                // Update running stats (unbiased variance, as PyTorch does).
                let unbias = if n > 1 { n as f32 / (n as f32 - 1.0) } else { 1.0 };
                let m = self.momentum;
                for (r, &b) in self.running_mean.as_mut_slice().iter_mut().zip(mean.as_slice()) {
                    *r = (1.0 - m) * *r + m * b;
                }
                for (r, &b) in self.running_var.as_mut_slice().iter_mut().zip(var.as_slice()) {
                    *r = (1.0 - m) * *r + m * b * unbias;
                }
                (mean, var)
            }
            Mode::Eval => (self.running_mean.clone(), self.running_var.clone()),
        };
        let eps = self.eps;
        let inv_std = var.map(|v| 1.0 / (v + eps).sqrt());
        let x_hat = input.try_sub(&mean).expect("bn center").try_mul(&inv_std).expect("bn scale");
        let out = x_hat.try_mul(&self.gamma).expect("bn gamma").try_add(&self.beta).expect("bn beta");
        self.cache = Some(BnCache { x_hat, inv_std, batch: n, train: mode == Mode::Train });
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let cache = self.cache.as_ref().expect("BatchNorm1d::backward called before forward");
        let x_hat = &cache.x_hat;
        let n = cache.batch as f32;

        // dβ += Σ_batch dY ; dγ += Σ_batch dY ⊙ x̂
        let dbeta = grad_output.sum_axis(Axis::Rows).expect("dbeta");
        let dgamma = grad_output
            .try_mul(x_hat)
            .expect("dY*xhat")
            .sum_axis(Axis::Rows)
            .expect("dgamma");
        self.grad_beta.axpy(1.0, &dbeta).expect("dbeta acc");
        self.grad_gamma.axpy(1.0, &dgamma).expect("dgamma acc");

        // dx̂ = dY ⊙ γ
        let dx_hat = grad_output.try_mul(&self.gamma).expect("dxhat");

        if !cache.train {
            // Eval mode: mean/var are constants, so dX = dx̂ ⊙ inv_std.
            return dx_hat.try_mul(&cache.inv_std).expect("eval dX");
        }

        // Training mode — the batch statistics depend on x:
        // dX = inv_std/N · (N·dx̂ − Σdx̂ − x̂ ⊙ Σ(dx̂ ⊙ x̂))
        let sum_dx_hat = dx_hat.sum_axis(Axis::Rows).expect("sum dxhat");
        let sum_dx_hat_xhat = dx_hat
            .try_mul(x_hat)
            .expect("dxhat*xhat")
            .sum_axis(Axis::Rows)
            .expect("sum dxhat*xhat");
        let term = dx_hat
            .scale(n)
            .try_sub(&sum_dx_hat)
            .expect("term1")
            .try_sub(&x_hat.try_mul(&sum_dx_hat_xhat).expect("term2"))
            .expect("term sub");
        term.try_mul(&cache.inv_std).expect("scale inv_std").scale(1.0 / n)
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        vec![
            (&mut self.gamma, &mut self.grad_gamma),
            (&mut self.beta, &mut self.grad_beta),
        ]
    }

    fn freeze_into(&self, plan: &mut InferencePlan) {
        plan.push_batch_norm(&self.running_mean, &self.running_var, self.eps, &self.gamma, &self.beta);
    }

    fn name(&self) -> &'static str {
        "BatchNorm1d"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilote_tensor::reduce::Axis;
    use pilote_tensor::Rng64;

    #[test]
    fn train_output_is_standardised() {
        let mut rng = Rng64::new(1);
        let mut bn = BatchNorm1d::new(4);
        let x = Tensor::randn([64, 4], 5.0, 3.0, &mut rng);
        let y = bn.forward(&x, Mode::Train);
        let mean = y.mean_axis(Axis::Rows).unwrap();
        let var = y.var_axis(Axis::Rows).unwrap();
        for &m in mean.as_slice() {
            assert!(m.abs() < 1e-4, "mean {m}");
        }
        for &v in var.as_slice() {
            assert!((v - 1.0).abs() < 1e-2, "var {v}");
        }
    }

    #[test]
    fn gamma_beta_affect_output() {
        let mut bn = BatchNorm1d::new(2);
        bn.gamma = Tensor::vector(&[2.0, 0.5]);
        bn.beta = Tensor::vector(&[1.0, -1.0]);
        let x = Tensor::from_rows(&[vec![0.0, 0.0], vec![2.0, 4.0]]).unwrap();
        let y = bn.forward(&x, Mode::Train);
        // x̂ rows are ±1 per feature, so y = γ·(±1) + β.
        assert!((y.at(0, 0) - (-2.0 + 1.0)).abs() < 1e-3);
        assert!((y.at(1, 0) - (2.0 + 1.0)).abs() < 1e-3);
        assert!((y.at(0, 1) - (-0.5 - 1.0)).abs() < 1e-3);
    }

    #[test]
    fn running_stats_converge_to_data_stats() {
        let mut rng = Rng64::new(2);
        let mut bn = BatchNorm1d::new(3);
        for _ in 0..200 {
            let x = Tensor::randn([32, 3], 2.0, 2.0, &mut rng);
            let _ = bn.forward(&x, Mode::Train);
        }
        for &m in bn.running_mean().as_slice() {
            assert!((m - 2.0).abs() < 0.3, "running mean {m}");
        }
        for &v in bn.running_var().as_slice() {
            assert!((v - 4.0).abs() < 0.8, "running var {v}");
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut rng = Rng64::new(3);
        let mut bn = BatchNorm1d::new(2);
        for _ in 0..100 {
            let x = Tensor::randn([64, 2], 0.0, 1.0, &mut rng);
            let _ = bn.forward(&x, Mode::Train);
        }
        // A constant eval batch should NOT be normalised to zero — the
        // running stats, not the batch stats, apply.
        let x = Tensor::full([4, 2], 10.0);
        let y = bn.forward(&x, Mode::Eval);
        for &v in y.as_slice() {
            assert!(v > 5.0, "eval output {v} should keep the shift");
        }
    }

    #[test]
    fn single_row_batch_does_not_nan() {
        let mut bn = BatchNorm1d::new(2);
        let x = Tensor::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let y = bn.forward(&x, Mode::Train);
        assert!(y.all_finite());
        let dx = bn.backward(&Tensor::ones([1, 2]));
        assert!(dx.all_finite());
    }

    #[test]
    fn backward_shapes_match() {
        let mut rng = Rng64::new(4);
        let mut bn = BatchNorm1d::new(5);
        let x = Tensor::randn([7, 5], 0.0, 1.0, &mut rng);
        let y = bn.forward(&x, Mode::Train);
        let dx = bn.backward(&Tensor::ones(y.shape().clone()));
        assert_eq!(dx.shape(), x.shape());
        assert_eq!(bn.grad_gamma.len(), 5);
        assert_eq!(bn.grad_beta.len(), 5);
    }

    // The numeric correctness of the training-mode backward is pinned by the
    // finite-difference tests in `gradcheck`.
}
