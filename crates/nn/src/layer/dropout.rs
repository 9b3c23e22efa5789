//! Inverted dropout.

use super::{Layer, Mode};
use crate::plan::InferencePlan;
use pilote_tensor::{Rng64, Tensor};

/// Inverted dropout: in training mode each element is zeroed with
/// probability `p` and survivors are scaled by `1/(1−p)`, so eval mode is
/// the identity.
///
/// Not used by the paper's reference configuration but provided for the
/// regularisation ablations.
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
    rng: Rng64,
    mask: Option<Tensor>,
}

impl Dropout {
    /// New dropout layer with drop probability `p ∈ [0, 1)`.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1)`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout probability must be in [0,1), got {p}");
        Dropout { p, rng: Rng64::new(seed), mask: None }
    }
}

impl Layer for Dropout {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        match mode {
            Mode::Eval => {
                self.mask = None;
                input.clone()
            }
            Mode::Train => {
                let keep = 1.0 - self.p;
                let scale = 1.0 / keep;
                let mask_data: Vec<f32> = (0..input.len())
                    .map(|_| if self.rng.bernoulli(keep as f64) { scale } else { 0.0 })
                    .collect();
                let mask = Tensor::from_vec(mask_data, input.shape().clone())
                    .expect("mask length matches input");
                let out = input.try_mul(&mask).expect("mask shape");
                self.mask = Some(mask);
                out
            }
        }
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        match &self.mask {
            Some(mask) => grad_output.try_mul(mask).expect("dropout mask shape"),
            None => grad_output.clone(),
        }
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        Vec::new()
    }

    /// Eval-mode dropout is the identity: nothing to append.
    fn freeze_into(&self, _plan: &mut InferencePlan) {}

    fn name(&self) -> &'static str {
        "Dropout"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_is_identity() {
        let mut d = Dropout::new(0.5, 1);
        let x = Tensor::vector(&[1.0, 2.0, 3.0]).reshape([1, 3]).unwrap();
        assert_eq!(d.forward(&x, Mode::Eval), x);
    }

    #[test]
    fn train_preserves_expectation() {
        let mut d = Dropout::new(0.3, 2);
        let x = Tensor::ones([1, 100_000]);
        let y = d.forward(&x, Mode::Train);
        assert!((y.mean() - 1.0).abs() < 0.02, "mean {}", y.mean());
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, 3);
        let x = Tensor::ones([1, 1000]);
        let y = d.forward(&x, Mode::Train);
        let dx = d.backward(&Tensor::ones([1, 1000]));
        // gradient flows exactly where the activation flowed
        for (a, b) in y.as_slice().iter().zip(dx.as_slice()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_invalid_p() {
        let _ = Dropout::new(1.0, 1);
    }
}
