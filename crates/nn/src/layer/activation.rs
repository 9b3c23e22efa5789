//! Activation layers.

use super::{Layer, Mode};
use crate::plan::InferencePlan;
use pilote_tensor::Tensor;

/// Rectified linear unit, `y = max(0, x)` (Nair & Hinton 2010) — the
/// paper's activation for the first four layers.
#[derive(Debug, Clone, Default)]
pub struct ReLU {
    /// Mask of positive inputs from the last forward (1.0 where x > 0).
    mask: Option<Tensor>,
}

impl ReLU {
    /// New ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for ReLU {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        self.mask = Some(input.map(|x| if x > 0.0 { 1.0 } else { 0.0 }));
        input.map(|x| x.max(0.0))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mask = self.mask.as_ref().expect("ReLU::backward called before forward");
        grad_output.try_mul(mask).expect("ReLU mask shape")
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        Vec::new()
    }

    fn freeze_into(&self, plan: &mut InferencePlan) {
        plan.push_relu();
    }

    fn name(&self) -> &'static str {
        "ReLU"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let mut relu = ReLU::new();
        let x = Tensor::vector(&[-1.0, 0.0, 2.0]);
        let y = relu.forward(&x.reshape([1, 3]).unwrap(), Mode::Train);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut relu = ReLU::new();
        let x = Tensor::from_rows(&[vec![-1.0, 3.0, 0.0]]).unwrap();
        let _ = relu.forward(&x, Mode::Train);
        let dx = relu.backward(&Tensor::from_rows(&[vec![5.0, 5.0, 5.0]]).unwrap());
        // Subgradient at exactly zero is taken as 0.
        assert_eq!(dx.as_slice(), &[0.0, 5.0, 0.0]);
    }

    #[test]
    fn no_parameters() {
        let mut relu = ReLU::new();
        assert!(relu.params_and_grads().is_empty());
        assert_eq!(relu.param_count(), 0);
    }
}
