//! Weight-initialisation schemes and random tensor constructors.

use crate::rng::Rng64;
use crate::shape::Shape;
use crate::tensor::Tensor;

impl Tensor {
    /// Tensor with i.i.d. standard-normal entries scaled to `std` around
    /// `mean`.
    pub fn randn(shape: impl Into<Shape>, mean: f32, std: f32, rng: &mut Rng64) -> Tensor {
        let shape = shape.into();
        let data = (0..shape.len()).map(|_| rng.normal_f32(mean, std)).collect();
        Tensor::from_vec(data, shape).expect("length matches by construction")
    }

    /// Tensor with i.i.d. uniform entries in `[lo, hi)`.
    pub fn rand_uniform(shape: impl Into<Shape>, lo: f32, hi: f32, rng: &mut Rng64) -> Tensor {
        let shape = shape.into();
        let data = (0..shape.len()).map(|_| rng.uniform_range(lo, hi)).collect();
        Tensor::from_vec(data, shape).expect("length matches by construction")
    }

    /// He/Kaiming normal initialisation for ReLU networks:
    /// `N(0, √(2/fan_in))`.
    pub fn kaiming_normal(fan_in: usize, fan_out: usize, rng: &mut Rng64) -> Tensor {
        let std = (2.0 / fan_in as f32).sqrt();
        Tensor::randn([fan_in, fan_out], 0.0, std, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn randn_moments() {
        let mut rng = Rng64::new(1);
        let t = Tensor::randn([100_000], 1.0, 2.0, &mut rng);
        assert!((t.mean() - 1.0).abs() < 0.05);
        assert!((t.variance() - 4.0).abs() < 0.15);
    }

    #[test]
    fn uniform_bounds() {
        let mut rng = Rng64::new(2);
        let t = Tensor::rand_uniform([10_000], -2.0, 3.0, &mut rng);
        assert!(t.min().unwrap() >= -2.0);
        assert!(t.max().unwrap() < 3.0);
        assert!((t.mean() - 0.5).abs() < 0.1);
    }

    #[test]
    fn kaiming_std_matches_formula() {
        let mut rng = Rng64::new(4);
        let t = Tensor::kaiming_normal(200, 500, &mut rng);
        let expected_var = 2.0 / 200.0;
        assert!((t.variance() - expected_var).abs() < expected_var * 0.1);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Tensor::randn([16], 0.0, 1.0, &mut Rng64::new(9));
        let b = Tensor::randn([16], 0.0, 1.0, &mut Rng64::new(9));
        assert_eq!(a, b);
    }
}
