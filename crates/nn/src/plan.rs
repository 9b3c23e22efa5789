//! The frozen inference plan: a network's `Mode::Eval` forward compiled
//! once per parameter state.
//!
//! A layer-by-layer `Mode::Eval` forward re-packs every `Dense` weight
//! into GEMM panels on each call and allocates the activation caches that
//! only `backward` reads. An [`InferencePlan`] does that work once: each
//! weight is packed into a [`PackedRhs`] for the active SIMD tier, the
//! Eval batch-norm constants are fixed (`inv_std` precomputed exactly as
//! the layer computes it), and there is no input cache, batch-norm cache
//! or ReLU mask.
//!
//! The plan applies the same per-element operations in the same order as
//! the layers it was compiled from — the GEMM, then `+ b`, then
//! `((· − μ)·inv_std)·γ + β`, then `max(·, 0)` — so its output is bitwise
//! identical to [`Layer::forward`] in `Mode::Eval`, at every batch size,
//! thread count and SIMD tier. Batch norm is deliberately *not* folded
//! into the preceding weights: folding would change bits.
//!
//! A plan is a snapshot. Any change to the parameters or running
//! statistics it was compiled from makes it stale; owners must drop it
//! on every such mutation (see `EmbeddingNet` in `pilote-core`).

use crate::layer::Layer;
use pilote_tensor::pack::{active_simd, PackedRhs, Simd};
use pilote_tensor::Tensor;

/// One frozen step of an Eval forward.
#[derive(Debug)]
enum Step {
    /// `y = x·W + b`.
    Dense { weight: PackedRhs, bias: Vec<f32> },
    /// Eval batch norm: `y = ((x − μ)·inv_std)·γ + β`, per column.
    Norm {
        mean: Vec<f32>,
        inv_std: Vec<f32>,
        gamma: Vec<f32>,
        beta: Vec<f32>,
    },
    /// `y = max(x, 0)`.
    Relu,
}

/// An immutable, cache-free compilation of a network's `Mode::Eval`
/// forward (module docs).
#[derive(Debug)]
pub struct InferencePlan {
    simd: Simd,
    steps: Vec<Step>,
}

impl InferencePlan {
    /// Compiles `net`'s current parameters for the process's active SIMD
    /// tier.
    pub fn compile(net: &dyn Layer) -> InferencePlan {
        InferencePlan::compile_for(active_simd(), net)
    }

    /// [`InferencePlan::compile`] with the weights packed for an explicit
    /// tier — the tier-comparison seam; serving uses
    /// [`InferencePlan::compile`].
    pub fn compile_for(simd: Simd, net: &dyn Layer) -> InferencePlan {
        let mut plan = InferencePlan {
            simd,
            steps: Vec::new(),
        };
        net.freeze_into(&mut plan);
        plan
    }

    /// Appends a dense layer `y = x·W + b` (`W: [in, out]`, `b: [out]`).
    pub(crate) fn push_dense(&mut self, weight: &Tensor, bias: &Tensor) {
        let weight = PackedRhs::with_simd(self.simd, weight).expect("Dense weight is rank 2");
        self.steps.push(Step::Dense {
            weight,
            bias: bias.as_slice().to_vec(),
        });
    }

    /// Appends an Eval-mode batch norm over the given running statistics.
    pub(crate) fn push_batch_norm(
        &mut self,
        running_mean: &Tensor,
        running_var: &Tensor,
        eps: f32,
        gamma: &Tensor,
        beta: &Tensor,
    ) {
        self.steps.push(Step::Norm {
            mean: running_mean.as_slice().to_vec(),
            inv_std: running_var
                .as_slice()
                .iter()
                .map(|&v| 1.0 / (v + eps).sqrt())
                .collect(),
            gamma: gamma.as_slice().to_vec(),
            beta: beta.as_slice().to_vec(),
        });
    }

    /// Appends a ReLU.
    pub(crate) fn push_relu(&mut self) {
        self.steps.push(Step::Relu);
    }

    /// Runs the plan on a `[n, in]` batch. Each `Dense` step is one
    /// prepacked GEMM, recorded as the same `MatMul` dispatch the layer
    /// would record; the element-wise steps run in place on its output.
    pub fn forward(&self, input: &Tensor) -> Tensor {
        let mut x = input.clone();
        for step in &self.steps {
            match step {
                Step::Dense { weight, bias } => {
                    x = x
                        .matmul_prepacked(weight)
                        .expect("plan input width matches the weight");
                    for_each_row(&mut x, |row| {
                        for (v, &b) in row.iter_mut().zip(bias) {
                            *v += b;
                        }
                    });
                }
                Step::Norm {
                    mean,
                    inv_std,
                    gamma,
                    beta,
                } => for_each_row(&mut x, |row| {
                    for (j, v) in row.iter_mut().enumerate() {
                        *v = (*v - mean[j]) * inv_std[j] * gamma[j] + beta[j];
                    }
                }),
                Step::Relu => x.as_mut_slice().iter_mut().for_each(|v| *v = v.max(0.0)),
            }
        }
        x
    }
}

/// Applies `f` to each row of a rank-2 tensor.
fn for_each_row(x: &mut Tensor, f: impl Fn(&mut [f32])) {
    let cols = x.cols();
    if cols > 0 {
        x.as_mut_slice().chunks_exact_mut(cols).for_each(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{BatchNorm1d, Dense, Dropout, Mode, ReLU, Sequential};
    use crate::optim::{Adam, Optimizer};
    use pilote_tensor::pack::supported_tiers;
    use pilote_tensor::parallel::{self, ThreadConfig};
    use pilote_tensor::Rng64;

    /// Dense→BN→ReLU blocks with trained (non-trivial) running statistics
    /// and affine parameters, then a final Dense — the embedding shape.
    fn trained_net(rng: &mut Rng64) -> Sequential {
        let mut net = Sequential::new()
            .push(Dense::new(20, 48, rng))
            .push(BatchNorm1d::new(48))
            .push(ReLU::new())
            .push(Dropout::new(0.2, 9))
            .push(Dense::new(48, 40, rng))
            .push(BatchNorm1d::new(40))
            .push(ReLU::new())
            .push(Dense::new(40, 33, rng));
        for _ in 0..3 {
            let x = Tensor::randn([16, 20], 0.5, 2.0, rng);
            let _ = net.forward(&x, Mode::Train);
        }
        for (p, _) in net.params_and_grads() {
            p.map_inplace(|v| v + 0.01);
        }
        net
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn assert_plan_matches(net: &mut Sequential, plan: &InferencePlan, x: &Tensor, what: &str) {
        let want = net.forward(x, Mode::Eval);
        let got = plan.forward(x);
        assert_eq!(got.shape(), want.shape(), "{what}");
        assert_eq!(bits(&got), bits(&want), "{what}");
    }

    #[test]
    fn plan_is_bitwise_the_eval_forward_at_every_batch_tier_and_thread_count() {
        let saved = parallel::current();
        let mut rng = Rng64::new(1);
        let mut net = trained_net(&mut rng);
        for tier in supported_tiers() {
            let plan = InferencePlan::compile_for(tier, &net);
            for threads in [1usize, 2, 4] {
                parallel::configure(ThreadConfig {
                    num_threads: threads,
                    min_parallel_len: 0,
                });
                for batch in [0usize, 1, 3, 4, 7, 8, 9, 64, 257] {
                    let x = Tensor::randn([batch, 20], 0.0, 1.5, &mut rng);
                    let what = format!("{tier:?} threads={threads} batch={batch}");
                    assert_plan_matches(&mut net, &plan, &x, &what);
                }
            }
        }
        parallel::configure(saved);
    }

    #[test]
    fn plan_records_the_layers_matmul_work() {
        let mut rng = Rng64::new(2);
        let mut net = trained_net(&mut rng);
        let plan = InferencePlan::compile(&net);
        let x = Tensor::randn([5, 20], 0.0, 1.0, &mut rng);
        let f0 = pilote_obs::work::thread_flops();
        let _ = net.forward(&x, Mode::Eval);
        let layers = pilote_obs::work::thread_flops() - f0;
        let f0 = pilote_obs::work::thread_flops();
        let _ = plan.forward(&x);
        assert_eq!(pilote_obs::work::thread_flops() - f0, layers);
        assert_eq!(layers, 2 * 5 * (20 * 48 + 48 * 40 + 40 * 33));
    }

    #[test]
    fn planted_nan_propagates_exactly_as_the_layers_do() {
        let mut rng = Rng64::new(3);
        let mut net = trained_net(&mut rng);
        // A NaN weight in the final Dense (after the last ReLU) poisons its
        // output column for every row.
        let last = net.params_and_grads().len() - 2;
        net.params_and_grads()[last]
            .0
            .set(&[7, 5], f32::NAN)
            .unwrap();
        let plan = InferencePlan::compile(&net);
        let x = Tensor::randn([6, 20], 0.0, 1.0, &mut rng);
        assert_plan_matches(&mut net, &plan, &x, "NaN weight");
        let out = plan.forward(&x);
        assert!(
            (0..6).all(|i| out.at(i, 5).is_nan()),
            "column 5 must be NaN"
        );
        // A NaN input goes wherever the layers send it, bit for bit.
        let mut poisoned = x.clone();
        poisoned.set(&[2, 4], f32::NAN).unwrap();
        assert_plan_matches(&mut net, &plan, &poisoned, "NaN input");
    }

    #[test]
    fn a_plan_compiled_before_a_mutation_is_stale_and_a_recompile_is_not() {
        let mut rng = Rng64::new(4);
        let x = Tensor::randn([5, 20], 0.0, 1.0, &mut rng);
        let mut net = trained_net(&mut rng);
        let saved = net.state_dict();

        // An optimizer step moves the weights.
        let stale = InferencePlan::compile(&net);
        let y = net.forward(&x, Mode::Train);
        net.backward(&Tensor::ones(y.shape().clone()));
        Adam::new().step(&mut net, 1e-2);
        assert_ne!(bits(&stale.forward(&x)), bits(&net.forward(&x, Mode::Eval)));
        let fresh = InferencePlan::compile(&net);
        assert_plan_matches(&mut net, &fresh, &x, "after Adam");

        // A train-mode forward moves only the running statistics.
        let stale = InferencePlan::compile(&net);
        let _ = net.forward(&Tensor::randn([16, 20], 3.0, 1.0, &mut rng), Mode::Train);
        assert_ne!(bits(&stale.forward(&x)), bits(&net.forward(&x, Mode::Eval)));
        let fresh = InferencePlan::compile(&net);
        assert_plan_matches(&mut net, &fresh, &x, "after train forward");

        // Restoring a checkpoint / state dict moves the weights back.
        let stale = InferencePlan::compile(&net);
        net.load_state_dict(&saved);
        assert_ne!(bits(&stale.forward(&x)), bits(&net.forward(&x, Mode::Eval)));
        let fresh = InferencePlan::compile(&net);
        assert_plan_matches(&mut net, &fresh, &x, "after load_state_dict");
    }
}
