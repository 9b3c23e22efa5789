//! The Siamese embedding network φ_Θ.

use crate::config::NetConfig;
use pilote_nn::{BatchNorm1d, Dense, InferencePlan, Layer, Mode, ReLU, Sequential};
use pilote_tensor::{Rng64, Tensor};
use std::sync::Arc;

/// The embedding network: a fully connected stack with BatchNorm + ReLU on
/// every hidden layer and a linear final projection into the embedding
/// space.
///
/// "Siamese" refers to usage, not architecture: both members of a
/// contrastive pair pass through the *same* network, so the two branches
/// are realised by stacking both pair members into one batch.
///
/// Inference ([`EmbeddingNet::embed`]) runs through a frozen
/// [`InferencePlan`] compiled from the current parameters on first use.
/// The plan is bitwise the layer-by-layer `Mode::Eval` forward; every
/// `&mut` access that can move a parameter or a running statistic drops
/// it, so a stale plan can never serve. The layer stack itself
/// ([`EmbeddingNet::forward_mode`] and friends) is the training path.
pub struct EmbeddingNet {
    net: Sequential,
    config: NetConfig,
    /// The compiled inference plan for the current parameters, shared
    /// with frozen clones taken at the same state.
    plan: Option<Arc<InferencePlan>>,
}

impl EmbeddingNet {
    /// Builds a freshly initialised network.
    pub fn new(config: NetConfig, rng: &mut Rng64) -> Self {
        let mut net = Sequential::new();
        let mut prev = config.input_dim;
        for &width in &config.hidden {
            net.push_boxed(Box::new(Dense::new(prev, width, rng)));
            net.push_boxed(Box::new(BatchNorm1d::new(width)));
            net.push_boxed(Box::new(ReLU::new()));
            prev = width;
        }
        net.push_boxed(Box::new(Dense::new(prev, config.embedding_dim, rng)));
        EmbeddingNet { net, config, plan: None }
    }

    /// The architecture this network was built from.
    pub fn config(&self) -> &NetConfig {
        &self.config
    }

    /// Embeds a `[n, input_dim]` batch in inference mode (running batch
    /// statistics, no dropout) through the inference plan, compiling it
    /// first if the parameters moved since the last call.
    pub fn embed(&mut self, features: &Tensor) -> Tensor {
        let net = &self.net;
        self.plan.get_or_insert_with(|| Arc::new(InferencePlan::compile(net))).forward(features)
    }

    /// Training-mode forward (batch statistics); caches activations for
    /// [`EmbeddingNet::backward`].
    pub fn forward_train(&mut self, features: &Tensor) -> Tensor {
        self.forward_mode(features, Mode::Train)
    }

    /// Forward in an explicit mode, caching activations for
    /// [`EmbeddingNet::backward`]. `Mode::Eval` freezes the batch-norm
    /// statistics while still supporting backprop — the fine-tuning mode
    /// used by edge updates.
    pub fn forward_mode(&mut self, features: &Tensor, mode: Mode) -> Tensor {
        self.plan = None;
        self.net.forward(features, mode)
    }

    /// Backpropagates an embedding-space gradient, accumulating parameter
    /// gradients.
    pub fn backward(&mut self, grad_embedding: &Tensor) -> Tensor {
        self.plan = None;
        self.net.backward(grad_embedding)
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.net.zero_grad();
    }

    /// Mutable access to the underlying layer stack (for optimizers and
    /// checkpoint restores). Drops the inference plan: the caller may
    /// change any parameter.
    pub fn layers_mut(&mut self) -> &mut Sequential {
        self.plan = None;
        &mut self.net
    }

    /// Total trainable parameters.
    pub fn param_count(&mut self) -> usize {
        self.net.param_count()
    }

    /// Deep copy — the frozen teacher for distillation. The copy shares
    /// the current inference plan, if one is compiled.
    pub fn clone_frozen(&self) -> EmbeddingNet {
        EmbeddingNet { net: self.net.clone(), config: self.config.clone(), plan: self.plan.clone() }
    }

    /// Parameter snapshot (see [`Sequential::state_dict`]).
    pub fn state_dict(&mut self) -> Vec<Tensor> {
        self.net.state_dict()
    }

    /// Restores a parameter snapshot.
    pub fn load_state_dict(&mut self, state: &[Tensor]) {
        self.plan = None;
        self.net.load_state_dict(state);
    }
}

impl std::fmt::Debug for EmbeddingNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EmbeddingNet").field("config", &self.config).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_architecture_parameter_count() {
        let mut rng = Rng64::new(1);
        let mut net = EmbeddingNet::new(NetConfig::paper(), &mut rng);
        // Dense layers: 80·1024+1024 + 1024·512+512 + 512·128+128 + 128·64+64 + 64·128+128
        // BN layers: 2·(1024+512+128+64)
        let dense = 80 * 1024 + 1024 + 1024 * 512 + 512 + 512 * 128 + 128 + 128 * 64 + 64 + 64 * 128 + 128;
        let bn = 2 * (1024 + 512 + 128 + 64);
        assert_eq!(net.param_count(), dense + bn);
    }

    #[test]
    fn embed_produces_embedding_dim() {
        let mut rng = Rng64::new(2);
        let cfg = NetConfig::small();
        let mut net = EmbeddingNet::new(cfg.clone(), &mut rng);
        let x = Tensor::randn([7, cfg.input_dim], 0.0, 1.0, &mut rng);
        let e = net.embed(&x);
        assert_eq!(e.shape().dims(), &[7, cfg.embedding_dim]);
        assert!(e.all_finite());
    }

    #[test]
    fn frozen_clone_does_not_track_student() {
        let mut rng = Rng64::new(3);
        let mut net = EmbeddingNet::new(NetConfig::small(), &mut rng);
        let mut teacher = net.clone_frozen();
        let x = Tensor::randn([4, 80], 0.0, 1.0, &mut rng);
        let before = teacher.embed(&x);
        // "Train" the student a bit.
        let out = net.forward_train(&x);
        net.backward(&Tensor::ones(out.shape().clone()));
        for (p, g) in net.layers_mut().params_and_grads() {
            p.axpy(-0.1, g).unwrap();
        }
        let after = teacher.embed(&x);
        assert!(before.max_abs_diff(&after).unwrap() < 1e-6);
        assert!(net.embed(&x).max_abs_diff(&before).unwrap() > 1e-3);
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// `embed` (the plan) against the layer-by-layer `Mode::Eval` forward.
    fn assert_embed_is_layer_forward(net: &mut EmbeddingNet, x: &Tensor, what: &str) {
        let served = net.embed(x);
        let layers = net.layers_mut().forward(x, Mode::Eval);
        assert_eq!(bits(&served), bits(&layers), "{what}");
    }

    /// The stale-plan regression: after each mutation that can move a
    /// parameter or running statistic, `embed` must serve the new state —
    /// bit for bit what the layers compute — never the plan compiled
    /// before it.
    #[test]
    fn embed_never_serves_a_stale_plan() {
        use pilote_nn::{Adam, Checkpoint, Optimizer};
        let mut rng = Rng64::new(5);
        let mut net = EmbeddingNet::new(NetConfig::small(), &mut rng);
        let x = Tensor::randn([9, 80], 0.0, 1.0, &mut rng);
        let batch = Tensor::randn([16, 80], 0.5, 2.0, &mut rng);
        assert_embed_is_layer_forward(&mut net, &x, "fresh");
        let saved = Checkpoint::capture(net.layers_mut());
        let state = net.state_dict();

        let moved = |net: &mut EmbeddingNet, what: &str, mutate: &dyn Fn(&mut EmbeddingNet)| {
            let before = net.embed(&x);
            mutate(net);
            let after = net.embed(&x);
            assert_ne!(bits(&before), bits(&after), "{what} must change the embedding");
            assert_embed_is_layer_forward(net, &x, what);
        };
        moved(&mut net, "train-mode forward", &|net| {
            let _ = net.forward_train(&batch);
        });
        moved(&mut net, "Adam step", &|net| {
            let out = net.forward_mode(&batch, Mode::Eval);
            let _ = net.embed(&x); // compile a plan between forward and step
            net.zero_grad();
            net.backward(&Tensor::ones(out.shape().clone()));
            Adam::new().step(net.layers_mut(), 1e-2);
        });
        moved(&mut net, "checkpoint restore", &|net| {
            saved.restore(net.layers_mut()).unwrap();
        });
        moved(&mut net, "load_state_dict", &|net| {
            let shifted: Vec<Tensor> = state.iter().map(|t| t.map(|v| v * 1.5)).collect();
            net.load_state_dict(&shifted);
        });
    }

    #[test]
    fn frozen_clone_shares_the_plan_and_keeps_it_after_the_student_moves() {
        let mut rng = Rng64::new(6);
        let mut net = EmbeddingNet::new(NetConfig::small(), &mut rng);
        let x = Tensor::randn([4, 80], 0.0, 1.0, &mut rng);
        let before = net.embed(&x);
        let mut teacher = net.clone_frozen();
        let _ = net.forward_train(&Tensor::randn([8, 80], 1.0, 1.0, &mut rng));
        assert_eq!(bits(&teacher.embed(&x)), bits(&before));
        assert_embed_is_layer_forward(&mut teacher, &x, "teacher");
    }

    #[test]
    fn state_dict_round_trip_preserves_embeddings() {
        let mut rng = Rng64::new(4);
        let mut net = EmbeddingNet::new(NetConfig::small(), &mut rng);
        let x = Tensor::randn([3, 80], 0.0, 1.0, &mut rng);
        let before = net.embed(&x);
        let saved = net.state_dict();
        for (p, _) in net.layers_mut().params_and_grads() {
            p.map_inplace(|v| v + 0.5);
        }
        net.load_state_dict(&saved);
        assert!(net.embed(&x).max_abs_diff(&before).unwrap() < 1e-6);
    }
}
