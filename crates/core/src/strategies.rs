//! The continual-learning strategies: one list of learners, one update
//! call.
//!
//! Every comparison in the paper (§6.1.3) and in the ablation benches runs
//! one protocol: start from the same pre-trained model, apply one
//! [`Strategy::update`], then score old and new classes. The paper's three
//! models:
//!
//! * [`Strategy::Pilote`] — the joint distillation + contrastive update of
//!   Algorithm 1 ([`Pilote::learn_new_class`]);
//! * [`Strategy::Retrained`] — contrastive fine-tune on `D₀ ∪ Dₙ` with no
//!   distillation ([`crate::baselines::retrained_update`]); with its random
//!   new-class memory this is also the rehearsal family (Rolnick et al.
//!   2019);
//! * [`Strategy::Pretrained`] — frozen embedding, new prototypes only
//!   ([`crate::baselines::pretrained_update`]).
//!
//! The paper positions PILOTE against the broader continual-learning
//! literature (§2.1) without benchmarking it — the cited methods target
//! cloud-scale models. To make that positioning measurable the list adds
//! edge-scale analogues of the canonical families on the same backbone:
//!
//! * [`Strategy::NaiveFinetune`] — fine-tune on new data only (the lower
//!   bound every CL paper reports);
//! * [`Strategy::GDumb`] — greedy balanced memory + retrain from scratch
//!   (Prabhu et al. 2020);
//! * [`Strategy::Ewc`] — elastic weight consolidation, diagonal-Fisher
//!   quadratic penalty (Kirkpatrick et al. 2017);
//! * [`Strategy::Lwf`] — learning without forgetting via softened-logit
//!   distillation on a classification head (Li & Hoiem 2017). It is the
//!   one arm that scores through its own softmax head rather than the NCM
//!   prototypes; [`LwfClassifier::learn`] returns that head.

use crate::baselines::{pretrained_update, retrained_update};
use crate::config::PiloteConfig;
use crate::embedding::EmbeddingNet;
use crate::exemplar::SelectionStrategy;
use crate::pairs::{build_epoch_pairs, PairScheme};
use crate::pilote::{train_embedding, Pilote, TrainOptions, TrainReport};
use pilote_har_data::Dataset;
use pilote_nn::loss::{contrastive_pair_loss, kd_soft_cross_entropy, softmax_cross_entropy};
use pilote_nn::sched::{HalvingLr, LrSchedule};
use pilote_nn::{Adam, Dense, Layer, Mode, Optimizer, Sequential};
use pilote_tensor::{Rng64, Tensor, TensorError};

/// EWC penalty strength λ.
const EWC_LAMBDA: f32 = 50.0;

/// LwF distillation temperature T.
const LWF_TEMPERATURE: f32 = 2.0;

/// A continual-learning strategy: how a pre-trained model learns new
/// classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// PILOTE: joint distillation + contrastive update (Algorithm 1).
    Pilote,
    /// Contrastive fine-tune on the support set plus the new data, no
    /// distillation; new exemplars chosen at random.
    Retrained,
    /// Frozen embedding; the new classes only get prototypes.
    Pretrained,
    /// Contrastive fine-tuning on the new-class data alone.
    NaiveFinetune,
    /// Greedy balanced memory of `new_exemplars` per class; network
    /// re-initialised and trained on the memory only.
    GDumb,
    /// Diagonal-Fisher elastic weight consolidation.
    Ewc,
    /// Learning-without-forgetting on a softmax head.
    Lwf,
}

impl Strategy {
    /// Every strategy, in report order.
    pub const ALL: [Strategy; 7] = [
        Strategy::Pilote,
        Strategy::Retrained,
        Strategy::Pretrained,
        Strategy::NaiveFinetune,
        Strategy::GDumb,
        Strategy::Ewc,
        Strategy::Lwf,
    ];

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Pilote => "pilote",
            Strategy::Retrained => "retrained",
            Strategy::Pretrained => "pretrained",
            Strategy::NaiveFinetune => "naive-finetune",
            Strategy::GDumb => "gdumb",
            Strategy::Ewc => "ewc",
            Strategy::Lwf => "lwf",
        }
    }

    /// Applies this strategy to `model`: it learns the classes of
    /// `new_data`. PILOTE, re-trained and pre-trained keep at most
    /// `new_exemplars` of each new class in the support set; naive
    /// fine-tune, EWC and LwF keep every new sample; GDumb's memory keeps
    /// `new_exemplars` of every class. Returns the training report of the
    /// arms that train through [`train_embedding`] or [`Pilote::pretrain`].
    pub fn update(
        self,
        model: &mut Pilote,
        new_data: &Dataset,
        new_exemplars: usize,
    ) -> Result<Option<TrainReport>, TensorError> {
        match self {
            Strategy::Pilote => model.learn_new_class(new_data, new_exemplars).map(Some),
            Strategy::Retrained => retrained_update(model, new_data, new_exemplars).map(Some),
            Strategy::Pretrained => {
                pretrained_update(model, new_data, new_exemplars).map(|()| None)
            }
            Strategy::NaiveFinetune => naive_finetune(model, new_data).map(Some),
            Strategy::GDumb => {
                let (retrained, report) = gdumb(model, new_data, new_exemplars)?;
                *model = retrained;
                Ok(Some(report))
            }
            Strategy::Ewc => ewc_update(model, new_data).map(|()| None),
            Strategy::Lwf => LwfClassifier::learn(model, new_data).map(|_| None),
        }
    }
}

/// Stores every new-class sample as an exemplar and refreshes prototypes
/// (the arms that keep no separate exemplar budget).
fn store_new_classes(model: &mut Pilote, new_data: &Dataset) -> Result<(), TensorError> {
    for label in new_data.classes() {
        let class = new_data.filter_classes(&[label])?;
        model.support_mut().put_class(label, class.features);
    }
    model.refresh_prototypes()
}

/// Contrastive fine-tuning on the new data alone: with a single incoming
/// class every sampled pair is similar, so the objective degenerates to
/// pulling the new class together with nothing holding the old geometry —
/// the canonical catastrophic-forgetting demonstration.
fn naive_finetune(model: &mut Pilote, new_data: &Dataset) -> Result<TrainReport, TensorError> {
    let cfg = model.config().clone();
    let mut rng = model.fork_rng();
    let is_new = vec![true; new_data.len()];
    let opts = TrainOptions {
        alpha: 0.0,
        teacher: None,
        distill_rows: Vec::new(),
        scheme: PairScheme::Full,
        freeze_bn: true,
    };
    let report = train_embedding(model.net_mut(), new_data, &is_new, &cfg, opts, &mut rng)?;
    store_new_classes(model, new_data)?;
    Ok(report)
}

/// GDumb: balanced greedy memory, then train a re-initialised network on
/// the memory only.
fn gdumb(
    base: &Pilote,
    new_data: &Dataset,
    budget: usize,
) -> Result<(Pilote, TrainReport), TensorError> {
    let cfg = base.config().clone();
    let mut rng = Rng64::new(cfg.seed ^ 0x9d0b);

    // Balanced memory: `budget` random samples per class from the support
    // set plus the new data.
    let mut memory = base.support().to_dataset()?.concat(new_data)?;
    let mut kept_rows = Vec::new();
    for label in memory.classes() {
        let idx = memory.class_indices(label);
        let k = budget.min(idx.len());
        let chosen = rng.sample_indices(idx.len(), k);
        kept_rows.extend(chosen.into_iter().map(|i| idx[i]));
    }
    memory = memory.select(&kept_rows)?;

    // Retrain from scratch on the memory.
    Pilote::pretrain(
        PiloteConfig { seed: cfg.seed ^ 0x6d, ..cfg },
        &memory,
        budget,
        SelectionStrategy::Random,
    )
}

/// EWC: fine-tune contrastively on the new data with a diagonal-Fisher
/// quadratic anchor `λ·Σ F_i (θ_i − θ*_i)²` estimated on old-class pairs.
fn ewc_update(model: &mut Pilote, new_data: &Dataset) -> Result<(), TensorError> {
    let cfg = model.config().clone();
    let mut rng = model.fork_rng();
    let d0 = model.support().to_dataset()?;

    // ---- Fisher estimation on old-class contrastive pairs ---------------
    let net = model.net_mut();
    net.zero_grad();
    let is_new = vec![false; d0.len()];
    let pairs = build_epoch_pairs(&d0.labels, &is_new, PairScheme::Full, 4, &mut rng);
    let mut fisher: Vec<Tensor> = Vec::new();
    if !pairs.is_empty() {
        let take = pairs.len().min(512);
        let batch = pairs.slice(0, take);
        let (fa, fb) = batch.gather(&d0.features)?;
        let stacked = Tensor::vstack(&[&fa, &fb])?;
        let emb = net.forward_train(&stacked);
        let ea = emb.slice_rows(0, take)?;
        let eb = emb.slice_rows(take, 2 * take)?;
        let (_, ga, gb) =
            contrastive_pair_loss(&ea, &eb, &batch.similar, cfg.margin, cfg.contrastive_form)?;
        net.backward(&Tensor::vstack(&[&ga, &gb])?);
        fisher = net
            .layers_mut()
            .params_and_grads()
            .into_iter()
            .map(|(_, g)| g.map(|v| v * v))
            .collect();
    }
    let anchor = net.state_dict();
    net.zero_grad();

    // ---- fine-tune on new data with the EWC gradient penalty -----------
    let schedule = HalvingLr { initial: cfg.initial_lr, min_lr: 1e-6 };
    let mut optimizer = Adam::new();
    for epoch in 0..cfg.max_epochs {
        let lr = schedule.lr_at(epoch);
        let is_new = vec![true; new_data.len()];
        let pairs = build_epoch_pairs(&new_data.labels, &is_new, PairScheme::Full, cfg.pairs_per_sample, &mut rng);
        if pairs.is_empty() {
            break;
        }
        let mut start = 0usize;
        while start < pairs.len() {
            let end = (start + cfg.pair_batch).min(pairs.len());
            let batch = pairs.slice(start, end);
            start = end;
            let (fa, fb) = batch.gather(&new_data.features)?;
            net.zero_grad();
            let n = batch.len();
            let stacked = Tensor::vstack(&[&fa, &fb])?;
            let emb = net.forward_train(&stacked);
            let ea = emb.slice_rows(0, n)?;
            let eb = emb.slice_rows(n, 2 * n)?;
            let (_, ga, gb) =
                contrastive_pair_loss(&ea, &eb, &batch.similar, cfg.margin, cfg.contrastive_form)?;
            net.backward(&Tensor::vstack(&[&ga, &gb])?);
            // EWC penalty gradient: 2λ·F⊙(θ − θ*).
            if !fisher.is_empty() {
                for (pi, (param, grad)) in net.layers_mut().params_and_grads().into_iter().enumerate() {
                    let f = fisher[pi].as_slice();
                    let a = anchor[pi].as_slice();
                    for ((g, &p), (&fi, &ai)) in
                        grad.as_mut_slice().iter_mut().zip(param.as_slice()).zip(f.iter().zip(a))
                    {
                        *g += 2.0 * EWC_LAMBDA * fi * (p - ai);
                    }
                }
            }
            optimizer.step(net.layers_mut(), lr);
        }
    }
    store_new_classes(model, new_data)
}

/// Learning-without-forgetting classifier: a softmax head on the embedding
/// backbone, updated with hard cross-entropy on the new classes plus
/// temperature-softened distillation against the pre-update logits.
pub struct LwfClassifier {
    backbone: EmbeddingNet,
    head: Sequential,
    labels: Vec<usize>,
    cfg: PiloteConfig,
    rng: Rng64,
}

impl LwfClassifier {
    /// LwF update of `model`: fits a softmax head on the support set, then
    /// learns the classes of `new_data` with CE + KD. The trained backbone
    /// replaces the model's embedding network and the new samples enter its
    /// support set, so `model` serves NCM on the LwF embedding; the
    /// returned classifier scores through the head.
    pub fn learn(model: &mut Pilote, new_data: &Dataset) -> Result<LwfClassifier, TensorError> {
        let mut clf = LwfClassifier::from_pretrained(model)?;
        clf.learn_new_classes(new_data)?;
        *model.net_mut() = clf.backbone.clone_frozen();
        store_new_classes(model, new_data)?;
        Ok(clf)
    }

    /// Builds the classifier from a pre-trained PILOTE model: the backbone
    /// is copied and a linear head is fitted on the support set with plain
    /// cross-entropy.
    fn from_pretrained(base: &mut Pilote) -> Result<LwfClassifier, TensorError> {
        let cfg = base.config().clone();
        let mut rng = Rng64::new(cfg.seed ^ 0x17f);
        let labels = base.classifier().labels().to_vec();
        let mut this = LwfClassifier {
            backbone: base.net_mut().clone_frozen(),
            head: Sequential::new()
                .push(Dense::new(cfg.net.embedding_dim, labels.len(), &mut rng)),
            labels,
            cfg,
            rng,
        };
        let d0 = base.support().to_dataset()?;
        this.fit_head(&d0, None)?;
        Ok(this)
    }

    fn label_index(&self, label: usize) -> Option<usize> {
        self.labels.iter().position(|&l| l == label)
    }

    /// Trains the head (and lightly the backbone) with CE on `data`,
    /// optionally adding KD against the `teacher` logits of the first
    /// `old_k` classes at [`LWF_TEMPERATURE`].
    fn fit_head(
        &mut self,
        data: &Dataset,
        mut teacher: Option<(&mut EmbeddingNet, &mut Sequential, usize)>,
    ) -> Result<(), TensorError> {
        let schedule = HalvingLr { initial: self.cfg.initial_lr, min_lr: 1e-6 };
        let mut optim_head = Adam::new();
        let mut optim_backbone = Adam::new();
        for epoch in 0..self.cfg.max_epochs {
            let lr = schedule.lr_at(epoch);
            let batches =
                pilote_nn::train::shuffled_batches(data.len(), self.cfg.pair_batch, &mut self.rng);
            for batch in batches {
                let feats = data.features.select_rows(&batch)?;
                let targets: Vec<usize> = batch
                    .iter()
                    .map(|&i| self.label_index(data.labels[i]).expect("label known"))
                    .collect();
                self.backbone.zero_grad();
                self.head.zero_grad();
                let emb = self.backbone.forward_train(&feats);
                let logits = self.head.forward(&emb, Mode::Train);
                let (_, mut grad_logits) = softmax_cross_entropy(&logits, &targets)?;
                if let Some((t_backbone, t_head, old_k)) = teacher.as_mut() {
                    let t_emb = t_backbone.embed(&feats);
                    let t_logits = t_head.forward(&t_emb, Mode::Eval);
                    // KD on the old-class logit slice only.
                    let old_cols: Vec<usize> = (0..*old_k).collect();
                    let s_old = select_cols(&logits, &old_cols)?;
                    let (_, kd_grad) = kd_soft_cross_entropy(&s_old, &t_logits, LWF_TEMPERATURE)?;
                    scatter_cols_add(&mut grad_logits, &kd_grad, &old_cols)?;
                }
                let grad_emb = self.head.backward(&grad_logits);
                self.backbone.backward(&grad_emb);
                optim_head.step(&mut self.head, lr);
                optim_backbone.step(self.backbone.layers_mut(), lr * 0.1);
            }
        }
        Ok(())
    }

    /// LwF incremental step: extend the head with one output per unseen
    /// class of `new_data`, then train on it with CE (all its classes) +
    /// KD (old logits).
    fn learn_new_classes(&mut self, new_data: &Dataset) -> Result<(), TensorError> {
        let old_k = self.labels.len();
        let mut teacher_backbone = self.backbone.clone_frozen();
        let mut teacher_head = self.head.clone();
        let unseen: Vec<usize> =
            new_data.classes().into_iter().filter(|&l| self.label_index(l).is_none()).collect();
        let width = old_k + unseen.len();

        // Extend the head: copy old weight columns into a wider layer.
        let emb_dim = self.cfg.net.embedding_dim;
        let mut new_head = Sequential::new().push(Dense::new(emb_dim, width, &mut self.rng));
        {
            let old_params = self.head.state_dict();
            // params: [weight [emb, width], bias [width]]
            let mut pairs = new_head.params_and_grads();
            let w = pairs[0].0.as_mut_slice();
            for i in 0..emb_dim {
                w[i * width..i * width + old_k]
                    .copy_from_slice(&old_params[0].as_slice()[i * old_k..(i + 1) * old_k]);
            }
            pairs[1].0.as_mut_slice()[..old_k].copy_from_slice(old_params[1].as_slice());
        }
        self.head = new_head;
        self.labels.extend(unseen);

        // Train with CE + KD. `fit_head` handles the KD slice.
        self.fit_head(new_data, Some((&mut teacher_backbone, &mut teacher_head, old_k)))
    }

    /// Softmax-argmax prediction.
    pub fn predict(&mut self, features: &Tensor) -> Result<Vec<usize>, TensorError> {
        let emb = self.backbone.embed(features);
        let logits = self.head.forward(&emb, Mode::Eval);
        let mut out = Vec::with_capacity(logits.rows());
        for i in 0..logits.rows() {
            let row = Tensor::vector(logits.row(i));
            out.push(self.labels[row.argmax()?]);
        }
        Ok(out)
    }

    /// Accuracy on a labelled dataset.
    pub fn accuracy(&mut self, data: &Dataset) -> Result<f32, TensorError> {
        let pred = self.predict(&data.features)?;
        Ok(crate::metrics::accuracy(&pred, &data.labels))
    }
}

/// Extracts the given columns of a rank-2 tensor.
fn select_cols(t: &Tensor, cols: &[usize]) -> Result<Tensor, TensorError> {
    let mut out = Tensor::zeros([t.rows(), cols.len()]);
    for i in 0..t.rows() {
        for (jj, &j) in cols.iter().enumerate() {
            out.row_mut(i)[jj] = t.at(i, j);
        }
    }
    Ok(out)
}

/// Adds `src[:, jj]` into `dst[:, cols[jj]]`.
fn scatter_cols_add(dst: &mut Tensor, src: &Tensor, cols: &[usize]) -> Result<(), TensorError> {
    for i in 0..dst.rows() {
        for (jj, &j) in cols.iter().enumerate() {
            let add = src.at(i, jj);
            let cur = dst.at(i, j);
            dst.row_mut(i)[j] = cur + add;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilote_har_data::dataset::generate_features;
    use pilote_har_data::{Activity, Simulator};

    fn scenario() -> (Pilote, Dataset, Dataset, usize) {
        let mut sim = Simulator::with_seed(31);
        let (all, _) = generate_features(
            &mut sim,
            &[
                (Activity::Still, 50),
                (Activity::Drive, 50),
                (Activity::Run, 50),
            ],
        )
        .unwrap();
        let mut rng = Rng64::new(4);
        let (train, test) = all.stratified_split(0.3, &mut rng).unwrap();
        let old = train
            .filter_classes(&[Activity::Still.label(), Activity::Drive.label()])
            .unwrap();
        let new = train.filter_classes(&[Activity::Run.label()]).unwrap();
        let cfg = PiloteConfig::fast_test(9);
        let (model, _) =
            Pilote::pretrain(cfg, &old, 15, SelectionStrategy::Herding).unwrap();
        (model, new, test, Activity::Run.label())
    }

    /// Accuracy over the whole test set, the old classes and the new class.
    fn scores(model: &mut Pilote, test: &Dataset, new_label: usize) -> (f32, f32, f32) {
        let old: Vec<usize> = test.classes().into_iter().filter(|&l| l != new_label).collect();
        (
            model.accuracy(test).unwrap(),
            model.accuracy(&test.filter_classes(&old).unwrap()).unwrap(),
            model.accuracy(&test.filter_classes(&[new_label]).unwrap()).unwrap(),
        )
    }

    #[test]
    fn all_strategies_produce_outcomes() {
        let (base, new, test, new_label) = scenario();
        for strategy in Strategy::ALL {
            let mut m = base.clone_model();
            strategy.update(&mut m, &new, 15).unwrap();
            assert!(
                m.classifier().labels().contains(&new_label),
                "{}: new class learned",
                strategy.name()
            );
            let (acc, old, new_acc) = scores(&mut m, &test, new_label);
            for v in [acc, old, new_acc] {
                assert!((0.0..=1.0).contains(&v), "{}: accuracy {v}", strategy.name());
            }
        }
    }

    #[test]
    fn lwf_head_scores_every_class() {
        let (base, new, test, new_label) = scenario();
        let mut m = base.clone_model();
        let mut head = LwfClassifier::learn(&mut m, &new).unwrap();
        let acc = head.accuracy(&test).unwrap();
        assert!((0.0..=1.0).contains(&acc), "lwf head accuracy {acc}");
        assert_eq!(head.labels.last(), Some(&new_label));
        assert_eq!(head.labels.len(), m.classifier().n_classes());
    }

    #[test]
    fn retrained_retains_old_better_than_naive() {
        let (base, new, test, new_label) = scenario();
        let mut naive = base.clone_model();
        Strategy::NaiveFinetune.update(&mut naive, &new, 15).unwrap();
        let mut retrained = base.clone_model();
        Strategy::Retrained.update(&mut retrained, &new, 15).unwrap();
        let (_, naive_old, _) = scores(&mut naive, &test, new_label);
        let (_, retrained_old, _) = scores(&mut retrained, &test, new_label);
        assert!(
            retrained_old >= naive_old - 0.05,
            "retrained {retrained_old} vs naive {naive_old}"
        );
    }

    #[test]
    fn strategy_names_are_stable() {
        let names: Vec<&str> = Strategy::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            ["pilote", "retrained", "pretrained", "naive-finetune", "gdumb", "ewc", "lwf"]
        );
    }

    #[test]
    fn col_helpers_round_trip() {
        let t = Tensor::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let sel = select_cols(&t, &[0, 2]).unwrap();
        assert_eq!(sel.as_slice(), &[1.0, 3.0, 4.0, 6.0]);
        let mut dst = Tensor::zeros([2, 3]);
        scatter_cols_add(&mut dst, &sel, &[0, 2]).unwrap();
        assert_eq!(dst.as_slice(), &[1.0, 0.0, 3.0, 4.0, 0.0, 6.0]);
    }
}
