//! `edge-update`: the on-device increment with extremely limited data.
//!
//! Each operation installs a fresh device from the deployment (untimed),
//! labels [`UPDATE_SAMPLES`] samples of the held-out activity, and times
//! [`EdgeDevice::update_faulted`]. The updated device then classifies the
//! held-out test set: that call is timed as serving, and its accuracy on
//! old and new classes guards against forgetting and numerics changes.

use crate::report::Metric;
use crate::setup::{self, Corpus, NEW_ACTIVITY, UPDATE_EXEMPLARS, UPDATE_SAMPLES, UPDATE_SEED};
use crate::stats::Latencies;
use crate::trace::Trace;
use crate::{LoopResult, Workload};
use pilote_core::pairs::{build_epoch_pairs, PairScheme};
use pilote_core::pilote::{train_embedding, TrainOptions};
use pilote_core::{select_exemplars, Pilote, SelectionStrategy};
use pilote_har_data::Dataset;
use pilote_magneto::{Deployment, EdgeDevice, UpdateStatus};
use pilote_nn::train::train_val_split;
use pilote_tensor::{Rng64, Tensor};
use std::time::Instant;

/// Distinct generated label batches; operations cycle through them.
const BATCHES: usize = 32;

/// What a decomposed incremental update did.
pub struct LearnReplay {
    /// Training epochs run.
    pub epochs: usize,
    /// Pair mini-batches over all epochs.
    pub pair_batches: usize,
    /// Seconds the replayed `learn_new_class` took.
    pub seconds: f64,
}

/// Replays [`Pilote::learn_new_class`] on `model` through the public calls
/// it makes — `train_embedding`, exemplar selection, `refresh_prototypes`
/// — each in a span nested in `core.learn_new_class`, with the model's
/// random stream seeded to `seed` (the caller seeds the original the same
/// way). The
/// pair sampling of every epoch is replayed once more on a twin random
/// stream to time it and count the pair batches.
pub fn learn_decomposed(
    model: &mut Pilote,
    new_data: &Dataset,
    exemplar_budget: usize,
    seed: u64,
    trace: &mut Trace,
) -> LearnReplay {
    let learn = trace.begin("core.learn_new_class", None);
    let d0 = model.support().to_dataset().expect("support dataset");
    let combined = d0.concat(new_data).expect("combined dataset");
    let mut is_new = vec![false; d0.len()];
    is_new.extend(std::iter::repeat_n(true, new_data.len()));
    let mut teacher = model.net_mut().clone_frozen();
    let mut cfg = model.config().clone();
    cfg.pairs_per_sample = cfg.pairs_per_sample.saturating_mul(4);
    let opts = TrainOptions {
        alpha: cfg.alpha,
        teacher: Some(&mut teacher),
        distill_rows: (0..d0.len()).collect(),
        scheme: PairScheme::Reduced,
        freeze_bn: true,
    };
    let mut rng = Rng64::new(seed);
    let report = trace.time("core.train_embedding", Some(learn), || {
        train_embedding(model.net_mut(), &combined, &is_new, &cfg, opts, &mut rng)
            .expect("train_embedding")
    });
    trace.time("core.exemplars", Some(learn), || {
        for label in new_data.classes() {
            let class = new_data.filter_classes(&[label]).expect("new class rows");
            let embeddings = model.net_mut().embed(&class.features);
            let chosen = select_exemplars(
                &embeddings,
                exemplar_budget,
                SelectionStrategy::Random,
                &mut rng,
            )
            .expect("exemplar selection");
            let rows = class.features.select_rows(&chosen).expect("exemplar rows");
            model.support_mut().put_class(label, rows);
        }
    });
    trace.time("core.refresh_prototypes", Some(learn), || {
        model.refresh_prototypes().expect("prototype refresh")
    });
    trace.end(learn);

    // The twin stream draws exactly what `train_embedding` drew: the
    // train/validation split, the fixed validation pairs, then one pair
    // population per epoch.
    let mut twin = Rng64::new(seed);
    let (train_rows, val_rows) = train_val_split(combined.len(), cfg.val_fraction, &mut twin);
    let pick = |rows: &[usize]| -> (Vec<usize>, Vec<bool>) {
        (
            rows.iter().map(|&i| combined.labels[i]).collect(),
            rows.iter().map(|&i| is_new[i]).collect(),
        )
    };
    let (val_labels, val_is_new) = pick(&val_rows);
    build_epoch_pairs(
        &val_labels,
        &val_is_new,
        PairScheme::Reduced,
        cfg.pairs_per_sample,
        &mut twin,
    );
    let (train_labels, train_is_new) = pick(&train_rows);
    let mut pair_batches = 0;
    for _ in &report.epochs {
        let pairs = trace.time("core.pairs", None, || {
            build_epoch_pairs(
                &train_labels,
                &train_is_new,
                PairScheme::Reduced,
                cfg.pairs_per_sample,
                &mut twin,
            )
        });
        pair_batches += pairs.len().div_ceil(cfg.pair_batch);
    }
    LearnReplay {
        epochs: report.epochs.len(),
        pair_batches,
        seconds: trace.span(learn).duration(),
    }
}

/// Whether two models serve from bitwise-equal prototypes.
pub fn same_prototypes(a: &Pilote, b: &Pilote) -> bool {
    a.classifier().labels() == b.classifier().labels()
        && setup::same_bits(
            a.classifier().prototype_matrix(),
            b.classifier().prototype_matrix(),
        )
}

/// Buffers a labelled batch on a device.
pub fn label_batch(device: &mut EdgeDevice, batch: &Tensor) {
    for r in 0..batch.rows() {
        device.label_sample(NEW_ACTIVITY.label(), Tensor::vector(batch.row(r)));
    }
}

/// The labelled batch as the dataset `update_faulted` builds from it.
pub fn batch_dataset(batch: &Tensor) -> Dataset {
    Dataset::new(batch.clone(), vec![NEW_ACTIVITY.label(); batch.rows()]).expect("batch dataset")
}

/// Workload state.
pub struct EdgeUpdate {
    corpus: Corpus,
    deployment: Deployment,
    batches: Vec<Tensor>,
    old_test: Dataset,
    new_test: Dataset,
}

impl Workload for EdgeUpdate {
    const NAME: &'static str = "edge-update";

    fn setup(seed: u64) -> Self {
        let corpus = setup::corpus();
        let deployment = setup::package(&corpus);
        let batches = (0..BATCHES as u64)
            .map(|b| {
                let raw = setup::activity_windows(seed ^ (b << 32), NEW_ACTIVITY, UPDATE_SAMPLES);
                setup::features(&deployment.normalizer, &raw)
            })
            .collect();
        let old_test = corpus
            .test
            .filter_classes(&setup::old_labels())
            .expect("old test");
        let new_test = corpus
            .test
            .filter_classes(&[NEW_ACTIVITY.label()])
            .expect("new test");
        EdgeUpdate {
            corpus,
            deployment,
            batches,
            old_test,
            new_test,
        }
    }

    fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    fn into_parts(self) -> (Corpus, Deployment) {
        (self.corpus, self.deployment)
    }

    fn run(&mut self, seconds: f64, mut trace: Option<&mut Trace>) -> LoopResult {
        let mut ops = Latencies::default();
        let mut result = LoopResult::default();
        let (mut old_sum, mut new_sum, mut replays_agree) = (0.0f64, 0.0f64, true);
        let mut learned = true;
        let test = &self.corpus.test;
        let start = Instant::now();
        let mut i = 0usize;
        while start.elapsed().as_secs_f64() < seconds {
            let batch = &self.batches[i % BATCHES];
            let mut device = crate::edge_stream::install(&self.deployment);
            device.model_mut().reseed(UPDATE_SEED);
            label_batch(&mut device, batch);
            let mut twin = trace.is_some().then(|| {
                let mut twin = device.model_mut().clone_model();
                twin.reseed(UPDATE_SEED);
                twin
            });
            let t = Instant::now();
            let status = device.update_faulted(UPDATE_EXEMPLARS, None);
            let op_seconds = t.elapsed().as_secs_f64();
            if let (Some(trace), Some(twin)) = (trace.as_deref_mut(), twin.as_mut()) {
                let data = batch_dataset(batch);
                learn_decomposed(twin, &data, UPDATE_EXEMPLARS, UPDATE_SEED, trace);
                replays_agree &= same_prototypes(twin, device.model_mut());
            }
            let completed = matches!(status, Ok(UpdateStatus::Completed));
            ops.record(op_seconds, completed);
            // A committed update serves the new class from then on.
            learned &= !completed || device.known_classes().contains(&NEW_ACTIVITY.label());

            let t = Instant::now();
            let accuracy = device.accuracy(test);
            result
                .serve_rates
                .push(test.len() as f64 / t.elapsed().as_secs_f64());
            result.serve_windows += test.len() as u64;
            if let Ok(a) = accuracy {
                result.labelled += test.len() as u64;
                result.correct_labels += (f64::from(a) * test.len() as f64).round() as u64;
            }
            old_sum += f64::from(device.accuracy(&self.old_test).unwrap_or(0.0));
            new_sum += f64::from(device.accuracy(&self.new_test).unwrap_or(0.0));
            i += 1;
        }
        let n = ops.attempted();
        result.notes = vec![
            Metric::new(
                "old_class_accuracy",
                "share",
                old_sum / n as f64,
                n,
                "mean over updates",
            ),
            Metric::new(
                "new_class_accuracy",
                "share",
                new_sum / n as f64,
                n,
                "mean over updates",
            ),
        ];
        result
            .checks
            .push(("committed_update_knows_new_class".to_string(), learned));
        if trace.is_some() {
            result.checks.push((
                "update_replay_prototypes_bitwise".to_string(),
                replays_agree,
            ));
        }
        result.ops = ops;
        result
    }
}
