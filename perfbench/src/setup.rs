//! The shared set-up: the cloud corpus, the quick-scale deployment every
//! workload installs, and the seeded input generators.
//!
//! The cloud corpus and its pre-trained deployment are fixed (they are the
//! system under test); the traffic each workload sends — raw windows,
//! labelled samples, user sessions — is drawn from the run's `--seed`.

use pilote_core::{Pilote, PiloteConfig, SelectionStrategy};
use pilote_har_data::features::{extract_batch, extract_windows};
use pilote_har_data::preprocess::Normalizer;
use pilote_har_data::{Activity, Dataset, Simulator};
use pilote_magneto::{CloudServer, Deployment};
use pilote_nn::Checkpoint;
use pilote_tensor::{Rng64, Tensor};

/// Seed of the simulated cloud corpus (fixed: it defines the deployment).
pub const CORPUS_SEED: u64 = 0xc0_5eed;
/// Simulated corpus windows per activity (the repo's quick scale).
pub const PER_ACTIVITY: usize = 120;
/// Held-out share of the corpus (the paper's 30 % test split).
pub const TEST_FRACTION: f32 = 0.3;
/// Support exemplars per old class shipped in the deployment.
pub const EXEMPLARS_PER_CLASS: usize = 50;
/// Cloud pre-training epochs.
pub const PRETRAIN_EPOCHS: usize = 3;
/// The activity the deployment has never seen and devices learn on-edge.
pub const NEW_ACTIVITY: Activity = Activity::Run;
/// Labelled new-class samples per incremental update.
pub const UPDATE_SAMPLES: usize = 20;
/// Seed of a device's random stream at every measured update: every
/// update draws the same train/validation split and pair counts, so
/// updates differ only in their labelled samples and are identically
/// shaped.
pub const UPDATE_SEED: u64 = 0x0b5e_55ed;
/// New-class exemplars kept by an update.
pub const UPDATE_EXEMPLARS: usize = 20;

/// Labels of the four pre-trained activities.
pub fn old_labels() -> Vec<usize> {
    Activity::ALL
        .iter()
        .filter(|&&a| a != NEW_ACTIVITY)
        .map(|a| a.label())
        .collect()
}

/// The simulated cloud corpus, split into train and test.
pub struct Corpus {
    /// Training split, all five activities.
    pub train: Dataset,
    /// Held-out test split, all five activities.
    pub test: Dataset,
    /// Normaliser fitted on the whole corpus.
    pub normalizer: Normalizer,
}

/// Simulates the corpus and splits it.
pub fn corpus() -> Corpus {
    let mut sim = Simulator::with_seed(CORPUS_SEED);
    let counts: Vec<(Activity, usize)> = Activity::ALL.iter().map(|&a| (a, PER_ACTIVITY)).collect();
    let raw = sim.raw_dataset(&counts);
    let features = extract_batch(&raw).expect("corpus feature extraction");
    let (normalizer, features) = Normalizer::fit_transform(&features).expect("corpus normaliser");
    let data = Dataset::new(features, raw.labels).expect("corpus dataset");
    let mut rng = Rng64::new(CORPUS_SEED ^ 0x5011);
    let (train, test) = data
        .stratified_split(TEST_FRACTION, &mut rng)
        .expect("corpus split");
    Corpus {
        train,
        test,
        normalizer,
    }
}

/// Cloud pre-training hyper-parameters.
pub fn pretrain_config() -> PiloteConfig {
    let mut cfg = PiloteConfig::paper(CORPUS_SEED);
    cfg.max_epochs = PRETRAIN_EPOCHS;
    cfg.pairs_per_sample = 8;
    cfg.lr_halve_every = 3;
    cfg
}

/// Switches a packaged deployment to the edge update budget.
fn edge_budget(deployment: &mut Deployment) {
    deployment.config.max_epochs = 6;
    deployment.config.pairs_per_sample = 4;
    deployment.config.lr_halve_every = 1;
}

/// Pre-trains on the old classes and packages the deployment.
pub fn package(corpus: &Corpus) -> Deployment {
    let cloud = CloudServer::new(
        corpus.train.clone(),
        corpus.normalizer.clone(),
        pretrain_config(),
    );
    let (mut deployment, _) = cloud
        .pretrain_and_package(&old_labels(), EXEMPLARS_PER_CLASS)
        .expect("cloud pre-training");
    edge_budget(&mut deployment);
    deployment
}

/// The cloud pre-training of [`package`] replayed through
/// [`Pilote::pretrain`] directly; returns the model, whose parameters
/// must equal the packaged checkpoint bitwise.
pub fn pretrain_replay(corpus: &Corpus) -> Pilote {
    let train = corpus
        .train
        .filter_classes(&old_labels())
        .expect("old classes");
    let (model, _) = Pilote::pretrain(
        pretrain_config(),
        &train,
        EXEMPLARS_PER_CLASS,
        SelectionStrategy::Herding,
    )
    .expect("pre-training replay");
    model
}

/// Whether two checkpoints hold bitwise-equal parameters.
pub fn same_checkpoint(a: &Checkpoint, b: &Checkpoint) -> bool {
    a.shapes == b.shapes && a.params.iter().zip(&b.params).all(|(x, y)| same_bits(x, y))
}

/// Whether two tensors are bitwise equal.
pub fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Seeded raw traffic: one-second `[120, 22]` windows, each from a freshly
/// drawn simulated user, cycling through the five activities so every
/// run sends the same activity mix.
pub fn raw_windows(seed: u64, n: usize) -> Vec<(Activity, Tensor)> {
    let mut sim = Simulator::with_seed(seed);
    (0..n)
        .map(|i| {
            let activity = Activity::ALL[i % Activity::ALL.len()];
            (activity, sim.window(activity))
        })
        .collect()
}

/// Seeded windows of one activity.
pub fn activity_windows(seed: u64, activity: Activity, n: usize) -> Vec<Tensor> {
    Simulator::with_seed(seed).windows(activity, n)
}

/// Extracted, normalised `[n, 80]` features of raw windows.
pub fn features(normalizer: &Normalizer, windows: &[Tensor]) -> Tensor {
    let raw = extract_windows(windows).expect("feature extraction");
    normalizer.transform(&raw).expect("normalisation")
}
