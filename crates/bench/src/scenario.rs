//! Scenario construction and the three-model protocol of §6.1.3.
//!
//! Every experiment follows the same shape: pick one activity as the *new
//! class*, pre-train on the remaining four, then [`run`] one
//! [`Strategy`] (pre-trained / re-trained / PILOTE, or one of the
//! ablation arms) and evaluate on a held-out test set spanning all five
//! activities. The pre-trained model is shared across strategies and
//! rounds, exactly as in the paper ("the re-trained model and PILOTE in
//! each scenario are based on the same pre-trained model"), and every
//! strategy run at one round seed sees the same new-class samples.

use crate::scale::Scale;
use pilote_core::pilote::TrainReport;
use pilote_core::strategies::{LwfClassifier, Strategy};
use pilote_core::{Pilote, PiloteConfig, SelectionStrategy, SupportSet};
use pilote_har_data::dataset::generate_features;
use pilote_har_data::{Activity, Dataset};
use pilote_tensor::{Rng64, TensorError};
use std::time::Instant;

/// One incremental-learning scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The held-out activity learned on the edge.
    pub new_activity: Activity,
    /// Training data of the four old activities.
    pub train_old: Dataset,
    /// Training pool of the new activity (edge samples are drawn here).
    pub new_pool: Dataset,
    /// Test set over all five activities (30% stratified hold-out).
    pub test: Dataset,
}

impl Scenario {
    /// Old-class labels of this scenario.
    pub fn old_labels(&self) -> Vec<usize> {
        Activity::ALL
            .iter()
            .filter(|&&a| a != self.new_activity)
            .map(|a| a.label())
            .collect()
    }

    /// Test subset restricted to the old classes.
    pub fn old_test(&self) -> Dataset {
        self.test.filter_classes(&self.old_labels()).expect("labels exist")
    }

    /// Test subset restricted to the new class.
    pub fn new_test(&self) -> Dataset {
        self.test.filter_classes(&[self.new_activity.label()]).expect("label exists")
    }
}

/// Simulates the campaign and splits it into a scenario for
/// `new_activity`.
pub fn build_scenario(new_activity: Activity, scale: &Scale, seed: u64) -> Scenario {
    let mut sim = pilote_har_data::Simulator::with_seed(seed);
    let counts: Vec<(Activity, usize)> =
        Activity::ALL.iter().map(|&a| (a, scale.per_activity)).collect();
    let (data, _norm) = generate_features(&mut sim, &counts).expect("simulation");
    let mut rng = Rng64::new(seed ^ 0x5011);
    let (train, test) = data.stratified_split(scale.test_fraction(), &mut rng).expect("split");
    let old_labels: Vec<usize> = Activity::ALL
        .iter()
        .filter(|&&a| a != new_activity)
        .map(|a| a.label())
        .collect();
    Scenario {
        new_activity,
        train_old: train.filter_classes(&old_labels).expect("old classes"),
        new_pool: train.filter_classes(&[new_activity.label()]).expect("new class"),
        test,
    }
}

/// A pre-trained starting point shared by all strategies of a scenario.
pub struct PretrainedBase {
    /// The scenario this base was trained for.
    pub scenario: Scenario,
    /// The pre-trained model (support set at the scale's default budget).
    pub model: Pilote,
    /// Pre-training report.
    pub report: TrainReport,
}

/// Pre-trains on the scenario's old classes (cloud phase).
pub fn pretrain_base(scenario: Scenario, scale: &Scale, seed: u64) -> PretrainedBase {
    let mut cfg = PiloteConfig::paper(seed);
    cfg.max_epochs = scale.pretrain_epochs;
    cfg.pairs_per_sample = 8;
    // Cloud pre-training decays slowly enough to actually converge; the
    // edge updates below revert to the paper's halve-every-epoch schedule.
    cfg.lr_halve_every = 3;
    let (mut model, report) = Pilote::pretrain(
        cfg,
        &scenario.train_old,
        scale.exemplars_per_class,
        SelectionStrategy::Herding,
    )
    .expect("pretrain");
    // Edge updates run under the edge budget, not the cloud budget.
    model.config_mut().max_epochs = scale.max_epochs;
    model.config_mut().pairs_per_sample = 4;
    model.config_mut().lr_halve_every = 1;
    PretrainedBase { scenario, model, report }
}

/// Re-selects the base model's support set at a different per-class budget
/// and/or strategy (used by the Fig. 6 sweep), returning a fresh clone.
pub fn with_support_budget(
    base: &PretrainedBase,
    exemplars_per_class: usize,
    strategy: SelectionStrategy,
    seed: u64,
) -> Pilote {
    let mut model = base.model.clone_model();
    model.reseed(seed);
    let mut rng = model.fork_rng();
    let support = SupportSet::select_from(
        &base.scenario.train_old,
        model.net_mut(),
        exemplars_per_class,
        strategy,
        &mut rng,
    )
    .expect("support selection");
    *model.support_mut() = support;
    model.refresh_prototypes().expect("prototypes");
    model
}

/// Metrics of one strategy run on one scenario.
#[derive(Debug, Clone, Copy)]
pub struct ModelRun {
    /// Accuracy over the full five-class test set.
    pub accuracy: f32,
    /// Accuracy restricted to the four old classes.
    pub old_accuracy: f32,
    /// Accuracy restricted to the new class.
    pub new_accuracy: f32,
    /// Wall-clock seconds of the update and its scoring.
    pub seconds: f64,
    /// Training epochs consumed.
    pub epochs: usize,
}

/// Scores a classifier on the full, old-class and new-class test sets.
fn evaluate(
    mut accuracy: impl FnMut(&Dataset) -> Result<f32, TensorError>,
    scenario: &Scenario,
) -> ModelRun {
    ModelRun {
        accuracy: accuracy(&scenario.test).expect("test eval"),
        old_accuracy: accuracy(&scenario.old_test()).expect("old eval"),
        new_accuracy: accuracy(&scenario.new_test()).expect("new eval"),
        seconds: 0.0,
        epochs: 0,
    }
}

/// Draws the round's new-class sample set from the pool.
fn draw_new_data(scenario: &Scenario, n: usize, seed: u64) -> Dataset {
    let mut rng = Rng64::new(seed ^ 0xd21a);
    scenario
        .new_pool
        .sample_class(scenario.new_activity.label(), n, &mut rng)
        .expect("new-class sample")
}

/// Runs `strategy` on `model` for one round: re-seeds the model with
/// `round_seed`, draws `new_exemplars` new-class samples (the same draw for
/// every strategy at that seed), applies [`Strategy::update`] and scores
/// the result. LwF is scored through its own softmax head; every other
/// strategy through the model's NCM prototypes.
pub fn run(
    strategy: Strategy,
    model: &mut Pilote,
    scenario: &Scenario,
    new_exemplars: usize,
    round_seed: u64,
) -> (ModelRun, Option<TrainReport>) {
    model.reseed(round_seed);
    let new_data = draw_new_data(scenario, new_exemplars, round_seed);
    let start = Instant::now();
    let (mut run, report) = if strategy == Strategy::Lwf {
        let mut head = LwfClassifier::learn(model, &new_data).expect("lwf update");
        (evaluate(|d| head.accuracy(d), scenario), None)
    } else {
        let report = strategy.update(model, &new_data, new_exemplars).expect("strategy update");
        (evaluate(|d| model.accuracy(d), scenario), report)
    };
    run.seconds = start.elapsed().as_secs_f64();
    run.epochs = report.as_ref().map_or(0, |r| r.epochs.len());
    (run, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_partitions_classes() {
        let scale = Scale::quick();
        let s = build_scenario(Activity::Run, &scale, 1);
        assert_eq!(s.old_labels().len(), 4);
        assert!(!s.old_labels().contains(&Activity::Run.label()));
        assert_eq!(s.new_pool.classes(), vec![Activity::Run.label()]);
        assert_eq!(s.test.classes().len(), 5);
    }

    #[test]
    fn three_model_protocol_runs() {
        let scale = Scale::quick();
        let scenario = build_scenario(Activity::Run, &scale, 2);
        let base = pretrain_base(scenario, &scale, 2);
        let mut pre = base.model.clone_model();
        let (run_pre, report_pre) = run(Strategy::Pretrained, &mut pre, &base.scenario, 30, 7);
        let mut pil = base.model.clone_model();
        let (run_pil, report_pil) = run(Strategy::Pilote, &mut pil, &base.scenario, 30, 7);
        assert!(report_pre.is_none() && run_pre.epochs == 0);
        assert_eq!(run_pil.epochs, report_pil.expect("pilote trains").epochs.len());
        for r in [run_pre, run_pil] {
            assert!((0.0..=1.0).contains(&r.accuracy));
            assert!((0.0..=1.0).contains(&r.new_accuracy));
        }
        // Both models now know all 5 classes.
        assert_eq!(pre.classifier().n_classes(), 5);
        assert_eq!(pil.classifier().n_classes(), 5);
    }

    #[test]
    fn support_budget_rebase_changes_size() {
        let scale = Scale::quick();
        let scenario = build_scenario(Activity::Walk, &scale, 3);
        let base = pretrain_base(scenario, &scale, 3);
        let model = with_support_budget(&base, 10, SelectionStrategy::Random, 9);
        assert_eq!(model.support().len(), 10 * 4);
    }
}
