//! `edge-stream`: the per-user recognition path at batch 1.
//!
//! One flagship device installed from the deployment. Each operation
//! pushes one second of raw 120 Hz × 22-channel samples through
//! [`EdgeDevice::stream`], which completes exactly one window: assembly,
//! feature extraction, normalisation, embedding and the NCM epilogue.

use crate::setup::{self, Corpus};
use crate::stats::Latencies;
use crate::trace::Trace;
use crate::{LoopResult, Workload};
use pilote_edge_sim::{DeviceProfile, LinkModel};
use pilote_har_data::sensors::WINDOW_LEN;
use pilote_har_data::stream::WindowAssembler;
use pilote_har_data::{Activity, FEATURE_DIM};
use pilote_magneto::{Deployment, EdgeDevice, InferenceOutcome};
use pilote_tensor::Tensor;
use std::time::Instant;

/// Distinct generated windows; operations cycle through them.
const POOL: usize = 2048;

/// Installs the device a stream workload serves from.
pub fn install(deployment: &Deployment) -> EdgeDevice {
    EdgeDevice::install(
        DeviceProfile::flagship_phone(),
        deployment,
        &LinkModel::wifi(),
    )
    .expect("device install")
}

/// The device-side window assembler, rebuilt from its public constructor
/// for replaying the assembly stage.
pub fn assembler(deployment: &Deployment) -> WindowAssembler {
    WindowAssembler::new(WINDOW_LEN, WINDOW_LEN, 1).with_normalizer(deployment.normalizer.clone())
}

/// Whether two served outcomes are bitwise equal.
pub fn same_outcome(a: &InferenceOutcome, b: &InferenceOutcome) -> bool {
    a.predicted == b.predicted && a.distance.to_bits() == b.distance.to_bits()
}

/// Streams `window` through `device` inside a `magneto.stream` span, then
/// replays the public calls `stream` makes — `push_block`, `embed`, the
/// NCM distances — as replayed children. Returns the served outcome, the
/// seconds `stream` took, and whether the replay reproduced it bitwise.
pub fn stream_decomposed(
    device: &mut EdgeDevice,
    shadow: &mut WindowAssembler,
    window: &Tensor,
    trace: &mut Trace,
) -> (Result<Vec<InferenceOutcome>, String>, f64, bool) {
    let op = trace.begin("magneto.stream", None);
    let served = device.stream(window).map_err(|e| e.to_string());
    trace.end(op);
    let seconds = trace.span(op).duration();
    let features = trace.replay("har-data.push_block", op, || shadow.push_block(window));
    let row = features
        .ok()
        .and_then(|f| f.first().and_then(|r| r.reshape([1, FEATURE_DIM]).ok()));
    let Some(row) = row else {
        return (served, seconds, false);
    };
    let model = device.model_mut();
    let emb = trace.replay("nn.embed", op, || model.embed(&row));
    let labelled = trace.replay("core.ncm", op, || {
        model.classifier().classify_with_distances(&emb)
    });
    let replayed = labelled.ok().map(|l| InferenceOutcome {
        predicted: l[0].0,
        distance: l[0].1,
    });
    let agrees = match (&served, replayed) {
        (Ok(v), Some(r)) => v.len() == 1 && same_outcome(&v[0], &r),
        _ => false,
    };
    (served, seconds, agrees)
}

/// Workload state.
pub struct EdgeStream {
    corpus: Corpus,
    deployment: Deployment,
    device: EdgeDevice,
    shadow: WindowAssembler,
    windows: Vec<(Activity, Tensor)>,
    /// Features of `windows`, extracted by the harness (reference for the
    /// batched-serving check).
    features: Tensor,
}

impl Workload for EdgeStream {
    const NAME: &'static str = "edge-stream";

    fn setup(seed: u64) -> Self {
        let corpus = setup::corpus();
        let deployment = setup::package(&corpus);
        let device = install(&deployment);
        let windows = setup::raw_windows(seed, POOL);
        let raw: Vec<Tensor> = windows.iter().map(|(_, w)| w.clone()).collect();
        let features = setup::features(&deployment.normalizer, &raw);
        let shadow = assembler(&deployment);
        EdgeStream {
            corpus,
            deployment,
            device,
            shadow,
            windows,
            features,
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
        let mut served: Vec<Option<InferenceOutcome>> = vec![None; POOL];
        let mut serve_rates = Vec::new();
        let (mut labelled, mut correct, mut stable, mut replays_agree) = (0u64, 0u64, true, true);
        let start = Instant::now();
        let mut i = 0usize;
        while start.elapsed().as_secs_f64() < seconds {
            let j = i % POOL;
            let (activity, window) = &self.windows[j];
            let (result, op_seconds) = match trace.as_deref_mut() {
                None => {
                    let t = Instant::now();
                    let result = self.device.stream(window).map_err(|e| e.to_string());
                    (result, t.elapsed().as_secs_f64())
                }
                Some(trace) => {
                    let (result, seconds, agrees) =
                        stream_decomposed(&mut self.device, &mut self.shadow, window, trace);
                    replays_agree &= agrees;
                    (result, seconds)
                }
            };
            match result {
                Ok(out) if out.len() == 1 => {
                    ops.ok(op_seconds);
                    serve_rates.push(1.0 / op_seconds);
                    labelled += 1;
                    correct += u64::from(out[0].predicted == activity.label());
                    match &served[j] {
                        Some(prev) => stable &= same_outcome(prev, &out[0]),
                        None => served[j] = Some(out[0]),
                    }
                }
                _ => ops.failed(),
            }
            i += 1;
        }
        let mut checks = vec![("stream_outcome_stable".to_string(), stable)];
        if trace.is_some() {
            checks.push(("stream_replay_bitwise".to_string(), replays_agree));
        }
        checks.push((
            "stream_equals_serve_batch".to_string(),
            self.matches_serve_batch(&served),
        ));
        LoopResult {
            serve_windows: labelled,
            serve_rates,
            labelled,
            correct_labels: correct,
            ops,
            checks,
            ..LoopResult::default()
        }
    }
}

impl EdgeStream {
    /// Labels and distances from `stream` equal `serve_batch` on the same
    /// (harness-extracted) features, bitwise.
    fn matches_serve_batch(&self, served: &[Option<InferenceOutcome>]) -> bool {
        let mut reference = install(&self.deployment);
        let Ok(batch) = reference.serve_batch(&self.features) else {
            return false;
        };
        batch.len() == POOL
            && served
                .iter()
                .zip(&batch)
                .all(|(s, b)| s.as_ref().is_none_or(|s| same_outcome(s, b)))
    }
}
