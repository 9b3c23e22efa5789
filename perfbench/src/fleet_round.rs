//! `fleet-round`: a heterogeneous fleet serving sessions between federated
//! rounds.
//!
//! [`DEVICES`] devices (`DeviceProfile::roster` over a wifi / 4G /
//! weak-cellular link mix) are deployed with `Fleet::deploy_sharded`. Each
//! cycle serves two blocks of hash-routed, pre-extracted 8-window sessions
//! through `Fleet::serve_sessions` (timed), lets two rotating users label
//! new-class samples (untimed; each triggers an incremental update, so the
//! next round carries non-zero deltas), runs one `Fleet::federated_round`
//! (timed) and one telemetry delta upload.

use crate::setup::{self, Corpus, NEW_ACTIVITY, UPDATE_SAMPLES};
use crate::stats::Latencies;
use crate::trace::{SpanId, Trace};
use crate::{DeviceMemory, LoopResult, Workload};
use pilote_edge_sim::{DeviceProfile, LinkModel, WirePrecision};
use pilote_har_data::Activity;
use pilote_magneto::wire::{decode_round, encode_round_delta};
use pilote_magneto::{
    federated_average, Deployment, Fleet, FleetConfig, TelemetryRollup, UpdateStatus,
};
use pilote_nn::Checkpoint;
use pilote_tensor::{Rng64, Tensor};
use std::time::Instant;

/// Devices in the workload's fleet.
pub const DEVICES: usize = 64;
/// Windows per served session.
pub const WINDOWS_PER_SESSION: usize = 8;
/// Sessions served per cycle.
const SESSIONS_PER_BLOCK: usize = 512;
/// Distinct pre-generated session blocks; cycles rotate through them.
const BLOCKS: usize = 4;
/// Session blocks served per cycle.
const BLOCKS_PER_CYCLE: usize = 2;
/// Simulated users sessions are drawn from.
const USERS: usize = 1024;
/// Users who label new-class samples each cycle.
const LABELLERS_PER_CYCLE: usize = 2;
/// Generated windows per activity in the session pool.
const POOL_PER_ACTIVITY: usize = 512;

/// The fleet configuration every fleet in the benchmark runs with: rounds
/// only when asked for, and batch-4 serving chunks.
pub fn fleet_config() -> FleetConfig {
    FleetConfig {
        federated_every: 0,
        serve_chunk: 4,
        ..FleetConfig::default()
    }
}

/// Deploys `devices` roster devices over the link mix.
pub fn deploy(deployment: &Deployment, devices: usize) -> Fleet {
    let links = [
        LinkModel::wifi(),
        LinkModel::cellular_4g(),
        LinkModel::weak_cellular(),
    ];
    let slots = DeviceProfile::roster(devices)
        .into_iter()
        .enumerate()
        .map(|(i, p)| (p, links[i % links.len()]))
        .collect();
    Fleet::deploy_sharded(slots, deployment, fleet_config()).expect("fleet deploy")
}

/// Seeded traffic for a fleet: session blocks of `(user, features)` with
/// each session's true activity, and a pool of new-class feature rows for
/// labelling users.
pub struct Traffic {
    /// Session blocks.
    pub blocks: Vec<Vec<(u64, Tensor)>>,
    /// True activity label of each session, per block.
    pub labels: Vec<Vec<usize>>,
    /// User ids sessions are drawn from (labellers rotate through them).
    pub users: Vec<u64>,
    /// New-class feature rows labelling users draw from.
    pub new_class: Tensor,
}

/// Generates `blocks` blocks of `sessions` sessions each; sessions cycle
/// through the five activities, users and windows are drawn at random.
pub fn traffic(seed: u64, deployment: &Deployment, blocks: usize, sessions: usize) -> Traffic {
    let pools: Vec<Tensor> = Activity::ALL
        .iter()
        .enumerate()
        .map(|(k, &a)| {
            let raw = setup::activity_windows(seed ^ ((k as u64 + 1) << 40), a, POOL_PER_ACTIVITY);
            setup::features(&deployment.normalizer, &raw)
        })
        .collect();
    let mut rng = Rng64::new(seed ^ 0xf1ee7);
    let users: Vec<u64> = (0..USERS).map(|_| rng.next_u64()).collect();
    let mut out = Traffic {
        blocks: Vec::with_capacity(blocks),
        labels: Vec::with_capacity(blocks),
        users,
        new_class: pools[NEW_ACTIVITY.label()].clone(),
    };
    for _ in 0..blocks {
        let mut block = Vec::with_capacity(sessions);
        let mut labels = Vec::with_capacity(sessions);
        for k in 0..sessions {
            let activity = k % Activity::ALL.len();
            let rows: Vec<usize> = (0..WINDOWS_PER_SESSION)
                .map(|_| rng.below(POOL_PER_ACTIVITY))
                .collect();
            let features = pools[activity].select_rows(&rows).expect("session rows");
            block.push((out.users[rng.below(USERS)], features));
            labels.push(Activity::ALL[activity].label());
        }
        out.blocks.push(block);
        out.labels.push(labels);
    }
    out
}

/// Lets `count` users, starting at rotation slot `first`, label
/// [`UPDATE_SAMPLES`] new-class samples each. Returns the update statuses
/// the labels triggered.
pub fn label_round(
    fleet: &mut Fleet,
    traffic: &Traffic,
    first: usize,
    count: usize,
) -> Vec<Result<UpdateStatus, String>> {
    let mut statuses = Vec::new();
    for k in first..first + count {
        let user = traffic.users[k % traffic.users.len()];
        for r in 0..UPDATE_SAMPLES {
            let row = (k * UPDATE_SAMPLES + r) % traffic.new_class.rows();
            let sample = Tensor::vector(traffic.new_class.row(row));
            match fleet.label_sample(user, NEW_ACTIVITY.label(), sample) {
                Ok(Some(status)) => statuses.push(Ok(status)),
                Ok(None) => {}
                Err(e) => statuses.push(Err(e.to_string())),
            }
        }
    }
    statuses
}

/// Whether every device of `fleet` holds `ckpt` bitwise.
fn all_hold(fleet: &mut Fleet, ckpt: &Checkpoint) -> bool {
    (0..fleet.len()).all(|i| {
        let layers = fleet.device_mut(i).model_mut().net_mut().layers_mut();
        setup::same_checkpoint(&Checkpoint::capture(layers), ckpt)
    })
}

/// What a decomposed federated round moved.
pub struct RoundReplay {
    /// Seconds `federated_round` took.
    pub seconds: f64,
    /// Whether the round succeeded.
    pub ok: bool,
    /// Whether the replay reproduced the round: the wire totals grew by
    /// exactly the payloads it encoded and every device holds its decoded
    /// broadcast bitwise.
    pub agrees: bool,
    /// Upload bytes the replay encoded, per device.
    pub upload_bytes_per_device: f64,
    /// Download bytes the replay encoded, per device.
    pub download_bytes_per_device: f64,
}

/// Runs one `federated_round` inside a `magneto.federated_round` span and
/// replays it through the public calls the round makes: checkpoint
/// capture, delta encode and coordinator-side decode of every upload,
/// `federated_average`, encode and decode of the broadcast, and restore
/// plus prototype refresh on every device. `base` is the fleet's committed
/// broadcast (the deployment checkpoint before the first round); it
/// becomes the decoded broadcast.
pub fn round_decomposed(
    fleet: &mut Fleet,
    base: &mut Checkpoint,
    trace: &mut Trace,
) -> RoundReplay {
    const F32: WirePrecision = WirePrecision::F32;
    let round = fleet.committed_round();
    let n = fleet.len();
    // Capture happens before the round changes the weights; the replay
    // spans are attached to the round's span once it exists.
    let t = Instant::now();
    let captured: Vec<(Checkpoint, usize)> = (0..n)
        .map(|i| {
            let model = fleet.device_mut(i).model_mut();
            let support = model.support().len();
            (Checkpoint::capture(model.net_mut().layers_mut()), support)
        })
        .collect();
    let capture_seconds = t.elapsed().as_secs_f64();

    let before = fleet.wire_totals();
    let op = trace.begin("magneto.federated_round", None);
    let ok = fleet.federated_round().is_ok();
    trace.end(op);
    let seconds = trace.span(op).duration();
    let after = fleet.wire_totals();
    let start = trace.span(op).end;
    trace.push(crate::trace::Span {
        name: "magneto.fed.capture".into(),
        parent: Some(op),
        replay: true,
        start,
        end: start + capture_seconds,
    });

    let uploads: Vec<Vec<u8>> = trace.replay("magneto.fed.encode", op, || {
        captured
            .iter()
            .map(|(c, _)| encode_round_delta(base, c, round, F32).expect("upload encode"))
            .collect()
    });
    let decoded: Vec<(Checkpoint, usize)> = trace.replay("magneto.fed.decode", op, || {
        uploads
            .iter()
            .zip(&captured)
            .map(|(p, (_, s))| {
                (
                    decode_round(p, Some((base, round))).expect("upload decode"),
                    *s,
                )
            })
            .collect()
    });
    let merged = trace.replay("magneto.fed.average", op, || {
        federated_average(&decoded).expect("federated average")
    });
    let broadcast = trace.replay("magneto.fed.encode", op, || {
        encode_round_delta(base, &merged, round, F32).expect("broadcast encode")
    });
    let canonical = trace.replay("magneto.fed.decode", op, || {
        decode_round(&broadcast, Some((base, round))).expect("broadcast decode")
    });
    let installed = all_hold(fleet, &canonical);
    trace.replay("magneto.fed.install", op, || {
        for i in 0..n {
            let model = fleet.device_mut(i).model_mut();
            canonical
                .restore(model.net_mut().layers_mut())
                .expect("install restore");
            model.refresh_prototypes().expect("install refresh");
        }
    });
    let up: u64 = uploads.iter().map(|p| p.len() as u64).sum();
    let down = broadcast.len() as u64 * n as u64;
    let agrees = ok
        && installed
        && after.federated_upload_bytes - before.federated_upload_bytes == up
        && after.federated_download_bytes - before.federated_download_bytes == down;
    *base = canonical;
    RoundReplay {
        seconds,
        ok,
        agrees,
        upload_bytes_per_device: up as f64 / n as f64,
        download_bytes_per_device: down as f64 / n as f64,
    }
}

/// Serves `sessions` through `serve_sessions` inside a
/// `magneto.fleet.serve_sessions` span, then replays each session on its
/// routed device through `serve_batch` in `serve_chunk` slices (replayed
/// children `magneto.serve_batch`), walking devices in index order and
/// each device's sessions in input order, as `serve_sessions` does.
/// Returns the span and whether the replay reproduced every outcome
/// bitwise.
pub fn serve_decomposed(
    fleet: &mut Fleet,
    sessions: &[(u64, Tensor)],
    trace: &mut Trace,
) -> (SpanId, bool) {
    let op = trace.begin("magneto.fleet.serve_sessions", None);
    let served = fleet.serve_sessions(sessions).expect("serve sessions");
    trace.end(op);
    let chunk = fleet_config().serve_chunk;
    let mut order: Vec<usize> = (0..sessions.len()).collect();
    order.sort_by_key(|&s| fleet.route(sessions[s].0));
    let mut agrees = served.len() == sessions.len();
    for s in order {
        let (user, features) = &sessions[s];
        let device = fleet.device_mut(fleet.route(*user));
        let mut replayed = Vec::with_capacity(features.rows());
        for row in (0..features.rows()).step_by(chunk) {
            let end = (row + chunk).min(features.rows());
            let slice = features.slice_rows(row, end).expect("chunk rows");
            let out = trace.replay("magneto.serve_batch", op, || device.serve_batch(&slice));
            replayed.extend(out.expect("serve_batch replay"));
        }
        agrees &= replayed.len() == served[s].len()
            && replayed
                .iter()
                .zip(&served[s])
                .all(|(a, b)| crate::edge_stream::same_outcome(a, b));
    }
    (op, agrees)
}

/// Workload state.
pub struct FleetRound {
    corpus: Corpus,
    deployment: Deployment,
    fleet: Fleet,
    memory: DeviceMemory,
    traffic: Traffic,
    rollup: TelemetryRollup,
    /// The fleet's committed broadcast, tracked for round replays.
    base: Checkpoint,
    cycles: usize,
    windows_served: u64,
}

impl FleetRound {
    /// Serves session block `b`, tallying windows, accuracy and failures.
    fn serve_block(&mut self, b: usize, result: &mut LoopResult) {
        let block = &self.traffic.blocks[b];
        let t = Instant::now();
        let served = self.fleet.serve_sessions(block);
        let seconds = t.elapsed().as_secs_f64();
        result.other_attempted += block.len();
        let Ok(sessions) = served else {
            result.serve_rates.push(0.0);
            result.other_failed += block.len();
            return;
        };
        let windows: usize = sessions.iter().map(Vec::len).sum();
        result.serve_rates.push(windows as f64 / seconds);
        for (((_, features), outcomes), &label) in
            block.iter().zip(&sessions).zip(&self.traffic.labels[b])
        {
            if outcomes.len() != features.rows() {
                result.other_failed += 1;
            }
            result.serve_windows += outcomes.len() as u64;
            result.labelled += outcomes.len() as u64;
            result.correct_labels +=
                outcomes.iter().filter(|o| o.predicted == label).count() as u64;
            self.windows_served += outcomes.len() as u64;
        }
    }
}

impl Workload for FleetRound {
    const NAME: &'static str = "fleet-round";

    fn setup(seed: u64) -> Self {
        let corpus = setup::corpus();
        let deployment = setup::package(&corpus);
        let (fleet, memory) = DeviceMemory::measure_fleet(|| deploy(&deployment, DEVICES));
        let traffic = traffic(seed, &deployment, BLOCKS, SESSIONS_PER_BLOCK);
        let base = deployment.checkpoint.clone();
        FleetRound {
            corpus,
            deployment,
            fleet,
            memory,
            traffic,
            rollup: TelemetryRollup::new(),
            base,
            cycles: 0,
            windows_served: 0,
        }
    }

    fn memory(&self) -> Option<&DeviceMemory> {
        Some(&self.memory)
    }

    fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    fn into_parts(self) -> (Corpus, Deployment) {
        (self.corpus, self.deployment)
    }

    fn run(&mut self, seconds: f64, mut trace: Option<&mut Trace>) -> LoopResult {
        let mut rounds = Latencies::default();
        let mut result = LoopResult::default();
        let mut replays_agree = true;
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            let c = self.cycles;
            for k in 0..BLOCKS_PER_CYCLE {
                self.serve_block((c * BLOCKS_PER_CYCLE + k) % BLOCKS, &mut result);
            }

            for status in label_round(
                &mut self.fleet,
                &self.traffic,
                c * LABELLERS_PER_CYCLE,
                LABELLERS_PER_CYCLE,
            ) {
                result.other_attempted += 1;
                if !matches!(status, Ok(UpdateStatus::Completed)) {
                    result.other_failed += 1;
                }
            }

            match trace.as_deref_mut() {
                Some(trace) => {
                    let replay = round_decomposed(&mut self.fleet, &mut self.base, trace);
                    replays_agree &= replay.agrees;
                    rounds.record(replay.seconds, replay.ok);
                }
                None => {
                    let t = Instant::now();
                    let ok = self.fleet.federated_round().is_ok();
                    rounds.record(t.elapsed().as_secs_f64(), ok);
                    // Keep the tracked broadcast current for later replays.
                    let layers = self.fleet.device_mut(0).model_mut().net_mut().layers_mut();
                    self.base = Checkpoint::capture(layers);
                }
            }
            result.other_attempted += 1;
            if self
                .fleet
                .upload_telemetry_deltas(&mut self.rollup)
                .is_err()
            {
                result.other_failed += 1;
            }
            self.cycles += 1;
        }
        result.checks.push((
            "rollup_batch_served_equals_windows".to_string(),
            self.rollup.counter("edge.batch_served") == self.windows_served,
        ));
        if trace.is_some() {
            result.checks.push((
                "round_replay_wire_and_checkpoints".to_string(),
                replays_agree,
            ));
        }
        result.ops = rounds;
        result
    }
}
