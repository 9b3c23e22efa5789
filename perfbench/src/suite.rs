//! The layer suite: per-layer metrics, measured the same way on every
//! workload's traced run.
//!
//! Every number here comes from the benchmark timing its own calls into a
//! layer's public functions at the shapes the three end-to-end paths use:
//! batch 1 (`edge-stream`), batch 4 (`fleet-round` serving chunks), the
//! stacked pair batch of an incremental update (`edge-update`), and one
//! federated round. Where a call is split into the public calls it makes,
//! the split is checked to reproduce the call's outputs bitwise.
//!
//! Repeated micro-measurements report the median; single calls (one
//! update, one round) report their duration.

use crate::edge_stream::{self, stream_decomposed};
use crate::edge_update::{batch_dataset, label_batch, learn_decomposed, same_prototypes};
use crate::fleet_round::{self, round_decomposed, serve_decomposed};
use crate::report::Metric;
use crate::setup::{self, Corpus, NEW_ACTIVITY, UPDATE_EXEMPLARS, UPDATE_SAMPLES, UPDATE_SEED};
use crate::stats::median;
use crate::trace::Trace;
use pilote_core::SelectionStrategy;
use pilote_har_data::features::extract_windows;
use pilote_har_data::sensors::{CHANNELS, WINDOW_LEN};
use pilote_magneto::Deployment;
use pilote_nn::loss::{contrastive_pair_loss, distillation_loss};
use pilote_nn::{Adam, BatchNorm1d, Checkpoint, Dense, Layer, Mode, Optimizer, ReLU};
use pilote_obs::work;
use pilote_tensor::{Rng64, Tensor};
use std::time::Instant;

/// Raw windows streamed through the suite device.
const STREAM_WINDOWS: usize = 256;
/// Repetitions of each serving-shape micro-measurement.
const SERVE_REPS: usize = 200;
/// Repetitions of each training-shape micro-measurement.
const TRAIN_REPS: usize = 5;
/// Repetitions of the small whole-model calls (losses, checkpoint, NCM
/// refresh).
const SMALL_REPS: usize = 20;
/// Incremental updates replayed.
const UPDATES: usize = 4;
/// Devices in the suite's fleet.
const FLEET_DEVICES: usize = 32;
/// Sessions per served block in the suite's fleet.
const FLEET_SESSIONS: usize = 128;
/// Kernel threads the `parallel.speedup.*` metrics compare one thread
/// against. Every other part runs at one thread, as all workloads do.
const PARALLEL_THREADS: usize = 2;

/// Collects metrics and checks.
#[derive(Default)]
struct Out {
    metrics: Vec<Metric>,
    checks: Vec<(String, bool)>,
}

impl Out {
    fn put(&mut self, name: &str, unit: &'static str, value: f64, samples: usize, note: &str) {
        self.metrics
            .push(Metric::new(name, unit, value, samples, note));
    }

    fn check(&mut self, name: &str, ok: bool) {
        self.checks.push((name.to_string(), ok));
    }
}

fn us(s: f64) -> f64 {
    s * 1e6
}

/// Median seconds of `trace` spans named `name`.
fn med(trace: &Trace, name: &str) -> f64 {
    median(&trace.durations(name))
}

/// Runs the suite at [`crate::WORKLOAD_THREADS`], as every workload
/// runs; only the `parallel.speedup.*` measurements switch to
/// [`PARALLEL_THREADS`].
pub fn run(
    corpus: &Corpus,
    deployment: &Deployment,
    seed: u64,
) -> (Vec<Metric>, Vec<(String, bool)>) {
    let mut out = Out::default();
    let suite_seed = seed ^ 0x5017e;
    pretraining(&mut out, corpus, deployment);
    let features = serving(&mut out, deployment, suite_seed);
    training(&mut out, deployment, &features);
    update(&mut out, deployment, suite_seed);
    fleet(&mut out, deployment, suite_seed, &features);
    (out.metrics, out.checks)
}

/// Cloud pre-training and herding, replayed from the set-up.
fn pretraining(out: &mut Out, corpus: &Corpus, deployment: &Deployment) {
    let t = Instant::now();
    let mut model = setup::pretrain_replay(corpus);
    out.put(
        "core.pretrain.s",
        "s",
        t.elapsed().as_secs_f64(),
        1,
        "Pilote::pretrain",
    );
    out.check(
        "pretrain_replay_matches_package",
        setup::same_checkpoint(
            &Checkpoint::capture(model.net_mut().layers_mut()),
            &deployment.checkpoint,
        ),
    );
    let mut herding = 0.0;
    let mut same_support = true;
    let mut unused = Rng64::new(0);
    for label in setup::old_labels() {
        let class = corpus
            .train
            .filter_classes(&[label])
            .expect("old class rows");
        let embeddings = model.net_mut().embed(&class.features);
        let t = Instant::now();
        let chosen = pilote_core::select_exemplars(
            &embeddings,
            setup::EXEMPLARS_PER_CLASS,
            SelectionStrategy::Herding,
            &mut unused,
        )
        .expect("herding");
        herding += t.elapsed().as_secs_f64();
        let rows = class.features.select_rows(&chosen).expect("exemplar rows");
        same_support &= deployment
            .support
            .class(label)
            .is_some_and(|s| setup::same_bits(s, &rows));
    }
    out.put(
        "core.herding.ms",
        "ms",
        herding * 1e3,
        4,
        "select_exemplars(Herding), all old classes",
    );
    out.check("herding_replay_matches_support", same_support);
}

/// The deployed network as one-layer stacks rebuilt from public
/// constructors, in forward order, with Dense and BatchNorm parameters
/// loaded from the deployment checkpoint. BatchNorm keeps its default
/// running statistics — as the installed device's network does, since
/// checkpoints carry parameters only.
fn layer_stacks(deployment: &Deployment) -> Vec<(String, Box<dyn Layer>)> {
    fn load(layer: &mut dyn Layer, params: &mut std::slice::Iter<'_, Tensor>) {
        for (p, _) in layer.params_and_grads() {
            let src = params.next().expect("checkpoint holds every parameter");
            p.as_mut_slice().copy_from_slice(src.as_slice());
        }
    }
    let net = &deployment.config.net;
    let mut params = deployment.checkpoint.params.iter();
    let mut rng = Rng64::new(0);
    let mut stacks: Vec<(String, Box<dyn Layer>)> = Vec::new();
    let mut prev = net.input_dim;
    for (k, &width) in net.hidden.iter().enumerate() {
        let mut dense = Dense::new(prev, width, &mut rng);
        load(&mut dense, &mut params);
        let mut bn = BatchNorm1d::new(width);
        load(&mut bn, &mut params);
        stacks.push((format!("dense{}", k + 1), Box::new(dense)));
        stacks.push((format!("bn{}", k + 1), Box::new(bn)));
        stacks.push((format!("relu{}", k + 1), Box::new(ReLU::new())));
        prev = width;
    }
    let mut last = Dense::new(prev, net.embedding_dim, &mut rng);
    load(&mut last, &mut params);
    stacks.push((format!("dense{}", net.hidden.len() + 1), Box::new(last)));
    assert!(
        params.next().is_none(),
        "checkpoint has parameters no layer took"
    );
    stacks
}

fn total_dispatches() -> u64 {
    work::kernel_totals().iter().map(|(_, d, _)| d).sum()
}

/// Batch-1 stream decomposition, har-data stages, and the serving
/// forward per layer at batch 1 and 4. Returns the suite's feature rows.
fn serving(out: &mut Out, deployment: &Deployment, seed: u64) -> Tensor {
    let windows: Vec<Tensor> = setup::raw_windows(seed, STREAM_WINDOWS)
        .into_iter()
        .map(|(_, w)| w)
        .collect();
    let features = setup::features(&deployment.normalizer, &windows);
    let mut device = edge_stream::install(deployment);
    let mut shadow = edge_stream::assembler(deployment);
    let mut trace = Trace::default();
    let mut agrees = true;
    for window in &windows {
        let (served, _, ok) = stream_decomposed(&mut device, &mut shadow, window, &mut trace);
        agrees &= ok && served.is_ok();
    }
    out.check("suite_stream_replay_bitwise", agrees);
    let self_us: Vec<f64> = trace
        .named("magneto.stream")
        .into_iter()
        .map(|id| us(trace.self_time(id)))
        .collect();
    out.put(
        "magneto.stream.self_us_per_window",
        "us",
        median(&self_us),
        self_us.len(),
        "stream minus push_block, embed, NCM",
    );
    out.put(
        "har-data.push_block.us_per_window",
        "us",
        us(med(&trace, "har-data.push_block")),
        STREAM_WINDOWS,
        "one window per call",
    );

    // push_block's stages, one window at a time: assembly into a window
    // tensor, feature extraction, normalisation.
    let mut stages = Trace::default();
    let mut stages_agree = true;
    for (i, window) in windows.iter().enumerate() {
        let assembled = stages.time("assemble", None, || {
            Tensor::from_vec(window.as_slice().to_vec(), [WINDOW_LEN, CHANNELS])
        });
        let assembled = assembled.expect("window tensor");
        let raw = stages.time("extract", None, || {
            extract_windows(std::slice::from_ref(&assembled))
        });
        let raw = raw.expect("extract");
        let normed = stages.time("normalize", None, || deployment.normalizer.transform(&raw));
        let normed = normed.expect("normalise");
        stages_agree &= normed
            .as_slice()
            .iter()
            .zip(features.row(i))
            .all(|(a, b)| a.to_bits() == b.to_bits());
    }
    out.check("har_data_stages_match_push_block", stages_agree);
    for (stage, name) in [
        ("assemble", "har-data.assemble"),
        ("extract", "har-data.extract"),
        ("normalize", "har-data.normalize"),
    ] {
        out.put(
            &format!("{name}.us_per_window"),
            "us",
            us(med(&stages, stage)),
            STREAM_WINDOWS,
            "median",
        );
    }

    // Per rep: the real `embed`, then the one-layer stacks replaying it.
    let mut stacks = layer_stacks(deployment);
    for batch in [1usize, 4] {
        let b = format!("b{batch}");
        let mut trace = Trace::default();
        let mut layer_flops = vec![0u64; stacks.len()];
        let (mut flops, mut dispatches, mut matches) = (0u64, 0u64, true);
        for rep in 0..SERVE_REPS {
            let start = (rep * batch) % (STREAM_WINDOWS - batch);
            let x = features
                .slice_rows(start, start + batch)
                .expect("batch rows");
            let model = device.model_mut();
            let (f0, d0) = (work::thread_flops(), total_dispatches());
            let op = trace.begin("embed", None);
            let emb = model.embed(&x);
            trace.end(op);
            let labelled = trace.time("ncm", None, || {
                model
                    .classifier()
                    .classify_with_distances(&emb)
                    .expect("ncm")
            });
            flops = work::thread_flops() - f0;
            dispatches = total_dispatches() - d0;
            let mut h = x.clone();
            for (k, (name, layer)) in stacks.iter_mut().enumerate() {
                let f0 = work::thread_flops();
                h = trace.replay(name, op, || layer.forward(&h, Mode::Eval));
                layer_flops[k] = work::thread_flops() - f0;
            }
            matches &= setup::same_bits(&h, &emb);
            if batch == 4 {
                let served = trace.time("serve_batch", None, || device.serve_batch(&x));
                matches &= served
                    .expect("serve_batch")
                    .iter()
                    .zip(&labelled)
                    .all(|(s, (l, d))| s.predicted == *l && s.distance.to_bits() == d.to_bits());
            }
        }
        out.check(&format!("layer_stacks_{b}_equal_embed"), matches);
        for (k, (name, _)) in stacks.iter().enumerate() {
            let m = med(&trace, name);
            out.put(
                &format!("nn.fwd.{name}.{b}.us"),
                "us",
                us(m),
                SERVE_REPS,
                "median, Mode::Eval",
            );
            if name.starts_with("dense") {
                let gflops = layer_flops[k] as f64 / m / 1e9;
                out.put(
                    &format!("nn.fwd.{name}.{b}.gflops"),
                    "GFLOP/s",
                    gflops,
                    SERVE_REPS,
                    "shape-derived flops / median time",
                );
            }
        }
        let coverage: Vec<f64> = trace
            .named("embed")
            .into_iter()
            .map(|id| trace.coverage(id))
            .collect();
        out.put(
            &format!("nn.embed.{b}.us"),
            "us",
            us(med(&trace, "embed")),
            SERVE_REPS,
            "EmbeddingNet::embed",
        );
        out.put(
            &format!("nn.fwd.coverage.{b}"),
            "ratio",
            median(&coverage),
            SERVE_REPS,
            "layer stacks / embed, median over calls",
        );
        out.put(
            &format!("core.ncm.{b}.us"),
            "us",
            us(med(&trace, "ncm")),
            SERVE_REPS,
            "classify_with_distances",
        );
        out.put(
            &format!("tensor.flops_per_window.{b}"),
            "flop",
            flops as f64 / batch as f64,
            1,
            "embed + NCM, shape-derived",
        );
        out.put(
            &format!("tensor.dispatches_per_window.{b}"),
            "count",
            dispatches as f64 / batch as f64,
            1,
            "kernel dispatches, embed + NCM",
        );
        if batch == 4 {
            out.put(
                "magneto.serve_batch.b4.us",
                "us",
                us(med(&trace, "serve_batch")),
                SERVE_REPS,
                "EdgeDevice::serve_batch",
            );
        }
    }
    features
}

/// Training forward and backward per layer at the stacked pair-batch
/// shape, the losses, the optimizer step and checkpointing.
fn training(out: &mut Out, deployment: &Deployment, features: &Tensor) {
    let cfg = &deployment.config;
    let rows = 2 * cfg.pair_batch;
    let idx: Vec<usize> = (0..rows).map(|i| i % features.rows()).collect();
    let x = features.select_rows(&idx).expect("pair batch");
    let mut rng = Rng64::new(0x6a4d);
    let grad: Vec<f32> = (0..rows * cfg.net.embedding_dim)
        .map(|_| rng.normal_f32(0.0, 0.01))
        .collect();
    let grad = Tensor::from_vec(grad, [rows, cfg.net.embedding_dim]).expect("gradient");
    let mut device = edge_stream::install(deployment);
    let mut net = device.model_mut().net_mut().clone_frozen();
    let mut stacks = layer_stacks(deployment);
    let n = stacks.len();
    let (mut fwd, mut bwd) = (vec![Vec::new(); n], vec![Vec::new(); n]);
    let (mut fwd_flops, mut bwd_flops) = (vec![0u64; n], vec![0u64; n]);
    let mut matches = true;
    for rep in 0..TRAIN_REPS {
        let mut h = x.clone();
        for (k, (_, layer)) in stacks.iter_mut().enumerate() {
            layer.zero_grad();
            let f0 = work::thread_flops();
            let t = Instant::now();
            h = layer.forward(&h, Mode::Eval);
            fwd[k].push(t.elapsed().as_secs_f64());
            fwd_flops[k] = work::thread_flops() - f0;
        }
        let mut g = grad.clone();
        for (k, (_, layer)) in stacks.iter_mut().enumerate().rev() {
            let f0 = work::thread_flops();
            let t = Instant::now();
            g = layer.backward(&g);
            bwd[k].push(t.elapsed().as_secs_f64());
            bwd_flops[k] = work::thread_flops() - f0;
        }
        if rep == 0 {
            net.zero_grad();
            let emb = net.forward_mode(&x, Mode::Eval);
            let dx = net.backward(&grad);
            matches &= setup::same_bits(&emb, &h) && setup::same_bits(&dx, &g);
        }
    }
    out.check("train_layer_stacks_equal_network", matches);
    let (mut bn, mut relu) = ([0.0; 2], [0.0; 2]);
    for (k, (name, _)) in stacks.iter().enumerate() {
        let (f, b) = (median(&fwd[k]), median(&bwd[k]));
        if name.starts_with("dense") {
            out.put(
                &format!("nn.train_fwd.{name}.us"),
                "us",
                us(f),
                TRAIN_REPS,
                "median, pair batch",
            );
            out.put(
                &format!("nn.train_bwd.{name}.us"),
                "us",
                us(b),
                TRAIN_REPS,
                "median, pair batch",
            );
            out.put(
                &format!("nn.train_fwd.{name}.gflops"),
                "GFLOP/s",
                fwd_flops[k] as f64 / f / 1e9,
                TRAIN_REPS,
                "shape-derived flops / median time",
            );
            out.put(
                &format!("nn.train_bwd.{name}.gflops"),
                "GFLOP/s",
                bwd_flops[k] as f64 / b / 1e9,
                TRAIN_REPS,
                "shape-derived flops / median time",
            );
        } else {
            let acc = if name.starts_with("bn") {
                &mut bn
            } else {
                &mut relu
            };
            acc[0] += f;
            acc[1] += b;
        }
    }
    for (name, [f, b]) in [("bn", bn), ("relu", relu)] {
        out.put(
            &format!("nn.train_fwd.{name}.us"),
            "us",
            us(f),
            TRAIN_REPS,
            "sum over the four layers",
        );
        out.put(
            &format!("nn.train_bwd.{name}.us"),
            "us",
            us(b),
            TRAIN_REPS,
            "sum over the four layers",
        );
    }

    // Losses at the shapes of one update step.
    let emb = net.forward_mode(&x, Mode::Eval);
    let half = cfg.pair_batch;
    let ea = emb.slice_rows(0, half).expect("branch a");
    let eb = emb.slice_rows(half, 2 * half).expect("branch b");
    let similar: Vec<bool> = (0..half).map(|i| i % 2 == 0).collect();
    let distill_rows = device.model_mut().support().len().min(cfg.distill_batch);
    let student = emb.slice_rows(0, distill_rows).expect("student");
    let teacher = emb.slice_rows(rows - distill_rows, rows).expect("teacher");
    let mut trace = Trace::default();
    for _ in 0..SMALL_REPS {
        trace.time("contrastive", None, || {
            contrastive_pair_loss(&ea, &eb, &similar, cfg.margin, cfg.contrastive_form)
                .expect("loss")
        });
        trace.time("distill", None, || {
            distillation_loss(&student, &teacher).expect("distill")
        });
    }
    out.put(
        "nn.loss.contrastive.us",
        "us",
        us(med(&trace, "contrastive")),
        SMALL_REPS,
        "pair batch",
    );
    out.put(
        "nn.loss.distill.us",
        "us",
        us(med(&trace, "distill")),
        SMALL_REPS,
        "support-set rows",
    );

    let mut adam = Adam::new();
    adam.step(net.layers_mut(), 1e-9); // allocates the moments
    for _ in 0..SMALL_REPS {
        trace.time("adam", None, || adam.step(net.layers_mut(), 1e-9));
    }
    out.put(
        "nn.adam.step.us",
        "us",
        us(med(&trace, "adam")),
        SMALL_REPS,
        "whole network",
    );
    let layers = device.model_mut().net_mut().layers_mut();
    for _ in 0..SMALL_REPS {
        let ckpt = trace.time("capture", None, || Checkpoint::capture(layers));
        trace.time("restore", None, || ckpt.restore(layers).expect("restore"));
    }
    out.put(
        "nn.checkpoint.capture.us",
        "us",
        us(med(&trace, "capture")),
        SMALL_REPS,
        "whole network",
    );
    out.put(
        "nn.checkpoint.restore.us",
        "us",
        us(med(&trace, "restore")),
        SMALL_REPS,
        "whole network",
    );
}

/// Incremental updates, decomposed.
fn update(out: &mut Out, deployment: &Deployment, seed: u64) {
    let mut trace = Trace::default();
    let mut agrees = true;
    let (mut flops, mut last, mut self_ms) = (0, None, Vec::new());
    for u in 0..UPDATES as u64 {
        let raw = setup::activity_windows(seed ^ (u << 48), NEW_ACTIVITY, UPDATE_SAMPLES);
        let batch = setup::features(&deployment.normalizer, &raw);
        let mut device = edge_stream::install(deployment);
        device.model_mut().reseed(UPDATE_SEED);
        label_batch(&mut device, &batch);
        let mut twin = device.model_mut().clone_model();
        twin.reseed(UPDATE_SEED);
        let data = batch_dataset(&batch);
        // The replay's cost is compared with the update's; alternate which
        // runs first so neither always inherits the other's warm caches.
        let replay_first = u % 2 == 1;
        let mut replay = replay_first
            .then(|| learn_decomposed(&mut twin, &data, UPDATE_EXEMPLARS, UPDATE_SEED, &mut trace));
        let f0 = work::thread_flops();
        let t = Instant::now();
        let status = device.update_faulted(UPDATE_EXEMPLARS, None);
        let update_seconds = t.elapsed().as_secs_f64();
        flops = work::thread_flops() - f0;
        let replay = replay.get_or_insert_with(|| {
            learn_decomposed(&mut twin, &data, UPDATE_EXEMPLARS, UPDATE_SEED, &mut trace)
        });
        self_ms.push((update_seconds - replay.seconds) * 1e3);
        agrees &= status.is_ok() && same_prototypes(&twin, device.model_mut());
        last = Some((device, replay.epochs, replay.pair_batches));
    }
    let (mut device, epochs, pair_batches) = last.expect("at least one update");
    out.check("suite_update_replay_prototypes_bitwise", agrees);
    out.put(
        "magneto.update.self_ms",
        "ms",
        median(&self_ms),
        UPDATES,
        "update_faulted minus learn_new_class, median",
    );
    out.put(
        "core.learn_new_class.s",
        "s",
        med(&trace, "core.learn_new_class"),
        UPDATES,
        "decomposed replay, median",
    );
    out.put(
        "core.train_embedding.s",
        "s",
        med(&trace, "core.train_embedding"),
        UPDATES,
        "median",
    );
    out.put(
        "core.exemplars.us",
        "us",
        us(med(&trace, "core.exemplars")),
        UPDATES,
        "new-class exemplar selection, median",
    );
    let pair_builds = trace.durations("core.pairs").len();
    out.put(
        "core.pairs.us_per_epoch",
        "us",
        us(med(&trace, "core.pairs")),
        pair_builds,
        "build_epoch_pairs, median over epochs",
    );
    out.put(
        "core.update.epochs",
        "count",
        epochs as f64,
        1,
        "last update",
    );
    out.put(
        "core.update.pair_batches",
        "count",
        pair_batches as f64,
        1,
        "last update",
    );
    out.put(
        "tensor.flops_per_update",
        "flop",
        flops as f64,
        1,
        "shape-derived, last update_faulted",
    );
    let model = device.model_mut();
    for _ in 0..SMALL_REPS {
        trace.time("refresh", None, || {
            model.refresh_prototypes().expect("refresh")
        });
    }
    out.put(
        "core.refresh_prototypes.us",
        "us",
        us(med(&trace, "refresh")),
        SMALL_REPS,
        "five classes",
    );
}

/// A small fleet: deploy, serve, one round — at one thread, then again
/// at [`PARALLEL_THREADS`] for the speed-ups.
fn fleet(out: &mut Out, deployment: &Deployment, seed: u64, features: &Tensor) {
    let t = Instant::now();
    let mut fleet = fleet_round::deploy(deployment, FLEET_DEVICES);
    out.put(
        "magneto.fleet.deploy.ms_per_device",
        "ms",
        t.elapsed().as_secs_f64() * 1e3 / FLEET_DEVICES as f64,
        FLEET_DEVICES,
        "deploy_sharded",
    );
    let traffic = fleet_round::traffic(seed, deployment, 2, FLEET_SESSIONS);
    let windows = (FLEET_SESSIONS * fleet_round::WINDOWS_PER_SESSION) as f64;
    let mut base = deployment.checkpoint.clone();
    let mut trace = Trace::default();
    let mut agrees = true;

    let mut serve_round = |threads: usize, k: usize, trace: &mut Trace| {
        crate::set_threads(threads);
        let (op, ok) = serve_decomposed(&mut fleet, &traffic.blocks[k], trace);
        fleet_round::label_round(&mut fleet, &traffic, k, 1);
        let replay = round_decomposed(&mut fleet, &mut base, trace);
        (op, ok && replay.agrees, replay)
    };
    let (op1, ok1, round1) = serve_round(crate::WORKLOAD_THREADS, 0, &mut trace);
    let (op2, ok2, round2) = serve_round(PARALLEL_THREADS, 1, &mut trace);
    agrees &= ok1 && ok2;
    out.check("suite_fleet_serve_and_round_replay", agrees);
    let serve2 = trace.span(op2).duration();
    let serve1 = trace.span(op1).duration();
    out.put(
        "magneto.fleet.serve_sessions.us_per_window",
        "us",
        us(serve1) / windows,
        windows as usize,
        "batch-4 chunks",
    );
    out.put(
        "magneto.fleet.self_us_per_window",
        "us",
        us(trace.self_time(op1)) / windows,
        windows as usize,
        "serve_sessions minus serve_batch replays",
    );
    let round_op = trace.named("magneto.federated_round")[0];
    for part in ["capture", "encode", "decode", "average", "install"] {
        let name = format!("magneto.fed.{part}");
        let ms: f64 = trace
            .named(&name)
            .into_iter()
            .filter(|&id| trace.span(id).parent == Some(round_op))
            .map(|id| trace.span(id).duration())
            .sum::<f64>()
            * 1e3;
        out.put(
            &format!("{name}.ms"),
            "ms",
            ms,
            FLEET_DEVICES,
            "one round, all devices",
        );
    }
    out.put(
        "magneto.fed.upload_bytes_per_device",
        "bytes",
        round1.upload_bytes_per_device,
        FLEET_DEVICES,
        "encoded",
    );
    out.put(
        "magneto.fed.download_bytes_per_device",
        "bytes",
        round1.download_bytes_per_device,
        FLEET_DEVICES,
        "encoded",
    );
    out.put(
        "parallel.speedup.serve_sessions",
        "ratio",
        serve1 / serve2,
        2,
        "1-thread / 2-thread time",
    );
    out.put(
        "parallel.speedup.fed_round",
        "ratio",
        round1.seconds / round2.seconds,
        2,
        "1-thread / 2-thread time",
    );

    let x = features.slice_rows(0, 4).expect("batch rows");
    let model = fleet.device_mut(0).model_mut();
    let mut embed = [0.0; 2];
    for (slot, threads) in [(0, crate::WORKLOAD_THREADS), (1, PARALLEL_THREADS)] {
        crate::set_threads(threads);
        let mut t = Trace::default();
        for _ in 0..SERVE_REPS {
            t.time("embed", None, || model.embed(&x));
        }
        embed[slot] = med(&t, "embed");
    }
    out.put(
        "parallel.speedup.embed_b4",
        "ratio",
        embed[0] / embed[1],
        SERVE_REPS,
        "1-thread / 2-thread median",
    );
    crate::set_threads(crate::WORKLOAD_THREADS);
}
