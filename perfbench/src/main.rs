//! The repository's performance benchmark.
//!
//! ```text
//! perfbench --workload <edge-stream|edge-update|fleet-round> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run sets up [`SETUPS`] times (reporting the median
//! set-up time), measures the workload's closed loop for `--seconds` and
//! prints the end-to-end metrics. With `--trace 1` it sets up once, runs
//! half the loop plain and half traced (spans around the calls into each
//! layer, with every decomposition checked bitwise against the call it
//! replays), then runs the layer suite and prints the per-layer metrics.
//! Either way the run checks the program's outputs and exits non-zero if
//! a check fails. See `perfbench/README.md`.

mod edge_stream;
mod edge_update;
mod fleet_round;
#[cfg(test)]
mod layer_map;
mod mem;
mod report;
mod setup;
mod stats;
mod suite;
mod trace;

use pilote_magneto::{Deployment, EdgeDevice, Fleet};
use pilote_nn::Layer;
use pilote_tensor::parallel::{self, ThreadConfig};
use report::{Host, Metric};
use setup::Corpus;
use std::sync::OnceLock;
use std::time::Instant;
use trace::Trace;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Kernel threads (`PILOTE_THREADS`) every workload runs with. At two
/// threads on a shared 2-vCPU host, CPU taken by other tenants stalls
/// the band-sharded fleet calls, and fleet-round's round latency spread
/// by 43 % across ten runs. Installs also landed in per-thread allocator
/// arenas in a varying order, so the same fleet's resident memory varied
/// by ±15 %. The layer suite measures the two-thread paths separately
/// (`parallel.speedup.*`).
pub const WORKLOAD_THREADS: usize = 1;

/// Process start, as close as `main` can see it.
static START: OnceLock<Instant> = OnceLock::new();

/// What a workload's measured loop produced.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// The workload's timed operation, failures as missed latency.
    pub ops: stats::Latencies,
    /// Windows classified by the serving path.
    pub serve_windows: u64,
    /// Windows per second of each serving call.
    pub serve_rates: Vec<f64>,
    /// Served windows with a known true activity.
    pub labelled: u64,
    /// Of those, windows served with their true activity.
    pub correct_labels: u64,
    /// Other operations attempted (sessions, updates, uploads).
    pub other_attempted: usize,
    /// Of those, operations failed.
    pub other_failed: usize,
    /// Correctness checks.
    pub checks: Vec<(String, bool)>,
    /// Breakdowns printed for people, outside the result line.
    pub notes: Vec<Metric>,
}

/// Resident memory attributed to installed devices.
#[derive(Debug, Clone)]
pub struct DeviceMemory {
    /// Devices installed.
    pub devices: usize,
    /// `VmRSS` growth over the install, per device, KiB.
    pub rss_kb: f64,
    /// Parameter and gradient tensors of one device's model, KiB.
    pub model_kb: f64,
    /// Exemplar support set of one device, KiB.
    pub support_kb: f64,
}

fn model_kb(device: &mut EdgeDevice) -> (f64, f64) {
    let model = device.model_mut();
    let support = model.support().to_dataset().map_or(0, |d| d.features.len());
    let params: usize = model
        .net_mut()
        .layers_mut()
        .params_and_grads()
        .iter()
        .map(|(p, g)| p.len() + g.len())
        .sum();
    (params as f64 * 4.0 / 1024.0, support as f64 * 4.0 / 1024.0)
}

impl DeviceMemory {
    /// Deploys a fleet, measuring the resident memory per device.
    pub fn measure_fleet(deploy: impl FnOnce() -> Fleet) -> (Fleet, DeviceMemory) {
        let before = mem::rss_kb();
        let mut fleet = deploy();
        let devices = fleet.len();
        let rss_kb = mem::rss_kb().saturating_sub(before) as f64 / devices as f64;
        let (model_kb, support_kb) = model_kb(fleet.device_mut(0));
        (
            fleet,
            DeviceMemory {
                devices,
                rss_kb,
                model_kb,
                support_kb,
            },
        )
    }
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Workload name on the command line.
    const NAME: &'static str;
    /// Full set-up: corpus, pre-training, package, install or deploy, and
    /// every input the loop will send.
    fn setup(seed: u64) -> Self;
    /// Memory a fleet-sized deploy in the set-up added, if there was one.
    fn memory(&self) -> Option<&DeviceMemory> {
        None
    }
    /// The deployment devices were installed from.
    fn deployment(&self) -> &Deployment;
    /// The cloud corpus and the deployment, dropping everything else.
    fn into_parts(self) -> (Corpus, Deployment);
    /// Runs the closed loop for `seconds`, traced when `trace` is given.
    fn run(&mut self, seconds: f64, trace: Option<&mut Trace>) -> LoopResult;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn set_threads(threads: usize) {
    parallel::configure(ThreadConfig {
        num_threads: threads,
        ..ThreadConfig::from_env()
    });
}

/// Sets the workload up [`SETUPS`] times — the first timed from process
/// start — keeping the last. Earlier set-ups are dropped before the next
/// begins, so memory holds one at a time.
fn repeated_setup<W: Workload>(seed: u64) -> (W, Vec<f64>) {
    let start = *START.get().expect("START is set first thing in main");
    let mut state = W::setup(seed);
    let mut seconds = vec![start.elapsed().as_secs_f64()];
    for _ in 1..SETUPS {
        drop(state);
        let t = Instant::now();
        state = W::setup(seed);
        seconds.push(t.elapsed().as_secs_f64());
    }
    (state, seconds)
}

fn end_to_end<W: Workload>(args: &Args) -> (Vec<Metric>, LoopResult) {
    let (mut state, setups) = repeated_setup::<W>(args.seed);
    let result = state.run(args.seconds, None);
    let tail = result.ops.tail();
    let n = result.ops.attempted();
    let ms = |s: f64| s * 1e3;
    let metrics = vec![
        Metric::new(
            "setup_s",
            "s",
            stats::median(&setups),
            setups.len(),
            "median of set-ups",
        ),
        Metric::new("latency_p50_ms", "ms", ms(result.ops.median()), n, "p50"),
        Metric::new("latency_tail_ms", "ms", ms(tail.value), n, &tail.label()),
        Metric::new(
            "serve_windows_per_s",
            "windows/s",
            stats::median(&result.serve_rates),
            result.serve_rates.len(),
            "median over serving calls of windows / call seconds",
        ),
        Metric::new(
            "accuracy",
            "share",
            result.correct_labels as f64 / result.labelled as f64,
            result.labelled as usize,
            "served label = true activity",
        ),
        Metric::new(
            "peak_rss_mb",
            "MiB",
            mem::hwm_kb() as f64 / 1024.0,
            1,
            "VmHWM",
        ),
    ];
    (metrics, result)
}

fn per_layer<W: Workload>(args: &Args) -> (Vec<Metric>, LoopResult) {
    let mut state = W::setup(args.seed);
    // Warm caches and the allocator before either half is measured.
    state.run(args.seconds / 10.0, None);
    let plain = state.run(args.seconds / 2.0, None);
    let mut trace = Trace::default();
    let mut result = state.run(args.seconds / 2.0, Some(&mut trace));
    let overhead = (result.ops.median() / plain.ops.median() - 1.0) * 100.0;
    result.checks.extend(plain.checks);
    result.other_attempted += plain.other_attempted + plain.ops.attempted();
    result.other_failed += plain.other_failed + plain.ops.failures();
    // A lone device installed after pre-training fits in pages the
    // pre-training freed, so its resident growth reads near zero; a
    // fleet-sized deploy measures what a device costs.
    let memory = match state.memory() {
        Some(m) => m.clone(),
        None => {
            let (fleet, memory) = DeviceMemory::measure_fleet(|| {
                fleet_round::deploy(state.deployment(), fleet_round::DEVICES)
            });
            drop(fleet);
            memory
        }
    };
    let mut metrics = vec![
        Metric::new(
            "mem.rss_kb_per_device",
            "KiB",
            memory.rss_kb,
            memory.devices,
            "VmRSS growth over a deploy / devices",
        ),
        Metric::new(
            "mem.model_kb_per_device",
            "KiB",
            memory.model_kb,
            memory.devices,
            "params + grads",
        ),
        Metric::new(
            "mem.support_kb_per_device",
            "KiB",
            memory.support_kb,
            memory.devices,
            "exemplar features",
        ),
        Metric::new(
            "mem.unattributed_kb_per_device",
            "KiB",
            memory.rss_kb - memory.model_kb - memory.support_kb,
            memory.devices,
            "VmRSS growth per device minus model and support",
        ),
        Metric::new(
            "obs.trace_overhead_pct",
            "%",
            overhead,
            result.ops.attempted(),
            "traced op p50 against the untraced p50 of the same run",
        ),
    ];
    // The suite measures on its own devices; free the workload's first.
    let (corpus, deployment) = state.into_parts();
    let (suite_metrics, suite_checks) = suite::run(&corpus, &deployment, args.seed);
    metrics.extend(suite_metrics);
    result.checks.extend(suite_checks);
    (metrics, result)
}

fn measure<W: Workload>(args: &Args) -> bool {
    set_threads(WORKLOAD_THREADS);
    let host = Host::detect(WORKLOAD_THREADS);
    let (metrics, result) = if args.trace {
        per_layer::<W>(args)
    } else {
        end_to_end::<W>(args)
    };
    let attempted = result.ops.attempted() + result.other_attempted;
    let failed = result.ops.failures() + result.other_failed;
    let header = format!(
        "perfbench workload={} seed={} seconds={} trace={}",
        W::NAME,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &result.notes {
        println!(
            "# note {} {} {} samples={} {}",
            note.name, note.value, note.unit, note.samples, note.note
        );
    }
    report::print(&header, &host, &metrics, &result.checks, attempted, failed);
    result.checks.iter().all(|(_, ok)| *ok)
}

fn main() {
    START.get_or_init(Instant::now);
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <edge-stream|edge-update|fleet-round> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let correct = match args.workload.as_str() {
        edge_stream::EdgeStream::NAME => measure::<edge_stream::EdgeStream>(&args),
        edge_update::EdgeUpdate::NAME => measure::<edge_update::EdgeUpdate>(&args),
        fleet_round::FleetRound::NAME => measure::<fleet_round::FleetRound>(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    if !correct {
        eprintln!("perfbench: a correctness check failed");
        std::process::exit(1);
    }
}
