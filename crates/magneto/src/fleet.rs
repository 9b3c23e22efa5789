//! Fleet orchestration and serving: one coordinator owning N heterogeneous
//! [`EdgeDevice`]s, routing simulated user sessions to devices, serving
//! classification through the **batched** prototype-cache path, and
//! interleaving incremental updates with periodic federated rounds.
//!
//! Everything is deterministic by construction (see `docs/FLEET.md`):
//!
//! - **Routing** is a pure hash of `(fleet seed, user id)` — no load
//!   balancing on wall-clock state.
//! - **Time** is the per-device virtual clock: modeled kernel flops through
//!   [`DeviceProfile::seconds_for_flops`] plus modeled link transfers —
//!   never a host clock.
//! - **Serving** chunks each session through [`EdgeDevice::serve_batch`],
//!   which is bitwise identical to per-window classification.
//! - **Federated rounds** fire on a session-count schedule
//!   ([`FleetConfig::federated_every`]), charging each participant's link
//!   with the parameter upload/download before averaging. Payloads ship
//!   through the binary wire codec ([`crate::wire`], `docs/WIRE.md`) at
//!   the fleet's [`FleetConfig::wire`] setting — delta-encoded against
//!   the last committed broadcast when both ends are current, with a
//!   typed full-payload fallback for stale members — and what devices
//!   install is always the **decoded** payload.
//!
//! At scale (10k+ devices — see `docs/SCALING.md`) the roster is
//! **sharded** across worker threads: [`Fleet::deploy_sharded`] installs
//! contiguous device-index bands in parallel, [`Fleet::serve_sessions`]
//! serves a whole batch of routed sessions with each device's work
//! executed on the shard that owns it, and the telemetry/federated wire
//! serialisation fans out per band. Every sharded path merges its per-band
//! results back in **device-index order**, so rollups, event ordering and
//! stats are byte-identical to the serial walk at any `PILOTE_THREADS`
//! setting.

use crate::cloud::{Deployment, PackageError, ScenarioRollup, TelemetryRollup};
use crate::edge::{EdgeDevice, EdgeError, InferenceOutcome, UpdateStatus};
use crate::events::{EventKind, ExclusionReason, DEFAULT_EVENT_CAPACITY};
use crate::federated::federated_average;
use crate::policy::{FleetPolicy, RepairAction, RolloutStage, QUARANTINE_ROUNDS};
use crate::wire::{self, CodecError, WireConfig};
use pilote_core::QualityMonitor;
use pilote_edge_sim::{DeviceProfile, LinkModel, WirePrecision};
use pilote_nn::Checkpoint;
use pilote_tensor::{parallel, Tensor};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Tuning knobs for a [`Fleet`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Seed for the routing hash (and anything else the fleet randomises).
    pub seed: u64,
    /// Maximum windows per [`EdgeDevice::serve_batch`] call; longer
    /// sessions are chunked. Chunking cannot change results — batched
    /// serving is bitwise identical at any batch size.
    pub serve_chunk: usize,
    /// Run a federated round after every this-many served sessions.
    /// `0` disables the schedule (rounds can still be run explicitly).
    pub federated_every: usize,
    /// Pending labelled samples that trigger an incremental update on a
    /// device. `0` disables auto-updates.
    pub update_threshold: usize,
    /// Exemplar budget per class handed to incremental updates.
    pub exemplar_budget: usize,
    /// Per-device event-log ring-buffer bound (`0` = unbounded). Evicted
    /// events stay folded into the log's running totals, so telemetry and
    /// derived counts are unaffected by the bound — see
    /// [`crate::events::EventLog`].
    pub event_capacity: usize,
    /// How deployments, federated round payloads and telemetry ship over
    /// the links ([`crate::wire`]). The default — bit-exact `f32` with
    /// deltas on — changes only byte counts and the virtual clocks they
    /// feed; quantised precisions additionally make every installed model
    /// the *decoded* (lossy) payload, so accuracy cost is real end to end.
    pub wire: WireConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            seed: 0x5eed_f1ee,
            serve_chunk: 64,
            federated_every: 8,
            update_threshold: 20,
            exemplar_budget: 20,
            event_capacity: DEFAULT_EVENT_CAPACITY,
            wire: WireConfig::default(),
        }
    }
}

/// A member's `base_round` after a re-anchor wiped its copy of the last
/// committed broadcast:
/// never equal to any committed round, so the member's next federated
/// payload falls back to the full encoding.
const STALE_ROUND: u64 = u64::MAX;

/// One device slot: the device plus the link it talks to the cloud (and
/// the federated coordinator) over.
struct FleetMember {
    device: EdgeDevice,
    link: LinkModel,
    updates_completed: usize,
    /// The fleet round whose committed broadcast this member holds a
    /// bitwise copy of. Delta payloads are only exchanged with members
    /// whose `base_round` matches the fleet's committed round; everyone
    /// else gets the typed full-payload fallback ([`crate::wire`]).
    base_round: u64,
}

impl FleetMember {
    /// Charges `bytes` of wire traffic to this member's link — modeled
    /// transfer time on its virtual clock — and to the fleet's running
    /// `total` for that traffic class.
    fn ship(&mut self, bytes: u64, total: &mut u64) {
        self.device.advance_clock(self.link.transfer_seconds(bytes));
        *total += bytes;
    }
}

/// A deterministic multi-device deployment: routes user sessions to
/// devices, serves them through the batched prototype-cache path, and
/// interleaves local incremental updates with federated rounds.
pub struct Fleet {
    members: Vec<FleetMember>,
    config: FleetConfig,
    /// Federated rounds completed (a halted staged round does not count).
    rounds_completed: usize,
    sessions_served: u64,
    windows_served: u64,
    /// Self-healing control loop ([`crate::policy`]), armed via
    /// [`Fleet::enable_policy`]. When present, federated rounds run staged
    /// (canary → cohort → fleet) with quarantine, repair escalation and
    /// halt-and-rollback.
    policy: Option<PolicyState>,
    /// Committed broadcast round: bumps once per completed federated
    /// round. Delta payloads reference this round.
    round: u64,
    /// The last committed broadcast checkpoint — the shared reference
    /// both ends of a delta payload diff against. `None` never occurs
    /// after [`Fleet::deploy`] (the deployment checkpoint seeds it), but
    /// the codec's [`CodecError::MissingBase`] fallback keeps even that
    /// case well-typed.
    base: Option<Checkpoint>,
    /// Cumulative wire bytes moved, by traffic class.
    wire_totals: WireTotals,
}

/// The enabled policy plus the cloud anchor package its strike-2 repair
/// re-installs.
struct PolicyState {
    policy: FleetPolicy,
    anchor: Deployment,
    anchor_bytes: u64,
}

/// Cumulative wire bytes the fleet has moved, by traffic class — the
/// exact binary payload sizes that fed [`LinkModel::transfer_seconds`]
/// charges, summed over every device. `repro wire` sweeps these totals
/// across [`WireConfig`]s to draw the accuracy-vs-bytes frontier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireTotals {
    /// Package installs: initial deploys and re-anchors.
    pub deploy_bytes: u64,
    /// Federated round uploads (device → coordinator).
    pub federated_upload_bytes: u64,
    /// Federated round downloads (coordinator → device).
    pub federated_download_bytes: u64,
    /// Telemetry snapshot and delta uploads.
    pub telemetry_bytes: u64,
}

impl WireTotals {
    /// Upload + download bytes of federated rounds.
    pub fn federated_bytes(&self) -> u64 {
        self.federated_upload_bytes + self.federated_download_bytes
    }

    /// All bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.deploy_bytes + self.federated_bytes() + self.telemetry_bytes
    }
}

/// Per-device summary for reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceStats {
    /// Device profile name.
    pub name: String,
    /// Windows classified through the batched serving path.
    pub windows_served: u64,
    /// Prototype-cache rebuilds (one per committed model change that was
    /// followed by a serve).
    pub cache_rebuilds: u64,
    /// Completed incremental updates.
    pub updates: usize,
    /// Activity classes the device currently recognises.
    pub classes: usize,
    /// Device virtual clock, in modeled seconds.
    pub clock_seconds: f64,
    /// Whether the device degraded to its pre-trained baseline.
    pub degraded: bool,
}

/// Fleet-wide summary for reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetStats {
    /// Per-device summaries, in device-index order.
    pub devices: Vec<DeviceStats>,
    /// User sessions served.
    pub sessions: u64,
    /// Total windows classified across the fleet.
    pub windows: u64,
    /// Federated rounds completed.
    pub federated_rounds: usize,
}

/// SplitMix64 — the routing hash (also the policy's stage-assignment
/// hash). Chosen for determinism and full-avalanche mixing, not
/// cryptographic strength.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn codec_package_error(e: CodecError) -> PackageError {
    PackageError { detail: format!("wire codec: {e}") }
}

/// Encodes `deployment` at `precision` and decodes it straight back —
/// the package devices actually install — returning the decoded package
/// with its exact binary wire size. Routing installs through the codec
/// makes any quantisation loss real on the serve path instead of an
/// accounting fiction; at `F32` the decode is bitwise lossless.
fn package_for_wire(
    deployment: &Deployment,
    precision: WirePrecision,
) -> Result<(Deployment, u64), PackageError> {
    let encoded = wire::encode_deployment(deployment, precision).map_err(codec_package_error)?;
    let bytes = encoded.len() as u64;
    let package = wire::decode_deployment(&encoded).map_err(codec_package_error)?;
    Ok((package, bytes))
}

/// Encodes one member's federated upload — delta against the fleet's
/// committed base when the member is current, full otherwise — and
/// decodes it back exactly as the coordinator would. The **decoded**
/// checkpoint is what enters the average, so quantisation loss on
/// uploads is real end to end.
fn round_trip_upload(
    ckpt: &Checkpoint,
    base: Option<&Checkpoint>,
    round: u64,
    member_round: u64,
    cfg: WireConfig,
) -> Result<(Checkpoint, u64), CodecError> {
    let payload = match (cfg.delta && member_round == round, base) {
        (true, Some(b)) => wire::encode_round_delta(b, ckpt, round, cfg.precision)?,
        _ => wire::encode_round_full(ckpt, cfg.precision)?,
    };
    let bytes = payload.len() as u64;
    let decoded = wire::decode_round(&payload, base.map(|b| (b, round)))?;
    Ok((decoded, bytes))
}

/// Decoded uploads entering a FedAvg merge, each weighted by the
/// uploader's support-set size.
type Contributions = Vec<(Checkpoint, usize)>;

/// The upload side of a federated round, shared by both round entry
/// points: every member that `contributes(index)` admits and that holds a
/// non-empty support set captures its parameters and ships them through
/// [`round_trip_upload`]. Capture and codec fan out across shards — no
/// kernel flops, so no span or clock moves; the caller charges the links
/// serially. Returns the decoded contributions (weighted by support size,
/// in device-index order) and each member's upload size, `None` for
/// members that sent nothing.
fn collect_uploads(
    members: &mut [FleetMember],
    base: Option<&Checkpoint>,
    round: u64,
    cfg: WireConfig,
    contributes: &(impl Fn(usize) -> bool + Sync),
) -> Result<(Contributions, Vec<Option<u64>>), EdgeError> {
    let payloads = map_member_bands(members, &|index, member| {
        let support = member.device.model_mut().support().len();
        if !(contributes(index) && support > 0) {
            return None;
        }
        let ckpt = Checkpoint::capture(member.device.model_mut().net_mut().layers_mut());
        Some((round_trip_upload(&ckpt, base, round, member.base_round, cfg), support))
    });
    let mut contributions = Vec::new();
    let mut upload_bytes = Vec::with_capacity(payloads.len());
    for payload in payloads {
        upload_bytes.push(match payload {
            Some((result, support)) => {
                let (decoded, bytes) = result.map_err(codec_package_error)?;
                contributions.push((decoded, support));
                Some(bytes)
            }
            None => None,
        });
    }
    Ok((contributions, upload_bytes))
}

/// The download side of a federated round: the merged model encoded at
/// most twice — the **canonical** payload current members receive (delta
/// against the committed base when enabled) and the **full fallback**
/// stale members receive — each decoded exactly once. Every receiver
/// installs decoded bits, and the canonical decode becomes the next
/// committed base.
struct RoundBroadcast {
    precision: WirePrecision,
    /// The round the canonical payload's delta references.
    round: u64,
    canonical_bytes: u64,
    canonical: Checkpoint,
    canonical_is_delta: bool,
    /// `(bytes, decoded)` of the full fallback, built only when some
    /// receiver is stale.
    full: Option<(u64, Checkpoint)>,
}

impl RoundBroadcast {
    /// Averages `contributions` and encodes the merged model against the
    /// committed `base` of `round`. `any_stale` says whether some receiver
    /// holds a base other than `round`'s, and so needs the full fallback.
    fn new(
        contributions: &[(Checkpoint, usize)],
        base: Option<&Checkpoint>,
        round: u64,
        cfg: WireConfig,
        any_stale: bool,
    ) -> Result<Self, EdgeError> {
        let merged = federated_average(contributions)?;
        let (payload, canonical_is_delta) = match (cfg.delta, base) {
            (true, Some(b)) => (wire::encode_round_delta(b, &merged, round, cfg.precision), true),
            _ => (wire::encode_round_full(&merged, cfg.precision), false),
        };
        let payload = payload.map_err(codec_package_error)?;
        let canonical =
            wire::decode_round(&payload, base.map(|b| (b, round))).map_err(codec_package_error)?;
        let full = if canonical_is_delta && any_stale {
            let full = wire::encode_round_full(&merged, cfg.precision);
            let full = full.map_err(codec_package_error)?;
            let decoded = wire::decode_round(&full, None).map_err(codec_package_error)?;
            Some((full.len() as u64, decoded))
        } else {
            None
        };
        Ok(RoundBroadcast {
            precision: cfg.precision,
            round,
            canonical_bytes: payload.len() as u64,
            canonical,
            canonical_is_delta,
            full,
        })
    }

    /// Ships `member` its payload — the canonical one when it is current,
    /// the full fallback otherwise — and installs the decoded checkpoint
    /// (the prototype refresh is not charged to the device clock). Returns
    /// whether the member now holds the committed base: a full-fallback
    /// receiver only does at lossless `F32`, where both payloads decode to
    /// the same bits; a quantised full decode differs from the canonical
    /// one, so that member must keep falling back.
    fn install(
        &self,
        member: &mut FleetMember,
        totals: &mut WireTotals,
    ) -> Result<bool, EdgeError> {
        let canonical = !self.canonical_is_delta || member.base_round == self.round;
        let (bytes, ckpt, current) = if canonical {
            (self.canonical_bytes, &self.canonical, true)
        } else {
            let (bytes, decoded) = self
                .full
                .as_ref()
                .expect("the full fallback is built whenever a receiver is stale");
            (*bytes, decoded, self.precision == WirePrecision::F32)
        };
        member.ship(bytes, &mut totals.federated_download_bytes);
        member.device.restore_state(ckpt, None)?;
        Ok(current)
    }
}

/// Serves one feature matrix on a device through the batched
/// prototype-cache path, `serve_chunk` windows at a time. This is the
/// single serving loop shared by [`Fleet::serve_session`] (serial) and
/// [`Fleet::serve_sessions`] (sharded), so both paths are bitwise
/// identical by construction.
fn serve_chunked(
    device: &mut EdgeDevice,
    features: &Tensor,
    serve_chunk: usize,
) -> Result<Vec<InferenceOutcome>, EdgeError> {
    let mut outcomes = Vec::with_capacity(features.rows());
    let mut row = 0;
    while row < features.rows() {
        let end = (row + serve_chunk).min(features.rows());
        let chunk = features.slice_rows(row, end)?;
        outcomes.extend(device.serve_batch(&chunk)?);
        row = end;
    }
    Ok(outcomes)
}

/// Runs `f(device_index, member)` over every member, fanning contiguous
/// device-index **bands** out across worker threads (the same
/// `PILOTE_THREADS` band machinery the kernels use), and returns the
/// per-member results in device-index order regardless of thread count or
/// timing. With one thread (or one member) this is exactly the serial
/// in-order walk.
///
/// Callers must only hand this closures whose work is confined to the
/// member itself plus commutative global state (flop atomics, obs
/// counters): per-device flop deltas are measured on the executing
/// thread's local counter, so modeled clocks come out identical to the
/// serial walk, and the band merge restores device-index order for
/// everything else. Closures must not open observability spans — worker
/// spans would finish in nondeterministic order (see `docs/SCALING.md`).
fn map_member_bands<R: Send>(
    members: &mut [FleetMember],
    f: &(impl Fn(usize, &mut FleetMember) -> R + Sync),
) -> Vec<R> {
    // Members are coarse-grained work units (a device's whole serving or
    // wire workload), so the kernel layer's scalar-op threshold
    // (`min_parallel_len`) does not apply — only the configured thread
    // count gates the fan-out.
    let threads = parallel::current().num_threads.max(1).min(members.len());
    let mut slots: Vec<(&mut FleetMember, Option<R>)> =
        members.iter_mut().map(|member| (member, None)).collect();
    parallel::for_each_band(&mut slots, 1, threads, |first, band| {
        for (offset, (member, out)) in band.iter_mut().enumerate() {
            *out = Some(f(first + offset, member));
        }
    });
    slots.into_iter().map(|(_, out)| out.expect("every band fills its slots")).collect()
}

/// Judges a device's not-yet-inspected quality reports, marks them seen
/// and, on a triggering alert, applies the next repair on the ladder.
/// Shared by the policy control step and suspect screening.
fn judge_and_repair(
    member: &mut FleetMember,
    state: &mut PolicyState,
    index: usize,
    totals: &mut WireTotals,
) -> Result<(), EdgeError> {
    let reports = member.device.quality_reports();
    let baseline = reports.first().map(|r| r.old_class_accuracy);
    let trigger = state
        .policy
        .unseen_reports(index, reports)
        .iter()
        .find_map(|r| state.policy.judge(r, baseline));
    state.policy.mark_seen(index, reports.len());
    if let Some(rule) = trigger {
        apply_repair(member, state, index, &rule, totals)?;
    }
    Ok(())
}

/// Escalates a device's strike and applies the prescribed repair —
/// rollback → re-anchor → degrade, PR 2's resilience ladder driven by
/// model quality. The repair bumps the model generation but is
/// deliberately left unsampled: the device is quarantined (suspect
/// screening never touches it), and its next staged install sample
/// judges the repaired state.
fn apply_repair(
    member: &mut FleetMember,
    state: &mut PolicyState,
    index: usize,
    rule: &str,
    totals: &mut WireTotals,
) -> Result<(), EdgeError> {
    let action = state.policy.escalate(index);
    let strike = state.policy.strikes(index);
    if action != RepairAction::Degrade {
        member.device.record_event(EventKind::QuarantineEntered {
            rule: rule.to_string(),
            strike,
            rounds: QUARANTINE_ROUNDS,
        });
    }
    match action {
        RepairAction::Rollback => member.device.repair_rollback(strike)?,
        RepairAction::Reanchor => {
            member.ship(state.anchor_bytes, &mut totals.deploy_bytes);
            member.device.adopt_deployment(&state.anchor)?;
            // The re-install wiped the device's copy of the committed
            // broadcast: its next federated payload must be a full one.
            member.base_round = STALE_ROUND;
            member.device.record_event(EventKind::Reanchored {
                payload_bytes: state.anchor_bytes,
                strike,
            });
        }
        RepairAction::Degrade => member.device.policy_degrade(strike)?,
    }
    state.policy.mark_seen(index, member.device.quality_reports().len());
    Ok(())
}

/// The canary → cohort → fleet install of a staged federated round. Each
/// stage covers the members the policy lets receive: it snapshots each
/// one and runs `install` on it, then samples every member's quality
/// monitor and counts triggering alerts. When the stage's alert rate
/// exceeds its baseline the stage halts: its members are install
/// *victims*, so each is restored exactly, logs `RolloutHalted`, and has
/// its reports consumed so the next control step does not quarantine it
/// for the broadcast's mistake. Later stages then never run.
///
/// Returns whether a stage halted.
fn staged_install(
    members: &mut [FleetMember],
    policy: &mut FleetPolicy,
    mut install: impl FnMut(usize, &mut FleetMember) -> Result<(), EdgeError>,
) -> Result<bool, EdgeError> {
    for stage in RolloutStage::ALL {
        let indices: Vec<usize> = policy
            .plan()
            .stage(stage)
            .iter()
            .copied()
            .filter(|&i| policy.receives(i))
            .collect();
        if indices.is_empty() {
            continue;
        }
        let mut snapshots = Vec::with_capacity(indices.len());
        for &i in &indices {
            snapshots.push(members[i].device.policy_snapshot());
            install(i, &mut members[i])?;
        }
        let mut alerts = 0u64;
        for &i in &indices {
            let device = &mut members[i].device;
            let before = device.quality_reports().len();
            device.sample_quality()?;
            alerts += device.quality_reports()[before..]
                .iter()
                .filter(|r| FleetPolicy::triggering_alert(r).is_some())
                .count() as u64;
        }
        if policy.stage_completed(stage, indices.len(), alerts) {
            for (&i, snap) in indices.iter().zip(snapshots) {
                let device = &mut members[i].device;
                device.policy_restore(snap)?;
                device.record_event(EventKind::RolloutHalted {
                    stage: stage.name().to_string(),
                    alerts,
                    stage_size: indices.len(),
                });
                policy.mark_seen(i, device.quality_reports().len());
            }
            return Ok(true);
        }
    }
    Ok(false)
}

impl Fleet {
    /// Deploys the same cloud package onto every `(profile, link)` slot,
    /// charging each device's install download on its own link.
    pub fn deploy(
        slots: Vec<(DeviceProfile, LinkModel)>,
        deployment: &Deployment,
        config: FleetConfig,
    ) -> Result<Fleet, EdgeError> {
        let span = pilote_obs::span("fleet.deploy");
        span.annotate("devices", slots.len() as f64);
        Self::install_roster(&slots, deployment, config, 1)
    }

    /// [`Fleet::deploy`] with the install fan-out sharded across worker
    /// threads: contiguous device-index bands install in parallel and the
    /// roster is reassembled in band order, so the resulting fleet —
    /// device order, per-device clocks, logs, routing — is byte-identical
    /// to a serial [`Fleet::deploy`] at any `PILOTE_THREADS` setting.
    ///
    /// Unlike [`Fleet::deploy`] this opens **no** `fleet.deploy` span:
    /// install dispatches prototype-refresh kernel work, and attributing
    /// worker-thread flops to an orchestrator-side span would make trace
    /// contents depend on the thread count. Use this for large rosters
    /// where install wall-time matters and the serial variant when the
    /// deploy must appear in an exported trace.
    pub fn deploy_sharded(
        slots: Vec<(DeviceProfile, LinkModel)>,
        deployment: &Deployment,
        config: FleetConfig,
    ) -> Result<Fleet, EdgeError> {
        // Installs are coarse-grained; gate only on the configured thread
        // count, not the kernel layer's scalar-op threshold.
        let threads = parallel::current().num_threads.max(1).min(slots.len());
        Self::install_roster(&slots, deployment, config, threads)
    }

    /// Installs one package on every slot in `threads` contiguous
    /// device-index bands (one band runs inline on the calling thread)
    /// and assembles the fleet in band order. The package is identical
    /// for every device: it is encoded and decoded once at the configured
    /// precision, and every install shares the decoded package, its exact
    /// wire size and one baseline checkpoint.
    fn install_roster(
        slots: &[(DeviceProfile, LinkModel)],
        deployment: &Deployment,
        config: FleetConfig,
        threads: usize,
    ) -> Result<Fleet, EdgeError> {
        assert!(!slots.is_empty(), "a fleet needs at least one device");
        assert!(config.serve_chunk > 0, "serve_chunk must be positive");
        let (package, wire) = package_for_wire(deployment, config.wire.precision)?;
        let baseline = Arc::new(package.checkpoint.clone());
        let bands = parallel::map_bands(slots.len(), threads, |range| {
            slots[range]
                .iter()
                .map(|(profile, link)| {
                    let mut device = EdgeDevice::install_sharing(
                        profile.clone(),
                        &package,
                        link,
                        wire,
                        Arc::clone(&baseline),
                    )?;
                    device.set_event_capacity(config.event_capacity);
                    Ok(FleetMember { device, link: *link, updates_completed: 0, base_round: 0 })
                })
                .collect::<Result<Vec<_>, EdgeError>>()
        });
        let mut members = Vec::with_capacity(slots.len());
        for band in bands {
            members.extend(band?);
        }
        let deploy_bytes = wire * members.len() as u64;
        Ok(Fleet {
            members,
            config,
            rounds_completed: 0,
            sessions_served: 0,
            windows_served: 0,
            policy: None,
            round: 0,
            base: Some(package.checkpoint),
            wire_totals: WireTotals { deploy_bytes, ..WireTotals::default() },
        })
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the fleet has no devices (never true after [`Fleet::deploy`]).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The device a user is pinned to: a pure hash of the fleet seed and
    /// the user id, stable for the lifetime of the fleet.
    pub fn route(&self, user_id: u64) -> usize {
        (splitmix64(self.config.seed ^ user_id) % self.members.len() as u64) as usize
    }

    /// Device at `index`.
    pub fn device(&self, index: usize) -> &EdgeDevice {
        &self.members[index].device
    }

    /// Mutable device at `index` (test and harness access).
    pub fn device_mut(&mut self, index: usize) -> &mut EdgeDevice {
        &mut self.members[index].device
    }

    /// Federated rounds completed so far.
    pub fn federated_rounds(&self) -> usize {
        self.rounds_completed
    }

    /// Committed broadcast round — the generation delta payloads
    /// reference ([`crate::wire`]). Bumps once per completed federated
    /// round.
    pub fn committed_round(&self) -> u64 {
        self.round
    }

    /// Cumulative wire bytes this fleet has moved, by traffic class —
    /// the exact payload sizes its links were charged with.
    pub fn wire_totals(&self) -> WireTotals {
        self.wire_totals
    }

    /// Serves one user session — a pre-extracted feature matrix
    /// (`[n, 28]`) — on the user's routed device, chunked through the
    /// batched prototype-cache path. Afterwards, runs any federated round
    /// the session schedule now owes ([`FleetConfig::federated_every`]).
    pub fn serve_session(
        &mut self,
        user_id: u64,
        features: &Tensor,
    ) -> Result<Vec<InferenceOutcome>, EdgeError> {
        let index = self.route(user_id);
        let span = pilote_obs::span("fleet.session");
        span.annotate("device", index as f64);
        span.annotate("windows", features.rows() as f64);
        let outcomes =
            serve_chunked(&mut self.members[index].device, features, self.config.serve_chunk)?;
        drop(span);
        self.count_served(1, features.rows() as u64)?;
        Ok(outcomes)
    }

    /// Serves a batch of `(user_id, features)` sessions with the roster
    /// **sharded** across worker threads: sessions are routed up front,
    /// each device serves its own sessions in input order on the shard
    /// that owns it, and outcomes are returned in input order.
    ///
    /// Semantics match calling [`Fleet::serve_session`] once per entry, in
    /// order — same outcomes, device clocks, event logs, counters and
    /// federated schedule (the batch is cut at every
    /// [`FleetConfig::federated_every`] boundary so rounds fire between
    /// exactly the same sessions) — with one deliberate exception: no
    /// per-session `fleet.session` span is opened, because worker-side
    /// spans would finish in thread-timing order and their flop
    /// attribution would vary with the thread count. Bulk serving is for
    /// scale runs whose traces are not exported per session.
    ///
    /// # Errors
    /// Any serving error from the underlying devices. When an error is
    /// returned, sessions before the failing federated boundary have still
    /// been served and counted.
    pub fn serve_sessions(
        &mut self,
        sessions: &[(u64, Tensor)],
    ) -> Result<Vec<Vec<InferenceOutcome>>, EdgeError> {
        let mut results: Vec<Option<Vec<InferenceOutcome>>> = Vec::new();
        results.resize_with(sessions.len(), || None);
        let mut next = 0usize;
        while next < sessions.len() {
            let remaining = sessions.len() - next;
            let group = if self.config.federated_every > 0 {
                let every = self.config.federated_every as u64;
                let until_round = every - (self.sessions_served % every);
                remaining.min(until_round as usize)
            } else {
                remaining
            };
            // Route the whole group first; each device then serves its own
            // sessions in input order, so per-device event order matches
            // the serial walk exactly.
            let mut per_device: Vec<Vec<usize>> = vec![Vec::new(); self.members.len()];
            for (offset, (user_id, _)) in sessions[next..next + group].iter().enumerate() {
                per_device[self.route(*user_id)].push(next + offset);
            }
            let serve_chunk = self.config.serve_chunk;
            let served = map_member_bands(&mut self.members, &|index, member| {
                per_device[index]
                    .iter()
                    .map(|&pos| {
                        (pos, serve_chunked(&mut member.device, &sessions[pos].1, serve_chunk))
                    })
                    .collect::<Vec<_>>()
            });
            for (pos, outcome) in served.into_iter().flatten() {
                results[pos] = Some(outcome?);
            }
            let group_windows: u64 = sessions[next..next + group]
                .iter()
                .map(|(_, features)| features.rows() as u64)
                .sum();
            self.count_served(group as u64, group_windows)?;
            next += group;
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("every session is served by its routed device"))
            .collect())
    }

    /// Counts `sessions` served sessions holding `windows` windows in
    /// all, then runs any federated round the session schedule now owes
    /// ([`FleetConfig::federated_every`]).
    fn count_served(&mut self, sessions: u64, windows: u64) -> Result<(), EdgeError> {
        self.sessions_served += sessions;
        self.windows_served += windows;
        if pilote_obs::enabled() {
            pilote_obs::counter("fleet.sessions").add(sessions);
            pilote_obs::counter("fleet.windows_served").add(windows);
        }
        if self.config.federated_every > 0
            && self.sessions_served.is_multiple_of(self.config.federated_every as u64)
        {
            self.federated_round()?;
        }
        Ok(())
    }

    /// Buffers one labelled feature vector on the user's routed device
    /// (the user tagged part of a session with an activity name). When the
    /// device's pending buffer reaches [`FleetConfig::update_threshold`],
    /// runs the incremental update in place.
    pub fn label_sample(
        &mut self,
        user_id: u64,
        label: usize,
        features: Tensor,
    ) -> Result<Option<UpdateStatus>, EdgeError> {
        let index = self.route(user_id);
        let member = &mut self.members[index];
        member.device.label_sample(label, features);
        if self.config.update_threshold > 0
            && member.device.pending_samples() >= self.config.update_threshold
        {
            let status = member
                .device
                .update_faulted(self.config.exemplar_budget, None)?;
            if status == UpdateStatus::Completed {
                member.updates_completed += 1;
            }
            if pilote_obs::enabled() {
                pilote_obs::counter("fleet.updates").inc();
            }
            return Ok(Some(status));
        }
        Ok(None)
    }

    /// Runs one federated round across the whole fleet: every device with
    /// a non-empty support set uploads its parameters over its link and
    /// downloads the merged model back (both transfers advance that
    /// device's virtual clock); zero-support devices skip the upload but
    /// still receive — and pay for — the download.
    ///
    /// Both directions ship through the binary codec ([`crate::wire`]) at
    /// the fleet's [`FleetConfig::wire`] setting: uploads and the merged
    /// broadcast are delta-encoded against the committed base when the
    /// member is current (full-payload fallback otherwise), and what gets
    /// averaged and installed is the **decoded** payload — so quantised
    /// precisions pay their accuracy cost for real, while the default
    /// `f32` round trip is bitwise lossless. A completed round commits
    /// the decoded broadcast as the next delta base.
    pub fn federated_round(&mut self) -> Result<(), EdgeError> {
        if self.policy.is_some() {
            return self.staged_federated_round();
        }
        let span = pilote_obs::span("fleet.federated_round");
        span.annotate("devices", self.members.len() as f64);
        let round = self.round;
        let base = self.base.as_ref();
        let (contributions, upload_bytes) =
            collect_uploads(&mut self.members, base, round, self.config.wire, &|_| true)?;
        let participants = contributions.len();
        let any_stale = self.members.iter().any(|m| m.base_round != round);
        let broadcast =
            RoundBroadcast::new(&contributions, base, round, self.config.wire, any_stale)?;
        // Every clock charge lands serially in device-index order.
        let new_round = round + 1;
        for (member, upload) in self.members.iter_mut().zip(upload_bytes) {
            if let Some(bytes) = upload {
                member.ship(bytes, &mut self.wire_totals.federated_upload_bytes);
            }
            let current = broadcast.install(member, &mut self.wire_totals)?;
            if upload.is_none() {
                member.device.record_event(EventKind::FederatedExcluded {
                    participants,
                    reason: ExclusionReason::ZeroSupport,
                });
            }
            member.device.record_event(EventKind::FederatedRound { participants });
            if current {
                member.base_round = new_round;
            }
        }
        self.base = Some(broadcast.canonical);
        self.round = new_round;
        self.rounds_completed += 1;
        // The round installed merged parameters everywhere (generation
        // bumped), so armed quality monitors must sample the new model.
        for member in &mut self.members {
            member.device.sample_quality()?;
        }
        drop(span);
        if pilote_obs::enabled() {
            pilote_obs::counter("fleet.federated_rounds").inc();
        }
        Ok(())
    }

    /// Arms the self-healing control loop over this fleet
    /// ([`crate::policy`]): stage plan derived from the fleet seed, every
    /// device starting healthy, and `anchor` as the strike-2 re-anchor
    /// package. Subsequent [`Fleet::federated_round`] calls run the
    /// staged policied path.
    ///
    /// From here on every device samples its quality monitor adaptively:
    /// forgetting and drift thresholds follow the device's own probe
    /// history instead of the shared constants (`core::quality`). The
    /// switch lives on the device, so monitors armed before or after this
    /// call adapt alike.
    pub fn enable_policy(&mut self, anchor: Deployment) -> Result<(), EdgeError> {
        // The anchor re-installs over the wire: store the decoded package
        // at the configured precision with its exact binary size, so a
        // re-anchor ships (and installs) the same bits a deploy would.
        let (anchor, anchor_bytes) = package_for_wire(&anchor, self.config.wire.precision)?;
        self.policy = Some(PolicyState {
            policy: FleetPolicy::new(self.members.len(), self.config.seed),
            anchor,
            anchor_bytes,
        });
        for member in &mut self.members {
            member.device.adaptive_thresholds = true;
        }
        Ok(())
    }

    /// The enabled self-healing policy, if any.
    pub fn policy(&self) -> Option<&FleetPolicy> {
        self.policy.as_ref().map(|s| &s.policy)
    }

    /// The policied [`Fleet::federated_round`]: one control step (acting
    /// on alerts sampled since the last round), then healthy-only
    /// contribution collection, then a staged canary → cohort → fleet
    /// install of the merged model with halt-and-rollback and suspect
    /// screening. See `docs/POLICY.md` for the full loop. Every step runs
    /// in device-index order (wire sizing fans out per band but carries
    /// no spans or kernel flops), so the round is byte-identical across
    /// runs and `PILOTE_THREADS` settings.
    fn staged_federated_round(&mut self) -> Result<(), EdgeError> {
        let Fleet { members, rounds_completed, policy, config, round, base, wire_totals, .. } =
            self;
        let state = policy.as_mut().expect("staged round requires an enabled policy");
        let span = pilote_obs::span("fleet.staged_round");
        span.annotate("devices", members.len() as f64);

        // 1. Control step: inspect every device's not-yet-inspected
        //    quality reports (local update samples, prior install samples)
        //    and quarantine/repair on any new triggering alert.
        for (index, member) in members.iter_mut().enumerate() {
            judge_and_repair(member, state, index, wire_totals)?;
        }

        // 2. Collect contributions — healthy devices with non-empty
        //    support, captured BEFORE any install — each shipped through
        //    the wire codec and decoded back.
        let committed = *round;
        let policy_ref = &state.policy;
        let (contributions, upload_bytes) = collect_uploads(
            members,
            base.as_ref(),
            committed,
            config.wire,
            &|i| policy_ref.contributes(i),
        )?;
        let participants = contributions.len();
        for (index, member) in members.iter_mut().enumerate() {
            if let Some(bytes) = upload_bytes[index] {
                member.ship(bytes, &mut wire_totals.federated_upload_bytes);
            } else {
                // Typed exclusion: a healthy-but-empty device skipped for
                // zero support, everyone else because the policy holds it
                // out (degraded devices are the ladder's terminal rung of
                // the same quarantine story).
                let reason = if state.policy.contributes(index) {
                    ExclusionReason::ZeroSupport
                } else {
                    ExclusionReason::Quarantined
                };
                member.device.record_event(EventKind::FederatedExcluded { participants, reason });
            }
        }
        let any_stale = members
            .iter()
            .enumerate()
            .any(|(i, m)| state.policy.receives(i) && m.base_round != committed);
        let broadcast =
            RoundBroadcast::new(&contributions, base.as_ref(), committed, config.wire, any_stale)?;

        // 3. Staged install of the decoded broadcast payload — delta for
        //    current members, the full fallback for stale ones.
        let mut installed_current = vec![false; members.len()];
        let halted = staged_install(members, &mut state.policy, |i, member| {
            installed_current[i] = broadcast.install(member, wire_totals)?;
            member.device.record_event(EventKind::FederatedRound { participants });
            Ok(())
        })?;
        if halted {
            // Suspect screening: sample every contributor. The monitor
            // gates on generation, so a healthy contributor (sampled at
            // its last commit) yields nothing, while a silently poisoned
            // one — generation moved without a sample — now gets judged
            // and quarantined. Judging includes the absolute screening
            // floor: a culprit that sat *inside* the halted stage was just
            // restored to its own poisoned snapshot, so its incremental
            // forgetting is zero, but its accuracy against the armed
            // baseline is not.
            for (index, member) in members.iter_mut().enumerate() {
                if upload_bytes[index].is_some() {
                    member.device.sample_quality()?;
                    judge_and_repair(member, state, index, wire_totals)?;
                }
            }
            state.policy.note_halted_round();
            drop(span);
            if pilote_obs::enabled() {
                pilote_obs::counter("fleet.policy.halted_rounds").inc();
            }
            return Ok(());
        }

        // 4. All stages completed: commit the decoded broadcast as the
        //    next delta base, count the round and serve quarantine
        //    sentences. Members that installed the canonical payload are
        //    current for the new round; full-fallback and held-out
        //    members keep falling back until a lossless install catches
        //    them up.
        let new_round = committed + 1;
        for (member, current) in members.iter_mut().zip(installed_current) {
            if current {
                member.base_round = new_round;
            }
        }
        *round = new_round;
        *base = Some(broadcast.canonical);
        *rounds_completed += 1;
        for (index, strikes) in state.policy.finish_round() {
            members[index].device.record_event(EventKind::QuarantineLifted { strikes });
        }
        drop(span);
        if pilote_obs::enabled() {
            pilote_obs::counter("fleet.federated_rounds").inc();
            pilote_obs::counter("fleet.policy.staged_rounds").inc();
        }
        Ok(())
    }

    /// Arms a clone of `monitor` on every device, in device-index order.
    /// Each clone takes its baseline measurement immediately and then
    /// samples at every later generation bump (updates, rollbacks,
    /// degradations and federated installs), raising
    /// [`crate::events::EventKind::AlertRaised`] events into the device
    /// log. A monitor built with [`QualityMonitor::with_session_tasks`]
    /// also records a session × task matrix on every device (the baseline
    /// taken here is row 0), collected fleet-wide by
    /// [`Fleet::session_matrix_rollup`].
    pub fn arm_quality_monitors(&mut self, monitor: &QualityMonitor) -> Result<(), EdgeError> {
        for member in &mut self.members {
            member.device.arm_quality_monitor(monitor.clone())?;
        }
        Ok(())
    }

    /// The link-charged fan-in every telemetry upload shares: `payload`
    /// builds each device's `(payload, wire bytes)` — `None` ships
    /// nothing — fanned out across shards (no kernel flops, so neither an
    /// open span nor any clock changes). Then, serially in device-index
    /// order, each payload's bytes are charged to its member's link and
    /// `merge` folds the payload in, which keeps gauge last-write-wins and
    /// merge errors identical to the serial walk.
    fn fan_in<P: Send, E>(
        &mut self,
        payload: &(impl Fn(&mut EdgeDevice) -> Option<(P, u64)> + Sync),
        mut merge: impl FnMut(P) -> Result<(), E>,
    ) -> Result<(), E> {
        let payloads = map_member_bands(&mut self.members, &|_, m| payload(&mut m.device));
        for (member, shipped) in self.members.iter_mut().zip(payloads) {
            if let Some((p, bytes)) = shipped {
                member.ship(bytes, &mut self.wire_totals.telemetry_bytes);
                merge(p)?;
            }
        }
        Ok(())
    }

    /// Collects every device's telemetry snapshot over its own link
    /// (charging real wire bytes and modeled transfer time, like any other
    /// deployment traffic) and merges them into a deterministic fleet-wide
    /// [`TelemetryRollup`] in device-index order.
    ///
    /// Each payload is sized by the binary telemetry codec
    /// ([`crate::wire::snapshot_wire_bytes`]) — the exact bytes
    /// [`crate::wire::encode_snapshot`] would emit.
    ///
    /// Under `PILOTE_OBS=0` each device ships an empty snapshot — the
    /// rollup stays well-formed (all sections empty) and the devices are
    /// still counted, but no telemetry leaves the device.
    ///
    /// # Errors
    /// [`EdgeError::Rollup`] when two devices disagree on histogram
    /// bucket bounds.
    pub fn telemetry_rollup(&mut self) -> Result<TelemetryRollup, EdgeError> {
        let span = pilote_obs::span("fleet.telemetry_rollup");
        span.annotate("devices", self.members.len() as f64);
        let mut rollup = TelemetryRollup::new();
        self.fan_in(
            &|device| {
                let snapshot = device.telemetry_snapshot();
                let bytes = wire::snapshot_wire_bytes(&snapshot);
                Some((snapshot, bytes))
            },
            |snapshot| rollup.merge_snapshot(&snapshot),
        )?;
        drop(span);
        if pilote_obs::enabled() {
            pilote_obs::counter("fleet.telemetry_rollups").inc();
        }
        Ok(rollup)
    }

    /// Collects every device's **delta** telemetry — the increment since
    /// that device's previous upload ([`EdgeDevice::telemetry_delta`]) —
    /// charges each link with the (much smaller) delta payload, and merges
    /// the deltas into `rollup` in device-index order.
    ///
    /// Summing delta uploads at the cloud reproduces the full-snapshot
    /// rollup exactly: counter and histogram merges are commutative
    /// associative sums, and gauges ship their current value every upload
    /// so last-write-wins lands on the same device either way. See
    /// `docs/SCALING.md` for the wire protocol; the conservation property
    /// is tested in `tests/fleet_props.rs`.
    ///
    /// Under `PILOTE_OBS=0` each device ships an empty snapshot and keeps
    /// its baseline untouched.
    ///
    /// # Errors
    /// [`EdgeError::Rollup`] when two devices disagree on histogram
    /// bucket bounds.
    pub fn upload_telemetry_deltas(
        &mut self,
        rollup: &mut TelemetryRollup,
    ) -> Result<(), EdgeError> {
        self.fan_in(
            &|device| {
                let delta = device.telemetry_delta();
                let bytes = wire::snapshot_wire_bytes(&delta);
                Some((delta, bytes))
            },
            |delta| rollup.merge_snapshot(&delta),
        )?;
        if pilote_obs::enabled() {
            pilote_obs::counter("fleet.telemetry_uploads").inc();
        }
        Ok(())
    }

    /// Collects every device's session × task accuracy matrix over its
    /// own link (each payload sized by the binary `PWM1` codec,
    /// [`crate::wire::session_matrix_wire_bytes`]) and merges them into a
    /// [`ScenarioRollup`] in device-index order — the same merge-order
    /// contract as [`Fleet::telemetry_rollup`], so the fleet curves are
    /// byte-identical across runs and `PILOTE_THREADS` settings.
    ///
    /// Devices without session recording (monitors built without
    /// [`QualityMonitor::with_session_tasks`], or none armed) ship nothing
    /// and are skipped. Unlike telemetry snapshots, matrices are device
    /// *behaviour* records fed by the always-on quality monitor, so the
    /// `PILOTE_OBS` kill switch does not empty them.
    pub fn session_matrix_rollup(&mut self) -> ScenarioRollup {
        let span = pilote_obs::span("fleet.session_matrix_rollup");
        span.annotate("devices", self.members.len() as f64);
        let mut rollup = ScenarioRollup::new();
        let Ok(()) = self.fan_in(
            &|device| {
                let matrix = device.session_matrix()?;
                Some((matrix.clone(), wire::session_matrix_wire_bytes(matrix)))
            },
            |matrix| {
                rollup.merge_matrix(&matrix);
                Ok::<_, std::convert::Infallible>(())
            },
        );
        drop(span);
        if pilote_obs::enabled() {
            pilote_obs::counter("fleet.session_matrix_rollups").inc();
        }
        rollup
    }

    /// Fleet-wide summary.
    pub fn stats(&self) -> FleetStats {
        let devices = self
            .members
            .iter()
            .map(|m| DeviceStats {
                name: m.device.profile().name.clone(),
                windows_served: m.device.log().served_count(),
                cache_rebuilds: m.device.cache_rebuilds(),
                updates: m.updates_completed,
                classes: m.device.known_classes().len(),
                clock_seconds: m.device.log().now(),
                degraded: m.device.is_degraded(),
            })
            .collect();
        FleetStats {
            devices,
            sessions: self.sessions_served,
            windows: self.windows_served,
            federated_rounds: self.rounds_completed,
        }
    }
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("devices", &self.members.len())
            .field("sessions", &self.sessions_served)
            .field("federated_rounds", &self.rounds_completed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloud::CloudServer;
    use crate::events::EventKind;
    use crate::policy::DeviceHealth;
    use pilote_core::PiloteConfig;
    use pilote_har_data::Dataset;
    use pilote_har_data::dataset::generate_features;
    use pilote_har_data::features::extract_batch;
    use pilote_har_data::preprocess::Normalizer;
    use pilote_har_data::{Activity, Simulator, FEATURE_DIM};

    fn deployment() -> (Deployment, Simulator, Normalizer) {
        let mut sim = Simulator::with_seed(31);
        let (data, norm) = generate_features(
            &mut sim,
            &[(Activity::Still, 50), (Activity::Walk, 50), (Activity::Run, 50)],
        )
        .expect("simulate");
        let server = CloudServer::new(data, norm.clone(), PiloteConfig::fast_test(5));
        let (deployment, _) = server
            .pretrain_and_package(&[Activity::Still.label(), Activity::Walk.label()], 15)
            .expect("package");
        (deployment, sim, norm)
    }

    fn slots(n: usize) -> Vec<(DeviceProfile, LinkModel)> {
        let links = [LinkModel::wifi(), LinkModel::cellular_4g(), LinkModel::weak_cellular()];
        DeviceProfile::roster(n)
            .into_iter()
            .enumerate()
            .map(|(i, p)| (p, links[i % links.len()]))
            .collect()
    }

    fn fleet(n: usize, config: FleetConfig) -> (Fleet, Simulator, Normalizer) {
        let (deployment, sim, norm) = deployment();
        let fleet = Fleet::deploy(slots(n), &deployment, config).expect("deploy");
        (fleet, sim, norm)
    }

    fn session_features(sim: &mut Simulator, norm: &Normalizer, activity: Activity, windows: usize) -> Tensor {
        let raw = sim.raw_dataset(&[(activity, windows)]);
        norm.transform(&extract_batch(&raw).expect("features")).expect("norm")
    }

    #[test]
    fn routing_is_deterministic_and_spreads_users() {
        let (fleet, _, _) = fleet(8, FleetConfig::default());
        let hit: std::collections::BTreeSet<usize> =
            (0..200u64).map(|u| fleet.route(u)).collect();
        assert_eq!(hit.len(), 8, "200 users must reach all 8 devices");
        for u in 0..200u64 {
            assert_eq!(fleet.route(u), fleet.route(u));
        }
    }

    #[test]
    fn deploy_charges_each_link_separately() {
        let (fleet, _, _) = fleet(3, FleetConfig::default());
        // Slot 0 is wifi, slot 2 weak cellular: same payload, slower link,
        // later deployment timestamp.
        let t0 = fleet.device(0).log().now();
        let t2 = fleet.device(2).log().now();
        assert!(t2 > t0, "weak-cellular install must take longer than wifi");
    }

    #[test]
    fn sessions_are_served_on_the_routed_device_only() {
        let cfg = FleetConfig { federated_every: 0, ..FleetConfig::default() };
        let (mut fleet, mut sim, norm) = fleet(4, cfg);
        let features = session_features(&mut sim, &norm, Activity::Still, 9);
        let user = 7u64;
        let index = fleet.route(user);
        let outcomes = fleet.serve_session(user, &features).expect("serve");
        assert_eq!(outcomes.len(), 9);
        for i in 0..fleet.len() {
            let expect = if i == index { 9 } else { 0 };
            assert_eq!(fleet.device(i).log().served_count(), expect, "device {i}");
        }
        assert_eq!(fleet.stats().windows, 9);
    }

    #[test]
    fn chunked_serving_is_bitwise_identical_to_one_big_batch() {
        // serve_chunk: 4 forces 3 chunks for 10 windows.
        let small =
            FleetConfig { serve_chunk: 4, federated_every: 0, ..FleetConfig::default() };
        let big =
            FleetConfig { serve_chunk: 1024, federated_every: 0, ..FleetConfig::default() };
        let (mut fleet_small, mut sim, norm) = fleet(4, small);
        let (mut fleet_big, _, _) = fleet(4, big);
        let features = session_features(&mut sim, &norm, Activity::Walk, 10);
        let a = fleet_small.serve_session(3, &features).expect("serve");
        let b = fleet_big.serve_session(3, &features).expect("serve");
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.predicted, y.predicted);
            assert_eq!(x.distance.to_bits(), y.distance.to_bits());
        }
    }

    #[test]
    fn labelling_past_threshold_triggers_an_update() {
        let cfg =
            FleetConfig { update_threshold: 10, federated_every: 0, ..FleetConfig::default() };
        let (mut fleet, mut sim, norm) = fleet(3, cfg);
        let features = session_features(&mut sim, &norm, Activity::Run, 10);
        let user = 1u64;
        let index = fleet.route(user);
        let mut last = None;
        for i in 0..features.rows() {
            last = fleet
                .label_sample(user, Activity::Run.label(), Tensor::vector(features.row(i)))
                .expect("label");
        }
        assert_eq!(last, Some(UpdateStatus::Completed));
        assert_eq!(fleet.device(index).known_classes().len(), 3);
        assert_eq!(fleet.stats().devices[index].updates, 1);
        // Other devices don't know Run until a federated round spreads it.
        for i in (0..fleet.len()).filter(|&i| i != index) {
            assert_eq!(fleet.device(i).known_classes().len(), 2);
        }
    }

    #[test]
    fn federated_schedule_fires_every_n_sessions() {
        let cfg = FleetConfig { federated_every: 3, ..FleetConfig::default() };
        let (mut fleet, mut sim, norm) = fleet(3, cfg);
        let features = session_features(&mut sim, &norm, Activity::Still, 2);
        for user in 0..7u64 {
            fleet.serve_session(user, &features).expect("serve");
        }
        assert_eq!(fleet.federated_rounds(), 2, "rounds after sessions 3 and 6");
        // Every device saw both rounds in its log.
        for i in 0..fleet.len() {
            let rounds = fleet
                .device(i)
                .log()
                .events()
                .iter()
                .filter(|e| matches!(e.kind, EventKind::FederatedRound { .. }))
                .count();
            assert_eq!(rounds, 2, "device {i}");
        }
    }

    #[test]
    fn federated_round_charges_link_time_and_invalidates_caches() {
        let cfg = FleetConfig { federated_every: 0, ..FleetConfig::default() };
        let (mut fleet, mut sim, norm) = fleet(3, cfg);
        let features = session_features(&mut sim, &norm, Activity::Still, 4);
        fleet.serve_session(0, &features).expect("serve");
        let clocks_before: Vec<f64> = (0..3).map(|i| fleet.device(i).log().now()).collect();
        fleet.federated_round().expect("round");
        for (i, before) in clocks_before.iter().enumerate() {
            assert!(
                fleet.device(i).log().now() > *before,
                "device {i} paid no link time for the round"
            );
        }
        // The round reinstalls parameters on every device → generation
        // moved → the next serve on any device rebuilds its cache.
        for user in 0..64u64 {
            let idx = fleet.route(user);
            let before = fleet.device(idx).cache_rebuilds();
            let row = Tensor::vector(features.row(0)).reshape([1, FEATURE_DIM]).expect("row");
            fleet.serve_session(user, &row).expect("serve");
            if fleet.device(idx).log().served_count() > 1 {
                assert_eq!(
                    fleet.device(idx).cache_rebuilds(),
                    before + 1,
                    "device {idx} served before the round must rebuild after it"
                );
                return;
            }
        }
        panic!("no user routed back to an already-serving device");
    }

    /// Held-out Still/Walk probe windows, normalised with the deployment
    /// normaliser.
    fn probe_set(sim: &mut Simulator, norm: &Normalizer) -> Dataset {
        let raw = sim.raw_dataset(&[(Activity::Still, 15), (Activity::Walk, 15)]);
        let features = norm.transform(&extract_batch(&raw).expect("features")).expect("norm");
        Dataset::new(features, raw.labels).expect("probe")
    }

    #[test]
    fn federated_round_samples_armed_quality_monitors() {
        let cfg = FleetConfig { federated_every: 0, ..FleetConfig::default() };
        let (mut fleet, mut sim, norm) = fleet(3, cfg);
        let probe = probe_set(&mut sim, &norm);
        let old = [Activity::Still.label(), Activity::Walk.label()];
        fleet.arm_quality_monitors(&QualityMonitor::new(probe, &old)).expect("arm");
        for i in 0..fleet.len() {
            assert_eq!(fleet.device(i).quality_reports().len(), 1, "device {i} baseline");
        }
        // The round installs merged parameters everywhere → every armed
        // monitor must sample the new generation.
        fleet.federated_round().expect("round");
        for i in 0..fleet.len() {
            assert_eq!(
                fleet.device(i).quality_reports().len(),
                2,
                "device {i} must sample the federated install"
            );
        }
    }

    #[test]
    fn f32_delta_rounds_match_full_rounds_bitwise_and_cost_less_link_time() {
        let delta_cfg = FleetConfig {
            update_threshold: 10,
            federated_every: 0,
            wire: WireConfig::delta(WirePrecision::F32),
            ..FleetConfig::default()
        };
        let full_cfg =
            FleetConfig { wire: WireConfig::full(WirePrecision::F32), ..delta_cfg.clone() };
        let (mut with_delta, mut sim, norm) = fleet(3, delta_cfg);
        let (mut with_full, _, _) = fleet(3, full_cfg);
        // Diverge one device with a local update — identically on both
        // fleets — so round payloads carry real parameter changes.
        let features = session_features(&mut sim, &norm, Activity::Run, 10);
        for i in 0..features.rows() {
            for f in [&mut with_delta, &mut with_full] {
                f.label_sample(1, Activity::Run.label(), Tensor::vector(features.row(i)))
                    .expect("label");
            }
        }
        with_delta.federated_round().expect("delta round");
        with_full.federated_round().expect("full round");
        assert_eq!(with_delta.committed_round(), 1);
        assert_eq!(with_full.committed_round(), 1);
        let mut delta_time = 0.0;
        let mut full_time = 0.0;
        for i in 0..with_delta.len() {
            let a =
                Checkpoint::capture(with_delta.device_mut(i).model_mut().net_mut().layers_mut());
            let b =
                Checkpoint::capture(with_full.device_mut(i).model_mut().net_mut().layers_mut());
            assert_eq!(a, b, "device {i}: f32 delta and full rounds must agree bitwise");
            delta_time += with_delta.device(i).log().now();
            full_time += with_full.device(i).log().now();
        }
        // The two never-updated devices upload near-empty deltas (every
        // layer still matches the committed base), dwarfing the few bytes
        // of per-layer flag overhead the changed payloads add.
        assert!(
            delta_time < full_time,
            "delta rounds must cost less total link time: {delta_time} vs {full_time}"
        );
    }

    fn param_bits(ckpt: &Checkpoint) -> Vec<u32> {
        ckpt.params.iter().flat_map(|p| p.as_slice().iter().map(|v| v.to_bits())).collect()
    }

    /// A member whose support set is empty uploads nothing: the merge is
    /// bitwise the support-weighted average of the other members, yet the
    /// empty member still installs it and logs a typed `ZeroSupport`
    /// exclusion — on the unpolicied and the staged round alike.
    #[test]
    fn zero_support_member_installs_the_merge_without_contributing() {
        for policied in [false, true] {
            let (deployment, mut sim, norm) = deployment();
            let cfg =
                FleetConfig { update_threshold: 10, federated_every: 0, ..FleetConfig::default() };
            let mut fleet = Fleet::deploy(slots(3), &deployment, cfg).expect("deploy");
            if policied {
                // No monitors armed: every stage completes, so the staged
                // install reaches every member.
                fleet.enable_policy(deployment.clone()).expect("policy");
            }
            // Diverge one member with a local update so the merge differs
            // from the deployment, then empty another member's support.
            let user = 1u64;
            let features = session_features(&mut sim, &norm, Activity::Run, 10);
            for i in 0..features.rows() {
                fleet
                    .label_sample(user, Activity::Run.label(), Tensor::vector(features.row(i)))
                    .expect("label");
            }
            let empty = (0..fleet.len()).find(|&i| i != fleet.route(user)).expect("member");
            *fleet.device_mut(empty).model_mut().support_mut() = pilote_core::SupportSet::new();
            let others: Vec<(Checkpoint, usize)> = (0..fleet.len())
                .filter(|&i| i != empty)
                .map(|i| {
                    let model = fleet.device_mut(i).model_mut();
                    let weight = model.support().len();
                    (Checkpoint::capture(model.net_mut().layers_mut()), weight)
                })
                .collect();
            let expected = param_bits(&federated_average(&others).expect("average"));

            fleet.federated_round().expect("round");

            assert_eq!(fleet.federated_rounds(), 1, "policied: {policied}");
            for i in 0..fleet.len() {
                let layers = fleet.device_mut(i).model_mut().net_mut().layers_mut();
                assert!(
                    param_bits(&Checkpoint::capture(layers)) == expected,
                    "device {i} (policied: {policied}) must hold the others' bitwise average"
                );
                let exclusions: Vec<_> = fleet
                    .device(i)
                    .log()
                    .events()
                    .iter()
                    .filter_map(|e| match e.kind {
                        EventKind::FederatedExcluded { participants, reason } => {
                            Some((participants, reason))
                        }
                        _ => None,
                    })
                    .collect();
                let want =
                    if i == empty { vec![(2, ExclusionReason::ZeroSupport)] } else { Vec::new() };
                assert_eq!(exclusions, want, "device {i} (policied: {policied})");
            }
        }
    }

    #[test]
    fn quantised_rounds_commit_and_keep_the_fleet_serving() {
        let cfg = FleetConfig {
            federated_every: 0,
            wire: WireConfig::delta(WirePrecision::I8),
            ..FleetConfig::default()
        };
        let (mut fleet, mut sim, norm) = fleet(3, cfg);
        let features = session_features(&mut sim, &norm, Activity::Still, 4);
        fleet.serve_session(0, &features).expect("serve");
        fleet.federated_round().expect("round");
        assert_eq!(fleet.committed_round(), 1);
        // The second round deltas against the base the first one committed.
        fleet.federated_round().expect("second round");
        assert_eq!(fleet.committed_round(), 2);
        fleet.serve_session(1, &features).expect("serve after quantised installs");
    }

    #[test]
    fn telemetry_rollup_totals_match_per_device_snapshots() {
        let cfg = FleetConfig { federated_every: 0, ..FleetConfig::default() };
        let (mut fleet, mut sim, norm) = fleet(3, cfg);
        let features = session_features(&mut sim, &norm, Activity::Still, 5);
        for user in 0..6u64 {
            fleet.serve_session(user, &features).expect("serve");
        }
        let clocks_before: Vec<f64> = (0..3).map(|i| fleet.device(i).log().now()).collect();
        let per_device: Vec<_> = (0..3).map(|i| fleet.device(i).telemetry_snapshot()).collect();
        let rollup = fleet.telemetry_rollup().expect("rollup");
        assert_eq!(rollup.devices, 3);
        if !pilote_obs::enabled() {
            assert!(rollup.counters.is_empty(), "kill switch ships empty snapshots");
            return;
        }
        // Rollup counters are exactly the sum of the per-device snapshots.
        let mut expected = std::collections::BTreeMap::new();
        for snap in &per_device {
            for (name, value) in &snap.counters {
                *expected.entry(name.clone()).or_insert(0u64) += value;
            }
        }
        assert_eq!(rollup.counters, expected);
        assert_eq!(rollup.counter("edge.batch_served"), 30, "6 sessions × 5 windows");
        // Shipping the snapshot charges each device's own link.
        for (i, before) in clocks_before.iter().enumerate() {
            assert!(
                fleet.device(i).log().now() > *before,
                "device {i} paid no link time for its telemetry upload"
            );
        }
    }

    #[test]
    fn stats_summarise_the_fleet() {
        let cfg = FleetConfig { federated_every: 2, ..FleetConfig::default() };
        let (mut fleet, mut sim, norm) = fleet(8, cfg);
        let features = session_features(&mut sim, &norm, Activity::Walk, 3);
        for user in 0..8u64 {
            fleet.serve_session(user, &features).expect("serve");
        }
        let stats = fleet.stats();
        assert_eq!(stats.devices.len(), 8);
        assert_eq!(stats.sessions, 8);
        assert_eq!(stats.windows, 24);
        assert_eq!(stats.federated_rounds, 4);
        assert_eq!(
            stats.devices.iter().map(|d| d.windows_served).sum::<u64>(),
            24
        );
        // Serde round-trip: FleetStats is a report payload.
        let json = serde_json::to_string(&stats).expect("serialise");
        let back: FleetStats = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(back, stats);
    }

    /// Runs `f` under an `n`-thread zero-threshold config, restoring the
    /// previous config afterwards. Kernel results are thread-count
    /// invariant, so a concurrent test observing the temporary config can
    /// only change scheduling, never outcomes.
    fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
        let prev = parallel::current();
        parallel::configure(parallel::ThreadConfig { num_threads: n, min_parallel_len: 1 });
        let out = f();
        parallel::configure(prev);
        out
    }

    fn log_json(fleet: &Fleet, index: usize) -> String {
        serde_json::to_string(fleet.device(index).log()).expect("log json")
    }

    #[test]
    fn deploy_sharded_matches_serial_deploy_at_any_thread_count() {
        let (deployment, _, _) = deployment();
        let serial =
            Fleet::deploy(slots(8), &deployment, FleetConfig::default()).expect("deploy");
        for n in [1usize, 4] {
            let sharded = with_threads(n, || {
                Fleet::deploy_sharded(slots(8), &deployment, FleetConfig::default())
                    .expect("deploy")
            });
            assert_eq!(sharded.len(), serial.len());
            for i in 0..serial.len() {
                assert_eq!(
                    log_json(&sharded, i),
                    log_json(&serial, i),
                    "device {i} log at {n} threads"
                );
            }
        }
    }

    #[test]
    fn bulk_serving_matches_serial_sessions_at_any_thread_count() {
        let cfg = FleetConfig { federated_every: 3, ..FleetConfig::default() };
        let (mut serial, mut sim, norm) = fleet(4, cfg.clone());
        let sessions: Vec<(u64, Tensor)> = (0..7u64)
            .map(|u| (u, session_features(&mut sim, &norm, Activity::Walk, 4)))
            .collect();
        let mut expected = Vec::new();
        for (user, features) in &sessions {
            expected.push(serial.serve_session(*user, features).expect("serve"));
        }
        for n in [1usize, 4] {
            let (mut sharded, _, _) = fleet(4, cfg.clone());
            let got = with_threads(n, || sharded.serve_sessions(&sessions).expect("serve"));
            assert_eq!(got.len(), expected.len());
            for (a, b) in got.iter().flatten().zip(expected.iter().flatten()) {
                assert_eq!(a.predicted, b.predicted);
                assert_eq!(a.distance.to_bits(), b.distance.to_bits());
            }
            assert_eq!(sharded.federated_rounds(), serial.federated_rounds(), "{n} threads");
            assert_eq!(
                serde_json::to_string(&sharded.stats()).expect("stats json"),
                serde_json::to_string(&serial.stats()).expect("stats json"),
                "{n} threads"
            );
            for i in 0..serial.len() {
                assert_eq!(
                    log_json(&sharded, i),
                    log_json(&serial, i),
                    "device {i} log at {n} threads"
                );
            }
        }
    }

    #[test]
    fn delta_uploads_sum_to_the_full_snapshot_rollup() {
        let cfg = FleetConfig { federated_every: 0, ..FleetConfig::default() };
        let (mut fleet_delta, mut sim, norm) = fleet(3, cfg.clone());
        let (mut fleet_full, _, _) = fleet(3, cfg);
        let still = session_features(&mut sim, &norm, Activity::Still, 5);
        let walk = session_features(&mut sim, &norm, Activity::Walk, 6);
        let mut delta_rollup = TelemetryRollup::new();
        // Two upload windows for the delta fleet, one whole-life snapshot
        // upload for the reference fleet — same served schedule.
        for features in [&still, &walk] {
            for user in 0..4u64 {
                fleet_delta.serve_session(user, features).expect("serve");
                fleet_full.serve_session(user, features).expect("serve");
            }
            fleet_delta.upload_telemetry_deltas(&mut delta_rollup).expect("upload");
        }
        let full_rollup = fleet_full.telemetry_rollup().expect("rollup");
        if !pilote_obs::enabled() {
            assert!(delta_rollup.counters.is_empty(), "kill switch ships empty deltas");
            return;
        }
        // Counters and histograms are conserved exactly; gauges are
        // point-in-time (the delta fleet's clocks include an extra upload
        // charge) and device counts differ (one merge per upload), so
        // neither is compared.
        assert_eq!(delta_rollup.counters, full_rollup.counters);
        assert_eq!(delta_rollup.histograms, full_rollup.histograms);
    }

    #[test]
    fn deploy_applies_the_configured_event_capacity() {
        // serve_chunk 2 → a 6-window session emits 3 BatchServed events,
        // overflowing the 2-slot ring on top of the install event.
        let cfg = FleetConfig {
            event_capacity: 2,
            serve_chunk: 2,
            federated_every: 0,
            ..FleetConfig::default()
        };
        let (mut fleet, mut sim, norm) = fleet(2, cfg);
        assert_eq!(fleet.device(0).log().capacity(), 2);
        let features = session_features(&mut sim, &norm, Activity::Still, 6);
        let user = 0u64;
        let index = fleet.route(user);
        fleet.serve_session(user, &features).expect("serve");
        assert!(fleet.device(index).log().events().len() <= 2, "ring must stay bounded");
        assert!(fleet.device(index).log().evicted() > 0, "schedule must overflow the ring");
        // Derived counts read the running totals, not the retained window.
        assert_eq!(fleet.device(index).log().served_count(), 6);
        assert_eq!(fleet.stats().devices[index].windows_served, 6);
    }

    /// A policied fleet: armed monitors (default thresholds) plus the
    /// self-healing policy anchored on the original deployment.
    fn policied_fleet(n: usize) -> (Fleet, Deployment) {
        let (deployment, mut sim, norm) = deployment();
        let cfg = FleetConfig { federated_every: 0, ..FleetConfig::default() };
        let mut fleet = Fleet::deploy(slots(n), &deployment, cfg).expect("deploy");
        let probe = probe_set(&mut sim, &norm);
        let old = [Activity::Still.label(), Activity::Walk.label()];
        fleet.arm_quality_monitors(&QualityMonitor::new(probe, &old)).expect("arm");
        fleet.enable_policy(deployment.clone()).expect("policy");
        (fleet, deployment)
    }

    /// Overwrites a device's net parameters with a fixed junk pattern and
    /// commits the damage (prototypes recomputed through the ruined net),
    /// collapsing old-class probe accuracy.
    fn poison(device: &mut EdgeDevice) {
        use pilote_nn::Layer;
        let model = device.model_mut();
        for (p, _) in model.net_mut().layers_mut().params_and_grads() {
            for (k, v) in p.as_mut_slice().iter_mut().enumerate() {
                *v = ((k % 7) as f32 - 3.0) * 1.5;
            }
        }
        model.refresh_prototypes().expect("refresh");
    }

    #[test]
    fn policy_quarantines_alerting_device_and_completes_the_round() {
        let (mut fleet, _) = policied_fleet(5);
        let victim = 2usize;
        poison(fleet.device_mut(victim));
        let report =
            fleet.device_mut(victim).sample_quality().expect("sample").expect("report");
        assert!(FleetPolicy::triggering_alert(&report).is_some(), "poison must alert");

        fleet.federated_round().expect("round");

        // The control step quarantined and rolled the victim back before
        // collection, so the merge stayed clean and every stage completed.
        let policy = fleet.policy().expect("policy");
        assert!(matches!(policy.health(victim), DeviceHealth::Quarantined { .. }));
        assert_eq!(policy.strikes(victim), 1);
        let summary = policy.summary();
        assert_eq!(summary.quarantines, 1);
        assert_eq!(summary.rollbacks, 1);
        assert_eq!(summary.halts, 0);
        assert_eq!(summary.rounds_completed, 1);
        let events = fleet.device(victim).log().events();
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::QuarantineEntered { strike: 1, .. })));
        assert!(events.iter().any(|e| matches!(e.kind, EventKind::RepairRollback { strike: 1 })));
        assert!(events.iter().any(|e| matches!(
            e.kind,
            EventKind::FederatedExcluded { reason: ExclusionReason::Quarantined, .. }
        )));
        for i in (0..fleet.len()).filter(|&i| i != victim) {
            assert!(
                fleet
                    .device(i)
                    .log()
                    .events()
                    .iter()
                    .any(|e| matches!(e.kind, EventKind::FederatedRound { .. })),
                "healthy device {i} must finish the staged install"
            );
        }
    }

    #[test]
    fn silent_poison_halts_the_canary_and_screening_catches_the_culprit() {
        let (mut fleet, _) = policied_fleet(5);
        // The culprit never samples its monitor: the bad weights enter
        // the merge and only the canary stage can catch them.
        let culprit = 2usize;
        poison(fleet.device_mut(culprit));

        fleet.federated_round().expect("round");

        let policy = fleet.policy().expect("policy");
        let summary = policy.summary();
        assert_eq!(summary.halts, 1, "canary must halt on the poisoned merge");
        assert_eq!(summary.rounds_halted, 1);
        assert_eq!(summary.rounds_completed, 0);
        assert_eq!(fleet.federated_rounds(), 0, "halted rounds don't count");
        assert!(
            matches!(policy.health(culprit), DeviceHealth::Quarantined { .. }),
            "screening must quarantine the silent contributor"
        );
        // Canary devices were restored and told why; devices outside the
        // canary never installed the poisoned merge.
        let canary: std::collections::BTreeSet<usize> =
            policy.plan().stage(RolloutStage::Canary).iter().copied().collect();
        for i in 0..fleet.len() {
            let halted = fleet
                .device(i)
                .log()
                .events()
                .iter()
                .any(|e| matches!(e.kind, EventKind::RolloutHalted { .. }));
            assert_eq!(halted, canary.contains(&i), "device {i}");
        }
    }

    /// Monitors in a policied fleet judge against thresholds derived from
    /// their own history once it reaches the minimum length, whichever of
    /// arming and enabling came first; without a policy the constant stays.
    #[test]
    fn policy_makes_quality_thresholds_adaptive_in_either_order() {
        use pilote_core::quality::{ADAPTIVE_MIN_HISTORY, FORGETTING_THRESHOLD};
        for (policied, arm_first) in [(false, true), (true, true), (true, false)] {
            let (deployment, mut sim, norm) = deployment();
            let cfg = FleetConfig { federated_every: 0, ..FleetConfig::default() };
            let mut fleet = Fleet::deploy(slots(2), &deployment, cfg).expect("deploy");
            let old = [Activity::Still.label(), Activity::Walk.label()];
            let monitor = QualityMonitor::new(probe_set(&mut sim, &norm), &old);
            if arm_first {
                fleet.arm_quality_monitors(&monitor).expect("arm");
            }
            if policied {
                fleet.enable_policy(deployment.clone()).expect("policy");
            }
            if !arm_first {
                fleet.arm_quality_monitors(&monitor).expect("arm");
            }
            let case = format!("policied: {policied}, armed first: {arm_first}");
            for i in 0..fleet.len() {
                let device = fleet.device_mut(i);
                assert_eq!(device.forgetting_threshold(), Some(FORGETTING_THRESHOLD), "{case}");
                // Prototype refreshes bump the generation without moving
                // the model: an all-zero forgetting history, which the
                // adaptive rule clamps to half the constant.
                while device.quality_reports().len() < ADAPTIVE_MIN_HISTORY {
                    device.model_mut().refresh_prototypes().expect("refresh");
                    device.sample_quality().expect("sample");
                }
                let want = if policied { 0.5 * FORGETTING_THRESHOLD } else { FORGETTING_THRESHOLD };
                assert_eq!(device.forgetting_threshold(), Some(want), "{case}, device {i}");
            }
        }
    }
}
