//! Typed, virtually-clocked event log for edge deployments.
//!
//! The log is a **fixed-capacity ring buffer** (see `docs/SCALING.md`):
//! an unbounded stream of events would grow per-device memory without
//! bound, so once [`EventLog::capacity`] events are retained the oldest
//! event is evicted to make room. Nothing observable is lost to eviction:
//! every `record` also folds the event into a running per-metric total
//! ([`EventLog::totals`], keyed by [`EventKind::metric_name`]), and every
//! derived count ([`EventLog::served_count`] etc.) and telemetry snapshot
//! reads those totals — so they are conserved exactly whether the ring
//! holds every event or none of them.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Why a device was excluded from a federated round's average (it still
/// received the merged model either way).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExclusionReason {
    /// The device held no support exemplars — a zero-sample model must not
    /// out-vote devices that actually hold data.
    ZeroSupport,
    /// The fleet policy quarantined the device after a quality alert
    /// (forgetting / margin collapse) — see `docs/POLICY.md`.
    Quarantined,
}

/// What happened on the device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// Model + support set installed from the cloud.
    Deployed {
        /// Bytes transferred for the one-time download.
        payload_bytes: u64,
    },
    /// One window classified.
    Inference {
        /// Predicted activity label.
        predicted: usize,
    },
    /// The drift monitor crossed its threshold.
    DriftDetected {
        /// Largest standardised feature shift observed.
        max_shift: f32,
    },
    /// An incremental update began.
    UpdateStarted {
        /// Label of the incoming class.
        new_label: usize,
        /// Samples available for it.
        samples: usize,
    },
    /// An incremental update finished.
    UpdateFinished {
        /// Label of the learned class.
        new_label: usize,
        /// Training epochs consumed.
        epochs: usize,
        /// Modeled device seconds charged to the virtual clock for the
        /// update (derived from shape-based kernel work via
        /// `DeviceProfile::seconds_for_flops` — never a host wall-clock
        /// measurement, which would make traces vary with host load).
        seconds: f64,
    },
    /// A batch of pre-extracted feature windows was classified through the
    /// batched serving path (one embedding forward + one distance kernel
    /// for the whole batch — see `docs/FLEET.md`).
    BatchServed {
        /// Windows classified in this batch.
        windows: u64,
        /// Whether the serving state had to be rebuilt: the model
        /// generation moved since the last served batch.
        cache_rebuilt: bool,
    },
    /// A federated round was applied.
    FederatedRound {
        /// Number of participating devices.
        participants: usize,
    },
    /// This device was excluded from a federated round's average — either
    /// it had no support exemplars (a zero-sample vote would previously be
    /// inflated to weight 1) or the fleet policy quarantined it. It still
    /// received the merged model.
    FederatedExcluded {
        /// Devices that did contribute to the round.
        participants: usize,
        /// Why the device was left out of the average.
        reason: ExclusionReason,
    },
    /// A cloud→edge transfer attempt failed and will be retried.
    TransferRetried {
        /// 1-based attempt number that failed.
        attempt: usize,
        /// Backoff before the next attempt, in seconds.
        backoff_seconds: f64,
    },
    /// The transfer gave up (attempts or deadline exhausted).
    TransferAborted {
        /// Attempts made before giving up.
        attempts: usize,
    },
    /// Completed windows were dropped by the assembler's quarantine.
    WindowsQuarantined {
        /// Windows quarantined during this stream call.
        windows: u64,
    },
    /// An incremental update failed and the last-good checkpoint was
    /// restored.
    UpdateRolledBack {
        /// Label of the class whose update failed.
        new_label: usize,
        /// Consecutive failures for this device so far.
        failures: u32,
    },
    /// Persistent faults exhausted the retry budget; the device fell back
    /// to the frozen pre-trained model (the paper's Pre-trained baseline).
    DegradedToPretrained {
        /// Update failures that triggered the degradation.
        failures: u32,
    },
    /// A quality-monitor threshold rule fired for this device's model (see
    /// `pilote_core::quality` and `docs/QUALITY.md`).
    AlertRaised {
        /// Stable rule name (`AlertRule::name`): `forgetting`,
        /// `margin_collapse` or `drift_spike`.
        rule: String,
        /// Model generation the measurement was taken at.
        generation: u64,
        /// The measured value that tripped the rule (forgetting score,
        /// mean margin, or worst drift ratio, per rule) — kept in the
        /// event so policy decisions are auditable from the log alone.
        value: f64,
        /// The effective threshold the value crossed (the *adapted*
        /// per-device threshold when adaptive baselines are armed, not
        /// the shared constant — see `docs/POLICY.md`).
        threshold: f64,
    },
    /// The fleet policy quarantined this device: its parameters stay out
    /// of federated averages for the next `rounds` rounds (see
    /// `docs/POLICY.md`).
    QuarantineEntered {
        /// The triggering rule name (`forgetting` or `margin_collapse`).
        rule: String,
        /// Repair-ladder strike this quarantine escalated to (1-based).
        strike: u32,
        /// Federated rounds the device will sit out.
        rounds: usize,
    },
    /// The policy released this device from quarantine after it served its
    /// excluded rounds without a fresh alert.
    QuarantineLifted {
        /// Repair-ladder strikes accumulated while quarantined.
        strikes: u32,
    },
    /// Repair step 1: the policy rolled the model back to the last
    /// alert-free checkpoint + exemplar set.
    RepairRollback {
        /// Strike that triggered the rollback (always 1 on the ladder).
        strike: u32,
    },
    /// Repair step 2: the policy reinstalled a fresh cloud deployment
    /// (parameters + exemplars) over this device's model.
    Reanchored {
        /// Bytes downloaded for the re-anchor package.
        payload_bytes: u64,
        /// Strike that triggered the re-anchor.
        strike: u32,
    },
    /// The quality monitor stamped one row of the session × task accuracy
    /// matrix (see `pilote_core::session_metrics` and `docs/METRICS.md`).
    SessionRecorded {
        /// 0-based matrix row index (session number).
        session: u64,
        /// Model generation the row was measured at.
        generation: u64,
        /// Mean accuracy over the tasks known and measured at this session
        /// (the accuracy curve's newest point; `-1.0` when none qualify).
        average_accuracy: f64,
        /// The forgetting curve's newest point (mean drop from each
        /// learned task's own best; 0 until a task is measured twice).
        forgetting: f64,
    },
    /// A staged rollout halted while this device held the new model; the
    /// device was restored to its pre-install state.
    RolloutHalted {
        /// Stage name the halt fired in (`canary`, `cohort` or `fleet`).
        stage: String,
        /// Triggering alerts observed in the stage.
        alerts: u64,
        /// Devices in the stage.
        stage_size: usize,
    },
}

impl EventKind {
    /// Stable `pilote-obs` counter name for this event kind (`edge.*`).
    pub fn metric_name(&self) -> &'static str {
        match self {
            EventKind::Deployed { .. } => "edge.deployed",
            EventKind::Inference { .. } => "edge.inference",
            EventKind::DriftDetected { .. } => "edge.drift_detected",
            EventKind::UpdateStarted { .. } => "edge.update_started",
            EventKind::UpdateFinished { .. } => "edge.update_finished",
            EventKind::BatchServed { .. } => "edge.batch_served",
            EventKind::FederatedRound { .. } => "edge.federated_round",
            // The exclusion reason is part of the bridged counter name so
            // zero-support and policy-quarantine exclusions are separable
            // in telemetry without reading event payloads.
            EventKind::FederatedExcluded { reason: ExclusionReason::ZeroSupport, .. } => {
                "edge.federated_excluded.zero_support"
            }
            EventKind::FederatedExcluded { reason: ExclusionReason::Quarantined, .. } => {
                "edge.federated_excluded.quarantined"
            }
            EventKind::TransferRetried { .. } => "edge.transfer_retried",
            EventKind::TransferAborted { .. } => "edge.transfer_aborted",
            EventKind::WindowsQuarantined { .. } => "edge.windows_quarantined",
            EventKind::UpdateRolledBack { .. } => "edge.update_rolled_back",
            EventKind::DegradedToPretrained { .. } => "edge.degraded_to_pretrained",
            EventKind::AlertRaised { .. } => "edge.alert_raised",
            EventKind::QuarantineEntered { .. } => "edge.quarantine_entered",
            EventKind::QuarantineLifted { .. } => "edge.quarantine_lifted",
            EventKind::RepairRollback { .. } => "edge.repair_rollback",
            EventKind::Reanchored { .. } => "edge.reanchored",
            EventKind::SessionRecorded { .. } => "edge.session_recorded",
            EventKind::RolloutHalted { .. } => "edge.rollout_halted",
        }
    }
}

/// One log entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Virtual device time in seconds since deployment.
    pub at_seconds: f64,
    /// What happened.
    pub kind: EventKind,
}

/// Metric contribution of one event, matching the `pilote-obs` counter
/// bridge: window events add their window count, everything else counts
/// one occurrence.
fn metric_weight(kind: &EventKind) -> u64 {
    match kind {
        EventKind::WindowsQuarantined { windows } | EventKind::BatchServed { windows, .. } => {
            *windows
        }
        _ => 1,
    }
}

/// Default number of events an [`EventLog`] retains before evicting the
/// oldest. Generous enough that the benchmark schedules never evict; the
/// large-scale fleet runner lowers it (see `docs/SCALING.md`).
pub const DEFAULT_EVENT_CAPACITY: usize = 4096;

/// A bounded event log with a virtual clock.
///
/// Retains at most [`EventLog::capacity`] recent events; older events are
/// evicted but stay folded into the running [`EventLog::totals`], which
/// every derived count and telemetry snapshot reads — eviction never
/// changes an observable total.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventLog {
    clock_seconds: f64,
    /// Maximum retained events; `0` means unbounded.
    capacity: usize,
    /// Events evicted from the ring so far.
    evicted: u64,
    /// Running per-metric totals over **every** event ever recorded
    /// (retained or evicted), keyed by [`EventKind::metric_name`].
    totals: BTreeMap<String, u64>,
    events: Vec<Event>,
}

impl Default for EventLog {
    /// Same as [`EventLog::new`].
    fn default() -> Self {
        EventLog::with_capacity(DEFAULT_EVENT_CAPACITY)
    }
}

impl EventLog {
    /// Empty log at virtual time zero with the default retention
    /// ([`DEFAULT_EVENT_CAPACITY`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty log retaining at most `capacity` events (`0` = unbounded).
    pub fn with_capacity(capacity: usize) -> Self {
        EventLog {
            clock_seconds: 0.0,
            capacity,
            evicted: 0,
            totals: BTreeMap::new(),
            events: Vec::new(),
        }
    }

    /// Maximum retained events (`0` = unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Re-bounds the ring to `capacity` (`0` = unbounded), evicting the
    /// oldest retained events immediately if the log is already over the
    /// new bound. Totals are unaffected — they cover evicted events.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        if capacity > 0 && self.events.len() > capacity {
            let excess = self.events.len() - capacity;
            self.events.drain(..excess);
            self.evicted += excess as u64;
        }
    }

    /// Events evicted from the ring so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Advances the virtual clock.
    pub fn advance(&mut self, seconds: f64) {
        assert!(seconds >= 0.0, "time flows forward");
        self.clock_seconds += seconds;
    }

    /// Current virtual time.
    pub fn now(&self) -> f64 {
        self.clock_seconds
    }

    /// Appends an event at the current virtual time, folding it into the
    /// running totals and bridging it into the `pilote-obs` registry as an
    /// `edge.*` counter (window events add their window count; every other
    /// kind counts occurrences). When the ring is at capacity the oldest
    /// retained event is evicted — its totals contribution is already
    /// banked, so no observable count changes.
    pub fn record(&mut self, kind: EventKind) {
        let weight = metric_weight(&kind);
        if pilote_obs::enabled() {
            pilote_obs::counter(kind.metric_name()).add(weight);
        }
        *self.totals.entry(kind.metric_name().to_string()).or_insert(0) += weight;
        if self.capacity > 0 && self.events.len() == self.capacity {
            self.events.remove(0);
            self.evicted += 1;
        }
        self.events.push(Event { at_seconds: self.clock_seconds, kind });
    }

    /// Retained events in order (the newest [`EventLog::capacity`] when
    /// bounded; everything ever recorded when unbounded).
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Running per-metric totals over every event ever recorded, keyed by
    /// [`EventKind::metric_name`] — conserved under ring eviction.
    pub fn totals(&self) -> &BTreeMap<String, u64> {
        &self.totals
    }

    /// Running total for one metric name, 0 when never recorded.
    pub fn total(&self, metric_name: &str) -> u64 {
        self.totals.get(metric_name).copied().unwrap_or(0)
    }

    /// Number of inference events (conserved under eviction).
    pub fn inference_count(&self) -> usize {
        self.total("edge.inference") as usize
    }

    /// Total windows classified through the batched serving path
    /// (conserved under eviction).
    pub fn served_count(&self) -> u64 {
        self.total("edge.batch_served")
    }

    /// Number of quality alerts raised (conserved under eviction).
    pub fn alert_count(&self) -> usize {
        self.total("edge.alert_raised") as usize
    }

    /// Number of completed updates (conserved under eviction).
    pub fn update_count(&self) -> usize {
        self.total("edge.update_finished") as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic_and_stamped() {
        let mut log = EventLog::new();
        log.record(EventKind::Deployed { payload_bytes: 10 });
        log.advance(5.0);
        log.record(EventKind::Inference { predicted: 2 });
        assert_eq!(log.events()[0].at_seconds, 0.0);
        assert_eq!(log.events()[1].at_seconds, 5.0);
        assert_eq!(log.now(), 5.0);
    }

    #[test]
    #[should_panic(expected = "forward")]
    fn clock_rejects_negative_steps() {
        EventLog::new().advance(-1.0);
    }

    #[test]
    fn counters_filter_by_kind() {
        let mut log = EventLog::new();
        log.record(EventKind::Inference { predicted: 0 });
        log.record(EventKind::Inference { predicted: 1 });
        log.record(EventKind::UpdateStarted { new_label: 2, samples: 30 });
        log.record(EventKind::UpdateFinished { new_label: 2, epochs: 8, seconds: 1.5 });
        assert_eq!(log.inference_count(), 2);
        assert_eq!(log.update_count(), 1);
    }

    #[test]
    fn serde_round_trip() {
        let mut log = EventLog::new();
        log.record(EventKind::DriftDetected { max_shift: 4.2 });
        let json = serde_json::to_string(&log).unwrap();
        let back: EventLog = serde_json::from_str(&json).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn rollback_and_degradation_do_not_inflate_update_count() {
        // A device that fails three updates and degrades has completed
        // ZERO updates — only UpdateFinished may count.
        let mut log = EventLog::new();
        for failures in 1..=3u32 {
            log.record(EventKind::UpdateStarted { new_label: 7, samples: 20 });
            log.record(EventKind::UpdateRolledBack { new_label: 7, failures });
        }
        log.record(EventKind::DegradedToPretrained { failures: 3 });
        assert_eq!(log.update_count(), 0);
        log.record(EventKind::UpdateFinished { new_label: 8, epochs: 4, seconds: 2.5 });
        assert_eq!(log.update_count(), 1);
    }

    #[test]
    fn fault_events_round_trip_and_bridge_to_counters() {
        let saved = pilote_obs::enabled();
        pilote_obs::set_enabled(true);
        let retried_before =
            pilote_obs::snapshot().counters.get("edge.transfer_retried").copied().unwrap_or(0);
        let quarantined_before =
            pilote_obs::snapshot().counters.get("edge.windows_quarantined").copied().unwrap_or(0);

        let mut log = EventLog::new();
        log.record(EventKind::TransferRetried { attempt: 1, backoff_seconds: 0.5 });
        log.record(EventKind::TransferRetried { attempt: 2, backoff_seconds: 1.0 });
        log.record(EventKind::TransferAborted { attempts: 2 });
        log.advance(3.0);
        log.record(EventKind::WindowsQuarantined { windows: 4 });
        log.record(EventKind::UpdateRolledBack { new_label: 5, failures: 1 });
        log.record(EventKind::DegradedToPretrained { failures: 3 });

        // Serde round-trip of the fault/telemetry event kinds.
        let json = serde_json::to_string(&log).unwrap();
        let back: EventLog = serde_json::from_str(&json).unwrap();
        assert_eq!(back, log);
        assert_eq!(back.now(), 3.0);

        // Bridged counters: retries count occurrences, quarantine counts
        // windows. Other tests in this binary may record events
        // concurrently, so assert lower bounds on the deltas.
        let snap = pilote_obs::snapshot();
        assert!(
            snap.counters.get("edge.transfer_retried").copied().unwrap_or(0) - retried_before >= 2
        );
        assert!(
            snap.counters.get("edge.windows_quarantined").copied().unwrap_or(0)
                - quarantined_before
                >= 4
        );
        pilote_obs::set_enabled(saved);
    }

    #[test]
    fn policy_events_round_trip_and_split_exclusion_counters() {
        let saved = pilote_obs::enabled();
        pilote_obs::set_enabled(true);
        let before = |name: &str| {
            pilote_obs::snapshot().counters.get(name).copied().unwrap_or(0)
        };
        let zero_before = before("edge.federated_excluded.zero_support");
        let quarantined_before = before("edge.federated_excluded.quarantined");

        let mut log = EventLog::new();
        log.record(EventKind::FederatedExcluded {
            participants: 3,
            reason: ExclusionReason::ZeroSupport,
        });
        log.record(EventKind::FederatedExcluded {
            participants: 3,
            reason: ExclusionReason::Quarantined,
        });
        log.record(EventKind::FederatedExcluded {
            participants: 2,
            reason: ExclusionReason::Quarantined,
        });
        log.record(EventKind::AlertRaised {
            rule: "margin_collapse".into(),
            generation: 4,
            value: 0.01,
            threshold: 0.05,
        });
        log.record(EventKind::QuarantineEntered {
            rule: "margin_collapse".into(),
            strike: 2,
            rounds: 2,
        });
        log.record(EventKind::Reanchored { payload_bytes: 4096, strike: 2 });
        log.record(EventKind::QuarantineLifted { strikes: 2 });
        log.record(EventKind::RolloutHalted {
            stage: "canary".into(),
            alerts: 1,
            stage_size: 2,
        });

        // Serde round-trip of every policy-facing event kind.
        let json = serde_json::to_string(&log).unwrap();
        let back: EventLog = serde_json::from_str(&json).unwrap();
        assert_eq!(back, log);

        // The exclusion reason splits the running totals and the bridged
        // counters by name.
        assert_eq!(log.total("edge.federated_excluded.zero_support"), 1);
        assert_eq!(log.total("edge.federated_excluded.quarantined"), 2);
        let snap = pilote_obs::snapshot();
        assert!(
            snap.counters.get("edge.federated_excluded.zero_support").copied().unwrap_or(0)
                - zero_before
                >= 1
        );
        assert!(
            snap.counters.get("edge.federated_excluded.quarantined").copied().unwrap_or(0)
                - quarantined_before
                >= 2
        );
        pilote_obs::set_enabled(saved);
    }

    #[test]
    fn served_count_sums_batch_windows() {
        let mut log = EventLog::new();
        log.record(EventKind::BatchServed { windows: 5, cache_rebuilt: true });
        log.record(EventKind::Inference { predicted: 1 });
        log.record(EventKind::BatchServed { windows: 3, cache_rebuilt: false });
        assert_eq!(log.served_count(), 8);
        assert_eq!(log.inference_count(), 1);
    }

    #[test]
    fn ring_evicts_oldest_but_conserves_totals() {
        let mut bounded = EventLog::with_capacity(3);
        let mut unbounded = EventLog::with_capacity(0);
        for i in 0..10 {
            let kind = if i % 2 == 0 {
                EventKind::Inference { predicted: i }
            } else {
                EventKind::BatchServed { windows: 4, cache_rebuilt: false }
            };
            bounded.record(kind.clone());
            unbounded.record(kind);
        }
        // The ring holds only the newest 3 events…
        assert_eq!(bounded.events().len(), 3);
        assert_eq!(bounded.evicted(), 7);
        assert_eq!(unbounded.events().len(), 10);
        assert_eq!(unbounded.evicted(), 0);
        // …but every observable total is conserved exactly.
        assert_eq!(bounded.totals(), unbounded.totals());
        assert_eq!(bounded.inference_count(), 5);
        assert_eq!(bounded.served_count(), 20);
        // The retained tail is the newest events, oldest first.
        assert_eq!(bounded.events()[0].kind, unbounded.events()[7].kind);
        assert_eq!(bounded.events()[2].kind, unbounded.events()[9].kind);
    }

    #[test]
    fn set_capacity_rebounds_and_evicts_immediately() {
        let mut log = EventLog::with_capacity(0);
        for i in 0..6 {
            log.record(EventKind::Inference { predicted: i });
        }
        log.set_capacity(2);
        assert_eq!(log.events().len(), 2);
        assert_eq!(log.evicted(), 4);
        assert_eq!(log.inference_count(), 6, "totals survive re-bounding");
        // Recording at the new bound keeps evicting one-for-one.
        log.record(EventKind::Inference { predicted: 6 });
        assert_eq!(log.events().len(), 2);
        assert_eq!(log.evicted(), 5);
        assert_eq!(log.inference_count(), 7);
    }

    #[test]
    fn bounded_log_serde_round_trip() {
        let mut log = EventLog::with_capacity(2);
        log.record(EventKind::Inference { predicted: 0 });
        log.advance(1.5);
        log.record(EventKind::BatchServed { windows: 3, cache_rebuilt: true });
        log.record(EventKind::AlertRaised {
            rule: "forgetting".into(),
            generation: 1,
            value: 0.2,
            threshold: 0.1,
        });
        let json = serde_json::to_string(&log).unwrap();
        let back: EventLog = serde_json::from_str(&json).unwrap();
        assert_eq!(back, log);
        assert_eq!(back.evicted(), 1);
        assert_eq!(back.capacity(), 2);
        assert_eq!(back.inference_count(), 1, "evicted totals survive the wire");
    }

    #[test]
    fn every_event_kind_has_a_unique_metric_name() {
        let kinds = [
            EventKind::Deployed { payload_bytes: 1 },
            EventKind::Inference { predicted: 0 },
            EventKind::DriftDetected { max_shift: 1.0 },
            EventKind::UpdateStarted { new_label: 0, samples: 1 },
            EventKind::UpdateFinished { new_label: 0, epochs: 1, seconds: 1.0 },
            EventKind::BatchServed { windows: 8, cache_rebuilt: true },
            EventKind::FederatedRound { participants: 2 },
            EventKind::FederatedExcluded {
                participants: 2,
                reason: ExclusionReason::ZeroSupport,
            },
            EventKind::FederatedExcluded {
                participants: 2,
                reason: ExclusionReason::Quarantined,
            },
            EventKind::TransferRetried { attempt: 1, backoff_seconds: 0.5 },
            EventKind::TransferAborted { attempts: 1 },
            EventKind::WindowsQuarantined { windows: 1 },
            EventKind::UpdateRolledBack { new_label: 0, failures: 1 },
            EventKind::DegradedToPretrained { failures: 3 },
            EventKind::AlertRaised {
                rule: "forgetting".into(),
                generation: 2,
                value: 0.2,
                threshold: 0.1,
            },
            EventKind::QuarantineEntered { rule: "forgetting".into(), strike: 1, rounds: 2 },
            EventKind::QuarantineLifted { strikes: 1 },
            EventKind::RepairRollback { strike: 1 },
            EventKind::Reanchored { payload_bytes: 1024, strike: 2 },
            EventKind::SessionRecorded {
                session: 0,
                generation: 1,
                average_accuracy: 0.9,
                forgetting: 0.0,
            },
            EventKind::RolloutHalted { stage: "canary".into(), alerts: 1, stage_size: 1 },
        ];
        let mut names: Vec<_> = kinds.iter().map(EventKind::metric_name).collect();
        assert!(names.iter().all(|n| n.starts_with("edge.")));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), kinds.len());
    }
}
