//! Service-layer observability: admission outcomes, WAL fsync and ack
//! latency histograms, and the one-call bundle that wires a recorder
//! through every layer of the daemon (service → federation → shard
//! engines) against a single registry.
//!
//! Latency histograms here measure *wall-clock* durations — the one
//! place in the stack where real time is a legitimate observable,
//! because the daemon's fsyncs and acks happen in real time. The
//! scheduling layers below record only virtual-time-keyed facts. Either
//! way the registry is observe-only: nothing in it feeds back into
//! admission, routing, or scheduling decisions.

use std::sync::Arc;
use std::time::Duration;

use ecosched_engine::{EngineIds, EngineObs};
use ecosched_federation::{FedIds, FederationObs};
use ecosched_obs::{Buckets, CounterId, GaugeId, HistogramId, Recorder, RegistryBuilder};

use crate::protocol::RejectReason;

/// The registry's canonical label value for each rejection reason, in a
/// fixed order so the typed counters can live in a dense array.
pub const REJECT_REASONS: [&str; 6] = [
    "malformed",
    "backlog_full",
    "budget_infeasible",
    "deadline_infeasible",
    "beyond_horizon",
    "shutting_down",
];

/// Index of a [`RejectReason`] into [`REJECT_REASONS`].
#[must_use]
pub fn reason_index(reason: &RejectReason) -> usize {
    match reason {
        RejectReason::Malformed { .. } => 0,
        RejectReason::BacklogFull { .. } => 1,
        RejectReason::BudgetInfeasible { .. } => 2,
        RejectReason::DeadlineInfeasible { .. } => 3,
        RejectReason::BeyondHorizon { .. } => 4,
        RejectReason::ShuttingDown => 5,
    }
}

/// Dense metric ids for the service layer, registered at startup.
#[derive(Debug, Clone)]
pub struct ServiceIds {
    /// `ecosched_service_submissions_total` — every submit attempt.
    pub submissions: CounterId,
    /// `ecosched_service_accepted_total`.
    pub accepted: CounterId,
    /// `ecosched_service_rejected_total{reason=...}`, indexed by
    /// [`reason_index`].
    pub rejected: [CounterId; 6],
    /// `ecosched_service_wal_commits_total` — group-commit fsyncs.
    pub wal_commits: CounterId,
    /// `ecosched_service_snapshots_total`.
    pub snapshots: CounterId,
    /// `ecosched_service_wal_fsync_us` — observed once per staged entry
    /// (the commit's fsync duration attributed to each entry it made
    /// durable), so its count equals the accepted counter.
    pub wal_fsync_us: HistogramId,
    /// `ecosched_service_ack_us` — serve-loop batch intake to ack send.
    pub ack_us: HistogramId,
    /// `ecosched_service_snapshot_write_us` — one observation per rotated
    /// snapshot (encode, write and fsync), so its count equals the
    /// snapshots counter.
    pub snapshot_write_us: HistogramId,
    /// `ecosched_service_snapshot_bytes` gauge — the newest snapshot's
    /// size.
    pub snapshot_bytes: GaugeId,
    /// `ecosched_service_backlog` gauge.
    pub backlog: GaugeId,
    /// `ecosched_service_virtual_time` gauge.
    pub virtual_time: GaugeId,
}

impl ServiceIds {
    /// Registers the service metric family.
    #[must_use]
    pub fn register(b: &mut RegistryBuilder) -> Self {
        let rejected = REJECT_REASONS.map(|reason| {
            b.counter_with(
                "ecosched_service_rejected_total",
                "Submissions rejected by admission control, by typed reason",
                &[("reason", reason)],
            )
        });
        ServiceIds {
            submissions: b.counter(
                "ecosched_service_submissions_total",
                "Submit requests handled (accepted plus rejected)",
            ),
            accepted: b.counter(
                "ecosched_service_accepted_total",
                "Submissions admitted, routed, and staged for commit",
            ),
            rejected,
            wal_commits: b.counter(
                "ecosched_service_wal_commits_total",
                "Group commits fsynced to the write-ahead log",
            ),
            snapshots: b.counter(
                "ecosched_service_snapshots_total",
                "Rotated snapshots written",
            ),
            wal_fsync_us: b.histogram(
                "ecosched_service_wal_fsync_us",
                "WAL group-commit fsync latency in microseconds, one observation \
                 per entry made durable",
                Buckets::pow2(1, 20),
            ),
            ack_us: b.histogram(
                "ecosched_service_ack_us",
                "Serve-loop latency from batch intake to acknowledgement send, \
                 in microseconds",
                Buckets::pow2(1, 20),
            ),
            snapshot_write_us: b.histogram(
                "ecosched_service_snapshot_write_us",
                "Rotated snapshot encode, write and fsync wall time in microseconds",
                Buckets::pow2(1, 24),
            ),
            snapshot_bytes: b.gauge(
                "ecosched_service_snapshot_bytes",
                "Size in bytes of the newest rotated snapshot",
            ),
            backlog: b.gauge(
                "ecosched_service_backlog",
                "Pending plus leased jobs across all shards",
            ),
            virtual_time: b.gauge(
                "ecosched_service_virtual_time",
                "Latest merged-log virtual tick the session has reached",
            ),
        }
    }
}

#[derive(Debug)]
struct ServiceObsInner {
    rec: Recorder,
    ids: ServiceIds,
}

/// An optional service recorder handle: runtime state, never serialized,
/// a no-op when off — the same shape as the engine and federation
/// handles.
#[derive(Debug, Clone, Default)]
pub struct ServiceObs {
    inner: Option<Arc<ServiceObsInner>>,
}

impl ServiceObs {
    /// A disabled handle; every call is a no-op.
    #[must_use]
    pub fn off() -> Self {
        ServiceObs { inner: None }
    }

    /// A live handle. Degrades to [`off`](Self::off) when the recorder
    /// itself is off.
    #[must_use]
    pub fn new(rec: Recorder, ids: ServiceIds) -> Self {
        if !rec.is_on() {
            return ServiceObs::off();
        }
        ServiceObs {
            inner: Some(Arc::new(ServiceObsInner { rec, ids })),
        }
    }

    /// Whether recording is live.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// The underlying recorder, when live.
    #[must_use]
    pub fn recorder(&self) -> Option<&Recorder> {
        self.inner.as_ref().map(|i| &i.rec)
    }

    /// One submit attempt arrived.
    pub fn on_submission(&self) {
        if let Some(i) = self.inner.as_deref() {
            i.rec.inc(i.ids.submissions);
        }
    }

    /// A submission was admitted and staged.
    pub fn on_accept(&self) {
        if let Some(i) = self.inner.as_deref() {
            i.rec.inc(i.ids.accepted);
        }
    }

    /// A submission was rejected.
    pub fn on_reject(&self, reason: &RejectReason) {
        if let Some(i) = self.inner.as_deref() {
            i.rec.inc(i.ids.rejected[reason_index(reason)]);
        }
    }

    /// One group commit fsynced `staged` entries in `fsync` wall time.
    /// The duration is attributed to every entry it made durable, so the
    /// fsync histogram's count tracks the accepted counter exactly.
    pub fn on_commit(&self, staged: usize, fsync: Duration) {
        let Some(i) = self.inner.as_deref() else {
            return;
        };
        if staged == 0 {
            return;
        }
        i.rec.inc(i.ids.wal_commits);
        let us = fsync.as_micros().min(u128::from(u64::MAX)) as u64;
        for _ in 0..staged {
            i.rec.observe(i.ids.wal_fsync_us, us);
        }
    }

    /// A rotated snapshot of `bytes` bytes was written in `write` wall
    /// time (encode, write and fsync).
    pub fn on_snapshot(&self, bytes: u64, write: Duration) {
        if let Some(i) = self.inner.as_deref() {
            i.rec.inc(i.ids.snapshots);
            i.rec.set(i.ids.snapshot_bytes, bytes as f64);
            let us = write.as_micros().min(u128::from(u64::MAX)) as u64;
            i.rec.observe(i.ids.snapshot_write_us, us);
        }
    }

    /// One acknowledgement left the serve loop `elapsed` after its batch
    /// was taken off the channel.
    pub fn observe_ack(&self, elapsed: Duration) {
        if let Some(i) = self.inner.as_deref() {
            let us = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
            i.rec.observe(i.ids.ack_us, us);
        }
    }

    /// Refreshes the session progress gauges.
    pub fn set_progress(&self, backlog: usize, virtual_time: i64) {
        if let Some(i) = self.inner.as_deref() {
            i.rec.set(i.ids.backlog, backlog as f64);
            i.rec.set(i.ids.virtual_time, virtual_time as f64);
        }
    }

    /// The `/healthz` answer: a single JSON object summarizing liveness
    /// from the registry's own counters and gauges.
    #[must_use]
    pub fn health_json(&self) -> String {
        let Some(i) = self.inner.as_deref() else {
            return "{\"status\":\"ok\",\"metrics\":false}".to_string();
        };
        let Some(reg) = i.rec.registry() else {
            return "{\"status\":\"ok\",\"metrics\":false}".to_string();
        };
        let rejected: u64 = i.ids.rejected.iter().map(|&id| reg.counter_value(id)).sum();
        format!(
            "{{\"status\":\"ok\",\"metrics\":true,\"virtual_time\":{},\"backlog\":{},\
             \"submissions\":{},\"accepted\":{},\"rejected\":{}}}",
            reg.gauge_value(i.ids.virtual_time) as i64,
            reg.gauge_value(i.ids.backlog) as i64,
            reg.counter_value(i.ids.submissions),
            reg.counter_value(i.ids.accepted),
            rejected,
        )
    }
}

/// Every observability handle the daemon needs, wired to one registry.
#[derive(Debug, Clone)]
pub struct ServiceObsBundle {
    /// The shared recorder (hand this to the metrics listener).
    pub recorder: Recorder,
    /// The service-layer handle.
    pub service: ServiceObs,
    /// The federation-layer handle.
    pub federation: FederationObs,
    /// One engine handle per shard, in shard order.
    pub shards: Vec<EngineObs>,
}

/// Builds a fresh registry carrying the full service → federation →
/// engine metric family for `shards` shards, and returns live handles
/// for every layer.
#[must_use]
pub fn build_service_obs(shards: usize) -> ServiceObsBundle {
    let mut b = RegistryBuilder::new();
    let service_ids = ServiceIds::register(&mut b);
    let fed_ids = FedIds::register(&mut b, shards);
    let shard_ids: Vec<EngineIds> = (0..shards)
        .map(|s| EngineIds::register(&mut b, Some(s as u32)))
        .collect();
    let recorder = Recorder::new(b.build());
    ServiceObsBundle {
        service: ServiceObs::new(recorder.clone(), service_ids),
        federation: FederationObs::new(recorder.clone(), fed_ids),
        shards: shard_ids
            .into_iter()
            .map(|ids| EngineObs::new(recorder.clone(), ids))
            .collect(),
        recorder,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reason_indices_cover_every_variant() {
        let reasons = [
            RejectReason::Malformed { detail: "x".into() },
            RejectReason::BacklogFull {
                backlog: 1,
                limit: 1,
            },
            RejectReason::BudgetInfeasible {
                needed_nodes: 1,
                eligible_nodes: 0,
            },
            RejectReason::DeadlineInfeasible {
                deadline: 0,
                earliest_finish: 1,
            },
            RejectReason::BeyondHorizon {
                time: 0,
                horizon: 1,
            },
            RejectReason::ShuttingDown,
        ];
        let mut seen = [false; 6];
        for reason in &reasons {
            seen[reason_index(reason)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn fsync_histogram_count_tracks_accepted() {
        let bundle = build_service_obs(1);
        let obs = &bundle.service;
        for _ in 0..5 {
            obs.on_submission();
            obs.on_accept();
        }
        obs.on_commit(3, Duration::from_micros(120));
        obs.on_commit(2, Duration::from_micros(80));
        obs.on_commit(0, Duration::from_micros(999));
        let reg = bundle.recorder.registry().expect("recorder on");
        let accepted = reg
            .find_counter("ecosched_service_accepted_total", &[])
            .expect("registered");
        let fsync = reg
            .find_histogram("ecosched_service_wal_fsync_us", &[])
            .expect("registered");
        assert_eq!(reg.counter_value(accepted), 5);
        assert_eq!(reg.histogram_count(fsync), 5);
        let commits = reg
            .find_counter("ecosched_service_wal_commits_total", &[])
            .expect("registered");
        assert_eq!(reg.counter_value(commits), 2, "empty commits don't count");
    }

    #[test]
    fn snapshot_histogram_count_tracks_snapshots() {
        let bundle = build_service_obs(1);
        let obs = &bundle.service;
        obs.on_snapshot(4_000, Duration::from_micros(300));
        obs.on_snapshot(1_500, Duration::from_millis(40));
        let reg = bundle.recorder.registry().expect("recorder on");
        let snapshots = reg
            .find_counter("ecosched_service_snapshots_total", &[])
            .expect("registered");
        let write = reg
            .find_histogram("ecosched_service_snapshot_write_us", &[])
            .expect("registered");
        let bytes = reg
            .find_gauge("ecosched_service_snapshot_bytes", &[])
            .expect("registered");
        assert_eq!(reg.counter_value(snapshots), 2);
        assert_eq!(reg.histogram_count(write), 2);
        assert_eq!(reg.gauge_value(bytes), 1_500.0, "the newest size");
    }

    #[test]
    fn health_json_reflects_counters() {
        let bundle = build_service_obs(1);
        bundle.service.on_submission();
        bundle.service.on_accept();
        bundle.service.set_progress(7, 1234);
        let health = bundle.service.health_json();
        assert!(health.contains("\"accepted\":1"));
        assert!(health.contains("\"backlog\":7"));
        assert!(health.contains("\"virtual_time\":1234"));
        assert!(ServiceObs::off()
            .health_json()
            .contains("\"metrics\":false"));
    }
}
