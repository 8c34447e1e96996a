//! The ingest service: drains the submission ring at tick boundaries,
//! applies admission, and drives the sink underneath.
//!
//! One [`IngestService`] fronts one [`IngestSink`] — a [`Cluster`], or
//! a wrapper around one such as the benchmark's span-timing
//! `TimedSink` — with a fixed intra-tick order:
//!
//! 1. bucket refills ([`AdmissionControl::begin_tick`]);
//! 2. ring drain, in global enqueue order, one typed
//!    [`AdmissionVerdict`] per request (accepted requests record their
//!    sojourn — first enqueue attempt to sink submission — in the
//!    `ingest.sojourn` histogram);
//! 3. degraded-mode hysteresis against the post-drain backlog;
//! 4. one sink tick;
//! 5. service-rate EWMA update (the queue-sojourn estimate the
//!    deadline shedder uses).
//!
//! Because the drain happens only here, in ring order, and every
//! decision reads deterministic state, a run is bit-identical given
//! the same arrival trace — at any sink thread count.

use std::sync::Arc;

use vlsi_fabric::Cluster;
use vlsi_runtime::{JobSpec, Workload};
use vlsi_telemetry::TelemetryHandle;
use vlsi_workloads::ArrivalEvent;

use crate::admission::{AdmissionConfig, AdmissionControl, AdmissionVerdict, RejectReason};
use crate::client::IngestClient;
use crate::error::IngestError;
use crate::ring::SubmissionRing;

/// One request in the submission ring: the job plus the ingest-side
/// metadata admission needs.
#[derive(Clone, Debug)]
pub struct SubmitRequest {
    /// The job to submit once accepted.
    pub spec: JobSpec,
    /// Tenant for rate limiting.
    pub tenant: u16,
    /// Tick of the *first* enqueue attempt — sojourn is measured from
    /// here, so retries lengthen it honestly.
    pub first_attempt_at: u64,
}

/// What the service can feed jobs into. The one implementation here is
/// [`Cluster`]; the trait exists so a wrapper — the benchmark's
/// span-timing `TimedSink` — can sit between the service and the
/// cluster without changing either.
pub trait IngestSink {
    /// Submits a job. `false` means the sink cannot take it at all (no
    /// live chip large enough) — the service counts a typed rejection.
    fn submit_job(&mut self, spec: JobSpec) -> bool;
    /// Advances the sink one tick.
    fn tick_sink(&mut self) -> Result<(), IngestError>;
    /// Jobs queued or running inside the sink.
    fn outstanding(&self) -> usize;
    /// Jobs completed so far.
    fn completed(&self) -> u64;
    /// Jobs failed (gracefully, typed) so far.
    fn failed(&self) -> u64;
    /// Jobs lost with a typed reason. No default: a wrapper that
    /// forgot to forward it would silently unbalance the ledger.
    fn lost(&self) -> u64;
}

impl IngestSink for Cluster {
    fn submit_job(&mut self, spec: JobSpec) -> bool {
        self.submit(spec).is_some()
    }

    fn tick_sink(&mut self) -> Result<(), IngestError> {
        Ok(self.tick()?)
    }

    fn outstanding(&self) -> usize {
        Cluster::outstanding(self)
    }

    fn completed(&self) -> u64 {
        self.chips().map(|c| c.stats().completed).sum()
    }

    fn failed(&self) -> u64 {
        self.chips().map(|c| c.stats().failed).sum()
    }

    fn lost(&self) -> u64 {
        self.lost_jobs().len() as u64
    }
}

/// Tunables of the service.
#[derive(Clone, Debug)]
pub struct IngestConfig {
    /// Slots in the submission ring.
    pub ring_capacity: usize,
    /// The admission layer's tunables.
    pub admission: AdmissionConfig,
}

impl Default for IngestConfig {
    fn default() -> IngestConfig {
        IngestConfig {
            ring_capacity: 64,
            admission: AdmissionConfig::default(),
        }
    }
}

/// Service-side verdict counters. Together with the client's
/// [`ClientStats`](crate::client::ClientStats) these balance exactly —
/// see [`accounting`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Requests drained from the ring.
    pub drained: u64,
    /// Requests submitted into the sink.
    pub accepted: u64,
    /// Requests shed because their deadline was unmeetable.
    pub shed_deadline: u64,
    /// Requests shed by degraded mode.
    pub shed_degraded: u64,
    /// Requests rejected by a tenant rate limit.
    pub rejected_rate: u64,
    /// Requests the sink could not take (no live chip large enough).
    pub rejected_sink: u64,
    /// Degraded-level transitions (rises and falls).
    pub degraded_transitions: u64,
}

impl IngestStats {
    /// Every terminal verdict: accepted + shed + rejected.
    pub fn decided(&self) -> u64 {
        self.accepted
            + self.shed_deadline
            + self.shed_degraded
            + self.rejected_rate
            + self.rejected_sink
    }
}

/// The ingestion/admission service. See the [module docs](self).
pub struct IngestService<S: IngestSink> {
    sink: S,
    ring: Arc<SubmissionRing<SubmitRequest>>,
    admission: AdmissionControl,
    now: u64,
    stats: IngestStats,
    /// EWMA of sink throughput in milli-jobs per tick (shift-3 decay).
    service_rate_milli: u64,
    last_finished: u64,
    telemetry: TelemetryHandle,
}

impl<S: IngestSink> IngestService<S> {
    /// A service fronting `sink`. The `ingest.*` instruments record
    /// into `telemetry`.
    pub fn with_telemetry(
        sink: S,
        config: IngestConfig,
        telemetry: TelemetryHandle,
    ) -> IngestService<S> {
        IngestService {
            sink,
            ring: Arc::new(SubmissionRing::new(config.ring_capacity)),
            admission: AdmissionControl::new(config.admission),
            now: 0,
            stats: IngestStats::default(),
            service_rate_milli: 0,
            last_finished: 0,
            telemetry,
        }
    }

    /// [`with_telemetry`](Self::with_telemetry) without instrumentation.
    pub fn new(sink: S, config: IngestConfig) -> IngestService<S> {
        IngestService::with_telemetry(sink, config, TelemetryHandle::disabled())
    }

    /// The shared submission ring producers enqueue into.
    pub fn ring(&self) -> Arc<SubmissionRing<SubmitRequest>> {
        Arc::clone(&self.ring)
    }

    /// The sink underneath.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// The current service tick.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Service-side verdict counters.
    pub fn stats(&self) -> &IngestStats {
        &self.stats
    }

    /// The active degraded level (0 = nothing shed).
    pub fn degraded_level(&self) -> u8 {
        self.admission.level()
    }

    /// The telemetry handle the `ingest.*` instruments record into.
    pub fn telemetry(&self) -> &TelemetryHandle {
        &self.telemetry
    }

    /// Estimated queue sojourn in ticks: sink backlog over the EWMA
    /// service rate. Zero until the first completions calibrate the
    /// rate (optimistic — nothing is shed on a cold estimate).
    pub fn estimated_wait(&self) -> u64 {
        if self.service_rate_milli == 0 {
            return 0;
        }
        (self.sink.outstanding() as u64 * 1000) / self.service_rate_milli
    }

    /// Whether the ring is drained and the sink idle.
    pub fn is_idle(&self) -> bool {
        self.ring.is_empty() && self.sink.outstanding() == 0
    }

    /// Advances the service one tick. See the [module docs](self) for
    /// the fixed phase order.
    pub fn tick(&mut self) -> Result<(), IngestError> {
        self.now += 1;
        let now = self.now;
        self.admission.begin_tick();
        self.telemetry
            .gauge_set("ingest.ring_occupancy", self.ring.len() as i64);

        // Drain the ring in global enqueue order — the only place
        // requests leave the ring, so replay is bit-identical.
        let est = self.estimated_wait();
        for (_, req) in self.ring.drain() {
            self.stats.drained += 1;
            let verdict =
                self.admission
                    .verdict(req.tenant, req.spec.priority, req.spec.deadline, now, est);
            let verdict = match verdict {
                AdmissionVerdict::Accepted if !self.sink.submit_job(req.spec) => {
                    AdmissionVerdict::Rejected(RejectReason::SinkSaturated)
                }
                v => v,
            };
            match verdict {
                AdmissionVerdict::Accepted => {
                    self.stats.accepted += 1;
                    self.telemetry.count("ingest.accepted", 1);
                    self.telemetry
                        .record("ingest.sojourn", now - req.first_attempt_at);
                }
                AdmissionVerdict::Shed(reason) => {
                    match reason {
                        crate::admission::ShedReason::DeadlineUnmeetable => {
                            self.stats.shed_deadline += 1;
                            self.telemetry.count("ingest.shed.deadline", 1);
                        }
                        crate::admission::ShedReason::Degraded => {
                            self.stats.shed_degraded += 1;
                            self.telemetry.count("ingest.shed.degraded", 1);
                        }
                    };
                }
                AdmissionVerdict::Rejected(reason) => match reason {
                    RejectReason::RateLimited => {
                        self.stats.rejected_rate += 1;
                        self.telemetry.count("ingest.rejected.rate_limit", 1);
                    }
                    RejectReason::SinkSaturated => {
                        self.stats.rejected_sink += 1;
                        self.telemetry.count("ingest.rejected.sink", 1);
                    }
                },
            }
        }

        // Degraded-mode hysteresis against the post-drain backlog.
        let backlog = self.ring.len() + self.sink.outstanding();
        if let Some(level) = self.admission.update_water(backlog) {
            self.stats.degraded_transitions += 1;
            self.telemetry.count("ingest.degraded.transitions", 1);
            self.telemetry
                .gauge_set("ingest.degraded_level", level as i64);
        }

        self.sink.tick_sink()?;

        // Shift-3 EWMA of finished jobs per tick, in milli-jobs.
        let finished = self.sink.completed() + self.sink.failed() + self.sink.lost();
        let delta_milli = (finished - self.last_finished) * 1000;
        self.last_finished = finished;
        self.service_rate_milli =
            self.service_rate_milli - (self.service_rate_milli >> 3) + (delta_milli >> 3);
        Ok(())
    }
}

/// Maps an [`ArrivalEvent`] onto the job spec the sink will run: an
/// idle hold of the requested size at the event's priority, with the
/// deadline made absolute from the arrival tick.
pub fn spec_for_arrival(ev: &ArrivalEvent) -> JobSpec {
    let mut spec = JobSpec::new(
        "arrival",
        ev.clusters,
        Workload::Idle {
            ticks: ev.hold_ticks,
        },
    )
    .with_priority(ev.priority);
    if let Some(slack) = ev.deadline_slack {
        spec = spec.with_deadline(ev.at + slack);
    }
    spec
}

/// Drives a full open-loop run: each tick delivers the client's due
/// retries, then the trace's arrivals for that tick, then advances the
/// service. Returns the ticks simulated, or [`IngestError::Hung`] if
/// the system fails to drain within `max_ticks` — the bounded-progress
/// guard.
pub fn run_trace<S: IngestSink>(
    service: &mut IngestService<S>,
    client: &mut IngestClient,
    trace: &[ArrivalEvent],
    max_ticks: u64,
) -> Result<u64, IngestError> {
    let mut idx = 0usize;
    let mut ticks = 0u64;
    while idx < trace.len() || client.has_pending() || !service.is_idle() {
        if ticks >= max_ticks {
            return Err(IngestError::Hung {
                ticks,
                outstanding: (trace.len() - idx) as u64
                    + client.pending_len() as u64
                    + service.ring().len() as u64
                    + service.sink().outstanding() as u64,
            });
        }
        let t = service.now() + 1;
        client.tick(t);
        while idx < trace.len() && trace[idx].at <= t {
            let ev = &trace[idx];
            client.submit(t, ev.tenant, spec_for_arrival(ev));
            idx += 1;
        }
        service.tick()?;
        ticks += 1;
    }
    Ok(ticks)
}

/// The exact job-conservation ledger of a run — every arrival is
/// accounted for, in flight or terminally. See
/// [`is_balanced`](AccountingReport::is_balanced).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccountingReport {
    /// Client-side arrivals.
    pub arrivals: u64,
    /// Requests the client gave up on (backpressure retries exhausted
    /// or timed out).
    pub gave_up: u64,
    /// Still waiting for a client retry.
    pub in_retry: u64,
    /// Enqueued but not yet drained.
    pub in_ring: u64,
    /// Service-side verdict counters.
    pub stats: IngestStats,
    /// Queued or running inside the sink.
    pub sink_outstanding: u64,
    /// Completed inside the sink.
    pub completed: u64,
    /// Failed (typed) inside the sink.
    pub failed: u64,
    /// Lost (typed) cluster-side.
    pub lost: u64,
}

impl AccountingReport {
    /// The two conservation equations, both exact at any instant:
    ///
    /// ```text
    /// arrivals = decided + gave_up + in_retry + in_ring
    /// accepted = completed + failed + lost + sink_outstanding
    /// ```
    ///
    /// A silent loss anywhere — ring, admission, sink — breaks one of
    /// them.
    pub fn is_balanced(&self) -> bool {
        self.arrivals == self.stats.decided() + self.gave_up + self.in_retry + self.in_ring
            && self.stats.accepted
                == self.completed + self.failed + self.lost + self.sink_outstanding
    }
}

/// Snapshots the full conservation ledger for `service` and `client`.
pub fn accounting<S: IngestSink>(
    service: &IngestService<S>,
    client: &IngestClient,
) -> AccountingReport {
    let cs = client.stats();
    AccountingReport {
        arrivals: cs.arrivals,
        gave_up: cs.gave_up,
        in_retry: client.pending_len() as u64,
        in_ring: service.ring().len() as u64,
        stats: *service.stats(),
        sink_outstanding: service.sink().outstanding() as u64,
        completed: service.sink().completed(),
        failed: service.sink().failed(),
        lost: service.sink().lost(),
    }
}
