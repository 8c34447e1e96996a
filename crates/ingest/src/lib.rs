//! # vlsi-ingest — service-grade ingestion with overload protection
//!
//! The runtime, fleet, and cluster layers assume a well-behaved caller:
//! jobs appear exactly when the simulation loop says so. A *service*
//! has no such luxury — submissions arrive open-loop, bursty, from many
//! tenants, while the fleet is mid-tick. This crate is the front door
//! that makes that safe without giving up determinism:
//!
//! * [`SubmissionRing`] — a fixed-capacity MPSC ring (safe Rust,
//!   seqlock-style slot sequencing). Producers enqueue concurrently;
//!   the service drains only at tick boundaries, in global enqueue
//!   order, so a run replays bit-identically from the arrival trace.
//! * [`AdmissionControl`] — typed [`AdmissionVerdict`]s: accept, shed
//!   (deadline-unmeetable, degraded mode), or reject (tenant rate
//!   limit, saturated sink). Overload is never a silent drop.
//! * [`IngestClient`] — producer-side resilience: capped exponential
//!   retry-with-backoff on [`IngestError::RingFull`], deterministic
//!   jitter, submission timeouts.
//! * [`IngestService`] — the tick-boundary drain loop in front of a
//!   [`Cluster`](vlsi_fabric::Cluster), with degraded-mode hysteresis
//!   and `ingest.*` telemetry. The sink is the [`IngestSink`] trait
//!   only so a wrapper (the benchmark's span-timing `TimedSink`) can
//!   sit in between.
//! * [`accounting`] — the exact job-conservation ledger: arrivals
//!   balance against verdicts, give-ups, and in-flight work at any
//!   instant; the chaos harness asserts it after every storm.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod client;
pub mod error;
pub mod ring;
pub mod service;

pub use admission::{
    AdmissionConfig, AdmissionControl, AdmissionVerdict, RejectReason, ShedReason, TokenBucket,
};
pub use client::{ClientConfig, ClientStats, IngestClient};
pub use error::IngestError;
pub use ring::SubmissionRing;
pub use service::{
    accounting, run_trace, spec_for_arrival, AccountingReport, IngestConfig, IngestService,
    IngestSink, IngestStats, SubmitRequest,
};
