//! Client-side resilience: capped exponential retry-with-backoff on
//! ring backpressure, plus submission timeouts.
//!
//! The [`IngestClient`] is a deterministic producer harness: every
//! [`IngestError::RingFull`](crate::error::IngestError::RingFull) it
//! absorbs schedules a retry at `now + min(cap, base << attempt) +
//! jitter`, with the jitter drawn from the deterministic PRNG — so a
//! replay with the same seed backs off identically. A request that
//! exhausts its attempts or outlives its submission timeout is *given
//! up*, counted in [`ClientStats::gave_up`]; nothing ever vanishes.

use std::collections::BTreeMap;
use std::sync::Arc;

use vlsi_prng::Prng;
use vlsi_runtime::JobSpec;
use vlsi_telemetry::TelemetryHandle;

use crate::ring::SubmissionRing;
use crate::service::SubmitRequest;

/// Tunables of the retry policy.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Total enqueue attempts per request (first try included).
    pub max_attempts: u32,
    /// Base backoff delay in ticks; attempt `n` waits
    /// `min(backoff_cap, backoff_base << (n - 1))` plus jitter.
    pub backoff_base: u64,
    /// Ceiling on the exponential backoff delay.
    pub backoff_cap: u64,
    /// Ticks after the first attempt at which a still-unenqueued
    /// request is given up regardless of attempts left.
    pub timeout: u64,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            max_attempts: 5,
            backoff_base: 1,
            backoff_cap: 16,
            timeout: 64,
        }
    }
}

/// Producer-side counters; feeds the conservation ledger in
/// [`accounting`](crate::service::accounting).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Requests handed to [`IngestClient::submit`].
    pub arrivals: u64,
    /// Requests that made it into the ring (possibly after retries).
    pub enqueued: u64,
    /// Retry attempts made after backpressure.
    pub retries: u64,
    /// Requests abandoned after exhausting attempts or timing out.
    pub gave_up: u64,
}

struct PendingRetry {
    req: SubmitRequest,
    attempts: u32,
}

/// A deterministic producer with capped exponential backoff. See the
/// [module docs](self).
pub struct IngestClient {
    ring: Arc<SubmissionRing<SubmitRequest>>,
    rng: Prng,
    config: ClientConfig,
    /// Keyed by (due tick, arrival sequence): retries fire in due-tick
    /// order, arrival order breaking ties — fully deterministic.
    pending: BTreeMap<(u64, u64), PendingRetry>,
    next_seq: u64,
    stats: ClientStats,
    telemetry: TelemetryHandle,
}

impl IngestClient {
    /// A client producing into `ring`, with backoff jitter drawn from a
    /// PRNG seeded by `seed`.
    pub fn new(
        ring: Arc<SubmissionRing<SubmitRequest>>,
        seed: u64,
        config: ClientConfig,
    ) -> IngestClient {
        IngestClient::with_telemetry(ring, seed, config, TelemetryHandle::disabled())
    }

    /// [`new`](Self::new) with the client-side `ingest.*` counters
    /// recording into `telemetry`.
    pub fn with_telemetry(
        ring: Arc<SubmissionRing<SubmitRequest>>,
        seed: u64,
        config: ClientConfig,
        telemetry: TelemetryHandle,
    ) -> IngestClient {
        IngestClient {
            ring,
            rng: Prng::seed_from_u64(seed ^ 0xC11E_57A7),
            config,
            pending: BTreeMap::new(),
            next_seq: 0,
            stats: ClientStats::default(),
            telemetry,
        }
    }

    /// Producer-side counters.
    pub fn stats(&self) -> &ClientStats {
        &self.stats
    }

    /// Whether any requests are waiting on a retry.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Requests waiting on a retry.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Submits one request at tick `now`: tries the ring immediately,
    /// scheduling a backoff retry on [`RingFull`] backpressure. Returns
    /// whether the request landed in the ring on this first attempt.
    ///
    /// [`RingFull`]: crate::error::IngestError::RingFull
    pub fn submit(&mut self, now: u64, tenant: u16, spec: JobSpec) -> bool {
        self.stats.arrivals += 1;
        self.telemetry.count("ingest.arrivals", 1);
        let req = SubmitRequest {
            spec,
            tenant,
            first_attempt_at: now,
        };
        self.try_enqueue(now, req, 1)
    }

    /// Fires every retry due at or before `now`, in (due, arrival)
    /// order. Call once per tick, before delivering new arrivals.
    pub fn tick(&mut self, now: u64) {
        while let Some(entry) = self.pending.first_entry() {
            if entry.key().0 > now {
                break;
            }
            let p = entry.remove();
            self.stats.retries += 1;
            self.telemetry.count("ingest.retries", 1);
            self.try_enqueue(now, p.req, p.attempts + 1);
        }
    }

    /// One enqueue attempt. On backpressure, either schedules the next
    /// retry or gives up — attempts exhausted, or the submission
    /// timeout elapsed since the first attempt.
    fn try_enqueue(&mut self, now: u64, req: SubmitRequest, attempts: u32) -> bool {
        match self.ring.try_push(req.clone()) {
            Ok(_) => {
                self.stats.enqueued += 1;
                self.telemetry.count("ingest.enqueued", 1);
                true
            }
            Err(_) => {
                let timed_out = now.saturating_sub(req.first_attempt_at) >= self.config.timeout;
                if attempts >= self.config.max_attempts || timed_out {
                    self.stats.gave_up += 1;
                    self.telemetry.count("ingest.gave_up", 1);
                    return false;
                }
                let shift = (attempts - 1).min(63);
                let delay = self
                    .config
                    .backoff_cap
                    .min(self.config.backoff_base << shift)
                    .max(1);
                let jitter = self.rng.gen_range(0..=delay / 2);
                let due = now + delay + jitter;
                let seq = self.next_seq;
                self.next_seq += 1;
                self.pending
                    .insert((due, seq), PendingRetry { req, attempts });
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_runtime::Workload;

    fn spec() -> JobSpec {
        JobSpec::new("t", 1, Workload::Idle { ticks: 1 })
    }

    fn tiny_ring() -> Arc<SubmissionRing<SubmitRequest>> {
        let ring = Arc::new(SubmissionRing::new(1));
        ring.try_push(SubmitRequest {
            spec: spec(),
            tenant: 0,
            first_attempt_at: 0,
        })
        .unwrap();
        ring
    }

    #[test]
    fn backpressure_schedules_capped_backoff_retries() {
        let ring = tiny_ring();
        let mut client = IngestClient::new(
            Arc::clone(&ring),
            7,
            ClientConfig {
                max_attempts: 3,
                backoff_base: 2,
                backoff_cap: 4,
                timeout: 1000,
            },
        );
        assert!(!client.submit(1, 0, spec()), "ring full: first try fails");
        assert_eq!(client.pending_len(), 1);
        // Drive ticks until the retry chain resolves; ring stays full,
        // so after 3 attempts the request is given up.
        for t in 2..40 {
            client.tick(t);
        }
        assert_eq!(client.stats().gave_up, 1);
        assert_eq!(client.stats().retries, 2, "attempts 2 and 3 were retries");
        assert!(!client.has_pending());
    }

    #[test]
    fn retry_succeeds_once_ring_drains() {
        let ring = tiny_ring();
        let mut client = IngestClient::new(Arc::clone(&ring), 7, ClientConfig::default());
        assert!(!client.submit(1, 0, spec()));
        ring.drain();
        for t in 2..40 {
            client.tick(t);
            if client.stats().enqueued == 1 {
                break;
            }
        }
        assert_eq!(client.stats().enqueued, 1);
        assert_eq!(client.stats().gave_up, 0);
        assert!(!client.has_pending());
        assert_eq!(ring.len(), 1);
    }

    #[test]
    fn timeout_gives_up_before_attempts_exhaust() {
        let ring = tiny_ring();
        let mut client = IngestClient::new(
            Arc::clone(&ring),
            7,
            ClientConfig {
                max_attempts: 100,
                backoff_base: 1,
                backoff_cap: 2,
                timeout: 5,
            },
        );
        assert!(!client.submit(1, 0, spec()));
        for t in 2..40 {
            client.tick(t);
        }
        assert_eq!(client.stats().gave_up, 1);
        assert!(!client.has_pending());
    }

    #[test]
    fn backoff_schedule_replays_per_seed() {
        let trace = |seed: u64| {
            let ring = tiny_ring();
            let mut client = IngestClient::new(
                Arc::clone(&ring),
                seed,
                ClientConfig {
                    max_attempts: 6,
                    ..ClientConfig::default()
                },
            );
            client.submit(1, 0, spec());
            let mut fired = Vec::new();
            for t in 2..200 {
                let before = client.stats().retries;
                client.tick(t);
                if client.stats().retries > before {
                    fired.push(t);
                }
            }
            fired
        };
        assert_eq!(trace(42), trace(42), "same seed, same backoff schedule");
        assert_ne!(trace(42), trace(43), "jitter differs across seeds");
    }
}
