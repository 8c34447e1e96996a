//! Open-loop arrival traces for the ingestion front-end.
//!
//! A serving system is characterised by its *arrival process*, not by a
//! fixed batch of jobs: requests keep coming whether or not the cluster
//! can absorb them. This module generates deterministic open-loop
//! arrival traces — sequences of [`ArrivalEvent`]s stamped with the
//! tick they reach the submission ring — in three regimes:
//!
//! * [`ArrivalProfile::Sustained`] — a steady rate the cluster should
//!   absorb with bounded queueing;
//! * [`ArrivalProfile::Burst`] — a low base rate with periodic bursts
//!   that probe the ring's backpressure and the retry path;
//! * [`ArrivalProfile::Overload`] — a rate beyond the cluster's service
//!   capacity, where only shedding keeps sojourn times bounded.
//!
//! Rates are in **milli-jobs per tick** (1000 = one job every tick), so
//! the whole pipeline stays integer-only and bit-reproducible. The
//! trace is pure data — tick, tenant, priority, size, hold time,
//! deadline slack — with no dependency on the runtime; the ingest layer
//! maps events onto job specs.

use vlsi_prng::Prng;

/// The shape of an open-loop arrival process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArrivalProfile {
    /// A constant rate of `rate_milli` milli-jobs per tick.
    Sustained {
        /// Arrival rate in milli-jobs per tick (1000 = 1 job/tick).
        rate_milli: u64,
    },
    /// `base_milli` between bursts; every `period` ticks the rate jumps
    /// to `burst_milli` for `burst_len` ticks.
    Burst {
        /// Rate outside bursts, in milli-jobs per tick.
        base_milli: u64,
        /// Rate during a burst, in milli-jobs per tick.
        burst_milli: u64,
        /// Ticks from one burst start to the next.
        period: u64,
        /// Ticks each burst lasts.
        burst_len: u64,
    },
    /// A constant rate meant to exceed service capacity.
    Overload {
        /// Arrival rate in milli-jobs per tick.
        rate_milli: u64,
    },
}

impl ArrivalProfile {
    /// A short label for traces and bench names.
    pub fn label(&self) -> &'static str {
        match self {
            ArrivalProfile::Sustained { .. } => "sustained",
            ArrivalProfile::Burst { .. } => "burst",
            ArrivalProfile::Overload { .. } => "overload",
        }
    }

    /// The instantaneous rate at `tick`, in milli-jobs per tick.
    pub fn rate_at(&self, tick: u64) -> u64 {
        match *self {
            ArrivalProfile::Sustained { rate_milli } => rate_milli,
            ArrivalProfile::Overload { rate_milli } => rate_milli,
            ArrivalProfile::Burst {
                base_milli,
                burst_milli,
                period,
                burst_len,
            } => {
                if period > 0 && tick % period < burst_len {
                    burst_milli
                } else {
                    base_milli
                }
            }
        }
    }
}

/// One externally arriving request: pure data, mapped to a job spec by
/// the ingest layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArrivalEvent {
    /// Tick the request reaches the submission ring.
    pub at: u64,
    /// The tenant it belongs to (rate limits are per tenant).
    pub tenant: u16,
    /// Scheduling priority (higher survives degraded mode longer).
    pub priority: u8,
    /// Clusters the job will request.
    pub clusters: usize,
    /// Ticks the job holds its clusters once admitted.
    pub hold_ticks: u64,
    /// Deadline slack in ticks past `at`, if the request carries a
    /// deadline (`None` = best-effort).
    pub deadline_slack: Option<u64>,
}

/// Generates the deterministic arrival trace for `profile` over
/// `horizon` ticks, spread across `tenants` tenants. Milli-job credit
/// accumulates every tick and each full 1000 emits one event, so the
/// same `(seed, profile, horizon, tenants)` always yields the same
/// trace, event for event.
pub fn arrival_trace(
    seed: u64,
    profile: ArrivalProfile,
    horizon: u64,
    tenants: u16,
) -> Vec<ArrivalEvent> {
    let mut rng = Prng::seed_from_u64(seed ^ 0xA221_7A1E);
    let tenants = tenants.max(1);
    let mut credit_milli = 0u64;
    let mut trace = Vec::new();
    for tick in 1..=horizon {
        credit_milli += profile.rate_at(tick);
        while credit_milli >= 1000 {
            credit_milli -= 1000;
            let tenant = rng.gen_range(0..tenants);
            let priority = rng.gen_range(0..=3u8);
            let clusters = *rng
                .choose(&[1usize, 2, 2, 3, 4, 4, 6, 8])
                .expect("non-empty size table");
            let hold_ticks = rng.gen_range(2..=10u64);
            let deadline_slack = if rng.gen_bool(0.4) {
                Some(rng.gen_range(16..=64u64))
            } else {
                None
            };
            trace.push(ArrivalEvent {
                at: tick,
                tenant,
                priority,
                clusters,
                hold_ticks,
                deadline_slack,
            });
        }
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_replay_bit_identically() {
        let p = ArrivalProfile::Sustained { rate_milli: 700 };
        assert_eq!(arrival_trace(9, p, 200, 4), arrival_trace(9, p, 200, 4));
        assert_ne!(
            arrival_trace(9, p, 200, 4),
            arrival_trace(10, p, 200, 4),
            "different seeds draw different traces"
        );
    }

    #[test]
    fn sustained_rate_integrates_exactly() {
        let trace = arrival_trace(1, ArrivalProfile::Sustained { rate_milli: 250 }, 400, 2);
        // 250 milli-jobs/tick over 400 ticks = exactly 100 arrivals.
        assert_eq!(trace.len(), 100);
        assert!(trace.windows(2).all(|w| w[0].at <= w[1].at), "sorted by at");
        assert!(trace.iter().all(|e| e.tenant < 2 && e.clusters >= 1));
    }

    #[test]
    fn bursts_cluster_arrivals_inside_the_window() {
        let p = ArrivalProfile::Burst {
            base_milli: 100,
            burst_milli: 3000,
            period: 50,
            burst_len: 5,
        };
        let trace = arrival_trace(3, p, 200, 4);
        let in_burst = trace.iter().filter(|e| e.at % 50 < 6).count();
        assert!(
            in_burst * 2 > trace.len(),
            "most arrivals land in the burst windows: {in_burst}/{}",
            trace.len()
        );
    }

    #[test]
    fn overload_outpaces_sustained() {
        let slow = arrival_trace(5, ArrivalProfile::Sustained { rate_milli: 300 }, 100, 4);
        let fast = arrival_trace(5, ArrivalProfile::Overload { rate_milli: 2500 }, 100, 4);
        assert!(fast.len() > slow.len() * 5);
    }
}
