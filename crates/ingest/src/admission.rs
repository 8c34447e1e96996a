//! Overload protection: typed admission verdicts, per-tenant token
//! buckets, deadline-aware shedding, and degraded-mode hysteresis.
//!
//! Every request drained from the ring gets an explicit
//! [`AdmissionVerdict`] — accepted, shed, or rejected with a typed
//! reason — so overload is always visible in the accounting, never a
//! silent loss. The degraded-mode controller is a small hysteresis
//! loop: when backlog crosses the high-water mark the shed level rises
//! one priority class per tick (lowest classes first), and it falls
//! again only once backlog sinks below the low-water mark, so the
//! system does not flap at the boundary.

use std::collections::BTreeMap;

/// Why a request was shed (dropped deliberately, with accounting).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ShedReason {
    /// Queue sojourn estimates say the deadline cannot be met; shedding
    /// up front beats burning capacity on a job doomed to miss.
    DeadlineUnmeetable,
    /// Degraded mode is shedding this priority class (backlog crossed
    /// the high-water mark).
    Degraded,
}

impl ShedReason {
    /// A short label for telemetry and traces.
    pub fn label(&self) -> &'static str {
        match self {
            ShedReason::DeadlineUnmeetable => "deadline",
            ShedReason::Degraded => "degraded",
        }
    }
}

/// Why a request was rejected (refused before reaching the cluster).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RejectReason {
    /// The tenant's token bucket is empty.
    RateLimited,
    /// No sink underneath could take the job (no live chip large
    /// enough, or every chip is gone).
    SinkSaturated,
}

impl RejectReason {
    /// A short label for telemetry and traces.
    pub fn label(&self) -> &'static str {
        match self {
            RejectReason::RateLimited => "rate-limit",
            RejectReason::SinkSaturated => "sink",
        }
    }
}

/// The typed outcome of admitting one drained request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AdmissionVerdict {
    /// Submitted to the sink.
    Accepted,
    /// Deliberately dropped, with a reason.
    Shed(ShedReason),
    /// Refused, with a reason.
    Rejected(RejectReason),
}

/// A per-tenant token bucket in milli-tokens (1000 = one job), refilled
/// once per tick — integer-only, so rate limiting replays exactly.
#[derive(Clone, Debug)]
pub struct TokenBucket {
    level_milli: u64,
    capacity_milli: u64,
    refill_milli: u64,
}

impl TokenBucket {
    /// A bucket holding at most `burst` jobs, refilled at `rate_milli`
    /// milli-jobs per tick. Starts full. A `burst` of zero means a
    /// zero-capacity bucket: it admits nothing, ever — refills cap at
    /// the (zero) capacity, so a tenant configured to admit nothing
    /// really does admit nothing rather than being silently bumped to a
    /// one-job allowance.
    pub fn new(burst: u64, rate_milli: u64) -> TokenBucket {
        let capacity_milli = burst * 1000;
        TokenBucket {
            level_milli: capacity_milli,
            capacity_milli,
            refill_milli: rate_milli,
        }
    }

    /// One tick's refill.
    pub fn refill(&mut self) {
        self.level_milli = (self.level_milli + self.refill_milli).min(self.capacity_milli);
    }

    /// Takes one job's worth of tokens if available.
    pub fn try_take(&mut self) -> bool {
        if self.level_milli >= 1000 {
            self.level_milli -= 1000;
            true
        } else {
            false
        }
    }

    /// Current level in milli-tokens.
    pub fn level_milli(&self) -> u64 {
        self.level_milli
    }
}

/// Tunables of the admission layer.
#[derive(Clone, Debug)]
pub struct AdmissionConfig {
    /// Per-tenant refill rate in milli-jobs per tick; 0 disables rate
    /// limiting entirely (no bucket is consulted).
    pub tenant_rate_milli: u64,
    /// Per-tenant bucket capacity in whole jobs (the burst allowance).
    pub tenant_burst: u64,
    /// Backlog (ring + sink outstanding) at or above which the degraded
    /// level rises one class per tick.
    pub high_water: usize,
    /// Backlog at or below which the degraded level falls one class per
    /// tick. Must sit below `high_water` for real hysteresis.
    pub low_water: usize,
    /// Ceiling on the degraded level. With priorities 0..=3, a ceiling
    /// of 4 can shed every class.
    pub max_degraded_level: u8,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            tenant_rate_milli: 0,
            tenant_burst: 8,
            high_water: 48,
            low_water: 16,
            max_degraded_level: 4,
        }
    }
}

/// The admission controller: verdicts, buckets, and the degraded-mode
/// hysteresis state. Telemetry is the caller's job (the service owns
/// the handle); this type is pure deterministic state.
#[derive(Clone, Debug)]
pub struct AdmissionControl {
    config: AdmissionConfig,
    buckets: BTreeMap<u16, TokenBucket>,
    level: u8,
}

impl AdmissionControl {
    /// A controller with `config` and no degraded shedding active.
    pub fn new(config: AdmissionConfig) -> AdmissionControl {
        AdmissionControl {
            config,
            buckets: BTreeMap::new(),
            level: 0,
        }
    }

    /// The active degraded level: priority classes strictly below it
    /// are shed.
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Refills every tenant bucket — call once per tick, before
    /// draining the ring.
    pub fn begin_tick(&mut self) {
        for bucket in self.buckets.values_mut() {
            bucket.refill();
        }
    }

    /// Applies the hysteresis rule to the current backlog: at or above
    /// high water the level rises one class, at or below low water it
    /// falls one. Returns the new level when it changed.
    pub fn update_water(&mut self, backlog: usize) -> Option<u8> {
        let before = self.level;
        if backlog >= self.config.high_water {
            self.level = (self.level + 1).min(self.config.max_degraded_level);
        } else if backlog <= self.config.low_water {
            self.level = self.level.saturating_sub(1);
        }
        (self.level != before).then_some(self.level)
    }

    /// The pre-sink verdict for one drained request: degraded shedding
    /// first (cheapest, protects the whole system), then the tenant's
    /// token bucket, then the deadline check against `estimated_wait`
    /// ticks of queue sojourn. [`AdmissionVerdict::Accepted`] here
    /// still requires the sink to take the job.
    pub fn verdict(
        &mut self,
        tenant: u16,
        priority: u8,
        deadline: Option<u64>,
        now: u64,
        estimated_wait: u64,
    ) -> AdmissionVerdict {
        if priority < self.level {
            return AdmissionVerdict::Shed(ShedReason::Degraded);
        }
        if self.config.tenant_rate_milli > 0 {
            let bucket = self.buckets.entry(tenant).or_insert_with(|| {
                TokenBucket::new(self.config.tenant_burst, self.config.tenant_rate_milli)
            });
            if !bucket.try_take() {
                return AdmissionVerdict::Rejected(RejectReason::RateLimited);
            }
        }
        if let Some(d) = deadline {
            if now + estimated_wait > d {
                return AdmissionVerdict::Shed(ShedReason::DeadlineUnmeetable);
            }
        }
        AdmissionVerdict::Accepted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_bucket_enforces_rate_and_burst() {
        let mut b = TokenBucket::new(2, 500);
        assert!(b.try_take() && b.try_take(), "burst of 2 available");
        assert!(!b.try_take(), "bucket empty");
        b.refill();
        assert!(!b.try_take(), "500 milli is not a whole token yet");
        b.refill();
        assert!(b.try_take(), "two refills make one token");
        for _ in 0..100 {
            b.refill();
        }
        assert_eq!(b.level_milli(), 2000, "capped at the burst");
    }

    #[test]
    fn zero_burst_bucket_admits_nothing() {
        let mut b = TokenBucket::new(0, 5000);
        assert_eq!(b.level_milli(), 0, "zero-burst bucket starts empty");
        assert!(!b.try_take(), "nothing to take");
        for _ in 0..100 {
            b.refill();
        }
        assert_eq!(b.level_milli(), 0, "refill caps at the zero capacity");
        assert!(!b.try_take(), "still nothing after any number of refills");

        // And through the controller: a zero-burst tenant is rejected
        // with the typed rate-limit reason on every request.
        let mut a = AdmissionControl::new(AdmissionConfig {
            tenant_rate_milli: 1500,
            tenant_burst: 0,
            ..AdmissionConfig::default()
        });
        for _ in 0..5 {
            a.begin_tick();
            assert_eq!(
                a.verdict(3, 2, None, 1, 0),
                AdmissionVerdict::Rejected(RejectReason::RateLimited)
            );
        }
    }

    #[test]
    fn hysteresis_rises_and_falls_one_class_per_tick() {
        let mut a = AdmissionControl::new(AdmissionConfig {
            high_water: 10,
            low_water: 4,
            max_degraded_level: 3,
            ..AdmissionConfig::default()
        });
        assert_eq!(a.update_water(10), Some(1));
        assert_eq!(a.update_water(50), Some(2));
        assert_eq!(a.update_water(50), Some(3));
        assert_eq!(a.update_water(50), None, "capped at max level");
        // Between the marks: hold steady (the hysteresis band).
        assert_eq!(a.update_water(7), None);
        assert_eq!(a.level(), 3);
        assert_eq!(a.update_water(4), Some(2));
        assert_eq!(a.update_water(0), Some(1));
        assert_eq!(a.update_water(0), Some(0));
        assert_eq!(a.update_water(0), None, "floored at zero");
    }

    #[test]
    fn degraded_mode_sheds_lowest_priorities_first() {
        let mut a = AdmissionControl::new(AdmissionConfig::default());
        a.update_water(1000);
        assert_eq!(a.level(), 1);
        assert_eq!(
            a.verdict(0, 0, None, 5, 0),
            AdmissionVerdict::Shed(ShedReason::Degraded)
        );
        assert_eq!(a.verdict(0, 1, None, 5, 0), AdmissionVerdict::Accepted);
    }

    #[test]
    fn rate_limit_rejects_typed_per_tenant() {
        let mut a = AdmissionControl::new(AdmissionConfig {
            tenant_rate_milli: 1000,
            tenant_burst: 1,
            ..AdmissionConfig::default()
        });
        a.begin_tick();
        assert_eq!(a.verdict(7, 2, None, 1, 0), AdmissionVerdict::Accepted);
        assert_eq!(
            a.verdict(7, 2, None, 1, 0),
            AdmissionVerdict::Rejected(RejectReason::RateLimited)
        );
        // Another tenant has its own bucket.
        assert_eq!(a.verdict(8, 2, None, 1, 0), AdmissionVerdict::Accepted);
    }

    #[test]
    fn unmeetable_deadline_is_shed_up_front() {
        let mut a = AdmissionControl::new(AdmissionConfig::default());
        assert_eq!(
            a.verdict(0, 3, Some(20), 10, 15),
            AdmissionVerdict::Shed(ShedReason::DeadlineUnmeetable)
        );
        assert_eq!(
            a.verdict(0, 3, Some(30), 10, 15),
            AdmissionVerdict::Accepted
        );
        assert_eq!(a.verdict(0, 3, None, 10, 1000), AdmissionVerdict::Accepted);
    }
}
