//! Pluggable scheduling policies.
//!
//! A policy only *orders* admission: it picks which queued job the
//! runtime should try to gather next. The runtime owns everything else —
//! backoff, compaction, retries — so policies stay tiny and Ablation I
//! (`tests/ablations.rs`) compares pure ordering effects.

use crate::job::JobId;

/// What a policy sees about one queued job.
#[derive(Clone, Copy, Debug)]
pub struct QueuedJob {
    /// The job.
    pub id: JobId,
    /// Clusters it requests.
    pub clusters: usize,
    /// Its priority (higher = more urgent).
    pub priority: u8,
    /// Tick it was submitted.
    pub submitted_at: u64,
    /// Earliest tick its next admission attempt may run (backoff).
    pub next_attempt_at: u64,
    /// Its deadline, if any.
    pub deadline: Option<u64>,
}

impl QueuedJob {
    /// Whether the job's backoff window has passed.
    pub fn ready(&self, now: u64) -> bool {
        self.next_attempt_at <= now
    }
}

/// A scheduling policy: picks the next queued job to try admitting.
///
/// `Send` is a supertrait so a boxed policy — and therefore a whole
/// [`Runtime`](crate::Runtime) — can move to a worker thread; a
/// multi-chip cluster ticks its chips on a pool. The shipped
/// policies are all stateless unit structs, so this costs nothing.
pub trait SchedPolicy: Send {
    /// The policy's name (for traces and tables).
    fn name(&self) -> &'static str;

    /// The index into `queue` (submission order) of the job to try next,
    /// or `None` to admit nothing this tick. `free` is the chip's current
    /// free-cluster count; `now` the current tick. Jobs whose backoff has
    /// not expired (`!q.ready(now)`) must not be picked.
    fn pick(&self, queue: &[QueuedJob], free: usize, now: u64) -> Option<usize>;
}

/// First-in first-out, with head-of-line blocking: the oldest job admits
/// first, and nothing overtakes it — if the head does not fit, everyone
/// waits. The baseline (and fairness-preserving) policy.
#[derive(Clone, Copy, Default, Debug)]
pub struct Fifo;

impl SchedPolicy for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn pick(&self, queue: &[QueuedJob], free: usize, now: u64) -> Option<usize> {
        let (i, head) = queue
            .iter()
            .enumerate()
            .min_by_key(|(_, q)| (q.submitted_at, q.id))?;
        (head.ready(now) && head.clusters <= free).then_some(i)
    }
}

/// Strict priority: the highest-priority ready job admits first (FIFO
/// within a priority level). Does not bypass a blocked high-priority job
/// — capacity is held for it.
#[derive(Clone, Copy, Default, Debug)]
pub struct Priority;

impl SchedPolicy for Priority {
    fn name(&self) -> &'static str {
        "priority"
    }

    fn pick(&self, queue: &[QueuedJob], free: usize, now: u64) -> Option<usize> {
        let (i, best) = queue
            .iter()
            .enumerate()
            .filter(|(_, q)| q.ready(now))
            .min_by_key(|(_, q)| (std::cmp::Reverse(q.priority), q.submitted_at, q.id))?;
        (best.clusters <= free).then_some(i)
    }
}

/// Smallest-fit backfill: among ready jobs that fit the free space right
/// now, admit the smallest request (earliest submission breaks ties).
/// Maximises packing and throughput; can starve large jobs under
/// sustained small-job load — exactly the trade-off Ablation I measures.
#[derive(Clone, Copy, Default, Debug)]
pub struct SmallestFitBackfill;

impl SchedPolicy for SmallestFitBackfill {
    fn name(&self) -> &'static str {
        "backfill"
    }

    fn pick(&self, queue: &[QueuedJob], free: usize, now: u64) -> Option<usize> {
        queue
            .iter()
            .enumerate()
            .filter(|(_, q)| q.ready(now) && q.clusters <= free)
            .min_by_key(|(_, q)| (q.clusters, q.submitted_at, q.id))
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(id: u64, clusters: usize, priority: u8, submitted: u64) -> QueuedJob {
        QueuedJob {
            id: JobId(id),
            clusters,
            priority,
            submitted_at: submitted,
            next_attempt_at: 0,
            deadline: None,
        }
    }

    #[test]
    fn fifo_blocks_behind_head() {
        let queue = [q(0, 10, 0, 0), q(1, 2, 5, 1)];
        let p = Fifo;
        assert_eq!(p.pick(&queue, 16, 5), Some(0));
        // Head does not fit: nothing admits, even though job 1 would.
        assert_eq!(p.pick(&queue, 4, 5), None);
    }

    #[test]
    fn priority_orders_by_priority_then_age() {
        let queue = [q(0, 4, 1, 0), q(1, 4, 7, 1), q(2, 4, 7, 2)];
        let p = Priority;
        assert_eq!(p.pick(&queue, 16, 5), Some(1), "highest prio, oldest");
        // The high-priority job not fitting blocks the rest.
        let queue = [q(0, 2, 1, 0), q(1, 12, 7, 1)];
        assert_eq!(p.pick(&queue, 4, 5), None);
    }

    #[test]
    fn backfill_picks_smallest_fitting() {
        let queue = [q(0, 10, 0, 0), q(1, 3, 0, 1), q(2, 2, 0, 2)];
        let p = SmallestFitBackfill;
        assert_eq!(p.pick(&queue, 4, 5), Some(2));
        assert_eq!(
            p.pick(&queue, 16, 5),
            Some(2),
            "smallest wins even when all fit"
        );
        assert_eq!(p.pick(&queue, 1, 5), None);
    }

    #[test]
    fn backoff_respected_by_all() {
        let mut job = q(0, 2, 9, 0);
        job.next_attempt_at = 100;
        let queue = [job];
        assert_eq!(Fifo.pick(&queue, 16, 50), None);
        assert_eq!(Priority.pick(&queue, 16, 50), None);
        assert_eq!(SmallestFitBackfill.pick(&queue, 16, 50), None);
        assert_eq!(Fifo.pick(&queue, 16, 100), Some(0));
    }
}
