//! The structured trace log: every decision the runtime takes, in order.
//!
//! Tests and benches assert on this log — determinism means *the whole
//! event sequence* is identical for identical seeds, not just the final
//! metrics.

use crate::job::JobId;
use vlsi_core::ProcessorId;
use vlsi_topology::Coord;

/// One timestamped runtime event.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RuntimeEvent {
    /// The runtime tick the event happened on.
    pub tick: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The event vocabulary.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EventKind {
    /// A job entered the submission queue.
    Submitted {
        /// The job.
        job: JobId,
        /// Clusters it requests.
        clusters: usize,
        /// Its priority.
        priority: u8,
    },
    /// Admission gathered clusters for a job and started it.
    Admitted {
        /// The job.
        job: JobId,
        /// The processors gathered (one per region).
        procs: Vec<ProcessorId>,
        /// Which gather attempt succeeded (1 = first try).
        attempt: u32,
        /// Whether a warm pooled processor was reused instead of
        /// gathering fresh.
        pool_hit: bool,
    },
    /// A gather attempt failed (fragmentation or pressure); the job backs
    /// off exponentially.
    GatherFailed {
        /// The job.
        job: JobId,
        /// The failed attempt number.
        attempt: u32,
        /// Tick of the next attempt.
        retry_at: u64,
    },
    /// Fragmentation stood in the way of a request the compaction plan
    /// says fits afterwards: the chip compacted, and the retry follows.
    Compacted {
        /// Processors that moved.
        moved: usize,
        /// Fragmentation before.
        frag_before_milli: u32,
        /// Fragmentation after (both in 1/1000ths, to keep events `Eq`).
        frag_after_milli: u32,
    },
    /// A job finished and released (or pooled) its clusters.
    Completed {
        /// The job.
        job: JobId,
        /// Queue wait in ticks.
        wait: u64,
        /// Submission-to-completion in ticks.
        turnaround: u64,
    },
    /// A job failed gracefully; see the paired [`JobRecord::failure`].
    ///
    /// [`JobRecord::failure`]: crate::JobRecord::failure
    Failed {
        /// The job.
        job: JobId,
        /// Short reason label (`"deadline"`, `"retries"`, `"workload"`).
        reason: &'static str,
    },
    /// A lower layer reported a hardware fault mapping to a cluster —
    /// a stuck S-topology switch or a dead NoC link/router. The runtime
    /// responds by marking the cluster defective (the paired
    /// [`DefectInjected`] event follows immediately), so the full chain
    /// *report → defect → recovery* is visible in the log.
    ///
    /// [`DefectInjected`]: EventKind::DefectInjected
    FaultReported {
        /// The cluster the fault maps to.
        coord: Coord,
        /// The reporting layer (`"s-topology"` or `"noc"`).
        layer: &'static str,
    },
    /// A cluster was marked defective (fault injection).
    DefectInjected {
        /// The cluster.
        coord: Coord,
        /// The processor whose region it hit, if any.
        victim: Option<ProcessorId>,
    },
    /// A defect hit a live processor and the runtime relocated it (state
    /// preserved) — the job continues.
    DefectRecovered {
        /// The affected job.
        job: JobId,
        /// The relocated processor.
        proc: ProcessorId,
    },
    /// A defect recovery could not relocate in place; the job went back
    /// to the queue for a fresh gather.
    Requeued {
        /// The affected job.
        job: JobId,
        /// Its attempt counter after the requeue.
        attempt: u32,
    },
    /// A completed job's processor was parked in the warm pool, asleep
    /// with a wake timer instead of released.
    Pooled {
        /// The parked processor.
        proc: ProcessorId,
        /// Its cluster count.
        clusters: usize,
        /// Ticks until the pool reclaims it.
        ttl: u64,
    },
    /// An admission woke a pooled processor instead of gathering.
    PoolWoken {
        /// The reused processor.
        proc: ProcessorId,
        /// The job that took it.
        job: JobId,
    },
    /// A pooled processor's timer expired; its clusters returned to the
    /// free pool.
    PoolReclaimed {
        /// The released processor.
        proc: ProcessorId,
    },
    /// A cluster scheduler withdrew the job from this chip to run it
    /// elsewhere (work stealing, or evacuation after a chip failure).
    MigratedOut {
        /// The withdrawn job.
        job: JobId,
        /// Why it left (`"steal"` or `"evacuate"`).
        reason: &'static str,
    },
}

impl RuntimeEvent {
    /// The job this event concerns, if any.
    pub fn job(&self) -> Option<JobId> {
        match &self.kind {
            EventKind::Submitted { job, .. }
            | EventKind::Admitted { job, .. }
            | EventKind::GatherFailed { job, .. }
            | EventKind::Completed { job, .. }
            | EventKind::Failed { job, .. }
            | EventKind::DefectRecovered { job, .. }
            | EventKind::Requeued { job, .. }
            | EventKind::PoolWoken { job, .. }
            | EventKind::MigratedOut { job, .. } => Some(*job),
            EventKind::Compacted { .. }
            | EventKind::FaultReported { .. }
            | EventKind::DefectInjected { .. }
            | EventKind::Pooled { .. }
            | EventKind::PoolReclaimed { .. } => None,
        }
    }
}
