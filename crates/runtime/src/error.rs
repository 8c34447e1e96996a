//! Typed failures of the runtime layer.

use crate::job::JobId;
use std::fmt;
use vlsi_core::CoreError;

/// Errors raised by the runtime (and recorded on failed jobs).
#[derive(Clone, PartialEq, Debug)]
pub enum RuntimeError {
    /// The request can never fit: it exceeds the chip's usable clusters.
    TooLarge {
        /// The job.
        job: JobId,
        /// Clusters requested.
        requested: usize,
        /// Usable clusters on the chip (total minus defects).
        capacity: usize,
    },
    /// Admission kept failing; the retry budget ran out.
    RetriesExhausted {
        /// The job.
        job: JobId,
        /// Gather attempts made.
        attempts: u32,
    },
    /// The job finished after its deadline (or the deadline passed while
    /// it was still queued).
    DeadlineMissed {
        /// The job.
        job: JobId,
        /// The deadline it carried.
        deadline: u64,
        /// The tick it actually finished (or was abandoned).
        finished: u64,
    },
    /// The workload executed but produced wrong output (reference
    /// mismatch) or could not run.
    Workload {
        /// The job.
        job: JobId,
        /// What went wrong.
        detail: WorkloadDetail,
    },
    /// No such job.
    UnknownJob(JobId),
    /// The simulation ran past its tick budget without draining.
    Hung {
        /// Ticks simulated before giving up.
        ticks: u64,
        /// Jobs still queued or running.
        outstanding: usize,
    },
    /// A chip-layer operation failed unrecoverably.
    Core(CoreError),
}

/// What a [`RuntimeError::Workload`] reports.
#[derive(Clone, PartialEq, Debug)]
pub enum WorkloadDetail {
    /// A staged job ran, and one dataset's outputs differ from the
    /// reference the front end handed down.
    StagedMismatch {
        /// Index of the dataset in the job's batch.
        dataset: usize,
        /// What the chip computed.
        got: Vec<i64>,
        /// What the reference says.
        expected: Vec<i64>,
    },
    /// The job requests zero clusters.
    ZeroClusters,
    /// The chip refused to run the workload; the cause is also the
    /// error's [`std::error::Error::source`].
    Chip(CoreError),
}

impl fmt::Display for WorkloadDetail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadDetail::StagedMismatch {
                dataset,
                got,
                expected,
            } => write!(
                f,
                "staged dataset {dataset}: output {got:?}, reference says {expected:?}"
            ),
            WorkloadDetail::ZeroClusters => f.write_str("job requests zero clusters"),
            WorkloadDetail::Chip(cause) => write!(f, "{cause}"),
        }
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::TooLarge {
                job,
                requested,
                capacity,
            } => write!(
                f,
                "{job}: requests {requested} clusters but the chip has only {capacity} usable"
            ),
            RuntimeError::RetriesExhausted { job, attempts } => {
                write!(f, "{job}: admission failed after {attempts} attempts")
            }
            RuntimeError::DeadlineMissed {
                job,
                deadline,
                finished,
            } => write!(f, "{job}: deadline {deadline} missed (finished {finished})"),
            RuntimeError::Workload { job, detail, .. } => {
                write!(f, "{job}: workload error: {detail}")
            }
            RuntimeError::UnknownJob(job) => write!(f, "unknown job {job}"),
            RuntimeError::Hung { ticks, outstanding } => write!(
                f,
                "runtime did not drain within {ticks} ticks ({outstanding} jobs outstanding)"
            ),
            RuntimeError::Core(e) => write!(f, "chip error: {e}"),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Workload {
                detail: WorkloadDetail::Chip(e),
                ..
            }
            | RuntimeError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for RuntimeError {
    fn from(e: CoreError) -> RuntimeError {
        RuntimeError::Core(e)
    }
}

impl RuntimeError {
    /// Dataset `dataset` of staged job `job` came out as `got` where the
    /// reference says `expected`.
    pub(crate) fn staged_mismatch(
        job: JobId,
        dataset: usize,
        got: &[i64],
        expected: &[i64],
    ) -> RuntimeError {
        RuntimeError::Workload {
            job,
            detail: WorkloadDetail::StagedMismatch {
                dataset,
                got: got.to_vec(),
                expected: expected.to_vec(),
            },
        }
    }

    /// A workload failure caused by a chip-layer error, carried typed.
    pub(crate) fn workload_from(job: JobId, cause: CoreError) -> RuntimeError {
        RuntimeError::Workload {
            job,
            detail: WorkloadDetail::Chip(cause),
        }
    }

    /// The short label used in [`EventKind::Failed`].
    ///
    /// [`EventKind::Failed`]: crate::EventKind::Failed
    pub fn reason(&self) -> &'static str {
        match self {
            RuntimeError::TooLarge { .. } => "too-large",
            RuntimeError::RetriesExhausted { .. } => "retries",
            RuntimeError::DeadlineMissed { .. } => "deadline",
            RuntimeError::Workload { .. } => "workload",
            RuntimeError::UnknownJob(_) => "unknown",
            RuntimeError::Hung { .. } => "hung",
            RuntimeError::Core(_) => "core",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn workload_failures_carry_their_chip_cause_typed() {
        let cause = CoreError::CannotFuse;
        let err = RuntimeError::workload_from(JobId(3), cause.clone());
        // Text and label are what the stringly version produced.
        assert_eq!(err.to_string(), format!("job3: workload error: {cause}"));
        assert_eq!(err.reason(), "workload");
        let source = err.source().expect("a chip cause is a source");
        assert_eq!(source.downcast_ref::<CoreError>(), Some(&cause));
        assert!(matches!(
            err,
            RuntimeError::Workload {
                detail: WorkloadDetail::Chip(CoreError::CannotFuse),
                ..
            }
        ));
        // A refused request has no lower-layer cause.
        let zero = RuntimeError::Workload {
            job: JobId(3),
            detail: WorkloadDetail::ZeroClusters,
        };
        assert_eq!(
            zero.to_string(),
            "job3: workload error: job requests zero clusters"
        );
        assert!(zero.source().is_none());
        assert_eq!(zero.reason(), "workload");
        // A failed reference check carries its numbers typed, under the
        // same variant, label and text as when it was a formatted string.
        let wrong = RuntimeError::staged_mismatch(JobId(3), 2, &[6, -1], &[999, -1]);
        assert_eq!(
            wrong.to_string(),
            "job3: workload error: staged dataset 2: output [6, -1], reference says [999, -1]"
        );
        assert_eq!(wrong.reason(), "workload");
        assert!(wrong.source().is_none());
        assert!(matches!(
            wrong,
            RuntimeError::Workload {
                job: JobId(3),
                detail: WorkloadDetail::StagedMismatch { dataset: 2, .. },
                ..
            }
        ));
        // The unrecoverable chip error exposes its cause the same way.
        let core = RuntimeError::Core(cause.clone());
        assert_eq!(
            core.source().and_then(|s| s.downcast_ref::<CoreError>()),
            Some(&cause)
        );
    }
}
