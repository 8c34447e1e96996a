//! Typed failures of the ingestion layer.

use std::fmt;

use vlsi_fabric::ClusterError;

/// Errors raised at the ingestion boundary. Overload is *never* a
/// silent drop: a full ring is a typed [`IngestError::RingFull`] the
/// producer must handle (retry, back off, or give up — all counted).
#[derive(Clone, PartialEq, Debug)]
pub enum IngestError {
    /// The submission ring is at capacity; the producer should back off
    /// and retry (see `IngestClient`) or give up, typed.
    RingFull {
        /// The ring's fixed capacity.
        capacity: usize,
    },
    /// The service loop ran past its tick budget without draining —
    /// the bounded-progress guard, mirroring the cluster's `Hung`.
    Hung {
        /// Ticks simulated before giving up.
        ticks: u64,
        /// Work still in the ring, retry queue, or sink.
        outstanding: u64,
    },
    /// The cluster underneath the service failed unrecoverably.
    Sink(ClusterError),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::RingFull { capacity } => {
                write!(f, "submission ring full ({capacity} slots)")
            }
            IngestError::Hung { ticks, outstanding } => write!(
                f,
                "ingest service did not drain within {ticks} ticks ({outstanding} outstanding)"
            ),
            IngestError::Sink(e) => write!(f, "sink error: {e}"),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<ClusterError> for IngestError {
    fn from(e: ClusterError) -> IngestError {
        IngestError::Sink(e)
    }
}
