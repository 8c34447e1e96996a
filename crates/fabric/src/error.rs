//! Typed failures of the inter-chip layer.

use crate::network::MessageId;
use vlsi_runtime::RuntimeError;

/// Why the fabric could not carry a message. Failures are graceful:
/// they land on [`ClusterNetwork::take_failed`], never panic or hang.
///
/// [`ClusterNetwork::take_failed`]: crate::ClusterNetwork::take_failed
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FabricError {
    /// The chip at `chip` is dead, so the send (or delivery) is
    /// impossible.
    ChipDown {
        /// Chip index of the dead chip.
        chip: usize,
    },
    /// The message was given up on; `reason` is a short label
    /// (`"no route"`, `"hop budget"`, `"retries"`, `"destination chip
    /// down"`, …).
    Undeliverable {
        /// The failed message.
        msg: MessageId,
        /// Short reason label.
        reason: &'static str,
    },
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricError::ChipDown { chip } => write!(f, "chip {chip} is down"),
            FabricError::Undeliverable { msg, reason } => {
                write!(f, "{msg} undeliverable: {reason}")
            }
        }
    }
}

impl std::error::Error for FabricError {}

/// Why a cluster run stopped. Per-job losses are *not* errors — they
/// are typed on the job (see [`Cluster::lost_jobs`]); an error here
/// means the run itself could not continue.
///
/// [`Cluster::lost_jobs`]: crate::Cluster::lost_jobs
#[derive(Clone, PartialEq, Debug)]
pub enum ClusterError {
    /// A live chip's runtime errored. When several chips fail in one
    /// parallel tick, the lowest chip index is reported — a
    /// deterministic choice at every thread count.
    Chip {
        /// Index of the failing chip.
        chip: usize,
        /// The chip runtime's own error.
        error: RuntimeError,
    },
    /// The cluster did not drain within the tick budget.
    Hung {
        /// Ticks simulated before giving up.
        ticks: u64,
        /// Jobs still outstanding (queued, running, or in flight).
        outstanding: usize,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Chip { chip, error } => write!(f, "cluster: chip {chip}: {error}"),
            ClusterError::Hung { ticks, outstanding } => {
                write!(
                    f,
                    "cluster hung after {ticks} ticks ({outstanding} outstanding)"
                )
            }
        }
    }
}

impl std::error::Error for ClusterError {}
