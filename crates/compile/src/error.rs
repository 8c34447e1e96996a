//! Typed compiler errors.

use crate::netlist::{NetlistError, NodeId};
use crate::pipeline::Pass;

/// Everything that can stop the pipeline, by pass.
#[derive(Clone, PartialEq, Debug)]
pub enum CompileError {
    /// The front-end rejected the text (carries the 1-based line).
    Netlist(NetlistError),
    /// A stage needs more clusters than the whole die has.
    StageTooLarge {
        /// Stage index.
        stage: usize,
        /// Clusters the stage needs.
        clusters: usize,
        /// Clusters the die has.
        chip_clusters: usize,
    },
    /// The shaping pass has no ITRS parameters for the requested year.
    UnknownYear {
        /// The requested year.
        year: u32,
    },
    /// No free defect-avoiding rectangle fits the stage's shape.
    Unplaceable {
        /// Stage index.
        stage: usize,
        /// Shape width in clusters.
        width: u16,
        /// Shape height in clusters.
        height: u16,
    },
    /// A stage's mailbox channels exceed its region's memory objects
    /// (cannot happen after shaping; kept typed for the pass contract).
    ChannelOverflow {
        /// Stage index.
        stage: usize,
        /// Channels requested.
        channels: usize,
        /// Memory objects the region provides.
        capacity: usize,
    },
    /// A pass was handed an artifact that breaks the contract of the
    /// pass before it (cannot happen through [`compile`](crate::compile),
    /// whose passes feed each other; the passes are public, so a caller
    /// chaining them by hand gets an error instead of a panic).
    BrokenArtifact {
        /// The pass that found it.
        pass: Pass,
        /// Stage index.
        stage: usize,
        /// The offending node, where there is one.
        node: Option<NodeId>,
        /// Which contract was broken.
        what: &'static str,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Netlist(e) => write!(f, "netlist: {e}"),
            CompileError::StageTooLarge {
                stage,
                clusters,
                chip_clusters,
            } => write!(
                f,
                "stage {stage} needs {clusters} clusters; the die has {chip_clusters}"
            ),
            CompileError::UnknownYear { year } => {
                write!(f, "no ITRS parameters for year {year}")
            }
            CompileError::Unplaceable {
                stage,
                width,
                height,
            } => write!(
                f,
                "stage {stage}: no free {width}x{height} region (defects/fragmentation)"
            ),
            CompileError::ChannelOverflow {
                stage,
                channels,
                capacity,
            } => write!(
                f,
                "stage {stage}: {channels} mailbox channels exceed {capacity} memory objects"
            ),
            CompileError::BrokenArtifact {
                pass,
                stage,
                node,
                what,
            } => {
                write!(f, "{}: stage {stage}", pass.name())?;
                if let Some(node) = node {
                    write!(f, ", node {node}")?;
                }
                write!(f, ": {what}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

impl From<NetlistError> for CompileError {
    fn from(e: NetlistError) -> CompileError {
        CompileError::Netlist(e)
    }
}
