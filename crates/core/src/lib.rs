//! # vlsi-core — the VLSI processor
//!
//! This crate is the paper's headline artifact: a chip of replicated
//! clusters whose resources are *gathered* into adaptive processors of any
//! scale at run time, and released again — "up- or down-scaling is simply
//! to chain or unchain between the segmented interconnection networks"
//! (§6). There is no scaling instruction anywhere: scaling is wormhole
//! routing plus stores to programmable switches, exactly as §3.3 insists.
//!
//! * [`state`] — the four-state processor lifecycle of Figure 6(e):
//!   release / inactive / active / sleep, with read-write protection rules;
//! * [`chip`] — [`VlsiChip`]: the cluster grid, switch fabric, and NoC;
//!   gathering ([`VlsiChip::gather`]), splitting, fusing, releasing, and
//!   defect tolerance;
//! * [`scaled`] — [`ScaledProcessor`]: one gathered region with its folded
//!   stack, its adaptive processor, and its lifecycle state;
//! * [`staged`] — the one program executor: stage programs
//!   ([`StagedProgram`]) run across multiple processors through mailbox
//!   memory writes and activation as a Figure 7(d) wavefront, whether
//!   the compiler emitted them (dataflow stages, placement-directed
//!   deployment) or [`StagedProgram::from_blocks`] lowered them from
//!   basic blocks (guarded stages: only the taken arm is activated).

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod chip;
pub mod error;
pub mod scaled;
pub mod staged;
pub mod state;

pub use chip::{ChipMetrics, CompactionPlan, ConfigStrategy, GatherOutcome, VlsiChip};
pub use error::CoreError;
pub use scaled::{ProcessorId, ScaledProcessor};
pub use staged::{PipelineRunStats, StagedExecutor, StagedProgram, StagedStage};
pub use state::ProcState;
