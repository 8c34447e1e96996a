//! vlsi-compile: a pass-pipeline compiler from dataflow-graph netlists
//! to scheduled AP regions.
//!
//! The paper's §5 sketches the software stack above the VLSI processor:
//! an *application compiler* decides what runs where and in which
//! stream order, and the hardware merely replays the configuration it
//! is handed. This crate is that compiler for the repo's simulated
//! target. It ingests a line-oriented **netlist** text format (a
//! dataflow DAG of binary integer ops, in the spirit of
//! `vlsi-workloads`' ocode assembler) and lowers it through seven
//! explicit, individually testable passes:
//!
//! 1. [`netlist`] — **parse**: text → [`Netlist`], with typed
//!    1-line-numbered errors and a byte-identical [`Netlist::render`]
//!    round trip;
//! 2. [`partition`](mod@partition) — **partition**: the DAG is cut into pipeline
//!    stages of bounded size, generalising the basic-block partitioner:
//!    nodes fill stages in definition order (constants duplicate
//!    locally for free);
//! 3. [`shape`](mod@shape) — **shape**: each stage picks a rectangular AP region
//!    sized by the §4 cost model (minimum area, then minimum
//!    perimeter-weighted wire delay for the configured ITRS year);
//! 4. [`place`](mod@place) — **place**: shapes bind to concrete die coordinates
//!    on a defect-aware [`FabricIndex`](vlsi_topology::FabricIndex)
//!    mirror, largest-first / row-major first-fit;
//! 5. [`channels`] — **channel assignment**: every inter-stage value
//!    gets a CSD mailbox block, checked against memory capacity;
//! 6. [`schedule`](mod@schedule) — **schedule**: stages lower to
//!    [`StagedProgram`](vlsi_core::StagedProgram) objects + optimised
//!    configuration streams, directly submittable to the runtime as
//!    `vlsi_runtime::Workload::Staged` jobs or executable in-process
//!    via [`StagedExecutor`](vlsi_core::StagedExecutor);
//! 7. [`pipemeta`] — **pipeline**: the scheduled stages' Fig. 7(d)
//!    overlap contract ([`PipelineMeta`]): stage depth, double-buffered
//!    mailbox requirements, and the §4 cost model's predicted
//!    initiation interval for pipelined dataset batches.
//!
//! [`compile`] chains all seven; [`Compilation::emit_after`] dumps any
//! intermediate artifact as deterministic text (the `vlsic` binary's
//! `--emit-after=<pass>` flag). Everything is deterministic per input
//! and options — byte-identical across runs and thread counts, which
//! the CI thread-matrix gate checks.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![deny(missing_docs)]

pub mod channels;
pub mod error;
pub mod netlist;
pub mod partition;
pub mod pipeline;
pub mod pipemeta;
pub mod place;
pub mod schedule;
pub mod shape;

pub use channels::{assign_channels, Channels, StageChannels};
pub use error::CompileError;
pub use netlist::{NetOp, Netlist, NetlistError, NodeId};
pub use partition::{partition, PartStage, Partition};
pub use pipeline::{compile, Compilation, CompileOptions, Pass};
pub use pipemeta::{pipeline_meta, PipelineMeta, StagePipeline};
pub use place::{place, Placement};
pub use schedule::schedule;
pub use shape::{shape, Shape, StageShape};
