//! # vlsi-ap — the adaptive processor
//!
//! The adaptive processor (AP) is the unit the VLSI processor fuses and
//! splits. It owns an array of physical objects arranged as a **stack**
//! (§2.4), a **working-set register file** (WSRF) that tracks acquired
//! objects, a five-stage **management pipeline** (§2.2) that turns the
//! global configuration stream into a chained datapath, and the dynamic
//! CSD network (from `vlsi-csd`) over which objects communicate.
//!
//! The division of labour:
//!
//! * [`stack`] — the object stack: deterministic top-of-stack placement,
//!   stack shifts, and LRU replacement by construction (Mattson's stack
//!   algorithm, §2.4);
//! * [`wsrf`] — the working-set register file: central hit detection and
//!   the acquirement bookkeeping of §2.3 / Figure 1;
//! * [`pipeline`] — the five pipeline stages (pointer update, request
//!   fetch, request evaluation, request, acquirement) with object
//!   cache-miss handling through the configuration buffers;
//! * [`datapath`] — execution of a configured datapath: dataflow firing,
//!   steering, memory load/store streams, and release tokens (§2.3) —
//!   the one engine, stored as flat struct-of-arrays slabs;
//! * [`processor`] — [`AdaptiveProcessor`], gluing the above to the object
//!   library and memory blocks, including virtual hardware (swap-in/out,
//!   §2.5);
//! * [`soa`] — [`SoaLane`], the resident datapath and memory blocks of
//!   one AP moved out (not copied) for the duration of a region sweep,
//!   so an executor can advance many APs per tick on several threads;
//! * [`metrics`] — counters every layer reports into.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod advisor;
pub mod datapath;
pub mod error;
pub mod metrics;
pub mod pipeline;
pub mod processor;
pub mod schedule;
pub mod soa;
pub mod stack;
pub mod wsrf;

pub use advisor::{advise, advise_scalar, ResourceAdvice};
pub use datapath::{Datapath, ExecutionReport};
pub use error::ApError;
pub use metrics::ApMetrics;
pub use pipeline::{ConfigureOutcome, Pipeline, PipelineStage, TraceEvent};
pub use processor::{AdaptiveProcessor, ApConfig};
pub use schedule::ReplacementScheduler;
pub use soa::SoaLane;
pub use stack::{ObjectStack, ReferenceOutcome};
pub use wsrf::{Acquirement, WorkingSetRegisterFile};
