//! # vlsi-runtime — a multi-tenant job scheduler for the VLSI processor
//!
//! The paper's chip lets an application "request the resources" it needs
//! and hand them back when done (§1); this crate adds the layer that
//! arbitrates those requests when *several* tenants want the die at once.
//! A [`Runtime`] owns one [`VlsiChip`](vlsi_core::VlsiChip) and runs a
//! deterministic, simulated-time loop:
//!
//! * **Jobs** ([`JobSpec`]) request a cluster count and carry a workload —
//!   a staged program (compiled netlist, partitioned basic-block program
//!   or streaming kernel, all run by one executor) or a pure capacity
//!   reservation — plus a priority, an optional deadline, and a retry
//!   budget.
//! * **Admission** checks the request against the chip's free clusters,
//!   plans one region per stage, retries with exponential backoff, and
//!   compacts the die when fragmentation is what stands in the way and
//!   the chip's compaction plan says the retry then fits.
//! * **Policies** ([`SchedPolicy`]) decide ordering only: [`Fifo`],
//!   [`Priority`], and [`SmallestFitBackfill`] ship; Ablation I
//!   (`tests/ablations.rs`) compares them on the same job mix.
//! * **Power**: completed single-region jobs park their region in a warm
//!   pool — asleep with a wake timer — and a later idle or one-stage job
//!   of exactly that size reuses it without paying the configuration
//!   worms again.
//! * **Robustness**: clusters marked defective mid-run are survived by
//!   relocating the victim processor or re-queueing the job for a fresh
//!   gather; deadline misses and retry exhaustion fail gracefully with a
//!   typed [`RuntimeError`] on the job record.
//!
//! Every decision lands in an ordered [`RuntimeEvent`] log; identical
//! submissions produce identical logs, which is what the integration
//! tests assert.
//!
//! ```
//! use vlsi_core::VlsiChip;
//! use vlsi_runtime::{Fifo, JobSpec, JobState, Runtime, RuntimeConfig};
//! use vlsi_topology::Cluster;
//! use vlsi_workloads::StreamKernel;
//!
//! let chip = VlsiChip::new(8, 8, Cluster::default());
//! let mut rt = Runtime::new(chip, Box::new(Fifo), RuntimeConfig::default());
//! let xs: Vec<u64> = (1..=16).collect();
//! let job = rt.submit(JobSpec::for_stream(
//!     "axpy",
//!     4,
//!     StreamKernel::axpy(3, 5, 16),
//!     xs.clone(),
//!     StreamKernel::axpy_reference(3, 5, &xs),
//! ));
//! let summary = rt.run_until_idle(10_000).unwrap();
//! assert_eq!(summary.completed, 1);
//! assert_eq!(rt.job(job).unwrap().state, JobState::Completed);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

mod error;
mod events;
mod job;
pub mod mix;
mod policy;
mod runtime;

pub use error::{RuntimeError, WorkloadDetail};
pub use events::{EventKind, RuntimeEvent};
pub use job::{JobId, JobOutput, JobRecord, JobSpec, JobState, JobStats, Workload};
pub use policy::{Fifo, Priority, QueuedJob, SchedPolicy, SmallestFitBackfill};
pub use runtime::{Runtime, RuntimeConfig, RuntimeStats, RuntimeSummary};
