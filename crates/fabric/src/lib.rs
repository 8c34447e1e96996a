//! vlsi-fabric: deterministic inter-chip interconnect and cluster
//! scheduling.
//!
//! The paper's machine does not stop at one die: chips connect through
//! a dedicated network processor into multi-chip systems. This crate
//! reproduces that layer in the simulator. It has three floors:
//!
//! * [`ClusterTopology`] — how dies are wired (ring or 2-D torus of
//!   chips) and the pure-function chip-level routing over that wiring.
//! * [`ClusterNetwork`] — the moving fabric: one dedicated NoC plane
//!   per die plus bounded-latency chip-to-chip links. Each tick runs
//!   the planes in parallel on the shared [`vlsi_par::Pool`] (chip `i`
//!   is always task `i`) and then commits every off-chip crossing
//!   serially in ascending `(source chip, source router)` order — the
//!   same two-phase discipline as the sharded NoC tick, so a run is
//!   bit-identical at any thread count.
//! * [`Cluster`] — multi-chip scheduling on top: the chips' runtimes,
//!   cluster-wide
//!   admission, queued-job migration at tick boundaries, and chaos
//!   recovery when a [`FaultKind::ChipDown`] plan kills a whole die
//!   mid-run — its jobs relocate over the fabric or fail typed, never
//!   hang.
//!
//! ```
//! use vlsi_core::VlsiChip;
//! use vlsi_fabric::{Cluster, ClusterConfig, ClusterTopology};
//! use vlsi_par::Pool;
//! use vlsi_runtime::{Fifo, JobSpec, Runtime, RuntimeConfig, Workload};
//! use vlsi_topology::Cluster as ClusterShape;
//!
//! let pool = Pool::new(2);
//! let mut cluster = Cluster::new(
//!     ClusterTopology::ring(4),
//!     (8, 8),
//!     pool,
//!     ClusterConfig::standard(),
//! );
//! for _ in 0..4 {
//!     let chip = VlsiChip::new(8, 8, ClusterShape::default());
//!     cluster.push_chip(Runtime::new(chip, Box::new(Fifo), RuntimeConfig::default()));
//! }
//! let gid = cluster.submit(JobSpec::new("warm", 4, Workload::Idle { ticks: 3 }));
//! assert!(gid.is_some(), "some live chip fits a 4-cluster job");
//! let summary = cluster.run_until_idle(10_000).unwrap();
//! assert_eq!(summary.completed, 1);
//! ```
//!
//! [`FaultKind::ChipDown`]: vlsi_faults::FaultKind::ChipDown

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod cluster;
mod error;
mod network;
mod topology;

pub use cluster::{Cluster, ClusterConfig, ClusterSummary, GlobalJobId};
pub use error::{ClusterError, FabricError};
pub use network::{ClusterNetwork, Delivery, FabricConfig, FabricStats, MessageId, FABRIC_HEADER};
pub use topology::{link_dir_index, ClusterTopology, LINK_DIRS};
