//! # vlsi-topology — the S-topology and its programmable switches
//!
//! The adaptive processor's stack wants a *linear* array, but silicon is a
//! plane. §3 proposes the **S-topology**: the chip is a grid of replicated
//! **clusters** (Figure 4(b) — compute objects, memory objects, a system
//! object, and a programmable switch), and the linear array is *folded*
//! through the grid along a serpentine path (Figure 4(c)). The fold's
//! defining property — consecutive stack slots are physically adjacent —
//! is what keeps the stack shift a neighbour-to-neighbour move.
//!
//! §3.1's requirements for the topology map to this crate directly:
//!
//! 1. *hierarchical/fractal* — [`fold::serpentine`] works at any
//!    rectangular scale and composes across two stacked dies
//!    ([`fold::die_stack`], Figure 6(d));
//! 2. *minimum number of layout patterns* — one [`cluster::Cluster`]
//!    shape is replicated everywhere;
//! 3. *regular chain/unchain switch points* — every cluster boundary has
//!    a [`switch::SwitchState`] (see [`switch`]), default **unchained**.
//!
//! Regions of clusters ([`region::Region`]) are gathered into a scaled
//! processor by programming the switches along a path that threads every
//! cluster of the region; a closed path yields the ring of Figure 5.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod alloc;
pub mod cluster;
pub mod coord;
pub mod error;
pub mod fold;
pub mod index;
pub mod region;
pub mod switch;

pub use alloc::RegionFinder;
pub use cluster::{Cluster, ClusterGrid, ClusterId};
pub use coord::{Coord, Dir};
pub use error::TopologyError;
pub use fold::FoldMap;
pub use index::FabricIndex;
pub use region::Region;
pub use switch::{SwitchFabric, SwitchState};
