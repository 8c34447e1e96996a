//! # vlsi-noc — on-chip routers and wormhole routing
//!
//! §3.3–3.4: scaling a processor means *routing*. A supervisor (or
//! preceding processor) sends **configuration worms** through the on-chip
//! router network; as a worm traverses the clusters of the region being
//! gathered, it stores reservation flags and switch-programming data —
//! "wormhole routing is used to store a reservation flag at each
//! programmable switch to avoid a resource (cluster) allocation conflict
//! among the scaling configurations". The same routers carry ordinary
//! inter-processor messages (the Figure 7(d) mailbox writes).
//!
//! The router follows Figure 7(e): five ports (North/East/South/West/
//! Local), each input port a queue feeding an allocator that binds the
//! input to an output for the duration of one worm (head flit acquires,
//! tail flit releases — classic wormhole flow control). Routing is
//! deterministic dimension-order (X then Y), which is deadlock-free on a
//! mesh with sink-always-accepts endpoints.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod error;
pub mod flit;
pub mod network;
pub mod router;

pub use error::NocError;
pub use flit::{Flit, Packet, WormId};
pub use network::{
    NetworkStats, NocNetwork, MAX_DELIVERY_ATTEMPTS, RETRY_BACKOFF_BASE, RETRY_BACKOFF_CAP,
};
pub use router::{Port, Router, INPUT_QUEUE_DEPTH};
