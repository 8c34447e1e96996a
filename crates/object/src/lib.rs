//! # vlsi-object — the object model of the adaptive processor
//!
//! The adaptive processor (AP) of Takano's *Very Large-Scale Integrated
//! Processor* does not execute instructions. Instead, an application is a
//! *datapath* built out of **objects** (paper §2.1):
//!
//! * a **physical object** is a processing element on the die — an execution
//!   fabric (64-bit integer/floating-point units and a small register file)
//!   that performs whatever its configuration tells it to;
//! * **local configuration data** tells one physical object which operation
//!   to perform;
//! * a **logical object** is the pair of local configuration data and initial
//!   data — the mobile, cacheable unit that the AP swaps between the on-chip
//!   object space and the library in memory blocks;
//! * an **object** is a logical object *bound* onto a physical object;
//! * **global configuration data** chains objects into a datapath. Each
//!   element of the global configuration stream names a sink object and its
//!   source objects, so the stream is nothing more than the dependency
//!   structure of the application.
//!
//! This crate provides those vocabulary types plus the two substrates the
//! objects live next to: the 64 KiB **memory block** (Table 2 of the paper)
//! and the **object library** held inside memory blocks, from which logical
//! objects are loaded on an object-cache miss.
//!
//! Everything here is a deterministic, dependency-free value model; the
//! pipeline that *manages* objects lives in `vlsi-ap`, and the interconnect
//! that *chains* them lives in `vlsi-csd`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod config;
pub mod error;
pub mod id;
pub mod library;
pub mod memory;
pub mod object;
pub mod op;
pub mod value;

pub use config::{GlobalConfigElement, GlobalConfigStream, LocalConfig, StreamBuilder};
pub use error::ObjectError;
pub use id::{ObjectId, PhysSlot, PortIndex};
pub use library::ObjectLibrary;
pub use memory::MemoryBlock;
pub use object::{BoundObject, LogicalObject, ObjectKind, PhysicalObject, PHYS_REGISTERS};
pub use op::{OpCategory, Operation};
pub use value::Word;
