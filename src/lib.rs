//! # vlsi-processor — umbrella crate
//!
//! Re-exports the whole VLSI Processor reproduction behind one dependency.
//! See `README.md` for the architecture overview and `DESIGN.md` for the
//! per-paper-section inventory.

pub use vlsi_ap as ap;
pub use vlsi_compile as compile;
pub use vlsi_core as core;
pub use vlsi_cost as cost;
pub use vlsi_csd as csd;
pub use vlsi_fabric as fabric;
pub use vlsi_faults as faults;
pub use vlsi_ingest as ingest;
pub use vlsi_noc as noc;
pub use vlsi_object as object;
pub use vlsi_par as par;
pub use vlsi_prng as prng;
pub use vlsi_runtime as runtime;
pub use vlsi_telemetry as telemetry;
pub use vlsi_topology as topology;
pub use vlsi_workloads as workloads;
