//! # vlsi-telemetry — deterministic cross-layer observability
//!
//! The dynamic CMP lives or dies on run-time behavior — scaling latency,
//! CSD re-chaining, NoC wormhole traffic, scheduler queueing — and none
//! of it is debuggable from final outputs alone. This crate is the
//! observability layer every simulator crate records into:
//!
//! * **Instruments** ([`Registry`]): monotonic counters, gauges, and
//!   log2-bucketed [`Histogram`]s, addressed by static interned keys
//!   (`&'static str`, optionally indexed). Recording is `O(1)` per call.
//! * **Trace spans** ([`SpanEvent`]): `span_begin`/`span_end` stamped
//!   with each layer's *simulated* clock — never wall time — so traces
//!   are bit-identical for identical seeds. Exported as Chrome
//!   `trace_event` JSON loadable in `chrome://tracing`.
//! * **Snapshots** ([`Snapshot`]): a sorted, integer-only view of every
//!   instrument, exportable as JSON or CSV. Same seed ⇒ byte-identical
//!   export, which CI asserts.
//! * **Reports** ([`report`]): a human-readable end-of-run summary table
//!   used by the examples and the chaos harness.
//!
//! The whole layer is opt-in. Every instrumented constructor takes a
//! [`TelemetryHandle`]; the [`Default`] handle is a no-op whose recording
//! calls are a single branch on `Option::None`. Disabled telemetry
//! allocates nothing.
//!
//! ```
//! use vlsi_telemetry::TelemetryHandle;
//!
//! let t = TelemetryHandle::active();
//! t.count("noc.link_crossings", 3);
//! t.record("runtime.wait", 17); // lands in the [16, 32) bucket
//! t.span_begin("runtime", "job", 0, 10);
//! t.span_end("runtime", "job", 0, 42);
//! let snap = t.snapshot();
//! assert_eq!(snap.counter("noc.link_crossings"), 3);
//! assert!(snap.to_json().contains("runtime.wait"));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod handle;
mod histogram;
mod registry;
pub mod report;
mod snapshot;
mod trace;

pub use handle::TelemetryHandle;
pub use histogram::{Histogram, HISTOGRAM_BUCKETS};
pub use registry::Registry;
pub use snapshot::{Snapshot, SnapshotValue};
pub use trace::{SpanEvent, SpanPhase, Trace, TRACE_CAPACITY_DEFAULT};
