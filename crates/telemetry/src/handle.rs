//! The cloneable handle instrumented code records through.

use crate::registry::Registry;
use crate::snapshot::Snapshot;
use crate::trace::{SpanEvent, SpanPhase};
use std::sync::{Arc, Mutex, MutexGuard};

/// A shared, cloneable handle onto one telemetry [`Registry`].
///
/// Instrumented constructors take one of these; clones record into the
/// same registry, so a chip and the runtime driving it share a single
/// set of instruments. The [`Default`] handle is **disabled**: every
/// recording call is a single branch on `Option::None` and allocates
/// nothing.
#[derive(Clone, Debug, Default)]
pub struct TelemetryHandle {
    inner: Option<Arc<Mutex<Registry>>>,
}

impl TelemetryHandle {
    /// A live handle backed by a fresh registry.
    pub fn active() -> TelemetryHandle {
        TelemetryHandle {
            inner: Some(Arc::new(Mutex::new(Registry::new()))),
        }
    }

    /// The no-op handle (same as [`Default`]).
    pub fn disabled() -> TelemetryHandle {
        TelemetryHandle { inner: None }
    }

    /// A *child* handle: live exactly when `self` is live, but backed by
    /// its own fresh registry — nothing recorded through the fork is
    /// visible here until [`merge_from`](Self::merge_from) folds it back.
    ///
    /// This is the task-local pattern the parallel paths use: each
    /// worker records into a fork with no lock contention, and the
    /// owner merges the forks on a fixed schedule (chip index order),
    /// which keeps merged exports deterministic.
    pub fn fork(&self) -> TelemetryHandle {
        if self.is_enabled() {
            TelemetryHandle {
                inner: Some(Arc::new(Mutex::new(Registry::new()))),
            }
        } else {
            TelemetryHandle::disabled()
        }
    }

    /// Folds `other`'s instruments into this handle's registry without
    /// touching `other` (counters/gauges add, histograms merge, traces
    /// append — see [`Registry::merge_from`]). No-op when either handle
    /// is disabled or both share one registry.
    pub fn merge_from(&self, other: &TelemetryHandle) {
        let (Some(a), Some(b)) = (&self.inner, &other.inner) else {
            return;
        };
        if Arc::ptr_eq(a, b) {
            return;
        }
        // Clone `other`'s registry out before locking ours: the locks
        // are never held together, so two handles can merge either way
        // around without ordering concerns.
        let theirs = b.lock().unwrap_or_else(|e| e.into_inner()).clone();
        a.lock()
            .unwrap_or_else(|e| e.into_inner())
            .merge_from(&theirs);
    }

    /// Whether recording calls reach a registry.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn lock(&self) -> Option<MutexGuard<'_, Registry>> {
        // Poisoning can't corrupt plain counters; keep recording.
        self.inner
            .as_ref()
            .map(|m| m.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Adds `n` to the counter `name`.
    pub fn count(&self, name: &'static str, n: u64) {
        if let Some(mut r) = self.lock() {
            r.count(name, n);
        }
    }

    /// Adds `n` to lane `index` of the counter family `name`
    /// (rendered `name[index]` in exports).
    pub fn count_at(&self, name: &'static str, index: u64, n: u64) {
        if let Some(mut r) = self.lock() {
            r.count_at(name, index, n);
        }
    }

    /// Sets the gauge `name` to `value`.
    pub fn gauge_set(&self, name: &'static str, value: i64) {
        if let Some(mut r) = self.lock() {
            r.gauge_set(name, value);
        }
    }

    /// Adds `delta` (possibly negative) to the gauge `name`.
    pub fn gauge_add(&self, name: &'static str, delta: i64) {
        if let Some(mut r) = self.lock() {
            r.gauge_add(name, delta);
        }
    }

    /// Sets lane `index` of the gauge family `name` (rendered
    /// `name[index]` in exports).
    pub fn gauge_set_at(&self, name: &'static str, index: u64, value: i64) {
        if let Some(mut r) = self.lock() {
            r.gauge_set_at(name, index, value);
        }
    }

    /// Records a sample into the log2 histogram `name`.
    pub fn record(&self, name: &'static str, value: u64) {
        if let Some(mut r) = self.lock() {
            r.record(name, value);
        }
    }

    fn span(&self, track: &'static str, name: &'static str, id: u64, cycle: u64, phase: SpanPhase) {
        if let Some(mut r) = self.lock() {
            r.span(SpanEvent {
                track,
                name,
                id,
                cycle,
                phase,
            });
        }
    }

    /// Opens span `name` on `track`, lane `id`, at simulated `cycle`.
    pub fn span_begin(&self, track: &'static str, name: &'static str, id: u64, cycle: u64) {
        self.span(track, name, id, cycle, SpanPhase::Begin);
    }

    /// Closes span `name` on `track`, lane `id`, at simulated `cycle`.
    pub fn span_end(&self, track: &'static str, name: &'static str, id: u64, cycle: u64) {
        self.span(track, name, id, cycle, SpanPhase::End);
    }

    /// Marks a zero-duration event on `track`, lane `id`, at `cycle`.
    pub fn instant(&self, track: &'static str, name: &'static str, id: u64, cycle: u64) {
        self.span(track, name, id, cycle, SpanPhase::Instant);
    }

    /// Replaces the trace buffer's event capacity.
    pub fn set_trace_capacity(&self, capacity: usize) {
        if let Some(mut r) = self.lock() {
            r.set_trace_capacity(capacity);
        }
    }

    /// A sorted, integer-only snapshot of every instrument. Disabled
    /// handles yield an empty snapshot.
    pub fn snapshot(&self) -> Snapshot {
        match self.lock() {
            Some(r) => r.snapshot(),
            None => Snapshot::default(),
        }
    }

    /// The trace rendered as Chrome `trace_event` JSON. Disabled handles
    /// yield an empty-but-valid document.
    pub fn trace_chrome_json(&self) -> String {
        match self.lock() {
            Some(r) => r.trace().to_chrome_json(),
            None => String::from("{\"traceEvents\":[]}"),
        }
    }

    /// Span events recorded so far (0 when disabled).
    pub fn span_count(&self) -> usize {
        match self.lock() {
            Some(r) => r.trace().events().len(),
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = TelemetryHandle::disabled();
        assert!(!t.is_enabled());
        t.count("x", 5);
        t.record("h", 9);
        t.span_begin("noc", "worm", 1, 0);
        assert!(t.snapshot().is_empty());
        assert_eq!(t.span_count(), 0);
        assert_eq!(t.trace_chrome_json(), "{\"traceEvents\":[]}");
    }

    #[test]
    fn default_is_disabled() {
        assert!(!TelemetryHandle::default().is_enabled());
    }

    #[test]
    fn clones_share_one_registry() {
        let t = TelemetryHandle::active();
        let u = t.clone();
        t.count("x", 2);
        u.count("x", 3);
        assert_eq!(t.snapshot().counter("x"), 5);
    }

    #[test]
    fn fork_isolates_until_merged() {
        let t = TelemetryHandle::active();
        t.count("x", 1);
        let f = t.fork();
        assert!(f.is_enabled());
        f.count("x", 2);
        f.record("lat", 8);
        assert_eq!(t.snapshot().counter("x"), 1, "fork is isolated");
        t.merge_from(&f);
        assert_eq!(t.snapshot().counter("x"), 3);
        assert_eq!(t.snapshot().histogram("lat").unwrap().count(), 1);
        // merge_from does not drain.
        t.merge_from(&f);
        assert_eq!(t.snapshot().counter("x"), 5);
    }

    #[test]
    fn self_and_clone_merges_are_no_ops() {
        let t = TelemetryHandle::active();
        t.count("x", 2);
        let c = t.clone();
        t.merge_from(&c); // same registry: must not deadlock or double
        assert_eq!(t.snapshot().counter("x"), 2);
        let d = TelemetryHandle::disabled();
        t.merge_from(&d);
        assert!(!d.fork().is_enabled());
        assert_eq!(t.snapshot().counter("x"), 2);
    }
}
