//! The instrument registry: typed instruments behind interned keys.

use crate::histogram::Histogram;
use crate::snapshot::{Snapshot, SnapshotValue};
use crate::trace::{SpanEvent, Trace};
use std::collections::HashMap;

/// An instrument address: a static name plus an optional index, so a
/// family like per-link utilization is one key with many lanes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct InstrKey {
    name: &'static str,
    index: Option<u64>,
}

impl InstrKey {
    fn render(&self) -> String {
        match self.index {
            None => self.name.to_string(),
            Some(i) => format!("{}[{}]", self.name, i),
        }
    }
}

#[derive(Clone, Debug)]
enum Instrument {
    Counter(u64),
    Gauge(i64),
    // Boxed: a histogram is ~550 bytes against the scalars' 8, and most
    // instruments are counters.
    Histogram(Box<Histogram>),
}

/// The typed instrument registry of one telemetry domain.
///
/// Keys are `&'static str` (plus an optional integer index), interned on
/// first use: the hot path is one hash lookup and one slot update —
/// `O(1)`, and allocation-free after an instrument's first recording.
#[derive(Clone, Debug)]
pub struct Registry {
    slots: HashMap<InstrKey, usize>,
    instruments: Vec<(InstrKey, Instrument)>,
    trace: Trace,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry with the default trace capacity.
    ///
    /// (The trace must be built with [`Trace::new`]: the *derived*
    /// `Trace` default has capacity zero, which silently dropped every
    /// span a registry ever recorded.)
    pub fn new() -> Registry {
        Registry {
            slots: HashMap::new(),
            instruments: Vec::new(),
            trace: Trace::new(),
        }
    }

    fn slot(&mut self, name: &'static str, index: Option<u64>, make: fn() -> Instrument) -> usize {
        let key = InstrKey { name, index };
        match self.slots.get(&key) {
            Some(&i) => i,
            None => {
                let i = self.instruments.len();
                self.instruments.push((key, make()));
                self.slots.insert(key, i);
                i
            }
        }
    }

    /// Adds `n` to the counter `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        self.count_at_opt(name, None, n);
    }

    /// Adds `n` to lane `index` of the counter family `name`.
    pub fn count_at(&mut self, name: &'static str, index: u64, n: u64) {
        self.count_at_opt(name, Some(index), n);
    }

    fn count_at_opt(&mut self, name: &'static str, index: Option<u64>, n: u64) {
        let i = self.slot(name, index, || Instrument::Counter(0));
        if let Instrument::Counter(c) = &mut self.instruments[i].1 {
            *c += n;
        }
    }

    /// Sets the gauge `name` to `value`.
    pub fn gauge_set(&mut self, name: &'static str, value: i64) {
        let i = self.slot(name, None, || Instrument::Gauge(0));
        if let Instrument::Gauge(g) = &mut self.instruments[i].1 {
            *g = value;
        }
    }

    /// Adds `delta` (possibly negative) to the gauge `name`.
    pub fn gauge_add(&mut self, name: &'static str, delta: i64) {
        self.gauge_add_at_opt(name, None, delta);
    }

    /// Sets lane `index` of the gauge family `name` (rendered
    /// `name[index]` in exports, like counter families).
    pub fn gauge_set_at(&mut self, name: &'static str, index: u64, value: i64) {
        let i = self.slot(name, Some(index), || Instrument::Gauge(0));
        if let Instrument::Gauge(g) = &mut self.instruments[i].1 {
            *g = value;
        }
    }

    fn gauge_add_at_opt(&mut self, name: &'static str, index: Option<u64>, delta: i64) {
        let i = self.slot(name, index, || Instrument::Gauge(0));
        if let Instrument::Gauge(g) = &mut self.instruments[i].1 {
            *g += delta;
        }
    }

    /// Name of the counter tracking histogram-sum saturations across the
    /// whole registry. It materialises (and shows up in snapshots and the
    /// report table) only once a saturation actually happens, so
    /// saturation-free runs export byte-identical telemetry.
    pub const SATURATED_COUNTER: &'static str = "telemetry.saturated";

    /// Records a sample into the histogram `name`.
    pub fn record(&mut self, name: &'static str, value: u64) {
        let i = self.slot(name, None, || Instrument::Histogram(Box::default()));
        if let Instrument::Histogram(h) = &mut self.instruments[i].1 {
            if h.record(value) {
                self.count(Self::SATURATED_COUNTER, 1);
            }
        }
    }

    /// Folds every instrument of `other` into this registry: counters
    /// and gauges add, histograms merge bucket-wise, trace events append
    /// in `other`'s recording order.
    ///
    /// `other`'s instruments are visited in *interning* order, so a
    /// fixed merge schedule (shards in shard order, cluster chips in chip
    /// index order) yields a deterministic registry — and the sorted
    /// [`snapshot`](Self::snapshot) makes the export independent of the
    /// interning interleave altogether. Merging an instrument that only
    /// `other` has interns it here, zero-valued first, so a shard that
    /// touched an instrument materialises it in the merged export
    /// exactly as a serial run would.
    pub fn merge_from(&mut self, other: &Registry) {
        for (key, ins) in &other.instruments {
            match ins {
                Instrument::Counter(c) => self.count_at_opt(key.name, key.index, *c),
                Instrument::Gauge(g) => self.gauge_add_at_opt(key.name, key.index, *g),
                Instrument::Histogram(h) => {
                    let i = self.slot(
                        key.name,
                        key.index,
                        || Instrument::Histogram(Box::default()),
                    );
                    let saturated = match &mut self.instruments[i].1 {
                        Instrument::Histogram(mine) => mine.merge(h),
                        _ => false,
                    };
                    if saturated {
                        self.count(Self::SATURATED_COUNTER, 1);
                    }
                }
            }
        }
        self.trace.append(other.trace());
    }

    /// Appends a span event to the trace buffer.
    pub fn span(&mut self, e: SpanEvent) {
        self.trace.push(e);
    }

    /// The trace buffer.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Replaces the trace buffer's capacity (existing events kept up to
    /// the new bound).
    pub fn set_trace_capacity(&mut self, capacity: usize) {
        let mut t = Trace::with_capacity(capacity);
        for &e in self.trace.events().iter().take(capacity) {
            t.push(e);
        }
        self.trace = t;
    }

    /// A sorted, integer-only view of every instrument. Sorting is by
    /// rendered name (then index numerically within a family), so the
    /// export is byte-deterministic regardless of recording order.
    pub fn snapshot(&self) -> Snapshot {
        let mut entries: Vec<(String, SnapshotValue)> = self
            .instruments
            .iter()
            .map(|(key, ins)| {
                let v = match ins {
                    Instrument::Counter(c) => SnapshotValue::Counter(*c),
                    Instrument::Gauge(g) => SnapshotValue::Gauge(*g),
                    Instrument::Histogram(h) => SnapshotValue::Histogram(h.clone()),
                };
                (key.render(), v)
            })
            .collect();
        let key_of = |name: &str| -> (String, u64) {
            match name.split_once('[') {
                Some((base, rest)) => {
                    let idx = rest
                        .trim_end_matches(']')
                        .parse::<u64>()
                        .unwrap_or(u64::MAX);
                    (base.to_string(), idx)
                }
                None => (name.to_string(), 0),
            }
        };
        entries.sort_by_key(|(name, _)| key_of(name));
        let dropped_spans = self.trace.dropped();
        Snapshot::new(entries, dropped_spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruments_accumulate_by_key() {
        let mut r = Registry::new();
        r.count("a", 1);
        r.count("a", 2);
        r.count_at("links", 3, 5);
        r.count_at("links", 3, 5);
        r.count_at("links", 10, 1);
        r.gauge_set("depth", 4);
        r.gauge_add("depth", -1);
        r.record("lat", 9);
        let s = r.snapshot();
        assert_eq!(s.counter("a"), 3);
        assert_eq!(s.counter("links[3]"), 10);
        assert_eq!(s.counter("links[10]"), 1);
        assert_eq!(s.gauge("depth"), 3);
        assert_eq!(s.histogram("lat").unwrap().count(), 1);
    }

    #[test]
    fn sum_saturation_surfaces_as_a_counter() {
        let mut r = Registry::new();
        r.record("lat", 9);
        // No saturation yet: the counter must not exist, so exports from
        // healthy runs are unchanged.
        assert!(r
            .snapshot()
            .entries()
            .iter()
            .all(|(name, _)| name != Registry::SATURATED_COUNTER));
        // Two MAX samples: the second one overflows the running sum.
        r.record("big", u64::MAX);
        r.record("big", u64::MAX);
        let s = r.snapshot();
        assert_eq!(s.counter(Registry::SATURATED_COUNTER), 1);
        assert_eq!(s.histogram("big").unwrap().saturated(), 1);
        assert_eq!(s.histogram("big").unwrap().sum(), u64::MAX);
        // Saturations across different histograms accumulate in the one
        // registry-wide counter.
        r.record("other", u64::MAX);
        r.record("other", u64::MAX);
        assert_eq!(r.snapshot().counter(Registry::SATURATED_COUNTER), 2);
    }

    #[test]
    fn merge_from_reproduces_serial_recording() {
        use crate::trace::{SpanEvent, SpanPhase};
        let ev = |cycle| SpanEvent {
            track: "noc",
            name: "tick",
            id: 1,
            cycle,
            phase: SpanPhase::Instant,
        };
        // One serial registry vs. the same stream split across shards
        // and merged in shard order.
        let mut serial = Registry::new();
        let mut main = Registry::new();
        let mut shard = Registry::new();
        for i in 0..10u64 {
            serial.count("flits", i);
            serial.count_at("links", i % 3, 1);
            serial.gauge_add("load", i as i64 - 4);
            serial.record("lat", i * 7);
            serial.span(ev(i));
            let r = if i % 2 == 0 { &mut main } else { &mut shard };
            r.count("flits", i);
            r.count_at("links", i % 3, 1);
            r.gauge_add("load", i as i64 - 4);
            r.record("lat", i * 7);
        }
        // Spans are emitted on the owner only (the serial sections).
        for i in 0..10u64 {
            main.span(ev(i));
        }
        main.merge_from(&shard);
        assert_eq!(main.snapshot().to_json(), serial.snapshot().to_json());
        assert_eq!(main.trace().events(), serial.trace().events());
        // An instrument only the shard touched still materialises.
        let mut other = Registry::new();
        other.count("shard.only", 0);
        main.merge_from(&other);
        assert_eq!(main.snapshot().counter("shard.only"), 0);
        assert!(main
            .snapshot()
            .entries()
            .iter()
            .any(|(name, _)| name == "shard.only"));
    }

    #[test]
    fn registries_record_spans_by_default() {
        use crate::trace::{SpanEvent, SpanPhase};
        // Regression: the derived Trace default had capacity 0, so every
        // span a fresh registry recorded was silently dropped.
        let mut r = Registry::new();
        r.span(SpanEvent {
            track: "noc",
            name: "tick",
            id: 1,
            cycle: 3,
            phase: SpanPhase::Begin,
        });
        assert_eq!(r.trace().events().len(), 1);
        assert_eq!(r.trace().dropped(), 0);
    }

    #[test]
    fn snapshot_order_is_independent_of_recording_order() {
        let mut a = Registry::new();
        a.count("z", 1);
        a.count("a", 1);
        a.count_at("links", 10, 1);
        a.count_at("links", 2, 1);
        let mut b = Registry::new();
        b.count_at("links", 2, 1);
        b.count("a", 1);
        b.count_at("links", 10, 1);
        b.count("z", 1);
        assert_eq!(a.snapshot().to_json(), b.snapshot().to_json());
        // Indexed lanes sort numerically: links[2] before links[10].
        let json = a.snapshot().to_json();
        assert!(json.find("links[2]").unwrap() < json.find("links[10]").unwrap());
    }
}
