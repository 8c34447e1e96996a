//! Sorted, integer-only snapshots and their JSON/CSV exporters.

use crate::histogram::Histogram;
use std::fmt::Write;

/// The value of one instrument at snapshot time.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SnapshotValue {
    /// A monotonic counter.
    Counter(u64),
    /// A gauge (last set / accumulated delta).
    Gauge(i64),
    /// A log2-bucketed histogram (boxed: ~550 bytes against the
    /// scalars' 8).
    Histogram(Box<Histogram>),
}

/// A point-in-time view of every instrument in a registry, sorted by
/// name. All values are integers, so rendering is byte-deterministic:
/// same seed ⇒ same counts ⇒ same bytes, which the determinism test and
/// the CI snapshot diff assert.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Snapshot {
    entries: Vec<(String, SnapshotValue)>,
    dropped_spans: u64,
}

impl Snapshot {
    pub(crate) fn new(entries: Vec<(String, SnapshotValue)>, dropped_spans: u64) -> Snapshot {
        Snapshot {
            entries,
            dropped_spans,
        }
    }

    /// `(name, value)` for every instrument, in name order.
    pub fn entries(&self) -> &[(String, SnapshotValue)] {
        &self.entries
    }

    /// Whether the snapshot holds no instruments at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Span events dropped by the trace buffer's capacity bound.
    pub fn dropped_spans(&self) -> u64 {
        self.dropped_spans
    }

    fn get(&self, name: &str) -> Option<&SnapshotValue> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// The counter `name`, or 0 when it was never recorded.
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(SnapshotValue::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// The gauge `name`, or 0 when it was never recorded.
    pub fn gauge(&self, name: &str) -> i64 {
        match self.get(name) {
            Some(SnapshotValue::Gauge(g)) => *g,
            _ => 0,
        }
    }

    /// The histogram `name`, if it was ever recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match self.get(name) {
            Some(SnapshotValue::Histogram(h)) => Some(h.as_ref()),
            _ => None,
        }
    }

    /// Sums a counter family: the plain counter `name` plus every
    /// indexed lane `name[i]`.
    pub fn counter_family(&self, name: &str) -> u64 {
        let prefix = format!("{name}[");
        self.entries
            .iter()
            .filter(|(n, _)| n == name || n.starts_with(&prefix))
            .map(|(_, v)| match v {
                SnapshotValue::Counter(c) => *c,
                _ => 0,
            })
            .sum()
    }

    /// Renders the snapshot as a JSON object with sorted keys and only
    /// integer values — byte-identical across same-seed runs.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        let mut first = true;
        for (name, v) in &self.entries {
            if let SnapshotValue::Counter(c) = v {
                if !first {
                    out.push(',');
                }
                first = false;
                write!(out, "\"{name}\":{c}").expect("write to String");
            }
        }
        out.push_str("},\"gauges\":{");
        let mut first = true;
        for (name, v) in &self.entries {
            if let SnapshotValue::Gauge(g) = v {
                if !first {
                    out.push(',');
                }
                first = false;
                write!(out, "\"{name}\":{g}").expect("write to String");
            }
        }
        out.push_str("},\"histograms\":{");
        let mut first = true;
        for (name, v) in &self.entries {
            if let SnapshotValue::Histogram(h) = v {
                if !first {
                    out.push(',');
                }
                first = false;
                write!(
                    out,
                    "\"{name}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                    h.count(),
                    h.sum(),
                    h.min(),
                    h.max()
                )
                .expect("write to String");
                let mut bfirst = true;
                for (floor, n) in h.nonzero_buckets() {
                    if !bfirst {
                        out.push(',');
                    }
                    bfirst = false;
                    write!(out, "[{floor},{n}]").expect("write to String");
                }
                out.push_str("]}");
            }
        }
        write!(out, "}},\"dropped_spans\":{}}}", self.dropped_spans).expect("write to String");
        out
    }

    /// Renders the snapshot as CSV (`kind,name,...` rows, name order) —
    /// the flat export `examples/telemetry_trace.rs` writes.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,name,count,sum,min,max\n");
        for (name, v) in &self.entries {
            match v {
                SnapshotValue::Counter(c) => {
                    writeln!(out, "counter,{name},{c},,,").expect("write to String")
                }
                SnapshotValue::Gauge(g) => {
                    writeln!(out, "gauge,{name},{g},,,").expect("write to String")
                }
                SnapshotValue::Histogram(h) => writeln!(
                    out,
                    "histogram,{name},{},{},{},{}",
                    h.count(),
                    h.sum(),
                    h.min(),
                    h.max()
                )
                .expect("write to String"),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut h = Histogram::new();
        h.record(5);
        h.record(12);
        Snapshot::new(
            vec![
                ("a.count".to_string(), SnapshotValue::Counter(7)),
                ("b.depth".to_string(), SnapshotValue::Gauge(-2)),
                ("c.lat".to_string(), SnapshotValue::Histogram(Box::new(h))),
            ],
            0,
        )
    }

    #[test]
    fn json_is_integer_only_and_complete() {
        let j = sample().to_json();
        assert_eq!(
            j,
            "{\"counters\":{\"a.count\":7},\"gauges\":{\"b.depth\":-2},\
             \"histograms\":{\"c.lat\":{\"count\":2,\"sum\":17,\"min\":5,\"max\":12,\
             \"buckets\":[[4,1],[8,1]]}},\"dropped_spans\":0}"
        );
    }

    #[test]
    fn csv_has_one_row_per_instrument() {
        let c = sample().to_csv();
        assert_eq!(c.lines().count(), 4);
        assert!(c.contains("counter,a.count,7,,,"));
        assert!(c.contains("histogram,c.lat,2,17,5,12"));
    }

    #[test]
    fn lookups() {
        let s = sample();
        assert_eq!(s.counter("a.count"), 7);
        assert_eq!(s.counter("missing"), 0);
        assert_eq!(s.gauge("b.depth"), -2);
        assert_eq!(s.histogram("c.lat").unwrap().max(), 12);
    }
}
