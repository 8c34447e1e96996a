//! Wall-clock spans recorded by the benchmark around its own calls into
//! the crates' public functions (spans inside the crates are a later
//! issue). Spans live in a pre-sized in-memory vector and are written out
//! once, when the run ends. A disabled tracer costs one branch per site,
//! so the untraced run and the traced run share every line of workload
//! code.
//!
//! A span's name is `<layer>.<what>`; the layer is a crate name (or
//! `loadgen`/`telemetry` for the benchmark's own work).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use crate::json::Json;

/// "No parent" / "no job" marker.
pub const NONE: u64 = u64::MAX;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NONE`] for a top-level span.
    pub parent: u64,
    /// The request this span belongs to, or [`NONE`].
    pub job: u64,
}

struct Inner {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle to the span recorder; clones share one recording (the sink
/// wrapper inside the ingest service and the load loop outside it write
/// to the same vector). Single-threaded by construction: every workload
/// runs on `Pool::new(1)`.
#[derive(Clone)]
pub struct Tracer(Option<Rc<RefCell<Inner>>>);

/// Token returned by [`Tracer::begin`]; hand it back to [`Tracer::end`].
#[must_use]
pub struct Open(usize);

impl Tracer {
    pub fn disabled() -> Tracer {
        Tracer(None)
    }

    pub fn enabled(capacity: usize) -> Tracer {
        Tracer(Some(Rc::new(RefCell::new(Inner {
            t0: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
        }))))
    }

    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    pub fn begin(&self, name: &'static str, job: u64) -> Open {
        let Some(inner) = &self.0 else {
            return Open(0);
        };
        let mut t = inner.borrow_mut();
        let parent = t.open.last().map_or(NONE, |&p| p as u64);
        let ix = t.spans.len();
        t.open.push(ix);
        // Clock read last, so bookkeeping stays outside the span.
        let start_ns = t.t0.elapsed().as_nanos() as u64;
        t.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            job,
        });
        Open(ix)
    }

    pub fn end(&self, open: Open) {
        let Some(inner) = &self.0 else {
            return;
        };
        let mut t = inner.borrow_mut();
        let end_ns = t.t0.elapsed().as_nanos() as u64;
        let top = t.open.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost-first");
        t.spans[open.0].end_ns = end_ns;
    }

    /// Times `f` under a span.
    pub fn span<R>(&self, name: &'static str, job: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, job);
        let r = f();
        self.end(open);
        r
    }

    pub fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |i| i.borrow().spans.len())
    }

    /// The recorded spans (empty for a disabled tracer).
    pub fn spans(&self) -> Vec<Span> {
        self.0
            .as_ref()
            .map_or_else(Vec::new, |i| i.borrow().spans.clone())
    }
}

/// Splits a round into segments at fixed points of its work. Rounds repeat
/// the same work, so segment `k` of every round is the same computation,
/// timed again — which is what lets the harness tell the computation's
/// own time from whatever else the machine was doing (see `run.rs`).
pub struct Laps {
    last: Instant,
    segments: Vec<f64>,
}

impl Laps {
    pub fn start() -> Laps {
        Laps {
            last: Instant::now(),
            segments: Vec::new(),
        }
    }

    /// Ends the current segment here.
    pub fn mark(&mut self) {
        let now = Instant::now();
        self.segments.push((now - self.last).as_secs_f64());
        self.last = now;
    }

    /// Ends the last segment and returns all of them, in seconds; they
    /// sum to the time since [`Laps::start`].
    pub fn finish(mut self) -> Vec<f64> {
        self.mark();
        self.segments
    }
}

/// The layer of a span name: the part before the first `.`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover. Children never overlap each other (one
/// thread, innermost-first closing), so the covered part is the sum of
/// their durations, clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent != NONE {
            let p = &spans[s.parent as usize];
            let covered = s
                .end_ns
                .min(p.end_ns)
                .saturating_sub(s.start_ns.max(p.start_ns));
            let slot = &mut own[s.parent as usize];
            *slot = slot.saturating_sub(covered);
        }
    }
    own
}

/// Busy time per span name and per layer over a set of spans.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Attribution {
    /// `(span name, calls, total ns, self ns)`, in first-seen order.
    pub by_name: Vec<(&'static str, u64, u64, u64)>,
    /// `(layer, self ns)`, largest first.
    pub by_layer: Vec<(String, u64)>,
    /// Sum of all self times = wall covered by top-level spans.
    pub covered_ns: u64,
}

/// Attributes the spans in `range` of a recording. Self times need the
/// whole recording (parents are indices into it); a range must hold whole
/// span trees, which any cut between top-level spans does.
pub fn attribute(spans: &[Span], range: std::ops::Range<usize>) -> Attribution {
    let own = self_times(spans);
    let mut a = Attribution::default();
    for (s, &self_ns) in spans[range.clone()].iter().zip(&own[range]) {
        let total = s.end_ns - s.start_ns;
        match a.by_name.iter_mut().find(|(n, ..)| *n == s.name) {
            Some(row) => {
                row.1 += 1;
                row.2 += total;
                row.3 += self_ns;
            }
            None => a.by_name.push((s.name, 1, total, self_ns)),
        }
        let layer = layer_of(s.name);
        match a.by_layer.iter_mut().find(|(l, _)| l == layer) {
            Some(row) => row.1 += self_ns,
            None => a.by_layer.push((layer.to_string(), self_ns)),
        }
        a.covered_ns += self_ns;
    }
    a.by_layer.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
    a
}

impl Attribution {
    fn row(&self, name: &str) -> (&'static str, u64, u64, u64) {
        let found = self.by_name.iter().find(|(n, ..)| *n == name);
        found.copied().unwrap_or(("", 0, 0, 0))
    }

    pub fn total_ns(&self, name: &str) -> u64 {
        self.row(name).2
    }

    pub fn self_ns(&self, name: &str) -> u64 {
        self.row(name).3
    }

    #[cfg(test)]
    pub fn calls(&self, name: &str) -> u64 {
        self.row(name).1
    }
}

/// The trace file: one array of `[name, start_ns, end_ns, parent, job]`
/// rows (parent/job `-1` when absent) — compact enough for a hundred
/// thousand spans.
pub fn spans_to_json(workload: &str, spans: &[Span]) -> Json {
    let opt = |v: u64| Json::Num(if v == NONE { -1.0 } else { v as f64 });
    Json::obj([
        ("workload", Json::str(workload)),
        (
            "columns",
            Json::Arr(
                ["name", "start_ns", "end_ns", "parent", "job"]
                    .map(Json::str)
                    .to_vec(),
            ),
        ),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .map(|s| {
                        Json::Arr(vec![
                            Json::str(s.name),
                            Json::from(s.start_ns),
                            Json::from(s.end_ns),
                            opt(s.parent),
                            opt(s.job),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u64) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            job: NONE,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            span("ingest.service_tick", 0, 100, NONE),
            // Two adjacent children, the second with a child of its own.
            span("fabric.submit", 10, 30, 0),
            span("fabric.tick", 30, 90, 0),
            span("core.deploy", 40, 70, 2),
            // A second top-level span right after the first.
            span("loadgen.poll", 100, 110, NONE),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 30, 30, 10]);
        let a = attribute(&spans, 0..spans.len());
        assert_eq!(a.covered_ns, 110, "self times sum to the covered wall");
        assert_eq!(a.total_ns("fabric.tick"), 60);
        assert_eq!(a.self_ns("fabric.tick"), 30);
        assert_eq!(a.calls("fabric.submit"), 1);
        assert_eq!(
            a.by_layer,
            vec![
                ("fabric".to_string(), 50),
                ("core".to_string(), 30),
                ("ingest".to_string(), 20),
                ("loadgen".to_string(), 10),
            ]
        );
    }

    #[test]
    fn tracer_records_parents_and_jobs() {
        let t = Tracer::enabled(8);
        let outer = t.begin("ingest.client_submit", 7);
        t.span("fabric.submit", 7, || ());
        t.end(outer);
        t.span("loadgen.poll", NONE, || ());
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].parent, spans[0].job), (NONE, 7));
        assert_eq!((spans[1].parent, spans[1].job), (0, 7));
        assert_eq!(spans[2].parent, NONE);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let off = Tracer::disabled();
        assert_eq!(off.span("loadgen.poll", NONE, || 5), 5);
        assert_eq!(off.len(), 0);
    }

    #[test]
    fn trace_file_round_trips_through_the_parser() {
        let spans = vec![
            span("compile.parse", 5, 9, NONE),
            span("compile.place", 6, 8, 0),
        ];
        let text = spans_to_json("compile_large", &spans).to_pretty();
        let back = Json::parse(&text).unwrap();
        let rows = back.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].as_arr().unwrap()[3], Json::Num(0.0));
        assert_eq!(rows[0].as_arr().unwrap()[3], Json::Num(-1.0));
    }
}
