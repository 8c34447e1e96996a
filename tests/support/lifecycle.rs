//! The processor-lifecycle oracle: every state write a chip makes is
//! recorded as a `core.lifecycle` trace instant named `"<from>><to>"` on
//! the processor's lane, and each one must be an edge of Figure 6(e).

use std::collections::{BTreeMap, BTreeSet};
use vlsi_processor::core::ProcessorId;
use vlsi_processor::runtime::Runtime;

/// Figure 6(e)'s six edges, written out here rather than taken from
/// `ProcState::can_transition`, so the oracle shares no code with what
/// it checks.
const EDGES: [(&str, &str); 6] = [
    ("release", "inactive"), // gather: switches programmed
    ("inactive", "active"),  // invoke: protections set
    ("active", "inactive"),  // clear protections
    ("active", "sleep"),     // wait for an event or timer
    ("sleep", "active"),     // wake
    ("inactive", "release"), // down-scale
];

/// Trace capacity for a run the oracle reads: no lifecycle instant may
/// be dropped.
pub const TRACE_CAPACITY: usize = 1 << 20;

/// Reads `rt`'s trace and asserts that every lifecycle instant is a
/// Figure 6(e) edge, that each processor's edges chain from `release`,
/// and that each chain ends in the state the chip reports (`release`
/// for a processor that is gone). Returns the distinct edges seen.
pub fn assert_figure_6e_paths(rt: &Runtime, label: &str) -> BTreeSet<(String, String)> {
    let telemetry = rt.telemetry();
    assert_eq!(
        telemetry.snapshot().dropped_spans(),
        0,
        "{label}: the trace dropped events, so the oracle cannot see every write"
    );
    let json = telemetry.trace_chrome_json();
    let mut at: BTreeMap<u32, String> = BTreeMap::new();
    let mut seen = BTreeSet::new();
    for event in json.split("},{") {
        if !event.contains("\"cat\":\"core.lifecycle\"") {
            continue;
        }
        let name = field(event, "\"name\":\"", '"');
        let lane: u32 = field(event, "\"tid\":", ',')
            .trim_end_matches('}')
            .parse()
            .unwrap_or_else(|_| panic!("{label}: lifecycle instant without a lane: {event}"));
        let (from, to) = name
            .split_once('>')
            .unwrap_or_else(|| panic!("{label}: lifecycle instant {name:?} is not from>to"));
        assert!(
            EDGES.contains(&(from, to)),
            "{label}: proc{lane} took {from} → {to}, which is not a Figure 6(e) edge"
        );
        let current = at.get(&lane).map_or("release", String::as_str);
        assert_eq!(
            from, current,
            "{label}: proc{lane} left {from} while its trace has it {current}"
        );
        at.insert(lane, to.to_string());
        seen.insert((from.to_string(), to.to_string()));
    }
    for (lane, last) in &at {
        let chip_says = rt
            .chip()
            .state(ProcessorId(*lane))
            .map_or_else(|_| "release".to_string(), |s| s.to_string());
        assert_eq!(
            *last, chip_says,
            "{label}: proc{lane}'s trace ends {last}, the chip says {chip_says}"
        );
    }
    seen
}

/// The text after `key` in `event`, up to `end` (or the end of `event`).
fn field<'a>(event: &'a str, key: &str, end: char) -> &'a str {
    let start = event
        .find(key)
        .map(|i| i + key.len())
        .unwrap_or_else(|| panic!("trace event without {key}: {event}"));
    let rest = &event[start..];
    &rest[..rest.find(end).unwrap_or(rest.len())]
}
