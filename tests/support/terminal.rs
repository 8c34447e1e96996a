//! An assertion over a runtime's event log, in the DVS paper's style of
//! checking properties over traces rather than end states: every job
//! reaches exactly one terminal event.

use std::collections::BTreeMap;
use vlsi_processor::runtime::{EventKind, JobId, Runtime};

/// Asserts that the log dropped nothing, so it holds every job's whole
/// life, and that every job `Submitted` in it reaches exactly one
/// `Completed`, `Failed` or `MigratedOut` event — and no job reaches one
/// without having been submitted. `label` names the run on a failure.
pub fn assert_one_terminal_event(rt: &Runtime, label: &str) {
    assert_eq!(
        rt.dropped_events(),
        0,
        "{label}: the event log dropped events"
    );
    let mut terminals: BTreeMap<JobId, u32> = BTreeMap::new();
    for e in rt.events() {
        match e.kind {
            EventKind::Submitted { job, .. } => {
                let fresh = terminals.insert(job, 0).is_none();
                assert!(fresh, "{label}: {job} submitted twice");
            }
            EventKind::Completed { job, .. }
            | EventKind::Failed { job, .. }
            | EventKind::MigratedOut { job, .. } => match terminals.get_mut(&job) {
                Some(count) => *count += 1,
                None => panic!("{label}: {job} ended without being submitted"),
            },
            _ => {}
        }
    }
    for (job, count) in terminals {
        assert_eq!(count, 1, "{label}: {job} reached {count} terminal events");
    }
}
