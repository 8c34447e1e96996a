//! Multi-tenant scheduling: many jobs share one chip through the runtime.
//!
//! ```text
//! cargo run --example runtime_scheduler
//! ```
//!
//! The paper lets an application "request the resources" it needs (§1);
//! `vlsi-runtime` arbitrates when several applications ask at once. This
//! demo submits a mixed batch — verified streaming kernels, a partitioned
//! basic-block program, idle capacity reservations — under the priority
//! policy, injects a defect mid-run, and prints the summary plus the
//! interesting lines of the event log.

use vlsi_processor::core::VlsiChip;
use vlsi_processor::runtime::{
    EventKind, JobSpec, JobState, Priority, Runtime, RuntimeConfig, Workload,
};
use vlsi_processor::topology::{Cluster, Coord};
use vlsi_processor::workloads::StreamKernel;

fn main() {
    let chip = VlsiChip::new(8, 8, Cluster::default());
    let mut rt = Runtime::new(chip, Box::new(Priority), RuntimeConfig::default());

    // A cluster goes bad at tick 3, while tenants occupy the die.
    rt.inject_defect_at(3, Coord::new(1, 1));

    // Streaming tenants: each carries its kernel, input, and the
    // expected output the runtime verifies on completion.
    let xs: Vec<u64> = (1..=16).collect();
    let axpy = rt.submit(
        JobSpec::for_stream(
            "axpy",
            4,
            StreamKernel::axpy(3, 5, 16),
            xs.clone(),
            StreamKernel::axpy_reference(3, 5, &xs),
        )
        .with_priority(2),
    );
    let horner = rt.submit(
        JobSpec::for_stream(
            "horner",
            6,
            StreamKernel::horner(&[2, 1, 4], 16),
            xs.clone(),
            StreamKernel::horner_reference(&[2, 1, 4], &xs),
        )
        .with_priority(5),
    );

    // The paper's Figure 7 conditional, partitioned into basic blocks and
    // lowered to guarded stages — each non-empty block gets its own
    // 4-cluster processor, and only the taken arm's is ever activated.
    let program = vlsi_processor::workloads::figure7::program();
    let mut env = std::collections::HashMap::new();
    env.insert("x".to_string(), 9i64);
    env.insert("y".to_string(), 4i64);
    let cond = rt.submit(JobSpec::for_blocks("figure7", program, vec![env], "z").with_priority(7));

    // Capacity reservations with a deadline: one feasible, one doomed.
    let hold = rt.submit(JobSpec::new("reserve", 8, Workload::Idle { ticks: 4 }));
    let doomed =
        rt.submit(JobSpec::new("doomed", 12, Workload::Idle { ticks: 10 }).with_deadline(1));

    let summary = rt.run_until_idle(100_000).expect("the batch drains");

    println!(
        "policy={} ticks={} completed={} failed={} makespan={} util={:.2}",
        summary.policy,
        summary.ticks,
        summary.completed,
        summary.failed,
        summary.makespan,
        summary.utilization
    );
    for (label, id) in [
        ("axpy", axpy),
        ("horner", horner),
        ("figure7", cond),
        ("reserve", hold),
        ("doomed", doomed),
    ] {
        let rec = rt.job(id).unwrap();
        match rec.state {
            JobState::Completed => println!(
                "  {label:>8}: completed, waited {} ticks, {} relocations",
                rec.stats.wait, rec.stats.relocations
            ),
            JobState::Failed => println!(
                "  {label:>8}: failed gracefully — {}",
                rec.failure.as_ref().unwrap()
            ),
            other => println!("  {label:>8}: {other:?}"),
        }
    }

    println!("event log highlights:");
    for e in rt.events() {
        match e.kind {
            EventKind::DefectInjected { .. }
            | EventKind::DefectRecovered { .. }
            | EventKind::Requeued { .. }
            | EventKind::Compacted { .. }
            | EventKind::Failed { .. }
            | EventKind::PoolWoken { .. } => println!("  t={:>3} {:?}", e.tick, e.kind),
            _ => {}
        }
    }

    assert_eq!(rt.job(axpy).unwrap().state, JobState::Completed);
    assert_eq!(rt.job(doomed).unwrap().state, JobState::Failed);
}
