//! Integration: the multi-tenant runtime scheduler end to end.
//!
//! The acceptance workload: a mixed batch of 50+ jobs (verified streaming
//! kernels, basic-block programs, idle reservations; varied priorities
//! and deadlines) runs to completion deterministically under all three
//! scheduling policies, surviving injected defects and failing
//! deadline-doomed jobs gracefully.

use vlsi_processor::core::VlsiChip;
use vlsi_processor::runtime::mix::mixed_jobs;
use vlsi_processor::runtime::{
    EventKind, Fifo, JobOutput, JobSpec, JobState, Priority, Runtime, RuntimeConfig, RuntimeError,
    SchedPolicy, SmallestFitBackfill, Workload,
};
use vlsi_processor::telemetry::TelemetryHandle;
use vlsi_processor::topology::{Cluster, Coord};
use vlsi_processor::workloads::StreamKernel;

#[path = "support/lifecycle.rs"]
mod lifecycle;
#[path = "support/terminal.rs"]
mod terminal;

const SEED: u64 = 2012;
const JOBS: usize = 54;

fn policies() -> Vec<Box<dyn SchedPolicy>> {
    vec![
        Box::new(Fifo),
        Box::new(Priority),
        Box::new(SmallestFitBackfill),
    ]
}

/// The acceptance run: the mixed batch, three mid-run defects, and one
/// deadline-doomed straggler, on an 8×8 chip.
fn acceptance_run(policy: Box<dyn SchedPolicy>) -> Runtime {
    let mut rt = acceptance_batch(policy, TelemetryHandle::active());
    rt.run_until_idle(500_000).expect("the mix must drain");
    terminal::assert_one_terminal_event(&rt, rt.summary().policy);
    rt
}

/// The acceptance run's runtime, batch submitted and not yet run.
fn acceptance_batch(policy: Box<dyn SchedPolicy>, telemetry: TelemetryHandle) -> Runtime {
    // The acceptance bar includes telemetry: the whole batch runs with a
    // live registry, which must never perturb the schedule.
    let chip = VlsiChip::with_telemetry(8, 8, Cluster::default(), telemetry);
    let mut rt = Runtime::new(chip, policy, RuntimeConfig::default());
    // Defects land while the chip is under load; coordinates in the
    // middle of the die are almost always owned by some tenant then.
    rt.inject_defect_at(4, Coord::new(1, 1));
    rt.inject_defect_at(8, Coord::new(5, 4));
    rt.inject_defect_at(12, Coord::new(3, 6));
    rt.inject_defect_at(18, Coord::new(6, 2));
    rt.inject_defect_at(26, Coord::new(2, 5));
    for spec in mixed_jobs(SEED, JOBS) {
        rt.submit(spec);
    }
    // A job that cannot possibly meet its deadline: graceful failure.
    rt.submit(JobSpec::new("doomed", 16, Workload::Idle { ticks: 10 }).with_deadline(1));
    rt
}

#[test]
fn every_lifecycle_write_in_the_acceptance_run_is_a_figure_6e_edge() {
    let mut seen = std::collections::BTreeSet::new();
    for policy in policies() {
        let name = policy.name();
        let telemetry = TelemetryHandle::active();
        telemetry.set_trace_capacity(lifecycle::TRACE_CAPACITY);
        let mut rt = acceptance_batch(policy, telemetry);
        // The oracle reads the trace before the run's verdict, so a bad
        // write is reported as the edge it took, not as whatever error
        // it later caused.
        let drained = rt.run_until_idle(500_000);
        seen.extend(lifecycle::assert_figure_6e_paths(&rt, name));
        drained.expect("the mix must drain");
    }
    // Gathers, runs, idles, pooled sleeps, wakes and releases: the batch
    // takes every edge, so the oracle is exercised on each.
    assert_eq!(seen.len(), 6, "edges taken: {seen:?}");
}

#[test]
fn mixed_workload_drains_under_every_policy() {
    for policy in policies() {
        let name = policy.name();
        let rt = acceptance_run(policy);
        let summary = rt.summary();
        assert_eq!(
            summary.completed + summary.failed,
            (JOBS + 1) as u64,
            "{name}: every job resolves"
        );
        assert!(
            summary.completed >= (JOBS as u64 * 3) / 4,
            "{name}: most jobs complete (got {})",
            summary.completed
        );
        // Completed stream jobs carry their (verified) outputs; failed
        // jobs carry typed errors; nothing is left in limbo.
        for rec in rt.jobs() {
            match rec.state {
                JobState::Completed => {
                    assert!(rec.output.is_some(), "{name}: {} lacks output", rec.id);
                    assert!(rec.failure.is_none());
                }
                JobState::Failed => {
                    assert!(rec.failure.is_some(), "{name}: {} lacks error", rec.id)
                }
                other => panic!("{name}: {} still {other:?}", rec.id),
            }
        }
        // After draining the warm pool, every non-defective cluster is
        // free again — nothing leaked across 55 jobs and 5 defects.
        let mut rt = rt;
        assert_eq!(rt.outstanding(), 0, "{name}");
        rt.drain_pool().unwrap();
        assert_eq!(rt.chip().defective_count(), 5, "{name}: defects stuck");
        assert_eq!(
            rt.chip().free_clusters() + rt.chip().defective_count(),
            64,
            "{name}: clusters leaked"
        );
    }
}

#[test]
fn event_log_is_identical_for_identical_seeds() {
    for policy in ["fifo", "priority", "backfill"] {
        let make = || -> Box<dyn SchedPolicy> {
            match policy {
                "fifo" => Box::new(Fifo),
                "priority" => Box::new(Priority),
                _ => Box::new(SmallestFitBackfill),
            }
        };
        let a = acceptance_run(make());
        let b = acceptance_run(make());
        assert_eq!(
            a.events(),
            b.events(),
            "{policy}: same seed must replay the exact same event log"
        );
        assert!(a.events().len() > 2 * JOBS, "{policy}: log too thin");
        assert_eq!(
            a.telemetry().snapshot().to_json(),
            b.telemetry().snapshot().to_json(),
            "{policy}: same seed must replay the exact same telemetry"
        );
    }
}

#[test]
fn defects_are_injected_and_survived_in_the_mix() {
    for policy in policies() {
        let name = policy.name();
        let rt = acceptance_run(policy);
        let injected = rt
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::DefectInjected { .. }))
            .count();
        assert_eq!(injected, 5, "{name}");
        // At least one defect hit a live tenant and was handled — either
        // relocated in place or re-queued for a fresh gather.
        let handled = rt.events().iter().any(|e| {
            matches!(
                e.kind,
                EventKind::DefectRecovered { .. } | EventKind::Requeued { .. }
            )
        });
        assert!(handled, "{name}: no defect recovery exercised");
        // Victims of recovery still resolved.
        for e in rt.events() {
            if let Some(job) = e.job() {
                let rec = rt.job(job).unwrap();
                assert_ne!(rec.state, JobState::Running, "{name}: {job} unresolved");
            }
        }
    }
}

#[test]
fn deadline_doomed_job_fails_gracefully_in_the_mix() {
    for policy in policies() {
        let name = policy.name();
        let rt = acceptance_run(policy);
        let doomed = rt
            .jobs()
            .find(|r| r.spec.name == "doomed")
            .expect("submitted");
        assert_eq!(doomed.state, JobState::Failed, "{name}");
        assert!(
            matches!(
                doomed.failure,
                Some(RuntimeError::DeadlineMissed { deadline: 1, .. })
            ),
            "{name}: {:?}",
            doomed.failure
        );
        assert!(
            rt.events().iter().any(|e| matches!(
                e.kind,
                EventKind::Failed { job, reason: "deadline" } if job == doomed.id
            )),
            "{name}: no deadline-failure event"
        );
    }
}

#[test]
fn a_defect_under_a_stream_job_relocates_it_and_keeps_its_verified_output() {
    // A single long-held stream job; a defect lands inside its region
    // while the job holds it. The runtime must relocate the processor,
    // and the job still completes with the kernel's reference output.
    let chip = VlsiChip::new(8, 8, Cluster::default());
    let config = RuntimeConfig {
        cycles_per_tick: 1, // stretch the hold so the defect lands inside it
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::new(chip, Box::new(Fifo), config);
    let xs: Vec<u64> = (1..=24).collect();
    let expected = StreamKernel::horner_reference(&[3, 1, 2, 7], &xs);
    let job = rt.submit(JobSpec::for_stream(
        "victim",
        4,
        StreamKernel::horner(&[3, 1, 2, 7], 24),
        xs.clone(),
        expected.clone(),
    ));
    // The first gather on an empty chip starts at the origin.
    rt.inject_defect_at(2, Coord::new(0, 0));
    rt.run_until_idle(100_000).unwrap();

    let rec = rt.job(job).unwrap();
    assert_eq!(rec.state, JobState::Completed);
    assert_eq!(rec.stats.relocations, 1);
    let words: Vec<i64> = expected.iter().map(|&y| y as i64).collect();
    assert_eq!(rec.output, Some(JobOutput::Staged(vec![words])));
    assert!(rt.events().iter().any(|e| matches!(
        e.kind,
        EventKind::DefectRecovered { job: j, .. } if j == job
    )));
    // The relocated region avoids the defective cluster.
    assert!(rt.chip().is_defective(Coord::new(0, 0)));
    assert_eq!(rt.chip().processor_at(Coord::new(0, 0)), None);
}

#[test]
fn policies_disagree_on_ordering_but_not_on_results() {
    // Same batch, three policies: completed stream outputs are identical
    // (they are functions of the job, not the schedule), while admission
    // order differs between FIFO and backfill under contention.
    let runs: Vec<Runtime> = policies().into_iter().map(acceptance_run).collect();
    let admission_orders: Vec<Vec<_>> = runs
        .iter()
        .map(|rt| {
            rt.events()
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::Admitted { job, .. } => Some(job),
                    _ => None,
                })
                .collect()
        })
        .collect();
    assert_ne!(
        admission_orders[0], admission_orders[2],
        "fifo and backfill should order a contended mix differently"
    );
    for rt in &runs {
        for rec in rt.jobs() {
            if rec.state == JobState::Completed {
                let baseline = runs[0].job(rec.id).unwrap();
                if baseline.state == JobState::Completed {
                    assert_eq!(rec.output, baseline.output, "{} diverged", rec.id);
                }
            }
        }
    }
}

/// A starved request that no compaction can make fit: fragmentation is
/// high and enough clusters are free in total, but the chip's compaction
/// plan says the retry would still fail. Every attempt backs off without
/// compacting — no `Compacted` event, no worm, no relocation.
#[test]
fn a_compaction_that_cannot_admit_is_never_committed() {
    use vlsi_processor::core::ProcState;
    let chip = VlsiChip::with_telemetry(8, 8, Cluster::default(), TelemetryHandle::active());
    // One cycle per tick: the blocks tenant below holds its processors
    // (Inactive between runs — compaction candidates) for hundreds of
    // ticks instead of a handful.
    let config = RuntimeConfig {
        pool_ttl: None,
        cycles_per_tick: 1,
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::new(chip, Box::new(Fifo), config);
    let mut rng = vlsi_processor::prng::Prng::seed_from_u64(SEED);
    let case = vlsi_processor::workloads::jobmix::block_case(&mut rng);
    rt.submit(JobSpec::for_blocks(
        "blocks",
        case.program,
        case.datasets,
        case.result_var,
    ));
    // 2×2 reservations tile the rest of the die; every other one is
    // short, so their release leaves free columns between long tenants.
    let idle = |ticks| JobSpec::new("idle", 4, Workload::Idle { ticks });
    for i in 0..12 {
        rt.submit(idle(if i % 2 == 0 { 2 } else { 300 }));
    }
    for _ in 0..6 {
        rt.tick().unwrap();
    }
    assert!(
        rt.chip()
            .processors()
            .any(|p| p.state == ProcState::Inactive),
        "the blocks tenant's processors are compaction candidates"
    );
    // Three 2×6 columns are free: 24 clusters, never 16 in one region.
    let starved =
        rt.submit(JobSpec::new("starved", 16, Workload::Idle { ticks: 1 }).with_max_retries(4));
    let cycles = rt.chip().metrics().noc_cycles;
    let frag = rt.chip().fragmentation();
    for _ in 0..80 {
        rt.tick().unwrap();
    }
    assert!(matches!(
        rt.job(starved).unwrap().failure,
        Some(RuntimeError::RetriesExhausted { attempts: 5, .. })
    ));
    assert!(frag > 0.35, "the threshold alone would compact: {frag}");

    let refused = rt
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::GatherFailed { job, .. } if job == starved))
        .count();
    assert_eq!(refused, 4, "every starved attempt but the last backs off");
    let compacted = rt
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Compacted { .. }))
        .count();
    assert_eq!(compacted, 0, "a futile compaction is never committed");
    assert_eq!(rt.stats().compactions, 0);
    let snap = rt.telemetry().snapshot();
    assert_eq!(snap.counter("core.compactions"), 0);
    assert_eq!(snap.counter("core.relocations"), 0);
    assert_eq!(
        rt.chip().metrics().noc_cycles,
        cycles,
        "no configuration worm was injected"
    );
}

/// `core.relocations` counts processors that actually moved: every one
/// is either a compaction move the log reports or a defect recovery.
/// A chip that re-programs processors where they stand would count more
/// — ci.sh prints these lines so that regression shows as a count.
#[test]
fn relocations_in_the_acceptance_run_are_all_moves() {
    for policy in policies() {
        let name = policy.name();
        let rt = acceptance_run(policy);
        let moved: u64 = rt
            .events()
            .iter()
            .map(|e| match e.kind {
                EventKind::Compacted { moved, .. } => moved as u64,
                _ => 0,
            })
            .sum();
        let recovered = rt.stats().relocations;
        let snap = rt.telemetry().snapshot();
        let relocations = snap.counter("core.relocations");
        println!(
            "{name}: core.relocations {relocations} = compaction moved {moved} + defect \
             recoveries {recovered} ({} compactions)",
            snap.counter("core.compactions")
        );
        assert_eq!(relocations, moved + recovered, "{name}");
    }
}

/// Four-cluster stages, several per job, far more than 64 clusters in
/// all, with odd-sized reservations of uneven length in between that
/// leave free clusters no 2×2 fits — run to completion.
fn contended_staged_run(policy: Box<dyn SchedPolicy>) -> Runtime {
    let chip = VlsiChip::with_telemetry(8, 8, Cluster::default(), TelemetryHandle::active());
    let mut rt = Runtime::new(chip, policy, RuntimeConfig::default());
    let mut rng = vlsi_processor::prng::Prng::seed_from_u64(SEED);
    for i in 0..40 {
        let case = vlsi_processor::workloads::jobmix::block_case(&mut rng);
        let spec = JobSpec::for_blocks(
            format!("blocks-{i}"),
            case.program,
            case.datasets,
            case.result_var,
        );
        rt.submit(spec.with_max_retries(64));
        let (clusters, ticks) = ([3, 5, 7][i % 3], 2 + (i as u64 * 5) % 23);
        rt.submit(
            JobSpec::new(format!("idle-{i}"), clusters, Workload::Idle { ticks })
                .with_max_retries(64),
        );
    }
    rt.run_until_idle(500_000).expect("the run must drain");
    assert_eq!(rt.summary().failed, 0, "{}", rt.summary().policy);
    rt
}

/// `core.gathers` counts regions a job went on to use: admission plans a
/// staged job's regions on the occupancy index and programs them only
/// when every stage fits, so each gather is one processor of an
/// `Admitted` event and every processor still gathered at the end is
/// resident. A scheduler that programs regions it is about to tear down
/// counts more — ci.sh prints these lines so that shows as a count.
#[test]
fn gathers_in_a_contended_staged_run_are_all_used() {
    for policy in policies() {
        let name = policy.name();
        let rt = contended_staged_run(policy);
        let (mut used, mut refused) = (0u64, 0u64);
        for e in rt.events() {
            match &e.kind {
                EventKind::Admitted {
                    procs,
                    pool_hit: false,
                    ..
                } => used += procs.len() as u64,
                EventKind::GatherFailed { .. } => refused += 1,
                _ => {}
            }
        }
        let snap = rt.telemetry().snapshot();
        let (gathers, releases) = (snap.counter("core.gathers"), snap.counter("core.releases"));
        let resident = rt.chip().processors().count() as u64;
        println!(
            "{name}: core.gathers {gathers} = admitted regions {used} ({refused} refused \
             attempts programmed nothing); core.releases {releases} + resident {resident}"
        );
        assert!(refused > 0, "{name}: the run must be contended");
        assert_eq!(gathers, used, "{name}: every gather is an admitted region");
        assert_eq!(gathers - releases, resident, "{name}");
    }
}

/// The runtime compacts only when the chip's compaction plan says the
/// retry fits, so every `Compacted` event is followed at once by the
/// retried job's `Admitted` event. A runtime that compacts on
/// fragmentation alone logs compactions whose retry backs off — ci.sh
/// prints these lines so that shows as a count.
#[test]
fn compactions_in_a_contended_staged_run_are_all_followed_by_an_admission() {
    let mut total = 0;
    for policy in policies() {
        let name = policy.name();
        let rt = contended_staged_run(policy);
        let events: Vec<_> = rt.events().iter().collect();
        let mut admitted = 0u64;
        let mut compacted = 0u64;
        for (i, e) in events.iter().enumerate() {
            if let EventKind::Compacted { .. } = e.kind {
                compacted += 1;
                let next = events.get(i + 1).map(|n| &n.kind);
                admitted += u64::from(matches!(next, Some(EventKind::Admitted { .. })));
            }
        }
        let snap = rt.telemetry().snapshot();
        let compactions = snap.counter("core.compactions");
        println!(
            "{name}: core.compactions {compactions} = compactions followed by an admission \
             {admitted} ({} refused attempts)",
            rt.stats().failed_gathers
        );
        assert_eq!(compactions, compacted, "{name}: every compaction is logged");
        assert_eq!(admitted, compacted, "{name}: every compaction admits");
        total += compacted;
    }
    assert!(total > 0, "the runs must compact");
}
