//! Chaos harness: seed-driven fault sweeps across every transport layer.
//!
//! The fixed seed × fault-rate matrix below is the CI chaos suite
//! (`ci.sh` runs this file as a dedicated step). The contract under
//! chaos is always the same three clauses:
//!
//! 1. **never panic or hang** — every run terminates inside its budget;
//! 2. **never silently wrong** — every operation either succeeds with
//!    verified data or surfaces a *typed* error;
//! 3. **bit-identical per seed** — the same seed replays the exact same
//!    outcome, faults included.

use vlsi_processor::core::VlsiChip;
use vlsi_processor::csd::DynamicCsd;
use vlsi_processor::faults::{Fault, FaultKind, FaultPlan, FaultPlanBuilder};
use vlsi_processor::noc::{NocError, NocNetwork};
use vlsi_processor::prng::Prng;
use vlsi_processor::runtime::mix::mixed_jobs;
use vlsi_processor::runtime::{
    EventKind, Fifo, JobSpec, JobState, Runtime, RuntimeConfig, Workload,
};
use vlsi_processor::telemetry::{report, TelemetryHandle};
use vlsi_processor::topology::{Cluster, Coord};

#[path = "support/ledger.rs"]
mod ledger;
#[path = "support/lifecycle.rs"]
mod lifecycle;
#[path = "support/terminal.rs"]
mod terminal;

/// The CI seed matrix: three seeds, three transient-fault rates.
const SEEDS: [u64; 3] = [11, 4242, 987_654_321];
const RATES: [f64; 3] = [0.005, 0.02, 0.08];

// --- NoC ---------------------------------------------------------------------

/// One deterministic NoC chaos run: 24 seed-driven worms on a 6×6 mesh
/// under a seed-driven fault plan. Returns a comparable digest.
#[allow(clippy::type_complexity)]
fn noc_chaos_run(
    seed: u64,
    rate: f64,
) -> (
    Vec<(vlsi_processor::noc::WormId, Coord, Vec<u64>)>,
    Vec<(vlsi_processor::noc::WormId, NocError)>,
    vlsi_processor::noc::NetworkStats,
    String,
) {
    let (w, h) = (6u16, 6u16);
    // Chaos runs with telemetry live: retransmission/misroute accounting
    // now lives in the registry, and its exports join the replay digest.
    let mut net = NocNetwork::with_telemetry(w, h, TelemetryHandle::active());
    // The horizon covers the batch's drain window (plus retransmission
    // backoff), so fault windows overlap live traffic.
    let plan = FaultPlanBuilder::new(seed)
        .grid(w, h)
        .horizon(512)
        .link_down_rate(rate)
        .link_corrupt_rate(rate)
        .router_stall_rate(rate / 2.0)
        .build();
    net.attach_fault_plan(plan);

    let mut rng = Prng::seed_from_u64(seed ^ 0xC0FF_EE00);
    let mut expected = std::collections::BTreeMap::new();
    for _ in 0..24 {
        let src = Coord::new(rng.gen_range(0..w), rng.gen_range(0..h));
        let dest = Coord::new(rng.gen_range(0..w), rng.gen_range(0..h));
        let len = rng.gen_range(0..8usize);
        let payload: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
        let worm = net.inject(src, dest, payload.clone()).unwrap();
        expected.insert(worm, (dest, payload));
    }
    // Clause 1: the drain budget bounds the hang.
    net.run_until_drained(2_000_000)
        .expect("chaos run must terminate");
    assert!(net.is_idle());

    // Clause 2: full accounting — delivered ∪ failed == injected, and
    // every delivered payload is exact (the checksum caught the rest).
    let mut delivered: Vec<_> = net
        .take_delivered()
        .into_iter()
        .map(|(p, _)| (p.worm, p.dest, p.payload))
        .collect();
    delivered.sort_by_key(|(w, ..)| *w);
    let failed = net.take_failed();
    assert_eq!(delivered.len() + failed.len(), expected.len());
    for (worm, dest, payload) in &delivered {
        let (exp_dest, exp_payload) = &expected[worm];
        assert_eq!(dest, exp_dest, "misdelivered worm");
        assert_eq!(payload, exp_payload, "silent corruption slipped through");
    }
    for (worm, err) in &failed {
        assert!(expected.contains_key(worm));
        assert!(
            matches!(err, NocError::Undeliverable { .. }),
            "failure must be typed: {err}"
        );
    }
    // The registry's view must agree with the harness's own accounting:
    // the counters mirror the struct stats, and the latency histogram
    // saw exactly the delivered worms.
    let snap = net.telemetry().snapshot();
    assert_eq!(
        snap.counter("noc.link_crossings"),
        net.stats().link_crossings
    );
    let latencies = snap.histogram("noc.latency").map_or(0, |h| h.count());
    assert_eq!(latencies, net.stats().worms_delivered);
    let digest = format!(
        "{}\n{}",
        snap.to_json(),
        net.telemetry().trace_chrome_json()
    );
    (delivered, failed, net.stats().clone(), digest)
}

#[test]
fn noc_chaos_sweep_never_hangs_or_lies() {
    for seed in SEEDS {
        for rate in RATES {
            noc_chaos_run(seed, rate);
        }
    }
}

#[test]
fn noc_chaos_replays_bit_identically_per_seed() {
    for seed in SEEDS {
        for rate in RATES {
            let a = noc_chaos_run(seed, rate);
            let b = noc_chaos_run(seed, rate);
            assert_eq!(a.0, b.0, "deliveries diverged (seed {seed}, rate {rate})");
            assert_eq!(a.1, b.1, "failures diverged (seed {seed}, rate {rate})");
            assert_eq!(a.2, b.2, "stats diverged (seed {seed}, rate {rate})");
            // Clause 3 extends to observability: snapshot and Chrome
            // trace exports are byte-identical per seed.
            assert_eq!(a.3, b.3, "telemetry diverged (seed {seed}, rate {rate})");
        }
    }
}

// --- CSD ---------------------------------------------------------------------

/// Seed-driven CSD chaos: random connect/disconnect traffic while the
/// fault plan kills segments mid-run. Invariants hold after every step;
/// every outcome is typed.
fn csd_chaos_run(seed: u64, rate: f64) -> (u64, u64, u64, u64) {
    let positions = 24;
    let channels = 6;
    let mut csd = DynamicCsd::new(positions, channels);
    let plan = FaultPlanBuilder::new(seed)
        .csd(channels, positions - 1)
        .csd_segment_rate(rate)
        .horizon(200)
        .build();

    let mut rng = Prng::seed_from_u64(seed ^ 0x5EED_CAFE);
    let mut live: Vec<vlsi_processor::csd::RouteId> = Vec::new();
    for t in 0..200u64 {
        let due: Vec<(usize, usize)> = plan.csd_segments_activating_at(t).collect();
        for (ch, seg) in due {
            let outcome = csd
                .fail_segment(ch, seg)
                .expect("in-range segment fault is typed, not a panic");
            if let Some(vlsi_processor::csd::SegmentFaultOutcome::Unroutable { route }) = outcome {
                live.retain(|id| *id != route.id);
            }
        }
        // Traffic: mostly connects, some disconnects.
        if rng.gen_bool(0.7) {
            let a = rng.gen_range(0..positions);
            let b = rng.gen_range(0..positions);
            if a != b {
                if let Ok(id) = csd.connect(a.min(b), a.max(b)) {
                    live.push(id);
                }
            }
        } else if !live.is_empty() {
            let i = rng.gen_range(0..live.len());
            let id = live.swap_remove(i);
            csd.disconnect(id).expect("live route disconnects cleanly");
        }
        csd.check_invariants()
            .unwrap_or_else(|e| panic!("invariant broke at t={t}: {e}"));
    }
    for id in live.drain(..) {
        csd.disconnect(id).unwrap();
    }
    csd.check_invariants().unwrap();
    assert_eq!(csd.live_routes(), 0);
    (
        csd.grant_count(),
        csd.rejection_count(),
        csd.segment_fault_count(),
        csd.rechain_count(),
    )
}

#[test]
fn csd_chaos_sweep_keeps_invariants() {
    for seed in SEEDS {
        for rate in RATES {
            let counters = csd_chaos_run(seed, rate);
            let replay = csd_chaos_run(seed, rate);
            assert_eq!(counters, replay, "seed {seed} rate {rate} diverged");
        }
    }
}

// --- Runtime / S-topology ----------------------------------------------------

/// Defects aimed at running tenants per [`runtime_chaos_run`]. The
/// seeded plan mostly lands on free or pooled clusters; these make sure
/// recovery under a running job is exercised in every run.
const AIMED_DEFECTS: usize = 3;

/// One deterministic runtime chaos run: a mixed tenant batch while
/// seed-driven switch faults land mid-run, stepped tick by tick with both
/// ledgers checked after every tick. At seeded ticks a defect is also
/// aimed at a cluster of a running job, to land on the next tick.
fn runtime_chaos_run(seed: u64, rate: f64) -> Runtime {
    // Telemetry stays live through every chaos run: recording must never
    // perturb the schedule, and the end-of-run report must render. The
    // trace keeps every event, so the lifecycle oracle can read it.
    let telemetry = TelemetryHandle::active();
    telemetry.set_trace_capacity(lifecycle::TRACE_CAPACITY);
    let chip = VlsiChip::with_telemetry(8, 8, Cluster::default(), telemetry);
    let mut rt = Runtime::new(chip, Box::new(Fifo), RuntimeConfig::default());
    let plan = FaultPlanBuilder::new(seed)
        .grid(8, 8)
        .horizon(120)
        .switch_stuck_rate(rate / 8.0) // per-switch; keep enough die alive
        .build();
    rt.attach_fault_plan(plan);
    for spec in mixed_jobs(seed, 18) {
        rt.submit(spec);
    }
    let label = format!("seed {seed} rate {rate}");
    let mut rng = Prng::seed_from_u64(seed ^ 0xDEFE_C700);
    let mut aimed = 0;
    for tick in 0.. {
        if rt.outstanding() == 0 {
            break;
        }
        assert!(tick < 500_000, "{label}: chaos batch must drain — no hang");
        rt.tick()
            .expect("a chaos tick surfaces failures as job events");
        ledger::assert_balanced(&rt, &format!("{label} tick {tick}"));
        if aimed < AIMED_DEFECTS && rng.gen_bool(0.25) {
            if let Some(coord) = cluster_of_a_running_job(&rt, &mut rng) {
                rt.inject_defect_at(rt.now() + 1, coord);
                aimed += 1;
            }
        }
    }
    rt
}

/// A seeded pick among the clusters of running jobs' processors that
/// the free space could take whole, so relocation has somewhere to go:
/// a processor, then one of its cells.
fn cluster_of_a_running_job(rt: &Runtime, rng: &mut Prng) -> Option<Coord> {
    let room = rt.chip().largest_gatherable();
    let victims: Vec<_> = rt
        .jobs()
        .filter(|j| j.state == JobState::Running)
        .flat_map(|j| &j.procs)
        .filter_map(|&p| rt.chip().processor(p).ok())
        .filter(|p| p.region.len() <= room)
        .collect();
    let cells: Vec<Coord> = rng.choose(&victims)?.region.cells().collect();
    rng.choose(&cells).copied()
}

#[test]
fn runtime_chaos_resolves_every_job_and_replays_identically() {
    for seed in SEEDS {
        for rate in RATES {
            let rt = runtime_chaos_run(seed, rate);
            // Clause 2: nothing in limbo — every job completed or
            // carries a typed failure, and its log says so exactly once.
            let label = format!("seed {seed} rate {rate}");
            terminal::assert_one_terminal_event(&rt, &label);
            // Recovery under a running job: at least one aimed defect
            // relocated its victim in place.
            let recovered = rt
                .events()
                .iter()
                .filter(|e| matches!(e.kind, EventKind::DefectRecovered { .. }))
                .count();
            assert!(recovered > 0, "{label}: no defect was recovered in place");
            // Every processor state write is a Figure 6(e) edge.
            lifecycle::assert_figure_6e_paths(&rt, &label);
            for rec in rt.jobs() {
                match rec.state {
                    JobState::Completed => assert!(rec.failure.is_none()),
                    JobState::Failed => assert!(rec.failure.is_some(), "{} untyped", rec.id),
                    other => panic!("job {} left {other:?}", rec.id),
                }
            }
            // Every consumed fault report maps to a defect on the die.
            assert_eq!(
                rt.stats().faults_reported as usize,
                rt.chip().defective_count(),
            );
            // The registry agrees with the runtime's own counters.
            let snap = rt.telemetry().snapshot();
            assert_eq!(
                snap.counter("runtime.faults_reported"),
                rt.stats().faults_reported
            );
            assert_eq!(snap.counter("runtime.submissions"), rt.stats().submitted);
            // Clause 3: the whole event log — and every telemetry
            // export — replays bit-identically.
            let replay = runtime_chaos_run(seed, rate);
            assert_eq!(rt.events(), replay.events(), "seed {seed} rate {rate}");
            assert_eq!(
                snap.to_json(),
                replay.telemetry().snapshot().to_json(),
                "telemetry snapshot diverged (seed {seed}, rate {rate})"
            );
            // The end-of-run report renders from any chaos snapshot.
            let table = report::render(&snap);
            assert!(table.contains("instrument"), "report must render a table");
        }
    }
}

/// A die kept nearly full: forty 6-cluster reservations queue for an
/// 8×8 die (ten fit, four clusters spare), while seed-driven switches
/// stick under them. A victim's relocation then usually finds no region,
/// and the job re-queues. Stepped tick by tick with both ledgers checked
/// after every tick.
fn full_die_chaos_run(seed: u64) -> Runtime {
    let telemetry = TelemetryHandle::active();
    telemetry.set_trace_capacity(lifecycle::TRACE_CAPACITY);
    let chip = VlsiChip::with_telemetry(8, 8, Cluster::default(), telemetry);
    let mut rt = Runtime::new(chip, Box::new(Fifo), RuntimeConfig::default());
    let plan = FaultPlanBuilder::new(seed)
        .grid(8, 8)
        .horizon(120)
        .switch_stuck_rate(0.05)
        .build();
    rt.attach_fault_plan(plan);
    for i in 0..40 {
        rt.submit(JobSpec::new(
            format!("hold-{i}"),
            6,
            Workload::Idle { ticks: 30 },
        ));
    }
    let label = format!("full die, seed {seed}");
    for tick in 0.. {
        if rt.outstanding() == 0 {
            break;
        }
        assert!(tick < 500_000, "{label}: the batch must drain — no hang");
        rt.tick()
            .expect("a chaos tick surfaces failures as job events");
        ledger::assert_balanced(&rt, &format!("{label} tick {tick}"));
    }
    rt
}

#[test]
fn relocation_with_nowhere_to_go_requeues_and_keeps_the_ledgers() {
    for seed in SEEDS {
        let rt = full_die_chaos_run(seed);
        let label = format!("full die, seed {seed}");
        terminal::assert_one_terminal_event(&rt, &label);
        lifecycle::assert_figure_6e_paths(&rt, &label);
        // A job re-queues only when `relocate` found nowhere to go.
        let requeued = rt
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Requeued { .. }))
            .count();
        assert!(requeued > 0, "{label}: no relocation ran out of room");
        assert_eq!(rt.stats().completed, 40, "{label}: every hold completes");
    }
}

#[test]
fn a_relocation_with_nowhere_to_go_keeps_every_cell_it_lists() {
    // The runtime releases a job whose relocation failed within the same
    // call, so its per-tick ledger cannot tell whether `relocate` gave up
    // with the processor intact. Here nothing releases it: the die is
    // filled with 4-cluster processors, so no defect's victim has
    // anywhere to go, and the occupancy ledger runs after every attempt.
    for seed in SEEDS {
        let mut chip = VlsiChip::new(6, 6, Cluster::default());
        while chip.gather_any(4).is_ok() {}
        let mut rng = Prng::seed_from_u64(seed);
        let mut nowhere = 0;
        for step in 0..8 {
            let c = Coord::new(rng.gen_range(0..6), rng.gen_range(0..6));
            let victim = chip.processor_at(c);
            chip.mark_defective(c);
            if let Some(id) = victim {
                nowhere += usize::from(chip.relocate(id).is_err());
            }
            ledger::assert_occupancy(&chip, &format!("seed {seed} step {step}"));
        }
        assert!(nowhere > 0, "seed {seed}: no relocation ran out of room");
    }
}

/// The acceptance chain, end to end through the public API: a scheduled
/// switch fault is reported by the topology layer, the runtime marks the
/// cluster defective, and the victim tenant is relocated or re-queued —
/// all visible, in order, in the event log.
#[test]
fn switch_fault_chain_is_visible_end_to_end() {
    let chip = VlsiChip::new(8, 8, Cluster::default());
    let mut rt = Runtime::new(chip, Box::new(Fifo), RuntimeConfig::default());
    let job = rt.submit(vlsi_processor::runtime::JobSpec::new(
        "victim",
        4,
        vlsi_processor::runtime::Workload::Idle { ticks: 30 },
    ));
    rt.tick().unwrap(); // admitted; the first gather starts at the origin
    let hit = Coord::new(0, 0);
    assert!(rt.chip().processor_at(hit).is_some());

    let mut plan = FaultPlan::none();
    plan.push(Fault::permanent(FaultKind::SwitchStuck { at: hit }, 3));
    rt.attach_fault_plan(plan);
    rt.run_until_idle(1_000).unwrap();

    assert!(rt.chip().is_switch_stuck(hit));
    assert!(rt.chip().is_defective(hit));
    assert_eq!(rt.job(job).unwrap().state, JobState::Completed);

    let pos = |pred: fn(&EventKind) -> bool| {
        rt.events()
            .iter()
            .position(|e| pred(&e.kind))
            .expect("chain link missing from the event log")
    };
    let reported = pos(|k| {
        matches!(
            k,
            EventKind::FaultReported {
                layer: "s-topology",
                ..
            }
        )
    });
    let defected = pos(|k| {
        matches!(
            k,
            EventKind::DefectInjected {
                victim: Some(_),
                ..
            }
        )
    });
    let recovered = pos(|k| {
        matches!(
            k,
            EventKind::DefectRecovered { .. } | EventKind::Requeued { .. }
        )
    });
    assert!(reported < defected && defected < recovered);
    assert_eq!(rt.chip().processor_at(hit), None, "tenant moved off");
}
