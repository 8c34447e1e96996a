//! Integration: parallel execution is bit-identical to serial.
//!
//! The `vlsi-par` pool uses a *static* task→worker assignment and every
//! parallel section in the stack (the sharded NoC tick, the cluster's
//! chip→task mapping) commits cross-shard effects in a fixed serial
//! order — so a run at 2 or 8 threads must reproduce the serial run
//! byte for byte: event logs, telemetry exports, delivered lists,
//! checksums, everything. This file is the cross-layer pin: the
//! observable tests compare whole runs across thread counts, and the
//! digest tests hold every hot-path workload to one literal text, which
//! also catches drift across processes and commits.

#[path = "support/hotpath.rs"]
mod hotpath;

use hotpath::{
    chaos_mix, cluster_4x, cluster_mix, compile_corpus, digest, gather_release_churn, noc_storm,
    sched_acceptance, soa_sweep, staged_pipeline, ACCEPT_JOBS,
};
use vlsi_processor::noc::NocNetwork;
use vlsi_processor::par::Pool;
use vlsi_processor::prng::Prng;
use vlsi_processor::telemetry::TelemetryHandle;
use vlsi_processor::topology::Coord;

const THREADS: [usize; 3] = [1, 2, 8];

/// Worms in the faulted storm.
const FAULT_STORM_WORMS: usize = 240;

/// `digest` at seed 2012. Identical at every thread count and in debug
/// and release builds; a change that moves a line must say which and why.
const PINNED_DIGEST: &str = "\
seed 2012
cluster_64x64x4 completed 160
cluster_64x64x4 events_fnv 0xce5cd62eb2e1ff2b
cluster_64x64x4 telemetry_fnv 0x2103f132bda96db6
noc_storm_32x32_sharded digest_fnv 0xd90ee64c4fd007bc
accept55_fifo event_log_fnv 0xcf4554129154eef1
chaos_mix_64x64 event_log_fnv 0x7237d56e3a78fdf4
cluster_4x_32x32 completed 30
cluster_4x_32x32 fabric_messages 29
cluster_4x_32x32 digest_fnv 0xa0ded45fa1eb55c4
ingest_open_loop_4x arrivals 1800
ingest_open_loop_4x accepted 404
ingest_open_loop_4x completed 376
ingest_open_loop_4x digest_fnv 0xf985072a0f83e169
compile_corpus_12 graphs 12
compile_corpus_12 completed 12
compile_corpus_12 digest_fnv 0x914c0421495b26f3
soa_sweep_1024ap lanes 1024
soa_sweep_1024ap digest_soa 0x5e9c7284cd700697
chaos_mix_128x128 event_log_fnv 0x19c6178a5ec5767b
staged_pipeline datasets 384
staged_pipeline digest_seq 0x2ee45a612cb3e16f
staged_pipeline digest_pipe 0x2ee45a612cb3e16f
";

/// Runs the digest at `threads` and holds it to [`PINNED_DIGEST`],
/// printing the actual text on a mismatch.
fn assert_digest_is_pinned(threads: usize) {
    let text = digest(threads);
    // The Fig. 7(d) wavefront: datasets pushed through one at a time must
    // come out byte-identical to the same datasets overlapped in one
    // wavefront.
    let value = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .unwrap_or_else(|| panic!("digest has no `{key}` line:\n{text}"))
            .to_string()
    };
    assert_eq!(
        value("staged_pipeline digest_seq "),
        value("staged_pipeline digest_pipe "),
        "pipelined outputs must match the sequential walk ({threads} threads)"
    );
    assert!(
        text == PINNED_DIGEST,
        "digest at {threads} thread(s) differs from the pinned text; actual:\n{text}"
    );
}

#[test]
fn digest_at_one_thread_matches_the_pinned_text() {
    assert_digest_is_pinned(1);
}

#[test]
fn digest_at_eight_threads_matches_the_pinned_text() {
    assert_digest_is_pinned(8);
}

/// A seed-driven storm on a sharded mesh, returning everything
/// observable: the delivered (packet, latency) list, the failure list,
/// final stats, and the full telemetry export.
fn storm_observables(threads: usize, seed: u64, worms: usize) -> String {
    let (w, h) = (16u16, 16u16);
    let mut net = NocNetwork::with_telemetry(w, h, TelemetryHandle::active());
    net.set_parallel(Pool::new(threads), 0);
    let mut rng = Prng::seed_from_u64(seed);
    for _ in 0..worms {
        let src = Coord::new(rng.gen_range(0..w), rng.gen_range(0..h));
        let dest = Coord::new(rng.gen_range(0..w), rng.gen_range(0..h));
        let payload: Vec<u64> = (0..rng.gen_range(1..10u64)).collect();
        net.inject(src, dest, payload).unwrap();
    }
    net.run_until_drained(4_000_000).expect("storm must drain");
    format!(
        "{:?}\n{:?}\n{:?}\n{}",
        net.take_delivered(),
        net.take_failed(),
        net.stats(),
        net.telemetry().snapshot().to_json(),
    )
}

#[test]
fn sharded_noc_storm_is_bit_identical_across_thread_counts() {
    for seed in [3, 2012] {
        let serial = storm_observables(1, seed, 96);
        for threads in THREADS {
            assert_eq!(
                storm_observables(threads, seed, 96),
                serial,
                "seed {seed}, {threads} threads"
            );
        }
    }
}

#[test]
fn cluster_mix_is_bit_identical_across_thread_counts() {
    let serial = cluster_mix(1, 3);
    assert!(serial.0 > 0, "the cluster must complete jobs");
    for threads in THREADS {
        assert_eq!(cluster_mix(threads, 3), serial, "{threads} threads");
    }
}

#[test]
fn bench_storm_digest_matches_across_thread_counts() {
    let serial = noc_storm(1);
    for threads in THREADS {
        assert_eq!(noc_storm(threads), serial, "{threads} threads");
    }
    // Determinism also means replay: the same thread count twice.
    assert_eq!(noc_storm(8), serial);
}

#[test]
fn fault_storm_replays_under_sharding() {
    // The faulted acceptance storm uses retransmission (purges, replays)
    // — the hardest path to keep shard-count-invariant. Compare the
    // serial NoC against an 8-way sharded one on the exact same plan.
    use vlsi_processor::faults::FaultPlanBuilder;
    let run = |threads: usize| {
        let (w, h) = (8u16, 8u16);
        let mut net = NocNetwork::with_telemetry(w, h, TelemetryHandle::active());
        net.set_parallel(Pool::new(threads), 0);
        let plan = FaultPlanBuilder::new(2012)
            .grid(w, h)
            .horizon(192)
            .link_down_rate(0.05)
            .link_corrupt_rate(0.05)
            .permanent_fraction(0.0)
            .build();
        net.attach_fault_plan(plan);
        let mut rng = Prng::seed_from_u64(2012);
        let mut injected = 0;
        while injected < FAULT_STORM_WORMS {
            for _ in 0..10.min(FAULT_STORM_WORMS - injected) {
                let src = Coord::new(rng.gen_range(0..w), rng.gen_range(0..h));
                let dest = Coord::new(rng.gen_range(0..w), rng.gen_range(0..h));
                let payload: Vec<u64> = (0..rng.gen_range(8..16u64)).collect();
                net.inject(src, dest, payload).unwrap();
                injected += 1;
            }
            for _ in 0..8 {
                net.tick();
            }
        }
        net.run_until_drained(4_000_000).expect("must drain");
        format!(
            "{:?}\n{:?}\n{}",
            net.take_delivered(),
            net.stats(),
            net.telemetry().snapshot().to_json(),
        )
    };
    let serial = run(1);
    for threads in THREADS {
        assert_eq!(run(threads), serial, "{threads} threads");
    }
}

/// A cross-chip traffic storm on a 2×2 torus of 16×16 dies: 96
/// seed-driven sends between random chips/routers, drained through the
/// two-phase fabric tick. Returns every observable: deliveries,
/// failures, fabric stats, and the merged telemetry export.
fn fabric_storm_observables(threads: usize, seed: u64, kill_a_chip: bool) -> String {
    use vlsi_processor::fabric::{ClusterNetwork, ClusterTopology, FabricConfig};
    let (w, h) = (16u16, 16u16);
    let mut net = ClusterNetwork::with_telemetry(
        ClusterTopology::torus(2, 2),
        (w, h),
        Pool::new(threads),
        FabricConfig::default(),
        TelemetryHandle::active(),
    );
    let mut rng = Prng::seed_from_u64(seed);
    for _ in 0..96 {
        let src_chip = rng.gen_range(0..4u16) as usize;
        let dst_chip = rng.gen_range(0..4u16) as usize;
        let src = Coord::new(rng.gen_range(0..w), rng.gen_range(0..h));
        let dst = Coord::new(rng.gen_range(0..w), rng.gen_range(0..h));
        let payload: Vec<u64> = (0..rng.gen_range(1..8u64)).collect();
        net.send(src_chip, src, dst_chip, dst, payload).unwrap();
    }
    if kill_a_chip {
        // Mid-storm whole-chip failure: in-transit messages reroute or
        // fail typed, and the remaining traffic must still drain.
        for _ in 0..2 {
            net.tick();
        }
        net.fail_chip(3);
    }
    let mut ticks = 0;
    while !net.is_idle() {
        net.tick();
        ticks += 1;
        assert!(ticks < 10_000, "fabric storm must never hang");
    }
    format!(
        "{:?}\n{:?}\n{:?}\n{}",
        net.take_delivered(),
        net.take_failed(),
        net.stats(),
        net.merged_telemetry().snapshot().to_json(),
    )
}

#[test]
fn cross_chip_storm_is_bit_identical_across_thread_counts() {
    for seed in [7, 2012] {
        let serial = fabric_storm_observables(1, seed, false);
        assert!(serial.contains("delivered"), "storm must deliver");
        for threads in THREADS {
            assert_eq!(
                fabric_storm_observables(threads, seed, false),
                serial,
                "seed {seed}, {threads} threads"
            );
        }
    }
}

#[test]
fn cross_chip_storm_with_chip_failure_is_bit_identical() {
    let serial = fabric_storm_observables(1, 2012, true);
    for threads in THREADS {
        assert_eq!(
            fabric_storm_observables(threads, 2012, true),
            serial,
            "{threads} threads"
        );
    }
    // Replay at the same thread count too.
    assert_eq!(fabric_storm_observables(8, 2012, true), serial);
}

#[test]
fn cluster_chaos_run_is_bit_identical_across_thread_counts() {
    let serial = cluster_4x(1);
    assert!(serial.0 > 0, "the cluster must complete jobs");
    assert!(serial.1 > 0, "migration must ride the fabric");
    for threads in THREADS {
        assert_eq!(cluster_4x(threads), serial, "{threads} threads");
    }
}

/// The compile workload — the full corpus compiled and executed on a
/// two-chip cluster — produces one byte pattern at 1, 2, and 8
/// threads (the `compile_corpus_12` lines of the pinned digest).
#[test]
fn compile_corpus_digest_is_thread_invariant() {
    let (graphs_1, completed_1, digest_1) = compile_corpus(1);
    assert_eq!(graphs_1, 12);
    assert_eq!(completed_1, 12, "every graph completes, verified");
    for threads in [2, 8] {
        let (graphs, completed, digest) = compile_corpus(threads);
        assert_eq!(graphs, graphs_1);
        assert_eq!(completed, completed_1);
        assert_eq!(digest, digest_1, "digest diverged at {threads} threads");
    }
}

#[test]
fn churn_is_deterministic_and_restores_the_die() {
    assert_eq!(gather_release_churn(24), gather_release_churn(24));
}

#[test]
fn acceptance_checksum_replays() {
    let (a_sum, a_fnv) = sched_acceptance();
    let (b_sum, b_fnv) = sched_acceptance();
    assert_eq!(a_fnv, b_fnv, "event log must replay bit-identically");
    assert_eq!(a_sum.makespan, b_sum.makespan);
    assert_eq!(a_sum.completed + a_sum.failed, (ACCEPT_JOBS + 1) as u64);
}

#[test]
fn chaos_mix_replays() {
    let (a, a_fnv) = chaos_mix();
    let (b, b_fnv) = chaos_mix();
    assert_eq!(a_fnv, b_fnv);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.completed + a.failed, 40);
}

#[test]
fn staged_pipeline_digests_match_and_replay() {
    // A small dataset count keeps the test quick; the full 32-set batch
    // runs in the pinned digest.
    let a = staged_pipeline(1, 4);
    assert_eq!(a.graphs, 12);
    assert_eq!(
        a.digest_seq, a.digest_pipe,
        "pipelined outputs must reproduce the sequential walk bit for bit"
    );
    for threads in [2usize, 8] {
        let b = staged_pipeline(threads, 4);
        assert_eq!(
            a.digest_pipe, b.digest_pipe,
            "identical at {threads} threads"
        );
        assert_eq!(b.digest_seq, b.digest_pipe);
    }
}

#[test]
fn soa_sweep_replays_at_every_thread_count() {
    // A small instance keeps the test quick; the full 1024-lane region
    // runs in the pinned digest.
    let a = soa_sweep(1, 16, 8);
    for threads in [1usize, 2, 8] {
        assert_eq!(
            a,
            soa_sweep(threads, 16, 8),
            "identical at {threads} threads"
        );
    }
}
