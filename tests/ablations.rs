//! The ablations EXPERIMENTS.md records, one test per ablation, each
//! asserting the trend its row states. Run with `--nocapture` to print
//! the tables the rows quote.
//!
//! Ablations C (region size vs configuration latency) and G (unicast vs
//! traveling worm) live next to the code they measure:
//! `tests/scaling.rs::configuration_latency_grows_with_region_size` and
//! `vlsi-core`'s `chip.rs::traveling_worm_gathers_identically`.

use vlsi_processor::ap::{AdaptiveProcessor, ApConfig};
use vlsi_processor::core::VlsiChip;
use vlsi_processor::cost::csd::{csd_area, csd_area_fraction, flat_area};
use vlsi_processor::cost::itrs::year;
use vlsi_processor::cost::scaling::ApComposition;
use vlsi_processor::cost::wire::wire_delay_ns_for;
use vlsi_processor::csd::CsdSimulator;
use vlsi_processor::faults::FaultPlanBuilder;
use vlsi_processor::noc::NocNetwork;
use vlsi_processor::object::Word;
use vlsi_processor::prng::Prng;
use vlsi_processor::runtime::mix::mixed_jobs;
use vlsi_processor::runtime::{
    Fifo, Priority, Runtime, RuntimeConfig, RuntimeSummary, SchedPolicy, SmallestFitBackfill,
};
use vlsi_processor::telemetry::TelemetryHandle;
use vlsi_processor::topology::{Cluster, Coord};
use vlsi_processor::workloads::{RandomDatapath, StreamKernel};

/// The workload seed the scheduler ablations replay (the paper's year).
const SEED: u64 = 2012;

/// Share of `n`-object random-datapath chaining requests that find no
/// channel among `channels`, over `runs` seeds.
fn rejection_rate(n: usize, channels: usize, runs: usize, seed: u64) -> f64 {
    let u = CsdSimulator::new(n, channels).sweep_point(0.0, runs, seed);
    u.rejected as f64 / (u.rejected + u.granted).max(1) as f64
}

/// Ablation A (§6: "the number of channels determines the routability"):
/// at N = 64, N channels and N/2 channels route random datapaths, N/8
/// channels do not.
#[test]
fn ablation_a_channels_vs_routability() {
    let n = 64;
    println!("Ablation A — channels vs routability (N={n}, random datapaths)");
    for k in [n / 8, n / 4, n / 2, n] {
        println!(
            "{k:>4} channels: {:>5.1}% rejected",
            rejection_rate(n, k, 30, 0xAB1A) * 100.0
        );
    }
    assert_eq!(rejection_rate(n, n, 30, 0xAB1A), 0.0);
    assert!(rejection_rate(n, n / 2, 30, 0xAB1A) < 0.02);
    assert!(rejection_rate(n, n / 8, 30, 0xAB1A) > 0.05);
}

/// Object-cache hit rate of a 24-object random datapath (locality
/// `locality`, seed 7) executed in scalar mode on an AP holding
/// `capacity` compute objects.
fn hit_rate(capacity: usize, locality: f64) -> f64 {
    let gen = RandomDatapath {
        n_objects: 24,
        n_elements: 200,
        locality,
        seed: 7,
    };
    let mut ap = AdaptiveProcessor::new(ApConfig {
        compute_objects: capacity,
        ..ApConfig::default()
    });
    ap.install(gen.objects()).unwrap();
    ap.execute_scalar(&gen.stream()).unwrap();
    ap.metrics().hit_rate()
}

/// Ablation B (§2.4's stack-distance rule): the hit rate never falls as
/// capacity grows (LRU inclusion), and at full residency only the
/// compulsory misses remain. `RandomDatapath::locality` sets chaining
/// distance, not reuse distance, so it does not order the two columns.
#[test]
fn ablation_b_capacity_vs_hit_rate() {
    println!("Ablation B — capacity vs object-cache hit rate (24 objects, scalar mode)");
    let (mut prev_local, mut prev_random) = (0.0, 0.0);
    for capacity in [2usize, 3, 4, 6, 8, 12, 16, 20, 24] {
        let local = hit_rate(capacity, 0.9);
        let random = hit_rate(capacity, 0.0);
        println!(
            "capacity {capacity:>2}: local {:>6.2}%  random {:>6.2}%",
            local * 100.0,
            random * 100.0
        );
        assert!(
            local + 1e-9 >= prev_local,
            "local hit rate fell at {capacity}"
        );
        assert!(
            random + 1e-9 >= prev_random,
            "random hit rate fell at {capacity}"
        );
        (prev_local, prev_random) = (local, random);
    }
    assert!(hit_rate(24, 0.0) > 0.85);
}

/// Ablation E (§2.6.2's area-vs-routability question): at N = 64, N/2
/// channels cost under 55 % of the flat network's area and reject under
/// 2 % of random chains; N/8 channels reject more.
#[test]
fn ablation_e_csd_area_vs_routability() {
    let n = 64;
    println!(
        "Ablation E — CSD area vs routability (N={n}; flat network {:.3e} λ²)",
        flat_area(n)
    );
    let rows: Vec<(usize, f64, f64)> = [n / 8, n / 4, n / 2, n]
        .into_iter()
        .map(|k| (k, csd_area(n, k), rejection_rate(n, k, 30, 0xCAFE)))
        .collect();
    for &(k, area, reject) in &rows {
        println!(
            "{k:>4} channels: {area:.3e} λ² ({:.2}% of the AP), {:.1}% rejected",
            csd_area_fraction(n, k) * 100.0,
            reject * 100.0
        );
    }
    let (_, half_area, half_reject) = rows[2];
    assert!(half_area < flat_area(n) * 0.55);
    assert!(half_reject < 0.02);
    assert!(rows[0].2 > half_reject, "fewer channels must reject more");
}

/// Ablation F (§1's "coordination between clock cycle time and the
/// number of resources"): bigger APs clock slower, 4-object APs beat
/// 64-object APs on chip GOPS, and GOPS per AP is scale-invariant.
#[test]
fn ablation_f_ap_scale_vs_clock() {
    let p = year(2012).unwrap();
    println!("Ablation F — AP scale vs clock and peak GOPS (2012 node, 1:1 PO:MO)");
    let rows: Vec<(u32, f64, f64)> = [4u32, 8, 16, 32, 64]
        .into_iter()
        .map(|scale| {
            let comp = ApComposition {
                compute_objects: scale,
                memory_objects: scale,
            };
            let delay = wire_delay_ns_for(f64::from(scale), &p);
            let gops = comp.peak_gops_scaled(&p);
            println!(
                "{scale:>3} PO/AP: {:>3} APs, {delay:>6.2} ns, {gops:>6.1} GOPS",
                comp.aps_per_die(&p)
            );
            (scale, delay, gops)
        })
        .collect();
    for w in rows.windows(2) {
        assert!(
            w[1].1 > w[0].1,
            "bigger APs must have slower chaining clocks"
        );
    }
    assert!(
        rows[0].2 > rows[4].2,
        "4-object APs must out-GOPS 64-object APs"
    );
    let per_ap = |&(scale, delay, _): &(u32, f64, f64)| f64::from(scale) / delay;
    let base = per_ap(&rows[0]);
    for r in &rows {
        assert!(
            (per_ap(r) / base - 1.0).abs() < 0.05,
            "GOPS/AP should be scale-invariant: {} vs {base}",
            per_ap(r)
        );
    }
}

/// Operations per cycle a width-`w` multiply/reduce tree sustains over a
/// `len`-element stream, after checking its outputs against the
/// reference.
fn ops_per_cycle(w: usize, len: u64) -> f64 {
    let kernel = StreamKernel::wide_tree(w, 1, len);
    let mut ap = AdaptiveProcessor::new(ApConfig {
        compute_objects: kernel.compute_working_set().max(16),
        memory_objects: 16,
        channels: (kernel.compute_working_set() + 16).max(16),
        ..ApConfig::default()
    });
    ap.install(kernel.objects.clone()).unwrap();
    for i in 0..len {
        ap.memory_mut(0).unwrap().store(i, Word(i + 1)).unwrap();
    }
    ap.configure(kernel.stream.clone()).unwrap();
    let report = ap.execute(0, 10_000_000).unwrap();
    let expect = StreamKernel::wide_tree_reference(w, 1, &(1..=len).collect::<Vec<_>>());
    for (i, e) in expect.iter().enumerate() {
        assert_eq!(ap.memory(1).unwrap().peek(i as u64).unwrap().as_u64(), *e);
    }
    report.firings as f64 / report.cycles as f64
}

/// Ablation H (§1's per-application ILP): each doubling of the tree
/// width raises sustained ops/cycle by more than 1.2×.
#[test]
fn ablation_h_datapath_width_vs_ilp() {
    println!("Ablation H — datapath width vs effective ILP (64-element stream)");
    let rows: Vec<(usize, f64)> = [1usize, 2, 4, 8, 16]
        .into_iter()
        .map(|w| (w, ops_per_cycle(w, 64)))
        .collect();
    for &(w, ipc) in &rows {
        println!("width {w:>2}: {ipc:.2} ops/cycle");
    }
    for pair in rows.windows(2) {
        assert!(
            pair[1].1 > pair[0].1 * 1.2,
            "width {} ({:.2}) should beat width {} ({:.2})",
            pair[1].0,
            pair[1].1,
            pair[0].0,
            pair[0].1
        );
    }
}

/// Jobs in Ablation I's contended mix.
const MIX_JOBS: usize = 48;

/// Ablation I's 48-job mix through `policy` on an 8×8 die.
fn run_mix(policy: Box<dyn SchedPolicy>) -> RuntimeSummary {
    let chip = VlsiChip::new(8, 8, Cluster::default());
    let mut rt = Runtime::new(chip, policy, RuntimeConfig::default());
    for spec in mixed_jobs(SEED, MIX_JOBS) {
        rt.submit(spec);
    }
    rt.run_until_idle(500_000).expect("mix must drain")
}

/// Ablation I (§1's "request the resources", multi-tenant): the three
/// policies produce distinct schedules of the same mix and resolve every
/// job; priority waits least, smallest-fit backfill's starvation tail
/// makes its makespan the longest, and FIFO replays exactly.
#[test]
fn ablation_i_scheduling_policy_vs_makespan_and_wait() {
    let policies: [Box<dyn SchedPolicy>; 3] = [
        Box::new(Fifo),
        Box::new(Priority),
        Box::new(SmallestFitBackfill),
    ];
    let rows = policies.map(run_mix);
    println!("Ablation I — scheduling policy (8×8 chip, {MIX_JOBS}-job mix, seed {SEED})");
    for s in &rows {
        println!(
            "{:>9}: makespan {:>4}, mean wait {:>5.1}, turnaround {:>5.1}, util {:.2}, \
             completed {}, failed {}",
            s.policy,
            s.makespan,
            s.mean_wait,
            s.mean_turnaround,
            s.utilization,
            s.completed,
            s.failed
        );
    }
    let [fifo, priority, backfill] = &rows;
    let replay = run_mix(Box::new(Fifo));
    assert_eq!(replay.makespan, fifo.makespan, "fifo must replay");
    assert_eq!(replay.stats, fifo.stats, "fifo counters must replay");
    for s in &rows {
        assert_eq!(
            s.completed + s.failed,
            MIX_JOBS as u64,
            "{}: mix must resolve",
            s.policy
        );
    }
    assert!(
        fifo.makespan != priority.makespan
            && priority.makespan != backfill.makespan
            && fifo.makespan != backfill.makespan,
        "policies must produce distinct schedules"
    );
    for other in [fifo, backfill] {
        assert!(priority.mean_wait < other.mean_wait, "priority waits least");
        assert!(
            priority.mean_turnaround < other.mean_turnaround,
            "priority turns around fastest"
        );
    }
    assert!(
        backfill.makespan > fifo.makespan.max(priority.makespan),
        "backfill's starvation tail makes the longest makespan"
    );
}

/// Fault rates Ablation II sweeps.
const FAULT_RATES: [f64; 3] = [0.0, 0.01, 0.05];

/// Worms in Ablation II's NoC batch.
const WORMS: usize = 60;

/// Jobs in Ablation II's scheduler mix.
const FAULT_JOBS: usize = 32;

/// What Ablation II reads off one NoC batch.
#[derive(Debug, PartialEq)]
struct NocPoint {
    mean_latency: f64,
    delivered: usize,
    undeliverable: usize,
    retransmissions: u64,
    misroutes: u64,
}

/// A fixed 60-worm batch on an 8×8 mesh under transient link faults at
/// `rate`.
fn run_noc(rate: f64) -> NocPoint {
    let (w, h) = (8u16, 8u16);
    let mut net = NocNetwork::with_telemetry(w, h, TelemetryHandle::active());
    // The horizon matches the batch's drain window, so fault windows
    // overlap live traffic instead of landing on an empty mesh.
    let plan = FaultPlanBuilder::new(SEED)
        .grid(w, h)
        .horizon(192)
        .link_down_rate(rate)
        .link_corrupt_rate(rate)
        .permanent_fraction(0.0)
        .build();
    net.attach_fault_plan(plan);
    let mut rng = Prng::seed_from_u64(SEED);
    for _ in 0..WORMS {
        let src = Coord::new(rng.gen_range(0..w), rng.gen_range(0..h));
        let dest = Coord::new(rng.gen_range(0..w), rng.gen_range(0..h));
        let payload: Vec<u64> = (0..rng.gen_range(1..8u64)).collect();
        net.inject(src, dest, payload).unwrap();
    }
    net.run_until_drained(4_000_000).expect("must drain");
    let delivered = net.take_delivered();
    let failed = net.take_failed();
    let snap = net.telemetry().snapshot();
    NocPoint {
        mean_latency: delivered.iter().map(|(_, l)| *l as f64).sum::<f64>()
            / delivered.len().max(1) as f64,
        delivered: delivered.len(),
        undeliverable: failed.len(),
        retransmissions: snap.counter("noc.retransmissions"),
        misroutes: snap.counter("noc.misroutes"),
    }
}

/// The 32-job mix under permanent switch faults at `rate` per switch.
fn run_sched(rate: f64) -> RuntimeSummary {
    let chip = VlsiChip::new(8, 8, Cluster::default());
    let mut rt = Runtime::new(chip, Box::new(Fifo), RuntimeConfig::default());
    let plan = FaultPlanBuilder::new(SEED)
        .grid(8, 8)
        .horizon(100)
        .switch_stuck_rate(rate)
        .build();
    rt.attach_fault_plan(plan);
    for spec in mixed_jobs(SEED, FAULT_JOBS) {
        rt.submit(spec);
    }
    rt.run_until_idle(500_000).expect("mix must drain")
}

/// Ablation II (degraded-mode throughput): the fault machinery costs a
/// healthy mesh nothing, at 5 % it visibly recovers while every worm and
/// job resolves, a faulty mesh is never faster, and the worst point
/// replays exactly.
#[test]
fn ablation_ii_degraded_mode_vs_fault_rate() {
    println!(
        "Ablation II — degraded mode vs fault rate (8×8, {WORMS} worms / {FAULT_JOBS}-job mix)"
    );
    let noc: Vec<NocPoint> = FAULT_RATES.into_iter().map(run_noc).collect();
    let sched: Vec<RuntimeSummary> = FAULT_RATES.into_iter().map(run_sched).collect();
    for ((rate, n), s) in FAULT_RATES.iter().zip(&noc).zip(&sched) {
        println!(
            "rate {rate:.2}: {n:?} | makespan {}, completed {}, failed {}, faults {}",
            s.makespan, s.completed, s.failed, s.stats.faults_reported
        );
    }
    assert_eq!(noc[0].delivered, WORMS);
    assert_eq!(noc[0].undeliverable, 0);
    assert_eq!(noc[0].retransmissions, 0);
    assert_eq!(sched[0].stats.faults_reported, 0);

    assert!(
        noc[2].retransmissions > 0 || noc[2].misroutes > 0,
        "5% faults must exercise recovery"
    );
    for (n, s) in noc.iter().zip(&sched) {
        assert_eq!(n.delivered + n.undeliverable, WORMS);
        assert_eq!(s.completed + s.failed, FAULT_JOBS as u64, "no job in limbo");
    }
    assert!(sched[2].stats.faults_reported > 0, "faults must land");
    assert!(
        noc[2].mean_latency >= noc[0].mean_latency,
        "faults cannot make the mesh faster ({:.1} vs {:.1})",
        noc[2].mean_latency,
        noc[0].mean_latency
    );

    assert_eq!(run_noc(FAULT_RATES[2]), noc[2]);
    let replay = run_sched(FAULT_RATES[2]);
    assert_eq!(replay.makespan, sched[2].makespan);
    assert_eq!(replay.stats, sched[2].stats);
}
