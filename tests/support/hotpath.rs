//! Hot-path workloads behind the thread-matrix digest.
//!
//! [`digest`] runs every workload below once and prints one
//! timing-free checksum line per observable; `tests/parallel_determinism.rs`
//! (this module's only user) pins that text at 1 and at 8 threads.
//!
//! * **sched** — the acceptance suite's 55-job mix (54 mixed jobs, five
//!   mid-run defects, one deadline-doomed straggler) with a live
//!   telemetry registry, reported as an FNV-1a checksum of the full
//!   event log.
//! * **hotpath** — gather/release churn on a 32×32 die with admission
//!   probes every round, and a 64×64 chaos mix (larger die, stuck
//!   switches mid-run) that leans on the occupancy scans the scheduler
//!   performs every tick; [`chaos_mix_sized`] runs the same mix at
//!   128×128 to exercise the packed switch slab at scale.
//! * **ring** / **noc storm** — a ring cluster of four 64×64 dies, each
//!   pinned its own job mix, ticked on a shared pool, and a 256-worm
//!   storm through one 32×32 NoC.
//! * **cluster** — a ring of four 32×32 dies joined by the vlsi-fabric
//!   interconnect: chip 0 is oversubscribed so jobs migrate over real
//!   links, and one chip dies mid-run. The digest covers the merged
//!   event logs and telemetry.
//! * **compile** — the 12-graph netgen corpus through every
//!   vlsi-compile pass, then executed as staged jobs against the
//!   netlist evaluator's reference outputs on a two-chip ring cluster;
//!   the digest covers the full artifact trail plus the cluster's event
//!   logs.
//! * **ingest** — the same 4-chip ring behind the vlsi-ingest front
//!   door, fed an open-loop overload trace through the submission ring
//!   while a chip dies mid-run: admission sheds typed, the client backs
//!   off, and the exact conservation ledger must balance.
//! * **soa** — the AP hot-loop sweep: 1024 two-by-two-cluster APs
//!   filling a 64×64 die, each streaming a load→mul→store kernel,
//!   executed through the struct-of-arrays region sweep
//!   ([`soa_sweep`]); the digest covers every report and every stored
//!   output word.
//! * **pipeline** — the Fig. 7(d) cross-dataset overlap: every compiled
//!   netgen graph deployed on its placed regions and fed 32 datasets,
//!   once as 32 sequential `run` calls and once as one
//!   [`run_pipelined`](vlsi_core::StagedExecutor::run_pipelined)
//!   wavefront ([`staged_pipeline`]); the two output digests must be
//!   identical.

use std::collections::VecDeque;
use std::fmt::Write as _;

use vlsi_ap::ExecutionReport;
use vlsi_core::{ProcessorId, StagedExecutor, VlsiChip};
use vlsi_fabric::{Cluster as ChipCluster, ClusterConfig, ClusterTopology};
use vlsi_faults::{Fault, FaultKind, FaultPlan, FaultPlanBuilder};
use vlsi_ingest::{
    accounting, run_trace, AdmissionConfig, ClientConfig, IngestClient, IngestConfig, IngestService,
};
use vlsi_noc::NocNetwork;
use vlsi_object::{
    GlobalConfigElement, GlobalConfigStream, LocalConfig, LogicalObject, ObjectId, Operation, Word,
};
use vlsi_par::Pool;
use vlsi_prng::Prng;
use vlsi_runtime::mix::mixed_jobs;
use vlsi_runtime::{Fifo, JobSpec, Runtime, RuntimeConfig, RuntimeSummary, Workload};
use vlsi_telemetry::TelemetryHandle;
use vlsi_topology::{Cluster, Coord};
use vlsi_workloads::{arrival_trace, ArrivalProfile};

/// The workload seed every workload replays (the paper's year).
pub const SEED: u64 = 2012;

/// Mixed jobs in the acceptance run (plus one doomed straggler = 55).
pub const ACCEPT_JOBS: usize = 54;

/// FNV-1a over a byte string. Every digest line hashes text with it, so
/// changing it moves every pinned value.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over the runtime's full debug-formatted event log.
fn event_log_fnv(rt: &Runtime) -> u64 {
    let mut text = String::new();
    for e in rt.events() {
        let _ = writeln!(text, "{e:?}");
    }
    fnv1a(text.as_bytes())
}

/// The acceptance suite's 55-job mix under FIFO: 54 mixed jobs plus a doomed
/// 16-cluster straggler, five mid-run defects, live telemetry — the
/// workload the tier-1 scheduler tests pin. Returns the summary and the
/// event-log checksum.
pub fn sched_acceptance() -> (RuntimeSummary, u64) {
    let chip = VlsiChip::with_telemetry(8, 8, Cluster::default(), TelemetryHandle::active());
    let mut rt = Runtime::new(chip, Box::new(Fifo), RuntimeConfig::default());
    rt.inject_defect_at(4, Coord::new(1, 1));
    rt.inject_defect_at(8, Coord::new(5, 4));
    rt.inject_defect_at(12, Coord::new(3, 6));
    rt.inject_defect_at(18, Coord::new(6, 2));
    rt.inject_defect_at(26, Coord::new(2, 5));
    for spec in mixed_jobs(SEED, ACCEPT_JOBS) {
        rt.submit(spec);
    }
    rt.submit(JobSpec::new("doomed", 16, Workload::Idle { ticks: 10 }).with_deadline(1));
    let summary = rt.run_until_idle(500_000).expect("the mix must drain");
    let fnv = event_log_fnv(&rt);
    (summary, fnv)
}

/// Gather/release churn on a 32×32 die: every round gathers a
/// Fibonacci-sized region, retires the oldest tenant past a cap, and
/// runs the two admission probes (`largest_gatherable`, `free_clusters`)
/// the scheduler leans on. Returns a checksum over every probe answer,
/// so the optimised index must reproduce the slow scans bit for bit.
pub fn gather_release_churn(rounds: usize) -> u64 {
    let mut chip = VlsiChip::new(32, 32, Cluster::default());
    let sizes = [3usize, 5, 8, 13, 21, 34];
    let mut live: VecDeque<ProcessorId> = VecDeque::new();
    let mut acc = 0u64;
    for round in 0..rounds {
        let k = sizes[round % sizes.len()];
        if let Ok(out) = chip.gather_any(k) {
            live.push_back(out.id);
        }
        if live.len() > 24 {
            let id = live.pop_front().unwrap();
            chip.release_processor(id).expect("churn release");
        }
        acc = acc
            .wrapping_mul(1_000_003)
            .wrapping_add(chip.largest_gatherable() as u64);
        acc = acc
            .wrapping_mul(1_000_003)
            .wrapping_add(chip.free_clusters() as u64);
    }
    for id in live {
        chip.release_processor(id).expect("drain release");
    }
    acc.wrapping_add(chip.free_clusters() as u64)
}

/// The 64×64 chaos mix: a large die where every per-tick occupancy scan
/// hurts, 40 mixed jobs, and ~8 switches sticking mid-run. Returns the
/// summary and the event-log checksum.
pub fn chaos_mix() -> (RuntimeSummary, u64) {
    chaos_mix_sized(64, 40)
}

/// [`chaos_mix`] at an arbitrary square die size — the 128×128 variant
/// in the [`digest`] exercises the packed switch slab and the
/// occupancy index at the scale the memory diet exists for.
pub fn chaos_mix_sized(dim: u16, jobs: usize) -> (RuntimeSummary, u64) {
    let chip = VlsiChip::new(dim, dim, Cluster::default());
    let mut rt = Runtime::new(chip, Box::new(Fifo), RuntimeConfig::default());
    let plan = FaultPlanBuilder::new(SEED)
        .grid(dim, dim)
        .horizon(120)
        .switch_stuck_rate(0.002)
        .build();
    rt.attach_fault_plan(plan);
    for spec in mixed_jobs(SEED, jobs) {
        rt.submit(spec);
    }
    let summary = rt.run_until_idle(500_000).expect("chaos mix must drain");
    let fnv = event_log_fnv(&rt);
    (summary, fnv)
}

/// The ring mix: a ring [`ChipCluster`] of `chips` 64×64 dies, each
/// pinned its own 40-job mix (seeded `SEED + chip`), ticked on
/// `threads` workers with a static chip→task assignment. Returns
/// `(completed, merged-event-log fnv, merged-telemetry fnv)` — both
/// checksums are over cluster-wide merges in chip-index order, so they
/// must be bit-identical at every thread count.
pub fn cluster_mix(threads: usize, chips: usize) -> (u64, u64, u64) {
    let mut cluster = ChipCluster::with_telemetry(
        ClusterTopology::ring(chips),
        (64, 64),
        Pool::new(threads),
        ClusterConfig::standard(),
        TelemetryHandle::active(),
    );
    for _ in 0..chips {
        let chip = VlsiChip::with_telemetry(64, 64, Cluster::default(), TelemetryHandle::active());
        cluster.push_chip(Runtime::new(chip, Box::new(Fifo), RuntimeConfig::default()));
    }
    for c in 0..chips {
        for spec in mixed_jobs(SEED + c as u64, 40) {
            cluster.submit_to(c, spec);
        }
    }
    let summary = cluster.run_until_idle(500_000).expect("cluster must drain");
    let mut text = String::new();
    for (c, e) in cluster.merged_events() {
        let _ = writeln!(text, "{c} {e:?}");
    }
    let events_fnv = fnv1a(text.as_bytes());
    let telemetry_fnv = fnv1a(cluster.merged_telemetry().snapshot().to_json().as_bytes());
    (summary.completed, events_fnv, telemetry_fnv)
}

/// The cluster mix: a ring of four 32×32 dies with the fabric between
/// them. Chip 0 is hammered with twelve 400-cluster jobs (at most two
/// co-run, so the rest must migrate over the fabric), chips 1–3 carry a
/// light mixed background, and chip 3 dies at tick 10 — its jobs
/// relocate across the ring. Returns `(completed, fabric messages,
/// digest fnv)`; the digest covers the cluster summary, the merged
/// event logs, and the merged telemetry export, so it must be
/// bit-identical at every thread count.
pub fn cluster_4x(threads: usize) -> (u64, u64, u64) {
    let mut cluster = ChipCluster::with_telemetry(
        ClusterTopology::ring(4),
        (32, 32),
        Pool::new(threads),
        ClusterConfig::standard(),
        TelemetryHandle::active(),
    );
    for _ in 0..4 {
        let chip = VlsiChip::with_telemetry(32, 32, Cluster::default(), TelemetryHandle::active());
        cluster.push_chip(Runtime::new(chip, Box::new(Fifo), RuntimeConfig::default()));
    }
    for j in 0..12 {
        cluster.submit_to(
            0,
            JobSpec::new(format!("bulk{j}"), 400, Workload::Idle { ticks: 20 }),
        );
    }
    for c in 1..4usize {
        for spec in mixed_jobs(SEED + c as u64, 6) {
            cluster.submit_to(c, spec);
        }
    }
    let mut plan = FaultPlan::none();
    plan.push(Fault::permanent(FaultKind::ChipDown { chip: 3 }, 10));
    cluster.attach_fault_plan(plan);
    let summary = cluster.run_until_idle(500_000).expect("cluster must drain");
    let mut text = String::new();
    let _ = writeln!(
        text,
        "ticks {} completed {} failed {} lost {} migrated {} deaths {}",
        summary.ticks,
        summary.completed,
        summary.failed,
        summary.lost,
        summary.migrated,
        summary.chip_failures
    );
    for (c, e) in cluster.merged_events() {
        let _ = writeln!(text, "{c} {e:?}");
    }
    let _ = writeln!(text, "{}", cluster.merged_telemetry().snapshot().to_json());
    (
        summary.completed,
        cluster.network().stats().messages,
        fnv1a(text.as_bytes()),
    )
}

/// What [`ingest_open_loop`] reports: the conservation ledger headline
/// numbers and the determinism digest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IngestOpenLoopReport {
    /// Client-side arrivals delivered by the trace.
    pub arrivals: u64,
    /// Requests admitted into the cluster.
    pub accepted: u64,
    /// Jobs the cluster completed.
    pub completed: u64,
    /// FNV digest over the ledger, merged events, and telemetry.
    pub digest_fnv: u64,
}

/// The ingest open-loop mix: a genuinely overloading arrival trace
/// (~15 jobs/tick for 120 ticks, six tenants, rate-limited) pushed
/// through a 16-slot submission ring into a ring of four small 8×8
/// dies, with chip 3 dying at tick 40 — the ring backpressures, the
/// client backs off, degraded mode sheds low classes, deadlines shed
/// up front, and the fabric migrates the dead chip's jobs, all while
/// the exact conservation ledger stays balanced. The digest covers the
/// ledger, the merged event logs, and the merged telemetry export, so
/// it must be bit-identical at every thread count.
pub fn ingest_open_loop(threads: usize) -> IngestOpenLoopReport {
    let mut cluster = ChipCluster::with_telemetry(
        ClusterTopology::ring(4),
        (8, 8),
        Pool::new(threads),
        ClusterConfig::standard(),
        TelemetryHandle::active(),
    );
    for _ in 0..4 {
        let chip = VlsiChip::with_telemetry(8, 8, Cluster::default(), TelemetryHandle::active());
        cluster.push_chip(Runtime::new(chip, Box::new(Fifo), RuntimeConfig::default()));
    }
    let mut plan = FaultPlan::none();
    plan.push(Fault::permanent(FaultKind::ChipDown { chip: 3 }, 40));
    cluster.attach_fault_plan(plan);

    let telemetry = TelemetryHandle::active();
    let mut service = IngestService::with_telemetry(
        cluster,
        IngestConfig {
            ring_capacity: 8,
            admission: AdmissionConfig {
                tenant_rate_milli: 2000,
                tenant_burst: 4,
                high_water: 64,
                low_water: 24,
                max_degraded_level: 4,
            },
        },
        telemetry.clone(),
    );
    let mut client = IngestClient::with_telemetry(
        service.ring(),
        SEED,
        ClientConfig::default(),
        telemetry.clone(),
    );
    let trace = arrival_trace(
        SEED,
        ArrivalProfile::Overload { rate_milli: 15_000 },
        120,
        6,
    );
    run_trace(&mut service, &mut client, &trace, 500_000).expect("open loop must drain");

    let ledger = accounting(&service, &client);
    assert!(ledger.is_balanced(), "conservation ledger: {ledger:?}");
    let mut text = String::new();
    let _ = writeln!(text, "{ledger:?}");
    for (c, e) in service.sink().merged_events() {
        let _ = writeln!(text, "{c} {e:?}");
    }
    let _ = writeln!(text, "{}", telemetry.snapshot().to_json());
    let _ = writeln!(
        text,
        "{}",
        service.sink().merged_telemetry().snapshot().to_json()
    );
    IngestOpenLoopReport {
        arrivals: ledger.arrivals,
        accepted: ledger.stats.accepted,
        completed: ledger.completed,
        digest_fnv: fnv1a(text.as_bytes()),
    }
}

/// The compile mix: the full 12-graph netgen corpus driven through
/// every vlsi-compile pass, then *executed* — each compiled
/// [`StagedProgram`](vlsi_core::StagedProgram) becomes a
/// `Workload::Staged` job with three deterministic datasets and the
/// netlist evaluator's reference outputs attached, submitted to a
/// two-chip ring [`ChipCluster`] on a `threads`-wide pool. The runtime
/// fails any job whose on-chip outputs diverge from the reference, so
/// `completed` doubles as a correctness count. Returns `(graphs,
/// completed, digest_fnv)`; the digest covers every pass's artifact
/// dump plus the cluster's merged event logs, so it must be
/// bit-identical at every thread count.
pub fn compile_corpus(threads: usize) -> (u64, u64, u64) {
    use std::collections::HashMap;
    use vlsi_compile::{compile, CompileOptions};

    let opts = CompileOptions::default();
    let corpus = vlsi_workloads::netgen::corpus(SEED);
    let mut text = String::new();
    let mut jobs: Vec<JobSpec> = Vec::new();
    for (name, src) in &corpus {
        let c = compile(src, &opts).unwrap_or_else(|e| panic!("{name}: {e}"));
        let _ = writeln!(text, "graph {name}");
        text.push_str(&c.emit_all());
        let mut rng = Prng::seed_from_u64(SEED ^ fnv1a(name.as_bytes()));
        let mut datasets = Vec::new();
        let mut expected = Vec::new();
        for _ in 0..3 {
            let mut env: HashMap<String, i64> = HashMap::new();
            for input in c.netlist.input_names() {
                env.insert(input.to_string(), i64::from(rng.gen_range(-500..500i32)));
            }
            expected.push(c.netlist.evaluate(&env));
            datasets.push(env);
        }
        jobs.push(JobSpec::for_staged(
            format!("compile_{name}"),
            c.program.clone(),
            datasets,
            Some(expected),
        ));
    }
    let graphs = corpus.len() as u64;

    // The jobs alternate between the two chips of a 16×16 ring.
    let mut cluster = ChipCluster::with_telemetry(
        ClusterTopology::ring(2),
        (16, 16),
        Pool::new(threads),
        ClusterConfig::standard(),
        TelemetryHandle::active(),
    );
    for _ in 0..2 {
        let chip = VlsiChip::with_telemetry(16, 16, Cluster::default(), TelemetryHandle::active());
        cluster.push_chip(Runtime::new(chip, Box::new(Fifo), RuntimeConfig::default()));
    }
    for (j, spec) in jobs.iter().enumerate() {
        cluster.submit_to(j % 2, spec.clone());
    }
    let summary = cluster.run_until_idle(500_000).expect("cluster must drain");
    assert_eq!(
        summary.failed, 0,
        "compiled programs must match the netlist evaluator on the cluster"
    );
    for (c, e) in cluster.merged_events() {
        let _ = writeln!(text, "cluster {c} {e:?}");
    }

    (graphs, summary.completed, fnv1a(text.as_bytes()))
}

/// A 256-worm storm on a 32×32 mesh. Returns an FNV digest over the
/// delivered list, final stats, and the telemetry export.
pub fn noc_storm() -> u64 {
    let (w, h) = (32u16, 32u16);
    let mut net = NocNetwork::with_telemetry(w, h, TelemetryHandle::active());
    let mut rng = Prng::seed_from_u64(SEED);
    for _ in 0..256 {
        let src = Coord::new(rng.gen_range(0..w), rng.gen_range(0..h));
        let dest = Coord::new(rng.gen_range(0..w), rng.gen_range(0..h));
        let payload: Vec<u64> = (0..rng.gen_range(4..12u64)).collect();
        net.inject(src, dest, payload).unwrap();
    }
    net.run_until_drained(4_000_000).expect("storm must drain");
    let mut text = String::new();
    for d in net.take_delivered() {
        let _ = writeln!(text, "{d:?}");
    }
    let _ = writeln!(text, "{:?}", net.stats());
    let _ = writeln!(text, "{}", net.telemetry().snapshot().to_json());
    fnv1a(text.as_bytes())
}

/// APs in the [`digest`]'s [`soa_sweep`] region (exactly fills a 64×64
/// die at 2×2 clusters each).
const SOA_SWEEP_LANES: usize = 1024;

/// Words each [`soa_sweep`] lane streams through its kernel.
const SOA_STREAM_LEN: u64 = 256;

/// Gathers `lanes` 2×2 APs on a `width × width` die, installs the
/// stream kernel (stream-load `SOA_STREAM_LEN` words from block 0 →
/// six-stage ALU chain → stream-store into block 1 from offset
/// `SOA_STREAM_LEN`)
/// in each, fills block 0 through the mailbox, and activates +
/// configures everything. The chain is deep enough that each lane's
/// datapath state is a real working set — the regime the SoA layout is
/// for — rather than a trivial three-node loop that fits in a cache
/// line either way.
fn soa_ready_chip(width: u16, lanes: usize) -> (VlsiChip, Vec<ProcessorId>) {
    let mut chip = VlsiChip::new(width, width, Cluster::default());
    let mut ids = Vec::with_capacity(lanes);
    for k in 0..lanes {
        let id = chip.gather_any(4).expect("the die must fit every lane").id;
        chip.install(
            id,
            vec![
                LogicalObject::memory(ObjectId(0), LocalConfig::op(Operation::Load))
                    .with_init(vec![Word(0), Word(0), Word(SOA_STREAM_LEN)]),
                LogicalObject::compute(
                    ObjectId(1),
                    LocalConfig::with_imm(Operation::MulImm, Word(3 + (k as u64 % 5))),
                ),
                LogicalObject::compute(
                    ObjectId(2),
                    LocalConfig::with_imm(Operation::AddImm, Word(7)),
                ),
                LogicalObject::compute(ObjectId(3), LocalConfig::op(Operation::INot)),
                LogicalObject::compute(
                    ObjectId(4),
                    LocalConfig::with_imm(Operation::MulImm, Word(5)),
                ),
                LogicalObject::compute(
                    ObjectId(5),
                    LocalConfig::with_imm(Operation::AddImm, Word(k as u64 % 7)),
                ),
                LogicalObject::compute(ObjectId(6), LocalConfig::op(Operation::INot)),
                LogicalObject::memory(ObjectId(7), LocalConfig::op(Operation::Store))
                    .with_init(vec![Word(SOA_STREAM_LEN), Word(0), Word(0)]),
            ],
        )
        .expect("install stream kernel");
        let words: Vec<Word> = (0..SOA_STREAM_LEN)
            .map(|i| Word((k as u64).wrapping_mul(1_000_003).wrapping_add(i)))
            .collect();
        chip.write_mailbox(id, 0, 0, &words).expect("fill block 0");
        chip.activate(id).expect("activate");
        let stream: GlobalConfigStream = [
            GlobalConfigElement::unary(ObjectId(1), ObjectId(0)),
            GlobalConfigElement::unary(ObjectId(2), ObjectId(1)),
            GlobalConfigElement::unary(ObjectId(3), ObjectId(2)),
            GlobalConfigElement::unary(ObjectId(4), ObjectId(3)),
            GlobalConfigElement::unary(ObjectId(5), ObjectId(4)),
            GlobalConfigElement::unary(ObjectId(6), ObjectId(5)),
            GlobalConfigElement {
                sink: ObjectId(7),
                src_lhs: None,
                src_rhs: Some(ObjectId(6)),
                src_pred: None,
            },
        ]
        .into_iter()
        .collect();
        chip.configure(id, stream).expect("configure");
        ids.push(id);
    }
    (chip, ids)
}

/// FNV digest over every lane's report (taps and node firings sorted by
/// object id) and the stored output words read back through the
/// mailbox. Deactivates each processor to read its memory. Panics if
/// every stored word read back is zero — a digest of an empty read-back
/// pins nothing.
fn sweep_digest(chip: &mut VlsiChip, ids: &[ProcessorId], reports: &[ExecutionReport]) -> u64 {
    let mut text = String::new();
    let mut stored_nonzero = false;
    for (i, (&id, r)) in ids.iter().zip(reports).enumerate() {
        let mut taps: Vec<(u32, &Vec<Word>)> = r.taps.iter().map(|(o, v)| (o.0, v)).collect();
        taps.sort_unstable_by_key(|(o, _)| *o);
        let mut firings: Vec<(u32, u64)> = r.node_firings.iter().map(|&(o, n)| (o.0, n)).collect();
        firings.sort_unstable_by_key(|(o, _)| *o);
        let _ = writeln!(
            text,
            "{i} cycles {} firings {} loads {} stores {} drained {} tokens {} \
             taps {taps:?} node_firings {firings:?} release {:?}",
            r.cycles, r.firings, r.loads, r.stores, r.drained, r.release_tokens, r.release_order,
        );
        chip.deactivate(id).expect("deactivate for readback");
        // The Store object is the second memory object installed, so it
        // owns block 1 (block 0 holds the inputs).
        let out = chip
            .read_mailbox(id, 1, SOA_STREAM_LEN, SOA_STREAM_LEN as usize)
            .expect("read outputs");
        stored_nonzero |= out.iter().any(|w| w.0 != 0);
        let _ = writeln!(text, "{i} out {out:?}");
    }
    assert!(
        stored_nonzero || ids.is_empty(),
        "sweep digest hashed only zeros: the read-back missed the stored words"
    );
    fnv1a(text.as_bytes())
}

/// The SoA sweep workload: a `lanes`-AP region executed through
/// `execute_batch`'s struct-of-arrays region sweep. Returns the FNV
/// digest over every report and every stored output word.
pub fn soa_sweep(lanes: usize, width: u16) -> u64 {
    let (mut chip, ids) = soa_ready_chip(width, lanes);
    let reports = chip
        .execute_batch(&ids, 1, 1_000_000)
        .expect("SoA region sweep");
    sweep_digest(&mut chip, &ids, &reports)
}

/// Datasets each graph pumps through the [`digest`]'s [`staged_pipeline`].
const PIPELINE_DATASETS: usize = 32;

/// What [`staged_pipeline`] reports: a digest over every output vector
/// of the sequential and of the pipelined walk over the same dataset
/// batches. The two digests must be equal.
#[derive(Clone, Copy, Debug)]
pub struct StagedPipelineReport {
    /// Compiled graphs driven through both paths.
    pub graphs: u64,
    /// Datasets per graph.
    pub datasets: u64,
    /// FNV digest of every sequential output vector.
    pub digest_seq: u64,
    /// FNV digest of every pipelined output vector.
    pub digest_pipe: u64,
}

/// The staged-pipeline workload: the 12-graph netgen corpus compiled
/// through every vlsi-compile pass, each program deployed on its placed
/// regions, then fed `datasets` seeded input environments twice — once
/// as `datasets` sequential [`StagedExecutor::run`] calls (release
/// nothing, but configure every stage per dataset) and once as a single
/// [`StagedExecutor::run_pipelined`] wavefront (configure once, overlap
/// datasets across levels). Each path runs on a freshly deployed chip;
/// every pipelined output is also
/// checked against the netlist evaluator, so the digest doubles as a
/// correctness pin.
pub fn staged_pipeline(datasets: usize) -> StagedPipelineReport {
    use std::collections::HashMap;
    use vlsi_compile::{compile, CompileOptions};

    let opts = CompileOptions::default();
    let corpus = vlsi_workloads::netgen::corpus(SEED);
    let mut report = StagedPipelineReport {
        graphs: corpus.len() as u64,
        datasets: datasets as u64,
        digest_seq: 0,
        digest_pipe: 0,
    };
    let mut seq_text = String::new();
    let mut pipe_text = String::new();
    let deploy = |c: &vlsi_compile::Compilation| {
        let mut chip = VlsiChip::new(opts.chip_width, opts.chip_height, Cluster::default());
        let exec =
            StagedExecutor::deploy_placed(&mut chip, c.program.clone(), &c.placement.regions)
                .expect("the default die must fit every corpus program");
        (chip, exec)
    };
    for (name, src) in &corpus {
        let c = compile(src, &opts).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut rng = Prng::seed_from_u64(SEED ^ fnv1a(name.as_bytes()));
        let batch: Vec<HashMap<String, i64>> = (0..datasets)
            .map(|_| {
                c.netlist
                    .input_names()
                    .iter()
                    .map(|v| (v.to_string(), i64::from(rng.gen_range(-500..500i32))))
                    .collect()
            })
            .collect();

        let (mut chip, exec) = deploy(&c);
        let seq_outs: Vec<Vec<i64>> = batch
            .iter()
            .map(|env| exec.run(&mut chip, env).expect("sequential run").0)
            .collect();

        let (mut chip, exec) = deploy(&c);
        let (pipe_outs, _) = exec
            .run_pipelined(&mut chip, &batch)
            .expect("pipelined run");

        for (i, (env, out)) in batch.iter().zip(&pipe_outs).enumerate() {
            assert_eq!(
                *out,
                c.netlist.evaluate(env),
                "{name} dataset {i}: pipelined outputs must match the evaluator"
            );
        }
        for (i, out) in seq_outs.iter().enumerate() {
            let _ = writeln!(seq_text, "{name} {i} {out:?}");
        }
        for (i, out) in pipe_outs.iter().enumerate() {
            let _ = writeln!(pipe_text, "{name} {i} {out:?}");
        }
    }
    report.digest_seq = fnv1a(seq_text.as_bytes());
    report.digest_pipe = fnv1a(pipe_text.as_bytes());
    report
}

/// Runs every workload once, the cluster ones on a `threads`-wide
/// pool, and renders one
/// line per checksum: no timings, no thread count, no git rev. The text
/// must be byte-identical at every thread count, in every build profile
/// and at every commit that does not mean to move a digest;
/// `tests/parallel_determinism.rs` pins it.
pub fn digest(threads: usize) -> String {
    let (completed, events_fnv, telemetry_fnv) = cluster_mix(threads, 4);
    let storm = noc_storm();
    let (_, accept_fnv) = sched_acceptance();
    let (_, chaos_fnv) = chaos_mix();
    let (cluster_completed, cluster_msgs, cluster_fnv) = cluster_4x(threads);
    let ingest = ingest_open_loop(threads);
    let (compile_graphs, compile_completed, compile_fnv) = compile_corpus(threads);
    let digest_soa = soa_sweep(SOA_SWEEP_LANES, 64);
    let (_, chaos128_fnv) = chaos_mix_sized(128, 40);
    let pipe = staged_pipeline(PIPELINE_DATASETS);
    format!(
        "seed {SEED}\n\
         cluster_64x64x4 completed {completed}\n\
         cluster_64x64x4 events_fnv {events_fnv:#018x}\n\
         cluster_64x64x4 telemetry_fnv {telemetry_fnv:#018x}\n\
         noc_storm_32x32 digest_fnv {storm:#018x}\n\
         accept55_fifo event_log_fnv {accept_fnv:#018x}\n\
         chaos_mix_64x64 event_log_fnv {chaos_fnv:#018x}\n\
         cluster_4x_32x32 completed {cluster_completed}\n\
         cluster_4x_32x32 fabric_messages {cluster_msgs}\n\
         cluster_4x_32x32 digest_fnv {cluster_fnv:#018x}\n\
         ingest_open_loop_4x arrivals {arrivals}\n\
         ingest_open_loop_4x accepted {accepted}\n\
         ingest_open_loop_4x completed {ingest_completed}\n\
         ingest_open_loop_4x digest_fnv {ingest_fnv:#018x}\n\
         compile_corpus_12 graphs {compile_graphs}\n\
         compile_corpus_12 completed {compile_completed}\n\
         compile_corpus_12 digest_fnv {compile_fnv:#018x}\n\
         soa_sweep_1024ap lanes {SOA_SWEEP_LANES}\n\
         soa_sweep_1024ap digest_soa {digest_soa:#018x}\n\
         chaos_mix_128x128 event_log_fnv {chaos128_fnv:#018x}\n\
         staged_pipeline datasets {pipe_datasets}\n\
         staged_pipeline digest_seq {digest_seq:#018x}\n\
         staged_pipeline digest_pipe {digest_pipe:#018x}\n",
        arrivals = ingest.arrivals,
        accepted = ingest.accepted,
        ingest_completed = ingest.completed,
        ingest_fnv = ingest.digest_fnv,
        pipe_datasets = pipe.graphs * pipe.datasets,
        digest_seq = pipe.digest_seq,
        digest_pipe = pipe.digest_pipe,
    )
}
