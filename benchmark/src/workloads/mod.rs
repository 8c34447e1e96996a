//! The five workloads. Each is a fixed amount of work per **round** (so
//! every simulated-domain number is exact for a seed) replayed for the
//! time budget (so host rates rest on many replays of the same work).

use std::collections::BTreeMap;

use vlsi_compile::{
    assign_channels, compile, partition, pipeline_meta, place, schedule, shape, Compilation,
    CompileOptions, Netlist,
};
use vlsi_core::{PipelineRunStats, VlsiChip};
use vlsi_fabric::{Cluster as ChipCluster, ClusterConfig, ClusterTopology};
use vlsi_par::Pool;
use vlsi_runtime::{Fifo, JobRecord, JobState, Runtime, RuntimeConfig};
use vlsi_telemetry::{Snapshot, TelemetryHandle};
use vlsi_topology::Cluster as ClusterShape;

use crate::trace::{Laps, Tracer};

pub mod compile_large;
pub mod exec_stream;
pub mod lane_sweep;
pub mod serve_closed;
pub mod serve_overload;
mod serving;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 5] = [
    "serve_closed",
    "serve_overload",
    "compile_large",
    "exec_stream",
    "lane_sweep",
];

/// Everything about a round that must repeat exactly for a seed: the
/// simulated-domain figures by name, then attempted, failed, datasets,
/// modelled cycles, goodput and digest.
pub type Fingerprint = (BTreeMap<&'static str, f64>, [u64; 6]);

/// What one round did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Round {
    /// Operations attempted; the unit is the workload's own (see README).
    pub attempted: u64,
    /// Operations refused, failed, lost, unaccounted for or mismatching
    /// their reference.
    pub failed: u64,
    /// Verified datasets and the modelled cycles (configuration +
    /// execution) they cost — the two halves of `sim_cycles_per_dataset`.
    pub datasets: u64,
    pub sim_cycles: u64,
    /// Completed-and-verified ‰ of what was offered.
    pub goodput_milli: u64,
    /// Simulated-domain results and counts by metric name. Exact for a
    /// seed; a traced round adds the counts only crate telemetry has.
    pub sim: BTreeMap<&'static str, f64>,
    /// Host-domain figures a round measures itself (not span times).
    pub host: BTreeMap<&'static str, f64>,
    /// Digest over sampled artifacts and outputs.
    pub digest: u64,
}

impl Round {
    pub fn set(&mut self, name: &'static str, value: u64) {
        self.sim.insert(name, value as f64);
    }

    pub fn add(&mut self, name: &'static str, value: u64) {
        *self.sim.entry(name).or_insert(0.0) += value as f64;
    }

    /// Everything about the round that must repeat exactly for a seed.
    pub fn exact(&self) -> (&BTreeMap<&'static str, f64>, [u64; 6]) {
        let counts = [
            self.attempted,
            self.failed,
            self.datasets,
            self.sim_cycles,
            self.goodput_milli,
            self.digest,
        ];
        (&self.sim, counts)
    }

    pub fn fingerprint(&self) -> Fingerprint {
        let (sim, counts) = self.exact();
        (sim.clone(), counts)
    }
}

pub trait Workload {
    /// Everything before the first measured round, timed as `setup_s`:
    /// input generation, chip construction, pre-compiles, deployment and
    /// one warm-up round. `smoke` shrinks every count about fifty-fold.
    fn setup(seed: u64, smoke: bool, tracer: &Tracer) -> Self
    where
        Self: Sized;

    /// One round of fixed work; every round replays round 0's inputs, so
    /// its simulated-domain results must equal round 0's exactly. With an
    /// enabled tracer the round also runs the crates' telemetry and
    /// records spans. The round marks `laps` at the same points of its
    /// work every time it runs.
    fn round(&mut self, index: u64, tracer: &Tracer, laps: &mut Laps) -> Round;
}

/// Compiles netlist text. Untraced, that is one call to `compile()`;
/// traced, the seven public pass functions are called one by one so each
/// gets its own span — the artifacts are the same either way.
pub fn compile_text(text: &str, opts: &CompileOptions, tracer: &Tracer, job: u64) -> Compilation {
    if !tracer.is_enabled() {
        return compile(text, opts).expect("generated netlists compile");
    }
    let ok = "generated netlists compile";
    let netlist = tracer.span("compile.parse", job, || Netlist::parse(text).expect(ok));
    let part = tracer.span("compile.partition", job, || {
        partition(&netlist, opts.max_nodes_per_stage)
    });
    let shapes = tracer.span("compile.shape", job, || {
        let (w, h) = (opts.chip_width, opts.chip_height);
        shape(&netlist, &part, &opts.cluster, w, h, opts.year).expect(ok)
    });
    let placement = tracer.span("compile.place", job, || {
        place(&shapes, opts.chip_width, opts.chip_height, &opts.defects).expect(ok)
    });
    let channels = tracer.span("compile.channels", job, || {
        assign_channels(&netlist, &part, &shapes, &opts.cluster).expect(ok)
    });
    let program = tracer.span("compile.schedule", job, || {
        schedule(&netlist, &part, &placement, &channels).expect(ok)
    });
    let pipeline = tracer.span("compile.pipemeta", job, || pipeline_meta(&program, &shapes));
    Compilation {
        netlist,
        partition: part,
        shape: shapes,
        placement,
        channels,
        program,
        pipeline,
    }
}

/// Adds one compiled graph's artifact counts to the round.
pub fn fold_compilation(round: &mut Round, c: &Compilation) {
    round.add("compile.graphs", 1);
    round.add("compile.nodes", c.netlist.nodes.len() as u64);
    round.add("compile.stages", c.partition.stages.len() as u64);
    round.add("compile.cut_edges", c.partition.cut_edges as u64);
    round.add("compile.channels", c.channels.total as u64);
    let clusters: usize = c.placement.regions.iter().map(|r| r.len()).sum();
    round.add("compile.clusters", clusters as u64);
}

/// A live telemetry handle for traced rounds, the no-op one otherwise.
pub fn telemetry_for(tracer: &Tracer) -> TelemetryHandle {
    if tracer.is_enabled() {
        TelemetryHandle::active()
    } else {
        TelemetryHandle::disabled()
    }
}

/// A die of `width`×`height` default clusters, instrumented when traced.
pub fn die(width: u16, height: u16, tracer: &Tracer) -> VlsiChip {
    VlsiChip::with_telemetry(
        width,
        height,
        ClusterShape::default(),
        telemetry_for(tracer),
    )
}

/// Adds one `run_pipelined` batch's statistics to the round.
pub fn fold_pipeline_stats(round: &mut Round, stats: &PipelineRunStats) {
    round.sim_cycles += stats.config_cycles + stats.exec_cycles;
    round.add("core.stages_executed", stats.stages_executed);
    round.add("core.mailbox_writes", stats.mailbox_writes);
    round.add("core.exec_cycles", stats.exec_cycles);
    round.add("core.config_cycles", stats.config_cycles);
    round.add("core.wavefront_ticks", stats.ticks);
}

/// A ring of `chips` dies of `dim`×`dim` clusters on one thread.
pub fn ring_cluster(chips: usize, dim: u16, tracer: &Tracer) -> ChipCluster {
    let mut cluster = ChipCluster::with_telemetry(
        ClusterTopology::ring(chips),
        (dim, dim),
        Pool::new(1),
        ClusterConfig::standard(),
        telemetry_for(tracer),
    );
    for _ in 0..chips {
        let chip = die(dim, dim, tracer);
        cluster.push_chip(Runtime::new(chip, Box::new(Fifo), RuntimeConfig::default()));
    }
    cluster
}

/// Every job record of the cluster that reached a terminal state, keyed
/// by job name (names are unique per round). A migrated job leaves a
/// `Migrated` record behind on its old chip; only the record where it
/// finished counts. Walks every record, so call it once per round — never
/// from the polling loop.
pub fn finished_jobs(cluster: &ChipCluster) -> BTreeMap<&str, &JobRecord> {
    cluster
        .fleet()
        .chips()
        .flat_map(Runtime::jobs)
        .filter(|r| matches!(r.state, JobState::Completed | JobState::Failed))
        .map(|r| (r.spec.name.as_str(), r))
        .collect()
}

/// Folds the counts only crate telemetry carries into a traced round.
pub fn fold_snapshot(round: &mut Round, snap: &Snapshot) {
    // These metrics carry the name of the crate counter they read.
    for counter in [
        "fabric.migrations",
        "core.gathers",
        "core.releases",
        "core.compactions",
        "core.relocations",
        "ap.hits",
        "ap.misses",
        "noc.link_crossings",
        "noc.retransmissions",
        "noc.misroutes",
        "topology.switch_stores",
    ] {
        round.add(counter, snap.counter(counter));
    }
    for (metric, histogram) in [
        ("core.scaling_latency_p99", "core.scaling_latency"),
        ("fabric.msg_latency_p99", "fabric.msg_latency"),
    ] {
        let p99 = snap.histogram(histogram).map_or(0, |h| h.percentile(990));
        let slot = round.sim.entry(metric).or_insert(0.0);
        *slot = slot.max(p99 as f64);
    }
}

/// Current resident set of this process in KB (`VmRSS`), 0 off Linux.
pub fn rss_kb() -> u64 {
    proc_status_kb("VmRSS:")
}

/// Peak resident set of this process in KB (`VmHWM`), 0 off Linux.
pub fn peak_rss_kb() -> u64 {
    proc_status_kb("VmHWM:")
}

fn proc_status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The contract every workload keeps, checked at smoke size: rounds
    /// replay exactly, nothing fails, no end-to-end figure is zero, and a
    /// traced round reproduces the untraced one while its spans account
    /// for the crates it says it drives.
    fn smoke<W: Workload>(layers: &[&str]) {
        let off = Tracer::disabled();
        let mut w = W::setup(7, true, &off);
        let mut laps = Laps::start();
        let a = w.round(0, &off, &mut laps);
        let marks = laps.finish().len();
        let mut laps = Laps::start();
        let b = w.round(1, &off, &mut laps);
        assert_eq!(laps.finish().len(), marks, "rounds mark the same segments");
        assert_eq!(a.exact(), b.exact(), "round 1 replays round 0");
        assert_eq!(a.failed, 0);
        assert!(a.attempted > 0 && a.datasets > 0 && a.sim_cycles > 0 && a.goodput_milli > 0);

        let tracer = Tracer::enabled(1 << 12);
        let mut w = W::setup(7, true, &tracer);
        let c = w.round(0, &tracer, &mut Laps::start());
        assert_eq!(a.exact().1, c.exact().1, "tracing moved the outputs");
        for (name, value) in &a.sim {
            assert_eq!(c.sim.get(name), Some(value), "tracing moved {name}");
        }
        let spans = tracer.spans();
        for layer in layers {
            assert!(
                spans
                    .iter()
                    .any(|s| crate::trace::layer_of(s.name) == *layer),
                "no span of layer {layer}"
            );
        }
        for name in a.sim.keys().chain(c.sim.keys()).chain(c.host.keys()) {
            assert!(
                crate::metrics::lookup(name).is_some(),
                "{name} is not in the tables"
            );
        }
    }

    #[test]
    fn serve_closed_keeps_the_contract() {
        smoke::<serve_closed::ServeClosed>(&["compile", "loadgen", "ingest", "fabric"]);
    }

    #[test]
    fn serve_overload_keeps_the_contract() {
        smoke::<serve_overload::ServeOverload>(&["loadgen", "ingest", "fabric"]);
    }

    #[test]
    fn compile_large_keeps_the_contract() {
        smoke::<compile_large::CompileLarge>(&["compile", "loadgen", "core"]);
    }

    #[test]
    fn exec_stream_keeps_the_contract() {
        smoke::<exec_stream::ExecStream>(&["core", "loadgen"]);
    }

    #[test]
    fn lane_sweep_keeps_the_contract() {
        smoke::<lane_sweep::LaneSweep>(&["ap", "core", "loadgen"]);
    }
}
