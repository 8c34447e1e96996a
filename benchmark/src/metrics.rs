//! The benchmark's metric vocabulary — the single source `BENCHMARK.json`
//! is checked against (see the test at the bottom).
//!
//! Every metric is tagged with a domain. `Host` is wall time or memory of
//! the simulator on this machine, and is noisy. `Sim` is what the
//! modelled machine did — ticks, cycles, counts — and must repeat exactly
//! for a seed: a change meant only to speed the simulator up may not move
//! a single one of them.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Domain {
    Host,
    Sim,
}

impl Domain {
    pub fn label(self) -> &'static str {
        match self {
            Domain::Host => "host",
            Domain::Sim => "sim",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    #[cfg(test)]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub domain: Domain,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change is a regression; per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    domain: Domain,
    better: Better,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        domain,
        better,
        bound: Some(bound),
    }
}

const fn host(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        domain: Domain::Host,
        better,
        bound: None,
    }
}

const fn sim(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        domain: Domain::Sim,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one of
/// these (the driver's contract), so they are the figures that mean the
/// same thing on all five; the workload-specific results of the modelled
/// machine (`sim.*`) sit with the per-layer metrics.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Domain::Host, Lower, 0.25),
    e2e("peak_rss_mb", "MB", Domain::Host, Lower, 0.10),
    e2e("ops_per_s", "1/s", Domain::Host, Higher, 0.10),
    e2e("goodput_milli", "permille", Domain::Sim, Higher, 0.05),
    e2e("sim_cycles_per_dataset", "cycles", Domain::Sim, Lower, 0.10),
];

/// Single-layer metrics. `_ns` is busy host time from the traced run (one
/// set-up plus one average traced round); the rest are counts and
/// simulated-time figures of round 0 of the same run.
pub const PER_LAYER: &[MetricDef] = &[
    // compile: the seven public passes, called one by one when traced.
    host("compile.parse_ns", "ns", Lower),
    host("compile.partition_ns", "ns", Lower),
    host("compile.shape_ns", "ns", Lower),
    host("compile.place_ns", "ns", Lower),
    host("compile.channels_ns", "ns", Lower),
    host("compile.schedule_ns", "ns", Lower),
    host("compile.pipemeta_ns", "ns", Lower),
    host("compile.emit_ns", "ns", Lower),
    sim("compile.graphs", "count", Higher),
    sim("compile.nodes", "count", Higher),
    sim("compile.stages", "count", Lower),
    sim("compile.cut_edges", "count", Lower),
    sim("compile.channels", "count", Lower),
    sim("compile.clusters", "count", Lower),
    // loadgen: the benchmark's own work; bounds what a layer can save.
    host("loadgen.netgen_ns", "ns", Lower),
    host("loadgen.datasets_ns", "ns", Lower),
    host("loadgen.reference_ns", "ns", Lower),
    host("loadgen.poll_ns", "ns", Lower),
    host("loadgen.verify_ns", "ns", Lower),
    host("loadgen.build_ns", "ns", Lower),
    sim("loadgen.lateness_ticks", "ticks", Lower),
    // ingest
    host("ingest.client_submit_ns", "ns", Lower),
    host("ingest.client_tick_ns", "ns", Lower),
    host("ingest.service_tick_self_ns", "ns", Lower),
    sim("ingest.ticks", "count", Lower),
    sim("ingest.arrivals", "count", Higher),
    sim("ingest.enqueued", "count", Higher),
    sim("ingest.retries", "count", Lower),
    sim("ingest.gave_up", "count", Lower),
    sim("ingest.accepted", "count", Higher),
    sim("ingest.shed_deadline", "count", Lower),
    sim("ingest.shed_degraded", "count", Lower),
    sim("ingest.rejected_rate", "count", Lower),
    sim("ingest.rejected_sink", "count", Lower),
    sim("ingest.degraded_transitions", "count", Lower),
    sim("ingest.accept_ratio_milli", "permille", Higher),
    sim("ingest.ring_wait_p99_ticks", "ticks", Lower),
    // fabric: tick_ns necessarily contains runtime/core/ap time of
    // served jobs — those layers run inside the sink's tick.
    host("fabric.submit_ns", "ns", Lower),
    host("fabric.tick_ns", "ns", Lower),
    sim("fabric.messages", "count", Lower),
    sim("fabric.crossings", "count", Lower),
    sim("fabric.migrations", "count", Lower),
    sim("fabric.retransmits", "count", Lower),
    sim("fabric.jobs_lost", "count", Lower),
    sim("fabric.chip_failures", "count", Lower),
    sim("fabric.msg_latency_p99", "ticks", Lower),
    // runtime
    sim("runtime.submissions", "count", Higher),
    sim("runtime.completed", "count", Higher),
    sim("runtime.failures", "count", Lower),
    sim("runtime.migrated_out", "count", Lower),
    sim("runtime.wait_p50_ticks", "ticks", Lower),
    sim("runtime.wait_p99_ticks", "ticks", Lower),
    sim("runtime.turnaround_p99_ticks", "ticks", Lower),
    host("runtime.retained_kb_per_job", "KB", Lower),
    // core
    host("core.gather_ns", "ns", Lower),
    host("core.install_ns", "ns", Lower),
    host("core.write_mailbox_ns", "ns", Lower),
    host("core.activate_ns", "ns", Lower),
    host("core.configure_ns", "ns", Lower),
    host("core.deactivate_ns", "ns", Lower),
    host("core.read_mailbox_ns", "ns", Lower),
    host("core.deploy_ns", "ns", Lower),
    host("core.run_pipelined_ns", "ns", Lower),
    host("core.release_ns", "ns", Lower),
    sim("core.gathers", "count", Lower),
    sim("core.releases", "count", Lower),
    sim("core.compactions", "count", Lower),
    sim("core.relocations", "count", Lower),
    sim("core.stages_executed", "count", Lower),
    sim("core.mailbox_writes", "count", Lower),
    sim("core.exec_cycles", "cycles", Lower),
    sim("core.config_cycles", "cycles", Lower),
    sim("core.wavefront_ticks", "ticks", Lower),
    sim("core.scaling_latency_p99", "cycles", Lower),
    // ap
    host("ap.execute_batch_ns", "ns", Lower),
    sim("ap.firings", "count", Lower),
    sim("ap.cycles", "cycles", Lower),
    sim("ap.loads", "count", Lower),
    sim("ap.stores", "count", Lower),
    sim("ap.hits", "count", Higher),
    sim("ap.misses", "count", Lower),
    host("ap.ns_per_firing", "ns", Lower),
    // noc / topology: worm-programming volume behind deploy and gather.
    sim("noc.link_crossings", "count", Lower),
    sim("noc.retransmissions", "count", Lower),
    sim("noc.misroutes", "count", Lower),
    sim("topology.switch_stores", "count", Lower),
    // The latency/throughput curve behind sim.sat_rate_milli.
    sim("overload.r500.wait_p99_ticks", "ticks", Lower),
    sim("overload.r500.goodput_milli", "permille", Higher),
    sim("overload.r500.backlog_end", "count", Lower),
    sim("overload.r1000.wait_p99_ticks", "ticks", Lower),
    sim("overload.r1000.goodput_milli", "permille", Higher),
    sim("overload.r1000.backlog_end", "count", Lower),
    sim("overload.r1500.wait_p99_ticks", "ticks", Lower),
    sim("overload.r1500.goodput_milli", "permille", Higher),
    sim("overload.r1500.backlog_end", "count", Lower),
    sim("overload.r2000.wait_p99_ticks", "ticks", Lower),
    sim("overload.r2000.goodput_milli", "permille", Higher),
    sim("overload.r2000.backlog_end", "count", Lower),
    sim("overload.r3000.wait_p99_ticks", "ticks", Lower),
    sim("overload.r3000.goodput_milli", "permille", Higher),
    sim("overload.r3000.backlog_end", "count", Lower),
    sim("overload.r4000.wait_p99_ticks", "ticks", Lower),
    sim("overload.r4000.goodput_milli", "permille", Higher),
    sim("overload.r4000.backlog_end", "count", Lower),
    sim("overload.r16000.wait_p99_ticks", "ticks", Lower),
    sim("overload.r16000.goodput_milli", "permille", Higher),
    sim("overload.r16000.backlog_end", "count", Lower),
    // Results of the modelled machine that only some workloads have.
    sim("sim.sojourn_p50_ticks", "ticks", Lower),
    sim("sim.sojourn_p99_ticks", "ticks", Lower),
    sim("sim.sat_rate_milli", "mjobs/tick", Higher),
    sim("sim.pipeline_utilization_milli", "permille", Higher),
    sim("sim.clusters_per_knode", "count", Lower),
    sim("sim.lane_cycles_per_word", "cycles", Lower),
    // The cost of looking.
    host("telemetry.overhead_milli", "permille", Lower),
    host("telemetry.snapshot_ns", "ns", Lower),
    host("telemetry.spans", "count", Lower),
    host("trace.residual_milli", "permille", Lower),
];

/// One offered-load step: its rate and its wait-p99, goodput and
/// end-backlog metric names (which `PER_LAYER` lists above).
macro_rules! overload_step {
    ($rate:literal) => {
        (
            $rate,
            [
                concat!("overload.r", $rate, ".wait_p99_ticks"),
                concat!("overload.r", $rate, ".goodput_milli"),
                concat!("overload.r", $rate, ".backlog_end"),
            ],
        )
    };
}

/// The offered-load steps of `serve_overload`, in milli-jobs per tick.
pub const OVERLOAD_STEPS: [(u64, [&str; 3]); 7] = [
    overload_step!(500),
    overload_step!(1000),
    overload_step!(1500),
    overload_step!(2000),
    overload_step!(3000),
    overload_step!(4000),
    overload_step!(16000),
];

pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "{} defined twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        for (_, names) in OVERLOAD_STEPS {
            assert!(names.iter().all(|n| lookup(n).is_some()));
        }
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// program prints. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        for (key, table, bounded) in [
            ("end_to_end", END_TO_END, true),
            ("per_layer", PER_LAYER, false),
        ] {
            let rows = doc.get(key).and_then(Json::as_arr).unwrap();
            assert_eq!(rows.len(), table.len(), "{key} length");
            for (row, def) in rows.iter().zip(table) {
                let field = |f: &str| row.get(f).and_then(Json::as_str).unwrap_or("");
                assert_eq!(field("name"), def.name);
                assert_eq!(field("unit"), def.unit, "{}", def.name);
                assert_eq!(field("better"), def.better.label(), "{}", def.name);
                assert_eq!(row.get("bound").and_then(Json::as_f64), def.bound);
                assert_eq!(row.as_obj().unwrap().len(), if bounded { 4 } else { 3 });
            }
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }
}
