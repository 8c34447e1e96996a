//! `exec_stream` — the core wavefront at steady state, with no serving
//! stack. Two seeds' worth of the 12-graph corpus (24 graphs, so one
//! seed's draw of random DAGs weighs little) are compiled and
//! `deploy_placed` once, in set-up, one die each; a round pumps two
//! pre-generated 256-dataset batches through every deployed executor with `run_pipelined` and
//! checks each output against pre-computed evaluator references.
//! Re-running a deployed executor is bit-identical, so every round must
//! reproduce round 0. Large batches make the per-job costs (compile,
//! deploy, configure-once) vanish — the opposite regime to
//! `serve_closed`'s 16-dataset jobs.
//!
//! One operation = one dataset.

use vlsi_ap::ApMetrics;
use vlsi_compile::CompileOptions;
use vlsi_core::{StagedExecutor, VlsiChip};
use vlsi_prng::Prng;
use vlsi_workloads::netgen;

use super::{
    compile_text, die, fold_compilation, fold_pipeline_stats, fold_snapshot, Round, Workload,
};
use crate::loadgen::{self, fnv1a, mix, Dataset};
use crate::trace::{Laps, Tracer, NONE};

const BATCHES: usize = 2;
const CORPORA: u64 = 2;

struct Deployed {
    chip: VlsiChip,
    exec: StagedExecutor,
    batches: Vec<(Vec<Dataset>, Vec<Vec<i64>>)>,
}

pub struct ExecStream {
    graphs: Vec<Deployed>,
    /// Compile and deployment counts, made once in set-up and reported
    /// with every round.
    deployed: Round,
}

fn ap_metrics(graphs: &[Deployed]) -> ApMetrics {
    graphs
        .iter()
        .fold(ApMetrics::default(), |m, g| m.merge(&g.chip.metrics().ap))
}

impl Workload for ExecStream {
    fn setup(seed: u64, smoke: bool, tracer: &Tracer) -> ExecStream {
        let opts = CompileOptions::default();
        let batch_len = if smoke { 8 } else { 256 };
        let mut rng = Prng::seed_from_u64(mix(seed, 0xE8EC));
        let mut deployed = Round::default();
        let mut graphs = Vec::new();
        let corpus = (0..CORPORA).flat_map(|k| netgen::corpus(mix(seed, k)));
        for (i, (_, text)) in corpus.enumerate() {
            let id = i as u64;
            let c = compile_text(&text, &opts, tracer, id);
            fold_compilation(&mut deployed, &c);
            let mut chip = tracer.span("loadgen.build", id, || {
                die(opts.chip_width, opts.chip_height, tracer)
            });
            let exec = tracer.span("core.deploy", id, || {
                StagedExecutor::deploy_placed(&mut chip, c.program.clone(), &c.placement.regions)
                    .expect("the compiler placed the program on this die")
            });
            let batches = (0..BATCHES)
                .map(|_| {
                    let data = tracer.span("loadgen.datasets", id, || {
                        loadgen::datasets(&c.netlist, &mut rng, batch_len)
                    });
                    let refs = tracer.span("loadgen.reference", id, || {
                        loadgen::references(&c.netlist, &data)
                    });
                    (data, refs)
                })
                .collect();
            graphs.push(Deployed {
                chip,
                exec,
                batches,
            });
        }
        let mut w = ExecStream {
            graphs,
            deployed: Round::default(),
        };
        // Warm-up round: configures every stage once (the datapaths stay
        // resident afterwards), so measured rounds are the steady state.
        let warm = w.round(0, &Tracer::disabled(), &mut Laps::start());
        assert_eq!(warm.failed, 0, "warm-up datasets must verify");
        if tracer.is_enabled() {
            let open = tracer.begin("telemetry.snapshot", NONE);
            for g in &w.graphs {
                fold_snapshot(&mut deployed, &g.chip.telemetry().snapshot());
            }
            tracer.end(open);
        }
        w.deployed = deployed;
        w
    }

    fn round(&mut self, _index: u64, tracer: &Tracer, laps: &mut Laps) -> Round {
        let mut round = self.deployed.clone();
        let before = ap_metrics(&self.graphs);
        let mut digest = Vec::new();
        let (mut verified, mut util_sum, mut runs) = (0u64, 0u64, 0u64);
        for batch in 0..BATCHES {
            for (i, g) in self.graphs.iter_mut().enumerate() {
                let (data, refs) = &g.batches[batch];
                let (outs, stats) = tracer.span("core.run_pipelined", i as u64, || {
                    g.exec
                        .run_pipelined(&mut g.chip, data)
                        .expect("deployed program runs")
                });
                tracer.span("loadgen.verify", i as u64, || {
                    verified += outs.iter().zip(refs).filter(|(o, r)| o == r).count() as u64;
                    digest.extend(outs.iter().flatten().flat_map(|v| v.to_le_bytes()));
                });
                round.attempted += data.len() as u64;
                fold_pipeline_stats(&mut round, &stats);
                util_sum += stats.utilization_milli;
                runs += 1;
                laps.mark();
            }
        }
        let after = ap_metrics(&self.graphs);
        round.set("ap.firings", after.firings - before.firings);
        round.set("ap.cycles", after.exec_cycles - before.exec_cycles);
        round.set("ap.loads", after.loads - before.loads);
        round.set("ap.stores", after.stores - before.stores);
        round.set("sim.pipeline_utilization_milli", util_sum / runs);
        round.datasets = verified;
        round.failed = round.attempted - verified;
        round.goodput_milli = verified * 1000 / round.attempted;
        round.digest = fnv1a(&digest);
        round
    }
}
