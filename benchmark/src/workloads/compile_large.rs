//! `compile_large` — the compiler does most of the work, execution
//! little. Every round compiles the same batch of large netlists
//! (chain256, tree8, butterfly6, random512, random768 at seeded
//! structures) under fresh graph names, so no two texts of a process are
//! equal and a program cache keyed on text shows nothing here (it would
//! on `serve_closed`). Artifact counts are folded for
//! every graph; every sixteenth is additionally `emit_all`-digested and
//! executed with one seeded dataset on a fresh die against the netlist
//! evaluator.
//!
//! One operation = one netlist compiled.

use vlsi_compile::CompileOptions;
use vlsi_core::StagedExecutor;
use vlsi_prng::Prng;

use super::{
    compile_text, die, fold_compilation, fold_pipeline_stats, fold_snapshot, Round, Workload,
};
use crate::loadgen::{self, fnv1a, mix};
use crate::trace::{Laps, Tracer, NONE};

const SAMPLE_EVERY: u64 = 16;

pub struct CompileLarge {
    seed: u64,
    graphs: u64,
    opts: CompileOptions,
}

impl CompileLarge {
    /// Compiles the batch under the names `<kind>_<first_serial>` onwards.
    fn compile_batch(&self, first_serial: u64, tracer: &Tracer, laps: &mut Laps) -> Round {
        let mut round = Round::default();
        let mut rng = Prng::seed_from_u64(mix(self.seed, 0x5A3B1E));
        let mut digest = Vec::new();
        let mut verified = 0u64;
        for slot in 0..self.graphs {
            if slot > 0 {
                laps.mark();
            }
            let index = first_serial + slot;
            let text = tracer.span("loadgen.netgen", index, || {
                loadgen::large_netlist(self.seed, slot, index)
            });
            let c = compile_text(&text, &self.opts, tracer, index);
            fold_compilation(&mut round, &c);
            // Every sixteenth graph is also executed. Sixteen and the five
            // kinds share no factor, so a batch's sample holds each kind
            // equally often and `sim_cycles_per_dataset` does not swing
            // with which kinds a seed happened to pick.
            if slot % SAMPLE_EVERY != 0 {
                verified += 1; // compiled; a typed error would have panicked above
                continue;
            }
            // The digest leaves the round's serial out of the dump, so a
            // round's digest is the same whatever the names.
            let dump = tracer.span("compile.emit", index, || c.emit_all());
            let unnamed = dump.replace(&c.netlist.name, "");
            digest.extend(fnv1a(unnamed.as_bytes()).to_le_bytes());
            let data = tracer.span("loadgen.datasets", index, || {
                loadgen::datasets(&c.netlist, &mut rng, 1)
            });
            let refs = tracer.span("loadgen.reference", index, || {
                loadgen::references(&c.netlist, &data)
            });
            let mut chip = tracer.span("loadgen.build", index, || {
                die(self.opts.chip_width, self.opts.chip_height, tracer)
            });
            let exec = tracer.span("core.deploy", index, || {
                StagedExecutor::deploy_placed(&mut chip, c.program.clone(), &c.placement.regions)
                    .expect("the compiler placed the program on this die")
            });
            let (outs, stats) = tracer.span("core.run_pipelined", index, || {
                exec.run_pipelined(&mut chip, &data)
                    .expect("sampled program runs")
            });
            tracer.span("core.release", index, || {
                exec.release(&mut chip).expect("stages are inactive")
            });
            round.datasets += 1;
            fold_pipeline_stats(&mut round, &stats);
            round.add("ap.cycles", stats.exec_cycles);
            if tracer.is_enabled() {
                let snap = tracer.span("telemetry.snapshot", NONE, || chip.telemetry().snapshot());
                fold_snapshot(&mut round, &snap);
            }
            tracer.span("loadgen.verify", index, || {
                if outs == refs {
                    verified += 1;
                }
                digest.extend(outs.iter().flatten().flat_map(|v| v.to_le_bytes()));
            });
        }
        round.attempted = self.graphs;
        round.failed = self.graphs - verified;
        round.goodput_milli = verified * 1000 / self.graphs;
        round.digest = fnv1a(&digest);
        let knodes = round.sim["compile.nodes"] / 1000.0;
        round.sim.insert(
            "sim.clusters_per_knode",
            round.sim["compile.clusters"] / knodes,
        );
        round
    }
}

impl Workload for CompileLarge {
    fn setup(seed: u64, smoke: bool, _tracer: &Tracer) -> CompileLarge {
        let w = CompileLarge {
            seed,
            graphs: if smoke { 5 } else { 80 },
            opts: CompileOptions::default(),
        };
        // Warm-up under names no measured round will use (rounds count up
        // from 0; the warm-up batch sits at the far end of the serials).
        let warm = w.compile_batch(u64::MAX / 2, &Tracer::disabled(), &mut Laps::start());
        assert_eq!(warm.failed, 0, "warm-up graphs must verify");
        w
    }

    fn round(&mut self, index: u64, tracer: &Tracer, laps: &mut Laps) -> Round {
        self.compile_batch(index * self.graphs, tracer, laps)
    }
}
