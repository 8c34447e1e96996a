//! `vlsic` — the netlist compiler driver.
//!
//! ```text
//! vlsic [OPTIONS] FILE        compile FILE (netlist text; `-` = stdin)
//!   --emit-after=PASS         dump the named pass's artifact and stop
//!                             (parse|partition|shape|place|channels|
//!                              schedule|pipeline)
//!   --emit-all                dump every pass's artifact
//!   --max-nodes=N             partition capacity (default 12)
//!   --chip=WxH                target die in clusters (default 32x32)
//!   --defect=X,Y              mark a defective cluster (repeatable)
//!   --year=Y                  ITRS year for wire-delay shaping, 2010–2015
//!                             (default 2012)
//!   --datasets=N              deploy on a simulated chip and run N
//!                             seeded datasets through the pipelined
//!                             executor, verifying each output against
//!                             the netlist evaluator
//! ```
//!
//! Without `--emit-*` or `--datasets`, prints a one-line summary per
//! stage plus the program totals. Exit code 1 on any compile error
//! (message on stderr, with 1-based line numbers for front-end errors)
//! or any dataset-verification mismatch.

use std::collections::HashMap;
use std::io::Read as _;
use vlsi_compile::{compile, CompileOptions, Pass};
use vlsi_core::{StagedExecutor, VlsiChip};
use vlsi_prng::Prng;
use vlsi_topology::Cluster;

fn fail(msg: &str) -> ! {
    eprintln!("vlsic: {msg}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = CompileOptions::default();
    let mut emit: Option<Pass> = None;
    let mut emit_all = false;
    let mut datasets: Option<usize> = None;
    let mut file: Option<String> = None;
    for arg in &args {
        if let Some(v) = arg.strip_prefix("--emit-after=") {
            match Pass::from_name(v) {
                Some(p) => emit = Some(p),
                None => fail(&format!("unknown pass `{v}`")),
            }
        } else if arg == "--emit-all" {
            emit_all = true;
        } else if let Some(v) = arg.strip_prefix("--max-nodes=") {
            match v.parse::<usize>() {
                Ok(n) if n > 0 => opts.max_nodes_per_stage = n,
                _ => fail(&format!("bad --max-nodes `{v}`")),
            }
        } else if let Some(v) = arg.strip_prefix("--chip=") {
            let Some((w, h)) = v.split_once('x') else {
                fail(&format!("bad --chip `{v}` (expected WxH)"));
            };
            match (w.parse::<u16>(), h.parse::<u16>()) {
                (Ok(w), Ok(h)) if w > 0 && h > 0 => {
                    opts.chip_width = w;
                    opts.chip_height = h;
                }
                _ => fail(&format!("bad --chip `{v}` (expected WxH)")),
            }
        } else if let Some(v) = arg.strip_prefix("--defect=") {
            let Some((x, y)) = v.split_once(',') else {
                fail(&format!("bad --defect `{v}` (expected X,Y)"));
            };
            match (x.parse::<u16>(), y.parse::<u16>()) {
                (Ok(x), Ok(y)) => opts.defects.push(vlsi_topology::Coord::new(x, y)),
                _ => fail(&format!("bad --defect `{v}` (expected X,Y)")),
            }
        } else if let Some(v) = arg.strip_prefix("--year=") {
            match v.parse::<u32>() {
                Ok(y) => opts.year = y,
                Err(_) => fail(&format!("bad --year `{v}`")),
            }
        } else if let Some(v) = arg.strip_prefix("--datasets=") {
            match v.parse::<usize>() {
                Ok(n) if n > 0 => datasets = Some(n),
                _ => fail(&format!("bad --datasets `{v}`")),
            }
        } else if arg.starts_with("--") {
            fail(&format!("unknown option `{arg}`"));
        } else if file.is_none() {
            file = Some(arg.clone());
        } else {
            fail("more than one input file");
        }
    }
    let Some(path) = file else {
        fail("no input file (use `-` for stdin)");
    };

    let text = if path == "-" {
        let mut s = String::new();
        match std::io::stdin().read_to_string(&mut s) {
            Ok(_) => s,
            Err(e) => fail(&format!("stdin: {e}")),
        }
    } else {
        match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => fail(&format!("{path}: {e}")),
        }
    };

    let c = match compile(&text, &opts) {
        Ok(c) => c,
        Err(e) => fail(&format!("{path}: {e}")),
    };

    if emit_all {
        print!("{}", c.emit_all());
    } else if let Some(pass) = emit {
        print!("{}", c.emit_after(pass));
    } else if let Some(n) = datasets {
        // Deploy on a simulated chip and pump N seeded datasets through
        // the pipelined executor, checking every output against the
        // netlist evaluator.
        let mut chip = VlsiChip::new(opts.chip_width, opts.chip_height, Cluster::default());
        for &d in &opts.defects {
            chip.mark_defective(d);
        }
        let exec =
            match StagedExecutor::deploy_placed(&mut chip, c.program.clone(), &c.placement.regions)
            {
                Ok(e) => e,
                Err(e) => fail(&format!("deploy: {e}")),
            };
        let names = c.netlist.input_names();
        let mut rng = Prng::seed_from_u64(2012 ^ n as u64);
        let batch: Vec<HashMap<String, i64>> = (0..n)
            .map(|_| {
                names
                    .iter()
                    .map(|v| (v.to_string(), rng.gen_range(-500..500i32) as i64))
                    .collect()
            })
            .collect();
        let (outs, stats) = match exec.run_pipelined(&mut chip, &batch) {
            Ok(r) => r,
            Err(e) => fail(&format!("pipelined run: {e}")),
        };
        for (i, (env, out)) in batch.iter().zip(&outs).enumerate() {
            let want = c.netlist.evaluate(env);
            if *out != want {
                fail(&format!(
                    "dataset {i}: chip said {out:?}, evaluator {want:?}"
                ));
            }
            println!("dataset {i}: {out:?}");
        }
        println!(
            "{}: {} datasets in {} ticks, depth {}, predicted_ii_ns {:.4}, \
             utilization {}.{:03}",
            c.program.name,
            stats.datasets,
            stats.ticks,
            c.pipeline.depth(),
            c.pipeline.predicted_ii_ns,
            stats.utilization_milli / 1000,
            stats.utilization_milli % 1000
        );
    } else {
        println!(
            "{}: {} nodes, {} stages, {} cut edges, {} channels, {} clusters on {}x{}",
            c.program.name,
            c.netlist.nodes.len(),
            c.partition.stages.len(),
            c.partition.cut_edges,
            c.channels.total,
            c.program.clusters(),
            c.placement.chip_width,
            c.placement.chip_height
        );
        for (i, s) in c.program.stages.iter().enumerate() {
            let (origin, w, h) = c.placement.regions[i]
                .as_rect()
                .expect("placed regions are rects");
            println!(
                "  {}: {w}x{h} @ ({},{}) — {} objects, {} stream elements, {} mailbox channels",
                s.name,
                origin.x,
                origin.y,
                s.objects.len(),
                s.stream.len(),
                s.inputs.len()
            );
        }
    }
}
