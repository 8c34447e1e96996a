//! The pass pipeline: parse → partition → shape → place → channels →
//! schedule → pipeline, with dumpable artifacts and per-pass telemetry.
//!
//! [`compile`] runs every pass in order and returns a [`Compilation`]
//! holding *all* intermediate artifacts — each pass's output is a
//! typed value, so passes unit-test in isolation and
//! [`Compilation::emit_after`] renders any artifact as deterministic
//! text for `--emit-after=<pass>` dumps and golden diffs.
//!
//! Telemetry (when the handle is live) records one `compile` span per
//! pass plus the gauges the end-to-end benchmark's `compile.*` metrics
//! read:
//! `compile.stages`, `compile.cut_edges`, `compile.channels`,
//! `compile.clusters`, and `compile.utilization_milli` (compute
//! objects used over compute objects claimed, ×1000).

use crate::channels::{assign_channels, Channels};
use crate::error::CompileError;
use crate::netlist::Netlist;
use crate::partition::{partition, Partition};
use crate::pipemeta::{pipeline_meta, PipelineMeta};
use crate::place::{place, Placement};
use crate::schedule::schedule;
use crate::shape::{shape, Shape};
use std::fmt::Write as _;
use vlsi_core::StagedProgram;
use vlsi_telemetry::TelemetryHandle;
use vlsi_topology::{Cluster, Coord};

/// The pipeline's passes, in order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Pass {
    /// Text → [`Netlist`].
    Parse,
    /// [`Netlist`] → [`Partition`].
    Partition,
    /// [`Partition`] → [`Shape`].
    Shape,
    /// [`Shape`] → [`Placement`].
    Place,
    /// [`Partition`] + [`Shape`] → [`Channels`].
    Channels,
    /// Everything → [`StagedProgram`].
    Schedule,
    /// [`StagedProgram`] + [`Shape`] → [`PipelineMeta`] (Fig. 7(d)
    /// depth, buffer requirements, predicted initiation interval).
    Pipeline,
}

impl Pass {
    /// All passes, in pipeline order.
    pub const ALL: [Pass; 7] = [
        Pass::Parse,
        Pass::Partition,
        Pass::Shape,
        Pass::Place,
        Pass::Channels,
        Pass::Schedule,
        Pass::Pipeline,
    ];

    /// The pass's `--emit-after` name.
    pub fn name(self) -> &'static str {
        match self {
            Pass::Parse => "parse",
            Pass::Partition => "partition",
            Pass::Shape => "shape",
            Pass::Place => "place",
            Pass::Channels => "channels",
            Pass::Schedule => "schedule",
            Pass::Pipeline => "pipeline",
        }
    }

    /// Parses an `--emit-after` name.
    pub fn from_name(s: &str) -> Option<Pass> {
        Pass::ALL.into_iter().find(|p| p.name() == s)
    }
}

/// Compilation parameters.
#[derive(Clone, Debug)]
pub struct CompileOptions {
    /// Partition capacity: binary nodes per stage.
    pub max_nodes_per_stage: usize,
    /// Target die width in clusters.
    pub chip_width: u16,
    /// Target die height in clusters.
    pub chip_height: u16,
    /// Cluster composition of the target die.
    pub cluster: Cluster,
    /// Known-defective clusters the placement must avoid.
    pub defects: Vec<Coord>,
    /// ITRS year for the shaping pass's wire-delay weighting.
    pub year: u32,
    /// Telemetry sink (disabled by default).
    pub telemetry: TelemetryHandle,
}

impl Default for CompileOptions {
    fn default() -> CompileOptions {
        CompileOptions {
            max_nodes_per_stage: 12,
            chip_width: 32,
            chip_height: 32,
            cluster: Cluster::default(),
            defects: Vec::new(),
            year: 2012,
            telemetry: TelemetryHandle::disabled(),
        }
    }
}

/// Every artifact the pipeline produced, one per pass.
#[derive(Clone, Debug)]
pub struct Compilation {
    /// The parsed graph.
    pub netlist: Netlist,
    /// The partition.
    pub partition: Partition,
    /// The shapes.
    pub shape: Shape,
    /// The placement.
    pub placement: Placement,
    /// The channel maps.
    pub channels: Channels,
    /// The executable program.
    pub program: StagedProgram,
    /// The pipeline-overlap metadata.
    pub pipeline: PipelineMeta,
}

/// Runs the full pipeline over netlist text.
pub fn compile(text: &str, opts: &CompileOptions) -> Result<Compilation, CompileError> {
    let t = &opts.telemetry;
    // One span per pass on the `compile` track; the pass index doubles
    // as span id and (begin, end) cycle pair so traces order cleanly.
    let span = |name: &'static str, ix: u64| t.span_begin("compile", name, ix, ix);
    let end = |name: &'static str, ix: u64| t.span_end("compile", name, ix, ix + 1);

    span("parse", 0);
    let netlist = Netlist::parse(text)?;
    end("parse", 0);

    span("partition", 1);
    let part = partition(&netlist, opts.max_nodes_per_stage);
    end("partition", 1);

    span("shape", 2);
    let shapes = shape(
        &netlist,
        &part,
        &opts.cluster,
        opts.chip_width,
        opts.chip_height,
        opts.year,
    )?;
    end("shape", 2);

    span("place", 3);
    let placement = place(&shapes, opts.chip_width, opts.chip_height, &opts.defects)?;
    end("place", 3);

    span("channels", 4);
    let channels = assign_channels(&netlist, &part, &shapes, &opts.cluster)?;
    end("channels", 4);

    span("schedule", 5);
    let program = schedule(&netlist, &part, &placement, &channels)?;
    end("schedule", 5);

    span("pipeline", 6);
    let pipeline = pipeline_meta(&program, &shapes);
    end("pipeline", 6);

    t.count("compile.graphs", 1);
    t.gauge_set("compile.pipeline_depth", pipeline.depth() as i64);
    t.gauge_set(
        "compile.pipeline_ii_milli_ns",
        (pipeline.predicted_ii_ns * 1000.0).round() as i64,
    );
    t.gauge_set("compile.stages", part.stages.len() as i64);
    t.gauge_set("compile.cut_edges", part.cut_edges as i64);
    t.gauge_set("compile.channels", channels.total as i64);
    let claimed_clusters: usize = placement.regions.iter().map(|r| r.len()).sum();
    t.gauge_set("compile.clusters", claimed_clusters as i64);
    let used: usize = shapes.stages.iter().map(|s| s.compute_objects).sum();
    let claimed = claimed_clusters * opts.cluster.compute_objects;
    if let Some(per_mille) = (used * 1000).checked_div(claimed) {
        t.gauge_set("compile.utilization_milli", per_mille as i64);
    }

    Ok(Compilation {
        netlist,
        partition: part,
        shape: shapes,
        placement,
        channels,
        program,
        pipeline,
    })
}

impl Compilation {
    /// Renders the artifact the named pass produced, as deterministic
    /// text (the `--emit-after=<pass>` payload; golden-diff friendly).
    pub fn emit_after(&self, pass: Pass) -> String {
        let mut o = String::new();
        match pass {
            Pass::Parse => return self.netlist.render(),
            Pass::Partition => {
                let _ = writeln!(
                    o,
                    "partition {} max_nodes={} stages={} cut_edges={}",
                    self.netlist.name,
                    self.partition.max_nodes,
                    self.partition.stages.len(),
                    self.partition.cut_edges
                );
                for (i, s) in self.partition.stages.iter().enumerate() {
                    let names = |ids: &[usize]| -> String {
                        ids.iter()
                            .map(|&id| self.netlist.nodes[id].name.as_str())
                            .collect::<Vec<_>>()
                            .join(",")
                    };
                    let _ = writeln!(
                        o,
                        "stage {i} nodes=[{}] live_in=[{}] live_out=[{}] consts=[{}]",
                        names(&s.nodes),
                        names(&s.live_ins),
                        names(&s.live_outs),
                        names(&s.consts)
                    );
                }
            }
            Pass::Shape => {
                let _ = writeln!(o, "shape {} year={}", self.netlist.name, self.shape.year);
                for (i, s) in self.shape.stages.iter().enumerate() {
                    let _ = writeln!(
                        o,
                        "stage {i} rect={}x{} clusters={} compute={} memory={} wire_ns={:.4}",
                        s.width,
                        s.height,
                        s.clusters(),
                        s.compute_objects,
                        s.memory_objects,
                        s.est_wire_delay_ns
                    );
                }
            }
            Pass::Place => {
                let _ = writeln!(
                    o,
                    "place {} die={}x{} defects={}",
                    self.netlist.name,
                    self.placement.chip_width,
                    self.placement.chip_height,
                    self.placement.defects.len()
                );
                for (i, r) in self.placement.regions.iter().enumerate() {
                    // `place` emits rectangles; a hand-built placement
                    // may not, and its dump says so instead of panicking.
                    let _ = match r.as_rect() {
                        Some((origin, w, h)) => writeln!(
                            o,
                            "stage {i} origin=({},{}) rect={w}x{h}",
                            origin.x, origin.y
                        ),
                        None => writeln!(o, "stage {i} cells={} (not a rectangle)", r.len()),
                    };
                }
            }
            Pass::Channels => {
                let _ = writeln!(
                    o,
                    "channels {} total={}",
                    self.netlist.name, self.channels.total
                );
                for (i, s) in self.channels.stages.iter().enumerate() {
                    let binds = s
                        .bindings
                        .iter()
                        .map(|(node, block)| format!("{}->{block}", self.netlist.nodes[*node].name))
                        .collect::<Vec<_>>()
                        .join(" ");
                    let _ = writeln!(o, "stage {i} [{binds}]");
                }
            }
            Pass::Schedule => {
                let _ = writeln!(
                    o,
                    "schedule {} stages={} clusters={}",
                    self.program.name,
                    self.program.stages.len(),
                    self.program.clusters()
                );
                for s in &self.program.stages {
                    let ins = s
                        .inputs
                        .iter()
                        .map(|(v, b)| format!("{v}@{b}"))
                        .collect::<Vec<_>>()
                        .join(" ");
                    let outs = s
                        .outputs
                        .iter()
                        .map(|(v, tap)| format!("{v}@{}", tap.0))
                        .collect::<Vec<_>>()
                        .join(" ");
                    let _ = writeln!(
                        o,
                        "stage {} clusters={} objects={} stream={} in=[{ins}] out=[{outs}]",
                        s.name,
                        s.clusters,
                        s.objects.len(),
                        s.stream.len()
                    );
                }
                for (name, var) in &self.program.outputs {
                    let _ = writeln!(o, "output {name} {var}");
                }
            }
            Pass::Pipeline => {
                let p = &self.pipeline;
                let _ = writeln!(
                    o,
                    "pipeline {} depth={} predicted_ii_ns={:.4} fill_ns={:.4}",
                    self.program.name,
                    p.depth(),
                    p.predicted_ii_ns,
                    p.fill_ns
                );
                for (l, group) in p.levels.iter().enumerate() {
                    let names = group
                        .iter()
                        .map(|&j| p.stages[j].name.as_str())
                        .collect::<Vec<_>>()
                        .join(",");
                    let _ = writeln!(o, "level {l} stages=[{names}]");
                }
                for s in &p.stages {
                    let _ = writeln!(
                        o,
                        "stage {} level={} buffer_words={} est_ns={:.4}",
                        s.name, s.level, s.buffer_words, s.est_stage_ns
                    );
                }
            }
        }
        o
    }

    /// Every pass's dump concatenated (the full artifact trail).
    pub fn emit_all(&self) -> String {
        Pass::ALL
            .iter()
            .map(|p| format!("== {} ==\n{}", p.name(), self.emit_after(*p)))
            .collect::<Vec<_>>()
            .join("")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str =
        "graph g\ninput x\ninput y\nconst k 3\nnode a mul x k\nnode b add a y\noutput o b\n";

    #[test]
    fn pipeline_is_deterministic_per_input() {
        let opts = CompileOptions::default();
        let a = compile(SAMPLE, &opts).unwrap();
        let b = compile(SAMPLE, &opts).unwrap();
        assert_eq!(a.emit_all(), b.emit_all());
        assert_eq!(a.program, b.program);
    }

    #[test]
    fn every_pass_dumps_nonempty_text() {
        let c = compile(SAMPLE, &CompileOptions::default()).unwrap();
        for p in Pass::ALL {
            let d = c.emit_after(p);
            assert!(!d.is_empty(), "{} dump empty", p.name());
        }
        assert!(c.emit_all().contains("== schedule =="));
    }

    #[test]
    fn pass_names_round_trip() {
        for p in Pass::ALL {
            assert_eq!(Pass::from_name(p.name()), Some(p));
        }
        assert_eq!(Pass::from_name("nope"), None);
    }

    #[test]
    fn telemetry_gauges_and_spans_land() {
        let handle = vlsi_telemetry::TelemetryHandle::active();
        let opts = CompileOptions {
            telemetry: handle.clone(),
            max_nodes_per_stage: 1,
            ..CompileOptions::default()
        };
        compile(SAMPLE, &opts).unwrap();
        let snap = handle.snapshot();
        assert_eq!(snap.counter("compile.graphs"), 1);
        assert_eq!(snap.gauge("compile.stages"), 2);
        assert!(snap.gauge("compile.channels") >= 2);
        assert!(snap.gauge("compile.utilization_milli") > 0);
    }

    #[test]
    fn errors_surface_with_their_pass() {
        let e = compile("graph g\n", &CompileOptions::default()).unwrap_err();
        assert!(matches!(e, CompileError::Netlist(_)));
        let opts = CompileOptions {
            chip_width: 1,
            chip_height: 1,
            ..CompileOptions::default()
        };
        // 1×1 die: a stage needing 2+ clusters cannot be shaped.
        let mut text = String::from("graph g\ninput x\n");
        let mut prev = "x".to_string();
        for i in 0..12 {
            text.push_str(&format!("node n{i} add {prev} {prev}\n"));
            prev = format!("n{i}");
        }
        text.push_str(&format!("output o {prev}\n"));
        let e = compile(&text, &opts).unwrap_err();
        assert!(matches!(e, CompileError::StageTooLarge { .. }));
    }
}
