//! The schedule pass: lower partitioned stages to an executable
//! [`StagedProgram`].
//!
//! Lowering follows the `StagedProgram::from_blocks` recipe exactly —
//! it is the same hardware contract:
//!
//! * each mailbox channel becomes a **memory `Load` object** bound to
//!   its block (`init = [0, block, 0]`), addressed by a zero-valued
//!   `Const` object, so the stage reads whatever its predecessor (or
//!   the driver) wrote at address 0;
//! * each local constant becomes a `Const` object with the value as
//!   immediate;
//! * each binary node becomes a compute object with the operator's AP
//!   operation, chained by a two-source stream element;
//! * each live-out gains a `Pass` **probe** so its value is observable
//!   as an execution tap.
//!
//! The raw element list is then fed through
//! [`optimize_stream`] — the paper's
//! §5 point that "the application compiler chooses the stream order" —
//! so the emitted stream arrives in the working-set-friendly order the
//! optimiser proves semantics-preserving.

use crate::channels::Channels;
use crate::error::CompileError;
use crate::netlist::{NetOp, Netlist, NodeId};
use crate::partition::Partition;
use crate::pipeline::Pass;
use crate::place::Placement;
use vlsi_core::{StagedProgram, StagedStage};
use vlsi_object::{
    GlobalConfigElement, GlobalConfigStream, LocalConfig, LogicalObject, ObjectId, Operation, Word,
};
use vlsi_workloads::optimize_stream;

/// "This node has no object in the stage being lowered."
const ABSENT: ObjectId = ObjectId(u32::MAX);

/// Lowers the partitioned, placed, channel-assigned graph to the
/// executable artifact.
pub fn schedule(
    netlist: &Netlist,
    part: &Partition,
    placement: &Placement,
    channels: &Channels,
) -> Result<StagedProgram, CompileError> {
    let broken =
        |stage: usize, node: Option<NodeId>, what: &'static str| CompileError::BrokenArtifact {
            pass: Pass::Schedule,
            stage,
            node,
            what,
        };
    let n_stages = part.stages.len();
    if channels.stages.len() != n_stages || placement.regions.len() != n_stages {
        let what = "channels and placement must cover every partition stage";
        return Err(broken(n_stages, None, what));
    }
    // src_of[node]: the object carrying the node's value in the stage
    // being lowered. One table for the whole netlist; each stage clears
    // the entries it set on its way out.
    let mut src_of = vec![ABSENT; netlist.nodes.len()];
    let mut stages = Vec::with_capacity(n_stages);
    for (i, st) in part.stages.iter().enumerate() {
        let binds = &channels.stages[i].bindings;
        let locals = st.nodes.len() + st.consts.len() + st.live_outs.len();
        let mut objects: Vec<LogicalObject> = Vec::with_capacity(2 * binds.len() + locals);
        let mut elements: Vec<GlobalConfigElement> =
            Vec::with_capacity(binds.len() + st.nodes.len() + st.live_outs.len());
        let mut next_id = 0u32;
        let mut fresh = || {
            let id = ObjectId(next_id);
            next_id += 1;
            id
        };
        let konst = |id: ObjectId, v: Word| {
            LogicalObject::compute(id, LocalConfig::with_imm(Operation::Const, v))
        };

        // Mailbox loads (objects 0..binds.len()), then their address
        // constants.
        let mut inputs = Vec::with_capacity(binds.len());
        for &(node, block) in binds {
            let mem = fresh();
            objects.push(
                LogicalObject::memory(mem, LocalConfig::op(Operation::Load)).with_init(vec![
                    Word(0),
                    Word(block as u64),
                    Word(0),
                ]),
            );
            src_of[node] = mem;
            inputs.push((netlist.nodes[node].name.clone(), block));
        }
        for mem in 0..binds.len() as u32 {
            let addr = fresh();
            objects.push(konst(addr, Word(0)));
            elements.push(GlobalConfigElement::unary(ObjectId(mem), addr));
        }

        // Assigned nodes: binary compute objects and output-constants.
        // (Assigned consts double as the stage's local copy, so the
        // local-const loop below skips them.)
        for &id in &st.nodes {
            let obj = fresh();
            objects.push(match netlist.nodes[id].op {
                NetOp::Bin(op, ..) => LogicalObject::compute(obj, LocalConfig::op(op.operation())),
                NetOp::Const(v) => konst(obj, Word::from_i64(v)),
                NetOp::Input => return Err(broken(i, Some(id), "an input assigned to a stage")),
            });
            src_of[id] = obj;
        }

        // Local constants not already materialised as assigned nodes.
        for &c in &st.consts {
            if src_of[c] != ABSENT {
                continue;
            }
            let NetOp::Const(v) = netlist.nodes[c].op else {
                return Err(broken(
                    i,
                    Some(c),
                    "a non-constant among a stage's constants",
                ));
            };
            let obj = fresh();
            objects.push(konst(obj, Word::from_i64(v)));
            src_of[c] = obj;
        }

        // A value the stage reads must be bound, assigned or constant here.
        let value_of = |node: NodeId| match src_of[node] {
            ABSENT => Err(broken(
                i,
                Some(node),
                "a value read that the stage never receives",
            )),
            obj => Ok(obj),
        };

        // Dataflow elements, in node (definition) order.
        for &id in &st.nodes {
            if let NetOp::Bin(_, a, b) = netlist.nodes[id].op {
                let (lhs, rhs) = (value_of(a)?, value_of(b)?);
                elements.push(GlobalConfigElement::binary(src_of[id], lhs, rhs));
            }
        }

        // Probes for live-outs.
        let mut outputs = Vec::with_capacity(st.live_outs.len());
        for &id in &st.live_outs {
            let probe = fresh();
            objects.push(LogicalObject::compute(
                probe,
                LocalConfig::op(Operation::Pass),
            ));
            elements.push(GlobalConfigElement::unary(probe, value_of(id)?));
            outputs.push((netlist.nodes[id].name.clone(), probe));
        }

        for node in binds
            .iter()
            .map(|&(node, _)| node)
            .chain(st.nodes.iter().chain(&st.consts).copied())
        {
            src_of[node] = ABSENT;
        }

        let raw = GlobalConfigStream::from_elements(elements);
        // Behind an Arc so every configure of the deployed stage —
        // including each re-deploy of a pipelined batch — shares this
        // one allocation instead of cloning the elements.
        let stream = std::sync::Arc::new(optimize_stream(&raw));
        stages.push(StagedStage {
            name: format!("s{i}"),
            clusters: placement.regions[i].len(),
            objects,
            stream,
            inputs,
            outputs,
            guard: None,
        });
    }

    let outputs = netlist
        .outputs
        .iter()
        .map(|(name, id)| (name.clone(), netlist.nodes[*id].name.clone()))
        .collect();
    Ok(StagedProgram {
        name: netlist.name.clone(),
        stages,
        outputs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition;
    use crate::place::place;
    use crate::shape::shape;
    use std::collections::HashMap;
    use vlsi_core::{StagedExecutor, VlsiChip};
    use vlsi_topology::Cluster;

    fn compile_for_test(text: &str, max_nodes: usize) -> (Netlist, StagedProgram) {
        let cluster = Cluster::default();
        let n = Netlist::parse(text).unwrap();
        let p = partition(&n, max_nodes);
        let s = shape(&n, &p, &cluster, 16, 16, 2012).unwrap();
        let pl = place(&s, 16, 16, &[]).unwrap();
        let ch = crate::channels::assign_channels(&n, &p, &s, &cluster).unwrap();
        let prog = schedule(&n, &p, &pl, &ch).unwrap();
        (n, prog)
    }

    #[test]
    fn lowered_program_matches_the_evaluator_on_chip() {
        let text = "graph g\ninput x\ninput y\nconst k 3\n\
                    node a mul x k\nnode b add a y\nnode c sub b x\n\
                    output o c\n";
        for max_nodes in [1, 2, 12] {
            let (n, prog) = compile_for_test(text, max_nodes);
            let mut chip = VlsiChip::new(16, 16, Cluster::default());
            let exec = StagedExecutor::deploy(&mut chip, prog).unwrap();
            for (x, y) in [(0i64, 0i64), (7, -2), (-100, 41)] {
                let env = HashMap::from([("x".to_string(), x), ("y".to_string(), y)]);
                let (got, _) = exec.run(&mut chip, &env).unwrap();
                assert_eq!(got, n.evaluate(&env), "max_nodes={max_nodes} x={x} y={y}");
            }
        }
    }

    /// The passes are public: artifacts edited or mixed by hand reach
    /// `schedule` as typed errors naming the stage and node, not panics.
    #[test]
    fn broken_artifacts_fail_typed() {
        let cluster = Cluster::default();
        let n =
            Netlist::parse("graph g\ninput x\nconst k 3\nnode a mul x k\noutput o a\n").unwrap();
        let p = partition(&n, 12);
        let s = shape(&n, &p, &cluster, 16, 16, 2012).unwrap();
        let pl = place(&s, 16, 16, &[]).unwrap();
        let ch = crate::channels::assign_channels(&n, &p, &s, &cluster).unwrap();
        let fails = |p: &Partition, ch: &Channels, node: Option<NodeId>, needle: &str| {
            let e = schedule(&n, p, &pl, ch).unwrap_err();
            let CompileError::BrokenArtifact {
                pass: Pass::Schedule,
                node: at,
                ..
            } = e
            else {
                panic!("unexpected {e}");
            };
            assert_eq!(at, node, "{e}");
            assert!(e.to_string().starts_with("schedule: stage "), "{e}");
            assert!(e.to_string().contains(needle), "{e}");
        };
        let mut input_assigned = p.clone();
        input_assigned.stages[0].nodes.insert(0, 0);
        fails(&input_assigned, &ch, Some(0), "input assigned");
        let mut input_as_const = p.clone();
        input_as_const.stages[0].consts.push(0);
        input_as_const.stages[0].live_ins.clear();
        let mut unbound = ch.clone();
        unbound.stages[0].bindings.clear();
        fails(&input_as_const, &unbound, Some(0), "non-constant");
        fails(&p, &unbound, Some(0), "never receives");
        let mut short = ch.clone();
        short.stages.clear();
        fails(&p, &short, None, "cover every partition stage");
    }

    #[test]
    fn comparisons_and_const_outputs_lower() {
        let text = "graph g\ninput x\nconst k 5\nnode a gt x k\nnode b eq x k\n\
                    output big a\noutput same b\noutput five k\n";
        let (n, prog) = compile_for_test(text, 12);
        let mut chip = VlsiChip::new(16, 16, Cluster::default());
        let exec = StagedExecutor::deploy(&mut chip, prog).unwrap();
        for x in [-1i64, 5, 9] {
            let env = HashMap::from([("x".to_string(), x)]);
            let (got, _) = exec.run(&mut chip, &env).unwrap();
            assert_eq!(got, n.evaluate(&env), "x={x}");
            assert_eq!(got[2], 5); // the const output
        }
    }

    #[test]
    fn stream_is_optimised_and_capacity_respected() {
        let cluster = Cluster::default();
        for (name, text) in vlsi_workloads::netgen::corpus(2012) {
            let n = Netlist::parse(&text).unwrap();
            let p = partition(&n, 12);
            let s = shape(&n, &p, &cluster, 32, 32, 2012).unwrap();
            let pl = place(&s, 32, 32, &[]).unwrap();
            let ch = crate::channels::assign_channels(&n, &p, &s, &cluster).unwrap();
            let prog = schedule(&n, &p, &pl, &ch).unwrap();
            for (i, st) in prog.stages.iter().enumerate() {
                // Non-memory working set fits the region's stack.
                let mem_count = st.inputs.len();
                let compute_count = st.objects.len() - mem_count;
                assert!(
                    compute_count <= st.clusters * cluster.compute_objects,
                    "{name} stage {i}: {compute_count} compute objects on {} clusters",
                    st.clusters
                );
                assert!(mem_count <= st.clusters * cluster.memory_objects);
            }
        }
    }
}
