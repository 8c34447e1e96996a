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
//! [`optimize_stream`](vlsi_workloads::optimize_stream) — the paper's
//! §5 point that "the application compiler chooses the stream order" —
//! so the emitted stream arrives in the working-set-friendly order the
//! optimiser proves semantics-preserving.

use crate::channels::Channels;
use crate::error::CompileError;
use crate::netlist::{NetOp, Netlist, NodeId};
use crate::partition::Partition;
use crate::place::Placement;
use std::collections::HashMap;
use vlsi_core::{StagedProgram, StagedStage};
use vlsi_object::{
    GlobalConfigElement, GlobalConfigStream, LocalConfig, LogicalObject, ObjectId, Operation, Word,
};
use vlsi_workloads::optimize_stream;

/// Lowers the partitioned, placed, channel-assigned graph to the
/// executable artifact.
pub fn schedule(
    netlist: &Netlist,
    part: &Partition,
    placement: &Placement,
    channels: &Channels,
) -> Result<StagedProgram, CompileError> {
    let mut stages = Vec::with_capacity(part.stages.len());
    for (i, st) in part.stages.iter().enumerate() {
        let binds = &channels.stages[i].bindings;
        let mut objects: Vec<LogicalObject> = Vec::new();
        let mut elements: Vec<GlobalConfigElement> = Vec::new();
        let mut next_id = 0u32;
        let mut fresh = || {
            let id = ObjectId(next_id);
            next_id += 1;
            id
        };

        // Mailbox loads + their address constants.
        let mut src_of: HashMap<NodeId, ObjectId> = HashMap::new();
        let mut inputs = Vec::with_capacity(binds.len());
        let mut addrs = Vec::with_capacity(binds.len());
        for &(node, block) in binds {
            let mem = fresh();
            objects.push(
                LogicalObject::memory(mem, LocalConfig::op(Operation::Load)).with_init(vec![
                    Word(0),
                    Word(block as u64),
                    Word(0),
                ]),
            );
            src_of.insert(node, mem);
            inputs.push((netlist.nodes[node].name.clone(), block));
            addrs.push(mem);
        }
        for &mem in &addrs {
            let addr = fresh();
            objects.push(LogicalObject::compute(
                addr,
                LocalConfig::with_imm(Operation::Const, Word(0)),
            ));
            elements.push(GlobalConfigElement::unary(mem, addr));
        }

        // Assigned nodes: binary compute objects and output-constants.
        // (Assigned consts double as the stage's local copy, so the
        // local-const loop below skips them.)
        for &id in &st.nodes {
            let obj = fresh();
            match netlist.nodes[id].op {
                NetOp::Bin(op, ..) => {
                    objects.push(LogicalObject::compute(obj, LocalConfig::op(op.operation())));
                }
                NetOp::Const(v) => {
                    objects.push(LogicalObject::compute(
                        obj,
                        LocalConfig::with_imm(Operation::Const, Word::from_i64(v)),
                    ));
                }
                NetOp::Input => unreachable!("inputs are never assigned to stages"),
            }
            src_of.insert(id, obj);
        }

        // Local constants not already materialised as assigned nodes.
        for &c in &st.consts {
            if src_of.contains_key(&c) {
                continue;
            }
            let NetOp::Const(v) = netlist.nodes[c].op else {
                unreachable!("partition consts are Const nodes");
            };
            let obj = fresh();
            objects.push(LogicalObject::compute(
                obj,
                LocalConfig::with_imm(Operation::Const, Word::from_i64(v)),
            ));
            src_of.insert(c, obj);
        }

        // Dataflow elements, in node (definition) order.
        for &id in &st.nodes {
            if let NetOp::Bin(_, a, b) = netlist.nodes[id].op {
                let lhs = src_of[&a];
                let rhs = src_of[&b];
                elements.push(GlobalConfigElement::binary(src_of[&id], lhs, rhs));
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
            elements.push(GlobalConfigElement::unary(probe, src_of[&id]));
            outputs.push((netlist.nodes[id].name.clone(), probe));
        }

        let raw: GlobalConfigStream = elements.into_iter().collect();
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
