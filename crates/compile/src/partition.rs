//! The partition pass: cut the DAG into mailbox-connected stages.
//!
//! This generalises the basic-block partitioner of
//! `vlsi-workloads::program` (which cuts on *control flow*) to
//! arbitrary dataflow DAGs, cutting on *capacity*: each stage holds at
//! most `max_nodes` binary nodes, filled in definition order — a node
//! joins the last stage while it has room and opens a new one when it
//! does not, so a value and its nearest consumers tend to share a stage
//! instead of crossing the mailbox.
//!
//! That is also all a greedy "join the eligible stage holding most of
//! my producers, ties toward the latest" rule can do here, which is how
//! this pass used to be written: a stage is opened only when every
//! eligible stage is full, eligibility reaches to the last stage, so
//! only the last stage ever has room and the rule has one candidate.
//! The scored rule survives in the tests as the reference. A partitioner
//! that trades fill for cut size has to look ahead or move nodes back.
//!
//! Two invariants make the result executable in stage-index order on
//! the staged executor:
//!
//! 1. **Forward edges only.** Nodes are processed in definition
//!    (topological) order and may only join a stage with index ≥ every
//!    producer's stage — so the quotient graph of stages is itself a
//!    DAG whose topological order is the stage index.
//! 2. **Constants are free.** `const` values are duplicated into every
//!    stage that reads them (a local `Const` object costs one compute
//!    slot; a mailbox channel costs a memory object *and* a write), so
//!    only `input`→stage and stage→stage edges count toward the cut.

use crate::netlist::{NetOp, Netlist, NodeId};

/// One stage of the partition.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PartStage {
    /// Nodes assigned to this stage, in definition order: every `Bin`
    /// node, plus any `Const` node that is itself a program output
    /// (it must be materialised somewhere to be probed).
    pub nodes: Vec<NodeId>,
    /// Values this stage reads through its mailbox, in ascending node
    /// order: graph inputs and earlier stages' nodes (never consts).
    pub live_ins: Vec<NodeId>,
    /// Nodes this stage must expose through probes: read by a later
    /// stage, or a program output.
    pub live_outs: Vec<NodeId>,
    /// Distinct `Const` nodes this stage materialises locally (operands
    /// of its `Bin` nodes), ascending.
    pub consts: Vec<NodeId>,
}

/// The partition artifact.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Partition {
    /// Stage capacity the pass ran with.
    pub max_nodes: usize,
    /// Stages in execution order.
    pub stages: Vec<PartStage>,
    /// Inter-stage value edges: distinct `(producer node, consumer
    /// stage)` pairs with the producer in an earlier stage. Graph
    /// inputs don't count (they are driver writes, not stage traffic).
    pub cut_edges: usize,
}

/// Partitions `netlist` into stages of at most `max_nodes` binary
/// nodes, filled in definition order.
pub fn partition(netlist: &Netlist, max_nodes: usize) -> Partition {
    let max_nodes = max_nodes.max(1);
    let n = netlist.nodes.len();
    // stage_of[node] = stage index, for assigned (Bin / output-const) nodes.
    let mut stage_of: Vec<Option<usize>> = vec![None; n];
    let mut stages: Vec<PartStage> = Vec::new();
    let mut is_output = vec![false; n];
    for (_, id) in &netlist.outputs {
        is_output[*id] = true;
    }

    for (id, node) in netlist.nodes.iter().enumerate() {
        match node.op {
            NetOp::Bin(..) => {}
            // Const nodes that are program outputs must live somewhere;
            // they are assigned like Bin nodes (but cost no cut edges).
            NetOp::Const(_) if is_output[id] => {}
            _ => continue, // inputs and plain consts are not assigned
        }
        if stages.last().is_none_or(|s| s.nodes.len() >= max_nodes) {
            stages.push(PartStage {
                nodes: Vec::with_capacity(max_nodes.min(n - id)),
                live_ins: Vec::new(),
                live_outs: Vec::new(),
                consts: Vec::new(),
            });
        }
        let s = stages.len() - 1;
        stages[s].nodes.push(id);
        stage_of[id] = Some(s);
    }

    // Live-ins / live-outs / local consts / cut edges.
    let mut cut_edges = 0usize;
    // listed[p] = s + 1 once stage s has p among its live-ins or consts
    // (stages are walked in order, so one stamp per node is enough);
    // read_elsewhere[p]: some stage other than p's own reads it.
    let mut listed = vec![0usize; n];
    let mut read_elsewhere = vec![false; n];
    for (s, stage) in stages.iter_mut().enumerate() {
        for &id in &stage.nodes {
            let NetOp::Bin(_, a, b) = netlist.nodes[id].op else {
                continue;
            };
            for p in [a, b] {
                let local = stage_of[p] == Some(s);
                read_elsewhere[p] |= !local;
                if std::mem::replace(&mut listed[p], s + 1) == s + 1 {
                    continue;
                }
                match netlist.nodes[p].op {
                    NetOp::Const(_) => stage.consts.push(p),
                    NetOp::Input => stage.live_ins.push(p),
                    NetOp::Bin(..) if !local => {
                        stage.live_ins.push(p);
                        cut_edges += 1;
                    }
                    NetOp::Bin(..) => {}
                }
            }
        }
        stage.live_ins.sort_unstable();
        stage.consts.sort_unstable();
    }
    for stage in &mut stages {
        // `nodes` is in definition order, so live-outs come out ascending.
        stage.live_outs = stage
            .nodes
            .iter()
            .copied()
            .filter(|&id| is_output[id] || read_elsewhere[id])
            .collect();
    }

    Partition {
        max_nodes,
        stages,
        cut_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Netlist;

    fn parse(text: &str) -> Netlist {
        Netlist::parse(text).unwrap()
    }

    /// The pass as it stood when it scored stages: every eligible stage
    /// ranked per node by resident producers (ties toward the latest),
    /// consumers listed per node, live-ins and consts deduplicated by
    /// linear search.
    fn reference_partition(netlist: &Netlist, max_nodes: usize) -> Partition {
        let max_nodes = max_nodes.max(1);
        // stage_of[node] = stage index, for assigned (Bin / output-const) nodes.
        let mut stage_of: Vec<Option<usize>> = vec![None; netlist.nodes.len()];
        let mut stages: Vec<PartStage> = Vec::new();

        // Const nodes that are program outputs must live somewhere; they
        // are assigned like Bin nodes (but cost no cut edges).
        let output_consts: Vec<bool> = {
            let mut v = vec![false; netlist.nodes.len()];
            for (_, id) in &netlist.outputs {
                if matches!(netlist.nodes[*id].op, NetOp::Const(_)) {
                    v[*id] = true;
                }
            }
            v
        };

        for (id, node) in netlist.nodes.iter().enumerate() {
            let bin_preds: Vec<NodeId> = match node.op {
                NetOp::Bin(_, a, b) => {
                    let mut p: Vec<NodeId> = [a, b]
                        .into_iter()
                        .filter(|&x| matches!(netlist.nodes[x].op, NetOp::Bin(..)))
                        .collect();
                    p.dedup();
                    p
                }
                NetOp::Const(_) if output_consts[id] => Vec::new(),
                _ => continue, // inputs and plain consts are not assigned
            };
            // Eligibility: at or after every producer's stage, with room.
            let floor = bin_preds
                .iter()
                .filter_map(|&p| stage_of[p])
                .max()
                .unwrap_or(0);
            let pick = (floor..stages.len())
                .filter(|&s| stages[s].nodes.len() < max_nodes)
                .max_by_key(|&s| {
                    let resident = bin_preds
                        .iter()
                        .filter(|&&p| stage_of[p] == Some(s))
                        .count();
                    (resident, s) // most producers resident; tie → latest
                });
            let s = match pick {
                Some(s) => s,
                None => {
                    stages.push(PartStage {
                        nodes: Vec::new(),
                        live_ins: Vec::new(),
                        live_outs: Vec::new(),
                        consts: Vec::new(),
                    });
                    stages.len() - 1
                }
            };
            stages[s].nodes.push(id);
            stage_of[id] = Some(s);
        }

        // Live-ins / live-outs / local consts / cut edges.
        let mut cut_edges = 0usize;
        let mut is_output = vec![false; netlist.nodes.len()];
        for (_, id) in &netlist.outputs {
            is_output[*id] = true;
        }
        // consumed_by[node] = stages that read it (ascending, deduped).
        let mut consumed_by: Vec<Vec<usize>> = vec![Vec::new(); netlist.nodes.len()];
        for (s, stage) in stages.iter().enumerate() {
            for &id in &stage.nodes {
                if let NetOp::Bin(_, a, b) = netlist.nodes[id].op {
                    for p in [a, b] {
                        if consumed_by[p].last() != Some(&s) {
                            consumed_by[p].push(s);
                        }
                    }
                }
            }
        }
        for (s, stage) in stages.iter_mut().enumerate() {
            let mut live_ins = Vec::new();
            let mut consts = Vec::new();
            for &id in &stage.nodes {
                if let NetOp::Bin(_, a, b) = netlist.nodes[id].op {
                    for p in [a, b] {
                        match netlist.nodes[p].op {
                            NetOp::Const(_) => {
                                if !consts.contains(&p) {
                                    consts.push(p);
                                }
                            }
                            NetOp::Input => {
                                if !live_ins.contains(&p) {
                                    live_ins.push(p);
                                }
                            }
                            NetOp::Bin(..) => {
                                if stage_of[p] != Some(s) && !live_ins.contains(&p) {
                                    live_ins.push(p);
                                    cut_edges += 1;
                                }
                            }
                        }
                    }
                }
            }
            live_ins.sort_unstable();
            consts.sort_unstable();
            let mut live_outs: Vec<NodeId> = stage
                .nodes
                .iter()
                .copied()
                .filter(|&id| is_output[id] || consumed_by[id].iter().any(|&c| c != s))
                .collect();
            live_outs.sort_unstable();
            stage.live_ins = live_ins;
            stage.live_outs = live_outs;
            stage.consts = consts;
        }

        Partition {
            max_nodes,
            stages,
            cut_edges,
        }
    }

    #[test]
    fn matches_the_scored_reference_on_generated_graphs() {
        use vlsi_workloads::netgen::{generate, GraphKind};
        let kinds = [
            GraphKind::Chain { len: 40 },
            GraphKind::Tree { depth: 5 },
            GraphKind::Butterfly { lanes_log2: 4 },
            GraphKind::Random { nodes: 96 },
        ];
        for kind in kinds {
            for seed in 0..12 {
                let n = parse(&generate(kind, seed));
                for max_nodes in [1, 2, 3, 5, 12, 1000] {
                    assert_eq!(
                        partition(&n, max_nodes),
                        reference_partition(&n, max_nodes),
                        "{kind:?} seed {seed} max_nodes {max_nodes}"
                    );
                }
            }
        }
        // Output-consts, a const read beside its own stage, repeated operands.
        let text = "graph g\nconst k 4\ninput x\nnode a add x k\nnode b mul a a\n\
                    node c sub b k\nnode d add c a\noutput y k\noutput z d\noutput w a\n";
        for max_nodes in 1..5 {
            let n = parse(text);
            assert_eq!(partition(&n, max_nodes), reference_partition(&n, max_nodes));
        }
    }

    #[test]
    fn small_graph_is_one_stage() {
        let n = parse("graph g\ninput x\ninput y\nnode a add x y\nnode b mul a a\noutput o b\n");
        let p = partition(&n, 12);
        assert_eq!(p.stages.len(), 1);
        assert_eq!(p.cut_edges, 0);
        let s = &p.stages[0];
        assert_eq!(s.nodes.len(), 2);
        assert_eq!(s.live_ins.len(), 2); // x, y
        assert_eq!(s.live_outs.len(), 1); // b (output)
        assert!(s.consts.is_empty());
    }

    #[test]
    fn capacity_forces_a_cut_and_edges_stay_forward() {
        // A chain of 6 nodes at max_nodes=2 → 3 stages, 2 cut edges.
        let mut text = String::from("graph chain\ninput x\n");
        let mut prev = "x".to_string();
        for i in 0..6 {
            text.push_str(&format!("node n{i} add {prev} {prev}\n"));
            prev = format!("n{i}");
        }
        text.push_str(&format!("output o {prev}\n"));
        let p = partition(&parse(&text), 2);
        assert_eq!(p.stages.len(), 3);
        assert_eq!(p.cut_edges, 2);
        // Forward-edge invariant: every live-in of stage s was assigned
        // to an earlier stage (or is a graph input).
        for (s, stage) in p.stages.iter().enumerate() {
            for &li in &stage.live_ins {
                let producer_stage = p.stages.iter().position(|st| st.nodes.contains(&li));
                if let Some(ps) = producer_stage {
                    assert!(ps < s, "live-in {li} of stage {s} produced in {ps}");
                }
            }
        }
    }

    #[test]
    fn consts_duplicate_instead_of_cutting() {
        // Two stages both read const k: no cut edge for k, both stages
        // materialise it locally.
        let text = "graph g\ninput x\nconst k 3\nnode a add x k\nnode b add a k\noutput o b\n";
        let p = partition(&parse(text), 1);
        assert_eq!(p.stages.len(), 2);
        assert_eq!(p.cut_edges, 1); // only a → stage 1
        assert_eq!(p.stages[0].consts, vec![1]);
        assert_eq!(p.stages[1].consts, vec![1]);
    }

    #[test]
    fn heuristic_prefers_the_stage_holding_producers() {
        // d reads a (stage 0, full? no) — build: a b fill stage 0
        // (max 2); c opens stage 1; d reads a and c → must go to a
        // stage ≥ stage(c)=1, lands with its producer c.
        let text = "graph g\ninput x\n\
                    node a add x x\nnode b add x x\nnode c add a b\n\
                    node d add a c\noutput o d\n";
        let p = partition(&parse(text), 2);
        assert_eq!(p.stages.len(), 2);
        assert_eq!(p.stages[1].nodes.len(), 2); // c and d together
                                                // a is live-out of stage 0 (read by stage 1 twice → one edge
                                                // per producer), b likewise.
        assert_eq!(p.stages[0].live_outs.len(), 2);
        assert_eq!(p.cut_edges, 2);
    }

    #[test]
    fn output_consts_are_materialised() {
        let text = "graph g\nconst k 42\ninput x\nnode a add x x\noutput y k\noutput z a\n";
        let p = partition(&parse(text), 8);
        let holder: Vec<_> = p.stages.iter().filter(|s| s.nodes.contains(&0)).collect();
        assert_eq!(holder.len(), 1);
        assert!(holder[0].live_outs.contains(&0));
    }

    #[test]
    fn corpus_partitions_preserve_node_count() {
        for (name, text) in vlsi_workloads::netgen::corpus(2012) {
            let n = parse(&text);
            let p = partition(&n, 12);
            let assigned: usize = p.stages.iter().map(|s| s.nodes.len()).sum();
            assert!(assigned >= n.bin_count(), "{name} lost nodes");
            for s in &p.stages {
                assert!(s.nodes.len() <= 12, "{name} overfull stage");
            }
        }
    }
}
