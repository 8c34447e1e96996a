//! Deterministic dataflow-graph corpus generator for the compiler.
//!
//! `vlsi-compile` ingests a line-oriented netlist text format; this
//! module emits that text (never the compiler's IR — the compiler
//! depends on this crate, not the other way round) for four structural
//! families, each at several sizes:
//!
//! * **chains** — deep sequential dependency, the worst case for
//!   partition cut size;
//! * **trees** — balanced binary reductions, wide at the leaves;
//! * **butterflies** — FFT-style lane shuffles, the densest
//!   inter-partition traffic per node;
//! * **random DAGs** — locality-biased operand selection, the
//!   §2.6.2-style stress shape.
//!
//! Every generator is a pure function of `(kind, seed)`, and the text
//! it emits is in the compiler's canonical form (declarations in node
//! order, outputs last), so corpus graphs double as round-trip
//! fixtures.

use vlsi_prng::Prng;

/// A graph family at a given size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphKind {
    /// A dependency chain of `len` binary nodes.
    Chain {
        /// Chain length in binary nodes.
        len: usize,
    },
    /// A balanced binary reduction tree over `2^depth` leaves.
    Tree {
        /// Tree depth; the leaf count is `2^depth`.
        depth: u32,
    },
    /// A butterfly network over `2^lanes_log2` lanes (`lanes_log2`
    /// rounds of stride-paired add/sub).
    Butterfly {
        /// Log2 of the lane count.
        lanes_log2: u32,
    },
    /// A random DAG of `nodes` binary nodes with locality-biased
    /// operand selection.
    Random {
        /// Binary node count.
        nodes: usize,
    },
}

impl GraphKind {
    /// A short deterministic name, used as the netlist's `graph` name.
    pub fn name(&self) -> String {
        match self {
            GraphKind::Chain { len } => format!("chain{len}"),
            GraphKind::Tree { depth } => format!("tree{depth}"),
            GraphKind::Butterfly { lanes_log2 } => format!("butterfly{lanes_log2}"),
            GraphKind::Random { nodes } => format!("random{nodes}"),
        }
    }
}

const OPS: [&str; 6] = ["add", "sub", "mul", "gt", "lt", "eq"];
/// Arithmetic-only subset: keeps deep chains and random DAGs from
/// collapsing every downstream value to a 0/1 predicate.
const ARITH: [&str; 3] = ["add", "sub", "mul"];

/// Emits the netlist text for `kind`, deterministically from `seed`.
pub fn generate(kind: GraphKind, seed: u64) -> String {
    let mut rng = Prng::seed_from_u64(seed ^ 0x6e65_7467_656e); // "netgen"
    let mut out = String::new();
    out.push_str(&format!("graph {}\n", kind.name()));
    match kind {
        GraphKind::Chain { len } => chain(&mut out, &mut rng, len),
        GraphKind::Tree { depth } => tree(&mut out, &mut rng, depth),
        GraphKind::Butterfly { lanes_log2 } => butterfly(&mut out, lanes_log2),
        GraphKind::Random { nodes } => random(&mut out, &mut rng, nodes),
    }
    out
}

/// The standard corpus: all four families at three sizes each —
/// 12 graphs, every one compiled and executed by the acceptance tests
/// and the pinned `compile_corpus_12` digest lines.
pub fn corpus(seed: u64) -> Vec<(String, String)> {
    let kinds = [
        GraphKind::Chain { len: 8 },
        GraphKind::Chain { len: 24 },
        GraphKind::Chain { len: 64 },
        GraphKind::Tree { depth: 3 },
        GraphKind::Tree { depth: 4 },
        GraphKind::Tree { depth: 5 },
        GraphKind::Butterfly { lanes_log2: 2 },
        GraphKind::Butterfly { lanes_log2: 3 },
        GraphKind::Butterfly { lanes_log2: 4 },
        GraphKind::Random { nodes: 12 },
        GraphKind::Random { nodes: 24 },
        GraphKind::Random { nodes: 48 },
    ];
    kinds
        .iter()
        .enumerate()
        .map(|(i, k)| (k.name(), generate(*k, seed.wrapping_add(i as u64))))
        .collect()
}

fn small_const(rng: &mut Prng) -> i64 {
    let v = rng.gen_range(-9i64..=9);
    if v == 0 {
        1
    } else {
        v
    }
}

fn chain(out: &mut String, rng: &mut Prng, len: usize) {
    out.push_str("input x0\ninput x1\n");
    let mut prev = "x0".to_string();
    for i in 0..len {
        // Every fourth link folds in a fresh constant so the chain's
        // values keep moving instead of oscillating around zero.
        let rhs = if i == 0 {
            "x1".to_string()
        } else if i % 4 == 3 {
            let c = format!("k{i}");
            out.push_str(&format!("const {c} {}\n", small_const(rng)));
            c
        } else {
            prev.clone()
        };
        let op = ARITH[rng.gen_range(0..ARITH.len())];
        let n = format!("n{i}");
        out.push_str(&format!("node {n} {op} {prev} {rhs}\n"));
        prev = n;
    }
    out.push_str(&format!("output out {prev}\n"));
}

fn tree(out: &mut String, rng: &mut Prng, depth: u32) {
    let leaves = 1usize << depth;
    let mut level: Vec<String> = Vec::with_capacity(leaves);
    for i in 0..leaves {
        // Mostly inputs, a sprinkling of constants at the leaves.
        if i % 5 == 4 {
            let c = format!("k{i}");
            out.push_str(&format!("const {c} {}\n", small_const(rng)));
            level.push(c);
        } else {
            let x = format!("x{i}");
            out.push_str(&format!("input {x}\n"));
            level.push(x);
        }
    }
    let mut n = 0usize;
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len() / 2);
        for pair in level.chunks(2) {
            let op = ARITH[rng.gen_range(0..ARITH.len())];
            let name = format!("n{n}");
            n += 1;
            out.push_str(&format!("node {name} {op} {} {}\n", pair[0], pair[1]));
            next.push(name);
        }
        level = next;
    }
    out.push_str(&format!("output out {}\n", level[0]));
}

fn butterfly(out: &mut String, lanes_log2: u32) {
    let lanes = 1usize << lanes_log2;
    let mut lane: Vec<String> = (0..lanes)
        .map(|i| {
            let x = format!("x{i}");
            out.push_str(&format!("input {x}\n"));
            x
        })
        .collect();
    let mut n = 0usize;
    for round in 0..lanes_log2 {
        let stride = 1usize << round;
        let mut next = lane.clone();
        for i in 0..lanes {
            if i & stride == 0 {
                let j = i + stride;
                let a = format!("n{n}");
                let b = format!("n{}", n + 1);
                n += 2;
                out.push_str(&format!("node {a} add {} {}\n", lane[i], lane[j]));
                out.push_str(&format!("node {b} sub {} {}\n", lane[i], lane[j]));
                next[i] = a;
                next[j] = b;
            }
        }
        lane = next;
    }
    for (i, l) in lane.iter().enumerate() {
        out.push_str(&format!("output y{i} {l}\n"));
    }
}

fn random(out: &mut String, rng: &mut Prng, nodes: usize) {
    let inputs = (nodes / 6).clamp(2, 6);
    let mut values: Vec<String> = (0..inputs)
        .map(|i| {
            let x = format!("x{i}");
            out.push_str(&format!("input {x}\n"));
            x
        })
        .collect();
    let mut consumed = vec![false; values.len()];
    for i in 0..nodes {
        if i % 7 == 6 {
            let c = format!("k{i}");
            out.push_str(&format!("const {c} {}\n", small_const(rng)));
            values.push(c);
            consumed.push(false);
        }
        // Locality bias: ~3/4 of operands come from the most recent
        // quarter of the value list (§2.6.2's locality knob).
        let pick = |rng: &mut Prng| -> usize {
            let n = values.len();
            if n > 4 && rng.gen_bool(0.75) {
                rng.gen_range((n - n / 4)..n)
            } else {
                rng.gen_range(0..n)
            }
        };
        let a = pick(rng);
        let b = pick(rng);
        // Comparisons stay rare for the same reason as in `chain`.
        let op = if rng.gen_bool(0.15) {
            OPS[rng.gen_range(3..OPS.len())]
        } else {
            ARITH[rng.gen_range(0..ARITH.len())]
        };
        let name = format!("n{i}");
        out.push_str(&format!("node {name} {op} {} {}\n", values[a], values[b]));
        consumed[a] = true;
        consumed[b] = true;
        values.push(name);
        consumed.push(false);
    }
    // Every sink (unconsumed value that is a node) becomes an output —
    // a deterministic rule, so the output list needs no extra state.
    let mut outs = 0usize;
    for (v, c) in values.iter().zip(&consumed) {
        if !c && v.starts_with('n') {
            out.push_str(&format!("output y{outs} {v}\n"));
            outs += 1;
        }
    }
    // A DAG whose last node is consumed by nothing always has ≥1 sink,
    // but guard anyway: the final node is the fallback output.
    if outs == 0 {
        out.push_str(&format!("output y0 n{}\n", nodes - 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic_and_full_size() {
        let a = corpus(2012);
        let b = corpus(2012);
        assert_eq!(a, b);
        assert_eq!(a.len(), 12);
        // All four families present, all names unique.
        let names: Vec<&str> = a.iter().map(|(n, _)| n.as_str()).collect();
        for prefix in ["chain", "tree", "butterfly", "random"] {
            assert_eq!(names.iter().filter(|n| n.starts_with(prefix)).count(), 3);
        }
        let mut uniq = names.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), names.len());
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(corpus(1), corpus(2));
    }

    #[test]
    fn every_graph_is_well_formed_text() {
        for (name, text) in corpus(7) {
            let mut lines = text.lines();
            assert_eq!(lines.next(), Some(format!("graph {name}").as_str()));
            let mut saw_output = false;
            for line in lines {
                let kw = line.split_whitespace().next().unwrap();
                assert!(
                    matches!(kw, "input" | "const" | "node" | "output"),
                    "{name}: unexpected line {line:?}"
                );
                if kw == "output" {
                    saw_output = true;
                } else {
                    // Canonical form: no declarations after the first output.
                    assert!(!saw_output, "{name}: declaration after outputs");
                }
            }
            assert!(saw_output, "{name}: no outputs");
        }
    }

    #[test]
    fn butterfly_is_the_textbook_shape() {
        let text = generate(GraphKind::Butterfly { lanes_log2: 2 }, 0);
        let nodes = text.lines().filter(|l| l.starts_with("node")).count();
        let outputs = text.lines().filter(|l| l.starts_with("output")).count();
        // 2 rounds × 4 lanes / 2 = 4 node pairs = 8 nodes, 4 outputs.
        assert_eq!(nodes, 8);
        assert_eq!(outputs, 4);
    }
}
