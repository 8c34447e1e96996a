//! The netlist text format: parse, canonical render, reference evaluate.
//!
//! A netlist is a line-oriented description of a dataflow DAG, in the
//! spirit of the object-code format in `vlsi-workloads::ocode` (same
//! comment syntax, same 1-based-line typed errors):
//!
//! ```text
//! graph dot2                 # exactly one graph line, first
//! input x0                   # external value, written at run time
//! input x1
//! const k 3                  # compile-time constant
//! node p mul x0 k            # node NAME OP A B; A/B defined above
//! node q add p x1
//! output y q                 # program output NAME from node/input
//! ```
//!
//! Operators are the IR's [`BinOp`]s: `add sub mul gt lt eq`, with
//! wrapping arithmetic and 0/1 comparisons. Operands must be *defined
//! before use*, which makes every parsed netlist a DAG by construction
//! — the compiler never needs a cycle check.
//!
//! [`Netlist::render`] emits the canonical form: declarations in node
//! order, outputs last, single spaces, no comments. Parsing canonical
//! text and rendering it again is byte-identical (the round-trip
//! property tests pin this).

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use vlsi_workloads::program::BinOp;

/// Parse errors, with the 1-based source line (0 = whole-file).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NetlistError {
    /// 1-based source line; 0 for whole-file errors.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for NetlistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for NetlistError {}

/// Index of a node in [`Netlist::nodes`] (definition order — a
/// topological order by the defined-before-use rule).
pub type NodeId = usize;

/// What a node computes.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum NetOp {
    /// An external input, named by its node.
    Input,
    /// A compile-time constant.
    Const(i64),
    /// A binary operation over two earlier nodes.
    Bin(BinOp, NodeId, NodeId),
}

/// One declared value.
#[derive(Clone, PartialEq, Debug)]
pub struct NetNode {
    /// The value's name.
    pub name: String,
    /// Its definition.
    pub op: NetOp,
}

/// A parsed dataflow graph.
#[derive(Clone, PartialEq, Debug)]
pub struct Netlist {
    /// Graph name (the `graph` line).
    pub name: String,
    /// Values in definition order.
    pub nodes: Vec<NetNode>,
    /// Program outputs: `(output name, producing node)`.
    pub outputs: Vec<(String, NodeId)>,
}

fn op_keyword(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "add",
        BinOp::Sub => "sub",
        BinOp::Mul => "mul",
        BinOp::Gt => "gt",
        BinOp::Lt => "lt",
        BinOp::Eq => "eq",
    }
}

fn parse_op(s: &str) -> Option<BinOp> {
    Some(match s {
        "add" => BinOp::Add,
        "sub" => BinOp::Sub,
        "mul" => BinOp::Mul,
        "gt" => BinOp::Gt,
        "lt" => BinOp::Lt,
        "eq" => BinOp::Eq,
        _ => return None,
    })
}

impl Netlist {
    /// Parses netlist text. Errors carry the 1-based line number.
    pub fn parse(text: &str) -> Result<Netlist, NetlistError> {
        /// Declares `n` as the next node; the error is the message.
        fn define<'t>(
            n: &'t str,
            op: NetOp,
            nodes: &mut Vec<NetNode>,
            by_name: &mut HashMap<&'t str, NodeId>,
        ) -> Result<(), String> {
            match by_name.entry(n) {
                Entry::Occupied(_) => Err(format!("duplicate name `{n}`")),
                Entry::Vacant(slot) => {
                    slot.insert(nodes.len());
                    nodes.push(NetNode {
                        name: n.to_string(),
                        op,
                    });
                    Ok(())
                }
            }
        }
        let mut name: Option<String> = None;
        let mut nodes: Vec<NetNode> = Vec::new();
        let mut outputs: Vec<(String, NodeId)> = Vec::new();
        // Both keyed by slices of `text`: a name is copied once, into the
        // node or output that owns it.
        let mut by_name: HashMap<&str, NodeId> = HashMap::new();
        let mut output_names: HashSet<&str> = HashSet::new();
        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let err = |message: String| NetlistError {
                line: line_no,
                message,
            };
            let mut tok = raw.split('#').next().unwrap_or("").split_whitespace();
            let Some(kw) = tok.next() else {
                continue;
            };
            if name.is_none() && kw != "graph" {
                return Err(err("expected `graph NAME` before declarations".into()));
            }
            match kw {
                "graph" => {
                    if name.is_some() {
                        return Err(err("second `graph` line".into()));
                    }
                    let n = tok.next().ok_or_else(|| err("graph needs a name".into()))?;
                    name = Some(n.to_string());
                }
                "input" => {
                    let n = tok.next().ok_or_else(|| err("input needs a name".into()))?;
                    define(n, NetOp::Input, &mut nodes, &mut by_name).map_err(err)?;
                }
                "const" => {
                    let n = tok.next().ok_or_else(|| err("const needs a name".into()))?;
                    let v = tok
                        .next()
                        .and_then(|t| t.parse::<i64>().ok())
                        .ok_or_else(|| err(format!("const `{n}` needs an integer value")))?;
                    define(n, NetOp::Const(v), &mut nodes, &mut by_name).map_err(err)?;
                }
                "node" => {
                    let n = tok.next().ok_or_else(|| err("node needs a name".into()))?;
                    let op = tok
                        .next()
                        .and_then(parse_op)
                        .ok_or_else(|| err(format!("node `{n}`: unknown operation")))?;
                    let mut operand = |what: &str| -> Result<NodeId, NetlistError> {
                        let t = tok
                            .next()
                            .ok_or_else(|| err(format!("node `{n}` missing {what} operand")))?;
                        by_name
                            .get(t)
                            .copied()
                            .ok_or_else(|| err(format!("undefined operand `{t}`")))
                    };
                    let a = operand("first")?;
                    let b = operand("second")?;
                    define(n, NetOp::Bin(op, a, b), &mut nodes, &mut by_name).map_err(err)?;
                }
                "output" => {
                    let n = tok
                        .next()
                        .ok_or_else(|| err("output needs a name".into()))?;
                    let src = tok
                        .next()
                        .ok_or_else(|| err(format!("output `{n}` needs a source")))?;
                    let id = by_name
                        .get(src)
                        .copied()
                        .ok_or_else(|| err(format!("undefined output source `{src}`")))?;
                    if !output_names.insert(n) {
                        return Err(err(format!("duplicate output `{n}`")));
                    }
                    outputs.push((n.to_string(), id));
                }
                other => return Err(err(format!("unknown keyword `{other}`"))),
            }
            if let Some(extra) = tok.next() {
                return Err(err(format!("unexpected token `{extra}`")));
            }
        }
        let name = name.ok_or(NetlistError {
            line: 0,
            message: "empty netlist: no `graph` line".into(),
        })?;
        if outputs.is_empty() {
            return Err(NetlistError {
                line: 0,
                message: format!("graph `{name}` has no outputs"),
            });
        }
        Ok(Netlist {
            name,
            nodes,
            outputs,
        })
    }

    /// The canonical text form: declarations in node order, outputs
    /// last. `parse(render(n)) == n` and rendering is idempotent.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("graph {}\n", self.name));
        for n in &self.nodes {
            match &n.op {
                NetOp::Input => out.push_str(&format!("input {}\n", n.name)),
                NetOp::Const(v) => out.push_str(&format!("const {} {v}\n", n.name)),
                NetOp::Bin(op, a, b) => out.push_str(&format!(
                    "node {} {} {} {}\n",
                    n.name,
                    op_keyword(*op),
                    self.nodes[*a].name,
                    self.nodes[*b].name
                )),
            }
        }
        for (name, id) in &self.outputs {
            out.push_str(&format!("output {name} {}\n", self.nodes[*id].name));
        }
        out
    }

    /// Reference evaluation: computes every node (absent inputs read 0,
    /// matching the hardware's zeroed mailboxes) and returns the output
    /// values in [`Netlist::outputs`] order.
    pub fn evaluate(&self, inputs: &HashMap<String, i64>) -> Vec<i64> {
        let mut values = Vec::with_capacity(self.nodes.len());
        for n in &self.nodes {
            let v = match n.op {
                NetOp::Input => inputs.get(&n.name).copied().unwrap_or(0),
                NetOp::Const(c) => c,
                NetOp::Bin(op, a, b) => op.eval(values[a], values[b]),
            };
            values.push(v);
        }
        self.outputs.iter().map(|(_, id)| values[*id]).collect()
    }

    /// Names of the input nodes, in definition order.
    pub fn input_names(&self) -> Vec<&str> {
        self.nodes
            .iter()
            .filter(|n| n.op == NetOp::Input)
            .map(|n| n.name.as_str())
            .collect()
    }

    /// Number of binary (compute) nodes.
    pub fn bin_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.op, NetOp::Bin(..)))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str =
        "graph dot2\ninput x0\ninput x1\nconst k 3\nnode p mul x0 k\nnode q add p x1\noutput y q\n";

    #[test]
    fn parse_render_round_trips_byte_identical() {
        let n = Netlist::parse(SAMPLE).unwrap();
        assert_eq!(n.render(), SAMPLE);
        let again = Netlist::parse(&n.render()).unwrap();
        assert_eq!(again, n);
    }

    #[test]
    fn comments_and_blanks_are_stripped_to_canonical() {
        let noisy = "# header\ngraph dot2\n\ninput x0   # first\ninput x1\nconst k 3\nnode p mul x0 k\nnode q add p x1\noutput y q\n";
        let n = Netlist::parse(noisy).unwrap();
        assert_eq!(n.render(), SAMPLE);
    }

    #[test]
    fn evaluate_matches_hand_computation() {
        let n = Netlist::parse(SAMPLE).unwrap();
        let env = HashMap::from([("x0".to_string(), 7i64), ("x1".to_string(), 5i64)]);
        assert_eq!(n.evaluate(&env), vec![26]);
        // Missing inputs default to zero.
        assert_eq!(n.evaluate(&HashMap::new()), vec![0]);
    }

    #[test]
    fn errors_carry_one_based_line_numbers() {
        let cases = [
            ("graph g\nnode n add a b\noutput y n\n", 2, "undefined"),
            ("graph g\ninput x\ninput x\n", 3, "duplicate"),
            ("graph g\ninput x\nnode n foo x x\n", 3, "unknown operation"),
            ("graph g\nconst k nope\n", 2, "integer"),
            ("input x\n", 1, "expected `graph"),
            ("graph g\ngraph h\n", 2, "second"),
            (
                "graph g\ninput x\noutput y x extra\n",
                3,
                "unexpected token",
            ),
            ("graph g\nwidget w\n", 2, "unknown keyword"),
        ];
        for (text, line, needle) in cases {
            let e = Netlist::parse(text).unwrap_err();
            assert_eq!(e.line, line, "{text:?}: {e}");
            assert!(e.message.contains(needle), "{text:?}: {e}");
        }
        // Whole-file errors use line 0, like ocode's undeclared check.
        let e = Netlist::parse("graph g\ninput x\n").unwrap_err();
        assert_eq!(e.line, 0);
        assert!(e.message.contains("no outputs"));
        let e = Netlist::parse("# only comments\n").unwrap_err();
        assert_eq!(e.line, 0);
    }

    #[test]
    fn corpus_graphs_parse_and_round_trip() {
        for (name, text) in vlsi_workloads::netgen::corpus(2012) {
            let n = Netlist::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(n.name, name);
            assert!(n.bin_count() >= 4, "{name} too small");
            // netgen emits canonical form directly.
            assert_eq!(n.render(), text, "{name} not canonical");
        }
    }
}
