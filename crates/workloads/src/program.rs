//! A miniature imperative IR, the basic-block partitioner, and the
//! block→datapath compiler.
//!
//! §1 and §3.3: control flow breaks the regular reconfiguration of a
//! scaled AP, so "the basic blocks, which are partitioned by the
//! control-flow, are mapped to the VLSI processor" as isolated processors
//! that communicate through memory. [`Program::partition`] performs the
//! Figure 7(a)→(b) step: it cuts an `if`-structured program into
//! straight-line [`BasicBlock`]s joined by explicit terminators;
//! [`BlockDatapath::compile`] turns one basic block into logical objects
//! plus a global configuration stream that an AP can run.
//!
//! The IR is deliberately tiny — just enough to express the paper's
//! example and its relatives — because the point is the partitioning and
//! the mapping, not language design.

use std::collections::HashMap;
use vlsi_object::{
    GlobalConfigElement, GlobalConfigStream, LocalConfig, LogicalObject, ObjectId, Operation, Word,
};

/// Binary operators of the IR.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Signed greater-than (produces 0/1).
    Gt,
    /// Signed less-than.
    Lt,
    /// Equality.
    Eq,
}

impl BinOp {
    /// The AP operation implementing this operator (used by both the
    /// block→datapath compiler here and the netlist compiler in
    /// `vlsi-compile`).
    pub fn operation(self) -> Operation {
        match self {
            BinOp::Add => Operation::IAdd,
            BinOp::Sub => Operation::ISub,
            BinOp::Mul => Operation::IMul,
            BinOp::Gt => Operation::ICmpGt,
            BinOp::Lt => Operation::ICmpLt,
            BinOp::Eq => Operation::ICmpEq,
        }
    }

    /// Reference semantics: wrapping arithmetic, 0/1 comparisons.
    pub fn eval(self, a: i64, b: i64) -> i64 {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Gt => i64::from(a > b),
            BinOp::Lt => i64::from(a < b),
            BinOp::Eq => i64::from(a == b),
        }
    }
}

/// Expressions.
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// A named variable.
    Var(String),
    /// A literal.
    Const(i64),
    /// A binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Shorthand for a variable reference.
    pub fn var(name: &str) -> Expr {
        Expr::Var(name.to_string())
    }

    /// Shorthand for a binary node.
    pub fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Bin(op, Box::new(a), Box::new(b))
    }

    /// Reference interpreter.
    pub fn eval(&self, env: &HashMap<String, i64>) -> i64 {
        match self {
            Expr::Var(v) => *env.get(v).unwrap_or(&0),
            Expr::Const(c) => *c,
            Expr::Bin(op, a, b) => op.eval(a.eval(env), b.eval(env)),
        }
    }

    /// Variables read by this expression.
    pub fn free_vars(&self, out: &mut Vec<String>) {
        match self {
            Expr::Var(v) => {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
            Expr::Const(_) => {}
            Expr::Bin(_, a, b) => {
                a.free_vars(out);
                b.free_vars(out);
            }
        }
    }
}

/// Statements.
#[derive(Clone, PartialEq, Debug)]
pub enum Stmt {
    /// `name = expr`.
    Assign(String, Expr),
    /// `if (cond) { then } else { else }`.
    If {
        /// Branch condition (non-zero = taken).
        cond: Expr,
        /// Taken branch.
        then_branch: Vec<Stmt>,
        /// Not-taken branch.
        else_branch: Vec<Stmt>,
    },
}

/// How a basic block ends.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Terminator {
    /// Fall through to another block.
    Jump(usize),
    /// Two-way branch on the block's condition tap.
    Branch {
        /// Block when the condition is non-zero.
        then_block: usize,
        /// Block when the condition is zero.
        else_block: usize,
    },
    /// Program end.
    End,
}

/// A straight-line block: assignments, an optional branch condition, and a
/// terminator.
#[derive(Clone, PartialEq, Debug)]
pub struct BasicBlock {
    /// Block index.
    pub id: usize,
    /// Straight-line assignments, in order.
    pub assigns: Vec<(String, Expr)>,
    /// Condition evaluated at the end of the block (for `Branch`).
    pub cond: Option<Expr>,
    /// Control-flow successor(s).
    pub terminator: Terminator,
}

impl BasicBlock {
    /// Variables this block reads before writing (its live-in mailbox).
    pub fn inputs(&self) -> Vec<String> {
        let mut reads = Vec::new();
        let mut written: Vec<&str> = Vec::new();
        for (name, e) in &self.assigns {
            let mut vars = Vec::new();
            e.free_vars(&mut vars);
            for v in vars {
                if !written.contains(&v.as_str()) && !reads.contains(&v) {
                    reads.push(v);
                }
            }
            written.push(name);
        }
        if let Some(c) = &self.cond {
            let mut vars = Vec::new();
            c.free_vars(&mut vars);
            for v in vars {
                if !written.contains(&v.as_str()) && !reads.contains(&v) {
                    reads.push(v);
                }
            }
        }
        reads
    }

    /// Variables this block writes (its live-out mailbox).
    pub fn outputs(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (name, _) in &self.assigns {
            if !out.contains(name) {
                out.push(name.clone());
            }
        }
        out
    }
}

/// A program: a statement list.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Program {
    /// Top-level statements.
    pub stmts: Vec<Stmt>,
}

impl Program {
    /// Reference interpreter: runs the program over `env` in place.
    pub fn interpret(&self, env: &mut HashMap<String, i64>) {
        fn run(stmts: &[Stmt], env: &mut HashMap<String, i64>) {
            for s in stmts {
                match s {
                    Stmt::Assign(name, e) => {
                        let v = e.eval(env);
                        env.insert(name.clone(), v);
                    }
                    Stmt::If {
                        cond,
                        then_branch,
                        else_branch,
                    } => {
                        if cond.eval(env) != 0 {
                            run(then_branch, env);
                        } else {
                            run(else_branch, env);
                        }
                    }
                }
            }
        }
        run(&self.stmts, env);
    }

    /// Partitions the program into basic blocks (Figure 7(a)→(b)).
    pub fn partition(&self) -> Vec<BasicBlock> {
        let mut blocks: Vec<BasicBlock> = Vec::new();
        let entry = Self::lower(&self.stmts, &mut blocks, None);
        debug_assert_eq!(entry, 0, "entry block is block 0");
        blocks
    }

    /// Lowers a statement list into blocks; returns the entry block ID.
    /// `cont` is the block to jump to after the list (None = End).
    fn lower(stmts: &[Stmt], blocks: &mut Vec<BasicBlock>, cont: Option<usize>) -> usize {
        let id = blocks.len();
        blocks.push(BasicBlock {
            id,
            assigns: Vec::new(),
            cond: None,
            terminator: match cont {
                Some(c) => Terminator::Jump(c),
                None => Terminator::End,
            },
        });
        let mut i = 0;
        while i < stmts.len() {
            match &stmts[i] {
                Stmt::Assign(name, e) => {
                    blocks[id].assigns.push((name.clone(), e.clone()));
                    i += 1;
                }
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    // Everything after the if becomes the continuation.
                    let rest = &stmts[i + 1..];
                    let join = if rest.is_empty() {
                        cont
                    } else {
                        Some(Self::lower(rest, blocks, cont))
                    };
                    let then_id = Self::lower(then_branch, blocks, join);
                    let else_id = Self::lower(else_branch, blocks, join);
                    blocks[id].cond = Some(cond.clone());
                    blocks[id].terminator = Terminator::Branch {
                        then_block: then_id,
                        else_block: else_id,
                    };
                    return id;
                }
            }
        }
        id
    }

    /// Interprets the partitioned form (reference for multi-AP execution):
    /// walks blocks through terminators. Returns the blocks visited, in
    /// order — the taken path.
    pub fn interpret_blocks(blocks: &[BasicBlock], env: &mut HashMap<String, i64>) -> Vec<usize> {
        let mut path = vec![0usize];
        loop {
            assert!(path.len() <= blocks.len(), "block graph must be acyclic");
            let b = &blocks[path[path.len() - 1]];
            for (name, e) in &b.assigns {
                let v = e.eval(env);
                env.insert(name.clone(), v);
            }
            match &b.terminator {
                Terminator::End => return path,
                Terminator::Jump(n) => path.push(*n),
                Terminator::Branch {
                    then_block,
                    else_block,
                } => {
                    let c = b.cond.as_ref().expect("branch has a condition").eval(env);
                    path.push(if c != 0 { *then_block } else { *else_block });
                }
            }
        }
    }
}

/// A basic block compiled to a datapath.
#[derive(Clone, Debug)]
pub struct BlockDatapath {
    /// The source block's ID.
    pub block_id: usize,
    /// Logical objects of the datapath (all compute).
    pub objects: Vec<LogicalObject>,
    /// Configuration stream chaining them.
    pub stream: GlobalConfigStream,
    /// Live-in variables and the constant objects to patch with their
    /// values at invocation.
    pub inputs: Vec<(String, ObjectId)>,
    /// Live-out variables and the objects computing them.
    pub outputs: Vec<(String, ObjectId)>,
    /// The object computing the branch condition, if the block branches.
    pub cond: Option<ObjectId>,
}

impl BlockDatapath {
    /// Compiles one basic block into objects and a stream.
    ///
    /// Live-in variables become `Const` objects whose immediate the caller
    /// patches (via [`patched_objects`](Self::patched_objects)) before
    /// configuring — modelling the preceding processor writing the mailbox
    /// while this one is inactive.
    pub fn compile(block: &BasicBlock) -> BlockDatapath {
        let mut next_id = 0u32;
        let mut alloc = |objects: &mut Vec<LogicalObject>, cfg: LocalConfig| {
            let id = ObjectId(next_id);
            next_id += 1;
            objects.push(LogicalObject::compute(id, cfg));
            id
        };
        let mut objects = Vec::new();
        let mut stream = GlobalConfigStream::new();
        let mut env: HashMap<String, ObjectId> = HashMap::new();
        let mut inputs: Vec<(String, ObjectId)> = Vec::new();

        fn compile_expr(
            e: &Expr,
            objects: &mut Vec<LogicalObject>,
            stream: &mut GlobalConfigStream,
            env: &mut HashMap<String, ObjectId>,
            inputs: &mut Vec<(String, ObjectId)>,
            alloc: &mut impl FnMut(&mut Vec<LogicalObject>, LocalConfig) -> ObjectId,
        ) -> ObjectId {
            match e {
                Expr::Var(v) => {
                    if let Some(&id) = env.get(v) {
                        return id;
                    }
                    let id = alloc(objects, LocalConfig::op(Operation::Const));
                    stream.push(GlobalConfigElement::nullary(id));
                    env.insert(v.clone(), id);
                    inputs.push((v.clone(), id));
                    id
                }
                Expr::Const(c) => {
                    let id = alloc(
                        objects,
                        LocalConfig::with_imm(Operation::Const, Word::from_i64(*c)),
                    );
                    stream.push(GlobalConfigElement::nullary(id));
                    id
                }
                Expr::Bin(op, a, b) => {
                    let ia = compile_expr(a, objects, stream, env, inputs, alloc);
                    let ib = compile_expr(b, objects, stream, env, inputs, alloc);
                    let id = alloc(objects, LocalConfig::op(op.operation()));
                    stream.push(GlobalConfigElement::binary(id, ia, ib));
                    id
                }
            }
        }

        let mut outputs = Vec::new();
        for (name, e) in &block.assigns {
            let id = compile_expr(
                e,
                &mut objects,
                &mut stream,
                &mut env,
                &mut inputs,
                &mut alloc,
            );
            env.insert(name.clone(), id);
            outputs.retain(|(n, _): &(String, ObjectId)| n != name);
            outputs.push((name.clone(), id));
        }
        let cond = block.cond.as_ref().map(|c| {
            compile_expr(
                c,
                &mut objects,
                &mut stream,
                &mut env,
                &mut inputs,
                &mut alloc,
            )
        });
        BlockDatapath {
            block_id: block.id,
            objects,
            stream,
            inputs,
            outputs,
            cond,
        }
    }

    /// The objects with live-in constants patched to `values` (missing
    /// variables default to 0).
    pub fn patched_objects(&self, values: &HashMap<String, i64>) -> Vec<LogicalObject> {
        let mut objs = self.objects.clone();
        for (var, id) in &self.inputs {
            let v = values.get(var).copied().unwrap_or(0);
            if let Some(o) = objs.iter_mut().find(|o| o.id == *id) {
                o.cfg.imm = Word::from_i64(v);
            }
        }
        objs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `if (x>y) z=x+1 else z=y+2; w=z*3`
    fn sample() -> Program {
        Program {
            stmts: vec![
                Stmt::If {
                    cond: Expr::bin(BinOp::Gt, Expr::var("x"), Expr::var("y")),
                    then_branch: vec![Stmt::Assign(
                        "z".into(),
                        Expr::bin(BinOp::Add, Expr::var("x"), Expr::Const(1)),
                    )],
                    else_branch: vec![Stmt::Assign(
                        "z".into(),
                        Expr::bin(BinOp::Add, Expr::var("y"), Expr::Const(2)),
                    )],
                },
                Stmt::Assign(
                    "w".into(),
                    Expr::bin(BinOp::Mul, Expr::var("z"), Expr::Const(3)),
                ),
            ],
        }
    }

    #[test]
    fn interpreter_reference() {
        let p = sample();
        let mut env = HashMap::from([("x".to_string(), 9i64), ("y".to_string(), 4)]);
        p.interpret(&mut env);
        assert_eq!(env["z"], 10);
        assert_eq!(env["w"], 30);
        let mut env = HashMap::from([("x".to_string(), 2i64), ("y".to_string(), 5)]);
        p.interpret(&mut env);
        assert_eq!(env["z"], 7);
        assert_eq!(env["w"], 21);
    }

    #[test]
    fn partition_produces_four_blocks() {
        let blocks = sample().partition();
        // entry (cond), join (w=z*3), then, else.
        assert_eq!(blocks.len(), 4);
        assert!(matches!(blocks[0].terminator, Terminator::Branch { .. }));
        assert!(blocks[0].cond.is_some());
        // Both arms join at the continuation block.
        let Terminator::Branch {
            then_block,
            else_block,
        } = blocks[0].terminator
        else {
            unreachable!()
        };
        assert_eq!(blocks[then_block].terminator, Terminator::Jump(1));
        assert_eq!(blocks[else_block].terminator, Terminator::Jump(1));
        assert_eq!(blocks[1].terminator, Terminator::End);
    }

    #[test]
    fn block_interpretation_matches_direct() {
        let p = sample();
        let blocks = p.partition();
        for (x, y) in [(9i64, 4i64), (2, 5), (5, 5), (-3, -7)] {
            let mut direct = HashMap::from([("x".to_string(), x), ("y".to_string(), y)]);
            p.interpret(&mut direct);
            let mut blocked = HashMap::from([("x".to_string(), x), ("y".to_string(), y)]);
            Program::interpret_blocks(&blocks, &mut blocked);
            assert_eq!(direct, blocked, "x={x} y={y}");
        }
    }

    #[test]
    fn live_in_and_out() {
        let blocks = sample().partition();
        let entry = &blocks[0];
        assert_eq!(entry.inputs(), vec!["x".to_string(), "y".to_string()]);
        assert!(entry.outputs().is_empty());
        let join = &blocks[1];
        assert_eq!(join.inputs(), vec!["z".to_string()]);
        assert_eq!(join.outputs(), vec!["w".to_string()]);
    }

    #[test]
    fn compiled_block_shape() {
        let blocks = sample().partition();
        let dp = BlockDatapath::compile(&blocks[0]);
        // Two input constants + one compare.
        assert_eq!(dp.inputs.len(), 2);
        assert!(dp.cond.is_some());
        assert_eq!(dp.objects.len(), 3);
        // Patching installs live values.
        let vals = HashMap::from([("x".to_string(), 7i64)]);
        let objs = dp.patched_objects(&vals);
        let x_obj = objs.iter().find(|o| o.id == dp.inputs[0].1).unwrap();
        assert_eq!(x_obj.cfg.imm, Word::from_i64(7));
    }

    #[test]
    fn var_reuse_fans_out_one_object() {
        // x*x reads the same input object twice.
        let b = BasicBlock {
            id: 0,
            assigns: vec![(
                "y".into(),
                Expr::bin(BinOp::Mul, Expr::var("x"), Expr::var("x")),
            )],
            cond: None,
            terminator: Terminator::End,
        };
        let dp = BlockDatapath::compile(&b);
        assert_eq!(dp.inputs.len(), 1);
        assert_eq!(dp.objects.len(), 2); // const x + mul
        let mul = dp.stream.elements().last().unwrap();
        assert_eq!(mul.src_lhs, mul.src_rhs);
    }

    #[test]
    fn nested_ifs_partition_cleanly() {
        let p = Program {
            stmts: vec![Stmt::If {
                cond: Expr::bin(BinOp::Gt, Expr::var("a"), Expr::Const(0)),
                then_branch: vec![Stmt::If {
                    cond: Expr::bin(BinOp::Gt, Expr::var("b"), Expr::Const(0)),
                    then_branch: vec![Stmt::Assign("r".into(), Expr::Const(1))],
                    else_branch: vec![Stmt::Assign("r".into(), Expr::Const(2))],
                }],
                else_branch: vec![Stmt::Assign("r".into(), Expr::Const(3))],
            }],
        };
        let blocks = p.partition();
        for (a, b) in [(1i64, 1i64), (1, -1), (-1, 5)] {
            let mut direct = HashMap::from([("a".to_string(), a), ("b".to_string(), b)]);
            p.interpret(&mut direct);
            let mut blocked = HashMap::from([("a".to_string(), a), ("b".to_string(), b)]);
            Program::interpret_blocks(&blocks, &mut blocked);
            assert_eq!(direct["r"], blocked["r"], "a={a} b={b}");
        }
    }
}
