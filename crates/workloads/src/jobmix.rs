//! Deterministic workload instances for multi-tenant job mixes.
//!
//! The runtime's integration tests and Ablation I need *many*
//! varied workloads whose correct outputs are known up front. These
//! generators draw kernel choices, parameters, and inputs from a
//! [`Prng`], so the same seed always yields the same case — and therefore
//! the same runtime event log.

use std::collections::HashMap;

use vlsi_prng::Prng;

use crate::program::{BinOp, Expr, Program, Stmt};
use crate::streaming::StreamKernel;

/// A generated streaming case: the kernel, its input, and the reference
/// output the runtime verifies against.
#[derive(Clone, Debug)]
pub struct StreamCase {
    /// The kernel to install.
    pub kernel: StreamKernel,
    /// Input elements (block 0 mailbox).
    pub input: Vec<u64>,
    /// The kernel's reference output for `input`.
    pub expected: Vec<u64>,
}

/// Draws one streaming case: a uniformly chosen kernel shape with random
/// parameters over a random input of 4–24 elements.
pub fn stream_case(rng: &mut Prng) -> StreamCase {
    let len = rng.gen_range(4..=24u64);
    let input: Vec<u64> = (0..len).map(|_| rng.gen_range(0..1_000u64)).collect();
    let (kernel, expected) = match rng.gen_range(0..5u8) {
        0 => {
            let a = rng.gen_range(1..16u64);
            let b = rng.gen_range(0..64u64);
            (
                StreamKernel::axpy(a, b, len),
                StreamKernel::axpy_reference(a, b, &input),
            )
        }
        1 => {
            let n = rng.gen_range(2..=5usize);
            let consts: Vec<u64> = (0..n).map(|_| rng.gen_range(1..9u64)).collect();
            (
                StreamKernel::chain(&consts, len),
                StreamKernel::chain_reference(&consts, &input),
            )
        }
        2 => {
            let c = [
                rng.gen_range(1..8u64),
                rng.gen_range(1..8u64),
                rng.gen_range(1..8u64),
            ];
            (
                StreamKernel::fanout_reduce(c, len),
                StreamKernel::fanout_reduce_reference(c, &input),
            )
        }
        3 => {
            let n = rng.gen_range(2..=4usize);
            let coeffs: Vec<u64> = (0..n).map(|_| rng.gen_range(1..7u64)).collect();
            (
                StreamKernel::horner(&coeffs, len),
                StreamKernel::horner_reference(&coeffs, &input),
            )
        }
        _ => {
            let w = rng.gen_range(2..=6usize);
            let base = rng.gen_range(1..5u64);
            (
                StreamKernel::wide_tree(w, base, len),
                StreamKernel::wide_tree_reference(w, base, &input),
            )
        }
    };
    StreamCase {
        kernel,
        input,
        expected,
    }
}

/// A generated basic-block program case with its input datasets.
#[derive(Clone, Debug)]
pub struct BlockCase {
    /// The program (three blocks once partitioned: branch + two arms +
    /// join).
    pub program: Program,
    /// Input environments to push through the block pipeline.
    pub datasets: Vec<HashMap<String, i64>>,
    /// The variable holding each dataset's result.
    pub result_var: String,
}

/// Draws one control-flow case in the Figure 7 shape —
/// `if (x ⊲ y) z = x·k₁ + c₁ else z = y − c₂; r = z·k₂ + x` — with random
/// comparison, constants, and 1–3 datasets.
pub fn block_case(rng: &mut Prng) -> BlockCase {
    let cmp = *rng.choose(&[BinOp::Gt, BinOp::Lt]).expect("non-empty");
    let k1 = rng.gen_range(1..6i64);
    let c1 = rng.gen_range(0..20i64);
    let c2 = rng.gen_range(0..20i64);
    let k2 = rng.gen_range(1..4i64);
    let program = Program {
        stmts: vec![
            Stmt::If {
                cond: Expr::bin(cmp, Expr::var("x"), Expr::var("y")),
                then_branch: vec![Stmt::Assign(
                    "z".into(),
                    Expr::bin(
                        BinOp::Add,
                        Expr::bin(BinOp::Mul, Expr::var("x"), Expr::Const(k1)),
                        Expr::Const(c1),
                    ),
                )],
                else_branch: vec![Stmt::Assign(
                    "z".into(),
                    Expr::bin(BinOp::Sub, Expr::var("y"), Expr::Const(c2)),
                )],
            },
            Stmt::Assign(
                "r".into(),
                Expr::bin(
                    BinOp::Add,
                    Expr::bin(BinOp::Mul, Expr::var("z"), Expr::Const(k2)),
                    Expr::var("x"),
                ),
            ),
        ],
    };
    let datasets = (0..rng.gen_range(1..=3usize))
        .map(|_| {
            HashMap::from([
                ("x".to_string(), rng.gen_range(-50..50i64)),
                ("y".to_string(), rng.gen_range(-50..50i64)),
            ])
        })
        .collect();
    BlockCase {
        program,
        datasets,
        result_var: "r".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_cases_are_deterministic_and_self_consistent() {
        let mut a = Prng::seed_from_u64(7);
        let mut b = Prng::seed_from_u64(7);
        for _ in 0..32 {
            let ca = stream_case(&mut a);
            let cb = stream_case(&mut b);
            assert_eq!(ca.kernel.name, cb.kernel.name);
            assert_eq!(ca.input, cb.input);
            assert_eq!(ca.expected, cb.expected);
            assert_eq!(ca.input.len() as u64, ca.kernel.input_len);
            assert_eq!(ca.expected.len() as u64, ca.kernel.output_len);
        }
    }

    #[test]
    fn block_cases_match_the_interpreter() {
        let mut rng = Prng::seed_from_u64(11);
        for _ in 0..16 {
            let case = block_case(&mut rng);
            for ds in &case.datasets {
                let mut env = ds.clone();
                case.program.interpret(&mut env);
                assert!(env.contains_key(&case.result_var));
            }
        }
    }
}
