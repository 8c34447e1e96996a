//! Property-based tests for the chip layer.

use proptest::prelude::*;
use std::collections::HashMap;
use vlsi_core::{CoreError, ProcState, StagedExecutor, StagedProgram, VlsiChip};
use vlsi_object::{ObjectLibrary, Word};
use vlsi_prng::Prng;
use vlsi_topology::{Cluster, Coord, Region};
use vlsi_workloads::jobmix;
use vlsi_workloads::program::{BinOp, Expr, Program, Stmt};

fn chip() -> VlsiChip {
    VlsiChip::new(8, 8, Cluster::default())
}

const VARS: [&str; 4] = ["a", "b", "c", "d"];

/// A structured statement list drawn from `next`: two `if`s at the top,
/// below that up to two statements, each an assignment to one of
/// [`VARS`] or — while `ifs` lasts and the nesting is under three — an
/// `if` whose arms are drawn the same way.
/// Arms come out empty, write names the join never reads, and write the
/// same name on both sides, all by chance.
fn gen_stmts(next: &mut impl FnMut() -> u8, depth: usize, ifs: &mut usize) -> Vec<Stmt> {
    let var = |n: u8| VARS[n as usize % VARS.len()];
    let operand = |n: u8| match n % 3 {
        0 => Expr::Const(i64::from(n / 3) - 40),
        _ => Expr::var(var(n / 3)),
    };
    let len = if depth == 0 { 2 } else { next() % 3 };
    (0..len)
        .map(|_| {
            if depth < 3 && *ifs > 0 && (depth == 0 || next() & 1 == 0) {
                *ifs -= 1;
                let op = [BinOp::Gt, BinOp::Lt, BinOp::Eq][next() as usize % 3];
                Stmt::If {
                    cond: Expr::bin(op, Expr::var(var(next())), operand(next())),
                    then_branch: gen_stmts(next, depth + 1, ifs),
                    else_branch: gen_stmts(next, depth + 1, ifs),
                }
            } else {
                let op = [BinOp::Add, BinOp::Sub, BinOp::Mul][next() as usize % 3];
                let value = Expr::bin(op, operand(next()), operand(next()));
                Stmt::Assign(var(next()).to_string(), value)
            }
        })
        .collect()
}

proptest! {
    /// Gather → release restores the chip exactly: all clusters free, all
    /// switches default, and the same region gathers again.
    #[test]
    fn gather_release_roundtrip(ox in 0u16..5, oy in 0u16..5, w in 1u16..4, h in 1u16..4) {
        let mut c = chip();
        let region = Region::rect(Coord::new(ox, oy), w, h);
        let id = c.gather(region.clone()).unwrap().id;
        prop_assert_eq!(c.free_clusters(), 64 - region.len());
        c.release_processor(id).unwrap();
        prop_assert_eq!(c.free_clusters(), 64);
        prop_assert_eq!(c.fabric().programmed_coords().count(), 0);
        c.gather(region).unwrap();
    }

    /// Any sequence of rectangular gathers either succeeds on disjoint
    /// free clusters or fails atomically (no partial reservations leak).
    #[test]
    fn gathers_are_atomic(rects in prop::collection::vec((0u16..6, 0u16..6, 1u16..4, 1u16..4), 1..8)) {
        let mut c = chip();
        let mut owned = 0usize;
        for (x, y, w, h) in rects {
            let region = Region::rect(Coord::new(x, y), w, h);
            match c.gather(region.clone()) {
                Ok(_) => owned += region.len(),
                Err(CoreError::Topology(_)) | Err(CoreError::OutOfGrid(_)) => {}
                Err(e) => prop_assert!(false, "unexpected error {e}"),
            }
            prop_assert_eq!(c.free_clusters(), 64 - owned);
        }
    }

    /// Generated structured programs (nested ifs to depth 3, empty arms,
    /// names written in one arm, both arms, or arm and join), lowered to
    /// guarded stages and pushed through the wavefront in batches of
    /// 1..=8, match the IR interpreter on every variable — and activate
    /// exactly the non-empty blocks on each dataset's taken path.
    #[test]
    fn structured_programs_match_the_interpreter(
        choices in prop::collection::vec(any::<u8>(), 96..=96),
        inputs in prop::collection::vec((-9i64..9, -9i64..9), 1..=8),
    ) {
        let mut choices = choices.into_iter();
        let mut next = move || choices.next().unwrap_or(1);
        // Five ifs cut at most 1 + 3×5 = 16 blocks: the 8×8 die's worth.
        let p = Program { stmts: gen_stmts(&mut next, 0, &mut 5) };
        let blocks = p.partition();
        let datasets: Vec<HashMap<String, i64>> = inputs
            .iter()
            .map(|&(a, b)| HashMap::from([("a".to_string(), a), ("b".to_string(), b)]))
            .collect();

        let mut c = chip();
        let exec = StagedExecutor::deploy(&mut c, StagedProgram::from_blocks("gen", &blocks, &VARS))
            .unwrap();
        let (got, stats) = exec.run_pipelined(&mut c, &datasets).unwrap();

        let mut activations = 0;
        for (ds, out) in datasets.iter().zip(&got) {
            let mut env = ds.clone();
            p.interpret(&mut env);
            let expect: Vec<i64> = VARS.iter().map(|v| env.get(*v).copied().unwrap_or(0)).collect();
            prop_assert_eq!(out, &expect, "{:?} on {:?}", p, ds);
            // "Only the taken arm": the non-empty blocks on this path.
            activations += Program::interpret_blocks(&blocks, &mut ds.clone())
                .iter()
                .filter(|&&b| !blocks[b].assigns.is_empty() || blocks[b].cond.is_some())
                .count() as u64;
        }
        prop_assert_eq!(stats.stages_executed, activations, "{:?}", p);
        exec.release(&mut c).unwrap();
        prop_assert_eq!(c.free_clusters(), 64);
    }

    /// Generated stream cases (`jobmix::stream_case`: all five kernels,
    /// windows of 4–24 words) lowered to one-stage programs on 4, 6 or 8
    /// clusters agree with the single-AP run the lowering replaced —
    /// install, mailbox write, configure, execute, readback:
    /// deploy + `run_pipelined` returns the kernel reference, block 1
    /// holds the same words, and configuration costs exactly the
    /// reference's plus the probe's.
    #[test]
    fn stream_programs_match_the_single_ap_run(
        seed in any::<u64>(),
        clusters in prop::sample::select(vec![4usize, 6, 8]),
    ) {
        let case = jobmix::stream_case(&mut Prng::seed_from_u64(seed));
        let (kernel, len) = (&case.kernel, case.input.len());

        let mut c = chip();
        let pid = c.gather_any(clusters).unwrap().id;
        c.install(pid, kernel.objects.clone()).unwrap();
        let words: Vec<Word> = case.input.iter().map(|&x| Word(x)).collect();
        c.write_mailbox(pid, 0, 0, &words).unwrap();
        c.activate(pid).unwrap();
        let reference = c.configure(pid, kernel.stream.clone()).unwrap();
        c.execute(pid, 0, 1_000_000).unwrap();
        c.deactivate(pid).unwrap();
        let stored = c.read_mailbox(pid, 1, 0, len).unwrap();

        let mut c = chip();
        let exec = StagedExecutor::deploy(&mut c, StagedProgram::from_stream(kernel, clusters))
            .unwrap();
        let dataset: HashMap<String, i64> = (case.input.iter().enumerate())
            .map(|(i, &x)| (format!("x{i}"), x as i64))
            .collect();
        let (got, stats) = exec.run_pipelined(&mut c, &[dataset]).unwrap();
        let expect: Vec<i64> = case.expected.iter().map(|&y| y as i64).collect();
        prop_assert_eq!(got, vec![expect], "{} over {:?}", kernel.name, case.input);
        let pid = exec.processors()[0];
        prop_assert_eq!(c.read_mailbox(pid, 1, 0, len).unwrap(), stored, "{}", kernel.name);
        // The probe is one more element through the configuration
        // pipeline, one more object miss (a stack shift plus one library
        // load) and one more chain handshake.
        let probe = 1 + 1 + u64::from(ObjectLibrary::LOAD_LATENCY) + 3;
        prop_assert_eq!(stats.config_cycles, reference.cycles + probe, "{}", kernel.name);
        exec.release(&mut c).unwrap();
        prop_assert_eq!(c.free_clusters(), 64);
    }

    /// Chip fuzz: arbitrary interleavings of gather-by-count, release,
    /// relocate, and compact keep the bookkeeping invariant —
    /// free + owned == total, and the fabric's programmed set matches the
    /// live processors' regions exactly.
    #[test]
    fn chip_resource_accounting_invariant(ops in prop::collection::vec(0u8..5, 1..30)) {
        let mut c = chip();
        let mut live: Vec<vlsi_core::ProcessorId> = Vec::new();
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                0 | 1 => {
                    let k = (i % 7) + 1;
                    if let Ok(out) = c.gather_any(k) {
                        live.push(out.id);
                    }
                }
                2 => {
                    if !live.is_empty() {
                        let id = live.remove(i % live.len());
                        c.release_processor(id).unwrap();
                    }
                }
                3 => {
                    if !live.is_empty() {
                        let id = live[i % live.len()];
                        let _ = c.relocate(id);
                    }
                }
                _ => {
                    c.compact();
                }
            }
            let owned: usize = live
                .iter()
                .map(|&id| c.processor(id).unwrap().scale())
                .sum();
            prop_assert_eq!(c.free_clusters(), 64 - owned);
            // Every owned cluster's switch belongs to exactly one live
            // processor's region.
            for &id in &live {
                for cell in c.processor(id).unwrap().region.clone().cells() {
                    prop_assert_eq!(
                        c.fabric().owner(cell).map(|t| t.0),
                        Some(id.0)
                    );
                }
            }
        }
    }

    /// Lifecycle fuzz: random legal/illegal transition requests never
    /// corrupt the state machine — the state is always one of the four,
    /// and illegal requests leave it unchanged.
    #[test]
    fn lifecycle_fuzz(ops in prop::collection::vec(0u8..5, 1..40)) {
        let mut c = chip();
        let id = c.gather(Region::rect(Coord::new(0, 0), 2, 2)).unwrap().id;
        for op in ops {
            let before = c.state(id).unwrap();
            let result = match op {
                0 => c.activate(id),
                1 => c.deactivate(id),
                2 => c.sleep(id, Some(3)),
                3 => c.wake(id),
                _ => {
                    c.tick_timers(1);
                    Ok(())
                }
            };
            let after = c.state(id).unwrap();
            if result.is_err() && op != 4 {
                prop_assert_eq!(before, after, "failed op must not change state");
            }
            prop_assert!(matches!(
                after,
                ProcState::Inactive | ProcState::Active | ProcState::Sleep
            ));
        }
    }
}
