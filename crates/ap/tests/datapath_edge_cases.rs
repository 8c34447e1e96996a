//! Edge cases of the dataflow execution engine.

use vlsi_ap::datapath::{Datapath, NodeSpec};
use vlsi_ap::ApError;
use vlsi_object::{
    GlobalConfigElement, GlobalConfigStream, LocalConfig, MemoryBlock, ObjectError, ObjectId,
    ObjectKind, Operation, Word, PHYS_REGISTERS,
};

fn compute(id: u32, op: Operation, imm: u64) -> NodeSpec {
    NodeSpec {
        id: ObjectId(id),
        cfg: LocalConfig::with_imm(op, Word(imm)),
        kind: ObjectKind::Compute,
        regs: [Word::ZERO; PHYS_REGISTERS],
    }
}

fn mem(id: u32, op: Operation, base: u64, block: u64, len: u64) -> NodeSpec {
    let mut regs = [Word::ZERO; PHYS_REGISTERS];
    regs[0] = Word(base);
    regs[1] = Word(block);
    regs[2] = Word(len);
    NodeSpec {
        id: ObjectId(id),
        cfg: LocalConfig::op(op),
        kind: ObjectKind::Memory,
        regs,
    }
}

#[test]
fn backpressure_does_not_lose_or_duplicate_tokens() {
    // Fast producer (latency-1 pass chain) into a slow consumer (fdiv,
    // 16 cycles): every loaded word must arrive exactly once.
    let stream: GlobalConfigStream = [
        GlobalConfigElement::unary(ObjectId(1), ObjectId(0)),
        GlobalConfigElement::unary(ObjectId(2), ObjectId(1)),
        GlobalConfigElement {
            sink: ObjectId(3),
            src_lhs: None,
            src_rhs: Some(ObjectId(2)),
            src_pred: None,
        },
    ]
    .into_iter()
    .collect();
    let mut dp = Datapath::build(&stream, |id| match id.0 {
        0 => Some(mem(0, Operation::Load, 0, 0, 20)),
        1 => Some(compute(1, Operation::Pass, 0)),
        2 => Some(compute(2, Operation::MulImm, 3)), // 3-cycle stage
        3 => Some(mem(3, Operation::Store, 0, 1, 0)),
        _ => None,
    })
    .unwrap();
    let mut memory = vec![MemoryBlock::new(), MemoryBlock::new()];
    for i in 0..20 {
        memory[0].store(i, Word(i + 1)).unwrap();
    }
    let report = dp.run(&mut memory, 0, 100_000).unwrap();
    assert!(report.drained);
    assert_eq!(report.loads, 20);
    assert_eq!(report.stores, 20);
    for i in 0..20u64 {
        assert_eq!(memory[1].peek(i).unwrap(), Word((i + 1) * 3));
    }
}

#[test]
fn steer_that_never_passes_produces_nothing() {
    // Predicate always false on a SteerTrue: the value tokens are
    // consumed silently; the tap stays empty; the run still drains.
    let stream: GlobalConfigStream =
        [GlobalConfigElement::unary(ObjectId(2), ObjectId(0)).with_pred(ObjectId(1))]
            .into_iter()
            .collect();
    let mut dp = Datapath::build(&stream, |id| match id.0 {
        0 => Some(compute(0, Operation::Const, 5)),
        1 => Some(compute(1, Operation::Const, 0)), // false predicate
        2 => Some(compute(2, Operation::SteerTrue, 0)),
        _ => None,
    })
    .unwrap();
    let mut memory = Vec::new();
    let report = dp.run(&mut memory, 4, 100_000).unwrap();
    assert!(report.drained);
    assert!(report.taps[&ObjectId(2)].is_empty());
    assert!(report.firings >= 3, "consts and the steer all fired");
}

#[test]
fn merge_prefers_lhs_but_drains_both() {
    let stream: GlobalConfigStream = [GlobalConfigElement::binary(
        ObjectId(2),
        ObjectId(0),
        ObjectId(1),
    )]
    .into_iter()
    .collect();
    let mut dp = Datapath::build(&stream, |id| match id.0 {
        0 => Some(compute(0, Operation::Const, 100)),
        1 => Some(compute(1, Operation::Const, 200)),
        2 => Some(compute(2, Operation::Merge, 0)),
        _ => None,
    })
    .unwrap();
    let mut memory = Vec::new();
    let report = dp.run(&mut memory, 4, 100_000).unwrap();
    assert!(report.drained);
    let vals = &report.taps[&ObjectId(2)];
    assert_eq!(vals.len(), 2, "both constants pass the merge");
    assert!(vals.contains(&Word(100)) && vals.contains(&Word(200)));
}

#[test]
fn out_of_range_memory_block_errors() {
    // A memory node pointing at block 7 when only 1 exists.
    let stream: GlobalConfigStream = [GlobalConfigElement::unary(ObjectId(1), ObjectId(0))]
        .into_iter()
        .collect();
    let mut dp = Datapath::build(&stream, |id| match id.0 {
        0 => Some(mem(0, Operation::Load, 0, 7, 4)),
        1 => Some(compute(1, Operation::Pass, 0)),
        _ => None,
    })
    .unwrap();
    let mut memory = vec![MemoryBlock::new()];
    assert!(dp.run(&mut memory, 4, 100_000).is_err());
}

#[test]
fn load_past_the_block_end_errors() {
    let stream: GlobalConfigStream = [GlobalConfigElement::unary(ObjectId(1), ObjectId(0))]
        .into_iter()
        .collect();
    // Base at the last word, but a 4-element stream: the second load
    // walks off the 8192-word block.
    let mut dp = Datapath::build(&stream, |id| match id.0 {
        0 => Some(mem(0, Operation::Load, 8191, 0, 4)),
        1 => Some(compute(1, Operation::Pass, 0)),
        _ => None,
    })
    .unwrap();
    let mut memory = vec![MemoryBlock::new()];
    match dp.run(&mut memory, 10, 100_000) {
        Err(ApError::Object(_)) => {}
        other => panic!("expected an address error, got {other:?}"),
    }
}

#[test]
fn load_address_past_u64_max_errors_instead_of_wrapping() {
    // 0 - 1 = u64::MAX arrives as the address token of a load whose base
    // is 1: the sum wraps to word 0, a perfectly valid address holding
    // the wrong data. It must be the typed out-of-range error instead.
    let stream: GlobalConfigStream = [
        GlobalConfigElement::binary(ObjectId(2), ObjectId(0), ObjectId(1)),
        GlobalConfigElement::unary(ObjectId(3), ObjectId(2)),
        GlobalConfigElement::unary(ObjectId(4), ObjectId(3)),
    ]
    .into_iter()
    .collect();
    let mut dp = Datapath::build(&stream, |id| match id.0 {
        0 => Some(compute(0, Operation::Const, 0)),
        1 => Some(compute(1, Operation::Const, 1)),
        2 => Some(compute(2, Operation::ISub, 0)),
        3 => Some(mem(3, Operation::Load, 1, 0, 0)),
        4 => Some(compute(4, Operation::Pass, 0)),
        _ => None,
    })
    .unwrap();
    let mut memory = vec![MemoryBlock::new()];
    memory[0].store(0, Word(0xBAD)).unwrap();
    match dp.run(&mut memory, 1, 100_000) {
        Err(ApError::Object(ObjectError::AddressOutOfRange { .. })) => {}
        other => panic!("expected an address error, got {other:?}"),
    }
    // Stream pointers at the top of the address space fail the same way.
    for op in [Operation::Load, Operation::Store] {
        let stream: GlobalConfigStream = [match op {
            Operation::Load => GlobalConfigElement::unary(ObjectId(1), ObjectId(0)),
            _ => GlobalConfigElement {
                sink: ObjectId(0),
                src_lhs: None,
                src_rhs: Some(ObjectId(1)),
                src_pred: None,
            },
        }]
        .into_iter()
        .collect();
        let mut dp = Datapath::build(&stream, |id| match id.0 {
            0 => Some(mem(0, op, u64::MAX, 0, 2)),
            1 => Some(compute(1, Operation::Const, 7)),
            _ => None,
        })
        .unwrap();
        match dp.run(&mut memory, 1, 100_000) {
            Err(ApError::Object(ObjectError::AddressOutOfRange { .. })) => {}
            other => panic!("{op}: expected an address error, got {other:?}"),
        }
    }
}

#[test]
fn zero_cycle_budget_times_out() {
    let stream: GlobalConfigStream = [GlobalConfigElement::unary(ObjectId(1), ObjectId(0))]
        .into_iter()
        .collect();
    let mut dp = Datapath::build(&stream, |id| {
        Some(compute(
            id.0,
            if id.0 == 0 {
                Operation::Const
            } else {
                Operation::Pass
            },
            1,
        ))
    })
    .unwrap();
    let mut memory = Vec::new();
    assert!(matches!(
        dp.run(&mut memory, 1, 0),
        Err(ApError::ExecutionTimeout { cycles: 0 })
    ));
}

#[test]
fn unbounded_stream_times_out_at_the_cycle_budget() {
    // An effectively unbounded const stream into a tap with no limit
    // never drains: the run stops at the budget with the typed timeout —
    // and does so again on the same resident datapath, from cycle 0.
    let stream: GlobalConfigStream = [GlobalConfigElement::unary(ObjectId(1), ObjectId(0))]
        .into_iter()
        .collect();
    let mut dp = Datapath::build(&stream, |id| match id.0 {
        0 => {
            let mut s = compute(0, Operation::Const, 5);
            s.regs[2] = Word(u64::MAX);
            Some(s)
        }
        1 => Some(compute(1, Operation::Pass, 0)),
        _ => None,
    })
    .unwrap();
    let mut memory = Vec::new();
    for _ in 0..2 {
        assert_eq!(
            dp.run(&mut memory, u64::MAX, 50).unwrap_err(),
            ApError::ExecutionTimeout { cycles: 50 }
        );
    }
}

#[test]
fn deep_chains_scale_linearly_not_quadratically() {
    // A 100-stage chain over one token: cycles should be O(stages), far
    // below a quadratic blowup.
    let stages = 100u32;
    let stream: GlobalConfigStream = (1..=stages)
        .map(|i| GlobalConfigElement::unary(ObjectId(i), ObjectId(i - 1)))
        .collect();
    let mut dp = Datapath::build(&stream, |id| {
        Some(compute(
            id.0,
            if id.0 == 0 {
                Operation::Const
            } else {
                Operation::AddImm
            },
            1,
        ))
    })
    .unwrap();
    let mut memory = Vec::new();
    let report = dp.run(&mut memory, 1, 100_000).unwrap();
    assert_eq!(
        report.taps[&ObjectId(stages)],
        vec![Word(1 + u64::from(stages))]
    );
    assert!(
        report.cycles < u64::from(stages) * 6,
        "cycles {} for {stages} stages",
        report.cycles
    );
}
