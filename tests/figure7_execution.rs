//! Integration: the complete Figure 7 scenario on the chip.

use std::collections::HashMap;
use vlsi_processor::core::{CoreError, ProcState, StagedExecutor, StagedProgram, VlsiChip};
use vlsi_processor::topology::Cluster;
use vlsi_processor::workloads::figure7;

/// Figure 7(b)'s four blocks as guarded stages, deployed on a fresh die.
fn deploy_figure7() -> (VlsiChip, StagedExecutor) {
    let mut chip = VlsiChip::new(8, 8, Cluster::default());
    let blocks = figure7::program().partition();
    assert_eq!(blocks.len(), 4, "Figure 7(b): four atomic blocks");
    let program = StagedProgram::from_blocks("figure7", &blocks, &[figure7::RESULT_VAR]);
    let exec = StagedExecutor::deploy(&mut chip, program).unwrap();
    (chip, exec)
}

fn xy(x: i64, y: i64) -> HashMap<String, i64> {
    HashMap::from([("x".to_string(), x), ("y".to_string(), y)])
}

#[test]
fn four_processor_speculative_pipeline() {
    let (mut chip, exec) = deploy_figure7();
    assert_eq!(exec.processors().len(), 4);

    // Sweep a grid of inputs including the boundary x == y.
    for x in -5..=5i64 {
        for y in -5..=5i64 {
            let (out, stats) = exec.run(&mut chip, &xy(x, y)).unwrap();
            assert_eq!(out, vec![figure7::reference(x, y)]);
            // Exactly one arm runs per invocation: entry + arm + buffer.
            assert_eq!(stats.stages_executed, 3);
        }
    }
}

#[test]
fn only_the_taken_arm_is_activated() {
    let (mut chip, exec) = deploy_figure7();
    let (_, stats) = exec.run(&mut chip, &xy(10, 0)).unwrap();
    // 4 processors deployed, but only 3 activations (one arm stays dark).
    assert_eq!(stats.stages_executed, 3);
    assert_eq!(exec.processors().len(), 4);
}

#[test]
fn mailbox_writes_respect_protection() {
    let (mut chip, exec) = deploy_figure7();
    let entry = exec.processors()[0];

    // While inactive, the supervisor can write operands.
    chip.write_mailbox(entry, 0, 0, &[vlsi_processor::object::Word(1)])
        .unwrap();
    // While active, the same write is a protection violation.
    chip.activate(entry).unwrap();
    assert!(matches!(
        chip.write_mailbox(entry, 0, 0, &[vlsi_processor::object::Word(2)]),
        Err(CoreError::ProtectionViolation { .. })
    ));
    chip.deactivate(entry).unwrap();
    assert_eq!(chip.state(entry).unwrap(), ProcState::Inactive);
}

#[test]
fn deployment_survives_many_runs_with_alternating_arms() {
    let (mut chip, exec) = deploy_figure7();
    for i in 0..20i64 {
        let (x, y) = if i % 2 == 0 { (i, -i) } else { (-i, i) };
        let (out, _) = exec.run(&mut chip, &xy(x, y)).unwrap();
        assert_eq!(out, vec![figure7::reference(x, y)], "run {i}");
    }
    // All processors back to inactive after the runs.
    for &id in exec.processors() {
        assert_eq!(chip.state(id).unwrap(), ProcState::Inactive);
    }
}
