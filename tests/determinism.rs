//! Integration: the whole stack is deterministic — identical seeds and
//! inputs give bit-identical metrics and results across runs.

use std::collections::HashMap;
use vlsi_processor::core::{StagedExecutor, StagedProgram, VlsiChip};
use vlsi_processor::csd::CsdSimulator;
use vlsi_processor::faults::FaultPlanBuilder;
use vlsi_processor::runtime::mix::mixed_jobs;
use vlsi_processor::runtime::{EventKind, Fifo, Runtime, RuntimeConfig};
use vlsi_processor::topology::{Cluster, Coord, Region};
use vlsi_processor::workloads::{figure7, RandomDatapath, StreamKernel};

fn full_scenario() -> (Vec<u64>, u64, u64, Vec<i64>) {
    let mut chip = VlsiChip::new(8, 8, Cluster::default());
    // Streaming kernel on one AP.
    let id = chip
        .gather(Region::rect(Coord::new(4, 4), 2, 2))
        .unwrap()
        .id;
    let kernel = StreamKernel::axpy(3, 7, 16);
    chip.install(id, kernel.objects.clone()).unwrap();
    let xs: Vec<vlsi_processor::object::Word> =
        (0..16u64).map(vlsi_processor::object::Word).collect();
    chip.write_mailbox(id, 0, 0, &xs).unwrap();
    chip.activate(id).unwrap();
    let cfg = chip.configure(id, kernel.stream.clone()).unwrap();
    let report = chip.execute(id, 0, 1_000_000).unwrap();
    chip.deactivate(id).unwrap();
    let outputs: Vec<u64> = chip
        .read_mailbox(id, 1, 0, 16)
        .unwrap()
        .iter()
        .map(|w| w.as_u64())
        .collect();

    // Partitioned program on four more APs.
    let blocks = figure7::program().partition();
    let program = StagedProgram::from_blocks("figure7", &blocks, &[figure7::RESULT_VAR]);
    let exec = StagedExecutor::deploy(&mut chip, program).unwrap();
    let mut results = Vec::new();
    for i in 0..6i64 {
        let inputs = HashMap::from([("x".to_string(), i), ("y".to_string(), 3 - i)]);
        let (out, _) = exec.run(&mut chip, &inputs).unwrap();
        results.push(out[0]);
    }
    (outputs, cfg.cycles, report.cycles, results)
}

#[test]
fn chip_scenarios_are_deterministic() {
    let a = full_scenario();
    let b = full_scenario();
    assert_eq!(a, b);
}

#[test]
fn csd_sweeps_are_deterministic() {
    let sim = CsdSimulator::new(64, 64);
    let a = sim.sweep_point(0.4, 10, 99);
    let b = sim.sweep_point(0.4, 10, 99);
    assert_eq!(a, b);
}

#[test]
fn scalar_metrics_are_deterministic() {
    use vlsi_processor::ap::{AdaptiveProcessor, ApConfig};
    let run = || {
        let gen = RandomDatapath {
            n_objects: 20,
            n_elements: 150,
            locality: 0.3,
            seed: 12345,
        };
        let mut ap = AdaptiveProcessor::new(ApConfig::default());
        ap.install(gen.objects()).unwrap();
        ap.execute_scalar(&gen.stream()).unwrap();
        ap.metrics()
    };
    assert_eq!(run(), run());
}

#[test]
fn defect_event_sequences_are_byte_identical_across_same_seed_runs() {
    // Defects live in the flat FabricIndex bitmap, not a hash-ordered
    // set, so everything derived from them — the runtime's defect events
    // and the chip's defect view — must replay byte-for-byte from the
    // same seed.
    let run = || {
        let chip = VlsiChip::new(16, 16, Cluster::default());
        let mut rt = Runtime::new(chip, Box::new(Fifo), RuntimeConfig::default());
        let plan = FaultPlanBuilder::new(77)
            .grid(16, 16)
            .horizon(60)
            .switch_stuck_rate(0.01)
            .build();
        rt.attach_fault_plan(plan);
        for spec in mixed_jobs(77, 12) {
            rt.submit(spec);
        }
        rt.run_until_idle(200_000).expect("faulted mix must drain");
        let defect_bytes: Vec<u8> = rt
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::DefectInjected { .. }
                        | EventKind::DefectRecovered { .. }
                        | EventKind::FaultReported { .. }
                )
            })
            .flat_map(|e| format!("{e:?}\n").into_bytes())
            .collect();
        let coords: Vec<Coord> = rt.chip().defective_coords().collect();
        (defect_bytes, coords)
    };
    let (bytes_a, coords_a) = run();
    let (bytes_b, coords_b) = run();
    assert!(
        !coords_a.is_empty(),
        "the plan must actually inject defects"
    );
    assert_eq!(
        bytes_a, bytes_b,
        "defect event sequence must be byte-identical"
    );
    assert_eq!(coords_a, coords_b);
    // The defect view is row-major, not hash-ordered.
    let mut sorted = coords_a.clone();
    sorted.sort_by_key(|c| (c.layer, c.y, c.x));
    assert_eq!(coords_a, sorted);
}
