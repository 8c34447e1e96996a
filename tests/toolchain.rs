//! Integration: the application toolchain — object code in, optimised
//! stream, executed results out.

use std::collections::HashMap;
use vlsi_processor::ap::{AdaptiveProcessor, ApConfig};
use vlsi_processor::object::{ObjectId, Word};
use vlsi_processor::workloads::{assemble, disassemble, optimize_stream, RandomDatapath};

#[test]
fn object_code_program_executes() {
    // The paper's "interface between the VLSI processor and its
    // application": a textual program assembles and streams.
    let (objects, stream) = assemble(
        r"
# y = (x + 10) * 2 over 6 elements
object 1000 load  init=0,0,6
object 0    addimm imm=10
object 1    mulimm imm=2
object 1001 store init=0,1,0
element 0    lhs=1000
element 1    lhs=0
element 1001 rhs=1
",
    )
    .expect("assembles");
    let mut ap = AdaptiveProcessor::new(ApConfig::default());
    ap.install(objects).unwrap();
    for i in 0..6u64 {
        ap.memory_mut(0).unwrap().store(i, Word(i * 5)).unwrap();
    }
    ap.configure(stream).unwrap();
    ap.execute(0, 1_000_000).unwrap();
    for i in 0..6u64 {
        assert_eq!(
            ap.memory(1).unwrap().peek(i).unwrap(),
            Word((i * 5 + 10) * 2)
        );
    }
}

#[test]
fn disassembled_programs_rebuild_identically() {
    let gen = RandomDatapath {
        n_objects: 10,
        n_elements: 30,
        locality: 0.4,
        seed: 11,
    };
    let objects = gen.objects();
    let stream = gen.stream();
    let text = disassemble(&objects, &stream);
    let (objects2, stream2) = assemble(&text).unwrap();
    assert_eq!(objects, objects2);
    assert_eq!(stream, stream2);
}

#[test]
fn optimizer_preserves_scalar_semantics_end_to_end() {
    for seed in 0..6 {
        let gen = RandomDatapath {
            n_objects: 14,
            n_elements: 70,
            locality: 0.2,
            seed,
        };
        let original = gen.stream();
        let optimized = optimize_stream(&original);

        let run = |stream: &vlsi_processor::object::GlobalConfigStream| {
            let mut ap = AdaptiveProcessor::new(ApConfig::default());
            ap.install(gen.objects()).unwrap();
            ap.execute_scalar(stream).unwrap()
        };
        let a: HashMap<ObjectId, Word> = run(&original);
        let b = run(&optimized);
        assert_eq!(a, b, "seed {seed}: optimization changed results");
    }
}

#[test]
fn optimizer_reduces_misses_on_small_arrays() {
    // The §2.7 payoff: shorter dependency distances mean fewer object
    // cache misses at a given capacity. Compare virtual-hardware miss
    // counts on a 4-slot array, aggregated across seeds (the greedy
    // heuristic can lose on individual streams).
    let mut before_total = 0u64;
    let mut after_total = 0u64;
    for seed in 0..10 {
        let gen = RandomDatapath {
            n_objects: 16,
            n_elements: 120,
            locality: 0.5,
            seed,
        };
        let misses = |stream: &vlsi_processor::object::GlobalConfigStream| {
            let mut ap = AdaptiveProcessor::new(ApConfig {
                compute_objects: 4,
                ..ApConfig::default()
            });
            ap.install(gen.objects()).unwrap();
            ap.execute_scalar(stream).unwrap();
            ap.metrics().object_misses
        };
        before_total += misses(&gen.stream());
        after_total += misses(&optimize_stream(&gen.stream()));
    }
    assert!(
        after_total < before_total,
        "optimized {after_total} !< original {before_total}"
    );
}
