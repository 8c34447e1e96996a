//! The dynamic CMP in action: applications request resources by *count*,
//! processors come and go, data moves over the router network, and a
//! partitioned program pipelines across block processors.
//!
//! ```text
//! cargo run --example dynamic_cmp
//! ```
//!
//! This is the paper's §1 story end to end: "the scale of the processor is
//! dynamically variable, looking like up or down scale on demand" — with
//! no application partitioning onto fixed tiles, no scaling instruction,
//! and placement handled by the chip itself (§5: "The VLSI processor is
//! manageable").

use std::collections::HashMap;
use vlsi_processor::core::{StagedExecutor, StagedProgram, VlsiChip};
use vlsi_processor::object::Word;
use vlsi_processor::topology::Cluster;
use vlsi_processor::workloads::{figure7, StreamKernel};

fn main() {
    let mut chip = VlsiChip::new(8, 8, Cluster::default());

    // --- three applications request resources by count ------------------
    // A streaming app wants a big datapath; two small apps want minimum APs.
    let big = chip.gather_any(9).expect("9 clusters");
    let small_a = chip.gather_any(4).expect("4 clusters");
    let small_b = chip.gather_any(4).expect("4 clusters");
    println!(
        "allocated: big={} ({} clusters), a={} and b={} (4 each); \
         free={} fragmentation={:.2}",
        big.id,
        chip.processor(big.id).unwrap().scale(),
        small_a.id,
        small_b.id,
        chip.free_clusters(),
        chip.fragmentation()
    );

    // --- feed the big processor over the router network -----------------
    let kernel = StreamKernel::axpy(5, 1, 12);
    chip.install(big.id, kernel.objects.clone()).unwrap();
    let xs: Vec<Word> = (1..=12u64).map(Word).collect();
    let latency = chip
        .send_message(None, big.id, 0, 0, &xs)
        .expect("message lands in the inactive processor's mailbox");
    println!("input stream delivered by NoC worm in {latency} cycles");

    chip.activate(big.id).unwrap();
    chip.configure(big.id, kernel.stream.clone()).unwrap();
    chip.execute(big.id, 0, 1_000_000).unwrap();
    chip.deactivate(big.id).unwrap();
    let out = chip.read_mailbox(big.id, 1, 0, 12).unwrap();
    assert_eq!(out[2].as_u64(), 5 * 3 + 1);
    println!("axpy(5,1) results verified on {}", big.id);

    // --- the small processors are released; the app pipeline moves in ---
    chip.release_processor(small_a.id).unwrap();
    chip.release_processor(small_b.id).unwrap();
    let blocks = figure7::program().partition();
    let program = StagedProgram::from_blocks("figure7", &blocks, &[figure7::RESULT_VAR]);
    let exec = StagedExecutor::deploy(&mut chip, program).expect("deploy");
    let datasets: Vec<HashMap<String, i64>> = (0..10i64)
        .map(|i| HashMap::from([("x".to_string(), i), ("y".to_string(), 9 - i)]))
        .collect();
    let (results, stats) = exec.run_pipelined(&mut chip, &datasets).unwrap();
    for (i, out) in results.iter().enumerate() {
        let i = i as i64;
        assert_eq!(out, &vec![figure7::reference(i, 9 - i)]);
    }
    println!(
        "figure-7 pipeline over {} datasets: {} wavefront ticks instead of {} one by one, \
         {} activations, regions {}‰ busy",
        stats.datasets,
        stats.ticks,
        stats.datasets * 3,
        stats.stages_executed,
        stats.utilization_milli
    );

    // --- everything returns to the pool ---------------------------------
    chip.release_processor(big.id).unwrap();
    exec.release(&mut chip).unwrap();
    println!(
        "released all processors; free={} fragmentation={:.2}",
        chip.free_clusters(),
        chip.fragmentation()
    );
    assert_eq!(chip.free_clusters(), 64);
}
