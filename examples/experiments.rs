//! The paper's evaluation as text: Tables 1–4 (with the paper's printed
//! Table 4 alongside), the §4.1 FPU/memory trade-off, Figure 3 and its two
//! §2.6.2 extensions, and the Figure 5 rings. Every number is
//! deterministic (seeded generators, no wall-clock input); EXPERIMENTS.md
//! quotes them and names the test that asserts each claim.
//!
//! ```text
//! cargo run --release --example experiments
//! ```

use vlsi_processor::core::VlsiChip;
use vlsi_processor::cost::itrs::year;
use vlsi_processor::cost::scaling::{table4, ApComposition};
use vlsi_processor::cost::table;
use vlsi_processor::csd::sim::LocalityWorkload;
use vlsi_processor::csd::CsdSimulator;
use vlsi_processor::topology::{Cluster, Coord, Region};

/// Table 4 as printed in the paper: year, APs, wire delay [ns], peak GOPS.
const PAPER_TABLE4: [(u32, u64, f64, f64); 6] = [
    (2010, 12, 1.08, 178.0),
    (2011, 16, 1.21, 211.0),
    (2012, 21, 1.21, 276.0),
    (2013, 24, 1.43, 269.0),
    (2014, 34, 1.58, 345.0),
    (2015, 41, 1.56, 432.0),
];

/// Figure 3's array sizes.
const SIZES: [usize; 5] = [16, 32, 64, 128, 256];

fn tables() {
    println!("{}", table::table1());
    println!("{}", table::table2());
    println!("{}", table::table3());
    let comp = ApComposition::default();
    println!("{}", table::table4_text(&comp));
    println!("Table 4, paper vs measured:");
    println!(
        "{:>5} {:>9} {:>9} {:>11} {:>11} {:>11} {:>11}",
        "Year", "APs(pap)", "APs(got)", "delay(pap)", "delay(got)", "GOPS(pap)", "GOPS(got)"
    );
    for (row, (year, aps, delay, gops)) in table4(&comp).iter().zip(PAPER_TABLE4) {
        println!(
            "{year:>5} {aps:>9} {:>9} {delay:>11.2} {:>11.2} {gops:>11.1} {:>11.1}",
            row.available_aps, row.wire_delay_ns, row.peak_gops
        );
    }

    println!("\n§4.1 FPU/memory trade-off at the 2012 node:");
    let p = year(2012).expect("2012 is a Table 4 year");
    for (compute_objects, memory_objects) in [(8, 24), (16, 16), (24, 8), (32, 4)] {
        let comp = ApComposition {
            compute_objects,
            memory_objects,
        };
        println!(
            "  {compute_objects:>2} PO + {memory_objects:>2} MO per AP: {:>2} APs, {:>6.1} GOPS",
            comp.aps_per_die(&p),
            comp.peak_gops(&p)
        );
    }
}

/// Prints one Figure 3-style table: a header of array sizes, then one row
/// per `label` with `cell(label, n)` channels used at each size.
fn channel_table<T: Copy + std::fmt::Display>(
    title: &str,
    axis: &str,
    labels: &[T],
    cell: impl Fn(T, usize) -> usize,
) {
    println!("\n{title}");
    print!("{axis:>9}");
    for n in SIZES {
        print!(" {:>9}", format!("N={n}"));
    }
    println!();
    for &label in labels {
        print!("{label:>9.2}");
        for n in SIZES {
            print!(" {:>9}", cell(label, n));
        }
        println!();
    }
}

/// Mean channels used over seeds `0..runs`, rounded.
fn mean_used(runs: u64, used: impl Fn(u64) -> usize) -> usize {
    let total: usize = (0..runs).map(used).sum();
    (total as f64 / runs as f64).round() as usize
}

fn figure3() {
    // The locality axis runs high → low, as the paper plots it.
    let localities: Vec<f64> = (0..=10).map(|i| 1.0 - f64::from(i) / 10.0).collect();
    channel_table(
        "Figure 3: locality vs number of used channels (one-source model, 50 seeds)",
        "locality",
        &localities,
        |loc, n| {
            CsdSimulator::new(n, n)
                .sweep_point(loc, 50, 0xF1_63)
                .used_channels
        },
    );
    let workload = |n_objects, locality, seed| LocalityWorkload {
        n_objects,
        locality,
        seed,
    };
    channel_table(
        "Figure 3 extension A: two-source model (channels used, 20 seeds)",
        "locality",
        &[1.0, 0.75, 0.5, 0.25, 0.0],
        |loc, n| {
            mean_used(20, |seed| {
                let requests = workload(n, loc, seed).generate_two_source();
                CsdSimulator::new(n, n).run(&requests).used_channels
            })
        },
    );
    channel_table(
        "Figure 3 extension B: fan-out traffic (random, channels used, 20 seeds)",
        "fan-out",
        &[1usize, 2, 4, 8],
        |fanout, n| {
            mean_used(20, |seed| {
                let requests = workload(n, 0.0, seed).generate_fanout(fanout);
                CsdSimulator::new(n, n).run_fanout(&requests).used_channels
            })
        },
    );
}

fn figure5() {
    // Figure 5 sketches several ring processors coexisting on an 8x8
    // cluster array.
    let mut chip = VlsiChip::new(8, 8, Cluster::default());
    println!("\nFigure 5: rings on the S-topology (8x8 cluster chip)");
    println!(
        "{:>6} {:>9} {:>7} {:>12} {:>13}",
        "shape", "clusters", "worms", "cfg-latency", "switch-stores"
    );
    for (name, origin, w, h) in [
        ("2x2", Coord::new(0, 0), 2, 2),
        ("4x2", Coord::new(3, 0), 4, 2),
        ("2x4", Coord::new(0, 3), 2, 4),
        ("4x4", Coord::new(3, 3), 4, 4),
    ] {
        let out = chip
            .gather_ring(Region::rect(origin, w, h))
            .expect("ring gathers");
        let p = chip.processor(out.id).expect("gathered processor");
        assert!(p.fold.closes_as_ring());
        // The programmed switches really cycle.
        let traced = chip.fabric().trace_shift_path(p.fold.path()[0], 1000);
        assert_eq!(traced.len(), p.scale());
        println!(
            "{name:>6} {:>9} {:>7} {:>12} {:>13}",
            p.scale(),
            out.worms,
            out.config_latency,
            out.switch_stores
        );
    }
    println!(
        "all rings close; {} clusters remain free on the chip",
        chip.free_clusters()
    );
}

fn main() {
    tables();
    figure3();
    figure5();
}
