//! # vlsi-bench — regeneration harness for every table and figure
//!
//! One binary per artifact of the paper's evaluation:
//!
//! | artifact | binary | what it prints |
//! |---|---|---|
//! | Table 1 | `table1` | physical-object module areas |
//! | Table 2 | `table2` | memory-block module areas |
//! | Table 3 | `table3` | control-object register areas |
//! | Table 4 | `table4` | APs / wire delay / peak GOPS per year, paper-vs-measured |
//! | Figure 3 | `figure3` | locality vs used channels, `N_object` ∈ {16…256} |
//! | Figure 5 | `figure5_rings` | rings gathered on the S-topology |
//! | all | `experiments` | the full paper-vs-measured summary |
//!
//! Criterion benches (`cargo bench -p vlsi-bench`) time the underlying
//! machinery and run the ablations DESIGN.md calls out: channel
//! provisioning vs routability (A), stack capacity vs hit rate (B), and
//! region size vs configuration latency (C).
//!
//! [`hotpath`] holds the workloads behind Ablation IV and the
//! timing-free [`hotpath::digest`] that `tests/parallel_determinism.rs`
//! pins at 1 and 8 threads.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod hotpath;

use vlsi_csd::{ChannelUsage, CsdSimulator};

/// The Figure 3 sweep: for each array size, measure mean used channels
/// across the locality axis. Points are averaged over `runs` seeds.
/// Returns `(locality, per-size usage)` rows.
pub fn figure3_sweep(
    sizes: &[usize],
    localities: &[f64],
    runs: usize,
    seed: u64,
) -> Vec<(f64, Vec<ChannelUsage>)> {
    localities
        .iter()
        .map(|&loc| {
            // Independent sweep points run concurrently; each simulator
            // run stays single-threaded and deterministic.
            let mut row = Vec::with_capacity(sizes.len());
            std::thread::scope(|s| {
                let handles: Vec<_> = sizes
                    .iter()
                    .map(|&n| s.spawn(move || CsdSimulator::new(n, n).sweep_point(loc, runs, seed)))
                    .collect();
                for h in handles {
                    row.push(h.join().expect("sweep worker"));
                }
            });
            (loc, row)
        })
        .collect()
}

/// Renders the Figure 3 sweep as an aligned text table.
pub fn figure3_text(sizes: &[usize], rows: &[(f64, Vec<ChannelUsage>)]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "Figure 3: Locality versus Number of Used Channels (one-source model)"
    )
    .unwrap();
    write!(out, "{:>9}", "locality").unwrap();
    for n in sizes {
        write!(out, " {:>9}", format!("N={n}")).unwrap();
    }
    writeln!(out).unwrap();
    for (loc, row) in rows {
        write!(out, "{loc:>9.2}").unwrap();
        for u in row {
            write!(out, " {:>9}", u.used_channels).unwrap();
        }
        writeln!(out).unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_a_row_per_locality() {
        let rows = figure3_sweep(&[16, 32], &[1.0, 0.0], 4, 7);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].1.len(), 2);
        // Random uses more channels than fully local.
        assert!(rows[1].1[1].used_channels > rows[0].1[1].used_channels);
    }

    #[test]
    fn text_rendering() {
        let rows = figure3_sweep(&[16], &[0.5], 2, 1);
        let t = figure3_text(&[16], &rows);
        assert!(t.contains("N=16"));
        assert!(t.contains("0.50"));
    }
}
