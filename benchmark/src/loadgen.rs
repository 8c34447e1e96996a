//! The benchmark's own load generator: everything the crates see is made
//! here from `--seed`, and every reference output is computed here (or by
//! the netlist evaluator) independently of the execution path under test.

use std::collections::HashMap;

use vlsi_compile::Netlist;
use vlsi_prng::Prng;
use vlsi_workloads::netgen::{self, GraphKind};

/// One input environment of a compiled graph.
pub type Dataset = HashMap<String, i64>;

/// SplitMix-style mix of a seed with a stream index, so sub-generators
/// (rounds, pools, traces) never share a sequence.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over `bytes`, for sampled artifact and output digests.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The serving pool: the 12 netgen corpus kinds at four netgen seeds
/// each, 48 netlist texts. Butterflies draw nothing from their seed, so
/// some texts repeat — as requests to a real service do.
///
/// The pool is the same for every `--seed` (which drives the request
/// order, the tenants and every dataset of `serve_closed`): on contended
/// dies the host cost of a job mix swings by several per cent with the
/// shapes of its random graphs, and a headline rate that moves that much
/// with the seed cannot carry a 10 % bound. The other workloads do draw
/// their graph structures from the seed.
pub fn serving_pool() -> Vec<String> {
    (0..4)
        .flat_map(|k| netgen::corpus(SERVING_POOL_SEED + k))
        .map(|(_, text)| text)
        .collect()
}

/// The repo's customary corpus seed (the paper's year).
const SERVING_POOL_SEED: u64 = 2012;

/// The large graph kinds `compile_large` cycles through.
pub const LARGE_KINDS: [GraphKind; 5] = [
    GraphKind::Chain { len: 256 },
    GraphKind::Tree { depth: 8 },
    GraphKind::Butterfly { lanes_log2: 6 },
    GraphKind::Random { nodes: 512 },
    GraphKind::Random { nodes: 768 },
];

/// Text of the large netlist in `slot` of a `compile_large` round, under
/// the name `<kind>_<serial>`. The structure depends on the seed and the
/// slot only, so every round compiles the same graphs; the serial makes
/// every text of a process distinct, so a cache keyed on netlist text can
/// never hit on `compile_large`.
pub fn large_netlist(seed: u64, slot: u64, serial: u64) -> String {
    let kind = LARGE_KINDS[(slot % LARGE_KINDS.len() as u64) as usize];
    let text = netgen::generate(kind, mix(seed, slot));
    let (first, rest) = text.split_once('\n').expect("netgen emits a graph line");
    format!("{first}_{serial}\n{rest}")
}

/// `n` seeded input environments for `netlist`.
pub fn datasets(netlist: &Netlist, rng: &mut Prng, n: usize) -> Vec<Dataset> {
    let names = netlist.input_names();
    (0..n)
        .map(|_| {
            names
                .iter()
                .map(|v| (v.to_string(), i64::from(rng.gen_range(-500..500i32))))
                .collect()
        })
        .collect()
}

/// Reference outputs from the netlist evaluator — a direct walk of the
/// parsed graph that shares nothing with partitioning, placement,
/// scheduling or the simulated chip.
pub fn references(netlist: &Netlist, datasets: &[Dataset]) -> Vec<Vec<i64>> {
    datasets.iter().map(|env| netlist.evaluate(env)).collect()
}

/// Words each `lane_sweep` lane streams.
pub const LANE_WORDS: u64 = 256;

/// Input word `i` of lane `k`: a seeded base per lane, then a ramp.
pub fn lane_input(seed: u64, k: u64, i: u64) -> u64 {
    mix(seed, k).wrapping_add(i)
}

/// The two per-lane immediates of the lane kernel.
pub fn lane_imms(k: u64) -> (u64, u64) {
    (3 + k % 5, k % 7)
}

/// Closed form of the eight-node lane kernel in wrapping `u64`
/// arithmetic: load → ×a → +7 → not → ×5 → +b → not → store.
pub fn lane_reference(seed: u64, k: u64, i: u64) -> u64 {
    let (a, b) = lane_imms(k);
    let v = lane_input(seed, k, i).wrapping_mul(a).wrapping_add(7);
    let v = (!v).wrapping_mul(5).wrapping_add(b);
    !v
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        assert_eq!(serving_pool(), serving_pool());
        assert_eq!(serving_pool().len(), 48);
        assert_eq!(large_netlist(7, 3, 9), large_netlist(7, 3, 9));
        assert_ne!(mix(1, 0), mix(1, 1));
    }

    #[test]
    fn large_netlists_never_repeat_and_still_parse() {
        // Two rounds of twenty slots: same structures, forty distinct texts.
        let texts: BTreeSet<String> = (0..40)
            .map(|serial| large_netlist(2012, serial % 20, serial))
            .collect();
        assert_eq!(texts.len(), 40);
        for t in texts.iter().take(5) {
            Netlist::parse(t).expect("renamed graph line stays canonical");
        }
        let body = |t: &str| t.split_once('\n').unwrap().1.to_string();
        assert_eq!(
            body(&large_netlist(2012, 3, 3)),
            body(&large_netlist(2012, 3, 23)),
            "a slot keeps its structure from round to round"
        );
    }

    #[test]
    fn references_follow_the_dataset_order() {
        let n =
            Netlist::parse("graph g\ninput x\nconst k 3\nnode y mul x k\noutput y y\n").unwrap();
        let mut rng = Prng::seed_from_u64(1);
        let ds = datasets(&n, &mut rng, 5);
        let refs = references(&n, &ds);
        for (env, out) in ds.iter().zip(&refs) {
            assert_eq!(out, &vec![env["x"] * 3]);
        }
    }
}
