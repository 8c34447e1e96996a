//! Golden artifacts: the compiler's output for the standard corpus and
//! for one netlist of each `compile_large` kind, pinned byte for byte.
//!
//! Two FNV-1a digests per graph: the `emit_all()` artifact trail (every
//! pass's dump) and the `Debug` rendering of the scheduled program —
//! `emit_all` prints only a stream's *length*, the program digest pins
//! its elements, in order, with every object and binding. Recorded at
//! commit 5603494, before the passes were rewritten over slot tables; a
//! pass that reorders one stream element or renumbers one object fails
//! here. Each compiled program is also executed on its placed regions
//! against [`Netlist::evaluate`].

use std::collections::HashMap;
use vlsi_compile::{compile, CompileOptions, Netlist};
use vlsi_core::{StagedExecutor, VlsiChip};
use vlsi_prng::Prng;
use vlsi_topology::Cluster;
use vlsi_workloads::netgen::{self, GraphKind};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(graph, emit_all digest, program digest)`.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("chain8", 0x2a441df802cb4f9f, 0xb3911a49f87dd950),
    ("chain24", 0xa0b2ac08ab06b8fa, 0xd2c7c488f79ed1fe),
    ("chain64", 0x60a6df8a75e3a6c2, 0xc9ec07fe717fd93e),
    ("tree3", 0x97778abc98dd7866, 0x3a17eacd556f344f),
    ("tree4", 0x22969da6de598d79, 0xa07fd488fa745e9c),
    ("tree5", 0x773d7dbfe2755a71, 0xaa06660b853ca761),
    ("butterfly2", 0x76793a9c967bf03b, 0xde1d1a81a3c6cf5d),
    ("butterfly3", 0xb9b0f2d3476580d3, 0x0d8ef98e5a3a8166),
    ("butterfly4", 0xf170c740c89be549, 0x6ca3a268ccd4adb9),
    ("random12", 0xfb44ff8b42802251, 0xbc34f8dc393055bf),
    ("random24", 0xbbd0d1e112f0abbf, 0xa066cfd899a8e3db),
    ("random48", 0xc99518f96972adec, 0xcb834bbb9f5ad4c0),
    ("chain256", 0x04d3120845589fb2, 0x5b2e450df2605e65),
    ("tree8", 0xc788100576241a66, 0x3b946f28b39c4c22),
    ("butterfly6", 0xb7f403f3b9ae3e54, 0xa02e41696f1ccf0a),
    ("random512", 0xaa85460057c3cda1, 0x29f508016514a676),
    ("random768", 0x15315d09b5a5f014, 0x29d5536dcc5accce),
];

/// The corpus at seed 2012, then the five `compile_large` kinds.
fn graphs() -> Vec<(String, String)> {
    let large = [
        GraphKind::Chain { len: 256 },
        GraphKind::Tree { depth: 8 },
        GraphKind::Butterfly { lanes_log2: 6 },
        GraphKind::Random { nodes: 512 },
        GraphKind::Random { nodes: 768 },
    ];
    let mut all = netgen::corpus(2012);
    all.extend(large.iter().map(|k| (k.name(), netgen::generate(*k, 2012))));
    all
}

fn env_for(netlist: &Netlist, seed: u64) -> HashMap<String, i64> {
    let mut rng = Prng::seed_from_u64(seed);
    netlist
        .input_names()
        .into_iter()
        .map(|name| (name.to_string(), i64::from(rng.gen_range(-500..500i32))))
        .collect()
}

#[test]
fn artifacts_match_the_recorded_digests_and_execute() {
    let opts = CompileOptions::default();
    let mut got = Vec::new();
    for (name, text) in graphs() {
        let c = compile(&text, &opts).unwrap_or_else(|e| panic!("{name}: {e}"));
        got.push((
            name.clone(),
            fnv1a(c.emit_all().as_bytes()),
            fnv1a(format!("{:?}", c.program).as_bytes()),
        ));
        let mut chip = VlsiChip::new(opts.chip_width, opts.chip_height, Cluster::default());
        let exec =
            StagedExecutor::deploy_placed(&mut chip, c.program.clone(), &c.placement.regions)
                .unwrap_or_else(|e| panic!("{name}: deploy: {e}"));
        let env = env_for(&c.netlist, 2012);
        let (outs, _) = exec
            .run(&mut chip, &env)
            .unwrap_or_else(|e| panic!("{name}: run: {e}"));
        assert_eq!(outs, c.netlist.evaluate(&env), "{name}");
        exec.release(&mut chip).expect("stages are inactive");
    }
    let table: String = got
        .iter()
        .map(|(n, e, p)| format!("    (\"{n}\", {e:#018x}, {p:#018x}),\n"))
        .collect();
    let want: Vec<(String, u64, u64)> = GOLDEN
        .iter()
        .map(|&(n, e, p)| (n.to_string(), e, p))
        .collect();
    assert_eq!(
        got, want,
        "compiled artifacts moved; this build emits:\n{table}"
    );
}
