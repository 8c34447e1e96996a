//! End-to-end tests for the vlsi-compile pipeline: every corpus graph
//! compiles through all six passes and *executes* — on a clean chip, on
//! a chip with an injected defect plan and through the runtime
//! scheduler. The corpus digest's thread invariance is pinned in
//! `tests/parallel_determinism.rs`.

use std::collections::HashMap;
use vlsi_compile::{compile, CompileError, CompileOptions, Netlist};
use vlsi_core::{StagedExecutor, VlsiChip};
use vlsi_prng::Prng;
use vlsi_runtime::{Fifo, JobSpec, Runtime, RuntimeConfig, RuntimeError, WorkloadDetail};
use vlsi_topology::{Cluster, Coord};
use vlsi_workloads::netgen;

/// Deterministic input environments for a parsed graph.
fn envs_for(netlist: &Netlist, seed: u64, n: usize) -> Vec<HashMap<String, i64>> {
    let mut rng = Prng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            netlist
                .input_names()
                .into_iter()
                .map(|name| (name.to_string(), i64::from(rng.gen_range(-1000..1000i32))))
                .collect()
        })
        .collect()
}

/// Every corpus graph's compiled placement executes on a clean 32×32
/// chip and matches the netlist evaluator's reference outputs.
#[test]
fn corpus_matches_reference_on_a_clean_chip() {
    let opts = CompileOptions::default();
    for (name, text) in netgen::corpus(2012) {
        let c = compile(&text, &opts).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut chip = VlsiChip::new(32, 32, Cluster::default());
        let exec = StagedExecutor::deploy(&mut chip, c.program.clone())
            .unwrap_or_else(|e| panic!("{name}: deploy: {e:?}"));
        for env in envs_for(&c.netlist, 7, 3) {
            let (got, _) = exec
                .run(&mut chip, &env)
                .unwrap_or_else(|e| panic!("{name}: run: {e:?}"));
            assert_eq!(got, c.netlist.evaluate(&env), "{name}");
        }
        exec.release(&mut chip).expect("release");
        assert_eq!(chip.free_clusters(), chip.total_clusters());
    }
}

/// Compiling against a defect plan places around the bad clusters, and
/// the *exact compiled regions* deploy and execute correctly on a chip
/// with those defects injected.
#[test]
fn corpus_matches_reference_with_injected_defects() {
    let defects = vec![
        Coord::new(0, 0),
        Coord::new(1, 0),
        Coord::new(3, 2),
        Coord::new(9, 9),
    ];
    let opts = CompileOptions {
        defects: defects.clone(),
        ..CompileOptions::default()
    };
    for (name, text) in netgen::corpus(2012) {
        let c = compile(&text, &opts).unwrap_or_else(|e| panic!("{name}: {e}"));
        for r in &c.placement.regions {
            for cell in r.cells() {
                assert!(
                    !defects.contains(&cell),
                    "{name}: placed on defect {cell:?}"
                );
            }
        }
        let mut chip = VlsiChip::new(32, 32, Cluster::default());
        for &d in &defects {
            chip.mark_defective(d);
        }
        let exec =
            StagedExecutor::deploy_placed(&mut chip, c.program.clone(), &c.placement.regions)
                .unwrap_or_else(|e| panic!("{name}: deploy_placed: {e:?}"));
        for env in envs_for(&c.netlist, 11, 2) {
            let (got, _) = exec
                .run(&mut chip, &env)
                .unwrap_or_else(|e| panic!("{name}: run: {e:?}"));
            assert_eq!(got, c.netlist.evaluate(&env), "{name}");
        }
        exec.release(&mut chip).expect("release");
    }
}

/// Compiled programs ride the runtime as first-class staged jobs: the
/// scheduler admits them, the executor checks every dataset against the
/// attached reference outputs, and all corpus jobs complete.
#[test]
fn corpus_completes_as_runtime_jobs() {
    let opts = CompileOptions::default();
    let chip = VlsiChip::new(32, 32, Cluster::default());
    let mut rt = Runtime::new(chip, Box::new(Fifo), RuntimeConfig::default());
    let corpus = netgen::corpus(2012);
    let n_jobs = corpus.len() as u64;
    for (name, text) in corpus {
        let c = compile(&text, &opts).unwrap_or_else(|e| panic!("{name}: {e}"));
        let datasets = envs_for(&c.netlist, 13, 2);
        let expected = datasets.iter().map(|env| c.netlist.evaluate(env)).collect();
        rt.submit(JobSpec::for_staged(
            name,
            c.program,
            datasets,
            Some(expected),
        ));
    }
    let summary = rt.run_until_idle(100_000).expect("runtime must drain");
    assert_eq!(summary.completed, n_jobs);
    assert_eq!(summary.failed, 0);
}

/// A job whose attached reference outputs disagree with the compiled
/// program is failed by the runtime, not silently completed.
#[test]
fn runtime_rejects_wrong_reference_outputs() {
    let text = "graph g\ninput x\nconst k 2\nnode a mul x k\noutput o a\n";
    let c = compile(text, &CompileOptions::default()).unwrap();
    let chip = VlsiChip::new(8, 8, Cluster::default());
    let mut rt = Runtime::new(chip, Box::new(Fifo), RuntimeConfig::default());
    let env: HashMap<String, i64> = HashMap::from([("x".to_string(), 3)]);
    let job = rt.submit(JobSpec::for_staged(
        "wrong",
        c.program,
        vec![env],
        Some(vec![vec![999]]), // reference says 999; the chip computes 6
    ));
    let summary = rt.run_until_idle(100_000).expect("runtime must drain");
    assert_eq!(summary.completed, 0);
    assert_eq!(summary.failed, 1);
    // The verdict carries its numbers typed, not formatted into a string.
    assert_eq!(
        rt.job(job).unwrap().failure,
        Some(RuntimeError::Workload {
            job,
            detail: WorkloadDetail::StagedMismatch {
                dataset: 0,
                got: vec![6],
                expected: vec![999],
            },
        })
    );
}

/// A defect plan dense enough to exclude every placement yields the
/// typed `Unplaceable` error rather than a panic or a bad layout.
#[test]
fn impossible_defect_plans_fail_typed() {
    let text = "graph g\ninput x\ninput y\nnode a add x y\noutput o a\n";
    // A 2×2 die with every cluster defective.
    let opts = CompileOptions {
        chip_width: 2,
        chip_height: 2,
        defects: vec![
            Coord::new(0, 0),
            Coord::new(1, 0),
            Coord::new(0, 1),
            Coord::new(1, 1),
        ],
        ..CompileOptions::default()
    };
    match compile(text, &opts) {
        Err(CompileError::Unplaceable { .. }) => {}
        other => panic!("expected Unplaceable, got {other:?}"),
    }
}
