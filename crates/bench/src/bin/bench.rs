//! `bench` — the BENCH-emitting runner.
//!
//! Executes the sched / faults / hotpath / fleet / cluster / ingest /
//! compile / soa / pipeline workload families and writes
//! `BENCH_sched.json`, `BENCH_faults.json`, `BENCH_hotpath.json`,
//! `BENCH_fleet.json`, `BENCH_cluster.json`, `BENCH_ingest.json`,
//! `BENCH_compile.json`, `BENCH_soa.json`, and `BENCH_pipeline.json`
//! (median ns/iter, ops/s, seed, git rev) so the perf trajectory is
//! machine-readable at the repo root.
//!
//! ```text
//! bench [--smoke] [--threads N] [--out DIR]   run workloads, write + validate JSONs
//! bench --check DIR [--baseline DIR]          validate BENCH_*.json in DIR and
//!       [--check-threshold FRAC]              warn on median regressions beyond
//!       [--check-fatal]                       FRAC (default 0.25) vs the baseline
//!                                             copies; with --check-fatal, any
//!                                             regression beyond FRAC exits 1
//! bench --digest FILE [--threads N]           write deterministic run checksums
//!                                             (no timings) — the thread-matrix
//!                                             CI gate compares these files
//! ```
//!
//! `--smoke` runs a single iteration of each workload — CI uses it to
//! prove the pipeline still runs and emits well-formed documents.
//! `--threads` sizes the worker pool the fleet and sharded-NoC workloads
//! run on; every workload is bit-identical at every thread count, which
//! `--digest` exists to prove.

use vlsi_bench::harness::{
    git_rev, measure, parse_medians, parse_seed, render_json, sample_from_times, validate_json,
    BenchSample,
};
use vlsi_bench::hotpath::{
    chaos_mix, chaos_mix_sized, cluster_4x, compile_corpus, faults_noc, faults_sched, fleet_mix,
    gather_release_churn, ingest_open_loop, noc_storm, sched_acceptance, sched_mix, soa_sweep,
    staged_pipeline, PIPELINE_DATASETS, SEED, SOA_SWEEP_LANES,
};

const FILES: [&str; 9] = [
    "BENCH_sched.json",
    "BENCH_faults.json",
    "BENCH_hotpath.json",
    "BENCH_fleet.json",
    "BENCH_cluster.json",
    "BENCH_ingest.json",
    "BENCH_compile.json",
    "BENCH_soa.json",
    "BENCH_pipeline.json",
];

/// Default for `--check-threshold`: median regressions beyond this
/// fraction draw a (non-fatal) warning.
const DEFAULT_CHECK_THRESHOLD: f64 = 0.25;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut threads = 1usize;
    let mut out_dir = String::from(".");
    let mut baseline_dir = String::from(".");
    let mut check_dir: Option<String> = None;
    let mut check_threshold = DEFAULT_CHECK_THRESHOLD;
    let mut digest_file: Option<String> = None;
    let mut check_fatal = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--check-fatal" => check_fatal = true,
            "--check-threshold" => {
                i += 1;
                check_threshold = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|t: &f64| t.is_finite() && *t >= 0.0)
                    .expect("--check-threshold needs a non-negative fraction, e.g. 0.25");
            }
            "--threads" => {
                i += 1;
                threads = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--threads needs a positive integer");
            }
            "--out" => {
                i += 1;
                out_dir = args.get(i).expect("--out needs a directory").clone();
            }
            "--baseline" => {
                i += 1;
                baseline_dir = args.get(i).expect("--baseline needs a directory").clone();
            }
            "--check" => {
                i += 1;
                check_dir = Some(args.get(i).expect("--check needs a directory").clone());
            }
            "--digest" => {
                i += 1;
                digest_file = Some(args.get(i).expect("--digest needs a file").clone());
            }
            other => {
                eprintln!("unknown argument {other}");
                eprintln!(
                    "usage: bench [--smoke] [--threads N] [--out DIR] \
                     | bench --check DIR [--baseline DIR] [--check-threshold FRAC] \
                     [--check-fatal] | bench --digest FILE [--threads N]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if let Some(file) = digest_file {
        digest(&file, threads);
        return;
    }
    if let Some(dir) = check_dir {
        check(&dir, &baseline_dir, check_threshold, check_fatal);
        return;
    }

    let iters = if smoke { 1 } else { 5 };
    let rev = git_rev();
    println!(
        "bench: seed {SEED}, rev {rev}, {iters} iteration(s), {threads} thread(s){}",
        if smoke { " [smoke]" } else { "" }
    );

    emit(&out_dir, "sched", SEED, &rev, sched_samples(iters));
    emit(&out_dir, "faults", SEED, &rev, faults_samples(iters));
    emit(&out_dir, "hotpath", SEED, &rev, hotpath_samples(iters));
    emit(&out_dir, "fleet", SEED, &rev, fleet_samples(iters, threads));
    emit(
        &out_dir,
        "cluster",
        SEED,
        &rev,
        cluster_samples(iters, threads),
    );
    emit(
        &out_dir,
        "ingest",
        SEED,
        &rev,
        ingest_samples(iters, threads),
    );
    emit(
        &out_dir,
        "compile",
        SEED,
        &rev,
        compile_samples(iters, threads),
    );
    emit(&out_dir, "soa", SEED, &rev, soa_samples(iters, threads));
    emit(
        &out_dir,
        "pipeline",
        SEED,
        &rev,
        pipeline_samples(iters, threads),
    );
}

fn sched_samples(iters: u64) -> Vec<BenchSample> {
    let mut samples = Vec::new();
    for name in ["fifo", "priority", "backfill"] {
        let (mut s, makespan) =
            measure(&format!("mix48_{name}"), iters, || sched_mix(name).makespan);
        s.extra.push(("makespan", makespan));
        samples.push(s);
    }
    for name in ["fifo", "priority", "backfill"] {
        let mut fnv = 0u64;
        let (mut s, makespan) = measure(&format!("accept55_{name}"), iters, || {
            let (summary, checksum) = sched_acceptance(name);
            fnv = checksum;
            summary.makespan
        });
        s.extra.push(("makespan", makespan));
        s.extra.push(("event_log_fnv", fnv));
        samples.push(s);
    }
    samples
}

fn faults_samples(iters: u64) -> Vec<BenchSample> {
    let mut samples = Vec::new();
    for (tag, rate) in [("0pct", 0.0), ("1pct", 0.01), ("5pct", 0.05)] {
        let mut retrans = 0u64;
        let (mut s, delivered) = measure(&format!("noc_fault_{tag}"), iters, || {
            let (delivered, r) = faults_noc(rate);
            retrans = r;
            delivered as u64
        });
        s.extra.push(("delivered", delivered));
        s.extra.push(("retransmissions", retrans));
        samples.push(s);
    }
    for (tag, rate) in [("0pct", 0.0), ("5pct", 0.05)] {
        let (mut s, makespan) = measure(&format!("sched_fault_{tag}"), iters, || {
            faults_sched(rate).makespan
        });
        s.extra.push(("makespan", makespan));
        samples.push(s);
    }
    samples
}

fn hotpath_samples(iters: u64) -> Vec<BenchSample> {
    let mut samples = Vec::new();
    let (mut s, checksum) = measure("gather_release_churn_32x32", iters, || {
        gather_release_churn(120)
    });
    s.extra.push(("probe_checksum", checksum));
    samples.push(s);
    let mut fnv = 0u64;
    let (mut s, makespan) = measure("chaos_mix_64x64", iters, || {
        let (summary, checksum) = chaos_mix();
        fnv = checksum;
        summary.makespan
    });
    s.extra.push(("makespan", makespan));
    s.extra.push(("event_log_fnv", fnv));
    samples.push(s);
    samples
}

fn fleet_samples(iters: u64, threads: usize) -> Vec<BenchSample> {
    let mut samples = Vec::new();
    let mut checksums = (0u64, 0u64);
    let (mut s, completed) = measure("fleet_64x64x4", iters, || {
        let (completed, events_fnv, telemetry_fnv) = fleet_mix(threads, 4);
        checksums = (events_fnv, telemetry_fnv);
        completed
    });
    s.extra.push(("threads", threads as u64));
    s.extra.push(("completed", completed));
    s.extra.push(("events_fnv", checksums.0));
    s.extra.push(("telemetry_fnv", checksums.1));
    samples.push(s);
    let (mut s, digest) = measure("noc_storm_32x32_sharded", iters, || noc_storm(threads));
    s.extra.push(("threads", threads as u64));
    s.extra.push(("digest_fnv", digest));
    samples.push(s);
    samples
}

fn cluster_samples(iters: u64, threads: usize) -> Vec<BenchSample> {
    let mut samples = Vec::new();
    let mut extras = (0u64, 0u64);
    let (mut s, completed) = measure("cluster_4x_32x32", iters, || {
        let (completed, messages, digest_fnv) = cluster_4x(threads);
        extras = (messages, digest_fnv);
        completed
    });
    s.extra.push(("threads", threads as u64));
    s.extra.push(("completed", completed));
    s.extra.push(("fabric_messages", extras.0));
    s.extra.push(("digest_fnv", extras.1));
    samples.push(s);
    samples
}

fn ingest_samples(iters: u64, threads: usize) -> Vec<BenchSample> {
    let mut samples = Vec::new();
    let mut report = None;
    let (mut s, accepted) = measure("ingest_open_loop_4x", iters, || {
        let r = ingest_open_loop(threads);
        report = Some(r);
        r.accepted
    });
    let r = report.expect("at least one iteration ran");
    s.extra.push(("threads", threads as u64));
    s.extra.push(("arrivals", r.arrivals));
    s.extra.push(("accepted", accepted));
    s.extra.push(("dropped", r.dropped));
    s.extra.push(("completed", r.completed));
    s.extra.push(("sojourn_p50", r.sojourn_p50));
    s.extra.push(("sojourn_p99", r.sojourn_p99));
    s.extra.push(("digest_fnv", r.digest_fnv));
    samples.push(s);
    samples
}

fn compile_samples(iters: u64, threads: usize) -> Vec<BenchSample> {
    let mut samples = Vec::new();
    let mut extras = (0u64, 0u64);
    let (mut s, completed) = measure("compile_corpus_12", iters, || {
        let (graphs, completed, digest_fnv) = compile_corpus(threads);
        extras = (graphs, digest_fnv);
        completed
    });
    s.extra.push(("threads", threads as u64));
    s.extra.push(("graphs", extras.0));
    s.extra.push(("completed", completed));
    s.extra.push(("digest_fnv", extras.1));
    samples.push(s);
    samples
}

fn soa_samples(iters: u64, threads: usize) -> Vec<BenchSample> {
    let mut soa_times = Vec::with_capacity(iters as usize);
    let mut last = None;
    for _ in 0..iters {
        let r = soa_sweep(threads, SOA_SWEEP_LANES, 64);
        soa_times.push(r.soa_ns);
        last = Some(r);
    }
    let r = last.expect("at least one iteration ran");
    let mut samples = Vec::new();
    let mut s = sample_from_times("soa_sweep_1024ap_soa", soa_times);
    s.extra.push(("threads", threads as u64));
    s.extra.push(("lanes", r.lanes));
    s.extra.push(("digest_fnv", r.digest_soa));
    samples.push(s);
    let mut fnv = 0u64;
    let (mut s, makespan) = measure("chaos_mix_128x128", iters, || {
        let (summary, checksum) = chaos_mix_sized(128, 40);
        fnv = checksum;
        summary.makespan
    });
    s.extra.push(("makespan", makespan));
    s.extra.push(("event_log_fnv", fnv));
    samples.push(s);
    samples
}

fn pipeline_samples(iters: u64, threads: usize) -> Vec<BenchSample> {
    let mut seq_times = Vec::with_capacity(iters as usize);
    let mut pipe_times = Vec::with_capacity(iters as usize);
    let mut last = None;
    for _ in 0..iters {
        let r = staged_pipeline(threads, PIPELINE_DATASETS);
        assert_eq!(
            r.digest_seq, r.digest_pipe,
            "pipelined outputs must match the sequential walk bit for bit"
        );
        seq_times.push(r.seq_ns);
        pipe_times.push(r.pipe_ns);
        last = Some(r);
    }
    let r = last.expect("at least one iteration ran");
    let total_datasets = r.graphs * r.datasets;
    // datasets/s from the median execution-only time of each path — the
    // headline throughput numbers Ablation IX quotes.
    let median = |mut v: Vec<u64>| -> u64 {
        v.sort_unstable();
        v[v.len() / 2]
    };
    let seq_rate = total_datasets * 1_000_000_000 / median(seq_times.clone()).max(1);
    let pipe_rate = total_datasets * 1_000_000_000 / median(pipe_times.clone()).max(1);
    let mut samples = Vec::new();
    let mut s = sample_from_times("staged_pipeline_seq", seq_times);
    s.extra.push(("graphs", r.graphs));
    s.extra.push(("datasets", total_datasets));
    s.extra.push(("datasets_per_s", seq_rate));
    s.extra.push(("digest_fnv", r.digest_seq));
    samples.push(s);
    let mut s = sample_from_times("staged_pipeline_pipe", pipe_times);
    s.extra.push(("threads", threads as u64));
    s.extra.push(("graphs", r.graphs));
    s.extra.push(("datasets", total_datasets));
    s.extra.push(("datasets_per_s", pipe_rate));
    s.extra
        .push(("utilization_milli_sum", r.utilization_milli_sum));
    s.extra.push(("digest_fnv", r.digest_pipe));
    samples.push(s);
    samples
}

fn emit(dir: &str, bench: &str, seed: u64, rev: &str, samples: Vec<BenchSample>) {
    for s in &samples {
        println!(
            "  {:<28} median {:>12} ns/iter  {:>10.3} ops/s",
            s.name, s.median_ns, s.ops_per_s
        );
    }
    let doc = render_json(bench, seed, rev, &samples);
    validate_json(&doc).unwrap_or_else(|e| panic!("BENCH_{bench}.json failed validation: {e}"));
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("creating {dir}: {e}"));
    let path = format!("{dir}/BENCH_{bench}.json");
    std::fs::write(&path, &doc).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("  wrote {path}");
}

/// Writes the deterministic run checksums — no timings, no thread count,
/// no git rev — so two `--digest` runs at different `--threads` values
/// must produce byte-identical files. The CI thread-matrix gate `cmp`s
/// them.
fn digest(file: &str, threads: usize) {
    let (completed, events_fnv, telemetry_fnv) = fleet_mix(threads, 4);
    let storm = noc_storm(threads);
    let (_, accept_fnv) = sched_acceptance("fifo");
    let (_, chaos_fnv) = chaos_mix();
    let (cluster_completed, cluster_msgs, cluster_fnv) = cluster_4x(threads);
    let ingest = ingest_open_loop(threads);
    let (compile_graphs, compile_completed, compile_fnv) = compile_corpus(threads);
    let sweep = soa_sweep(threads, SOA_SWEEP_LANES, 64);
    let (_, chaos128_fnv) = chaos_mix_sized(128, 40);
    let pipe = staged_pipeline(threads, PIPELINE_DATASETS);
    let text = format!(
        "seed {SEED}\n\
         fleet_64x64x4 completed {completed}\n\
         fleet_64x64x4 events_fnv {events_fnv:#018x}\n\
         fleet_64x64x4 telemetry_fnv {telemetry_fnv:#018x}\n\
         noc_storm_32x32_sharded digest_fnv {storm:#018x}\n\
         accept55_fifo event_log_fnv {accept_fnv:#018x}\n\
         chaos_mix_64x64 event_log_fnv {chaos_fnv:#018x}\n\
         cluster_4x_32x32 completed {cluster_completed}\n\
         cluster_4x_32x32 fabric_messages {cluster_msgs}\n\
         cluster_4x_32x32 digest_fnv {cluster_fnv:#018x}\n\
         ingest_open_loop_4x arrivals {arrivals}\n\
         ingest_open_loop_4x accepted {accepted}\n\
         ingest_open_loop_4x completed {ingest_completed}\n\
         ingest_open_loop_4x digest_fnv {ingest_fnv:#018x}\n\
         compile_corpus_12 graphs {compile_graphs}\n\
         compile_corpus_12 completed {compile_completed}\n\
         compile_corpus_12 digest_fnv {compile_fnv:#018x}\n\
         soa_sweep_1024ap lanes {lanes}\n\
         soa_sweep_1024ap digest_soa {digest_soa:#018x}\n\
         chaos_mix_128x128 event_log_fnv {chaos128_fnv:#018x}\n\
         staged_pipeline datasets {pipe_datasets}\n\
         staged_pipeline digest_seq {digest_seq:#018x}\n\
         staged_pipeline digest_pipe {digest_pipe:#018x}\n",
        arrivals = ingest.arrivals,
        accepted = ingest.accepted,
        ingest_completed = ingest.completed,
        ingest_fnv = ingest.digest_fnv,
        lanes = sweep.lanes,
        digest_soa = sweep.digest_soa,
        pipe_datasets = pipe.graphs * pipe.datasets,
        digest_seq = pipe.digest_seq,
        digest_pipe = pipe.digest_pipe,
    );
    print!("{text}");
    std::fs::write(file, &text).unwrap_or_else(|e| panic!("writing {file}: {e}"));
    println!("wrote {file} ({threads} thread(s))");
}

fn check(dir: &str, baseline_dir: &str, threshold: f64, fatal: bool) {
    let mut failed = false;
    for file in FILES {
        let path = format!("{dir}/{file}");
        match std::fs::read_to_string(&path) {
            Ok(text) => match validate_json(&text) {
                Ok(()) => {
                    println!("ok: {path}");
                    let regressions =
                        diff_against_baseline(&text, &format!("{baseline_dir}/{file}"), threshold);
                    if fatal && regressions > 0 {
                        eprintln!(
                            "FAIL {path}: {regressions} median(s) regressed beyond \
                             {:.0}% (--check-fatal)",
                            threshold * 100.0
                        );
                        failed = true;
                    }
                }
                Err(e) => {
                    eprintln!("INVALID {path}: {e}");
                    failed = true;
                }
            },
            Err(e) => {
                eprintln!("MISSING {path}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Compares a freshly written BENCH document against the committed copy
/// at `baseline_path` and warns on medians more than `threshold` slower
/// (`--check-threshold`, default 25%). Returns the number of medians
/// that regressed beyond the threshold; without `--check-fatal` the
/// warnings are non-fatal by design — medians on shared CI hardware are
/// noisy, so this surfaces a trajectory signal without flaking the
/// build. Skips silently (returning 0) when the baseline is missing or
/// was taken under a different seed (the numbers would not be
/// comparable). A missing baseline file — or a sample name absent from
/// the baseline — is a **new workload**, reported as such and never a
/// regression: the first committed run establishes the baseline. A
/// baseline sample absent from the fresh run is reported as `retired`.
fn diff_against_baseline(fresh: &str, baseline_path: &str, threshold: f64) -> usize {
    let Ok(baseline) = std::fs::read_to_string(baseline_path) else {
        println!(
            "  new workload: no committed baseline at {baseline_path} yet \
             — this run's numbers establish it"
        );
        return 0;
    };
    if parse_seed(&baseline) != parse_seed(fresh) {
        return 0;
    }
    let mut old: std::collections::BTreeMap<String, u64> =
        parse_medians(&baseline).into_iter().collect();
    let mut regressions = 0;
    for (name, new_ns) in parse_medians(fresh) {
        let Some(old_ns) = old.remove(&name) else {
            println!("  new workload {name}: no baseline median, tracked from this run");
            continue;
        };
        if old_ns == 0 {
            continue;
        }
        let ratio = new_ns as f64 / old_ns as f64;
        if ratio > 1.0 + threshold {
            println!(
                "  WARN {name}: median {new_ns} ns/iter is {:.0}% slower than \
                 the committed {old_ns} ns/iter ({baseline_path})",
                (ratio - 1.0) * 100.0
            );
            regressions += 1;
        }
    }
    // What is left in the baseline is a sample the fresh run no longer
    // emits: say so, or a dropped workload vanishes without a trace.
    for name in old.keys() {
        println!("  retired: {name}");
    }
    regressions
}
