//! Ablation IV: simulator hot-path throughput.
//!
//! The paper's runtime-scaling claim (§3.3–3.4) only means something if
//! the *simulator's* admission probes and NoC tick are not the
//! bottleneck. This ablation times the two synthetic stress workloads —
//! gather/release churn with per-round admission probes on a 32×32 die,
//! and the 64×64 chaos mix — plus the acceptance suite's 55-job mix,
//! and pins their determinism: every workload must reproduce its
//! checksums exactly when replayed, so occupancy-index optimisations
//! cannot change behaviour, only speed.

use criterion::{criterion_group, criterion_main, Criterion};
use vlsi_bench::hotpath::{chaos_mix, gather_release_churn, sched_acceptance};

fn bench_ablation(c: &mut Criterion) {
    println!("\nAblation IV — simulator hot-path throughput:");

    let churn = gather_release_churn(120);
    assert_eq!(
        churn,
        gather_release_churn(120),
        "churn probes must replay bit-identically"
    );

    let (chaos_a, chaos_fnv_a) = chaos_mix();
    let (chaos_b, chaos_fnv_b) = chaos_mix();
    assert_eq!(chaos_fnv_a, chaos_fnv_b, "chaos event log must replay");
    assert_eq!(chaos_a.makespan, chaos_b.makespan);
    assert_eq!(chaos_a.completed + chaos_a.failed, 40, "no job in limbo");

    let (accept, accept_fnv) = sched_acceptance();
    let (accept2, accept_fnv2) = sched_acceptance();
    assert_eq!(accept_fnv, accept_fnv2, "55-job event log must replay");
    assert_eq!(accept.makespan, accept2.makespan);

    println!("  churn probe checksum   {churn:#018x}");
    println!(
        "  chaos 64x64            makespan {} fnv {chaos_fnv_a:#018x}",
        chaos_a.makespan
    );
    println!(
        "  accept55 fifo          makespan {} fnv {accept_fnv:#018x}",
        accept.makespan
    );

    let mut group = c.benchmark_group("ablation-IV");
    group.bench_function("gather-release-churn-32x32", |b| {
        b.iter(|| gather_release_churn(120));
    });
    group.bench_function("chaos-mix-64x64", |b| {
        b.iter(|| chaos_mix().0.makespan);
    });
    group.bench_function("accept55-fifo", |b| {
        b.iter(|| sched_acceptance().0.makespan);
    });
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
