//! Overload chaos harness for the ingestion front-end.
//!
//! The CI matrix is seeds × arrival profiles (sustained / burst /
//! overload) × a chip-down storm, and the contract under overload is
//! the robustness contract everywhere else in this repo, plus exact
//! accounting:
//!
//! 1. **never panic or hang** — every run drains inside a bounded tick
//!    budget (the `run_trace` Hung guard is itself exercised);
//! 2. **never silently lose a job** — the conservation ledger balances
//!    exactly after every tick: every arrival is accepted, shed,
//!    rejected, given up, or still in flight, and every accepted job
//!    completes, fails typed, or is lost typed;
//! 3. **bit-identical per seed** — the same seed and profile replay the
//!    exact same ledger, event logs, and telemetry at 1, 2, and 8
//!    threads.

use vlsi_processor::core::VlsiChip;
use vlsi_processor::fabric::{Cluster as ChipCluster, ClusterConfig, ClusterTopology};
use vlsi_processor::faults::{Fault, FaultKind, FaultPlan};
use vlsi_processor::ingest::{
    accounting, run_trace, spec_for_arrival, AccountingReport, AdmissionConfig, ClientConfig,
    IngestClient, IngestConfig, IngestError, IngestService,
};
use vlsi_processor::par::Pool;
use vlsi_processor::runtime::{Fifo, Runtime, RuntimeConfig};
use vlsi_processor::telemetry::TelemetryHandle;
use vlsi_processor::topology::Cluster;
use vlsi_processor::workloads::{arrival_trace, ArrivalEvent, ArrivalProfile};

#[path = "support/terminal.rs"]
mod terminal;

const SEEDS: [u64; 3] = [11, 4242, 987_654_321];

fn profiles() -> [ArrivalProfile; 3] {
    [
        ArrivalProfile::Sustained { rate_milli: 900 },
        ArrivalProfile::Burst {
            base_milli: 300,
            burst_milli: 9000,
            period: 40,
            burst_len: 8,
        },
        ArrivalProfile::Overload { rate_milli: 8000 },
    ]
}

/// A 4-chip ring of small dies behind the ingest front door, with a
/// chip-down storm: chip 3 dies early, chip 1 dies mid-trace.
fn service_under_storm(threads: usize) -> (IngestService<ChipCluster>, TelemetryHandle) {
    let mut cluster = ChipCluster::with_telemetry(
        ClusterTopology::ring(4),
        (8, 8),
        Pool::new(threads),
        ClusterConfig::standard(),
        TelemetryHandle::active(),
    );
    for _ in 0..4 {
        let chip = VlsiChip::with_telemetry(8, 8, Cluster::default(), TelemetryHandle::active());
        cluster.push_chip(Runtime::new(chip, Box::new(Fifo), RuntimeConfig::default()));
    }
    let mut plan = FaultPlan::none();
    plan.push(Fault::permanent(FaultKind::ChipDown { chip: 3 }, 25));
    plan.push(Fault::permanent(FaultKind::ChipDown { chip: 1 }, 70));
    cluster.attach_fault_plan(plan);

    let telemetry = TelemetryHandle::active();
    let service = IngestService::with_telemetry(
        cluster,
        IngestConfig {
            // Below the overload tier's per-tick arrival rate, so the
            // ring genuinely backpressures and retry chains can exhaust.
            ring_capacity: 6,
            admission: AdmissionConfig {
                tenant_rate_milli: 1500,
                tenant_burst: 4,
                high_water: 48,
                low_water: 16,
                max_degraded_level: 4,
            },
        },
        telemetry.clone(),
    );
    (service, telemetry)
}

fn client_for(
    service: &IngestService<ChipCluster>,
    seed: u64,
    telemetry: &TelemetryHandle,
) -> IngestClient {
    IngestClient::with_telemetry(
        service.ring(),
        seed,
        ClientConfig::default(),
        telemetry.clone(),
    )
}

/// `run_trace`'s loop, stepped here so the ledger is checked after every
/// tick: both conservation equations hold at any instant, not only once
/// the run has drained. Keeps `run_trace`'s 200 000-tick bound and
/// returns the ticks simulated.
fn run_checking_ledger(
    service: &mut IngestService<ChipCluster>,
    client: &mut IngestClient,
    trace: &[ArrivalEvent],
    label: &str,
) -> u64 {
    let (mut next, mut ticks) = (0usize, 0u64);
    while next < trace.len() || client.has_pending() || !service.is_idle() {
        assert!(ticks < 200_000, "{label}: the run must drain");
        let t = service.now() + 1;
        client.tick(t);
        while next < trace.len() && trace[next].at <= t {
            client.submit(t, trace[next].tenant, spec_for_arrival(&trace[next]));
            next += 1;
        }
        service.tick().expect("service tick");
        ticks += 1;
        let ledger = accounting(service, client);
        assert!(
            ledger.is_balanced(),
            "{label} tick {ticks}: unbalanced ledger {ledger:?}"
        );
    }
    ticks
}

/// One full chaos run; returns the ledger plus a replay digest over the
/// ledger, merged events, and both telemetry exports.
fn chaos_run(seed: u64, profile: ArrivalProfile, threads: usize) -> (AccountingReport, String) {
    let (mut service, telemetry) = {
        let (s, t) = service_under_storm(threads);
        (s, t)
    };
    let mut client = client_for(&service, seed, &telemetry);
    let trace = arrival_trace(seed, profile, 150, 5);
    let arrivals = trace.len() as u64;
    let label = format!("seed {seed} {}", profile.label());
    let ticks = run_checking_ledger(&mut service, &mut client, &trace, &label);
    assert!(ticks >= 150, "the trace horizon was simulated");

    let ledger = accounting(&service, &client);
    assert_eq!(ledger.arrivals, arrivals, "every trace event was delivered");
    assert_eq!(ledger.in_ring, 0, "drained runs end with an empty ring");
    assert_eq!(ledger.in_retry, 0, "no retry may be stranded");
    assert_eq!(ledger.sink_outstanding, 0, "the sink drained");
    for (c, chip) in service.sink().chips().enumerate() {
        terminal::assert_one_terminal_event(chip, &format!("{label} chip {c}"));
    }

    let mut digest = format!("{ledger:?}\n");
    for (c, e) in service.sink().merged_events() {
        digest.push_str(&format!("{c} {e:?}\n"));
    }
    digest.push_str(&telemetry.snapshot().to_json());
    digest.push('\n');
    digest.push_str(&service.sink().merged_telemetry().snapshot().to_json());
    (ledger, digest)
}

#[test]
fn chaos_matrix_balances_exactly_and_replays() {
    for seed in SEEDS {
        for profile in profiles() {
            let (ledger, digest) = chaos_run(seed, profile, 1);
            // Replay: bit-identical digest for the same seed.
            let (ledger2, digest2) = chaos_run(seed, profile, 1);
            assert_eq!(ledger, ledger2, "seed {seed} {} ledger", profile.label());
            assert_eq!(digest, digest2, "seed {seed} {} digest", profile.label());
        }
    }
}

#[test]
fn chaos_overload_actually_overloads() {
    // The overload tier must exercise every protection path at least
    // once across the seed set: typed shedding, rate-limit rejections,
    // and client give-ups — otherwise the matrix is vacuous.
    let mut shed = 0u64;
    let mut rejected = 0u64;
    let mut gave_up = 0u64;
    for seed in SEEDS {
        let (ledger, _) = chaos_run(seed, ArrivalProfile::Overload { rate_milli: 8000 }, 1);
        shed += ledger.stats.shed_deadline + ledger.stats.shed_degraded;
        rejected += ledger.stats.rejected_rate + ledger.stats.rejected_sink;
        gave_up += ledger.gave_up;
        assert!(ledger.stats.accepted > 0, "some work is still admitted");
        assert!(ledger.completed > 0, "admitted work completes");
    }
    assert!(shed > 0, "overload must shed");
    assert!(rejected > 0, "overload must rate-limit");
    assert!(gave_up > 0, "backpressure must exhaust some retries");
}

#[test]
fn chaos_runs_are_bit_identical_across_thread_counts() {
    for seed in SEEDS {
        for profile in profiles() {
            let serial = chaos_run(seed, profile, 1);
            for threads in [2, 8] {
                let parallel = chaos_run(seed, profile, threads);
                assert_eq!(
                    serial,
                    parallel,
                    "seed {seed} {} at {threads} threads",
                    profile.label()
                );
            }
        }
    }
}

#[test]
fn zero_burst_tenant_admits_nothing_and_ledger_balances() {
    // Regression: TokenBucket::new used to clamp burst=0 up to a
    // one-job capacity and start full, so a tenant configured to admit
    // nothing still got jobs through. A zero-burst bucket must reject
    // every request with the typed rate-limit reason while the
    // conservation ledger stays exactly balanced.
    let mut cluster = ChipCluster::with_telemetry(
        ClusterTopology::ring(2),
        (8, 8),
        Pool::serial(),
        ClusterConfig::standard(),
        TelemetryHandle::active(),
    );
    for _ in 0..2 {
        let chip = VlsiChip::new(8, 8, Cluster::default());
        cluster.push_chip(Runtime::new(chip, Box::new(Fifo), RuntimeConfig::default()));
    }
    let mut service = IngestService::new(
        cluster,
        IngestConfig {
            ring_capacity: 6,
            admission: AdmissionConfig {
                tenant_rate_milli: 1500,
                tenant_burst: 0,
                high_water: 48,
                low_water: 16,
                max_degraded_level: 4,
            },
        },
    );
    let mut client = client_for(&service, 21, &TelemetryHandle::disabled());
    let trace = arrival_trace(21, ArrivalProfile::Sustained { rate_milli: 900 }, 120, 4);
    run_checking_ledger(&mut service, &mut client, &trace, "zero burst");
    let ledger = accounting(&service, &client);
    assert_eq!(ledger.stats.accepted, 0, "zero burst admits nothing");
    assert_eq!(ledger.completed, 0, "nothing admitted, nothing runs");
    assert!(
        ledger.stats.rejected_rate > 0,
        "every drained request rejects typed: {ledger:?}"
    );
}

#[test]
fn hung_guard_fires_typed_instead_of_hanging() {
    // A tick budget far smaller than the trace horizon must surface the
    // bounded-progress guard as a typed error, never a hang.
    let (mut service, telemetry) = service_under_storm(1);
    let mut client = client_for(&service, 7, &telemetry);
    let trace = arrival_trace(7, ArrivalProfile::Sustained { rate_milli: 900 }, 150, 5);
    let err = run_trace(&mut service, &mut client, &trace, 10).expect_err("budget too small");
    match err {
        IngestError::Hung { ticks, outstanding } => {
            assert_eq!(ticks, 10);
            assert!(outstanding > 0, "the guard reports what was left");
        }
        other => panic!("expected Hung, got {other:?}"),
    }
}

#[test]
fn all_chips_down_rejects_typed_rather_than_panicking() {
    // Kill every chip: accepted admission turns into typed sink
    // rejections (the cluster's submit has nowhere to place), and
    // the ledger still balances.
    let mut cluster = ChipCluster::with_telemetry(
        ClusterTopology::ring(2),
        (8, 8),
        Pool::serial(),
        ClusterConfig::standard(),
        TelemetryHandle::active(),
    );
    for _ in 0..2 {
        let chip = VlsiChip::new(8, 8, Cluster::default());
        cluster.push_chip(Runtime::new(chip, Box::new(Fifo), RuntimeConfig::default()));
    }
    let mut plan = FaultPlan::none();
    plan.push(Fault::permanent(FaultKind::ChipDown { chip: 0 }, 2));
    plan.push(Fault::permanent(FaultKind::ChipDown { chip: 1 }, 2));
    cluster.attach_fault_plan(plan);

    let mut service = IngestService::new(cluster, IngestConfig::default());
    let mut client = client_for(&service, 3, &TelemetryHandle::disabled());
    let trace = arrival_trace(3, ArrivalProfile::Sustained { rate_milli: 700 }, 60, 3);
    run_checking_ledger(&mut service, &mut client, &trace, "all chips down");
    let ledger = accounting(&service, &client);
    assert!(
        ledger.stats.rejected_sink > 0,
        "dead cluster rejects typed: {ledger:?}"
    );
}
