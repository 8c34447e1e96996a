//! What the two serving workloads share: the ingest service over a
//! span-recording sink, and the end-of-round accounting that joins what
//! the generator submitted with what the cluster's job records say
//! happened to it.

use vlsi_fabric::Cluster as ChipCluster;
use vlsi_ingest::{accounting, ClientConfig, IngestClient, IngestConfig, IngestService};
use vlsi_runtime::{JobOutput, JobState, RuntimeError};

use super::{finished_jobs, fold_snapshot, Round};
use crate::loadgen::fnv1a;
use crate::sink::TimedSink;
use crate::stats::percentile;
use crate::trace::{Tracer, NONE};

pub type Service = IngestService<TimedSink<ChipCluster>>;

pub fn service(
    cluster: ChipCluster,
    config: IngestConfig,
    seed: u64,
    tracer: &Tracer,
) -> (Service, IngestClient) {
    let telemetry = super::telemetry_for(tracer);
    let service = IngestService::with_telemetry(
        TimedSink::new(cluster, tracer.clone()),
        config,
        telemetry.clone(),
    );
    let client =
        IngestClient::with_telemetry(service.ring(), seed, ClientConfig::default(), telemetry);
    (service, client)
}

/// One request as the generator remembers it. Job `i` of a round is
/// named [`job_name`]`(i)`.
pub struct Submitted {
    /// Service tick of `client.submit`.
    pub at: u64,
    /// Digest of the reference outputs, for jobs that compute something.
    pub expected: Option<u64>,
}

pub fn job_name(index: usize) -> String {
    format!("j{index}")
}

/// Digest of a staged job's per-dataset output vectors.
pub fn outputs_digest(outputs: &[Vec<i64>]) -> u64 {
    let bytes: Vec<u8> = outputs
        .iter()
        .flat_map(|o| o.iter().flat_map(|v| v.to_le_bytes()).chain([0xff]))
        .collect();
    fnv1a(&bytes)
}

/// Per-job figures of a drained service, all in service ticks, sorted.
pub struct Served {
    /// Jobs that completed with outputs equal to their reference.
    pub verified: u64,
    /// Jobs that ran and produced something else — the only outcome that
    /// is the simulator's fault rather than admission's choice.
    pub wrong: u64,
    /// `client.submit` → `JobRecord.stats.finished_at`, verified jobs.
    pub sojourn: Vec<u64>,
    /// `client.submit` → clusters gathered, every admitted job.
    pub admission_wait: Vec<u64>,
}

/// Joins `submitted` with the cluster's job records by name, checks every
/// output against its reference digest, and folds the conservation
/// ledger plus the fabric and runtime counts into `round`. Returns the
/// per-job latencies. Panics if the ledger does not balance: a silently
/// dropped job is a broken benchmark, not a slow one.
pub fn fold_service(
    round: &mut Round,
    service: &Service,
    client: &IngestClient,
    submitted: &[Submitted],
    tracer: &Tracer,
) -> Served {
    let open = tracer.begin("loadgen.verify", NONE);
    let cluster = &service.sink().inner;
    let ledger = accounting(service, client);
    assert!(ledger.is_balanced(), "conservation ledger: {ledger:?}");
    assert_eq!(ledger.arrivals, submitted.len() as u64);

    let records = finished_jobs(cluster);
    let mut served = Served {
        verified: 0,
        wrong: 0,
        sojourn: Vec::with_capacity(submitted.len()),
        admission_wait: Vec::with_capacity(submitted.len()),
    };
    let (mut ring_wait, mut chip_wait, mut turnaround) = (Vec::new(), Vec::new(), Vec::new());
    let mut digest_bytes = Vec::with_capacity(submitted.len() * 8);
    for (i, job) in submitted.iter().enumerate() {
        let Some(rec) = records.get(job_name(i).as_str()) else {
            continue; // refused at the door, given up on, or lost: counted by the ledger
        };
        ring_wait.push(rec.stats.submitted_at.saturating_sub(job.at));
        if let Some(admitted) = rec.stats.admitted_at {
            served.admission_wait.push(admitted.saturating_sub(job.at));
            chip_wait.push(rec.stats.wait);
        }
        turnaround.push(rec.stats.turnaround);
        let out = match &rec.output {
            Some(JobOutput::Staged(o)) => Some(outputs_digest(o)),
            _ => None,
        };
        let ran_wrong = match (&rec.state, &rec.failure) {
            (JobState::Completed, _) => out != job.expected,
            (_, Some(RuntimeError::Workload { .. } | RuntimeError::Core(_))) => true,
            _ => false, // deadline missed, retries exhausted: typed refusals
        };
        served.wrong += u64::from(ran_wrong);
        if rec.state == JobState::Completed && !ran_wrong {
            served.verified += 1;
            served.sojourn.push(
                rec.stats
                    .finished_at
                    .unwrap_or(job.at)
                    .saturating_sub(job.at),
            );
            round.sim_cycles += rec.stats.config_cycles + rec.stats.exec_cycles;
            round.add("core.config_cycles", rec.stats.config_cycles);
            round.add("core.exec_cycles", rec.stats.exec_cycles);
            round.add("ap.cycles", rec.stats.exec_cycles);
            if let Some(JobOutput::Staged(o)) = &rec.output {
                round.datasets += o.len() as u64;
            }
        }
        digest_bytes.extend(out.unwrap_or(0).to_le_bytes());
        digest_bytes.extend(rec.stats.finished_at.unwrap_or(0).to_le_bytes());
    }
    for v in [
        &mut served.sojourn,
        &mut served.admission_wait,
        &mut ring_wait,
        &mut chip_wait,
        &mut turnaround,
    ] {
        v.sort_unstable();
    }
    round.digest ^= fnv1a(&digest_bytes);

    let s = ledger.stats;
    round.add("ingest.ticks", service.now());
    round.add("ingest.arrivals", ledger.arrivals);
    round.add("ingest.enqueued", client.stats().enqueued);
    round.add("ingest.retries", client.stats().retries);
    round.add("ingest.gave_up", ledger.gave_up);
    round.add("ingest.accepted", s.accepted);
    round.add("ingest.shed_deadline", s.shed_deadline);
    round.add("ingest.shed_degraded", s.shed_degraded);
    round.add("ingest.rejected_rate", s.rejected_rate);
    round.add("ingest.rejected_sink", s.rejected_sink);
    round.add("ingest.degraded_transitions", s.degraded_transitions);
    let fabric = cluster.network().stats();
    round.add("fabric.messages", fabric.messages);
    round.add("fabric.crossings", fabric.crossings);
    round.add("fabric.retransmits", fabric.retransmits);
    round.add("fabric.chip_failures", fabric.chip_failures);
    round.add("fabric.jobs_lost", ledger.lost);
    for chip in cluster.fleet().chips() {
        let st = chip.stats();
        round.add("runtime.submissions", st.submitted);
        round.add("runtime.completed", st.completed);
        round.add("runtime.failures", st.failed);
        round.add("runtime.migrated_out", st.migrated_out);
    }
    let worst = |name: &'static str, v: u64, round: &mut Round| {
        let slot = round.sim.entry(name).or_insert(0.0);
        *slot = slot.max(v as f64);
    };
    worst(
        "ingest.ring_wait_p99_ticks",
        percentile(&ring_wait, 990),
        round,
    );
    worst("runtime.wait_p50_ticks", percentile(&chip_wait, 500), round);
    worst("runtime.wait_p99_ticks", percentile(&chip_wait, 990), round);
    worst(
        "runtime.turnaround_p99_ticks",
        percentile(&turnaround, 990),
        round,
    );
    tracer.end(open);

    if tracer.is_enabled() {
        let open = tracer.begin("telemetry.snapshot", NONE);
        let snap = cluster.merged_telemetry().snapshot();
        fold_snapshot(round, &snap);
        tracer.end(open);
    }
    served
}

/// Sets the ratio metrics that only make sense once every service of the
/// round has been folded.
pub fn finish_serving(round: &mut Round) {
    let get = |r: &Round, k: &str| r.sim.get(k).copied().unwrap_or(0.0);
    let arrivals = get(round, "ingest.arrivals");
    if arrivals > 0.0 {
        let ratio = (get(round, "ingest.accepted") * 1000.0 / arrivals).floor();
        round.sim.insert("ingest.accept_ratio_milli", ratio);
    }
}
