//! `serve_overload` — the same ingest/fabric/runtime layers as
//! `serve_closed`, used the other way: refusing and recovering rather
//! than accepting. An open loop in simulated time (arrivals are submitted
//! on the tick they are due, so generator lateness is zero by
//! construction) steps offered load over a fixed grid of rates; each step
//! gets a fresh ring of four 8×8 dies behind a 16-slot submission ring
//! with rate-limited tenants, and die 3 dies a third of the way in.
//! Arrivals are idle holds (`spec_for_arrival`), every eighth replaced by
//! a pre-compiled staged job with four verified datasets. The compiler
//! and the APs do almost nothing here.
//!
//! One operation = one arrival. A refusal (shed, rate-limited, given up)
//! is an *outcome* here, counted in `goodput_milli`, not a failed
//! operation; an arrival fails only by producing wrong outputs — and an
//! unbalanced conservation ledger aborts the run.

use vlsi_compile::CompileOptions;
use vlsi_core::StagedProgram;
use vlsi_faults::{Fault, FaultKind, FaultPlan};
use vlsi_ingest::{spec_for_arrival, AdmissionConfig, IngestConfig};
use vlsi_prng::Prng;
use vlsi_runtime::Workload as JobWorkload;
use vlsi_workloads::{arrival_trace, netgen, ArrivalProfile};

use super::serving::{self, Submitted};
use super::{compile_text, ring_cluster, Round, Workload};
use crate::loadgen::{self, mix, Dataset};
use crate::metrics::OVERLOAD_STEPS;
use crate::stats::percentile;
use crate::trace::{Laps, Tracer, NONE};

const DIES: usize = 4;
const DIE_DIM: u16 = 8;
const TENANTS: u16 = 6;
const STAGED_EVERY: usize = 8;
/// Seeds' worth of the 12-graph corpus the staged jobs are drawn from.
const CORPORA: u64 = 2;
const STAGED_DATASETS: usize = 4;
/// Largest staged job offered, in clusters: a quarter of a die.
const STAGED_MAX_CLUSTERS: usize = 16;

/// The saturation rule: a step is sustained when admitted jobs waited at
/// most this many ticks at p99 ...
const WAIT_LIMIT_TICKS: u64 = 8;
/// ... at least this share of arrivals completed verified ...
const GOODPUT_LIMIT_MILLI: u64 = 990;
/// ... and the mean backlog of the last third of the horizon did not
/// exceed that of the middle third by more than this (a queue that only
/// fluctuates passes, one that grows does not).
const BACKLOG_SLACK: u64 = 4;
/// The step whose sojourn stands for the workload: the first one past
/// the knee.
const HEADLINE_RATE: u64 = 2000;

struct StagedJob {
    program: StagedProgram,
    data: Vec<Dataset>,
    refs: Vec<Vec<i64>>,
}

pub struct ServeOverload {
    seed: u64,
    horizon: u64,
    staged: Vec<StagedJob>,
}

struct Step {
    wait_p99: u64,
    goodput_milli: u64,
    backlog_mid: u64,
    backlog_end: u64,
    sojourn: Vec<u64>,
}

impl ServeOverload {
    fn step(&self, rate_milli: u64, round: &mut Round, tracer: &Tracer, laps: &mut Laps) -> Step {
        let open = tracer.begin("loadgen.build", NONE);
        let mut cluster = ring_cluster(DIES, DIE_DIM, tracer);
        let mut plan = FaultPlan::none();
        plan.push(Fault::permanent(
            FaultKind::ChipDown { chip: 3 },
            self.horizon / 3,
        ));
        cluster.attach_fault_plan(plan);
        let config = IngestConfig {
            ring_capacity: 16,
            admission: AdmissionConfig {
                tenant_rate_milli: 2000,
                tenant_burst: 4,
                high_water: 64,
                low_water: 24,
                max_degraded_level: 4,
            },
        };
        let seed = mix(self.seed, rate_milli);
        let (mut service, mut client) = serving::service(cluster, config, seed, tracer);
        tracer.end(open);
        let trace = tracer.span("loadgen.netgen", NONE, || {
            let profile = ArrivalProfile::Overload { rate_milli };
            arrival_trace(seed, profile, self.horizon, TENANTS)
        });

        let mut submitted: Vec<Submitted> = Vec::with_capacity(trace.len());
        let (mut backlog_mid, mut backlog_end) = (0u64, 0u64);
        let third = self.horizon / 3;
        while submitted.len() < trace.len() || client.has_pending() || !service.is_idle() {
            let t = service.now() + 1;
            tracer.span("ingest.client_tick", NONE, || client.tick(t));
            while submitted.len() < trace.len() && trace[submitted.len()].at <= t {
                let i = submitted.len();
                let ev = &trace[i];
                let open = tracer.begin("loadgen.datasets", i as u64);
                round.add("loadgen.lateness_ticks", t - ev.at);
                let mut spec = spec_for_arrival(ev);
                spec.name = serving::job_name(i);
                let mut expected = None;
                if i % STAGED_EVERY == STAGED_EVERY - 1 {
                    // Round-robin over the pool, so every program weighs
                    // the same whatever the seed.
                    let job = &self.staged[(i / STAGED_EVERY) % self.staged.len()];
                    spec.clusters = job.program.clusters().max(1);
                    spec.workload = JobWorkload::Staged {
                        program: job.program.clone(),
                        datasets: job.data.clone(),
                        expected: Some(job.refs.clone()),
                    };
                    expected = Some(serving::outputs_digest(&job.refs));
                }
                submitted.push(Submitted { at: t, expected });
                tracer.end(open);
                tracer.span("ingest.client_submit", i as u64, || {
                    client.submit(t, ev.tenant, spec)
                });
            }
            tracer.span("ingest.service_tick", NONE, || {
                service.tick().expect("the service ticks")
            });
            let now = service.now();
            if now > third && now <= self.horizon {
                use vlsi_ingest::IngestSink;
                let backlog = tracer.span("loadgen.poll", NONE, || {
                    (service.ring().len() + service.sink().outstanding()) as u64
                });
                if now <= 2 * third {
                    backlog_mid += backlog;
                } else {
                    backlog_end += backlog;
                }
            }
            assert!(now < 100 * self.horizon, "open loop failed to drain");
            laps.mark();
        }

        let served = serving::fold_service(round, &service, &client, &submitted, tracer);
        round.attempted += submitted.len() as u64;
        round.failed += served.wrong;
        Step {
            wait_p99: percentile(&served.admission_wait, 990),
            goodput_milli: served.verified * 1000 / submitted.len().max(1) as u64,
            backlog_mid: backlog_mid / third,
            backlog_end: backlog_end / (self.horizon - 2 * third),
            sojourn: served.sojourn,
        }
    }

    fn sweep(&self, steps: &[(u64, [&'static str; 3])], tracer: &Tracer, laps: &mut Laps) -> Round {
        let mut round = Round::default();
        let (mut sat_rate, mut goodput_sum) = (0, 0);
        for &(rate, [wait_p99, goodput, backlog_end]) in steps {
            let step = self.step(rate, &mut round, tracer, laps);
            laps.mark();
            round.set(wait_p99, step.wait_p99);
            round.set(goodput, step.goodput_milli);
            round.set(backlog_end, step.backlog_end);
            if step.wait_p99 <= WAIT_LIMIT_TICKS
                && step.goodput_milli >= GOODPUT_LIMIT_MILLI
                && step.backlog_end <= step.backlog_mid + BACKLOG_SLACK
            {
                sat_rate = sat_rate.max(rate);
            }
            goodput_sum += step.goodput_milli;
            if rate == HEADLINE_RATE {
                round.set("sim.sojourn_p50_ticks", percentile(&step.sojourn, 500));
                round.set("sim.sojourn_p99_ticks", percentile(&step.sojourn, 990));
            }
        }
        // One figure for the whole curve: the mean goodput over the grid,
        // every step weighing the same.
        round.goodput_milli = goodput_sum / steps.len() as u64;
        round.set("sim.sat_rate_milli", sat_rate);
        serving::finish_serving(&mut round);
        round
    }
}

impl Workload for ServeOverload {
    fn setup(seed: u64, smoke: bool, tracer: &Tracer) -> ServeOverload {
        // Compiled for the default die: the runtime gathers a region per
        // stage wherever there is room and ignores the placement, so only
        // the total size has to suit an 8×8 die.
        let opts = CompileOptions::default();
        let mut rng = Prng::seed_from_u64(mix(seed, 0x0BE4));
        let staged: Vec<StagedJob> = (0..CORPORA)
            .flat_map(|k| netgen::corpus(mix(seed, k)))
            .enumerate()
            .map(|(i, (_, text))| compile_text(&text, &opts, tracer, i as u64))
            .filter(|c| c.program.clusters() <= STAGED_MAX_CLUSTERS)
            .map(|c| {
                let data = loadgen::datasets(&c.netlist, &mut rng, STAGED_DATASETS);
                let refs = loadgen::references(&c.netlist, &data);
                StagedJob {
                    program: c.program,
                    data,
                    refs,
                }
            })
            .collect();
        assert!(!staged.is_empty(), "some corpus graph fits a quarter die");
        let w = ServeOverload {
            seed,
            horizon: if smoke { 60 } else { 2000 },
            staged,
        };
        // Warm-up: the lightest and the heaviest step.
        let ends = [OVERLOAD_STEPS[0], OVERLOAD_STEPS[OVERLOAD_STEPS.len() - 1]];
        let warm = w.sweep(&ends, &Tracer::disabled(), &mut Laps::start());
        assert_eq!(warm.failed, 0, "warm-up staged jobs must verify");
        w
    }

    fn round(&mut self, _index: u64, tracer: &Tracer, laps: &mut Laps) -> Round {
        self.sweep(&OVERLOAD_STEPS, tracer, laps)
    }
}
