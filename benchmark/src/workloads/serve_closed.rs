//! `serve_closed` — the headline path, netlist text in, verified outputs
//! out. A closed loop keeps a fixed number of requests outstanding; each
//! request takes a netlist text from a pool of 48 in seeded order (so
//! texts repeat), is compiled from text, given seeded datasets and evaluator references,
//! and goes through `IngestClient` → `IngestService` → a ring of four
//! 16×16 dies as a pipelined staged job the runtime verifies. Every layer
//! does some work and the dies are contended, which is the point: host
//! cost per job roughly doubles against an uncontended cluster.
//!
//! One operation = one job.

use vlsi_compile::CompileOptions;
use vlsi_ingest::{AdmissionConfig, IngestConfig};
use vlsi_prng::Prng;
use vlsi_runtime::JobSpec;

use super::serving::{self, Submitted};
use super::{compile_text, fold_compilation, ring_cluster, rss_kb, Round, Workload};
use crate::loadgen::{self, mix};
use crate::stats::percentile;
use crate::trace::{Laps, Tracer, NONE};

const DIES: usize = 4;
const DIE_DIM: u16 = 16;
const TENANTS: u16 = 6;

pub struct ServeClosed {
    seed: u64,
    pool: Vec<String>,
    jobs: usize,
    outstanding: usize,
    datasets: usize,
    opts: CompileOptions,
}

impl ServeClosed {
    fn serve(&self, jobs: usize, tracer: &Tracer, laps: &mut Laps) -> Round {
        let mut round = Round::default();
        let rss_before = rss_kb();
        let open = tracer.begin("loadgen.build", NONE);
        let cluster = ring_cluster(DIES, DIE_DIM, tracer);
        // A closed loop bounds its own backlog, so admission never has to
        // shed: the ring holds every outstanding request and the water
        // marks sit out of reach. Refusals are `serve_overload`'s subject.
        let config = IngestConfig {
            ring_capacity: 2 * self.outstanding,
            admission: AdmissionConfig {
                tenant_rate_milli: 0,
                high_water: usize::MAX / 2,
                low_water: usize::MAX / 4,
                ..AdmissionConfig::default()
            },
        };
        let (mut service, mut client) = serving::service(cluster, config, self.seed, tracer);
        tracer.end(open);

        let mut rng = Prng::seed_from_u64(mix(self.seed, 0xC105ED));
        let mut submitted: Vec<Submitted> = Vec::with_capacity(jobs);
        let mut order: Vec<usize> = Vec::new();
        let mut resolved = 0usize;
        while resolved < jobs {
            let t = service.now() + 1;
            tracer.span("ingest.client_tick", NONE, || client.tick(t));
            while submitted.len() < jobs && submitted.len() - resolved < self.outstanding {
                let id = submitted.len() as u64;
                if order.is_empty() {
                    // Every text of the pool is requested equally often,
                    // in seeded order: one shuffled pass after another.
                    order = (0..self.pool.len()).collect();
                    rng.shuffle(&mut order);
                }
                let text = &self.pool[order.pop().expect("just refilled")];
                let c = compile_text(text, &self.opts, tracer, id);
                fold_compilation(&mut round, &c);
                let data = tracer.span("loadgen.datasets", id, || {
                    loadgen::datasets(&c.netlist, &mut rng, self.datasets)
                });
                let refs = tracer.span("loadgen.reference", id, || {
                    loadgen::references(&c.netlist, &data)
                });
                submitted.push(Submitted {
                    at: t,
                    expected: Some(serving::outputs_digest(&refs)),
                });
                let spec = JobSpec::for_staged(
                    serving::job_name(id as usize),
                    c.program,
                    data,
                    Some(refs),
                );
                let tenant = rng.gen_range(0..TENANTS);
                tracer.span("ingest.client_submit", id, || {
                    client.submit(t, tenant, spec)
                });
            }
            tracer.span("ingest.service_tick", NONE, || {
                service.tick().expect("the service ticks")
            });
            // Poll the sink's running totals — never `Cluster::summary()`,
            // which walks every job record.
            resolved = tracer.span("loadgen.poll", NONE, || {
                use vlsi_ingest::IngestSink;
                let sink = service.sink();
                let refused = service.stats().decided() - service.stats().accepted;
                (sink.completed() + sink.failed() + sink.lost() + refused + client.stats().gave_up)
                    as usize
            });
            assert!(service.now() < 1_000_000, "closed loop hung");
            laps.mark();
        }

        let served = serving::fold_service(&mut round, &service, &client, &submitted, tracer);
        serving::finish_serving(&mut round);
        round.attempted = jobs as u64;
        round.failed = jobs as u64 - served.verified;
        round.goodput_milli = served.verified * 1000 / jobs as u64;
        round.set("sim.sojourn_p50_ticks", percentile(&served.sojourn, 500));
        round.set("sim.sojourn_p99_ticks", percentile(&served.sojourn, 990));
        // Job records are never retired, so what a job keeps resident
        // (spec, datasets, outputs) shows as RSS growth over the round.
        let grown = rss_kb().saturating_sub(rss_before);
        round
            .host
            .insert("runtime.retained_kb_per_job", grown as f64 / jobs as f64);
        round
    }
}

impl Workload for ServeClosed {
    fn setup(seed: u64, smoke: bool, _tracer: &Tracer) -> ServeClosed {
        let w = ServeClosed {
            seed,
            pool: loadgen::serving_pool(),
            jobs: if smoke { 24 } else { 1024 },
            outstanding: if smoke { 8 } else { 64 },
            datasets: 16,
            opts: CompileOptions {
                chip_width: DIE_DIM,
                chip_height: DIE_DIM,
                ..CompileOptions::default()
            },
        };
        // Warm-up: an eighth of a round, enough to touch every code path
        // and fill the allocator's free lists.
        let warm_jobs = (w.jobs / 8).max(w.outstanding);
        let warm = w.serve(warm_jobs, &Tracer::disabled(), &mut Laps::start());
        assert_eq!(warm.failed, 0, "warm-up jobs must verify");
        w
    }

    fn round(&mut self, _index: u64, tracer: &Tracer, laps: &mut Laps) -> Round {
        self.serve(self.jobs, tracer, laps)
    }
}
