//! The runtime engine: a deterministic, simulated-time multi-tenant
//! scheduler on top of [`VlsiChip`].
//!
//! One [`Runtime`] owns one chip. Tenants [`submit`] jobs; every call to
//! [`tick`] advances one unit of simulated time and performs, in a fixed
//! order: sleep-timer expiry (warm-pool reclaim), scheduled fault
//! reports (stuck switches, dead NoC links) and defect recovery, job
//! completion, queued-deadline expiry, and admission. Because the order
//! is fixed and every container is iterated deterministically, the same
//! submissions on the same seed produce the exact same [`RuntimeEvent`]
//! log.
//!
//! [`submit`]: Runtime::submit
//! [`tick`]: Runtime::tick

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use vlsi_core::{ProcState, ProcessorId, StagedExecutor, StagedProgram, VlsiChip};
use vlsi_faults::{Fault, FaultKind, FaultPlan};
use vlsi_telemetry::TelemetryHandle;
use vlsi_topology::Coord;

use crate::error::{RuntimeError, WorkloadDetail};
use crate::events::{EventKind, RuntimeEvent};
use crate::job::{JobId, JobOutput, JobRecord, JobSpec, JobState, JobStats, Workload};
use crate::policy::{QueuedJob, SchedPolicy};

/// Tunables of the runtime. [`Default`] gives the values used by the
/// integration tests and Ablation I.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Warm pool: a completed single-processor job's region is parked
    /// asleep for this many ticks instead of released; a later idle or
    /// one-stage job of exactly that size reuses it without re-gathering
    /// (no configuration worms). `None` disables the pool.
    pub pool_ttl: Option<u64>,
    /// Simulated chip cycles per runtime tick (a job holding its clusters
    /// for `c` cycles holds them for `max(1, c / cycles_per_tick)` ticks).
    pub cycles_per_tick: u64,
    /// Upper bound on the retained event log. The log is a ring buffer:
    /// once full, the *oldest* event is dropped per push and the
    /// `runtime.events_dropped` telemetry counter (and
    /// [`Runtime::dropped_events`]) ticks up. Long soak runs thus hold
    /// memory constant without losing the recent history tests inspect.
    pub event_log_cap: usize,
}

impl Default for RuntimeConfig {
    fn default() -> RuntimeConfig {
        RuntimeConfig {
            pool_ttl: Some(32),
            cycles_per_tick: 64,
            event_log_cap: 1 << 16,
        }
    }
}

/// Chip-level counters, accumulated across the whole run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Jobs submitted.
    pub submitted: u64,
    /// Jobs completed successfully.
    pub completed: u64,
    /// Jobs that failed gracefully.
    pub failed: u64,
    /// Gather attempts that found no region.
    pub failed_gathers: u64,
    /// Fragmentation-triggered compactions.
    pub compactions: u64,
    /// Lower-layer fault reports consumed (each paired with a defect).
    pub faults_reported: u64,
    /// Defect-triggered relocations that kept a job alive.
    pub relocations: u64,
    /// Defect recoveries that had to re-queue the job instead.
    pub requeues: u64,
    /// Admissions served from the warm pool.
    pub pool_hits: u64,
    /// Processors parked in the warm pool.
    pub pooled: u64,
    /// Pool parks reclaimed by timer expiry (or defects).
    pub pool_reclaims: u64,
    /// Jobs withdrawn by a cluster scheduler to run on another chip
    /// (work stealing or chip-failure evacuation).
    pub migrated_out: u64,
    /// Cluster-ticks spent held by processors (busy area).
    pub busy_cluster_ticks: u64,
    /// Cluster-ticks available (usable area × ticks).
    pub total_cluster_ticks: u64,
}

/// The digest [`Runtime::run_until_idle`] returns — what Ablation I
/// (`tests/ablations.rs`) tabulates per policy.
#[derive(Clone, Debug)]
pub struct RuntimeSummary {
    /// Name of the scheduling policy that produced this run.
    pub policy: &'static str,
    /// Ticks simulated until the queue drained.
    pub ticks: u64,
    /// Jobs completed successfully.
    pub completed: u64,
    /// Jobs that failed gracefully.
    pub failed: u64,
    /// Tick of the last job completion or failure.
    pub makespan: u64,
    /// Mean queue wait (submission → admission) over admitted jobs.
    pub mean_wait: f64,
    /// Mean turnaround (submission → completion) over finished jobs.
    pub mean_turnaround: f64,
    /// Busy cluster-ticks over available cluster-ticks.
    pub utilization: f64,
    /// The final chip-level counters.
    pub stats: RuntimeStats,
}

/// A region parked in the warm pool.
#[derive(Clone, Copy, Debug)]
struct PoolEntry {
    proc: ProcessorId,
    clusters: usize,
}

/// The multi-tenant scheduler: one chip, a queue of tenant jobs, and a
/// deterministic simulated clock.
pub struct Runtime {
    chip: VlsiChip,
    policy: Box<dyn SchedPolicy>,
    config: RuntimeConfig,
    now: u64,
    next_job: u64,
    jobs: BTreeMap<JobId, JobRecord>,
    queue: Vec<JobId>,
    running: Vec<JobId>,
    pool: Vec<PoolEntry>,
    fault_plan: FaultPlan,
    events: VecDeque<RuntimeEvent>,
    dropped_events: u64,
    stats: RuntimeStats,
    /// Shared with the chip: [`Runtime::new`] adopts the chip's handle,
    /// so building the chip with [`VlsiChip::with_telemetry`] instruments
    /// the scheduler too (`runtime.*` instruments, per-job spans on the
    /// `runtime` track stamped in ticks).
    telemetry: TelemetryHandle,
}

impl Runtime {
    /// A runtime owning `chip`, scheduling with `policy`. The runtime
    /// records into the chip's telemetry handle — pass a chip built with
    /// [`VlsiChip::with_telemetry`] to observe the scheduler.
    pub fn new(chip: VlsiChip, policy: Box<dyn SchedPolicy>, config: RuntimeConfig) -> Runtime {
        let telemetry = chip.telemetry().clone();
        Runtime {
            chip,
            policy,
            config,
            now: 0,
            next_job: 0,
            jobs: BTreeMap::new(),
            queue: Vec::new(),
            running: Vec::new(),
            pool: Vec::new(),
            fault_plan: FaultPlan::none(),
            events: VecDeque::new(),
            dropped_events: 0,
            stats: RuntimeStats::default(),
            telemetry,
        }
    }

    // --- submission ----------------------------------------------------------

    /// Submits a job. Returns its ID; a request that can never fit (or is
    /// empty) is failed immediately and gracefully — check
    /// [`JobRecord::failure`]. A spec that is already shared (a job
    /// migrating in from another chip) is taken by pointer.
    pub fn submit(&mut self, spec: impl Into<Arc<JobSpec>>) -> JobId {
        let spec: Arc<JobSpec> = spec.into();
        let id = JobId(self.next_job);
        self.next_job += 1;
        self.stats.submitted += 1;
        self.telemetry.count("runtime.submissions", 1);
        self.telemetry.span_begin("runtime", "job", id.0, self.now);
        self.push_event(EventKind::Submitted {
            job: id,
            clusters: spec.clusters,
            priority: spec.priority,
        });
        let clusters = spec.clusters;
        let record = JobRecord {
            id,
            spec,
            state: JobState::Queued,
            procs: Vec::new(),
            output: None,
            failure: None,
            stats: JobStats {
                submitted_at: self.now,
                ..JobStats::default()
            },
            next_attempt_at: self.now,
            finish_at: 0,
        };
        self.jobs.insert(id, record);
        let capacity = self.chip.usable_clusters();
        if clusters == 0 {
            self.fail_job(
                id,
                RuntimeError::Workload {
                    job: id,
                    detail: WorkloadDetail::ZeroClusters,
                },
            );
        } else if clusters > capacity {
            self.fail_job(
                id,
                RuntimeError::TooLarge {
                    job: id,
                    requested: clusters,
                    capacity,
                },
            );
        } else {
            self.queue.push(id);
        }
        id
    }

    /// Schedules a cluster to become defective at the start of `tick`
    /// (fault injection; past ticks apply on the next tick).
    ///
    /// Modeled as a permanent stuck-switch fault in the attached
    /// [`FaultPlan`]: when it lands, the runtime hears about it as a
    /// lower-layer fault *report* rather than flipping an oracle flag.
    pub fn inject_defect_at(&mut self, tick: u64, coord: Coord) {
        let tick = tick.max(self.now + 1);
        self.fault_plan
            .push(Fault::permanent(FaultKind::SwitchStuck { at: coord }, tick));
    }

    /// Attaches (merges) a fault plan whose times are runtime ticks.
    /// Switch-stuck and permanent NoC faults land during [`tick`] as
    /// lower-layer reports and drive defect recovery; faults scheduled
    /// for the past apply on the next tick.
    ///
    /// [`tick`]: Runtime::tick
    pub fn attach_fault_plan(&mut self, plan: FaultPlan) {
        let shift = self.now + 1;
        for f in plan.faults() {
            let mut f = *f;
            f.start = f.start.max(shift);
            self.fault_plan.push(f);
        }
    }

    /// The merged fault plan driving scheduled fault reports.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    // --- the clock -----------------------------------------------------------

    /// Advances simulated time by one tick, in a fixed order: sleep-timer
    /// expiry, scheduled fault reports and defect recovery, job
    /// completion, queued-deadline expiry, then admission.
    pub fn tick(&mut self) -> Result<(), RuntimeError> {
        self.now += 1;
        let now = self.now;

        // 1. Sleep timers: pooled regions whose TTL expired wake and are
        //    reclaimed — idle capacity returns to the free pool.
        for proc in self.chip.tick_timers(1) {
            if let Some(pos) = self.pool.iter().position(|e| e.proc == proc) {
                self.pool.remove(pos);
                self.chip.deactivate(proc)?;
                self.chip.release_processor(proc)?;
                self.stats.pool_reclaims += 1;
                self.push_event(EventKind::PoolReclaimed { proc });
            }
        }

        // 2. Scheduled faults land as lower-layer reports, and their
        //    victims are recovered: stuck switches first, then dead NoC
        //    links/routers, each in plan order.
        let stuck: Vec<Coord> = self.fault_plan.switches_sticking_at(now).collect();
        for c in stuck {
            self.apply_reported_fault(c, "s-topology")?;
        }
        let noc_dead: Vec<Coord> = self.fault_plan.noc_failures_at(now).collect();
        for c in noc_dead {
            self.apply_reported_fault(c, "noc")?;
        }

        // 3. Completions, in (finish tick, job id) order.
        let mut due: Vec<(u64, JobId)> = self
            .running
            .iter()
            .map(|id| (self.jobs[id].finish_at, *id))
            .filter(|(f, _)| *f <= now)
            .collect();
        due.sort_unstable();
        for (_, job_id) in due {
            self.complete_job(job_id)?;
        }

        // 4. Queued jobs whose deadline can no longer be met fail now
        //    rather than occupying the queue forever.
        let expired: Vec<(JobId, u64)> = self
            .queue
            .iter()
            .filter_map(|id| {
                let d = self.jobs[id].spec.deadline?;
                (now >= d).then_some((*id, d))
            })
            .collect();
        for (id, deadline) in expired {
            self.fail_job(
                id,
                RuntimeError::DeadlineMissed {
                    job: id,
                    deadline,
                    finished: now,
                },
            );
        }

        // 5. Admission: ask the policy until it passes or the queue dries
        //    up. Each try either admits, backs off, or fails the job, so
        //    this loop terminates.
        loop {
            if self.queue.is_empty() {
                break;
            }
            let free = self.chip.free_clusters();
            let view: Vec<QueuedJob> = self
                .queue
                .iter()
                .map(|id| {
                    let r = &self.jobs[id];
                    QueuedJob {
                        id: *id,
                        clusters: r.spec.clusters,
                        priority: r.spec.priority,
                        submitted_at: r.stats.submitted_at,
                        next_attempt_at: r.next_attempt_at,
                        deadline: r.spec.deadline,
                    }
                })
                .collect();
            let Some(i) = self.policy.pick(&view, free, now) else {
                break;
            };
            self.try_admit(view[i].id)?;
        }

        // 6. Area accounting.
        let usable = self.chip.usable_clusters();
        let free = self.chip.free_clusters();
        self.stats.busy_cluster_ticks += (usable - free) as u64;
        self.stats.total_cluster_ticks += usable as u64;
        Ok(())
    }

    /// Ticks until no job is queued or running, then returns the run's
    /// summary. More than `max_ticks` ticks means the system is stuck:
    /// [`RuntimeError::Hung`].
    pub fn run_until_idle(&mut self, max_ticks: u64) -> Result<RuntimeSummary, RuntimeError> {
        let mut ticks = 0;
        while self.outstanding() > 0 {
            if ticks >= max_ticks {
                return Err(RuntimeError::Hung {
                    ticks,
                    outstanding: self.outstanding(),
                });
            }
            self.tick()?;
            ticks += 1;
        }
        Ok(self.summary())
    }

    /// Releases every warm-pooled region immediately (end of a tenancy).
    pub fn drain_pool(&mut self) -> Result<(), RuntimeError> {
        for e in std::mem::take(&mut self.pool) {
            self.chip.wake(e.proc)?;
            self.chip.deactivate(e.proc)?;
            self.chip.release_processor(e.proc)?;
            self.stats.pool_reclaims += 1;
            self.push_event(EventKind::PoolReclaimed { proc: e.proc });
        }
        Ok(())
    }

    // --- defects -------------------------------------------------------------

    /// The single funnel every fault report goes through: log the
    /// report, mark the cluster defective (stuck switches also wedge the
    /// S-topology fabric), then recover whoever owned it. Off-grid and
    /// already-defective coordinates are ignored — a fault plan built
    /// for a larger mesh must not corrupt the area accounting.
    fn apply_reported_fault(&mut self, c: Coord, layer: &'static str) -> Result<(), RuntimeError> {
        if !self.chip.grid().contains(c) || self.chip.is_defective(c) {
            return Ok(());
        }
        self.push_event(EventKind::FaultReported { coord: c, layer });
        self.stats.faults_reported += 1;
        self.telemetry.count("runtime.faults_reported", 1);
        self.telemetry
            .instant("runtime", "fault", self.stats.faults_reported, self.now);
        let victim = self.chip.processor_at(c);
        if layer == "s-topology" {
            self.chip.mark_switch_stuck(c);
        } else {
            self.chip.mark_defective(c);
        }
        self.push_event(EventKind::DefectInjected { coord: c, victim });
        let Some(pid) = victim else { return Ok(()) };

        // A parked pool region: just reclaim it.
        if let Some(pos) = self.pool.iter().position(|e| e.proc == pid) {
            self.pool.remove(pos);
            self.chip.wake(pid)?;
            self.chip.deactivate(pid)?;
            self.chip.release_processor(pid)?;
            self.stats.pool_reclaims += 1;
            self.push_event(EventKind::PoolReclaimed { proc: pid });
            return Ok(());
        }

        let Some(job_id) = self
            .running
            .iter()
            .copied()
            .find(|j| self.jobs[j].procs.contains(&pid))
        else {
            return Ok(());
        };
        self.recover_job(job_id, pid)
    }

    /// A defect hit processor `pid` of running job `job_id`: relocate it,
    /// state intact (an idle tenant's protections are lifted for the move
    /// and set again after; stage processors idle Inactive); if no
    /// placement exists, the job re-queues for a fresh gather.
    fn recover_job(&mut self, job_id: JobId, pid: ProcessorId) -> Result<(), RuntimeError> {
        let active = self.chip.state(pid) == Ok(ProcState::Active);
        if active {
            self.chip.deactivate(pid)?;
        }
        if self.chip.relocate(pid).is_err() {
            return self.requeue_job(job_id);
        }
        if active {
            self.chip.activate(pid)?;
        }
        self.job_mut(job_id)?.stats.relocations += 1;
        self.stats.relocations += 1;
        self.push_event(EventKind::DefectRecovered {
            job: job_id,
            proc: pid,
        });
        Ok(())
    }

    /// Recovery could not relocate in place: release everything the job
    /// holds and send it back to the queue for a fresh gather.
    fn requeue_job(&mut self, job_id: JobId) -> Result<(), RuntimeError> {
        let procs = std::mem::take(&mut self.job_mut(job_id)?.procs);
        for p in procs {
            if self.chip.state(p) == Ok(ProcState::Active) {
                self.chip.deactivate(p)?;
            }
            self.chip.release_processor(p)?;
        }
        self.running.retain(|j| *j != job_id);
        self.queue.push(job_id);
        let now = self.now;
        let rec = self.job_mut(job_id)?;
        rec.state = JobState::Queued;
        rec.next_attempt_at = now + 1;
        rec.output = None;
        let attempt = rec.stats.attempts;
        self.stats.requeues += 1;
        self.push_event(EventKind::Requeued {
            job: job_id,
            attempt,
        });
        Ok(())
    }

    // --- completion ----------------------------------------------------------

    /// A running job's hold ended. Its outputs were computed and checked
    /// at admission and wait on the record, so completion only checks
    /// the deadline, then parks or releases what the job holds.
    fn complete_job(&mut self, job_id: JobId) -> Result<(), RuntimeError> {
        let now = self.now;
        if let Some(d) = self.jobs[&job_id].spec.deadline {
            if now > d {
                self.fail_job(
                    job_id,
                    RuntimeError::DeadlineMissed {
                        job: job_id,
                        deadline: d,
                        finished: now,
                    },
                );
                return Ok(());
            }
        }

        // Park or release the held regions, each lifting its protections
        // first if it holds them (an idle tenant does).
        let procs = std::mem::take(&mut self.job_mut(job_id)?.procs);
        let single = procs.len() == 1;
        for p in procs {
            if self.chip.state(p) == Ok(ProcState::Active) {
                self.chip.deactivate(p)?;
            }
            match (single, self.config.pool_ttl) {
                (true, Some(ttl)) => {
                    let clusters = self.chip.processor(p)?.region.len();
                    self.chip.activate(p)?;
                    self.chip.sleep(p, Some(ttl))?;
                    self.pool.push(PoolEntry { proc: p, clusters });
                    self.stats.pooled += 1;
                    self.push_event(EventKind::Pooled {
                        proc: p,
                        clusters,
                        ttl,
                    });
                }
                _ => self.chip.release_processor(p)?,
            }
        }

        self.running.retain(|j| *j != job_id);
        let rec = self.job_mut(job_id)?;
        rec.state = JobState::Completed;
        rec.output.get_or_insert(JobOutput::None);
        rec.stats.finished_at = Some(now);
        rec.stats.turnaround = now - rec.stats.submitted_at;
        let (wait, turnaround) = (rec.stats.wait, rec.stats.turnaround);
        self.stats.completed += 1;
        self.telemetry.record("runtime.wait", wait);
        self.telemetry.record("runtime.run", turnaround - wait);
        self.telemetry.record("runtime.turnaround", turnaround);
        self.telemetry.span_end("runtime", "job", job_id.0, now);
        self.push_event(EventKind::Completed {
            job: job_id,
            wait,
            turnaround,
        });
        Ok(())
    }

    /// Marks a job failed, releasing anything it still holds. Failures
    /// are graceful: the error lands on the record, never unwinds.
    fn fail_job(&mut self, job_id: JobId, err: RuntimeError) {
        let now = self.now;
        let reason = err.reason();
        // Every caller takes `job_id` from the job table, so a miss has no
        // record to fail and holds nothing.
        let Ok(rec) = self.job_mut(job_id) else {
            return;
        };
        let procs = std::mem::take(&mut rec.procs);
        rec.state = JobState::Failed;
        rec.stats.finished_at = Some(now);
        rec.stats.turnaround = now - rec.stats.submitted_at;
        rec.failure = Some(err);
        for p in procs {
            match self.chip.state(p) {
                Ok(ProcState::Active) => {
                    let _ = self.chip.deactivate(p);
                }
                Ok(ProcState::Sleep) => {
                    let _ = self.chip.wake(p);
                    let _ = self.chip.deactivate(p);
                }
                _ => {}
            }
            let _ = self.chip.release_processor(p);
        }
        self.queue.retain(|j| *j != job_id);
        self.running.retain(|j| *j != job_id);
        self.stats.failed += 1;
        self.telemetry.count("runtime.failures", 1);
        self.telemetry.span_end("runtime", "job", job_id.0, now);
        self.push_event(EventKind::Failed {
            job: job_id,
            reason,
        });
    }

    // --- migration -----------------------------------------------------------

    /// Withdraws a *queued* job for a cluster scheduler to run elsewhere
    /// (work stealing). Returns the (shared) spec to resubmit on the
    /// target chip, or `None` if the job is unknown or not currently
    /// queued. The local record stays behind in [`JobState::Migrated`] —
    /// it is not a completion and not a failure, so per-chip totals never
    /// double count a stolen job.
    pub fn withdraw(&mut self, id: JobId) -> Option<Arc<JobSpec>> {
        let rec = self.job_mut(id).ok()?;
        if rec.state != JobState::Queued {
            return None;
        }
        rec.state = JobState::Migrated;
        let spec = Arc::clone(&rec.spec);
        self.queue.retain(|j| *j != id);
        let now = self.now;
        self.stats.migrated_out += 1;
        self.telemetry.count("runtime.migrated_out", 1);
        self.telemetry.span_end("runtime", "job", id.0, now);
        self.push_event(EventKind::MigratedOut {
            job: id,
            reason: "steal",
        });
        Some(spec)
    }

    /// Evacuates every unfinished job (queued *and* running) after the
    /// chip itself has died: pure bookkeeping that never touches chip
    /// state, because there is no chip left to talk to. Running jobs
    /// restart from their spec on whatever chip they land on. Returns
    /// the evacuated jobs in ascending [`JobId`] order.
    pub fn evacuate(&mut self) -> Vec<(JobId, Arc<JobSpec>)> {
        let mut ids: Vec<JobId> = self
            .queue
            .iter()
            .chain(self.running.iter())
            .copied()
            .collect();
        ids.sort_unstable();
        self.queue.clear();
        self.running.clear();
        self.pool.clear();
        let now = self.now;
        let mut specs = Vec::with_capacity(ids.len());
        for id in ids {
            // The queue and running lists hold table IDs only.
            let Ok(rec) = self.job_mut(id) else {
                continue;
            };
            rec.state = JobState::Migrated;
            rec.procs.clear();
            specs.push((id, Arc::clone(&rec.spec)));
            self.stats.migrated_out += 1;
            self.telemetry.count("runtime.migrated_out", 1);
            self.telemetry.span_end("runtime", "job", id.0, now);
            self.push_event(EventKind::MigratedOut {
                job: id,
                reason: "evacuate",
            });
        }
        specs
    }

    /// The queued jobs, in queue order (admission order is the policy's
    /// business; this is submission/requeue order). Cluster schedulers
    /// scan it to pick migration candidates.
    pub fn queued_ids(&self) -> &[JobId] {
        &self.queue
    }

    // --- admission -----------------------------------------------------------

    fn try_admit(&mut self, job_id: JobId) -> Result<(), RuntimeError> {
        let clusters = self.jobs[&job_id].spec.clusters;
        // Defects since submission may have shrunk the chip below the
        // request for good.
        let capacity = self.chip.usable_clusters();
        if clusters > capacity {
            self.fail_job(
                job_id,
                RuntimeError::TooLarge {
                    job: job_id,
                    requested: clusters,
                    capacity,
                },
            );
            return Ok(());
        }
        let attempts = {
            let rec = self.job_mut(job_id)?;
            rec.stats.attempts += 1;
            rec.stats.attempts
        };
        // Every attempt works on the queued spec itself: a retry copies a
        // pointer, never the program, datasets or references.
        let spec = Arc::clone(&self.jobs[&job_id].spec);
        match &spec.workload {
            Workload::Idle { ticks } => self.admit_idle(job_id, clusters, attempts, *ticks),
            Workload::Staged {
                program,
                datasets,
                expected,
            } => self.admit_staged(job_id, attempts, program, datasets, expected.as_deref()),
        }
    }

    /// When a gather fails and [`VlsiChip::fragmentation`] exceeds this
    /// while enough total free clusters exist, the runtime asks whether a
    /// compaction would make the request fit; only then does it compact
    /// and retry once before backing off.
    const COMPACT_THRESHOLD: f64 = 0.35;

    /// Backoff after a failed gather: attempt `n` waits
    /// `BACKOFF_BASE << (n - 1)` ticks, capped at [`Self::BACKOFF_CAP`].
    const BACKOFF_BASE: u64 = 2;

    /// Upper bound on the backoff delay, in ticks.
    const BACKOFF_CAP: u64 = 64;

    /// Gather failed: compact when fragmentation pressure is high and the
    /// chip's compaction plan ([`VlsiChip::plan_compaction`]) says a
    /// region per entry of `sizes` then fits (caller retries once when
    /// this returns `true`). Otherwise nothing moves and the caller backs
    /// off or fails the job.
    fn compact_for(&mut self, sizes: &[usize]) -> bool {
        let frag = self.chip.fragmentation();
        if frag <= Self::COMPACT_THRESHOLD
            || self.chip.free_clusters() < sizes.iter().sum()
            || self.chip.plan_compaction(sizes).is_none()
        {
            return false;
        }
        let moved = self.chip.compact();
        let after = self.chip.fragmentation();
        self.stats.compactions += 1;
        self.push_event(EventKind::Compacted {
            moved,
            frag_before_milli: (frag * 1000.0).round() as u32,
            frag_after_milli: (after * 1000.0).round() as u32,
        });
        true
    }

    fn back_off(&mut self, job_id: JobId, attempts: u32) -> Result<(), RuntimeError> {
        let max_retries = self.jobs[&job_id].spec.max_retries;
        if attempts > max_retries {
            self.fail_job(
                job_id,
                RuntimeError::RetriesExhausted {
                    job: job_id,
                    attempts,
                },
            );
            return Ok(());
        }
        let shift = (attempts.saturating_sub(1)).min(16);
        let delay = (Self::BACKOFF_BASE << shift).min(Self::BACKOFF_CAP);
        let retry_at = self.now + delay;
        self.job_mut(job_id)?.next_attempt_at = retry_at;
        self.stats.failed_gathers += 1;
        self.push_event(EventKind::GatherFailed {
            job: job_id,
            attempt: attempts,
            retry_at,
        });
        Ok(())
    }

    /// Takes an exact-size region from the warm pool for `job_id`: wakes
    /// it, lifts its protections and wipes its AP, so it is Inactive and
    /// empty, as if just gathered — without the configuration worms.
    fn take_pooled(
        &mut self,
        job_id: JobId,
        clusters: usize,
    ) -> Result<Option<ProcessorId>, RuntimeError> {
        let Some(pos) = self.pool.iter().position(|e| e.clusters == clusters) else {
            return Ok(None);
        };
        let proc = self.pool.remove(pos).proc;
        self.chip.wake(proc)?;
        self.chip.deactivate(proc)?;
        self.chip.recycle_processor(proc)?;
        self.stats.pool_hits += 1;
        self.push_event(EventKind::PoolWoken { proc, job: job_id });
        Ok(Some(proc))
    }

    fn admit_idle(
        &mut self,
        job_id: JobId,
        clusters: usize,
        attempts: u32,
        ticks: u64,
    ) -> Result<(), RuntimeError> {
        let acquired = match self.take_pooled(job_id, clusters)? {
            Some(pid) => Some((pid, 0, true)),
            None => match self.chip.gather_any(clusters) {
                Ok(o) => Some((o.id, o.config_latency, false)),
                Err(_) if self.compact_for(&[clusters]) => self
                    .chip
                    .gather_any(clusters)
                    .ok()
                    .map(|o| (o.id, o.config_latency, false)),
                Err(_) => None,
            },
        };
        let Some((pid, latency, pool_hit)) = acquired else {
            return self.back_off(job_id, attempts);
        };
        self.chip.activate(pid)?;
        self.mark_admitted(job_id, vec![pid], attempts, pool_hit, latency, 0, ticks)
    }

    fn admit_staged(
        &mut self,
        job_id: JobId,
        attempts: u32,
        program: &StagedProgram,
        datasets: &[HashMap<String, i64>],
        expected: Option<&[Vec<i64>]>,
    ) -> Result<(), RuntimeError> {
        // A one-stage program takes an exact-size warm region first, like
        // an idle job; it is installed but not gathered.
        let pooled = match &program.stages[..] {
            [stage] => self.take_pooled(job_id, stage.clusters)?,
            _ => None,
        };
        let warm =
            pooled.and_then(|p| StagedExecutor::deploy_on(&mut self.chip, program, &[p]).ok());
        let pool_hit = warm.is_some();
        // Deployed by reference: the executor borrows the queued program
        // (the deploy rolls back its own partial gathers on failure).
        let exec = match warm.or_else(|| StagedExecutor::deploy(&mut self.chip, program).ok()) {
            None => {
                let sizes: Vec<usize> = program.stages.iter().map(|s| s.clusters).collect();
                self.compact_for(&sizes)
                    .then(|| StagedExecutor::deploy(&mut self.chip, program).ok())
                    .flatten()
            }
            exec => exec,
        };
        let Some(exec) = exec else {
            return self.back_off(job_id, attempts);
        };
        let procs: Vec<ProcessorId> = exec.processors().to_vec();

        // The whole dataset batch streams through the placed stages as
        // one Fig. 7(d) wavefront: downstream stages work on earlier
        // datasets while new ones enter stage 0, and each stage's
        // datapath is configured once and stays resident. Outputs are
        // bit-identical to the old per-dataset `run` loop.
        let (outs, run) = match exec.run_pipelined(&mut self.chip, datasets) {
            Ok(r) => r,
            Err(e) => {
                exec.release(&mut self.chip)?;
                self.fail_job(job_id, RuntimeError::workload_from(job_id, e));
                return Ok(());
            }
        };
        // The front end hands down its oracle's reference outputs (the
        // netlist evaluator's, the IR interpreter's for a block program,
        // the kernel reference for a stream), verified for every dataset
        // in the batch.
        for (i, out) in outs.iter().enumerate() {
            if let Some(exp) = expected.and_then(|e| e.get(i)) {
                if out != exp {
                    exec.release(&mut self.chip)?;
                    self.fail_job(job_id, RuntimeError::staged_mismatch(job_id, i, out, exp));
                    return Ok(());
                }
            }
        }

        // A warm region was not gathered: no configuration worms to pay.
        let mut latency = 0;
        for p in procs.iter().filter(|_| !pool_hit) {
            latency += self.chip.processor(*p)?.config_latency;
        }
        let (config_cycles, exec_cycles) = (latency + run.config_cycles, run.exec_cycles);
        let duration = (config_cycles + exec_cycles) / self.config.cycles_per_tick.max(1);
        self.job_mut(job_id)?.output = Some(JobOutput::Staged(outs));
        self.mark_admitted(
            job_id,
            procs,
            attempts,
            pool_hit,
            config_cycles,
            exec_cycles,
            duration,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn mark_admitted(
        &mut self,
        job_id: JobId,
        procs: Vec<ProcessorId>,
        attempts: u32,
        pool_hit: bool,
        config_cycles: u64,
        exec_cycles: u64,
        duration: u64,
    ) -> Result<(), RuntimeError> {
        let now = self.now;
        self.queue.retain(|j| *j != job_id);
        self.running.push(job_id);
        let rec = self.job_mut(job_id)?;
        rec.state = JobState::Running;
        rec.procs = procs.clone();
        rec.finish_at = now + duration.max(1);
        rec.stats.pool_hit = rec.stats.pool_hit || pool_hit;
        rec.stats.config_cycles += config_cycles;
        rec.stats.exec_cycles += exec_cycles;
        if rec.stats.admitted_at.is_none() {
            rec.stats.admitted_at = Some(now);
            rec.stats.wait = now - rec.stats.submitted_at;
        }
        self.push_event(EventKind::Admitted {
            job: job_id,
            procs,
            attempt: attempts,
            pool_hit,
        });
        Ok(())
    }

    fn push_event(&mut self, kind: EventKind) {
        if self.config.event_log_cap == 0 {
            self.dropped_events += 1;
            self.telemetry.count("runtime.events_dropped", 1);
            return;
        }
        while self.events.len() >= self.config.event_log_cap {
            self.events.pop_front();
            self.dropped_events += 1;
            self.telemetry.count("runtime.events_dropped", 1);
        }
        self.events.push_back(RuntimeEvent {
            tick: self.now,
            kind,
        });
    }

    // --- observation ---------------------------------------------------------

    /// The chip (read-only; all mutation goes through the runtime).
    pub fn chip(&self) -> &VlsiChip {
        &self.chip
    }

    /// The ordered event log — the most recent
    /// [`RuntimeConfig::event_log_cap`] events.
    pub fn events(&self) -> &VecDeque<RuntimeEvent> {
        &self.events
    }

    /// Events evicted from the capped log (see
    /// [`RuntimeConfig::event_log_cap`]).
    pub fn dropped_events(&self) -> u64 {
        self.dropped_events
    }

    /// The telemetry handle this runtime (and its chip) records into.
    pub fn telemetry(&self) -> &TelemetryHandle {
        &self.telemetry
    }

    /// A job's record.
    pub fn job(&self, id: JobId) -> Result<&JobRecord, RuntimeError> {
        self.jobs.get(&id).ok_or(RuntimeError::UnknownJob(id))
    }

    /// A job's record, mutably — the one lookup the runtime's own
    /// bookkeeping goes through.
    fn job_mut(&mut self, id: JobId) -> Result<&mut JobRecord, RuntimeError> {
        self.jobs.get_mut(&id).ok_or(RuntimeError::UnknownJob(id))
    }

    /// All job records, in submission order.
    pub fn jobs(&self) -> impl Iterator<Item = &JobRecord> {
        self.jobs.values()
    }

    /// The current tick.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Jobs still queued or running.
    pub fn outstanding(&self) -> usize {
        self.queue.len() + self.running.len()
    }

    /// Regions currently parked in the warm pool.
    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// The chip-level counters so far.
    pub fn stats(&self) -> &RuntimeStats {
        &self.stats
    }

    /// Digest of the run so far (what Ablation I tabulates).
    pub fn summary(&self) -> RuntimeSummary {
        let finished = self.jobs.values().filter(|r| r.stats.finished_at.is_some());
        let makespan = finished
            .clone()
            .filter_map(|r| r.stats.finished_at)
            .max()
            .unwrap_or(0);
        let admitted: Vec<u64> = self
            .jobs
            .values()
            .filter(|r| r.stats.admitted_at.is_some())
            .map(|r| r.stats.wait)
            .collect();
        let turnarounds: Vec<u64> = finished.map(|r| r.stats.turnaround).collect();
        let mean = |xs: &[u64]| {
            if xs.is_empty() {
                0.0
            } else {
                xs.iter().sum::<u64>() as f64 / xs.len() as f64
            }
        };
        RuntimeSummary {
            policy: self.policy.name(),
            ticks: self.now,
            completed: self.stats.completed,
            failed: self.stats.failed,
            makespan,
            mean_wait: mean(&admitted),
            mean_turnaround: mean(&turnarounds),
            utilization: if self.stats.total_cluster_ticks == 0 {
                0.0
            } else {
                self.stats.busy_cluster_ticks as f64 / self.stats.total_cluster_ticks as f64
            },
            stats: self.stats.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Fifo;
    use vlsi_topology::Cluster;

    fn rt(pool_ttl: Option<u64>) -> Runtime {
        let chip = VlsiChip::new(8, 8, Cluster::default());
        let config = RuntimeConfig {
            pool_ttl,
            ..RuntimeConfig::default()
        };
        Runtime::new(chip, Box::new(Fifo), config)
    }

    fn idle(clusters: usize, ticks: u64) -> JobSpec {
        JobSpec::new("idle", clusters, Workload::Idle { ticks })
    }

    #[test]
    fn event_log_cap_drops_oldest_and_counts() {
        let chip = VlsiChip::with_telemetry(8, 8, Cluster::default(), TelemetryHandle::active());
        let config = RuntimeConfig {
            pool_ttl: None,
            event_log_cap: 8,
            ..RuntimeConfig::default()
        };
        let mut rt = Runtime::new(chip, Box::new(Fifo), config);
        for _ in 0..6 {
            rt.submit(idle(4, 2));
        }
        rt.run_until_idle(1_000).unwrap();
        assert!(rt.events().len() <= 8, "log bounded by the cap");
        assert!(rt.dropped_events() > 0, "older events were evicted");
        // The ring keeps the *newest* events: the final completion is
        // still present even though early submissions are gone.
        assert!(rt
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::Completed { .. })));
        let total = rt.events().len() as u64 + rt.dropped_events();
        assert!(total > 8, "more events were produced than retained");
        let snap = rt.telemetry().snapshot();
        assert_eq!(snap.counter("runtime.events_dropped"), rt.dropped_events());
        assert_eq!(snap.counter("runtime.submissions"), 6);
    }

    #[test]
    fn zero_event_log_cap_retains_nothing() {
        let chip = VlsiChip::new(8, 8, Cluster::default());
        let config = RuntimeConfig {
            pool_ttl: None,
            event_log_cap: 0,
            ..RuntimeConfig::default()
        };
        let mut rt = Runtime::new(chip, Box::new(Fifo), config);
        rt.submit(idle(4, 2));
        rt.run_until_idle(1_000).unwrap();
        assert!(rt.events().is_empty());
        assert!(rt.dropped_events() > 0);
        assert_eq!(rt.stats().completed, 1, "scheduling is unaffected");
    }

    #[test]
    fn too_large_fails_gracefully_at_submit() {
        let mut rt = rt(None);
        let id = rt.submit(idle(65, 1));
        let rec = rt.job(id).unwrap();
        assert_eq!(rec.state, JobState::Failed);
        assert!(matches!(
            rec.failure,
            Some(RuntimeError::TooLarge { requested: 65, .. })
        ));
        assert_eq!(rt.outstanding(), 0);
    }

    #[test]
    fn warm_pool_reuses_an_exact_size_region() {
        // Idle jobs, and one-stage staged jobs (a stream kernel here):
        // the second of two same-size jobs wakes the first one's region.
        let stream = || {
            let xs: Vec<u64> = (1..=8).collect();
            let expected = vlsi_workloads::StreamKernel::axpy_reference(3, 5, &xs);
            let kernel = vlsi_workloads::StreamKernel::axpy(3, 5, 8);
            JobSpec::for_stream("axpy", 4, kernel, xs, expected)
        };
        for (first, second) in [(idle(4, 2), idle(4, 2)), (stream(), stream())] {
            let mut rt = rt(Some(64));
            let a = rt.submit(first);
            rt.run_until_idle(1_000).unwrap();
            assert_eq!(rt.pool_len(), 1, "completed region parks in the pool");
            let b = rt.submit(second);
            rt.run_until_idle(1_000).unwrap();
            assert_eq!(rt.job(b).unwrap().state, JobState::Completed);
            assert!(rt.job(b).unwrap().stats.pool_hit);
            assert!(!rt.job(a).unwrap().stats.pool_hit);
            assert_eq!(rt.job(a).unwrap().output, rt.job(b).unwrap().output);
            assert_eq!(rt.stats().pool_hits, 1);
            assert!(rt
                .events()
                .iter()
                .any(|e| matches!(e.kind, EventKind::PoolWoken { job, .. } if job == b)));
        }
    }

    #[test]
    fn pool_timer_expiry_reclaims_the_region() {
        let mut rt = rt(Some(5));
        rt.submit(idle(4, 1));
        rt.run_until_idle(1_000).unwrap();
        assert_eq!(rt.pool_len(), 1);
        for _ in 0..6 {
            rt.tick().unwrap();
        }
        assert_eq!(rt.pool_len(), 0);
        assert_eq!(rt.chip().free_clusters(), 64);
        assert!(rt
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::PoolReclaimed { .. })));
        assert_eq!(rt.stats().pool_reclaims, 1);
    }

    #[test]
    fn queued_job_missing_its_deadline_fails_gracefully() {
        let mut rt = rt(None);
        let hog = rt.submit(idle(64, 50));
        let late = rt.submit(idle(64, 1).with_deadline(5));
        let summary = rt.run_until_idle(10_000).unwrap();
        assert_eq!(rt.job(hog).unwrap().state, JobState::Completed);
        let rec = rt.job(late).unwrap();
        assert_eq!(rec.state, JobState::Failed);
        assert!(matches!(
            rec.failure,
            Some(RuntimeError::DeadlineMissed { deadline: 5, .. })
        ));
        assert_eq!(summary.completed, 1);
        assert_eq!(summary.failed, 1);
    }

    // A defective cluster in the middle of the die makes a 60-cluster
    // *contiguous* gather impossible even though 63 clusters are free —
    // the policy's fit check passes, the gather fails, and the backoff
    // path runs.
    fn impossible_gather(max_retries: u32) -> (Runtime, JobId) {
        let mut rt = rt(None);
        rt.inject_defect_at(1, Coord::new(3, 3));
        rt.tick().unwrap();
        let starved = rt.submit(idle(60, 1).with_max_retries(max_retries));
        (rt, starved)
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let (mut rt, starved) = impossible_gather(6);
        rt.run_until_idle(10_000).unwrap();
        let retries: Vec<u64> = rt
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::GatherFailed { job, retry_at, .. } if job == starved => {
                    Some(retry_at - e.tick)
                }
                _ => None,
            })
            .collect();
        assert!(retries.len() >= 3, "expected several retries: {retries:?}");
        for w in retries.windows(2) {
            assert!(w[1] >= w[0], "backoff never shrinks: {retries:?}");
        }
        assert!(retries.iter().all(|&d| d <= 64), "capped: {retries:?}");
        assert_eq!(retries[0], 2);
        assert_eq!(retries[1], 4);
    }

    #[test]
    fn retries_exhausted_fails_gracefully() {
        let (mut rt, starved) = impossible_gather(2);
        rt.run_until_idle(10_000).unwrap();
        let rec = rt.job(starved).unwrap();
        assert_eq!(rec.state, JobState::Failed);
        assert!(matches!(
            rec.failure,
            Some(RuntimeError::RetriesExhausted { attempts: 3, .. })
        ));
        assert_eq!(rt.chip().free_clusters(), 63, "nothing leaked");
    }

    // The acceptance chain for the fault-injection tentpole: a scheduled
    // switch fault is *reported* by the topology layer, the runtime turns
    // the report into a defect, and the victim tenant is relocated — all
    // three links visible, in order, in one event log.
    #[test]
    fn switch_fault_report_relocates_the_victim_end_to_end() {
        let mut rt = rt(None);
        let job = rt.submit(idle(4, 30));
        rt.tick().unwrap(); // admitted; the first gather starts at the origin
        let hit = Coord::new(0, 0);
        assert!(rt.chip().processor_at(hit).is_some(), "tenant owns (0,0)");

        let mut plan = FaultPlan::none();
        plan.push(Fault::permanent(FaultKind::SwitchStuck { at: hit }, 3));
        rt.attach_fault_plan(plan);
        rt.run_until_idle(1_000).unwrap();

        assert!(
            rt.chip().is_switch_stuck(hit),
            "fabric knows the switch died"
        );
        assert!(rt.chip().is_defective(hit), "the cluster is defective");
        assert_eq!(rt.job(job).unwrap().state, JobState::Completed);
        assert_eq!(rt.stats().faults_reported, 1);

        let pos = |pred: fn(&EventKind) -> bool| {
            rt.events()
                .iter()
                .position(|e| pred(&e.kind))
                .expect("event present")
        };
        let reported = pos(|k| {
            matches!(
                k,
                EventKind::FaultReported {
                    layer: "s-topology",
                    ..
                }
            )
        });
        let defected = pos(|k| {
            matches!(
                k,
                EventKind::DefectInjected {
                    victim: Some(_),
                    ..
                }
            )
        });
        let recovered = pos(|k| {
            matches!(
                k,
                EventKind::DefectRecovered { .. } | EventKind::Requeued { .. }
            )
        });
        assert!(reported < defected, "report precedes the defect");
        assert!(defected < recovered, "defect precedes the recovery");
        // The tenant moved off the dead cluster and finished elsewhere.
        assert_eq!(rt.chip().processor_at(hit), None);
    }

    #[test]
    fn noc_fault_reports_mark_clusters_defective() {
        let mut rt = rt(None);
        let mut plan = FaultPlan::none();
        plan.push(Fault::permanent(
            FaultKind::LinkDown {
                at: Coord::new(2, 2),
                dir: vlsi_topology::Dir::East,
            },
            2,
        ));
        rt.attach_fault_plan(plan);
        for _ in 0..3 {
            rt.tick().unwrap();
        }
        assert!(rt.chip().is_defective(Coord::new(2, 2)));
        assert!(!rt.chip().is_switch_stuck(Coord::new(2, 2)));
        assert!(rt
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::FaultReported { layer: "noc", .. })));
    }

    #[test]
    fn off_grid_and_duplicate_fault_reports_are_ignored() {
        let mut rt = rt(None);
        let mut plan = FaultPlan::none();
        plan.push(Fault::permanent(
            FaultKind::SwitchStuck {
                at: Coord::new(40, 40),
            },
            2,
        ));
        plan.push(Fault::permanent(
            FaultKind::SwitchStuck {
                at: Coord::new(1, 1),
            },
            2,
        ));
        plan.push(Fault::permanent(
            FaultKind::SwitchStuck {
                at: Coord::new(1, 1),
            },
            3,
        ));
        rt.attach_fault_plan(plan);
        for _ in 0..4 {
            rt.tick().unwrap();
        }
        assert_eq!(rt.stats().faults_reported, 1, "one real, distinct fault");
        assert_eq!(rt.chip().defective_count(), 1);
        assert_eq!(rt.chip().usable_clusters(), 63, "area accounting intact");
    }

    #[test]
    fn fault_plan_runs_replay_bit_identically() {
        let run = || {
            let mut rt = rt(Some(16));
            let plan = vlsi_faults::FaultPlanBuilder::new(901)
                .grid(8, 8)
                .horizon(64)
                .switch_stuck_rate(0.02)
                .build();
            rt.attach_fault_plan(plan);
            for i in 0..6 {
                rt.submit(idle(4, 8 + i));
            }
            rt.run_until_idle(10_000).unwrap();
            rt.events().iter().cloned().collect::<Vec<_>>()
        };
        assert_eq!(run(), run(), "same plan seed, same event log");
    }
}
