//! Multi-chip scheduling over the fabric: cluster-wide admission, job
//! migration, and whole-chip chaos.
//!
//! A [`Cluster`] owns one [`Runtime`] per chip and a [`ClusterNetwork`]
//! bridging their dies, and drives both with one clock. The runtime
//! tick is the one step that fans out, over the chips on one [`Pool`]:
//! chip `i` is always task `i`, and chips share no state inside it, so
//! every cross-chip decision below reads post-barrier serial state. Each
//! [`tick`](Cluster::tick) performs, in a fixed order:
//!
//! 1. **Chip deaths** — [`FaultKind::ChipDown`] entries of the attached
//!    plan fire: the chip's plane and links are severed, its runtime is
//!    [`evacuated`](vlsi_runtime::Runtime::evacuate), and every
//!    displaced job is relocated over the fabric or failed typed.
//! 2. **Runtime tick** — live chips advance one tick in parallel
//!    (chip `i` = task `i`; a dead chip's clock freezes).
//! 3. **Migration scan** — serial, ascending chip/job order: a queued
//!    job its chip cannot gather right now (probed with
//!    `largest_gatherable`) moves to the live chip with the most
//!    gatherable room (strictly more than home; ties to the lowest
//!    index). The checkpoint travels as a real fabric message, so
//!    migration pays link latency and shows up in `fabric.*` telemetry.
//! 4. **Fabric tick** — [`ClusterNetwork::tick`].
//! 5. **Arrivals** — delivered checkpoints are submitted on their
//!    destination chip; failed ones are re-placed or marked lost.
//!
//! Every decision reads only post-barrier serial state, so a cluster
//! run is bit-identical at any thread count.
//!
//! [`FaultKind::ChipDown`]: vlsi_faults::FaultKind::ChipDown

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use vlsi_faults::FaultPlan;
use vlsi_par::Pool;
use vlsi_runtime::{JobId, JobSpec, Runtime, RuntimeError, RuntimeEvent, RuntimeSummary};
use vlsi_telemetry::TelemetryHandle;
use vlsi_topology::Coord;

use crate::error::ClusterError;
use crate::network::{ClusterNetwork, FabricConfig};
use crate::topology::ClusterTopology;

/// Identifier of a job across the whole cluster, in submission order.
/// Local [`JobId`]s change when a job migrates; this one never does.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GlobalJobId(pub u64);

impl std::fmt::Display for GlobalJobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gjob{}", self.0)
    }
}

/// Tunables of the cluster scheduler.
#[derive(Clone, Debug, Default)]
pub struct ClusterConfig {
    /// Interconnect parameters.
    pub fabric: FabricConfig,
    /// Times a single job may ride the fabric — steals and death
    /// relocations combined — before it must stay put (bounds
    /// ping-pong; 0 disables work stealing). A displaced job past the
    /// cap is still re-placed, just directly instead of by checkpoint
    /// message.
    pub migration_cap: u32,
    /// Base words of a migrating job's checkpoint message; one more
    /// word rides along per 16 requested clusters (a compressed
    /// register summary, not full state — full state would serialize a
    /// multi-thousand-flit worm through every plane it crosses).
    pub checkpoint_words: usize,
}

impl ClusterConfig {
    /// The defaults the integration tests, the pinned `cluster_4x_32x32`
    /// digest and the serving benchmark use.
    pub fn standard() -> ClusterConfig {
        ClusterConfig {
            fabric: FabricConfig::default(),
            migration_cap: 4,
            checkpoint_words: 4,
        }
    }
}

/// Where a global job currently is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Placement {
    /// Submitted on a chip under a local id.
    OnChip(usize, JobId),
    /// Checkpoint in flight toward a chip.
    InFlight(usize),
    /// Gone: no live chip could take it (reason label attached).
    Lost(&'static str),
}

/// Cluster-side record of one job.
#[derive(Clone, Debug)]
struct GlobalJob {
    placement: Placement,
    migrations: u32,
}

/// A checkpoint riding the fabric. The spec is the source chip's own
/// allocation: a migration moves a pointer, not the job's payload.
struct Ticket {
    gid: u64,
    spec: Arc<JobSpec>,
    dst: usize,
}

/// What [`Cluster::run_until_idle`] returns.
#[derive(Clone, Debug)]
pub struct ClusterSummary {
    /// Cluster ticks simulated.
    pub ticks: u64,
    /// Jobs completed, summed over every chip (dead ones included —
    /// work finished before a death still counts).
    pub completed: u64,
    /// Jobs failed typed on some chip.
    pub failed: u64,
    /// Jobs lost cluster-side (no live chip could take them).
    pub lost: u64,
    /// Migrations and evacuations committed onto the fabric.
    pub migrated: u64,
    /// Chips that died.
    pub chip_failures: u64,
    /// Per-chip runtime summaries, in chip order.
    pub per_chip: Vec<RuntimeSummary>,
}

/// The multi-chip system: one runtime per die on an inter-chip fabric,
/// with cluster-wide admission, job migration, and whole-chip chaos,
/// driven by one clock.
pub struct Cluster {
    chips: Vec<Runtime>,
    pool: Arc<Pool>,
    net: ClusterNetwork,
    alive: Vec<bool>,
    plan: FaultPlan,
    jobs: Vec<GlobalJob>,
    index: BTreeMap<(usize, u64), u64>,
    tickets: BTreeMap<u64, Ticket>,
    lost: Vec<(GlobalJobId, &'static str)>,
    now: u64,
    config: ClusterConfig,
    telemetry: TelemetryHandle,
}

impl Cluster {
    /// An empty cluster: `topo` chips of `mesh`-sized dies, driven on
    /// `pool`. Push exactly [`ClusterTopology::chips`] runtimes with
    /// [`push_chip`](Self::push_chip) before ticking. `telemetry`
    /// carries the `fabric.*` instruments; per-chip instruments live on
    /// the runtimes' own handles.
    pub fn with_telemetry(
        topo: ClusterTopology,
        mesh: (u16, u16),
        pool: Arc<Pool>,
        config: ClusterConfig,
        telemetry: TelemetryHandle,
    ) -> Cluster {
        let net =
            ClusterNetwork::with_telemetry(topo, mesh, config.fabric.clone(), telemetry.clone());
        Cluster {
            chips: Vec::new(),
            pool,
            net,
            alive: vec![true; topo.chips()],
            plan: FaultPlan::none(),
            jobs: Vec::new(),
            index: BTreeMap::new(),
            tickets: BTreeMap::new(),
            lost: Vec::new(),
            now: 0,
            config,
            telemetry,
        }
    }

    /// [`with_telemetry`](Self::with_telemetry) without instrumentation.
    pub fn new(
        topo: ClusterTopology,
        mesh: (u16, u16),
        pool: Arc<Pool>,
        config: ClusterConfig,
    ) -> Cluster {
        Cluster::with_telemetry(topo, mesh, pool, config, TelemetryHandle::disabled())
    }

    /// Adds the next chip's runtime; returns its chip index (stable
    /// for the cluster's lifetime — it is also the chip's task index on
    /// the pool). Panics if the topology is already full.
    pub fn push_chip(&mut self, rt: Runtime) -> usize {
        assert!(
            self.chips.len() < self.net.topology().chips(),
            "topology holds {} chips",
            self.net.topology().chips()
        );
        self.chips.push(rt);
        self.chips.len() - 1
    }

    /// The chips' runtimes, in chip-index order (dead chips included).
    pub fn chips(&self) -> impl Iterator<Item = &Runtime> {
        self.chips.iter()
    }

    /// The runtime of chip `index`.
    pub fn chip(&self, index: usize) -> &Runtime {
        &self.chips[index]
    }

    /// The cluster itself. Exists only for the end-to-end benchmark
    /// (`benchmark/`), which reads `cluster.fleet().chips()`; everything
    /// else calls [`chips`](Self::chips) directly.
    pub fn fleet(&self) -> &Cluster {
        self
    }

    /// The interconnect.
    pub fn network(&self) -> &ClusterNetwork {
        &self.net
    }

    /// Whether `chip` is still alive.
    pub fn alive(&self, chip: usize) -> bool {
        self.alive[chip]
    }

    /// Cluster ticks simulated.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Jobs lost cluster-side, in loss order: jobs a chip death
    /// displaced that no live chip could hold, with a reason label.
    pub fn lost_jobs(&self) -> &[(GlobalJobId, &'static str)] {
        &self.lost
    }

    /// Where `gid` was last placed: `(chip, local id)` — the job may be
    /// queued, running, or already finished there. `None` while its
    /// checkpoint is in flight or after it was lost.
    pub fn locate(&self, gid: GlobalJobId) -> Option<(usize, JobId)> {
        match self.jobs.get(gid.0 as usize)?.placement {
            Placement::OnChip(chip, local) => Some((chip, local)),
            _ => None,
        }
    }

    /// Attaches (merges) a fault plan whose times are cluster ticks;
    /// [`FaultKind::ChipDown`] entries fire during [`tick`](Self::tick).
    /// Like the runtime's, starts shift to "now + 1 + start" so a plan
    /// attached mid-run stays in the future. Non-chip faults are kept
    /// but inert at this level.
    ///
    /// [`FaultKind::ChipDown`]: vlsi_faults::FaultKind::ChipDown
    pub fn attach_fault_plan(&mut self, plan: FaultPlan) {
        let shift = self.now + 1;
        for f in plan.faults() {
            let mut f = *f;
            f.start += shift;
            self.plan.push(f);
        }
    }

    /// Submits a job cluster-wide: it is placed on the live chip with
    /// the most free clusters that can (eventually) hold it, lowest
    /// index on ties. Returns `None` — no placement, no side effects —
    /// when every live chip is too small, the whole cluster is dead, or
    /// it has no chips, so a service front-end can turn "nowhere to
    /// run" into a typed rejection instead of the panic
    /// [`Cluster::submit_to`] reserves for internal misuse.
    pub fn submit(&mut self, spec: JobSpec) -> Option<GlobalJobId> {
        let chip = self.pick_chip(spec.clusters)?;
        Some(self.submit_to(chip, spec))
    }

    /// Submits a job to a specific chip (tests pin placements with
    /// this; saturating one chip is how migration is exercised).
    pub fn submit_to(&mut self, chip: usize, spec: JobSpec) -> GlobalJobId {
        assert!(self.alive[chip], "submitting to a dead chip");
        let gid = self.jobs.len() as u64;
        let local = self.chips[chip].submit(spec);
        self.jobs.push(GlobalJob {
            placement: Placement::OnChip(chip, local),
            migrations: 0,
        });
        self.index.insert((chip, local.0), gid);
        GlobalJobId(gid)
    }

    /// The live chip with the most free clusters that can (eventually)
    /// hold `clusters`, lowest index on ties.
    fn pick_chip(&self, clusters: usize) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None;
        for c in 0..self.chips.len() {
            if !self.alive[c] {
                continue;
            }
            let rt = &self.chips[c];
            if rt.chip().usable_clusters() < clusters {
                continue;
            }
            let free = rt.chip().free_clusters();
            if best.is_none_or(|(bf, _)| free > bf) {
                best = Some((free, c));
            }
        }
        best.map(|(_, c)| c)
    }

    /// Advances the cluster one tick: chip deaths, a parallel runtime
    /// tick of the live chips, the migration scan, one fabric tick, then
    /// checkpoint arrivals — in that fixed order.
    pub fn tick(&mut self) -> Result<(), ClusterError> {
        self.now += 1;
        // 1. Chip deaths scheduled for this tick.
        let dying: Vec<u16> = self.plan.chips_failing_at(self.now).collect();
        for chip in dying {
            self.kill_chip(chip as usize);
        }
        // 2. Live chips tick in parallel.
        let alive = &self.alive;
        let results = each_chip(&self.pool, &mut self.chips, |i, chip| {
            if alive[i] {
                chip.tick()
            } else {
                Ok(())
            }
        });
        first_error(results)?;
        // 3. Work stealing at the tick boundary.
        self.migration_scan();
        // 4. The fabric moves.
        self.net.tick();
        // 5. Arrivals and fabric failures.
        for d in self.net.take_delivered() {
            let Some(ticket) = self.tickets.remove(&d.msg.0) else {
                continue;
            };
            self.place(ticket.gid, ticket.dst, ticket.spec);
        }
        for (msg, _) in self.net.take_failed() {
            let Some(ticket) = self.tickets.remove(&msg.0) else {
                continue;
            };
            self.relocate(ticket.gid, ticket.spec);
        }
        Ok(())
    }

    /// Ticks until every live chip is idle and the fabric is drained,
    /// or errs [`ClusterError::Hung`] after `max_ticks`.
    pub fn run_until_idle(&mut self, max_ticks: u64) -> Result<ClusterSummary, ClusterError> {
        let mut ticks = 0;
        while !self.is_idle() {
            if ticks >= max_ticks {
                return Err(ClusterError::Hung {
                    ticks,
                    outstanding: self.outstanding(),
                });
            }
            self.tick()?;
            ticks += 1;
        }
        Ok(self.summary())
    }

    /// Whether no work is queued, running, or in flight anywhere. A
    /// pending chip-death whose tick has not come yet does not count —
    /// run horizons must cover the plan.
    pub fn is_idle(&self) -> bool {
        self.tickets.is_empty()
            && self.net.is_idle()
            && (0..self.chips.len()).all(|c| !self.alive[c] || self.chips[c].outstanding() == 0)
    }

    /// Jobs queued or running on live chips plus checkpoints in flight.
    pub fn outstanding(&self) -> usize {
        self.tickets.len()
            + (0..self.chips.len())
                .filter(|&c| self.alive[c])
                .map(|c| self.chips[c].outstanding())
                .sum::<usize>()
    }

    /// The run's digest so far.
    pub fn summary(&self) -> ClusterSummary {
        let per_chip: Vec<RuntimeSummary> = self.chips.iter().map(Runtime::summary).collect();
        ClusterSummary {
            ticks: self.now,
            completed: per_chip.iter().map(|s| s.completed).sum(),
            failed: per_chip.iter().map(|s| s.failed).sum(),
            lost: self.lost.len() as u64,
            migrated: self.net.stats().messages,
            chip_failures: self.net.stats().chip_failures,
            per_chip,
        }
    }

    /// Every chip's event log merged in chip order (dead chips keep the
    /// log up to their death).
    pub fn merged_events(&self) -> Vec<(usize, RuntimeEvent)> {
        let mut out = Vec::new();
        for (i, chip) in self.chips.iter().enumerate() {
            out.extend(chip.events().iter().map(|e| (i, e.clone())));
        }
        out
    }

    /// One registry holding fabric, plane, and chip instruments, merged
    /// in that fixed order — byte-identical per seed at any thread
    /// count.
    pub fn merged_telemetry(&self) -> TelemetryHandle {
        let merged = self.net.merged_telemetry();
        for chip in self.chips.iter() {
            merged.merge_from(chip.telemetry());
        }
        merged
    }

    /// Kills `chip`: severs it in the fabric, evacuates its runtime,
    /// and re-places every displaced job (or marks it lost, typed).
    fn kill_chip(&mut self, chip: usize) {
        if !self.alive[chip] {
            return;
        }
        self.alive[chip] = false;
        self.net.fail_chip(chip);
        let displaced = self.chips[chip].evacuate();
        for (local, spec) in displaced {
            let Some(gid) = self.index.remove(&(chip, local.0)) else {
                continue;
            };
            self.relocate(gid, spec);
        }
        // Checkpoints already in flight *toward* the dead chip fail in
        // the fabric and re-place via the failure path next tick.
    }

    /// Re-places a displaced job: direct resubmit if the checkpoint
    /// home *is* the target, else a fresh checkpoint over the fabric
    /// from the lowest-index live chip (where the controller keeps its
    /// replicas). Marks the job lost, typed, when no live chip can ever
    /// hold it.
    fn relocate(&mut self, gid: u64, spec: Arc<JobSpec>) {
        let Some(target) = self.pick_chip(spec.clusters) else {
            self.jobs[gid as usize].placement = Placement::Lost("no capacity");
            self.lost.push((GlobalJobId(gid), "no capacity"));
            self.telemetry.count("fabric.jobs_lost", 1);
            self.telemetry.count("fabric.jobs_lost.no_capacity", 1);
            return;
        };
        let Some(home) = (0..self.chips.len()).find(|&c| self.alive[c]) else {
            self.jobs[gid as usize].placement = Placement::Lost("no live chip");
            self.lost.push((GlobalJobId(gid), "no live chip"));
            self.telemetry.count("fabric.jobs_lost", 1);
            self.telemetry.count("fabric.jobs_lost.no_live_chip", 1);
            return;
        };
        self.telemetry.count("fabric.relocations", 1);
        self.jobs[gid as usize].migrations += 1;
        // Past the cap (e.g. the live chips are partitioned and every
        // checkpoint fails "no route"), stop riding the fabric and
        // place directly — bounded progress beats a livelock.
        if home == target || self.jobs[gid as usize].migrations > self.config.migration_cap {
            self.place(gid, target, spec);
        } else {
            self.ship(gid, home, target, spec);
        }
    }

    /// Submits `spec` on `chip` and updates the global index.
    fn place(&mut self, gid: u64, chip: usize, spec: Arc<JobSpec>) {
        let local = self.chips[chip].submit(spec);
        self.jobs[gid as usize].placement = Placement::OnChip(chip, local);
        self.index.insert((chip, local.0), gid);
    }

    /// Puts `gid`'s checkpoint on the wire from `src` to `dst`.
    fn ship(&mut self, gid: u64, src: usize, dst: usize, spec: Arc<JobSpec>) {
        let words = (self.config.checkpoint_words + spec.clusters / 16).max(1);
        let payload: Vec<u64> = std::iter::repeat_n(gid, words).collect();
        let mesh_port = |c: usize| {
            let rt = &self.chips[c];
            Coord::new(rt.chip().grid().width() / 2, rt.chip().grid().height() / 2)
        };
        let src_coord = mesh_port(src);
        let dst_coord = mesh_port(dst);
        match self.net.send(src, src_coord, dst, dst_coord, payload) {
            Ok(msg) => {
                self.jobs[gid as usize].placement = Placement::InFlight(dst);
                self.tickets.insert(msg.0, Ticket { gid, spec, dst });
            }
            Err(_) => {
                // A chip died between pick and send; try again with the
                // fresh live set.
                self.relocate(gid, spec);
            }
        }
    }

    /// Work stealing: a queued job that cannot be gathered on its chip
    /// right now (the admission probe is `largest_gatherable`, not the
    /// raw free count — fragmentation is what actually blocks a
    /// gather) moves to the live chip with strictly more gatherable
    /// room. Serial and order-fixed (ascending source chip, then queue
    /// order), so it is deterministic at any thread count.
    fn migration_scan(&mut self) {
        if self.config.migration_cap == 0 {
            return;
        }
        let chips = self.chips.len();
        if (0..chips).all(|c| !self.alive[c] || self.chips[c].queued_ids().is_empty()) {
            return;
        }
        // One gatherable-region probe per chip per scan: withdrawing a
        // queued job frees no clusters and shipped jobs only land on
        // delivery, so occupancy cannot change mid-scan — `planned`
        // tracks the reservations instead.
        let largest: Vec<usize> = (0..chips)
            .map(|c| self.chips[c].chip().largest_gatherable())
            .collect();
        let mut planned = vec![0usize; chips];
        for s in 0..chips {
            if !self.alive[s] {
                continue;
            }
            let free_s = largest[s];
            let queued: Vec<JobId> = self.chips[s].queued_ids().to_vec();
            for local in queued {
                let Ok(rec) = self.chips[s].job(local) else {
                    continue;
                };
                let need = rec.spec.clusters;
                if need <= free_s.saturating_sub(planned[s]) {
                    continue; // admissible at home right now
                }
                let Some(&gid) = self.index.get(&(s, local.0)) else {
                    continue;
                };
                if self.jobs[gid as usize].migrations >= self.config.migration_cap {
                    continue;
                }
                let mut best: Option<(usize, usize)> = None;
                for d in 0..chips {
                    if d == s || !self.alive[d] {
                        continue;
                    }
                    let rt = &self.chips[d];
                    if rt.chip().usable_clusters() < need {
                        continue;
                    }
                    let avail = largest[d].saturating_sub(planned[d]);
                    if avail >= need && avail > free_s && best.is_none_or(|(ba, _)| avail > ba) {
                        best = Some((avail, d));
                    }
                }
                let Some((_, d)) = best else {
                    continue;
                };
                let Some(spec) = self.chips[s].withdraw(local) else {
                    continue;
                };
                self.index.remove(&(s, local.0));
                planned[d] += need;
                self.jobs[gid as usize].migrations += 1;
                self.telemetry.count("fabric.migrations", 1);
                self.ship(gid, s, d, spec);
            }
        }
    }
}

/// Runs `f` once per chip on `pool` (chip `i` = task `i`) and collects
/// the results in chip-index order. The per-chip `Mutex` is
/// uncontended by construction and only exists to hand each worker a
/// `&mut` through the shared closure.
fn each_chip<R: Send>(
    pool: &Pool,
    chips: &mut [Runtime],
    f: impl Fn(usize, &mut Runtime) -> R + Sync,
) -> Vec<R> {
    let views: Vec<Mutex<&mut Runtime>> = chips.iter_mut().map(Mutex::new).collect();
    pool.map(views.len(), |i| {
        f(i, &mut views[i].lock().unwrap_or_else(|e| e.into_inner()))
    })
}

/// The lowest-index chip error, if any — deterministic regardless of
/// which worker hit its error first.
fn first_error(results: Vec<Result<(), RuntimeError>>) -> Result<(), ClusterError> {
    for (chip, r) in results.into_iter().enumerate() {
        if let Err(error) = r {
            return Err(ClusterError::Chip { chip, error });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_core::VlsiChip;
    use vlsi_runtime::{mix::mixed_jobs, Fifo, RuntimeConfig, Workload};
    use vlsi_topology::Cluster as ClusterShape;

    fn chip_runtime() -> Runtime {
        let chip = VlsiChip::with_telemetry(
            8,
            8,
            ClusterShape::default(),
            vlsi_telemetry::TelemetryHandle::active(),
        );
        Runtime::new(chip, Box::new(Fifo), RuntimeConfig::default())
    }

    fn cluster_of(chips: usize, threads: usize) -> Cluster {
        let mut cluster = Cluster::with_telemetry(
            ClusterTopology::ring(chips),
            (8, 8),
            Pool::new(threads),
            ClusterConfig::standard(),
            vlsi_telemetry::TelemetryHandle::active(),
        );
        for _ in 0..chips {
            cluster.push_chip(chip_runtime());
        }
        cluster
    }

    fn idle(clusters: usize, ticks: u64) -> JobSpec {
        JobSpec::new("idle", clusters, Workload::Idle { ticks })
    }

    /// Every observable of a finished run, as one string.
    fn digest(cluster: &Cluster) -> String {
        let s = cluster.summary();
        let mut out = format!(
            "ticks={} completed={} failed={} lost={} migrated={} deaths={}\n",
            s.ticks, s.completed, s.failed, s.lost, s.migrated, s.chip_failures
        );
        for (i, c) in s.per_chip.iter().enumerate() {
            out.push_str(&format!(
                "chip{i}: completed={} failed={} migrated_out={}\n",
                c.completed, c.failed, c.stats.migrated_out
            ));
        }
        for (chip, ev) in cluster.merged_events() {
            out.push_str(&format!("chip{chip} t{} {:?}\n", ev.tick, ev.kind));
        }
        out.push_str(&cluster.merged_telemetry().snapshot().to_json());
        out
    }

    #[test]
    fn single_chip_cluster_degenerates_to_a_runtime() {
        let mut cluster = cluster_of(1, 1);
        let gid = cluster.submit(idle(4, 3)).expect("the one chip fits it");
        let summary = cluster.run_until_idle(1_000).unwrap();
        assert_eq!(summary.completed, 1);
        assert_eq!(summary.migrated, 0, "nowhere to steal to");
        assert_eq!(cluster.locate(gid), Some((0, JobId(0))), "never moved");
    }

    #[test]
    fn submit_with_nowhere_to_run_is_none_and_changes_nothing() {
        let mut cluster = cluster_of(2, 1);
        cluster.submit_to(1, idle(8, 200));
        let mut plan = FaultPlan::none();
        plan.push(vlsi_faults::Fault::permanent(
            vlsi_faults::FaultKind::ChipDown { chip: 0 },
            1,
        ));
        cluster.attach_fault_plan(plan);
        for _ in 0..4 {
            cluster.tick().unwrap();
        }
        assert!(!cluster.alive(0));
        let (jobs, outstanding) = (cluster.jobs.len(), cluster.outstanding());
        assert_eq!(outstanding, 1);
        // Chip 1 is an 8x8 die: 64 clusters, so 65 fits nowhere live.
        assert_eq!(cluster.submit(idle(65, 3)), None);
        assert_eq!(cluster.jobs.len(), jobs, "no job recorded");
        assert_eq!(cluster.outstanding(), outstanding);

        let mut empty = Cluster::new(
            ClusterTopology::ring(1),
            (8, 8),
            Pool::serial(),
            ClusterConfig::standard(),
        );
        assert_eq!(empty.submit(idle(1, 3)), None, "no chips at all");
        assert_eq!(empty.outstanding(), 0);
    }

    #[test]
    fn overflow_migrates_over_the_fabric_and_completes() {
        let mut cluster = cluster_of(4, 2);
        // Six 24-cluster jobs pinned on chip 0: two run (48 of 64
        // clusters), the other four cannot fit and must be stolen.
        for _ in 0..6 {
            cluster.submit_to(0, idle(24, 40));
        }
        let summary = cluster.run_until_idle(5_000).unwrap();
        assert_eq!(summary.completed, 6, "every job finishes somewhere");
        assert!(
            summary.migrated >= 3,
            "overflow must ride the fabric, got {} migrations",
            summary.migrated
        );
        assert!(summary.per_chip[0].stats.migrated_out >= 3);
        let off_chip: u64 = summary.per_chip[1..].iter().map(|c| c.completed).sum();
        assert!(
            off_chip >= 3,
            "stolen jobs complete off-chip, got {off_chip}"
        );
        // The checkpoints really crossed links.
        assert!(cluster.network().stats().crossings > 0);
        assert_eq!(cluster.network().stats().undeliverable, 0);
    }

    #[test]
    fn balanced_load_stays_put() {
        let mut cluster = cluster_of(4, 2);
        for c in 0..4 {
            cluster.submit_to(c, idle(8, 10));
        }
        let summary = cluster.run_until_idle(1_000).unwrap();
        assert_eq!(summary.completed, 4);
        assert_eq!(summary.migrated, 0, "no reason to move anything");
    }

    #[test]
    fn chip_death_relocates_jobs_and_the_run_survives() {
        let mut cluster = cluster_of(4, 2);
        for c in 0..4 {
            for _ in 0..3 {
                cluster.submit_to(c, idle(12, 60));
            }
        }
        let mut plan = FaultPlan::none();
        plan.push(vlsi_faults::Fault::permanent(
            vlsi_faults::FaultKind::ChipDown { chip: 1 },
            4,
        ));
        cluster.attach_fault_plan(plan);
        let summary = cluster.run_until_idle(5_000).unwrap();
        assert!(!cluster.alive(1));
        assert_eq!(summary.chip_failures, 1);
        assert_eq!(summary.lost, 0, "plenty of spare capacity: nothing lost");
        // Chip 1's three jobs finish elsewhere (it dies at tick 5,
        // before any 60-tick job can complete).
        assert_eq!(summary.per_chip[1].completed, 0);
        assert_eq!(summary.completed, 12, "all twelve jobs still complete");
        assert!(summary.per_chip[1].stats.migrated_out == 3);
        // The dead chip's clock froze at its last live tick.
        assert_eq!(cluster.chip(1).now(), 4);
        assert!(cluster.now() > 4);
    }

    #[test]
    fn death_of_every_chip_loses_jobs_typed_never_hangs() {
        let mut cluster = cluster_of(2, 1);
        for c in 0..2 {
            cluster.submit_to(c, idle(8, 200));
        }
        let mut plan = FaultPlan::none();
        for chip in 0..2 {
            plan.push(vlsi_faults::Fault::permanent(
                vlsi_faults::FaultKind::ChipDown { chip },
                3 + chip as u64,
            ));
        }
        cluster.attach_fault_plan(plan);
        let summary = cluster.run_until_idle(5_000).unwrap();
        assert_eq!(summary.chip_failures, 2);
        assert_eq!(summary.completed, 0);
        assert_eq!(summary.lost, 2, "no live chip left: typed loss");
        assert!(cluster
            .lost_jobs()
            .iter()
            .all(|(_, reason)| *reason == "no capacity" || *reason == "no live chip"));
    }

    #[test]
    fn telemetry_report_tables_the_fabric_links_and_replays() {
        let run = || {
            let mut cluster = cluster_of(4, 2);
            for _ in 0..6 {
                cluster.submit_to(0, idle(24, 40));
            }
            cluster.run_until_idle(5_000).unwrap();
            vlsi_telemetry::report::render(&cluster.merged_telemetry().snapshot())
        };
        let table = run();
        // The link counters and the per-link occupancy histogram show
        // up as rows of the end-of-run report table.
        assert!(table.contains("fabric.crossings"), "{table}");
        assert!(table.contains("fabric.messages"), "{table}");
        assert!(table.contains("fabric.migrations"), "{table}");
        assert!(table.contains("fabric.link_occupancy"), "{table}");
        assert!(table.contains("fabric.link_util"), "{table}");
        // Byte-identical per seed: the same run renders the same table.
        assert_eq!(table, run());
    }

    #[test]
    fn cluster_runs_are_bit_identical_across_thread_counts() {
        let mut digests = Vec::new();
        for threads in [1usize, 2, 8] {
            let mut cluster = cluster_of(4, threads);
            // A saturating mix pinned on chip 0 plus background load,
            // with a mid-run chip death.
            for spec in mixed_jobs(0xC1A5_7E12, 18) {
                cluster.submit_to(0, spec);
            }
            for c in 1..4 {
                cluster.submit_to(c, idle(8, 25));
            }
            let mut plan = FaultPlan::none();
            plan.push(vlsi_faults::Fault::permanent(
                vlsi_faults::FaultKind::ChipDown { chip: 2 },
                6,
            ));
            cluster.attach_fault_plan(plan);
            cluster.run_until_idle(20_000).unwrap();
            digests.push(digest(&cluster));
        }
        assert_eq!(digests[0], digests[1], "1 vs 2 threads diverged");
        assert_eq!(digests[0], digests[2], "1 vs 8 threads diverged");
    }

    #[test]
    fn first_error_picks_the_lowest_chip_regardless_of_order() {
        // The merge rule itself: with chips 1 and 3 both failing, the
        // cluster error is always chip 1's, whatever order workers finish.
        let hung = |ticks| RuntimeError::Hung {
            ticks,
            outstanding: 1,
        };
        let err = first_error(vec![Ok(()), Err(hung(10)), Ok(()), Err(hung(99))]);
        let want = "cluster: chip 1: runtime did not drain within 10 ticks (1 jobs outstanding)";
        assert_eq!(err.map_err(|e| e.to_string()), Err(want.to_string()));
        assert!(first_error(vec![Ok(()), Ok(())]).is_ok());
    }

    #[test]
    fn merged_events_interleave_in_chip_order() {
        let mut cluster = cluster_of(2, 1);
        for c in 0..2 {
            cluster.submit_to(c, idle(4, 3));
        }
        cluster.run_until_idle(1_000).unwrap();
        let merged = cluster.merged_events();
        let switch = merged.iter().position(|(c, _)| *c == 1).unwrap();
        assert!(switch > 0, "chip 0 events come first");
        assert!(merged[..switch].iter().all(|(c, _)| *c == 0));
        assert!(merged[switch..].iter().all(|(c, _)| *c == 1));
        let per_chip: usize = cluster.chips().map(|c| c.events().len()).sum();
        assert_eq!(merged.len(), per_chip);
    }

    #[test]
    fn a_chip_that_never_drains_hangs_the_run_typed_at_every_thread_count() {
        // Chip 2 holds an idle job far longer than the tick budget while
        // the other jobs finish: the same typed error, and the same
        // merged survivor logs, at every thread count.
        let run = |threads: usize| {
            let mut cluster = cluster_of(4, threads);
            for c in 0..4 {
                cluster.submit_to(c, idle(8, 20 + c as u64));
            }
            cluster.submit_to(2, idle(4, 1 << 40));
            let err = cluster.run_until_idle(200).unwrap_err();
            (err, format!("{:?}", cluster.merged_events()))
        };
        let serial = run(1);
        let hung = ClusterError::Hung {
            ticks: 200,
            outstanding: 1,
        };
        assert_eq!(serial.0, hung);
        assert!(serial.1.contains("Completed"), "survivors finished");
        for threads in [2, 8] {
            assert_eq!(run(threads), serial, "{threads} threads");
        }
    }
}
