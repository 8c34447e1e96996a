//! The mesh network: routers wired into the cluster grid.
//!
//! [`NocNetwork`] simulates the whole router fabric cycle by cycle. Each
//! cycle has two phases: **link traversal** (output registers cross to the
//! neighbouring router's input queue, or deliver locally) and **switch
//! allocation** (each router moves at most one flit per input port into an
//! output register, with wormhole holds). Packets are reassembled at the
//! destination's local port.
//!
//! Per-worm injection and delivery timestamps are recorded: configuration
//! latency — how long a scaling worm takes to program its target switch —
//! is the quantity the Ablation C bench sweeps against region size.
//!
//! ## Fault tolerance
//!
//! Attaching a [`FaultPlan`] ([`NocNetwork::attach_fault_plan`]) arms the
//! end-to-end reliability layer, modelled on the DNP's error-notification
//! and retransmission path:
//!
//! * every packet carries a sender-side FNV-1a checksum, re-verified at
//!   reassembly — a `LinkCorrupt` flip is always detected;
//! * every worm has a delivery deadline; a missed deadline (flits wedged
//!   behind a down link or stalled router) **purges** the worm's flits
//!   from the fabric and retransmits from the source with capped
//!   exponential backoff;
//! * heads route adaptively around *permanently* dead links and routers
//!   (transient outages are cheaper to wait out in place); because the
//!   detour breaks XY's deadlock freedom, each worm gets a hop budget —
//!   the livelock bound — and a budget trip is handled like a timeout;
//! * a worm that exhausts its retransmission budget is reported as
//!   [`NocError::Undeliverable`] via [`NocNetwork::take_failed`], never
//!   dropped silently.
//!
//! Without a plan attached none of this machinery runs and the network
//! behaves bit-identically to the fault-free simulator.

use crate::error::NocError;
use crate::flit::{Flit, Packet, WormId};
use crate::router::{Port, Router};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use vlsi_faults::{payload_checksum, FaultPlan};
use vlsi_par::Pool;
use vlsi_telemetry::TelemetryHandle;
use vlsi_topology::{Coord, Dir};

/// Delivery attempts per worm before it is declared undeliverable
/// (initial send plus retransmissions).
pub const MAX_DELIVERY_ATTEMPTS: u32 = 6;
/// First retransmission backoff, in cycles; doubles per attempt.
pub const RETRY_BACKOFF_BASE: u64 = 8;
/// Retransmission backoff cap, in cycles.
pub const RETRY_BACKOFF_CAP: u64 = 512;

/// Aggregate statistics of one network run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NetworkStats {
    /// Cycles simulated so far.
    pub cycles: u64,
    /// Worms fully delivered.
    pub worms_delivered: u64,
    /// Flits delivered at local ports.
    pub flits_delivered: u64,
    /// Router-to-router link crossings.
    pub link_crossings: u64,
    /// Payload words corrupted on a faulty link.
    pub corrupted_crossings: u64,
    /// Reassemblies rejected by the end-to-end checksum.
    pub checksum_failures: u64,
    /// Worms purged after missing a delivery deadline or tripping the
    /// livelock bound.
    pub worm_timeouts: u64,
    /// Worms that exhausted their retransmission budget.
    pub undeliverable: u64,
}

#[derive(Clone, Debug)]
struct Reassembly {
    payload: Vec<u64>,
    injected_at: u64,
}

/// Sender-side state of one in-flight worm (fault-tolerant mode only).
#[derive(Clone, Debug)]
struct PendingWorm {
    src: Coord,
    dest: Coord,
    payload: Vec<u64>,
    checksum: u64,
    /// Attempts started so far (1 after the initial send).
    attempts: u32,
    /// First injection cycle — latency is measured end to end, across
    /// retransmissions.
    injected_at: u64,
    /// Cycle by which the current attempt must deliver.
    deadline: u64,
    /// Link crossings of this worm's head in the current attempt.
    hops: u64,
    /// `Some(cycle)`: purged and waiting out the backoff until `cycle`.
    retry_at: Option<u64>,
}

/// A phase-1 link crossing whose target router lives in another shard.
/// Collected during the parallel sweep and committed serially in
/// ascending source-router order — acceptance depends only on
/// cycle-start queue state (each input queue has exactly one upstream
/// register per cycle), so the deferred commit decides exactly what an
/// inline one would.
#[derive(Clone, Copy, Debug)]
struct BoundaryCrossing {
    /// Absolute source router index.
    src: u32,
    /// Output port the flit leaves `src` through.
    out_port: Port,
    /// Absolute target router index.
    dst: u32,
    /// Input port the flit enters `dst` through.
    in_port: Port,
    /// The flit as it arrives (corruption, if any, already applied).
    flit: Flit,
}

/// Per-shard tick state: the shard's loaded/woken router lists plus
/// everything phase 1 defers to the serial commit sections (deliveries,
/// boundary crossings, head hops) and shard-local tallies the owner
/// absorbs in shard order. Reused every cycle, so the steady parallel
/// path allocates nothing once the vectors have grown.
#[derive(Debug, Default)]
struct ShardScratch {
    /// Loaded routers of this shard at cycle start (absolute indices,
    /// ascending). Phase 3 leaves the next cycle's list here, so phase 1
    /// rescans `load` only when [`NocNetwork::carried_shards`] says the
    /// list cannot be trusted.
    active: Vec<u32>,
    /// Routers phase 1 woke (absolute indices; sorted before phase 3).
    woken: Vec<u32>,
    /// Phase 3's visit list under construction; swapped into `active`.
    merged: Vec<u32>,
    /// Local-port deliveries, deferred to the serial delivery commit.
    deliveries: Vec<(Coord, Flit)>,
    /// Cross-shard crossings, deferred to the serial boundary commit.
    proposals: Vec<BoundaryCrossing>,
    /// Worms whose head crossed a link inside this shard this cycle.
    hop_heads: Vec<WormId>,
    /// Shard-local `stats.link_crossings` delta.
    link_crossings: u64,
    /// Shard-local `stats.corrupted_crossings` delta.
    corrupted_crossings: u64,
    /// Flits discarded by the off-mesh debug path.
    lost: usize,
    /// Source-queue flits drained into local ports (a `queued` delta).
    queued_drained: usize,
    /// Fork of the network's telemetry handle; absorbed (drained) into
    /// the main registry in shard order at the end of the tick.
    telemetry: TelemetryHandle,
}

/// The immutable per-cycle context the shard phases read.
struct TickEnv<'a> {
    width: u16,
    height: u16,
    now: u64,
    ft: bool,
    plan: &'a FaultPlan,
    /// Whether phase 1 must rebuild the loaded-router lists from `load`
    /// instead of trusting the ones the previous cycle carried over.
    rescan: bool,
}

impl TickEnv<'_> {
    fn idx(&self, c: Coord) -> Option<usize> {
        (c.x < self.width && c.y < self.height && c.layer == 0)
            .then(|| c.y as usize * self.width as usize + c.x as usize)
    }
}

/// One shard's disjoint view of the mesh: the routers, loads, and
/// source queues of a contiguous row stripe, plus its scratch.
struct ShardView<'a> {
    /// Absolute index of the first router in this shard.
    base: usize,
    routers: &'a mut [Router],
    load: &'a mut [u32],
    injection: &'a mut [VecDeque<Flit>],
    scratch: &'a mut ShardScratch,
}

/// The router mesh.
///
/// ```
/// use vlsi_noc::NocNetwork;
/// use vlsi_topology::Coord;
///
/// let mut net = NocNetwork::new(4, 4);
/// let worm = net.inject(Coord::new(0, 0), Coord::new(3, 2), vec![1, 2, 3]).unwrap();
/// net.run_until_drained(10_000).unwrap();
/// let (packet, latency) = net.take_delivered().pop().unwrap();
/// assert_eq!(packet.worm, worm);
/// assert_eq!(packet.payload, vec![1, 2, 3]);
/// assert!(latency >= 5); // at least the Manhattan distance
/// ```
#[derive(Debug)]
pub struct NocNetwork {
    width: u16,
    height: u16,
    routers: Vec<Router>,
    /// Source queues feeding each router's local input port.
    injection: Vec<VecDeque<Flit>>,
    assembling: HashMap<WormId, Reassembly>,
    delivered: Vec<(Packet, u64)>,
    next_worm: u64,
    stats: NetworkStats,
    /// Fault schedule; empty and inert until a plan is attached.
    plan: FaultPlan,
    /// Whether the fault-tolerance layer is armed.
    ft: bool,
    /// Sender-side tracking of undelivered worms, in worm order so
    /// timeout/retry processing is deterministic.
    pending: BTreeMap<WormId, PendingWorm>,
    /// Worms that exhausted their retransmission budget.
    failed: Vec<(WormId, NocError)>,
    /// Flits resident anywhere in the fabric (source queues, input
    /// queues, output registers), maintained incrementally so the
    /// steady-state tick and [`Self::is_idle`] never rescan the mesh.
    resident: usize,
    /// Flits waiting in the source queues — the `noc.queue_depth`
    /// sample, maintained incrementally instead of summed per cycle.
    queued: usize,
    /// Per-router flit load (that router's source queue, input queues,
    /// and output registers). A zero-load router is a no-op in every
    /// per-router phase, so [`Self::tick`] skips it — on a large mesh
    /// with a handful of worms in flight, almost all of them.
    load: Vec<u32>,
    /// Scratch for phase 0's due-retry collection (reused every tick so
    /// the steady path allocates nothing).
    due_scratch: Vec<WormId>,
    /// Scratch for phase 4's expired-worm collection.
    expired_scratch: Vec<WormId>,
    /// Execution pool for the sharded tick. The default is the inline
    /// serial pool; [`Self::set_parallel`] attaches a threaded one.
    pool: Arc<Pool>,
    /// Resident-flit threshold below which the tick stays single-shard
    /// (fan-out overhead beats the win on a near-empty mesh). The shard
    /// schedule is bit-identical at every shard count, so this gate can
    /// never change results.
    par_min_resident: usize,
    /// Per-shard tick scratch, grown lazily to the shard count in use.
    shard_scratch: Vec<ShardScratch>,
    /// The shard count whose scratch `active` lists hold exactly the
    /// loaded routers, or 0 when they cannot be trusted: anything that
    /// touches `load` outside [`Self::move_flits`] ([`Self::inject`],
    /// [`Self::retransmit`], [`Self::purge_and_backoff`]) zeroes it, and
    /// a tick at any other shard count rescans.
    carried_shards: usize,
    /// Observability sink; the default handle is a no-op.
    telemetry: TelemetryHandle,
}

impl Clone for NocNetwork {
    fn clone(&self) -> NocNetwork {
        NocNetwork {
            width: self.width,
            height: self.height,
            routers: self.routers.clone(),
            injection: self.injection.clone(),
            assembling: self.assembling.clone(),
            delivered: self.delivered.clone(),
            next_worm: self.next_worm,
            stats: self.stats.clone(),
            plan: self.plan.clone(),
            ft: self.ft,
            pending: self.pending.clone(),
            failed: self.failed.clone(),
            resident: self.resident,
            queued: self.queued,
            load: self.load.clone(),
            due_scratch: Vec::new(),
            expired_scratch: Vec::new(),
            pool: Arc::clone(&self.pool),
            par_min_resident: self.par_min_resident,
            // Fresh scratch, not a clone: shard telemetry forks are
            // drained by absorption, so sharing them between clones
            // would cross-talk; scratch content is transient anyway.
            shard_scratch: Vec::new(),
            carried_shards: 0,
            telemetry: self.telemetry.clone(),
        }
    }
}

impl NocNetwork {
    /// A `width × height` mesh with one router per cluster (telemetry
    /// disabled).
    pub fn new(width: u16, height: u16) -> NocNetwork {
        NocNetwork::with_telemetry(width, height, TelemetryHandle::disabled())
    }

    /// A `width × height` mesh recording into `telemetry`:
    /// `noc.*` counters (link crossings, retransmissions, misroutes,
    /// per-link utilization lanes), the `noc.queue_depth` and
    /// `noc.latency` histograms, and per-worm trace spans on the `noc`
    /// track, all stamped with the network's own cycle counter.
    pub fn with_telemetry(width: u16, height: u16, telemetry: TelemetryHandle) -> NocNetwork {
        let routers = (0..height)
            .flat_map(|y| (0..width).map(move |x| Router::new(Coord::new(x, y))))
            .collect::<Vec<_>>();
        let n = routers.len();
        NocNetwork {
            width,
            height,
            routers,
            injection: vec![VecDeque::new(); n],
            assembling: HashMap::new(),
            delivered: Vec::new(),
            next_worm: 0,
            stats: NetworkStats::default(),
            plan: FaultPlan::none(),
            ft: false,
            pending: BTreeMap::new(),
            failed: Vec::new(),
            resident: 0,
            queued: 0,
            load: vec![0; n],
            due_scratch: Vec::new(),
            expired_scratch: Vec::new(),
            pool: Pool::serial(),
            par_min_resident: 0,
            shard_scratch: Vec::new(),
            carried_shards: 0,
            telemetry,
        }
    }

    /// Attaches a worker pool: ticks shard the mesh into contiguous row
    /// stripes (one per pool executor, capped at the mesh height) and run
    /// the router-local phases in parallel. The shard schedule commits
    /// cross-shard effects serially in fixed order, so a run at any
    /// thread count is **bit-identical** to the serial run — same flit
    /// order, same stats, same telemetry export.
    ///
    /// `min_resident` gates the fan-out: cycles with fewer resident
    /// flits stay single-shard (pure overhead control; never observable
    /// in results). Pass `0` to shard every loaded cycle.
    pub fn set_parallel(&mut self, pool: Arc<Pool>, min_resident: usize) {
        self.pool = pool;
        self.par_min_resident = min_resident;
    }

    /// Shards the next loaded tick would fan out over.
    fn shard_count(&self) -> usize {
        let t = self.pool.threads();
        if t <= 1 || self.resident < self.par_min_resident {
            1
        } else {
            t.min(usize::from(self.height)).max(1)
        }
    }

    /// The telemetry handle this network records into.
    pub fn telemetry(&self) -> &TelemetryHandle {
        &self.telemetry
    }

    fn idx(&self, c: Coord) -> Option<usize> {
        (c.x < self.width && c.y < self.height && c.layer == 0)
            .then(|| c.y as usize * self.width as usize + c.x as usize)
    }

    /// Mesh width.
    pub fn width(&self) -> u16 {
        self.width
    }

    /// Mesh height.
    pub fn height(&self) -> u16 {
        self.height
    }

    /// Arms the fault-tolerance layer with a fault schedule (times are
    /// interpreted as network cycles). Attach before injecting: worms
    /// already in flight keep their fault-free bookkeeping. Attaching
    /// even an empty plan enables checksums, timeouts, and
    /// retransmission.
    pub fn attach_fault_plan(&mut self, plan: FaultPlan) {
        self.plan = plan;
        self.ft = true;
    }

    /// The attached fault schedule, if the tolerance layer is armed.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.ft.then_some(&self.plan)
    }

    /// Worms declared undeliverable so far (clears the list). Each entry
    /// is a typed [`NocError::Undeliverable`] — the graceful-degradation
    /// signal callers react to.
    pub fn take_failed(&mut self) -> Vec<(WormId, NocError)> {
        std::mem::take(&mut self.failed)
    }

    /// Worms injected but neither delivered nor declared undeliverable.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Per-attempt delivery budget: generous slack over the contention-
    /// free latency so congestion alone rarely trips it.
    fn delivery_budget(&self, src: Coord, dest: Coord, flits: usize) -> u64 {
        let dist = u64::from(src.x.abs_diff(dest.x)) + u64::from(src.y.abs_diff(dest.y));
        16 * (dist + flits as u64) + 256
    }

    /// Livelock bound: adaptive detours may wander, but never farther
    /// than a few mesh perimeters.
    fn hop_budget(&self) -> u64 {
        4 * (u64::from(self.width) + u64::from(self.height)) + 64
    }

    /// Injects a packet at `src` toward `dest`. The flits wait in the
    /// source queue and enter the router as its local port frees.
    pub fn inject(
        &mut self,
        src: Coord,
        dest: Coord,
        payload: Vec<u64>,
    ) -> Result<WormId, NocError> {
        let si = self.idx(src).ok_or(NocError::OutOfGrid(src))?;
        self.idx(dest).ok_or(NocError::OutOfGrid(dest))?;
        let worm = WormId(self.next_worm);
        self.next_worm += 1;
        let packet = Packet {
            worm,
            dest,
            payload,
        };
        self.assembling.insert(
            worm,
            Reassembly {
                payload: Vec::new(),
                injected_at: self.stats.cycles,
            },
        );
        if self.ft {
            let deadline = self.stats.cycles + self.delivery_budget(src, dest, packet.flit_count());
            self.pending.insert(
                worm,
                PendingWorm {
                    src,
                    dest,
                    payload: packet.payload.clone(),
                    checksum: payload_checksum(&packet.payload),
                    attempts: 1,
                    injected_at: self.stats.cycles,
                    deadline,
                    hops: 0,
                    retry_at: None,
                },
            );
        }
        for f in packet.flits() {
            self.injection[si].push_back(f);
            self.resident += 1;
            self.queued += 1;
            self.load[si] += 1;
        }
        self.carried_shards = 0;
        self.telemetry
            .span_begin("noc", "worm", worm.0, self.stats.cycles);
        Ok(worm)
    }

    /// Advances the network one cycle.
    ///
    /// The steady path is allocation-free: the due/expired collections of
    /// phases 0/4 reuse persistent scratch buffers, the queue-depth
    /// sample reads an incrementally-maintained counter instead of
    /// summing every source queue, and the per-router phases are skipped
    /// outright when no flit is resident anywhere (only the cycle
    /// counter and the fault-timeout machinery can matter then).
    pub fn tick(&mut self) {
        self.stats.cycles += 1;
        let now = self.stats.cycles;
        if self.telemetry.is_enabled() {
            // Aggregate occupancy of the source queues this cycle — the
            // backpressure signal congestion experiments sweep.
            self.telemetry.record("noc.queue_depth", self.queued as u64);
        }
        // Phase 0 (fault-tolerant mode): retransmit purged worms whose
        // backoff has elapsed, in worm order.
        if self.ft && !self.pending.is_empty() {
            let mut due = std::mem::take(&mut self.due_scratch);
            due.clear();
            due.extend(
                self.pending
                    .iter()
                    .filter(|(_, p)| p.retry_at.is_some_and(|at| at <= now))
                    .map(|(&w, _)| w),
            );
            for &worm in &due {
                self.retransmit(worm);
            }
            self.due_scratch = due;
        }
        if self.resident > 0 {
            self.move_flits(now);
        }
        // Phase 4 (fault-tolerant mode): enforce deadlines and the
        // livelock bound.
        if self.ft && !self.pending.is_empty() {
            let hop_budget = self.hop_budget();
            let mut expired = std::mem::take(&mut self.expired_scratch);
            expired.clear();
            expired.extend(
                self.pending
                    .iter()
                    .filter(|(_, p)| {
                        p.retry_at.is_none() && (p.deadline <= now || p.hops > hop_budget)
                    })
                    .map(|(&w, _)| w),
            );
            for &worm in &expired {
                self.stats.worm_timeouts += 1;
                self.purge_and_backoff(worm);
            }
            self.expired_scratch = expired;
        }
    }

    /// Phases 1–3 of [`Self::tick`]: link traversal, injection, and
    /// allocation, over row-stripe shards. Only called while at least one
    /// flit is resident.
    ///
    /// One schedule serves every shard count (1 = serial), which is what
    /// makes parallel runs bit-identical to serial ones:
    ///
    /// 1. **Phase 1** (parallel): each shard walks its loaded routers in
    ///    ascending order — the list the previous cycle's phase 3 carried
    ///    over, so a cycle costs its flits and not the die; `load` is
    ///    rescanned only after something outside this function touched it
    ///    or the shard count changed. Own-shard crossings commit immediately;
    ///    cross-shard crossings and local deliveries are deferred. Every
    ///    accept decision depends only on cycle-start queue state (pops
    ///    happen in phase 3, and each input queue has exactly one
    ///    upstream register), so deferral never changes what is accepted.
    /// 2. **Boundary commit** (serial): deferred crossings land in
    ///    ascending source-router order.
    /// 3. **Stat/hop absorption** (serial, shard order): commutative
    ///    tallies fold into the global stats.
    /// 4. **Delivery commit** (serial): local-port flits reach
    ///    [`Self::deliver`] in ascending router order — reassembly,
    ///    checksum verdicts, and any resulting purge touch cross-shard
    ///    state, so they stay on the owner thread.
    /// 5. **Phases 2+3** (parallel): source-queue drain and switch
    ///    allocation, fused per router — both read and write only that
    ///    router's own queues and registers.
    /// 6. **Queued/telemetry absorption** (serial, shard order).
    fn move_flits(&mut self, now: u64) {
        let shards = self.shard_count();
        if self.shard_scratch.len() < shards {
            self.shard_scratch
                .resize_with(shards, ShardScratch::default);
        }
        // The lists phase 3 left behind are this cycle's loaded routers
        // unless `load` was touched since, or the stripes moved.
        let rescan = std::mem::replace(&mut self.carried_shards, shards) != shards;
        if self.telemetry.is_enabled() {
            if shards == 1 {
                // One shard runs the exact serial schedule, so record
                // straight into the main registry (the end-of-tick absorb
                // no-ops on a shared registry) — the telemetry-enabled
                // serial tick costs exactly what it did before sharding.
                self.shard_scratch[0].telemetry = self.telemetry.clone();
            } else {
                for sc in &mut self.shard_scratch[..shards] {
                    sc.telemetry = self.telemetry.fork();
                }
            }
        }
        let pool = Arc::clone(&self.pool);
        let (w, h) = (usize::from(self.width), usize::from(self.height));

        // 1. Phase 1: route-compute plus own-shard commit.
        run_sharded(
            &pool,
            shards,
            w,
            h,
            &mut self.routers,
            &mut self.load,
            &mut self.injection,
            &mut self.shard_scratch[..shards],
            &TickEnv {
                width: self.width,
                height: self.height,
                now,
                ft: self.ft,
                plan: &self.plan,
                rescan,
            },
            shard_phase1,
        );

        // 2. Boundary commit, globally ascending source order: shards
        // cover ascending router ranges and each shard's proposals are
        // already ascending, so shard-order concatenation preserves the
        // serial visit order.
        for s in 0..shards {
            if self.shard_scratch[s].proposals.is_empty() {
                continue;
            }
            let mut proposals = std::mem::take(&mut self.shard_scratch[s].proposals);
            for p in &proposals {
                let (src, dst) = (p.src as usize, p.dst as usize);
                if self.routers[dst].accept(p.in_port, p.flit).is_err() {
                    // Backpressure: the source register keeps the original
                    // (uncorrupted) flit, exactly like an inline attempt.
                    continue;
                }
                self.routers[src].outputs[p.out_port.index()].reg = None;
                if p.flit.is_tail() {
                    self.routers[src].outputs[p.out_port.index()].held_by = None;
                }
                self.load[src] -= 1;
                if self.load[dst] == 0 {
                    // The woken router allocates in phase 3 on its own
                    // shard's merged list.
                    let owner = owner_shard(dst / w, h, shards);
                    self.shard_scratch[owner].woken.push(dst as u32);
                }
                self.load[dst] += 1;
                self.stats.link_crossings += 1;
                self.telemetry.count("noc.link_crossings", 1);
                self.telemetry.count_at(
                    "noc.link_util",
                    u64::from(p.src) * 5 + p.out_port.index() as u64,
                    1,
                );
                if self.ft && matches!(p.flit, Flit::Head { .. }) {
                    if let Some(pd) = self.pending.get_mut(&p.flit.worm()) {
                        pd.hops += 1;
                    }
                }
            }
            proposals.clear();
            self.shard_scratch[s].proposals = proposals;
        }

        // 3. Stat and head-hop absorption, shard order (commutative
        // sums, so the totals equal a serial run's).
        for s in 0..shards {
            let sc = &mut self.shard_scratch[s];
            let crossings = std::mem::take(&mut sc.link_crossings);
            let corrupted = std::mem::take(&mut sc.corrupted_crossings);
            let lost = std::mem::take(&mut sc.lost);
            self.stats.link_crossings += crossings;
            self.stats.corrupted_crossings += corrupted;
            self.resident = self.resident.saturating_sub(lost);
        }
        if self.ft {
            for s in 0..shards {
                let heads = std::mem::take(&mut self.shard_scratch[s].hop_heads);
                for worm in &heads {
                    if let Some(p) = self.pending.get_mut(worm) {
                        p.hops += 1;
                    }
                }
                let mut heads = heads;
                heads.clear();
                self.shard_scratch[s].hop_heads = heads;
            }
        }

        // 4. Delivery commit in globally ascending router order. At every
        // shard count the fabric state here is "all phase-1 crossings
        // applied", so a checksum-failure purge sees the same mesh
        // regardless of sharding.
        for s in 0..shards {
            if self.shard_scratch[s].deliveries.is_empty() {
                continue;
            }
            let mut deliveries = std::mem::take(&mut self.shard_scratch[s].deliveries);
            for &(coord, flit) in &deliveries {
                self.deliver(coord, flit);
            }
            deliveries.clear();
            self.shard_scratch[s].deliveries = deliveries;
        }

        // 5. Phases 2+3: source-queue drain and allocation, router-local.
        run_sharded(
            &pool,
            shards,
            w,
            h,
            &mut self.routers,
            &mut self.load,
            &mut self.injection,
            &mut self.shard_scratch[..shards],
            &TickEnv {
                width: self.width,
                height: self.height,
                now,
                ft: self.ft,
                plan: &self.plan,
                rescan,
            },
            shard_phase23,
        );

        // 6. Queued and telemetry absorption, shard order.
        for s in 0..shards {
            self.queued -= std::mem::take(&mut self.shard_scratch[s].queued_drained);
        }
        if self.telemetry.is_enabled() {
            for s in 0..shards {
                self.telemetry.absorb(&self.shard_scratch[s].telemetry);
            }
        }
    }

    /// Removes every trace of `worm` from the fabric (source queues,
    /// input queues, bindings, output holds, partial reassembly), then
    /// either schedules a retransmission after an exponential backoff or
    /// declares the worm undeliverable.
    fn purge_and_backoff(&mut self, worm: WormId) {
        self.carried_shards = 0;
        for ri in 0..self.routers.len() {
            for in_port in Port::ALL {
                // A binding belongs to `worm` iff its output is held by it.
                if let Some(out) = self.routers[ri].bindings[in_port.index()] {
                    if self.routers[ri].outputs[out.index()].held_by == Some(worm) {
                        self.routers[ri].bindings[in_port.index()] = None;
                    }
                }
                let q = &mut self.routers[ri].inputs[in_port.index()];
                let before = q.len();
                q.retain(|f| f.worm() != worm);
                let removed = before - q.len();
                self.resident -= removed;
                self.load[ri] -= removed as u32;
            }
            for out in Port::ALL {
                let o = &mut self.routers[ri].outputs[out.index()];
                if o.reg.is_some_and(|f| f.worm() == worm) {
                    o.reg = None;
                    self.resident -= 1;
                    self.load[ri] -= 1;
                }
                if o.held_by == Some(worm) {
                    o.held_by = None;
                }
            }
            let before = self.injection[ri].len();
            self.injection[ri].retain(|f| f.worm() != worm);
            let removed = before - self.injection[ri].len();
            self.resident -= removed;
            self.queued -= removed;
            self.load[ri] -= removed as u32;
        }
        if let Some(r) = self.assembling.get_mut(&worm) {
            r.payload.clear();
        }
        let now = self.stats.cycles;
        let Some(p) = self.pending.get_mut(&worm) else {
            return;
        };
        if p.attempts >= MAX_DELIVERY_ATTEMPTS {
            self.pending.remove(&worm);
            self.assembling.remove(&worm);
            self.stats.undeliverable += 1;
            self.failed.push((
                worm,
                NocError::Undeliverable {
                    worm,
                    attempts: MAX_DELIVERY_ATTEMPTS,
                },
            ));
            return;
        }
        let backoff = (RETRY_BACKOFF_BASE << p.attempts.min(16)).min(RETRY_BACKOFF_CAP);
        p.retry_at = Some(now + backoff);
    }

    /// Re-injects a purged worm's flits at its source.
    fn retransmit(&mut self, worm: WormId) {
        let Some(p) = self.pending.get_mut(&worm) else {
            return;
        };
        p.attempts += 1;
        p.hops = 0;
        p.retry_at = None;
        let (src, dest, payload, injected_at) = (p.src, p.dest, p.payload.clone(), p.injected_at);
        let budget = self.delivery_budget(src, dest, payload.len().max(1) + 1);
        if let Some(p) = self.pending.get_mut(&worm) {
            p.deadline = self.stats.cycles + budget;
        }
        self.assembling.insert(
            worm,
            Reassembly {
                payload: Vec::new(),
                injected_at,
            },
        );
        self.telemetry.count("noc.retransmissions", 1);
        self.telemetry
            .instant("noc", "retransmit", worm.0, self.stats.cycles);
        let si = self.idx(src).expect("pending worm has an on-grid source");
        self.carried_shards = 0;
        for f in (Packet {
            worm,
            dest,
            payload,
        })
        .flits()
        {
            self.injection[si].push_back(f);
            self.resident += 1;
            self.queued += 1;
            self.load[si] += 1;
        }
    }

    fn deliver(&mut self, _at: Coord, flit: Flit) {
        self.stats.flits_delivered += 1;
        self.resident = self.resident.saturating_sub(1);
        let worm = flit.worm();
        let done = flit.is_tail();
        if let Some(r) = self.assembling.get_mut(&worm) {
            match flit {
                Flit::Body { data, .. } | Flit::Tail { data, .. } => r.payload.push(data),
                Flit::Head { .. } => {}
            }
            if !done {
                return;
            }
            let Some(r) = self.assembling.remove(&worm) else {
                return;
            };
            if self.ft {
                if let Some(p) = self.pending.get(&worm) {
                    if payload_checksum(&r.payload) != p.checksum {
                        // Corrupted in transit: reject the reassembly and
                        // retransmit end to end.
                        self.stats.checksum_failures += 1;
                        self.assembling.insert(
                            worm,
                            Reassembly {
                                payload: Vec::new(),
                                injected_at: r.injected_at,
                            },
                        );
                        self.purge_and_backoff(worm);
                        return;
                    }
                }
                self.pending.remove(&worm);
            }
            let latency = self.stats.cycles - r.injected_at;
            self.telemetry.record("noc.latency", latency);
            self.telemetry
                .span_end("noc", "worm", worm.0, self.stats.cycles);
            self.delivered.push((
                Packet {
                    worm,
                    dest: _at,
                    payload: r.payload,
                },
                latency,
            ));
            self.stats.worms_delivered += 1;
        }
    }

    /// Whether any flit is in flight anywhere (in fault-tolerant mode,
    /// also: no worm awaiting retransmission or a verdict).
    pub fn is_idle(&self) -> bool {
        debug_assert_eq!(
            self.resident == 0,
            self.injection.iter().all(|q| q.is_empty()) && self.routers.iter().all(|r| r.is_idle()),
            "resident counter must mirror the mesh scan"
        );
        self.resident == 0 && self.pending.is_empty()
    }

    /// Ticks until idle, up to `max_cycles`. In fault-tolerant mode a
    /// drained network means every worm was delivered-and-verified or
    /// reported undeliverable — inspect [`take_failed`](Self::take_failed).
    pub fn run_until_drained(&mut self, max_cycles: u64) -> Result<(), NocError> {
        for _ in 0..max_cycles {
            if self.is_idle() {
                return Ok(());
            }
            self.tick();
        }
        if self.is_idle() {
            Ok(())
        } else {
            Err(NocError::Timeout {
                cycles: self.stats.cycles,
            })
        }
    }

    /// Takes all packets delivered so far (with their latency in cycles).
    pub fn take_delivered(&mut self) -> Vec<(Packet, u64)> {
        std::mem::take(&mut self.delivered)
    }

    /// The delivery latency of a worm that has arrived and has not been
    /// [taken](Self::take_delivered) yet — the packet carries its latency
    /// out with it, so a network retains nothing per worm it has served.
    pub fn worm_latency(&self, worm: WormId) -> Option<u64> {
        let (_, latency) = self.delivered.iter().find(|(p, _)| p.worm == worm)?;
        Some(*latency)
    }

    /// Current statistics.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }
}

/// Which row stripe owns `row` under the `(s + 1) * height / shards`
/// boundary rule [`run_sharded`] splits with.
fn owner_shard(row: usize, height: usize, shards: usize) -> usize {
    (0..shards)
        .find(|&s| row < (s + 1) * height / shards)
        .unwrap_or(shards - 1)
}

/// Splits the mesh into `shards` contiguous row stripes and runs `f` once
/// per stripe on the pool. With one shard everything runs inline on the
/// caller — no `Mutex`, no `Vec`, no fan-out — so the serial tick keeps
/// its allocation-free steady path and the parallel tick is *the same
/// code* at a different shard count.
#[allow(clippy::too_many_arguments)]
fn run_sharded(
    pool: &Pool,
    shards: usize,
    width: usize,
    height: usize,
    mut routers: &mut [Router],
    mut load: &mut [u32],
    mut injection: &mut [VecDeque<Flit>],
    mut scratch: &mut [ShardScratch],
    env: &TickEnv<'_>,
    f: fn(&mut ShardView<'_>, &TickEnv<'_>),
) {
    if shards == 1 {
        f(
            &mut ShardView {
                base: 0,
                routers,
                load,
                injection,
                scratch: &mut scratch[0],
            },
            env,
        );
        return;
    }
    // The Mutex is lock-uncontended by construction (exactly one task per
    // shard); it exists to hand each worker a `&mut` view through the
    // shared closure.
    let mut work: Vec<Mutex<ShardView<'_>>> = Vec::with_capacity(shards);
    let mut base = 0usize;
    for s in 0..shards {
        let end = (s + 1) * height / shards * width;
        let take = end - base;
        let (r, rest) = routers.split_at_mut(take);
        routers = rest;
        let (l, rest) = load.split_at_mut(take);
        load = rest;
        let (i, rest) = injection.split_at_mut(take);
        injection = rest;
        let (sc, rest) = scratch.split_at_mut(1);
        scratch = rest;
        work.push(Mutex::new(ShardView {
            base,
            routers: r,
            load: l,
            injection: i,
            scratch: &mut sc[0],
        }));
        base = end;
    }
    pool.run(shards, &|s| {
        let mut view = work[s].lock().unwrap_or_else(|e| e.into_inner());
        f(&mut view, env);
    });
}

/// The routers of a shard starting at absolute index `base` that hold a
/// flit, ascending — the scan the carried lists stand in for.
fn loaded_routers(load: &[u32], base: usize) -> impl Iterator<Item = u32> + '_ {
    let loaded = (0..load.len()).filter(|&i| load[i] > 0);
    loaded.map(move |i| (base + i) as u32)
}

/// Phase 1 over one shard: link traversal of the shard's loaded routers,
/// in ascending index order. Own-shard crossings commit in place;
/// deliveries and cross-shard crossings are deferred to the serial commit
/// sections. See [`NocNetwork::move_flits`] for the full schedule.
fn shard_phase1(v: &mut ShardView<'_>, env: &TickEnv<'_>) {
    let base = v.base;
    let end = base + v.routers.len();
    let ShardScratch {
        active,
        woken,
        deliveries,
        proposals,
        hop_heads,
        link_crossings,
        corrupted_crossings,
        lost,
        queued_drained: _,
        telemetry,
        merged: _,
    } = &mut *v.scratch;
    woken.clear();
    if env.rescan {
        active.clear();
        active.extend(loaded_routers(v.load, base));
    } else {
        debug_assert_eq!(
            *active,
            loaded_routers(v.load, base).collect::<Vec<u32>>(),
            "carried router list must mirror the load scan"
        );
    }
    for &ri32 in active.iter() {
        let ri = ri32 as usize;
        let li = ri - base;
        let coord = v.routers[li].coord;
        for port in Port::ALL {
            let Some(mut flit) = v.routers[li].outputs[port.index()].reg else {
                continue;
            };
            match port {
                Port::Local => {
                    // Local sinks always accept; the delivery itself
                    // (reassembly, checksum verdict, possible purge) runs
                    // in the serial delivery commit.
                    v.routers[li].outputs[port.index()].reg = None;
                    if flit.is_tail() {
                        v.routers[li].outputs[port.index()].held_by = None;
                    }
                    v.load[li] -= 1;
                    deliveries.push((coord, flit));
                }
                _ => {
                    let Some(d) = port.dir() else { continue };
                    if env.ft && env.plan.link_blocked(env.now, coord, d) {
                        // Link down: the flit waits in the register.
                        continue;
                    }
                    let Some(nc) = coord.step(d) else {
                        // Edge of the mesh: XY routing never does this.
                        debug_assert!(false, "flit routed off the mesh");
                        v.routers[li].outputs[port.index()].reg = None;
                        *lost += 1;
                        v.load[li] = v.load[li].saturating_sub(1);
                        continue;
                    };
                    let Some(ni) = env.idx(nc) else {
                        debug_assert!(false, "flit routed off the mesh");
                        v.routers[li].outputs[port.index()].reg = None;
                        *lost += 1;
                        v.load[li] = v.load[li].saturating_sub(1);
                        continue;
                    };
                    let Some(in_port) = Port::from_dir(d.opposite()) else {
                        continue;
                    };
                    if env.ft {
                        if let Some(mask) = env.plan.corruption(env.now, coord, d) {
                            // Faulty link: payload words flip in transit.
                            // Counted at crossing-attempt time (even if the
                            // neighbour then refuses the flit), matching
                            // the serial accounting.
                            match &mut flit {
                                Flit::Body { data, .. } | Flit::Tail { data, .. } => {
                                    *data ^= mask;
                                    *corrupted_crossings += 1;
                                }
                                Flit::Head { .. } => {}
                            }
                        }
                    }
                    if (base..end).contains(&ni) {
                        // Own-shard crossing: commit immediately.
                        let nli = ni - base;
                        if v.routers[nli].accept(in_port, flit).is_ok() {
                            v.routers[li].outputs[port.index()].reg = None;
                            if flit.is_tail() {
                                v.routers[li].outputs[port.index()].held_by = None;
                            }
                            v.load[li] -= 1;
                            if v.load[nli] == 0 {
                                woken.push(ni as u32);
                            }
                            v.load[nli] += 1;
                            *link_crossings += 1;
                            telemetry.count("noc.link_crossings", 1);
                            // One utilization lane per directed link,
                            // keyed router-major: router*5 + output port.
                            telemetry.count_at(
                                "noc.link_util",
                                ri as u64 * 5 + port.index() as u64,
                                1,
                            );
                            if env.ft && matches!(flit, Flit::Head { .. }) {
                                hop_heads.push(flit.worm());
                            }
                        }
                    } else {
                        // Cross-shard: the neighbour belongs to another
                        // stripe. Defer to the serial boundary commit.
                        proposals.push(BoundaryCrossing {
                            src: ri as u32,
                            out_port: port,
                            dst: ni as u32,
                            in_port,
                            flit,
                        });
                    }
                }
            }
        }
    }
}

/// Phases 2+3 over one shard, fused per router: drain the router's source
/// queue into its local input port, then allocate the switch (one flit
/// per input port). Both touch only that router's own queues and
/// registers, so the per-router fusion is observably identical to the
/// all-phase-2-then-all-phase-3 serial order. The visit list is the
/// cycle-start snapshot merged (ascending) with the routers phase 1 woke.
/// A router can be in both — it drained in phase 1 and a later neighbour
/// refilled it — so equal heads advance both cursors and it is visited
/// once. Loads do not change in these phases, so the routers visited
/// holding a flit are exactly the next cycle's loaded routers: they are
/// left in `active` for its phase 1.
fn shard_phase23(v: &mut ShardView<'_>, env: &TickEnv<'_>) {
    let base = v.base;
    let ShardScratch {
        active,
        woken,
        merged,
        queued_drained,
        telemetry,
        ..
    } = &mut *v.scratch;
    woken.sort_unstable();
    merged.clear();
    let mut wi = 0;
    let mut ai = 0;
    loop {
        let ri = match (active.get(ai), woken.get(wi)) {
            (Some(&a), Some(&w)) => {
                ai += usize::from(a <= w);
                wi += usize::from(w <= a);
                a.min(w)
            }
            (Some(&a), None) => {
                ai += 1;
                a
            }
            (None, Some(&w)) => {
                wi += 1;
                w
            }
            (None, None) => break,
        };
        let li = ri as usize - base;
        if v.load[li] == 0 {
            continue;
        }
        merged.push(ri);
        // Phase 2: feed this router's source queue into its local input
        // port. Safe to skip via the load check above — a zero-load
        // router's source queue is empty (load counts queued flits), and
        // safe to run for woken routers — they had zero load at cycle
        // start, so their queues were empty then and nothing refills them
        // mid-tick.
        while let Some(&f) = v.injection[li].front() {
            if v.routers[li].accept(Port::Local, f).is_err() {
                break; // backpressure: the flit stays in the source queue
            }
            v.injection[li].pop_front();
            *queued_drained += 1;
        }
        let coord = v.routers[li].coord;
        if env.ft && env.plan.router_stalled(env.now, coord) {
            continue; // stalled router: queues do not drain this cycle
        }
        for port in Port::ALL {
            if env.ft {
                allocate_adaptive(&mut v.routers[li], port, env, telemetry);
            } else {
                let _ = v.routers[li].allocate(port);
            }
        }
    }
    std::mem::swap(active, merged);
}

/// Allocation with adaptive head steering: heads detour around
/// permanently dead links/routers; body and tail flits follow their
/// binding unchanged.
fn allocate_adaptive(
    r: &mut Router,
    in_port: Port,
    env: &TickEnv<'_>,
    telemetry: &TelemetryHandle,
) {
    let Some(&flit) = r.inputs[in_port.index()].front() else {
        return;
    };
    let coord = r.coord;
    let out = match flit {
        Flit::Head { dest, .. } => {
            let xy = r.route(dest);
            let Some(chosen) = adaptive_route(env, coord, dest) else {
                return; // nowhere to go: wait for the timeout to purge
            };
            if chosen != xy {
                telemetry.count("noc.misroutes", 1);
            }
            chosen
        }
        Flit::Body { .. } | Flit::Tail { .. } => {
            let Some(bound) = r.bindings[in_port.index()] else {
                return;
            };
            bound
        }
    };
    let _ = r.allocate_toward(in_port, out);
}

/// The output port a head for `dest` should take from `at`, avoiding
/// permanently dead links and routers. Preference order is fixed —
/// productive X, productive Y, then the remaining planar directions —
/// so routing stays deterministic.
fn adaptive_route(env: &TickEnv<'_>, at: Coord, dest: Coord) -> Option<Port> {
    if dest.x == at.x && dest.y == at.y {
        return Some(Port::Local);
    }
    let now = env.now;
    let px = if dest.x > at.x {
        Some(Dir::East)
    } else if dest.x < at.x {
        Some(Dir::West)
    } else {
        None
    };
    let py = if dest.y > at.y {
        Some(Dir::South)
    } else if dest.y < at.y {
        Some(Dir::North)
    } else {
        None
    };
    // Preference list on the stack — this runs per head flit per
    // cycle, so it must not allocate.
    let mut prefs = [Dir::East; 4];
    let mut n = 0usize;
    if let Some(d) = px {
        prefs[n] = d;
        n += 1;
    }
    if let Some(d) = py {
        prefs[n] = d;
        n += 1;
    }
    // Perpendicular detours before backtracking: a sideways hop opens
    // a fresh productive path, a backward hop just undoes one and
    // invites ping-pong with the previous router.
    for d in [Dir::East, Dir::West, Dir::South, Dir::North] {
        if prefs[..n].contains(&d)
            || Some(d) == px.map(Dir::opposite)
            || Some(d) == py.map(Dir::opposite)
        {
            continue;
        }
        prefs[n] = d;
        n += 1;
    }
    for d in [Dir::East, Dir::West, Dir::South, Dir::North] {
        if !prefs[..n].contains(&d) {
            prefs[n] = d;
            n += 1;
        }
    }
    for d in prefs.into_iter().take(n) {
        let Some(nc) = at.step(d) else { continue };
        if env.idx(nc).is_none() {
            continue;
        }
        if env.plan.link_dead(now, at, d) || env.plan.router_dead(now, nc) {
            continue;
        }
        return Port::from_dir(d);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_faults::{Fault, FaultKind};

    #[test]
    fn single_packet_delivery() {
        let mut net = NocNetwork::new(4, 4);
        let worm = net
            .inject(Coord::new(0, 0), Coord::new(3, 2), vec![1, 2, 3])
            .unwrap();
        net.run_until_drained(1_000).unwrap();
        let delivered = net.take_delivered();
        assert_eq!(delivered.len(), 1);
        let (p, latency) = &delivered[0];
        assert_eq!(p.worm, worm);
        assert_eq!(p.dest, Coord::new(3, 2));
        assert_eq!(p.payload, vec![1, 2, 3]);
        // 5 hops Manhattan + per-hop pipeline: latency strictly > distance.
        assert!(*latency >= 5, "latency {latency}");
    }

    #[test]
    fn self_delivery_works() {
        let mut net = NocNetwork::new(2, 2);
        net.inject(Coord::new(1, 1), Coord::new(1, 1), vec![42])
            .unwrap();
        net.run_until_drained(100).unwrap();
        let d = net.take_delivered();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].0.payload, vec![42]);
    }

    #[test]
    fn payload_order_preserved() {
        let mut net = NocNetwork::new(8, 1);
        let payload: Vec<u64> = (0..32).collect();
        net.inject(Coord::new(0, 0), Coord::new(7, 0), payload.clone())
            .unwrap();
        net.run_until_drained(10_000).unwrap();
        assert_eq!(net.take_delivered()[0].0.payload, payload);
    }

    #[test]
    fn many_packets_all_arrive() {
        let mut net = NocNetwork::new(4, 4);
        let mut expected = HashMap::new();
        for y in 0..4u16 {
            for x in 0..4u16 {
                let worm = net
                    .inject(
                        Coord::new(x, y),
                        Coord::new(3 - x, 3 - y),
                        vec![u64::from(x) * 10 + u64::from(y)],
                    )
                    .unwrap();
                expected.insert(
                    worm,
                    (Coord::new(3 - x, 3 - y), u64::from(x) * 10 + u64::from(y)),
                );
            }
        }
        net.run_until_drained(100_000).unwrap();
        let delivered = net.take_delivered();
        assert_eq!(delivered.len(), 16);
        for (p, _) in delivered {
            let (dest, data) = expected[&p.worm];
            assert_eq!(p.dest, dest);
            assert_eq!(p.payload, vec![data]);
        }
    }

    #[test]
    fn contention_serialises_but_delivers() {
        // Two long worms fighting for the same column.
        let mut net = NocNetwork::new(3, 3);
        let a = net
            .inject(Coord::new(0, 0), Coord::new(2, 2), (0..16).collect())
            .unwrap();
        let b = net
            .inject(Coord::new(0, 1), Coord::new(2, 2), (100..116).collect())
            .unwrap();
        net.run_until_drained(100_000).unwrap();
        assert_eq!(net.stats().worms_delivered, 2);
        assert!(net.worm_latency(a).is_some());
        assert!(net.worm_latency(b).is_some());
        // The latency leaves with the packet: nothing is kept per worm
        // served, so a long-lived network does not grow with traffic.
        let taken = net.take_delivered();
        assert_eq!(taken.len(), 2);
        assert!(taken.iter().all(|&(_, latency)| latency > 0));
        assert_eq!(net.worm_latency(a), None);
        assert_eq!(net.worm_latency(b), None);
        assert_eq!(net.stats().worms_delivered, 2);
    }

    #[test]
    fn farther_destinations_take_longer() {
        let mut lat = Vec::new();
        for d in [1u16, 3, 6] {
            let mut net = NocNetwork::new(8, 1);
            let w = net
                .inject(Coord::new(0, 0), Coord::new(d, 0), vec![1])
                .unwrap();
            net.run_until_drained(10_000).unwrap();
            lat.push(net.worm_latency(w).unwrap());
        }
        assert!(lat[0] < lat[1] && lat[1] < lat[2], "{lat:?}");
    }

    #[test]
    fn out_of_grid_rejected() {
        let mut net = NocNetwork::new(2, 2);
        assert!(net
            .inject(Coord::new(5, 0), Coord::new(0, 0), vec![])
            .is_err());
        assert!(net
            .inject(Coord::new(0, 0), Coord::new(0, 5), vec![])
            .is_err());
    }

    #[test]
    fn stats_accumulate() {
        let mut net = NocNetwork::new(4, 1);
        net.inject(Coord::new(0, 0), Coord::new(3, 0), vec![7, 8])
            .unwrap();
        net.run_until_drained(1_000).unwrap();
        let s = net.stats();
        assert_eq!(s.worms_delivered, 1);
        assert_eq!(s.flits_delivered, 3);
        // 3 flits x 3 links.
        assert_eq!(s.link_crossings, 9);
    }

    // ------------------------------------------------------------------
    // Fault-tolerant mode.

    #[test]
    fn empty_plan_changes_nothing_observable() {
        let run = |ft: bool| {
            let mut net = NocNetwork::new(4, 4);
            if ft {
                net.attach_fault_plan(FaultPlan::none());
            }
            net.inject(Coord::new(0, 0), Coord::new(3, 3), vec![1, 2, 3])
                .unwrap();
            net.run_until_drained(10_000).unwrap();
            (net.take_delivered(), net.stats().link_crossings)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn corruption_is_detected_and_retransmitted() {
        let mut net = NocNetwork::with_telemetry(4, 1, TelemetryHandle::active());
        // Corrupt the first crossing of the 0→1 link only: the first
        // attempt fails its checksum, the retry sails through.
        net.attach_fault_plan(FaultPlan::from_faults([Fault::transient(
            FaultKind::LinkCorrupt {
                at: Coord::new(0, 0),
                dir: Dir::East,
                mask: 0xDEAD_BEEF,
            },
            0,
            8,
        )]));
        net.inject(Coord::new(0, 0), Coord::new(3, 0), vec![7, 8])
            .unwrap();
        net.run_until_drained(100_000).unwrap();
        let d = net.take_delivered();
        assert_eq!(d.len(), 1, "retransmission must repair the worm");
        assert_eq!(d[0].0.payload, vec![7, 8], "payload verified end to end");
        assert!(net.stats().checksum_failures >= 1);
        assert!(net.telemetry().snapshot().counter("noc.retransmissions") >= 1);
        assert!(net.take_failed().is_empty());
    }

    #[test]
    fn transient_link_outage_heals_by_waiting_or_retry() {
        let mut net = NocNetwork::new(4, 1);
        net.attach_fault_plan(FaultPlan::from_faults([Fault::transient(
            FaultKind::LinkDown {
                at: Coord::new(1, 0),
                dir: Dir::East,
            },
            0,
            40,
        )]));
        net.inject(Coord::new(0, 0), Coord::new(3, 0), vec![1, 2])
            .unwrap();
        net.run_until_drained(100_000).unwrap();
        assert_eq!(net.take_delivered().len(), 1);
        assert!(net.take_failed().is_empty());
    }

    #[test]
    fn adaptive_routing_detours_around_a_dead_link() {
        let mut net = NocNetwork::with_telemetry(3, 2, TelemetryHandle::active());
        // The only XY path 0,0 → 2,0 uses East links on row 0; kill the
        // middle one permanently. The worm must detour through row 1.
        net.attach_fault_plan(FaultPlan::from_faults([Fault::permanent(
            FaultKind::LinkDown {
                at: Coord::new(1, 0),
                dir: Dir::East,
            },
            0,
        )]));
        net.inject(Coord::new(0, 0), Coord::new(2, 0), vec![5])
            .unwrap();
        net.run_until_drained(100_000).unwrap();
        let d = net.take_delivered();
        assert_eq!(d.len(), 1, "detour must deliver");
        assert_eq!(d[0].0.payload, vec![5]);
        let snap = net.telemetry().snapshot();
        assert!(
            snap.counter("noc.misroutes") >= 1,
            "the detour is a misroute"
        );
        assert!(net.take_failed().is_empty());
    }

    #[test]
    fn unreachable_destination_fails_typed_not_hung() {
        let mut net = NocNetwork::new(2, 1);
        // Sever the only link into 1,0 permanently.
        net.attach_fault_plan(FaultPlan::from_faults([Fault::permanent(
            FaultKind::LinkDown {
                at: Coord::new(0, 0),
                dir: Dir::East,
            },
            0,
        )]));
        let worm = net
            .inject(Coord::new(0, 0), Coord::new(1, 0), vec![1])
            .unwrap();
        net.run_until_drained(100_000).unwrap();
        assert!(net.take_delivered().is_empty());
        let failed = net.take_failed();
        assert_eq!(failed.len(), 1);
        assert_eq!(
            failed[0].1,
            NocError::Undeliverable {
                worm,
                attempts: MAX_DELIVERY_ATTEMPTS
            }
        );
        assert!(net.is_idle(), "failed worm leaves no residue");
    }

    #[test]
    fn permanently_stalled_router_times_out_typed() {
        let mut net = NocNetwork::new(3, 1);
        // 1,0 never allocates, and on a 1-row mesh there is no detour.
        net.attach_fault_plan(FaultPlan::from_faults([Fault::permanent(
            FaultKind::RouterStall {
                at: Coord::new(1, 0),
            },
            0,
        )]));
        net.inject(Coord::new(0, 0), Coord::new(2, 0), vec![9])
            .unwrap();
        net.run_until_drained(200_000).unwrap();
        assert!(net.take_delivered().is_empty());
        assert_eq!(net.take_failed().len(), 1);
        assert!(net.is_idle());
    }

    #[test]
    fn faulty_runs_replay_bit_identically() {
        let run = || {
            let mut net = NocNetwork::with_telemetry(4, 4, TelemetryHandle::active());
            net.attach_fault_plan(
                vlsi_faults::FaultPlanBuilder::new(77)
                    .grid(4, 4)
                    .horizon(2_000)
                    .link_down_rate(0.1)
                    .link_corrupt_rate(0.1)
                    .router_stall_rate(0.05)
                    .build(),
            );
            for y in 0..4u16 {
                for x in 0..4u16 {
                    net.inject(Coord::new(x, y), Coord::new(3 - x, 3 - y), vec![7])
                        .unwrap();
                }
            }
            net.run_until_drained(500_000).unwrap();
            let delivered: Vec<(WormId, u64)> = net
                .take_delivered()
                .into_iter()
                .map(|(p, l)| (p.worm, l))
                .collect();
            let snapshot = net.telemetry().snapshot().to_json();
            let trace = net.telemetry().trace_chrome_json();
            (
                delivered,
                net.take_failed(),
                net.stats().clone(),
                snapshot,
                trace,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sharded_tick_is_bit_identical_to_serial() {
        use vlsi_par::Pool;
        // A faulty storm crossing every row stripe, replayed at several
        // shard counts: deliveries, failures, stats, and the full
        // telemetry export must match the serial run byte for byte.
        let run = |threads: usize| {
            let mut net = NocNetwork::with_telemetry(8, 8, TelemetryHandle::active());
            if threads > 1 {
                net.set_parallel(Pool::new(threads), 0);
            }
            net.attach_fault_plan(
                vlsi_faults::FaultPlanBuilder::new(91)
                    .grid(8, 8)
                    .horizon(4_000)
                    .link_down_rate(0.05)
                    .link_corrupt_rate(0.05)
                    .router_stall_rate(0.02)
                    .build(),
            );
            for y in 0..8u16 {
                for x in 0..8u16 {
                    net.inject(
                        Coord::new(x, y),
                        Coord::new(7 - x, 7 - y),
                        vec![u64::from(y) * 8 + u64::from(x), 13, 99],
                    )
                    .unwrap();
                }
            }
            net.run_until_drained(500_000).unwrap();
            let delivered: Vec<(WormId, u64)> = net
                .take_delivered()
                .into_iter()
                .map(|(p, l)| (p.worm, l))
                .collect();
            let snapshot = net.telemetry().snapshot().to_json();
            let trace = net.telemetry().trace_chrome_json();
            (
                delivered,
                net.take_failed(),
                net.stats().clone(),
                snapshot,
                trace,
            )
        };
        let serial = run(1);
        for threads in [2, 3, 8] {
            let parallel = run(threads);
            assert_eq!(parallel.0, serial.0, "{threads}-thread deliveries");
            assert_eq!(parallel.2, serial.2, "{threads}-thread stats");
            assert_eq!(parallel.3, serial.3, "{threads}-thread telemetry");
            assert_eq!(parallel, serial, "{threads}-thread full state");
        }
    }

    #[test]
    fn a_router_drained_and_rewoken_in_one_cycle_is_visited_once() {
        // A worm streaming west: routers are walked in ascending order,
        // so router k hands its only flit to k-1 (load 0) and is refilled
        // by k+1 later in the same phase 1 — loaded at cycle start *and*
        // woken.
        let mut net = NocNetwork::new(6, 1);
        net.inject(Coord::new(5, 0), Coord::new(0, 0), (0..12).collect())
            .unwrap();
        let mut rewoken = 0;
        while !net.is_idle() {
            let loaded_before: Vec<u32> = loaded_routers(&net.load, 0).collect();
            net.tick();
            let sc = &net.shard_scratch[0];
            rewoken += sc
                .woken
                .iter()
                .filter(|r| loaded_before.contains(r))
                .count();
            // One visit each: the carried list is the load scan, strictly
            // ascending, so a router in both lists was merged to one entry.
            assert!(sc.active.windows(2).all(|w| w[0] < w[1]), "{sc:?}");
            assert_eq!(sc.active, loaded_routers(&net.load, 0).collect::<Vec<_>>());
            assert!(net.stats.cycles < 1_000);
        }
        assert!(rewoken > 0, "the stream must drain and refill a router");
        assert_eq!(
            net.take_delivered()[0].0.payload,
            (0..12).collect::<Vec<_>>()
        );
    }

    #[test]
    fn carried_router_lists_survive_everything_that_touches_loads() {
        use vlsi_par::Pool;
        // Injections between ticks, a fan-out threshold that flips the
        // shard count as the mesh drains, a clone mid-flight: phase 1's
        // debug mirror checks the carried lists against the scan on every
        // cycle, and the results must match a serial run's.
        let run = |threads: usize| {
            let mut net = NocNetwork::new(8, 8);
            if threads > 1 {
                net.set_parallel(Pool::new(threads), 12);
            }
            for round in 0..6u16 {
                for k in 0..8u16 {
                    let src = Coord::new((k + round) % 8, k);
                    net.inject(src, Coord::new(7 - k, (k + 3) % 8), vec![1, 2, 3])
                        .unwrap();
                }
                for _ in 0..3 {
                    net.tick();
                }
                if round == 3 {
                    net = net.clone();
                }
            }
            net.run_until_drained(10_000).unwrap();
            (net.take_delivered(), net.stats().clone())
        };
        let serial = run(1);
        assert_eq!(serial.0.len(), 48);
        for threads in [2, 3, 8] {
            assert_eq!(run(threads), serial, "{threads} threads");
        }
    }
}
