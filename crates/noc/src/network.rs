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
//! is the quantity Ablation C
//! (`tests/scaling.rs::configuration_latency_grows_with_region_size`)
//! sweeps against region size.
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
use vlsi_faults::{payload_checksum, FaultPlan};
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

/// Tick scratch: the loaded/woken router lists and the deliveries phase
/// 1 defers until every crossing of the cycle has landed. Reused every
/// cycle, so the steady tick allocates nothing once the vectors have
/// grown.
#[derive(Clone, Debug, Default)]
struct TickScratch {
    /// Loaded routers at cycle start (ascending). Phase 3 leaves the
    /// next cycle's list here, so phase 1 rescans `load` only when
    /// [`NocNetwork::carried`] says the list cannot be trusted.
    active: Vec<u32>,
    /// Routers phase 1 woke (sorted before phase 3).
    woken: Vec<u32>,
    /// Phase 3's visit list under construction; swapped into `active`.
    merged: Vec<u32>,
    /// Local-port deliveries, deferred to the delivery commit.
    deliveries: Vec<(Coord, Flit)>,
}

/// The immutable per-cycle context adaptive routing reads.
struct TickEnv<'a> {
    width: u16,
    height: u16,
    now: u64,
    plan: &'a FaultPlan,
}

impl TickEnv<'_> {
    fn idx(&self, c: Coord) -> Option<usize> {
        (c.x < self.width && c.y < self.height && c.layer == 0)
            .then(|| c.y as usize * self.width as usize + c.x as usize)
    }
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
#[derive(Clone, Debug)]
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
    /// Per-tick scratch (see [`TickScratch`]).
    scratch: TickScratch,
    /// Whether `scratch.active` holds exactly the loaded routers.
    /// Anything that touches `load` outside [`Self::move_flits`]
    /// ([`Self::inject`], [`Self::retransmit`], [`Self::purge_and_backoff`])
    /// clears it, and the next tick rescans.
    carried: bool,
    /// Observability sink; the default handle is a no-op.
    telemetry: TelemetryHandle,
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
            scratch: TickScratch::default(),
            carried: false,
            telemetry,
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
        self.carried = false;
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
    /// allocation. Only called while at least one flit is resident.
    ///
    /// 1. **Phase 1** ([`Self::traverse_links`]): the loaded routers in
    ///    ascending order — the list the previous cycle's phase 3 carried
    ///    over, so a cycle costs its flits and not the die; `load` is
    ///    rescanned only after something outside this function touched
    ///    it. Crossings commit in place, local deliveries are deferred.
    ///    Every accept decision depends only on cycle-start queue state
    ///    (pops happen in phase 3, and each input queue has exactly one
    ///    upstream register).
    /// 2. **Delivery commit**: local-port flits reach [`Self::deliver`]
    ///    in ascending router order, after every crossing of the cycle —
    ///    so a checksum-failure purge sees the whole phase-1 mesh.
    /// 3. **Phases 2+3** ([`Self::drain_and_allocate`]): source-queue
    ///    drain and switch allocation, fused per router — both read and
    ///    write only that router's own queues and registers.
    fn move_flits(&mut self, now: u64) {
        let rescan = !std::mem::replace(&mut self.carried, true);
        let mut scratch = std::mem::take(&mut self.scratch);
        self.traverse_links(now, rescan, &mut scratch);
        for &(coord, flit) in &scratch.deliveries {
            self.deliver(coord, flit);
        }
        scratch.deliveries.clear();
        self.drain_and_allocate(now, &mut scratch);
        self.scratch = scratch;
    }

    /// Phase 1: link traversal of the loaded routers, in ascending index
    /// order. Crossings commit in place; local-port flits are left in
    /// `scratch.deliveries` for the delivery commit.
    fn traverse_links(&mut self, now: u64, rescan: bool, scratch: &mut TickScratch) {
        let TickScratch {
            active,
            woken,
            deliveries,
            ..
        } = scratch;
        woken.clear();
        if rescan {
            active.clear();
            active.extend(loaded_routers(&self.load));
        } else {
            debug_assert_eq!(
                *active,
                loaded_routers(&self.load).collect::<Vec<u32>>(),
                "carried router list must mirror the load scan"
            );
        }
        for &ri32 in active.iter() {
            let ri = ri32 as usize;
            let coord = self.routers[ri].coord;
            for port in Port::ALL {
                let Some(mut flit) = self.routers[ri].outputs[port.index()].reg else {
                    continue;
                };
                let Some(d) = port.dir() else {
                    // Local sinks always accept; the delivery itself
                    // (reassembly, checksum verdict, possible purge) runs
                    // in the delivery commit.
                    self.routers[ri].outputs[port.index()].reg = None;
                    if flit.is_tail() {
                        self.routers[ri].outputs[port.index()].held_by = None;
                    }
                    self.load[ri] -= 1;
                    deliveries.push((coord, flit));
                    continue;
                };
                if self.ft && self.plan.link_blocked(now, coord, d) {
                    // Link down: the flit waits in the register.
                    continue;
                }
                let Some(ni) = coord.step(d).and_then(|nc| self.idx(nc)) else {
                    // Edge of the mesh: XY routing never does this.
                    debug_assert!(false, "flit routed off the mesh");
                    self.routers[ri].outputs[port.index()].reg = None;
                    self.resident = self.resident.saturating_sub(1);
                    self.load[ri] = self.load[ri].saturating_sub(1);
                    continue;
                };
                let Some(in_port) = Port::from_dir(d.opposite()) else {
                    continue;
                };
                if self.ft {
                    if let Some(mask) = self.plan.corruption(now, coord, d) {
                        // Faulty link: payload words flip in transit.
                        // Counted at crossing-attempt time, even if the
                        // neighbour then refuses the flit.
                        match &mut flit {
                            Flit::Body { data, .. } | Flit::Tail { data, .. } => {
                                *data ^= mask;
                                self.stats.corrupted_crossings += 1;
                            }
                            Flit::Head { .. } => {}
                        }
                    }
                }
                if self.routers[ni].accept(in_port, flit).is_err() {
                    // Backpressure: the register keeps the original
                    // (uncorrupted) flit.
                    continue;
                }
                self.routers[ri].outputs[port.index()].reg = None;
                if flit.is_tail() {
                    self.routers[ri].outputs[port.index()].held_by = None;
                }
                self.load[ri] -= 1;
                if self.load[ni] == 0 {
                    woken.push(ni as u32);
                }
                self.load[ni] += 1;
                self.stats.link_crossings += 1;
                self.telemetry.count("noc.link_crossings", 1);
                // One utilization lane per directed link, keyed
                // router-major: router*5 + output port.
                self.telemetry
                    .count_at("noc.link_util", ri as u64 * 5 + port.index() as u64, 1);
                if self.ft && matches!(flit, Flit::Head { .. }) {
                    if let Some(p) = self.pending.get_mut(&flit.worm()) {
                        p.hops += 1;
                    }
                }
            }
        }
    }

    /// Phases 2+3, fused per router: drain the router's source queue into
    /// its local input port, then allocate the switch (one flit per input
    /// port). Both touch only that router's own queues and registers, so
    /// the per-router fusion is observably identical to
    /// all-phase-2-then-all-phase-3. The visit list is the cycle-start
    /// snapshot merged (ascending) with the routers phase 1 woke. A router
    /// can be in both — it drained in phase 1 and a later neighbour
    /// refilled it — so equal heads advance both cursors and it is
    /// visited once. Loads do not change in these phases, so the routers
    /// visited holding a flit are exactly the next cycle's loaded
    /// routers: they are left in `active` for its phase 1.
    fn drain_and_allocate(&mut self, now: u64, scratch: &mut TickScratch) {
        let env = TickEnv {
            width: self.width,
            height: self.height,
            now,
            plan: &self.plan,
        };
        let TickScratch {
            active,
            woken,
            merged,
            ..
        } = scratch;
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
            let ri = ri as usize;
            if self.load[ri] == 0 {
                continue;
            }
            merged.push(ri as u32);
            // Phase 2: feed this router's source queue into its local
            // input port. Safe to skip via the load check above — a
            // zero-load router's source queue is empty (load counts queued
            // flits), and safe to run for woken routers — they had zero
            // load at cycle start, so their queues were empty then and
            // nothing refills them mid-tick.
            while let Some(&f) = self.injection[ri].front() {
                if self.routers[ri].accept(Port::Local, f).is_err() {
                    break; // backpressure: the flit stays in the source queue
                }
                self.injection[ri].pop_front();
                self.queued -= 1;
            }
            let coord = self.routers[ri].coord;
            if self.ft && env.plan.router_stalled(now, coord) {
                continue; // stalled router: queues do not drain this cycle
            }
            for port in Port::ALL {
                if self.ft {
                    allocate_adaptive(&mut self.routers[ri], port, &env, &self.telemetry);
                } else {
                    let _ = self.routers[ri].allocate(port);
                }
            }
        }
        std::mem::swap(active, merged);
    }

    /// Removes every trace of `worm` from the fabric (source queues,
    /// input queues, bindings, output holds, partial reassembly), then
    /// either schedules a retransmission after an exponential backoff or
    /// declares the worm undeliverable.
    fn purge_and_backoff(&mut self, worm: WormId) {
        self.carried = false;
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
        // `inject` admits on-grid sources only, so `si` always resolves.
        let Some(si) = self.pending.get(&worm).and_then(|p| self.idx(p.src)) else {
            return;
        };
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
        self.carried = false;
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

/// The routers that hold a flit, ascending — the scan the carried list
/// stands in for.
fn loaded_routers(load: &[u32]) -> impl Iterator<Item = u32> + '_ {
    (0..load.len()).filter(|&i| load[i] > 0).map(|i| i as u32)
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
            let loaded_before: Vec<u32> = loaded_routers(&net.load).collect();
            net.tick();
            let sc = &net.scratch;
            rewoken += sc
                .woken
                .iter()
                .filter(|r| loaded_before.contains(r))
                .count();
            // One visit each: the carried list is the load scan, strictly
            // ascending, so a router in both lists was merged to one entry.
            assert!(sc.active.windows(2).all(|w| w[0] < w[1]), "{sc:?}");
            assert_eq!(sc.active, loaded_routers(&net.load).collect::<Vec<_>>());
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
        // Injections between ticks and a clone mid-flight: phase 1's
        // debug mirror checks the carried list against the scan on every
        // cycle, and the clone must carry on exactly as the original.
        let run = |clone_at: Option<u16>| {
            let mut net = NocNetwork::new(8, 8);
            for round in 0..6u16 {
                for k in 0..8u16 {
                    let src = Coord::new((k + round) % 8, k);
                    net.inject(src, Coord::new(7 - k, (k + 3) % 8), vec![1, 2, 3])
                        .unwrap();
                }
                for _ in 0..3 {
                    net.tick();
                }
                if clone_at == Some(round) {
                    net = net.clone();
                }
            }
            net.run_until_drained(10_000).unwrap();
            (net.take_delivered(), net.stats().clone())
        };
        let plain = run(None);
        assert_eq!(plain.0.len(), 48);
        assert_eq!(run(Some(3)), plain);
    }
}
