//! The VLSI chip: cluster grid + switch fabric + NoC + scaled processors.
//!
//! Scaling is implemented the way the paper insists it must be: the
//! supervisor injects one **configuration worm** per cluster of the region
//! into the router network; each worm's payload is the target switch's
//! programming word; when the worm arrives, the reservation flag is stored
//! and the switch registers are written. "There is no specific logic
//! circuit required for the scaling" (§6) — gathering a processor is
//! nothing but routing and stores, and the only arbitration is the
//! reservation flag that makes concurrent gathers conflict-free.

use crate::error::CoreError;
use crate::scaled::{ProcessorId, ScaledProcessor};
use crate::state::ProcState;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;
use vlsi_ap::{AdaptiveProcessor, ApError, ConfigureOutcome, ExecutionReport, SoaLane};
use vlsi_noc::{NocNetwork, WormId};
use vlsi_object::{GlobalConfigStream, LogicalObject, ObjectId, Word};
use vlsi_telemetry::TelemetryHandle;
use vlsi_topology::switch::RegionTag;
use vlsi_topology::{
    Cluster, ClusterGrid, Coord, Dir, FabricIndex, Region, RegionFinder, SwitchFabric, SwitchState,
    TopologyError,
};

/// How configuration data reaches the region's switches (§3.3 leaves the
/// worm shape open; Figure 7(c) draws a path-shaped configuration).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ConfigStrategy {
    /// One worm per cluster, each routed XY from the supervisor. Worms
    /// are independent, so the NoC can pipeline them; total switch
    /// traffic is `Σ distance(supervisor, cluster)`.
    #[default]
    UnicastWorms,
    /// A single worm that travels the region's fold path, storing each
    /// cluster's reservation flag and program as it passes (the shape
    /// Figure 7(c) draws). Cheaper in traversed links when the region is
    /// far from the supervisor; strictly serial.
    TravelingWorm,
}

/// Chip-wide metric snapshot (see [`VlsiChip::metrics`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ChipMetrics {
    /// Processors currently allocated.
    pub live_processors: usize,
    /// Merged adaptive-processor counters across live processors.
    pub ap: vlsi_ap::ApMetrics,
    /// Total NoC cycles simulated.
    pub noc_cycles: u64,
    /// Worms delivered (configuration + messages).
    pub noc_worms_delivered: u64,
    /// Router-to-router link crossings.
    pub noc_link_crossings: u64,
    /// Switch programming-register stores.
    pub switch_stores: u64,
}

/// Result of gathering a region into a processor.
#[derive(Clone, Debug)]
pub struct GatherOutcome {
    /// The new processor's ID.
    pub id: ProcessorId,
    /// Configuration worms injected (one per cluster).
    pub worms: usize,
    /// Maximum worm latency — the configuration latency of the scaling
    /// operation, in NoC cycles.
    pub config_latency: u64,
    /// Switch-programming stores performed.
    pub switch_stores: u64,
}

/// What [`VlsiChip::plan_compaction`] found: the compaction that lets a
/// list of requests fit.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CompactionPlan {
    /// The processors [`VlsiChip::compact`] moves, in ID order, each with
    /// its destination.
    pub moves: Vec<(ProcessorId, Region)>,
    /// The regions the requests then take, in request order — what
    /// [`VlsiChip::plan_gathers`] answers on the compacted die.
    pub gathers: Vec<Region>,
}

/// A cell of the flat occupancy copy compaction is replayed on: the
/// owner's tag, or one of these two sentinels (tags are processor IDs,
/// which never reach them).
const FREE: u32 = u32::MAX;
const DEFECT: u32 = u32::MAX - 1;

/// How one cluster looks to the processor being relocated.
#[derive(PartialEq, Eq)]
enum Seen {
    Free,
    /// Held by this processor and healthy.
    Own,
    /// Held by another processor, or defective.
    Taken,
}

/// How a cell of the occupancy slab looks to the processor tagged `tag`.
fn seen_by(tag: u32, cell: u32) -> Seen {
    match cell {
        FREE => Seen::Free,
        t if t == tag => Seen::Own,
        _ => Seen::Taken,
    }
}

/// What the allocator does with a processor being relocated.
enum Relocation {
    /// Its preferred region is the one it holds — or no region fits
    /// anywhere and its own is healthy.
    Stay,
    /// It moves to this region.
    Move(Region),
    /// No region fits and this cell of its own is defective.
    Nowhere(Coord),
}

/// The relocation rule: the allocator is asked for the processor's size
/// over "free clusters plus its own healthy ones". The one allocator
/// choice [`VlsiChip::relocate`] (on the occupancy as it is) and the
/// compaction replay (on the occupancy the earlier moves leave) share.
fn relocation(grid: &ClusterGrid, region: &Region, seen: impl Fn(Coord) -> Seen) -> Relocation {
    let finder = RegionFinder::new(grid, |c| seen(c) != Seen::Taken);
    match finder.find_cells(region.len()) {
        // The found cells are all its own: they are exactly its region.
        Some(to) if to.clone().all(|c| seen(c) == Seen::Own) => Relocation::Stay,
        Some(to) => Relocation::Move(Region::new(to)),
        None => match region.cells().find(|&c| seen(c) != Seen::Own) {
            Some(c) => Relocation::Nowhere(c),
            None => Relocation::Stay,
        },
    }
}

/// One replay of [`VlsiChip::compact`] and the state it was replayed on.
#[derive(Debug)]
struct Replay {
    generation: u64,
    inactive: Vec<ProcessorId>,
    moves: Vec<(ProcessorId, Region)>,
    /// The occupancy the moves leave, row-major: [`FREE`], [`DEFECT`] or
    /// the owner's tag per cell.
    after: Vec<u32>,
    /// The free-space snapshot of `after`.
    finder: RegionFinder,
}

/// The chip.
///
/// ```
/// use vlsi_core::{ProcState, VlsiChip};
/// use vlsi_topology::{Cluster, Coord, Region};
///
/// let mut chip = VlsiChip::new(8, 8, Cluster::default());
/// // Gather the paper's minimum AP: 2x2 clusters = 16 PO + 16 MO.
/// let gathered = chip.gather(Region::rect(Coord::new(0, 0), 2, 2)).unwrap();
/// assert_eq!(chip.state(gathered.id).unwrap(), ProcState::Inactive);
/// assert!(gathered.config_latency > 0); // worms took real NoC cycles
///
/// // Lifecycle: inactive -> active -> inactive -> release.
/// chip.activate(gathered.id).unwrap();
/// chip.deactivate(gathered.id).unwrap();
/// chip.release_processor(gathered.id).unwrap();
/// assert_eq!(chip.free_clusters(), 64);
/// ```
#[derive(Debug)]
pub struct VlsiChip {
    grid: ClusterGrid,
    fabric: SwitchFabric,
    noc: NocNetwork,
    processors: BTreeMap<ProcessorId, ScaledProcessor>,
    /// Flat occupancy mirror of the fabric's owner state plus the defect
    /// set: O(1) free counts and point probes, O(region) fit scans. The
    /// fabric remains the authority on switch state; the index is kept
    /// in sync at the owner-mutation funnels ([`Self::apply_worm`],
    /// [`Self::release_processor`], [`Self::relocate`]) and replaces the
    /// hash-ordered `HashSet<Coord>` of defects with a deterministic
    /// row-major slab.
    index: FabricIndex,
    /// The free-space snapshot every placement probe shares
    /// ([`Self::largest_gatherable`], [`Self::fragmentation`],
    /// [`Self::gather_any`]), tagged with the [`FabricIndex::generation`]
    /// it was swept at and rebuilt only when that has moved on.
    free_space: RefCell<Option<(u64, RegionFinder)>>,
    /// The layout [`Self::compact`] would leave, replayed on a flat copy
    /// of the occupancy for the generation and Inactive set it is tagged
    /// with: asking again before either changes costs one fit check.
    compaction: RefCell<Option<Replay>>,
    supervisor: Coord,
    next_id: u32,
    strategy: ConfigStrategy,
    /// Observability sink; the default handle is a no-op. Threaded into
    /// the fabric, the NoC, and every gathered processor's AP, so one
    /// registry sees the whole chip.
    telemetry: TelemetryHandle,
}

// --- worm payload encoding -------------------------------------------------

fn encode_dir(d: Option<Dir>) -> u64 {
    match d {
        None => 0,
        Some(d) => d.index() as u64 + 1,
    }
}

fn decode_dir(v: u64) -> Option<Dir> {
    Dir::ALL.get((v as usize).checked_sub(1)?).copied()
}

/// Packs one switch program into a payload word.
fn encode_program(s: &SwitchState) -> u64 {
    let mut w = encode_dir(s.shift_in) | (encode_dir(s.shift_out) << 3);
    for (i, &b) in s.chained.iter().enumerate() {
        if b {
            w |= 1 << (8 + i);
        }
    }
    w
}

/// Unpacks a payload word into a switch program.
fn decode_program(w: u64) -> SwitchState {
    let mut chained = [false; 6];
    for (i, c) in chained.iter_mut().enumerate() {
        *c = (w >> (8 + i)) & 1 == 1;
    }
    SwitchState {
        shift_in: decode_dir(w & 0x7),
        shift_out: decode_dir((w >> 3) & 0x7),
        chained,
        reserved_by: None,
    }
}

/// Moves `p` to `to` and records the edge as a `core.lifecycle` instant
/// named `"<from>><to>"` on `p`'s lane, stamped with NoC `cycle`. Every
/// lifecycle write goes through here, so the trace holds each
/// processor's whole Figure 6(e) path; the caller checks the edge.
fn set_state(p: &mut ScaledProcessor, to: ProcState, telemetry: &TelemetryHandle, cycle: u64) {
    telemetry.instant(
        "core.lifecycle",
        p.state.edge_name(to),
        u64::from(p.id.0),
        cycle,
    );
    p.state = to;
}

impl VlsiChip {
    /// A planar chip of `width × height` clusters, supervised from the
    /// corner router (0,0), with telemetry disabled.
    pub fn new(width: u16, height: u16, cluster: Cluster) -> VlsiChip {
        VlsiChip::with_telemetry(width, height, cluster, TelemetryHandle::disabled())
    }

    /// A chip recording into `telemetry`. The handle reaches every layer:
    /// the switch fabric (`topology.*`), the NoC (`noc.*`), each gathered
    /// processor's AP and CSD (`ap.*`, `csd.*`), plus the chip's own
    /// `core.*` instruments — scaling-operation counters, the
    /// `core.scaling_latency` histogram (configuration latency per gather,
    /// in NoC cycles), and `gather` trace spans on the `core` track
    /// stamped with the NoC clock.
    pub fn with_telemetry(
        width: u16,
        height: u16,
        cluster: Cluster,
        telemetry: TelemetryHandle,
    ) -> VlsiChip {
        VlsiChip {
            grid: ClusterGrid::new(width, height, cluster),
            fabric: SwitchFabric::sized_with_telemetry(width, height, telemetry.clone()),
            noc: NocNetwork::with_telemetry(width, height, telemetry.clone()),
            processors: BTreeMap::new(),
            index: FabricIndex::new(width, height),
            free_space: RefCell::new(None),
            compaction: RefCell::new(None),
            supervisor: Coord::new(0, 0),
            next_id: 1,
            strategy: ConfigStrategy::default(),
            telemetry,
        }
    }

    /// The telemetry handle this chip records into.
    pub fn telemetry(&self) -> &TelemetryHandle {
        &self.telemetry
    }

    /// The chip floorplan.
    pub fn grid(&self) -> &ClusterGrid {
        &self.grid
    }

    /// The switch fabric (for inspection).
    pub fn fabric(&self) -> &SwitchFabric {
        &self.fabric
    }

    /// The NoC (for inspection).
    pub fn noc(&self) -> &NocNetwork {
        &self.noc
    }

    /// Marks a cluster defective: no future gather may include it.
    pub fn mark_defective(&mut self, c: Coord) {
        self.index.mark_defective(c);
    }

    /// Whether a cluster is marked defective.
    pub fn is_defective(&self, c: Coord) -> bool {
        self.index.is_defective(c)
    }

    /// Reports a stuck programmable switch at `c`: the fabric records
    /// the stuck-at fault (all further programming there fails typed)
    /// and the cluster is marked defective so region allocation routes
    /// around it. This is the topology layer's fault report propagating
    /// into the resource-allocation view — the caller (typically the
    /// runtime) then relocates whatever was running on the cluster.
    pub fn mark_switch_stuck(&mut self, c: Coord) {
        self.fabric.mark_stuck(c);
        self.index.mark_defective(c);
    }

    /// Whether the programmable switch at `c` is marked stuck.
    pub fn is_switch_stuck(&self, c: Coord) -> bool {
        self.fabric.is_stuck(c)
    }

    /// Live processors, in ID order.
    pub fn processors(&self) -> impl Iterator<Item = &ScaledProcessor> {
        self.processors.values()
    }

    /// The processor with `id`.
    pub fn processor(&self, id: ProcessorId) -> Result<&ScaledProcessor, CoreError> {
        self.processors
            .get(&id)
            .ok_or(CoreError::UnknownProcessor(id))
    }

    fn processor_mut(&mut self, id: ProcessorId) -> Result<&mut ScaledProcessor, CoreError> {
        self.processors
            .get_mut(&id)
            .ok_or(CoreError::UnknownProcessor(id))
    }

    /// The lifecycle state of `id`.
    pub fn state(&self, id: ProcessorId) -> Result<ProcState, CoreError> {
        Ok(self.processor(id)?.state)
    }

    /// Clusters not owned by any processor and not defective — O(1), read
    /// from the incrementally-maintained [`FabricIndex`].
    pub fn free_clusters(&self) -> usize {
        self.index.free_clusters()
    }

    /// Total clusters on the die (free, owned, and defective alike).
    pub fn total_clusters(&self) -> usize {
        self.grid.cluster_count()
    }

    /// Clusters currently marked defective.
    pub fn defective_count(&self) -> usize {
        self.index.defect_count()
    }

    /// Defective coordinates in row-major order — deterministic, unlike
    /// the hash-ordered set this view replaced.
    pub fn defective_coords(&self) -> impl Iterator<Item = Coord> + '_ {
        self.index.defect_coords()
    }

    /// Clusters usable for gathering in principle: the die minus its
    /// defects (some may currently be owned). The ceiling any single
    /// resource request can ever reach.
    pub fn usable_clusters(&self) -> usize {
        self.total_clusters() - self.defective_count()
    }

    /// The processor owning cluster `c`, if any — one indexed load.
    pub fn processor_at(&self, c: Coord) -> Option<ProcessorId> {
        self.index.owner(c).map(|tag| ProcessorId(tag.0))
    }

    /// Runs `probe` on the shared free-space snapshot, sweeping the
    /// occupancy index first only if it changed since the last probe.
    fn with_free_space<R>(&self, probe: impl FnOnce(&RegionFinder) -> R) -> R {
        let mut slot = self.free_space.borrow_mut();
        let generation = self.index.generation();
        let finder = match slot.take() {
            Some((swept_at, finder)) if swept_at == generation => finder,
            _ => RegionFinder::new(&self.grid, |c| self.index.is_free(c)),
        };
        probe(&slot.insert((generation, finder)).1)
    }

    /// The largest cluster count [`gather_any`](Self::gather_any) would
    /// currently succeed for — a read-only admission-control probe.
    /// Because the allocator places serpentine-prefix regions, fit is
    /// monotone in the request size, so this is a binary search over the
    /// shared [`RegionFinder`] snapshot — done once per occupancy
    /// generation, not once per call.
    pub fn largest_gatherable(&self) -> usize {
        self.with_free_space(RegionFinder::largest_fit)
    }

    // --- scaling -----------------------------------------------------------

    /// Gathers a region into a new processor with a linear (open) fold.
    pub fn gather(&mut self, region: Region) -> Result<GatherOutcome, CoreError> {
        self.gather_inner(region, false)
    }

    /// Gathers a region whose fold closes into a ring (Figure 5).
    pub fn gather_ring(&mut self, region: Region) -> Result<GatherOutcome, CoreError> {
        self.gather_inner(region, true)
    }

    /// Gathers with an explicit configuration strategy.
    pub fn gather_with(
        &mut self,
        region: Region,
        strategy: ConfigStrategy,
    ) -> Result<GatherOutcome, CoreError> {
        let prev = self.strategy;
        self.strategy = strategy;
        let out = self.gather_inner(region, false);
        self.strategy = prev;
        out
    }

    fn gather_inner(&mut self, region: Region, ring: bool) -> Result<GatherOutcome, CoreError> {
        let id = ProcessorId(self.next_id);
        self.next_id += 1;
        self.telemetry
            .span_begin("core", "gather", id.0 as u64, self.noc.stats().cycles);
        let (fold, outcome) = self.program_region(&region, ring, id)?;
        self.telemetry
            .span_end("core", "gather", id.0 as u64, self.noc.stats().cycles);
        self.telemetry.count("core.gathers", 1);
        self.telemetry
            .record("core.scaling_latency", outcome.config_latency);
        let cfg = ScaledProcessor::ap_config(&region, &self.grid.cluster());
        let mut proc = ScaledProcessor {
            id,
            region,
            ring,
            state: ProcState::Release,
            ap: AdaptiveProcessor::with_telemetry(cfg, self.telemetry.clone()),
            config_latency: outcome.config_latency,
            sleep_timer: None,
            fold,
        };
        set_state(
            &mut proc,
            ProcState::Inactive,
            &self.telemetry,
            self.noc.stats().cycles,
        );
        self.processors.insert(id, proc);
        Ok(outcome)
    }

    /// Validates `region`, worm-programs its switches under `id`'s tag,
    /// and returns the fold. On any failure everything programmed under
    /// the tag is rolled back.
    fn program_region(
        &mut self,
        region: &Region,
        ring: bool,
        id: ProcessorId,
    ) -> Result<(vlsi_topology::FoldMap, GatherOutcome), CoreError> {
        // Validate the region against the chip.
        for c in region.cells() {
            if !self.grid.contains(c) {
                return Err(CoreError::OutOfGrid(c));
            }
            if self.is_defective(c) {
                return Err(CoreError::DefectiveCluster(c));
            }
        }
        let fold = if ring {
            region.ring_path()?
        } else {
            region.linear_path()?
        };
        let tag = RegionTag(id.0);

        // Build each cluster's switch program from the fold.
        let path = fold.path();
        let stores_before = self.fabric.store_count();
        let mut programs: Vec<(Coord, u64)> = Vec::with_capacity(path.len());
        for (i, &c) in path.iter().enumerate() {
            let prev = if i > 0 {
                Some(path[i - 1])
            } else if ring {
                path.last().copied().filter(|_| path.len() >= 3)
            } else {
                None
            };
            let next = if i + 1 < path.len() {
                Some(path[i + 1])
            } else if ring && path.len() >= 3 {
                Some(path[0])
            } else {
                None
            };
            let hop = |a: Coord, b: Coord| {
                a.dir_to(b)
                    .ok_or(CoreError::Topology(TopologyError::NotAdjacent(a, b)))
            };
            let mut program = SwitchState::default();
            if let Some(p) = prev {
                let d = hop(p, c)?;
                program.shift_in = Some(d.opposite());
                program.chained[d.opposite().index()] = true;
            }
            if let Some(n) = next {
                let d = hop(c, n)?;
                program.shift_out = Some(d);
                program.chained[d.index()] = true;
            }
            programs.push((c, encode_program(&program)));
        }

        let config_latency = match self.strategy {
            ConfigStrategy::UnicastWorms => {
                // One worm per cluster, all in flight together. Nothing
                // else injects between these calls, so the gather's worm
                // ids are one contiguous range.
                let mut ours: Option<(WormId, WormId)> = None;
                for &(c, word) in &programs {
                    let worm = self
                        .noc
                        .inject(self.supervisor, c, vec![word])
                        .map_err(CoreError::Noc)?;
                    ours = Some((ours.map_or(worm, |(first, _)| first), worm));
                }
                self.noc
                    .run_until_drained(1_000_000)
                    .map_err(CoreError::Noc)?;
                let mut config_latency = 0;
                for (packet, latency) in self.noc.take_delivered() {
                    if !ours.is_some_and(|(first, last)| (first..=last).contains(&packet.worm)) {
                        continue; // not ours (concurrent traffic)
                    }
                    config_latency = config_latency.max(latency);
                    self.apply_worm(packet.dest, packet.payload[0], tag)?;
                }
                config_latency
            }
            ConfigStrategy::TravelingWorm => {
                // One worm snakes along the fold path, dropping each
                // cluster's program as it arrives; the next leg departs
                // from where the worm stands.
                let mut config_latency = 0;
                let mut at = self.supervisor;
                for &(c, word) in &programs {
                    let worm = self.noc.inject(at, c, vec![word]).map_err(CoreError::Noc)?;
                    self.noc
                        .run_until_drained(1_000_000)
                        .map_err(CoreError::Noc)?;
                    for (packet, latency) in self.noc.take_delivered() {
                        if packet.worm != worm {
                            continue;
                        }
                        config_latency += latency;
                        self.apply_worm(packet.dest, packet.payload[0], tag)?;
                    }
                    at = c;
                }
                config_latency
            }
        };

        // The chain network must now connect every fold hop.
        for w in path.windows(2) {
            debug_assert!(self.fabric.is_chained(w[0], w[1]));
        }

        let outcome = GatherOutcome {
            id,
            worms: path.len(),
            config_latency,
            switch_stores: self.fabric.store_count() - stores_before,
        };
        Ok((fold, outcome))
    }

    /// Applies one delivered configuration word: store the reservation
    /// flag, then the switch registers. A refused store rolls back
    /// everything this gather programmed.
    fn apply_worm(&mut self, dest: Coord, word: u64, tag: RegionTag) -> Result<(), CoreError> {
        let program = decode_program(word);
        let stored = match self.fabric.reserve(dest, tag) {
            Ok(()) => {
                self.index.set_owner(dest, tag);
                self.fabric.apply_program(dest, tag, program)
            }
            Err(e) => Err(e),
        };
        if let Err(e) = stored {
            self.fabric.release_owner(tag);
            self.index.release_owner(tag);
            return Err(CoreError::Topology(e));
        }
        Ok(())
    }

    /// Relocates an inactive processor to the allocator's preferred free
    /// spot, preserving its adaptive processor intact — library, memory
    /// blocks, and cached objects all move with it (the objects are
    /// *logical*; nothing in the AP depends on die coordinates). This is
    /// the defragmentation §5 says a mesh host must do by hand and the
    /// VLSI processor makes "manageable".
    ///
    /// The allocator is asked over "free clusters plus this processor's
    /// own healthy ones" before anything is released. A processor that
    /// does not move is not re-programmed: when the answer is the region
    /// it already holds, no worm is injected and the outcome reports
    /// `worms: 0`, `switch_stores: 0` and the configuration latency the
    /// region was programmed with (what re-programming it over an idle
    /// NoC would measure again). Otherwise only this processor's
    /// switches are released and re-programmed at the new site. A defect
    /// under the region always makes the answer differ, so it always
    /// moves — or, when nowhere else fits, fails typed
    /// ([`CoreError::DefectiveCluster`]) with nothing released.
    pub fn relocate(&mut self, id: ProcessorId) -> Result<GatherOutcome, CoreError> {
        self.require_state(id, ProcState::Inactive)?;
        let p = self.processor(id)?;
        let slab = self.occupancy();
        match relocation(&self.grid, &p.region, |c| seen_by(id.0, slab[self.slot(c)])) {
            Relocation::Stay => Ok(GatherOutcome {
                id,
                worms: 0,
                config_latency: p.config_latency,
                switch_stores: 0,
            }),
            Relocation::Nowhere(c) => Err(CoreError::DefectiveCluster(c)),
            Relocation::Move(to) => self.move_processor(id, to),
        }
    }

    /// Releases `id`'s switches and re-programs them at `to`. If that
    /// fails, the old site's switches and index entries are written back
    /// as they were, so the processor still owns every cell it lists.
    fn move_processor(&mut self, id: ProcessorId, to: Region) -> Result<GatherOutcome, CoreError> {
        let p = self.processor(id)?;
        let ring = p.ring;
        let tag = RegionTag(id.0);
        let old: Vec<(Coord, SwitchState)> = p
            .region
            .cells()
            .map(|c| (c, self.fabric.state(c)))
            .filter(|(_, s)| s.reserved_by == Some(tag))
            .collect();
        self.fabric.release_owner(tag);
        self.index.release_owner(tag);
        match self.program_region(&to, ring, id) {
            Ok((fold, outcome)) => {
                self.telemetry.count("core.relocations", 1);
                self.telemetry
                    .record("core.scaling_latency", outcome.config_latency);
                let p = self.processor_mut(id)?;
                p.region = to;
                p.fold = fold;
                p.config_latency = outcome.config_latency;
                Ok(outcome)
            }
            Err(e) => {
                self.fabric.release_owner(tag);
                self.index.release_owner(tag);
                for (c, state) in old {
                    self.fabric.restore(c, state);
                    self.index.set_owner(c, tag);
                }
                Err(e)
            }
        }
    }

    /// Row-major position of `c` on the die.
    fn slot(&self, c: Coord) -> usize {
        usize::from(c.y) * usize::from(self.grid.width()) + usize::from(c.x)
    }

    /// The occupancy index as a flat row-major slab: [`FREE`],
    /// [`DEFECT`] or the owner's tag per cell.
    fn occupancy(&self) -> Vec<u32> {
        let (w, h) = (self.grid.width(), self.grid.height());
        (0..h)
            .flat_map(|y| (0..w).map(move |x| Coord::new(x, y)))
            .map(|c| match self.index.owner(c) {
                _ if self.index.is_defective(c) => DEFECT,
                None => FREE,
                Some(tag) => tag.0,
            })
            .collect()
    }

    /// Replays [`Self::compact`] on a flat copy of the occupancy: each
    /// processor in `inactive` (ID order) gets [`relocation`]'s answer on
    /// the copy as the moves before it left it, and a mover's cells are
    /// handed over at once. A processor with nowhere to go stays.
    fn replay_compaction(&self, generation: u64, inactive: Vec<ProcessorId>) -> Replay {
        let mut after = self.occupancy();
        let mut moves = Vec::new();
        for p in inactive.iter().filter_map(|id| self.processors.get(id)) {
            let tag = p.id.0;
            let seen = |c| seen_by(tag, after[self.slot(c)]);
            if let Relocation::Move(to) = relocation(&self.grid, &p.region, seen) {
                for c in p.region.cells() {
                    if after[self.slot(c)] == tag {
                        after[self.slot(c)] = FREE;
                    }
                }
                for c in to.cells() {
                    after[self.slot(c)] = tag;
                }
                moves.push((p.id, to));
            }
        }
        let finder = RegionFinder::new(&self.grid, |c| after[self.slot(c)] == FREE);
        Replay {
            generation,
            inactive,
            moves,
            after,
            finder,
        }
    }

    /// Runs `probe` on the compaction replay for the current occupancy
    /// generation and Inactive set, replaying first only if either
    /// changed since the last probe.
    fn with_replay<R>(&self, probe: impl FnOnce(&Replay) -> R) -> R {
        let inactive: Vec<ProcessorId> = self
            .processors
            .values()
            .filter(|p| p.state == ProcState::Inactive)
            .map(|p| p.id)
            .collect();
        let generation = self.index.generation();
        let mut slot = self.compaction.borrow_mut();
        let replay = match slot.take() {
            Some(r) if r.generation == generation && r.inactive == inactive => r,
            _ => self.replay_compaction(generation, inactive),
        };
        probe(slot.insert(replay))
    }

    /// Whether compacting the die would let one [`gather_any`](Self::gather_any)
    /// per entry of `sizes` succeed, in order — a read-only probe. The
    /// answer is the processors [`compact`](Self::compact) would move
    /// with their destinations, and the regions the requests would then
    /// take; or `None` when those requests would fail even on the
    /// compacted die. The compaction is replayed on a flat copy of the
    /// occupancy index and remembered for the occupancy generation and
    /// Inactive set it was replayed at, so asking again before either
    /// changes costs only the fit check; `compact` commits that replay.
    pub fn plan_compaction(&self, sizes: &[usize]) -> Option<CompactionPlan> {
        self.with_replay(|replay| {
            let free = |c| replay.after[self.slot(c)] == FREE;
            let gathers = self.fit_in_turn(&replay.finder, free, sizes)?;
            Some(CompactionPlan {
                moves: replay.moves.clone(),
                gathers,
            })
        })
    }

    /// Relocates every inactive processor, in ID order, to tighten the
    /// free space; returns how many moved. The moves are those of the
    /// replay [`plan_compaction`](Self::plan_compaction) answers from, so
    /// only the movers are touched: a processor that stays is neither
    /// released nor re-programmed. A move that fails is rolled back and
    /// ends the pass, since the moves after it were planned around it.
    pub fn compact(&mut self) -> usize {
        self.telemetry.count("core.compactions", 1);
        let moves = self.with_replay(|replay| replay.moves.clone());
        let mut moved = 0;
        for (id, to) in moves {
            if self.move_processor(id, to).is_err() {
                break;
            }
            moved += 1;
        }
        moved
    }

    /// Gathers a processor from a resource *count* ("the application then
    /// requests the resources", §1): the allocator finds the squarest free
    /// serpentine-prefix region of `clusters` clusters and gathers it.
    pub fn gather_any(&mut self, clusters: usize) -> Result<GatherOutcome, CoreError> {
        let region =
            self.with_free_space(|free| free.find(clusters))
                .ok_or(CoreError::Topology(
                    vlsi_topology::TopologyError::NoLinearPath,
                ))?;
        self.gather(region)
    }

    /// The regions one [`gather_any`](Self::gather_any) per entry of
    /// `sizes`, in order, would take on this chip — or `None` when that
    /// sequence would fail somewhere. A read-only probe on the occupancy
    /// index: the first request is answered by the shared free-space
    /// snapshot, each later one by a sweep of that free set minus the
    /// cells already planned, which is the occupancy the earlier gathers
    /// would leave behind. Nothing is programmed, so refusing a
    /// multi-region request costs no worm.
    pub fn plan_gathers(&self, sizes: &[usize]) -> Option<Vec<Region>> {
        if sizes.iter().sum::<usize>() > self.free_clusters() {
            return None;
        }
        self.with_free_space(|finder| self.fit_in_turn(finder, |c| self.index.is_free(c), sizes))
    }

    /// Sequential fit of `sizes` into the free set `free`, of which
    /// `first` is the snapshot: the first size is answered by `first`,
    /// each later one by a sweep of `free` minus the cells already
    /// planned.
    fn fit_in_turn(
        &self,
        first: &RegionFinder,
        free: impl Fn(Coord) -> bool,
        sizes: &[usize],
    ) -> Option<Vec<Region>> {
        if sizes.iter().sum::<usize>() > first.free_total() {
            return None;
        }
        // Cells of the regions planned so far, as a mask over the die.
        let mut taken: Vec<bool> = Vec::new();
        let mut planned: Vec<Region> = Vec::with_capacity(sizes.len());
        for (i, &clusters) in sizes.iter().enumerate() {
            let region = if i == 0 {
                first.find(clusters)?
            } else {
                RegionFinder::new(&self.grid, |c| free(c) && !taken[self.slot(c)]).find(clusters)?
            };
            if i + 1 < sizes.len() {
                taken.resize(self.total_clusters(), false);
                for c in region.cells() {
                    taken[self.slot(c)] = true;
                }
            }
            planned.push(region);
        }
        Some(planned)
    }

    /// Free-space fragmentation in `[0, 1]` (0 = one request can take all
    /// free clusters).
    pub fn fragmentation(&self) -> f64 {
        self.with_free_space(RegionFinder::fragmentation)
    }

    /// Releases a processor (must be inactive): every switch it owns
    /// returns to the default state and its clusters become free.
    pub fn release_processor(&mut self, id: ProcessorId) -> Result<(), CoreError> {
        let p = self.processor(id)?;
        if p.state != ProcState::Inactive {
            return Err(CoreError::BadTransition {
                id,
                from: p.state,
                to: ProcState::Release,
            });
        }
        self.fabric.release_owner(RegionTag(id.0));
        self.index.release_owner(RegionTag(id.0));
        let cycle = self.noc.stats().cycles;
        if let Some(mut p) = self.processors.remove(&id) {
            set_state(&mut p, ProcState::Release, &self.telemetry, cycle);
        }
        self.telemetry.count("core.releases", 1);
        Ok(())
    }

    /// Fuses two inactive processors into one larger processor. The
    /// regions must be disjoint and their union connected. Both originals
    /// are released; the union is gathered fresh.
    pub fn fuse(&mut self, a: ProcessorId, b: ProcessorId) -> Result<GatherOutcome, CoreError> {
        let ra = self.processor(a)?.region.clone();
        let rb = self.processor(b)?.region.clone();
        if !ra.is_disjoint(&rb) {
            return Err(CoreError::CannotFuse);
        }
        let union = ra.union(&rb);
        if !union.is_connected() {
            return Err(CoreError::CannotFuse);
        }
        self.release_processor(a)?;
        self.release_processor(b)?;
        self.gather(union)
    }

    /// Splits an inactive processor into parts (which must exactly
    /// partition its region). The original is released; each part is
    /// gathered fresh.
    pub fn split(
        &mut self,
        id: ProcessorId,
        parts: &[Region],
    ) -> Result<Vec<GatherOutcome>, CoreError> {
        let region = self.processor(id)?.region.clone();
        // Parts must be pairwise disjoint and cover the region exactly.
        let mut covered = Region::new([]);
        for (i, p) in parts.iter().enumerate() {
            for q in &parts[i + 1..] {
                if !p.is_disjoint(q) {
                    return Err(CoreError::BadSplit);
                }
            }
            covered = covered.union(p);
        }
        if covered != region {
            return Err(CoreError::BadSplit);
        }
        self.release_processor(id)?;
        let mut out = Vec::with_capacity(parts.len());
        for p in parts {
            out.push(self.gather(p.clone())?);
        }
        Ok(out)
    }

    // --- lifecycle -----------------------------------------------------------

    fn transition(&mut self, id: ProcessorId, to: ProcState) -> Result<(), CoreError> {
        let cycle = self.noc.stats().cycles;
        let p = self
            .processors
            .get_mut(&id)
            .ok_or(CoreError::UnknownProcessor(id))?;
        if !p.state.can_transition(to) {
            return Err(CoreError::BadTransition {
                id,
                from: p.state,
                to,
            });
        }
        set_state(p, to, &self.telemetry, cycle);
        Ok(())
    }

    /// Invokes a processor: inactive → active (protections set).
    pub fn activate(&mut self, id: ProcessorId) -> Result<(), CoreError> {
        self.transition(id, ProcState::Active)
    }

    /// Clears protections: active → inactive (others may now access its
    /// memory blocks).
    pub fn deactivate(&mut self, id: ProcessorId) -> Result<(), CoreError> {
        self.transition(id, ProcState::Inactive)
    }

    /// Wipes an inactive processor's adaptive processor back to its
    /// just-gathered state — empty library, zeroed memory blocks, cold
    /// object cache — while keeping the already-programmed switches. A
    /// warm pool uses this to hand a region to a new tenant without
    /// paying the configuration worms again.
    pub fn recycle_processor(&mut self, id: ProcessorId) -> Result<(), CoreError> {
        self.require_state(id, ProcState::Inactive)?;
        let cluster = self.grid.cluster();
        let telemetry = self.telemetry.clone();
        let p = self.processor_mut(id)?;
        p.ap = AdaptiveProcessor::with_telemetry(
            ScaledProcessor::ap_config(&p.region, &cluster),
            telemetry,
        );
        Ok(())
    }

    /// Puts an active processor to sleep, optionally with a wake timer.
    pub fn sleep(&mut self, id: ProcessorId, timer: Option<u64>) -> Result<(), CoreError> {
        self.transition(id, ProcState::Sleep)?;
        self.processor_mut(id)?.sleep_timer = timer;
        Ok(())
    }

    /// Wakes a sleeping processor (an event arrived).
    pub fn wake(&mut self, id: ProcessorId) -> Result<(), CoreError> {
        self.transition(id, ProcState::Active)?;
        self.processor_mut(id)?.sleep_timer = None;
        Ok(())
    }

    /// Advances sleep timers by `ticks`; processors whose timer expires
    /// wake. Returns the IDs that woke.
    pub fn tick_timers(&mut self, ticks: u64) -> Vec<ProcessorId> {
        let mut woke = Vec::new();
        let cycle = self.noc.stats().cycles;
        for (id, p) in self.processors.iter_mut() {
            if p.state == ProcState::Sleep {
                if let Some(t) = p.sleep_timer {
                    if t <= ticks {
                        set_state(p, ProcState::Active, &self.telemetry, cycle);
                        p.sleep_timer = None;
                        woke.push(*id);
                    } else {
                        p.sleep_timer = Some(t - ticks);
                    }
                }
            }
        }
        woke
    }

    // --- execution -----------------------------------------------------------

    fn require_state(&self, id: ProcessorId, required: ProcState) -> Result<(), CoreError> {
        let current = self.state(id)?;
        if current != required {
            return Err(CoreError::BadState {
                id,
                current,
                required,
            });
        }
        Ok(())
    }

    /// Installs logical objects into a processor's library. Allowed only
    /// in the inactive state ("storing objects into libraries … are done
    /// in this state", §3.3).
    pub fn install(
        &mut self,
        id: ProcessorId,
        objects: impl IntoIterator<Item = LogicalObject>,
    ) -> Result<(), CoreError> {
        self.require_state(id, ProcState::Inactive)?;
        self.processor_mut(id)?.ap.install(objects)?;
        Ok(())
    }

    /// Configures a streaming datapath on an active processor. The
    /// stream is anything convertible into an `Arc<GlobalConfigStream>`,
    /// so repeat callers (the staged executor) can share one allocation
    /// across configures instead of cloning the elements every time.
    pub fn configure(
        &mut self,
        id: ProcessorId,
        stream: impl Into<Arc<GlobalConfigStream>>,
    ) -> Result<ConfigureOutcome, CoreError> {
        self.require_state(id, ProcState::Active)?;
        Ok(self.processor_mut(id)?.ap.configure(stream)?)
    }

    /// Executes the configured datapath on an active processor.
    pub fn execute(
        &mut self,
        id: ProcessorId,
        tap_limit: u64,
        max_cycles: u64,
    ) -> Result<ExecutionReport, CoreError> {
        self.require_state(id, ProcState::Active)?;
        Ok(self.processor_mut(id)?.ap.execute(tap_limit, max_cycles)?)
    }

    /// Executes the most recently configured datapath of every
    /// processor in `ids` as one struct-of-arrays **region sweep**: each
    /// AP's resident datapath and memory blocks are moved out into a
    /// [`SoaLane`], the lanes are swept lane-major, and everything is
    /// moved back. Lanes share no state, so the order only decides cache
    /// behaviour: driving one lane's dense arrays to completion while
    /// they are hot beats touching every lane once per cycle.
    /// [`Self::execute`] is the same engine on a batch of one.
    ///
    /// Reports come back in `ids` order. All named processors must be
    /// distinct and active. If any lane fails (memory fault or cycle
    /// budget), every AP is still restored first and the first failure
    /// (in `ids` order) is returned — the same error a sequential
    /// `execute` loop would have hit on that processor.
    pub fn execute_batch(
        &mut self,
        ids: &[ProcessorId],
        tap_limit: u64,
        max_cycles: u64,
    ) -> Result<Vec<ExecutionReport>, CoreError> {
        for id in ids {
            self.require_state(*id, ProcState::Active)?;
        }
        // Move every AP's datapath + memory out into a lane.
        let mut lanes: Vec<SoaLane> = Vec::with_capacity(ids.len());
        for (i, id) in ids.iter().enumerate() {
            match self.processor_mut(*id)?.ap.begin_batch() {
                Ok(lane) => lanes.push(lane),
                Err(e) => {
                    // Roll already-detached lanes back before failing so
                    // no AP is left without its memory.
                    for (done, lane) in ids.iter().zip(lanes.drain(..)) {
                        let _ = self.processor_mut(*done)?.ap.finish_batch(lane);
                    }
                    // A processor named twice shows up here for free: its
                    // datapath left with the first mention.
                    return Err(match e {
                        ApError::EmptyDatapath if ids[..i].contains(id) => {
                            CoreError::DuplicateInBatch(*id)
                        }
                        e => e.into(),
                    });
                }
            }
        }
        // One region sweep over all lanes: drain, typed failure or
        // cycle-budget timeout is recorded per lane and surfaces below.
        for lane in &mut lanes {
            lane.start(tap_limit, max_cycles);
            while lane.step() {}
        }
        // Reattach in processor order; surface the first failure only
        // after every AP has its state back.
        let mut reports = Vec::with_capacity(ids.len());
        let mut first_err: Option<CoreError> = None;
        for (id, lane) in ids.iter().zip(lanes) {
            match self.processor_mut(*id)?.ap.finish_batch(lane) {
                Ok(r) => reports.push(r),
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e.into());
                    }
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(reports),
        }
    }

    /// Scalar (virtual-hardware) execution on an active processor.
    pub fn execute_scalar(
        &mut self,
        id: ProcessorId,
        stream: &GlobalConfigStream,
    ) -> Result<std::collections::HashMap<ObjectId, Word>, CoreError> {
        self.require_state(id, ProcState::Active)?;
        Ok(self.processor_mut(id)?.ap.execute_scalar(stream)?)
    }

    // --- mailbox (inter-processor memory access) ----------------------------

    /// Writes words into `id`'s memory block — the path a preceding
    /// processor uses to hand data to a following processor (Figure 7(d)).
    /// Allowed only while the target is inactive; active and sleeping
    /// processors are read/write protected.
    pub fn write_mailbox(
        &mut self,
        id: ProcessorId,
        block: usize,
        addr: u64,
        words: &[Word],
    ) -> Result<(), CoreError> {
        let state = self.state(id)?;
        if !state.others_may_access_memory() {
            return Err(CoreError::ProtectionViolation { id, state });
        }
        let p = self.processor_mut(id)?;
        let mem =
            p.ap.memory_mut(block)
                .ok_or(CoreError::UnknownBlock { id, block })?;
        mem.store_slice(addr, words)?;
        Ok(())
    }

    /// Chip-wide metrics: the merged counters of every live processor's
    /// AP, plus the NoC and switch-fabric totals.
    pub fn metrics(&self) -> ChipMetrics {
        let mut ap = vlsi_ap::ApMetrics::default();
        for p in self.processors.values() {
            ap = ap.merge(&p.ap.metrics());
        }
        ChipMetrics {
            live_processors: self.processors.len(),
            ap,
            noc_cycles: self.noc.stats().cycles,
            noc_worms_delivered: self.noc.stats().worms_delivered,
            noc_link_crossings: self.noc.stats().link_crossings,
            switch_stores: self.fabric.store_count(),
        }
    }

    /// Renders the chip's floorplan as text: one character per cluster —
    /// `.` free, `#` defective, `a`–`z`/`A`–`Z` the owning processor
    /// (by ID modulo 52). For examples and debugging.
    pub fn layout_text(&self) -> String {
        let mut out = String::new();
        for y in 0..self.grid.height() {
            for x in 0..self.grid.width() {
                let c = Coord::new(x, y);
                let ch = if self.index.is_defective(c) {
                    '#'
                } else {
                    match self.index.owner(c) {
                        None => '.',
                        Some(tag) => {
                            let i = (tag.0 as usize) % 52;
                            if i < 26 {
                                (b'a' + i as u8) as char
                            } else {
                                (b'A' + (i - 26) as u8) as char
                            }
                        }
                    }
                };
                out.push(ch);
            }
            out.push('\n');
        }
        out
    }

    /// Sends words into `id`'s memory block *through the router network*:
    /// the data travels as a worm from `from`'s home cluster (or the
    /// supervisor when `from` is `None`) to `id`'s home cluster and lands
    /// in the mailbox on arrival. This is the Figure 7(c)/(e) path — the
    /// same routers that carry configuration carry inter-processor data —
    /// and it returns the worm's delivery latency in NoC cycles.
    ///
    /// The same protection rule as [`write_mailbox`](Self::write_mailbox)
    /// applies: the target must be inactive.
    pub fn send_message(
        &mut self,
        from: Option<ProcessorId>,
        to: ProcessorId,
        block: usize,
        addr: u64,
        words: &[Word],
    ) -> Result<u64, CoreError> {
        let state = self.state(to)?;
        if !state.others_may_access_memory() {
            return Err(CoreError::ProtectionViolation { id: to, state });
        }
        let src = match from {
            Some(f) => self.processor(f)?.fold.path()[0],
            None => self.supervisor,
        };
        let dest = self.processor(to)?.fold.path()[0];
        debug_assert!(self.noc.is_idle(), "chip ops are synchronous");
        let mut payload = Vec::with_capacity(words.len() + 2);
        payload.push(block as u64);
        payload.push(addr);
        payload.extend(words.iter().map(|w| w.0));
        let worm = self
            .noc
            .inject(src, dest, payload)
            .map_err(CoreError::Noc)?;
        self.noc
            .run_until_drained(1_000_000)
            .map_err(CoreError::Noc)?;
        let mut latency = 0;
        for (packet, l) in self.noc.take_delivered() {
            if packet.worm != worm {
                continue;
            }
            latency = l;
            let block = packet.payload[0] as usize;
            let addr = packet.payload[1];
            let words: Vec<Word> = packet.payload[2..].iter().map(|&w| Word(w)).collect();
            let p = self.processor_mut(to)?;
            let mem =
                p.ap.memory_mut(block)
                    .ok_or(CoreError::UnknownBlock { id: to, block })?;
            mem.store_slice(addr, &words)?;
        }
        Ok(latency)
    }

    /// Reads words from `id`'s memory block under the same protection
    /// rule as [`write_mailbox`](Self::write_mailbox).
    pub fn read_mailbox(
        &mut self,
        id: ProcessorId,
        block: usize,
        addr: u64,
        len: usize,
    ) -> Result<Vec<Word>, CoreError> {
        let state = self.state(id)?;
        if !state.others_may_access_memory() {
            return Err(CoreError::ProtectionViolation { id, state });
        }
        let p = self.processor_mut(id)?;
        let mem =
            p.ap.memory_mut(block)
                .ok_or(CoreError::UnknownBlock { id, block })?;
        Ok(mem.load_slice(addr, len)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chip() -> VlsiChip {
        VlsiChip::new(8, 8, Cluster::default())
    }

    #[test]
    fn gather_programs_switches_via_worms() {
        let mut c = chip();
        let out = c.gather(Region::rect(Coord::new(2, 2), 2, 2)).unwrap();
        assert_eq!(out.worms, 4);
        assert!(out.config_latency > 0);
        assert!(out.switch_stores >= 8, "reserve + program per cluster");
        let p = c.processor(out.id).unwrap();
        assert_eq!(p.state, ProcState::Inactive);
        assert_eq!(p.ap.config().compute_objects, 16);
        // Fold recoverable from fabric state.
        let start = p.fold.path()[0];
        assert_eq!(
            c.fabric().trace_shift_path(start, 10),
            p.fold.path().to_vec()
        );
    }

    #[test]
    fn gather_ring_closes() {
        let mut c = chip();
        let out = c.gather_ring(Region::rect(Coord::new(0, 0), 4, 2)).unwrap();
        let p = c.processor(out.id).unwrap();
        assert!(p.ring);
        assert!(p.fold.closes_as_ring());
        // The trace loops: length equals the region size.
        let start = p.fold.path()[0];
        assert_eq!(c.fabric().trace_shift_path(start, 100).len(), 8);
    }

    #[test]
    fn overlapping_gather_conflicts() {
        let mut c = chip();
        let _a = c.gather(Region::rect(Coord::new(0, 0), 2, 2)).unwrap();
        let err = c.gather(Region::rect(Coord::new(1, 1), 2, 2)).unwrap_err();
        assert!(matches!(err, CoreError::Topology(_)), "{err}");
        // The failed gather rolled back: the free count reflects only the
        // first processor (4 clusters of 64).
        assert_eq!(c.free_clusters(), 60);
    }

    #[test]
    fn defective_cluster_rejected() {
        let mut c = chip();
        c.mark_defective(Coord::new(1, 1));
        let err = c.gather(Region::rect(Coord::new(0, 0), 2, 2)).unwrap_err();
        assert_eq!(err, CoreError::DefectiveCluster(Coord::new(1, 1)));
        // A region avoiding the defect gathers fine.
        c.gather(Region::rect(Coord::new(2, 0), 2, 2)).unwrap();
    }

    #[test]
    fn stuck_switch_becomes_a_defect_and_blocks_gather() {
        let mut c = chip();
        c.mark_switch_stuck(Coord::new(1, 1));
        assert!(c.is_switch_stuck(Coord::new(1, 1)));
        assert!(c.is_defective(Coord::new(1, 1)));
        // The fault report flows into allocation: a region over the stuck
        // switch is rejected typed, one around it gathers fine.
        let err = c.gather(Region::rect(Coord::new(0, 0), 2, 2)).unwrap_err();
        assert_eq!(err, CoreError::DefectiveCluster(Coord::new(1, 1)));
        c.gather(Region::rect(Coord::new(2, 0), 2, 2)).unwrap();
        assert_eq!(c.usable_clusters(), 63);
    }

    #[test]
    fn lifecycle_transitions() {
        let mut c = chip();
        let id = c.gather(Region::rect(Coord::new(0, 0), 2, 2)).unwrap().id;
        assert_eq!(c.state(id).unwrap(), ProcState::Inactive);
        c.activate(id).unwrap();
        assert_eq!(c.state(id).unwrap(), ProcState::Active);
        c.sleep(id, Some(10)).unwrap();
        assert_eq!(c.state(id).unwrap(), ProcState::Sleep);
        c.wake(id).unwrap();
        c.deactivate(id).unwrap();
        c.release_processor(id).unwrap();
        assert!(c.processor(id).is_err());
        assert_eq!(c.free_clusters(), 64);
    }

    #[test]
    fn illegal_transitions_rejected() {
        let mut c = chip();
        let id = c.gather(Region::rect(Coord::new(0, 0), 1, 1)).unwrap().id;
        // Inactive cannot sleep.
        assert!(matches!(
            c.sleep(id, None),
            Err(CoreError::BadTransition { .. })
        ));
        c.activate(id).unwrap();
        // Active cannot be released directly.
        assert!(matches!(
            c.release_processor(id),
            Err(CoreError::BadTransition { .. })
        ));
    }

    #[test]
    fn sleep_timer_wakes() {
        let mut c = chip();
        let id = c.gather(Region::rect(Coord::new(0, 0), 1, 1)).unwrap().id;
        c.activate(id).unwrap();
        c.sleep(id, Some(5)).unwrap();
        assert!(c.tick_timers(3).is_empty());
        assert_eq!(c.tick_timers(2), vec![id]);
        assert_eq!(c.state(id).unwrap(), ProcState::Active);
        // Untimed sleepers only wake on events.
        c.sleep(id, None).unwrap();
        assert!(c.tick_timers(1000).is_empty());
        assert_eq!(c.state(id).unwrap(), ProcState::Sleep);
    }

    #[test]
    fn mailbox_protection() {
        let mut c = chip();
        let id = c.gather(Region::rect(Coord::new(0, 0), 1, 1)).unwrap().id;
        // Inactive: writable.
        c.write_mailbox(id, 0, 0, &[Word(42)]).unwrap();
        assert_eq!(c.read_mailbox(id, 0, 0, 1).unwrap(), vec![Word(42)]);
        // A block the (known) processor does not have is named as such.
        let block = c.processor(id).unwrap().ap.config().memory_objects;
        let err = c.write_mailbox(id, block, 0, &[Word(1)]).unwrap_err();
        assert_eq!(err, CoreError::UnknownBlock { id, block });
        assert_eq!(err.to_string(), format!("{id} has no memory block {block}"));
        // Active: protected.
        c.activate(id).unwrap();
        assert!(matches!(
            c.write_mailbox(id, 0, 0, &[Word(1)]),
            Err(CoreError::ProtectionViolation { .. })
        ));
        assert!(matches!(
            c.read_mailbox(id, 0, 0, 1),
            Err(CoreError::ProtectionViolation { .. })
        ));
    }

    #[test]
    fn fuse_and_split() {
        let mut c = chip();
        let a = c.gather(Region::rect(Coord::new(0, 0), 2, 2)).unwrap().id;
        let b = c.gather(Region::rect(Coord::new(2, 0), 2, 2)).unwrap().id;
        let fused = c.fuse(a, b).unwrap();
        let p = c.processor(fused.id).unwrap();
        assert_eq!(p.scale(), 8);
        assert_eq!(p.ap.config().compute_objects, 32);
        // Split back into two halves.
        let parts = [
            Region::rect(Coord::new(0, 0), 2, 2),
            Region::rect(Coord::new(2, 0), 2, 2),
        ];
        let out = c.split(fused.id, &parts).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(c.processors().count(), 2);
    }

    #[test]
    fn fuse_rejects_disconnected_or_overlapping() {
        let mut c = chip();
        let a = c.gather(Region::rect(Coord::new(0, 0), 2, 2)).unwrap().id;
        let b = c.gather(Region::rect(Coord::new(4, 4), 2, 2)).unwrap().id;
        assert_eq!(c.fuse(a, b).unwrap_err(), CoreError::CannotFuse);
        // Both survive the failed fuse.
        assert_eq!(c.processors().count(), 2);
    }

    #[test]
    fn split_requires_exact_partition() {
        let mut c = chip();
        let id = c.gather(Region::rect(Coord::new(0, 0), 2, 2)).unwrap().id;
        let bad = [Region::rect(Coord::new(0, 0), 2, 1)]; // misses half
        assert_eq!(c.split(id, &bad).unwrap_err(), CoreError::BadSplit);
    }

    #[test]
    fn install_requires_inactive_and_execute_requires_active() {
        use vlsi_object::{LocalConfig, Operation};
        let mut c = chip();
        let id = c.gather(Region::rect(Coord::new(0, 0), 2, 2)).unwrap().id;
        let objs = vec![
            LogicalObject::compute(
                ObjectId(0),
                LocalConfig::with_imm(Operation::Const, Word(5)),
            ),
            LogicalObject::compute(
                ObjectId(1),
                LocalConfig::with_imm(Operation::AddImm, Word(3)),
            ),
        ];
        c.install(id, objs.clone()).unwrap();
        let stream: GlobalConfigStream = [vlsi_object::GlobalConfigElement::unary(
            ObjectId(1),
            ObjectId(0),
        )]
        .into_iter()
        .collect();
        // Configure while inactive: rejected.
        assert!(matches!(
            c.configure(id, stream.clone()),
            Err(CoreError::BadState { .. })
        ));
        c.activate(id).unwrap();
        // Install while active: rejected.
        assert!(matches!(
            c.install(id, objs),
            Err(CoreError::BadState { .. })
        ));
        c.configure(id, stream).unwrap();
        let report = c.execute(id, 1, 100_000).unwrap();
        assert_eq!(report.taps[&ObjectId(1)], vec![Word(8)]);
    }

    /// Gathers `n` 2×2 processors, installs a distinct const→add kernel
    /// in each, and activates + configures them all.
    fn batch_ready_chip(n: usize) -> (VlsiChip, Vec<ProcessorId>) {
        use vlsi_object::{LocalConfig, Operation};
        let mut c = chip();
        let mut ids = Vec::new();
        for k in 0..n {
            let id = c.gather_any(4).unwrap().id;
            c.install(
                id,
                vec![
                    LogicalObject::compute(
                        ObjectId(0),
                        LocalConfig::with_imm(Operation::Const, Word(10 + k as u64)),
                    ),
                    LogicalObject::compute(
                        ObjectId(1),
                        LocalConfig::with_imm(Operation::AddImm, Word(k as u64)),
                    ),
                ],
            )
            .unwrap();
            c.activate(id).unwrap();
            let stream: GlobalConfigStream = [vlsi_object::GlobalConfigElement::unary(
                ObjectId(1),
                ObjectId(0),
            )]
            .into_iter()
            .collect();
            c.configure(id, stream).unwrap();
            ids.push(id);
        }
        (c, ids)
    }

    /// Gathers `n` 2×2 processors, each streaming words from block 0
    /// through a distinct multiplier into block 1 (four per run, stream
    /// pointers advancing across runs) with a tap on the products.
    fn stream_ready_chip(n: usize) -> (VlsiChip, Vec<ProcessorId>) {
        use vlsi_object::{LocalConfig, Operation};
        let mut c = chip();
        let mut ids = Vec::new();
        for k in 0..n as u64 {
            let id = c.gather_any(4).unwrap().id;
            c.install(
                id,
                vec![
                    LogicalObject::memory(ObjectId(0), LocalConfig::op(Operation::Load))
                        .with_init(vec![Word(0), Word(0), Word(4)]),
                    LogicalObject::compute(
                        ObjectId(1),
                        LocalConfig::with_imm(Operation::MulImm, Word(3 + k)),
                    ),
                    LogicalObject::memory(ObjectId(2), LocalConfig::op(Operation::Store))
                        .with_init(vec![Word(64), Word(0), Word(0)]),
                    LogicalObject::compute(ObjectId(3), LocalConfig::op(Operation::Pass)),
                ],
            )
            .unwrap();
            let words: Vec<Word> = (0..32).map(|i| Word(100 * k + i + 1)).collect();
            c.write_mailbox(id, 0, 0, &words).unwrap();
            c.activate(id).unwrap();
            c.configure(id, stream_kernel()).unwrap();
            ids.push(id);
        }
        (c, ids)
    }

    fn stream_kernel() -> GlobalConfigStream {
        use vlsi_object::GlobalConfigElement;
        [
            GlobalConfigElement::unary(ObjectId(1), ObjectId(0)),
            GlobalConfigElement {
                sink: ObjectId(2),
                src_lhs: None,
                src_rhs: Some(ObjectId(1)),
                src_pred: None,
            },
            GlobalConfigElement::unary(ObjectId(3), ObjectId(1)),
        ]
        .into_iter()
        .collect()
    }

    /// One engine, three ways in: a batch of N, N batches of one, and N
    /// plain `execute` calls must leave identical reports, metrics and
    /// memory images — on resident datapaths that are run again (stream
    /// pointers carry over), after a round in which every lane timed
    /// out mid-stream, and after a reconfigure that rebuilds the
    /// datapaths from the registers persisted into the bound objects.
    #[test]
    fn a_batch_of_n_equals_n_batches_of_one() {
        type Outcomes = Vec<Result<ExecutionReport, CoreError>>;
        let one_at_a_time = |c: &mut VlsiChip, ids: &[ProcessorId], budget, batched| -> Outcomes {
            ids.iter()
                .map(|&id| match batched {
                    true => c.execute_batch(&[id], 1, budget).map(|mut r| r.remove(0)),
                    false => c.execute(id, 1, budget),
                })
                .collect()
        };
        let (mut whole, ids) = stream_ready_chip(6);
        let (mut ones, ids_ones) = stream_ready_chip(6);
        let (mut plain, ids_plain) = stream_ready_chip(6);
        assert_eq!(ids, ids_ones);
        assert_eq!(ids, ids_plain);
        // Two full runs, a 5-cycle budget that strands every lane
        // mid-stream, a full run from there, then a reconfigure.
        for (round, budget) in [100_000u64, 100_000, 5, 100_000, 100_000]
            .into_iter()
            .enumerate()
        {
            if round == 4 {
                for c in [&mut whole, &mut ones, &mut plain] {
                    for &id in &ids {
                        c.configure(id, stream_kernel()).unwrap();
                    }
                }
            }
            let batch = whole.execute_batch(&ids, 1, budget);
            let singles = one_at_a_time(&mut ones, &ids, budget, true);
            assert_eq!(
                singles,
                one_at_a_time(&mut plain, &ids, budget, false),
                "round {round}: execute is a batch of one"
            );
            match batch {
                Ok(reports) => {
                    assert_ne!(budget, 5, "the short budget must strand the lanes");
                    let singles: Vec<_> = singles.into_iter().map(Result::unwrap).collect();
                    assert_eq!(reports, singles, "round {round}");
                    assert!(reports.iter().all(|r| r.stores == 4), "round {round}");
                }
                Err(e) => {
                    assert_eq!(budget, 5, "round {round}: {e}");
                    let first = singles.into_iter().find_map(Result::err);
                    assert_eq!(Some(e), first, "round {round}: first failure in id order");
                }
            }
            for other in [&ones, &plain] {
                assert_eq!(whole.metrics().ap, other.metrics().ap, "round {round}");
                for &id in &ids {
                    let (a, b) = (whole.processor(id).unwrap(), other.processor(id).unwrap());
                    for block in 0..2 {
                        assert_eq!(
                            a.ap.memory(block),
                            b.ap.memory(block),
                            "round {round}: {id} block {block}"
                        );
                    }
                }
            }
        }
        // The pointers really did carry over: four full runs stored
        // 16 words per lane, plus whatever the stranded round wrote.
        for (k, &id) in ids.iter().enumerate() {
            let out = whole.processor(id).unwrap().ap.memory(1).unwrap();
            assert!(out.write_count() >= 16, "lane {k}");
            assert_eq!(
                out.peek(64).unwrap(),
                Word((100 * k as u64 + 1) * (3 + k as u64))
            );
        }
    }

    #[test]
    fn execute_batch_rejects_duplicates_and_bad_state() {
        let (mut c, ids) = batch_ready_chip(2);
        let dup = [ids[0], ids[1], ids[0]];
        assert_eq!(
            c.execute_batch(&dup, 1, 100_000).unwrap_err(),
            CoreError::DuplicateInBatch(ids[0])
        );
        c.deactivate(ids[1]).unwrap();
        assert!(matches!(
            c.execute_batch(&ids, 1, 100_000).unwrap_err(),
            CoreError::BadState { .. }
        ));
        // The duplicate/bad-state probes must not have stranded memory:
        // the healthy processor still executes normally.
        let r = c.execute(ids[0], 1, 100_000).unwrap();
        assert_eq!(r.taps[&ObjectId(1)], vec![Word(10)]);
    }

    #[test]
    fn execute_batch_surfaces_lane_timeouts_after_restoring_all() {
        let (mut c, ids) = batch_ready_chip(3);
        // A zero cycle budget times out every lane, the same typed error
        // a sequential execute loop would hit first.
        let err = c.execute_batch(&ids, 1, 0).unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::Ap(vlsi_ap::ApError::ExecutionTimeout { .. })
            ),
            "{err}"
        );
        // Every AP got its memory back and still runs.
        for &id in &ids {
            c.execute(id, 1, 100_000).unwrap();
        }
    }

    #[test]
    fn gather_any_allocates_by_count() {
        let mut c = chip();
        // Square request.
        let a = c.gather_any(16).unwrap();
        assert_eq!(c.processor(a.id).unwrap().scale(), 16);
        // Awkward prime count still gathers (serpentine prefix).
        let b = c.gather_any(7).unwrap();
        assert_eq!(c.processor(b.id).unwrap().scale(), 7);
        assert_eq!(c.free_clusters(), 64 - 23);
        // Requests larger than the remaining space fail cleanly.
        assert!(c.gather_any(64).is_err());
    }

    #[test]
    fn fragmentation_rises_with_scattered_allocations() {
        let mut c = chip();
        assert_eq!(c.fragmentation(), 0.0);
        // Pin the chip's middle, splitting free space.
        c.gather(Region::rect(Coord::new(3, 0), 2, 8)).unwrap();
        assert!(c.fragmentation() > 0.0);
    }

    #[test]
    fn layout_text_shows_ownership() {
        let mut c = VlsiChip::new(4, 2, Cluster::default());
        let id = c.gather(Region::rect(Coord::new(0, 0), 2, 2)).unwrap().id;
        c.mark_defective(Coord::new(3, 0));
        let text = c.layout_text();
        let ch = (b'a' + (id.0 % 52) as u8) as char;
        assert_eq!(text, format!("{ch}{ch}.#\n{ch}{ch}..\n"));
    }

    #[test]
    fn traveling_worm_gathers_identically() {
        // Both strategies end with the same switch state; only the
        // configuration latency differs.
        let mut a = chip();
        let ua = a
            .gather_with(
                Region::rect(Coord::new(5, 5), 3, 3),
                ConfigStrategy::UnicastWorms,
            )
            .unwrap();
        let mut b = chip();
        let ub = b
            .gather_with(
                Region::rect(Coord::new(5, 5), 3, 3),
                ConfigStrategy::TravelingWorm,
            )
            .unwrap();
        let pa = a.processor(ua.id).unwrap();
        let pb = b.processor(ub.id).unwrap();
        assert_eq!(pa.fold.path(), pb.fold.path());
        for &c in pa.fold.path() {
            assert_eq!(
                a.fabric().state(c).chained,
                b.fabric().state(c).chained,
                "switch mismatch at {c}"
            );
        }
        // Far regions: the traveling worm pays the approach once, the
        // unicast strategy pays it per worm — but unicast pipelines, so
        // its *max* latency is lower. Both must be nonzero and distinct
        // accounting.
        assert!(ua.config_latency > 0 && ub.config_latency > 0);
        assert!(
            ub.config_latency > ua.config_latency,
            "serial worm is slower end-to-end"
        );
        // Everything still executes on the traveling-worm processor.
        b.activate(ub.id).unwrap();
        b.deactivate(ub.id).unwrap();
        b.release_processor(ub.id).unwrap();

        // Ablation G: near and far from the supervisor on a 12x12 die,
        // the pipelined unicast fleet never finishes after the serial
        // worm.
        let latency = |strategy, origin, side| {
            VlsiChip::new(12, 12, Cluster::default())
                .gather_with(Region::rect(origin, side, side), strategy)
                .unwrap()
                .config_latency
        };
        for (side, origin) in [
            (2u16, Coord::new(0, 0)),
            (2, Coord::new(10, 10)),
            (4, Coord::new(0, 0)),
            (4, Coord::new(8, 8)),
            (6, Coord::new(6, 6)),
        ] {
            let u = latency(ConfigStrategy::UnicastWorms, origin, side);
            let t = latency(ConfigStrategy::TravelingWorm, origin, side);
            println!("{side}x{side} at {origin}: unicast {u}, traveling {t}");
            assert!(
                u <= t,
                "{side}x{side} at {origin}: unicast {u} > traveling {t}"
            );
        }
    }

    #[test]
    fn traveling_worm_conflict_rolls_back() {
        let mut c = chip();
        c.gather(Region::rect(Coord::new(2, 2), 2, 2)).unwrap();
        let before = c.free_clusters();
        let err = c
            .gather_with(
                Region::rect(Coord::new(0, 0), 4, 4),
                ConfigStrategy::TravelingWorm,
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::Topology(_)));
        assert_eq!(c.free_clusters(), before);
    }

    #[test]
    fn relocation_preserves_processor_state() {
        use vlsi_object::{LocalConfig, Operation};
        let mut c = chip();
        // Pin the top-left corner, then gather a worker further out.
        let pin = c.gather(Region::rect(Coord::new(0, 0), 2, 2)).unwrap().id;
        let id = c.gather(Region::rect(Coord::new(4, 4), 2, 2)).unwrap().id;
        // Give the worker observable state: library + memory contents.
        c.install(
            id,
            [LogicalObject::compute(
                ObjectId(1),
                LocalConfig::with_imm(Operation::Const, Word(9)),
            )],
        )
        .unwrap();
        c.write_mailbox(id, 0, 7, &[Word(0xBEEF)]).unwrap();
        let old_region = c.processor(id).unwrap().region.clone();
        // Free the pin so the preferred (top-left) placement opens up.
        c.release_processor(pin).unwrap();
        c.relocate(id).unwrap();
        let p = c.processor(id).unwrap();
        assert_ne!(p.region, old_region, "processor should have moved");
        // State travelled with it.
        assert_eq!(c.read_mailbox(id, 0, 7, 1).unwrap(), vec![Word(0xBEEF)]);
        assert!(c.processor(id).unwrap().ap.library().contains(ObjectId(1)));
        // Fold and switches consistent at the new site.
        let p = c.processor(id).unwrap();
        let traced = c
            .fabric()
            .trace_shift_path(p.fold.path()[0], p.fold.len() + 2);
        assert_eq!(traced, p.fold.path().to_vec());
    }

    #[test]
    fn relocate_requires_inactive() {
        let mut c = chip();
        let id = c.gather(Region::rect(Coord::new(0, 0), 2, 2)).unwrap().id;
        c.activate(id).unwrap();
        assert!(matches!(c.relocate(id), Err(CoreError::BadState { .. })));
    }

    #[test]
    fn compact_reduces_fragmentation() {
        let mut c = chip();
        // Scatter processors, then free some to fragment the chip.
        let ids: Vec<_> = (0..4u16)
            .map(|i| {
                c.gather(Region::rect(Coord::new(i * 2, i * 2), 2, 2))
                    .unwrap()
                    .id
            })
            .collect();
        c.release_processor(ids[0]).unwrap();
        c.release_processor(ids[2]).unwrap();
        let before = c.fragmentation();
        let moved = c.compact();
        let after = c.fragmentation();
        assert!(moved > 0, "compaction should move someone");
        assert!(after <= before, "fragmentation {after} !<= {before}");
    }

    #[test]
    fn noc_messages_land_in_the_mailbox() {
        let mut c = chip();
        let a = c.gather(Region::rect(Coord::new(0, 0), 2, 2)).unwrap().id;
        let b = c.gather(Region::rect(Coord::new(6, 6), 2, 2)).unwrap().id;
        // Supervisor → b.
        let lat_far = c
            .send_message(None, b, 0, 5, &[Word(11), Word(22)])
            .unwrap();
        assert_eq!(
            c.read_mailbox(b, 0, 5, 2).unwrap(),
            vec![Word(11), Word(22)]
        );
        // a → b crosses the chip; a → a-neighbourhood is cheaper.
        let lat_near = c.send_message(Some(b), b, 0, 9, &[Word(3)]).unwrap();
        assert!(lat_far > lat_near);
        // Protection: active targets reject messages.
        c.activate(a).unwrap();
        assert!(matches!(
            c.send_message(None, a, 0, 0, &[Word(1)]),
            Err(CoreError::ProtectionViolation { .. })
        ));
    }

    #[test]
    fn admission_probes_track_chip_state() {
        let mut c = chip();
        assert_eq!(c.total_clusters(), 64);
        assert_eq!(c.usable_clusters(), 64);
        assert_eq!(c.largest_gatherable(), 64);
        // A centre pin splits free space: the probe drops below the free
        // count while the count itself only shrinks by the pin.
        let pin = c.gather(Region::rect(Coord::new(3, 0), 2, 8)).unwrap().id;
        assert_eq!(c.free_clusters(), 48);
        assert!(c.largest_gatherable() < 48, "{}", c.largest_gatherable());
        assert_eq!(c.processor_at(Coord::new(3, 0)), Some(pin));
        assert_eq!(c.processor_at(Coord::new(0, 0)), None);
        // Defects shrink the usable ceiling.
        c.mark_defective(Coord::new(0, 0));
        assert_eq!(c.defective_count(), 1);
        assert_eq!(c.usable_clusters(), 63);
    }

    #[test]
    fn largest_gatherable_edge_cases_match_exhaustive_scan() {
        // Oracle: try every candidate size from the free count down — no
        // monotonicity assumption, unlike the binary-search probe.
        fn exhaustive(c: &VlsiChip) -> usize {
            let free = |k: Coord| c.processor_at(k).is_none() && !c.is_defective(k);
            (1..=c.free_clusters())
                .rev()
                .find(|&n| vlsi_topology::alloc::find_region(c.grid(), n, free).is_some())
                .unwrap_or(0)
        }

        // Fully-defective die: nothing gatherable at all.
        let mut dead = chip();
        for y in 0..8 {
            for x in 0..8 {
                dead.mark_defective(Coord::new(x, y));
            }
        }
        assert_eq!(dead.largest_gatherable(), 0);
        assert_eq!(exhaustive(&dead), 0);

        // Zero free clusters: the whole die is owned, none defective.
        let mut full = chip();
        full.gather(Region::rect(Coord::new(0, 0), 8, 8)).unwrap();
        assert_eq!(full.free_clusters(), 0);
        assert_eq!(full.largest_gatherable(), 0);
        assert_eq!(exhaustive(&full), 0);

        // Exactly one cluster left healthy: the probe finds exactly it.
        let mut one = chip();
        for y in 0..8 {
            for x in 0..8 {
                if (x, y) != (5, 2) {
                    one.mark_defective(Coord::new(x, y));
                }
            }
        }
        assert_eq!(one.largest_gatherable(), 1);
        assert_eq!(exhaustive(&one), 1);

        // A fragmented mid-state (pinned column + scattered defects)
        // agrees with the oracle too.
        let mut frag = chip();
        frag.gather(Region::rect(Coord::new(3, 0), 2, 8)).unwrap();
        frag.mark_defective(Coord::new(0, 0));
        frag.mark_defective(Coord::new(7, 7));
        frag.mark_defective(Coord::new(1, 4));
        assert_eq!(frag.largest_gatherable(), exhaustive(&frag));
        assert!(frag.largest_gatherable() > 0);
    }

    #[test]
    fn bigger_regions_cost_more_configuration_latency() {
        let mut small_chip = chip();
        let small = small_chip
            .gather(Region::rect(Coord::new(0, 0), 2, 2))
            .unwrap();
        let mut big_chip = chip();
        let big = big_chip
            .gather(Region::rect(Coord::new(0, 0), 6, 6))
            .unwrap();
        assert!(big.config_latency > small.config_latency);
        assert!(big.switch_stores > small.switch_stores);
    }

    // --- relocation: a processor that does not move is not re-programmed ----

    /// The always-release-and-re-program placement path `relocate` and
    /// `compact` replaced, kept as the reference the early return must
    /// be indistinguishable from.
    impl VlsiChip {
        fn relocate_reprogramming(&mut self, id: ProcessorId) -> Result<GatherOutcome, CoreError> {
            self.require_state(id, ProcState::Inactive)?;
            let p = self.processor(id)?;
            let (ring, old_region) = (p.ring, p.region.clone());
            let tag = RegionTag(id.0);
            let found = vlsi_topology::alloc::find_region(&self.grid, old_region.len(), |c| {
                self.index.is_free(c)
                    || (self.index.owner(c) == Some(tag) && !self.index.is_defective(c))
            });
            // Nowhere to go from under a defect: refused before anything
            // is released.
            if found.is_none() {
                if let Some(c) = old_region.cells().find(|&c| self.is_defective(c)) {
                    return Err(CoreError::DefectiveCluster(c));
                }
            }
            self.fabric.release_owner(tag);
            self.index.release_owner(tag);
            let region = found.unwrap_or_else(|| old_region.clone());
            match self.program_region(&region, ring, id) {
                Ok((fold, outcome)) => {
                    let p = self.processor_mut(id)?;
                    p.region = region;
                    p.fold = fold;
                    p.config_latency = outcome.config_latency;
                    Ok(outcome)
                }
                Err(e) => {
                    let (fold, _) = self.program_region(&old_region, ring, id)?;
                    let p = self.processor_mut(id)?;
                    p.region = old_region;
                    p.fold = fold;
                    Err(e)
                }
            }
        }

        fn compact_reprogramming(&mut self) -> usize {
            let ids: Vec<ProcessorId> = self
                .processors()
                .filter(|p| p.state == ProcState::Inactive)
                .map(|p| p.id)
                .collect();
            let mut moved = 0;
            for id in ids {
                let before = self.processor(id).unwrap().region.clone();
                if self.relocate_reprogramming(id).is_ok()
                    && self.processor(id).unwrap().region != before
                {
                    moved += 1;
                }
            }
            moved
        }

        /// Everything placement decides or programs, as text: per
        /// processor its state, region, fold, chain links, configuration
        /// latency and mailbox word; per cluster its owner (index and
        /// fabric views), defect flag and switch registers.
        fn placement_image(&self) -> String {
            use std::fmt::Write;
            let mut out = format!("free {}\n", self.free_clusters());
            for p in self.processors() {
                let chained: Vec<bool> = p
                    .fold
                    .path()
                    .windows(2)
                    .map(|w| self.fabric.is_chained(w[0], w[1]))
                    .collect();
                let mailbox = p.ap.memory(0).map(|m| m.peek(0));
                writeln!(
                    out,
                    "{} {:?} ring {} latency {} region {:?} fold {:?} chained {chained:?} \
                     mailbox {mailbox:?}",
                    p.id,
                    p.state,
                    p.ring,
                    p.config_latency,
                    p.region,
                    p.fold.path(),
                )
                .unwrap();
            }
            for y in 0..self.grid.height() {
                for x in 0..self.grid.width() {
                    let c = Coord::new(x, y);
                    writeln!(
                        out,
                        "{c} owner {:?}/{:?} defect {} switch {:?}",
                        self.index.owner(c),
                        self.fabric.owner(c),
                        self.is_defective(c),
                        self.fabric.state(c),
                    )
                    .unwrap();
                }
            }
            out
        }
    }

    /// One step of a random placement history, decoded from `(op, a, b)`.
    /// `relocate`/`compact` select the path under test; returns what the
    /// step decided (gathered id, relocation verdict, moved count).
    fn placement_step(
        chip: &mut VlsiChip,
        live: &mut Vec<ProcessorId>,
        (op, a, b): (u8, u16, u16),
        relocate: fn(&mut VlsiChip, ProcessorId) -> Result<GatherOutcome, CoreError>,
        compact: fn(&mut VlsiChip) -> usize,
    ) -> String {
        let side = chip.grid().width();
        let pick = |live: &Vec<ProcessorId>| live.get(usize::from(a) % live.len().max(1)).copied();
        match op {
            0..=2 => match chip.gather_any(1 + usize::from(a * 16 + b) % 12) {
                Ok(out) => {
                    chip.write_mailbox(out.id, 0, 0, &[Word(0xA000 + u64::from(out.id.0))])
                        .unwrap();
                    live.push(out.id);
                    format!("gathered {} latency {}", out.id, out.config_latency)
                }
                Err(e) => format!("gather failed: {e}"),
            },
            3 => match pick(live) {
                Some(id) => {
                    let _ = chip.deactivate(id);
                    chip.release_processor(id).unwrap();
                    live.retain(|l| *l != id);
                    format!("released {id}")
                }
                None => String::new(),
            },
            4 => {
                let c = Coord::new(a % side, b % side);
                if b % 2 == 0 {
                    chip.mark_defective(c);
                } else {
                    chip.mark_switch_stuck(c);
                }
                format!("defect at {c}")
            }
            5 => match pick(live) {
                Some(id) if chip.activate(id).is_err() => format!("{:?}", chip.deactivate(id)),
                _ => String::new(),
            },
            6 => match pick(live) {
                Some(id) => match relocate(chip, id) {
                    Ok(out) => format!("relocated {id} latency {}", out.config_latency),
                    Err(e) => format!("relocate {id} failed: {e}"),
                },
                None => String::new(),
            },
            _ => format!("compacted, moved {}", compact(chip)),
        }
    }

    fn placement_ops() -> impl proptest::Strategy<Value = Vec<(u8, u16, u16)>> {
        proptest::prop::collection::vec((0u8..8, 0u16..16, 0u16..16), 1..48)
    }

    proptest::proptest! {
        /// Random gather/release/defect/activate histories with
        /// relocations and compactions in between: the chip that skips
        /// re-programming processors that stay put ends every step — and
        /// the closing `compact()` — in exactly the state, with exactly
        /// the verdicts, of the chip that releases and re-programs
        /// everything.
        #[test]
        fn relocation_matches_the_always_reprogram_reference(
            side in 8u16..=16,
            ops in placement_ops(),
        ) {
            let mut subject = VlsiChip::new(side, side, Cluster::default());
            let mut reference = VlsiChip::new(side, side, Cluster::default());
            let (mut live_s, mut live_r) = (Vec::new(), Vec::new());
            for op in ops.into_iter().chain([(7, 0, 0), (7, 0, 0)]) {
                let did = placement_step(
                    &mut subject,
                    &mut live_s,
                    op,
                    VlsiChip::relocate,
                    VlsiChip::compact,
                );
                let expect = placement_step(
                    &mut reference,
                    &mut live_r,
                    op,
                    VlsiChip::relocate_reprogramming,
                    VlsiChip::compact_reprogramming,
                );
                proptest::prop_assert_eq!(did, expect, "op {:?}", op);
                proptest::prop_assert_eq!(
                    subject.placement_image(),
                    reference.placement_image(),
                    "after op {:?}",
                    op
                );
            }
        }

        /// After every mutation of the same histories, the cached probes
        /// answer what a finder swept from scratch answers.
        #[test]
        fn free_space_cache_matches_a_fresh_finder(
            side in 8u16..=16,
            ops in placement_ops(),
        ) {
            let mut chip = VlsiChip::new(side, side, Cluster::default());
            let mut live = Vec::new();
            for op in ops {
                placement_step(&mut chip, &mut live, op, VlsiChip::relocate, VlsiChip::compact);
                let fresh = RegionFinder::new(chip.grid(), |c| {
                    chip.processor_at(c).is_none() && !chip.is_defective(c)
                });
                proptest::prop_assert_eq!(chip.largest_gatherable(), fresh.largest_fit());
                proptest::prop_assert_eq!(chip.fragmentation(), fresh.fragmentation());
                proptest::prop_assert_eq!(chip.free_clusters(), fresh.free_total());
            }
        }

        /// On the occupancies the same histories leave behind, the plan
        /// for any list of sizes is the list of regions sequential
        /// `gather_any` calls then take on that chip, and is `None`
        /// exactly when that sequence fails.
        #[test]
        fn plan_matches_sequential_gather_any(
            side in 8u16..=16,
            ops in placement_ops(),
            sizes in proptest::prop::collection::vec(0usize..40, 1..6),
        ) {
            let mut chip = VlsiChip::new(side, side, Cluster::default());
            let mut live = Vec::new();
            for op in ops {
                placement_step(&mut chip, &mut live, op, VlsiChip::relocate, VlsiChip::compact);
            }
            let plan = chip.plan_gathers(&sizes);
            let taken: Result<Vec<Region>, CoreError> = sizes
                .iter()
                .map(|&n| {
                    let id = chip.gather_any(n)?.id;
                    Ok(chip.processor(id)?.region.clone())
                })
                .collect();
            proptest::prop_assert_eq!(plan, taken.ok(), "sizes {:?}", sizes);
        }
    }

    /// The same history on two chips: one asks for the compaction plan
    /// and then compacts, the other relocates its Inactive processors
    /// one by one in ID order — what `compact` means. The plan names the
    /// second chip's movers and destinations, and its gathers are what
    /// `plan_gathers` answers there; `None` exactly when that is `None`.
    /// Both chips end in the same placement.
    fn compaction_plan_case(side: u16, ops: &[(u8, u16, u16)], sizes: &[usize]) {
        let replayed = || {
            let mut chip = VlsiChip::new(side, side, Cluster::default());
            let mut live = Vec::new();
            for &op in ops {
                placement_step(
                    &mut chip,
                    &mut live,
                    op,
                    VlsiChip::relocate,
                    VlsiChip::compact,
                );
            }
            chip
        };
        let (mut subject, mut reference) = (replayed(), replayed());
        let plan = subject.plan_compaction(sizes);
        subject.compact();

        let regions = |c: &VlsiChip| -> Vec<(ProcessorId, Region)> {
            c.processors().map(|p| (p.id, p.region.clone())).collect()
        };
        let before = regions(&reference);
        let inactive: Vec<ProcessorId> = reference
            .processors()
            .filter(|p| p.state == ProcState::Inactive)
            .map(|p| p.id)
            .collect();
        for id in inactive {
            let _ = reference.relocate(id);
        }
        let moves: Vec<(ProcessorId, Region)> = regions(&reference)
            .into_iter()
            .filter(|moved| !before.contains(moved))
            .collect();
        let expect = reference
            .plan_gathers(sizes)
            .map(|gathers| CompactionPlan { moves, gathers });
        assert_eq!(plan, expect, "sizes {sizes:?} after {ops:?}");
        assert_eq!(subject.placement_image(), reference.placement_image());
    }

    proptest::proptest! {
        /// On the occupancies the placement histories leave behind, the
        /// plan's verdict and layout are those of relocating every
        /// Inactive processor in ID order and then planning the gathers.
        #[test]
        fn compaction_plan_matches_compact_then_plan_gathers(
            side in 8u16..=16,
            ops in placement_ops(),
            sizes in proptest::prop::collection::vec(0usize..40, 1..6),
        ) {
            compaction_plan_case(side, &ops, &sizes);
        }
    }

    #[test]
    fn a_plan_is_replayed_once_per_generation_and_inactive_set() {
        let mut c = chip();
        let ids: Vec<_> = (0..4u16)
            .map(|i| {
                c.gather(Region::rect(Coord::new(i * 2, i * 2), 2, 2))
                    .unwrap()
                    .id
            })
            .collect();
        c.release_processor(ids[0]).unwrap();
        c.release_processor(ids[2]).unwrap();
        let plan = c
            .plan_compaction(&[16])
            .expect("compaction makes room for 4x4");
        assert_eq!(plan.moves.len(), 2, "{plan:?}");
        // Asked again at the same generation and Inactive set, the
        // remembered replay answers: a marked replay shows through.
        let mark = |c: &VlsiChip| c.compaction.borrow_mut().as_mut().unwrap().moves.clear();
        mark(&c);
        assert_eq!(c.plan_compaction(&[16]).map(|p| p.moves), Some(Vec::new()));
        assert_eq!(c.plan_compaction(&[64]), None, "more than is free");
        // An activation moves no generation but changes the Inactive set:
        // the chip replays, and the active processor stays put.
        let first = plan.moves[0].0;
        c.activate(first).unwrap();
        let narrower = c.plan_compaction(&[16]).map(|p| p.moves);
        assert!(narrower.is_none_or(|moves| moves.iter().all(|(id, _)| *id != first)));
        c.deactivate(first).unwrap();
        assert_eq!(c.plan_compaction(&[16]), Some(plan.clone()));
        // The commit moves exactly the planned processors there.
        assert_eq!(c.compact(), 2);
        for (id, to) in &plan.moves {
            assert_eq!(&c.processor(*id).unwrap().region, to);
        }
        assert_eq!(c.plan_gathers(&[16]), Some(plan.gathers));
    }

    /// A fully gathered 4×4 die, then a defect under the 12-cluster
    /// processor: it has nowhere to go. The relocation is refused typed
    /// and the processor keeps every cell it lists.
    #[test]
    fn a_relocation_with_nowhere_to_go_releases_nothing() {
        let mut c = VlsiChip::new(4, 4, Cluster::default());
        let big = c.gather_any(12).unwrap().id;
        let small = c.gather_any(4).unwrap().id;
        assert_eq!(c.free_clusters(), 0);
        let hit = Coord::new(1, 1);
        assert_eq!(c.processor_at(hit), Some(big));
        c.mark_defective(hit);
        let before = c.placement_image();
        assert_eq!(
            c.relocate(big).unwrap_err(),
            CoreError::DefectiveCluster(hit)
        );
        assert_eq!(
            c.placement_image(),
            before,
            "nothing released or programmed"
        );
        let p = c.processor(big).unwrap();
        assert!(p
            .region
            .cells()
            .all(|cell| c.processor_at(cell) == Some(big)));
        assert_eq!(c.free_clusters(), 0);
        assert!(
            c.gather_any(4).is_err(),
            "no cell of the processor is handed out"
        );
        // A compaction treats it as staying, and moves nobody.
        assert_eq!(c.plan_compaction(&[1]), None);
        assert_eq!(c.compact(), 0);
        assert_eq!(c.placement_image(), before);
        c.release_processor(small).unwrap();
    }

    /// A move whose re-program is refused — here by a reservation the
    /// index does not know about — writes the old site back.
    #[test]
    fn a_failed_move_restores_the_old_site() {
        let mut c = chip();
        let pin = c.gather(Region::rect(Coord::new(0, 0), 2, 2)).unwrap().id;
        let id = c.gather(Region::rect(Coord::new(4, 4), 2, 2)).unwrap().id;
        c.mark_defective(Coord::new(5, 5));
        c.release_processor(pin).unwrap();
        c.fabric.reserve(Coord::new(1, 1), RegionTag(999)).unwrap();
        let before = c.placement_image();
        let err = c.relocate(id).unwrap_err();
        assert!(matches!(err, CoreError::Topology(_)), "{err}");
        assert_eq!(c.placement_image(), before, "old site written back");
        let p = c.processor(id).unwrap();
        assert!(p
            .region
            .cells()
            .all(|cell| c.processor_at(cell) == Some(id)));
        assert_eq!(c.free_clusters(), 64 - 4);
    }

    #[test]
    fn a_refused_deploy_leaves_no_trace() {
        use crate::staged::{StagedExecutor, StagedProgram, StagedStage};
        let stage = |clusters| StagedStage {
            name: format!("s{clusters}"),
            clusters,
            objects: Vec::new(),
            stream: Arc::new(GlobalConfigStream::default()),
            inputs: Vec::new(),
            outputs: Vec::new(),
            guard: None,
        };
        let program = |sizes: &[usize]| StagedProgram {
            name: "refused".into(),
            stages: sizes.iter().map(|&n| stage(n)).collect(),
            outputs: Vec::new(),
        };
        let mut c = chip();
        c.gather(Region::rect(Coord::new(3, 0), 2, 8)).unwrap();
        let trace = |c: &VlsiChip| {
            (
                c.noc.stats().clone(),
                c.fabric.store_count(),
                c.index.generation(),
                c.next_id,
                c.free_clusters(),
            )
        };
        let before = trace(&c);
        // More clusters than are free; a last stage left only scraps;
        // first stages that fit followed by one the pinned column leaves
        // no room for; nothing at all.
        for sizes in [&[40, 9][..], &[24, 20, 4], &[4, 4, 24], &[0]] {
            let err = StagedExecutor::deploy(&mut c, program(sizes)).unwrap_err();
            assert_eq!(
                err,
                CoreError::Topology(vlsi_topology::TopologyError::NoLinearPath),
                "{sizes:?}: the error gather_any gives"
            );
            assert_eq!(trace(&c), before, "{sizes:?}");
        }
        // The same die takes a program that fits, on the planned regions.
        let plan = c.plan_gathers(&[24, 20]).unwrap();
        let exec = StagedExecutor::deploy(&mut c, program(&[24, 20])).unwrap();
        let regions: Vec<Region> = exec
            .processors()
            .iter()
            .map(|&id| c.processor(id).unwrap().region.clone())
            .collect();
        assert_eq!(regions, plan);
    }

    #[test]
    fn a_processor_at_its_preferred_spot_is_not_reprogrammed() {
        let mut c = chip();
        let id = c.gather_any(6).unwrap().id;
        let latency = c.processor(id).unwrap().config_latency;
        let before = c.metrics();
        let out = c.relocate(id).unwrap();
        assert_eq!((out.worms, out.switch_stores), (0, 0));
        assert_eq!(out.config_latency, latency, "latency kept");
        let after = c.metrics();
        assert_eq!(after.switch_stores, before.switch_stores);
        assert_eq!(after.noc_worms_delivered, before.noc_worms_delivered);
        assert_eq!(after.noc_cycles, before.noc_cycles, "the NoC never ran");
        assert_eq!(c.compact(), 0);
        assert_eq!(c.metrics(), after, "compaction of a settled die is free");
    }

    #[test]
    fn a_defect_under_the_preferred_region_forces_the_move() {
        let mut c = chip();
        let id = c.gather_any(4).unwrap().id;
        let old = c.processor(id).unwrap().region.clone();
        assert_eq!(c.relocate(id).unwrap().worms, 0, "preferred spot: stays");
        c.mark_defective(Coord::new(1, 1));
        let out = c.relocate(id).unwrap();
        assert_eq!(out.worms, 4, "every cluster of the new site is programmed");
        let p = c.processor(id).unwrap();
        assert_ne!(p.region, old);
        assert!(!p.region.contains(Coord::new(1, 1)));
        assert_eq!(c.processor_at(Coord::new(0, 0)), None, "old site released");
    }
}
