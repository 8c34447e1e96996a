//! Programmable switches (Figure 6(b)/(c)) and the chip-wide switch fabric.
//!
//! Every cluster boundary carries two programmable networks:
//!
//! * the **unidirectional** stack-shift path (Figure 6(b)) — one inbound
//!   and one outbound direction per cluster, forming the folded linear
//!   array of the region;
//! * the **bidirectional** chain network (Figure 6(c)) — per-direction
//!   chain bits that splice the segmented CSD channels of adjacent
//!   clusters together.
//!
//! "The default status of programmable switches is a 'unchained'" (§3.2).
//! Scaling *is* programming these registers: "we can reconfigure the
//! processor by storing the appropriate configuration data to appropriate
//! switch" (§3.3) — no dedicated scaling instruction exists anywhere.
//!
//! Each switch also holds the **reservation flag** wormhole configuration
//! stores "to avoid a resource (cluster) allocation conflict among the
//! scaling configurations" (§3.3): a switch owned by one region rejects
//! programming by any other region until released.
//!
//! ## Storage
//!
//! A fabric built with [`SwitchFabric::sized`] packs every in-grid
//! switch into a dense row-major slab at 8 bytes per cell
//! (`PackedSwitch`: owner tag + flag byte + two `Dir`-index bytes + a
//! chain bitmask), so a 128×128 mesh costs 128 KiB instead of a
//! per-cell hash map of unpacked [`SwitchState`] entries. Coordinates
//! the slab does not cover — stacked layers, out-of-range coords, or
//! any coordinate of an unsized fabric — spill to a `BTreeMap`, whose
//! ordered iteration keeps every fabric walk deterministic.

use crate::coord::{Coord, Dir};
use crate::error::TopologyError;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use vlsi_telemetry::TelemetryHandle;

/// Identity of the region (scaled processor) owning a switch.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RegionTag(pub u32);

impl fmt::Display for RegionTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "region{}", self.0)
    }
}

/// Programming registers of one cluster's switch.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SwitchState {
    /// Direction the stack shift enters from (unidirectional network).
    pub shift_in: Option<Dir>,
    /// Direction the stack shift leaves toward.
    pub shift_out: Option<Dir>,
    /// Chain bits of the bidirectional network, indexed by [`Dir::index`].
    pub chained: [bool; 6],
    /// Reservation flag stored by wormhole configuration.
    pub reserved_by: Option<RegionTag>,
}

impl SwitchState {
    /// Whether any network is programmed.
    pub fn is_programmed(&self) -> bool {
        self.shift_in.is_some() || self.shift_out.is_some() || self.chained.iter().any(|&b| b)
    }
}

/// Set when `reserved` carries a live owner tag (tag values are
/// unrestricted, so presence needs its own bit rather than a sentinel).
const HAS_OWNER: u8 = 1;

/// One switch packed into 8 bytes for the dense slab.
///
/// `shift_in`/`shift_out` store `Dir::index() + 1` with 0 meaning
/// unprogrammed; `chained` is a bitmask over [`Dir::index`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct PackedSwitch {
    reserved: u32,
    flags: u8,
    shift_in: u8,
    shift_out: u8,
    chained: u8,
}

impl PackedSwitch {
    const DEFAULT: PackedSwitch = PackedSwitch {
        reserved: 0,
        flags: 0,
        shift_in: 0,
        shift_out: 0,
        chained: 0,
    };

    fn pack(s: SwitchState) -> PackedSwitch {
        let dir = |d: Option<Dir>| d.map_or(0, |d| d.index() as u8 + 1);
        let mut chained = 0u8;
        for (i, &bit) in s.chained.iter().enumerate() {
            if bit {
                chained |= 1 << i;
            }
        }
        PackedSwitch {
            reserved: s.reserved_by.map_or(0, |t| t.0),
            flags: if s.reserved_by.is_some() {
                HAS_OWNER
            } else {
                0
            },
            shift_in: dir(s.shift_in),
            shift_out: dir(s.shift_out),
            chained,
        }
    }

    fn unpack(self) -> SwitchState {
        let dir = |b: u8| (b > 0).then(|| Dir::ALL[usize::from(b - 1)]);
        let mut chained = [false; 6];
        for (i, bit) in chained.iter_mut().enumerate() {
            *bit = self.chained & (1 << i) != 0;
        }
        SwitchState {
            shift_in: dir(self.shift_in),
            shift_out: dir(self.shift_out),
            chained,
            reserved_by: (self.flags & HAS_OWNER != 0).then_some(RegionTag(self.reserved)),
        }
    }

    fn is_default(self) -> bool {
        self == PackedSwitch::DEFAULT
    }
}

/// The chip-wide collection of programmable switches.
#[derive(Clone, Debug, Default)]
pub struct SwitchFabric {
    /// Dense row-major slab over layer-0 coordinates inside
    /// `slab_width × slab_height`; empty for unsized fabrics.
    slab: Vec<PackedSwitch>,
    slab_width: u16,
    slab_height: u16,
    /// Deterministic overflow store for every coordinate the slab does
    /// not cover (unsized fabrics, stacked layers, out-of-range).
    spill: BTreeMap<Coord, SwitchState>,
    /// Switch-health tracking: coordinates whose programming registers
    /// are stuck. A stuck switch rejects every further store (reserve,
    /// chain, program) with [`TopologyError::SwitchStuck`]; releases
    /// still work, since clearing a region must never wedge on the fault
    /// that killed it.
    stuck: BTreeSet<Coord>,
    programming_stores: u64,
    /// Observability sink; the default handle is a no-op.
    telemetry: TelemetryHandle,
}

impl SwitchFabric {
    /// A fabric with every switch in the default (unchained, unreserved)
    /// state. Switch state is created lazily per coordinate.
    pub fn new() -> SwitchFabric {
        SwitchFabric::default()
    }

    /// A fabric recording every programming-register store into
    /// `telemetry` (the `topology.switch_stores` counter).
    pub fn with_telemetry(telemetry: TelemetryHandle) -> SwitchFabric {
        SwitchFabric {
            telemetry,
            ..SwitchFabric::default()
        }
    }

    /// A fabric whose layer-0 `width × height` grid is pre-packed into
    /// the dense slab (8 bytes per switch). Coordinates outside the
    /// grid still work; they spill to the ordered overflow map.
    pub fn sized(width: u16, height: u16) -> SwitchFabric {
        SwitchFabric::sized_with_telemetry(width, height, TelemetryHandle::disabled())
    }

    /// [`sized`](Self::sized) with a telemetry sink attached.
    pub fn sized_with_telemetry(
        width: u16,
        height: u16,
        telemetry: TelemetryHandle,
    ) -> SwitchFabric {
        SwitchFabric {
            slab: vec![PackedSwitch::DEFAULT; usize::from(width) * usize::from(height)],
            slab_width: width,
            slab_height: height,
            telemetry,
            ..SwitchFabric::default()
        }
    }

    fn store(&mut self, n: u64) {
        self.programming_stores += n;
        self.telemetry.count("topology.switch_stores", n);
    }

    fn slab_index(&self, c: Coord) -> Option<usize> {
        (c.layer == 0 && c.x < self.slab_width && c.y < self.slab_height)
            .then(|| usize::from(c.y) * usize::from(self.slab_width) + usize::from(c.x))
    }

    /// Applies `f` to the switch state at `c`, storing the result back
    /// into the slab (packed) or the spill map.
    fn update(&mut self, c: Coord, f: impl FnOnce(&mut SwitchState)) {
        match self.slab_index(c) {
            Some(i) => {
                let mut s = self.slab[i].unpack();
                f(&mut s);
                self.slab[i] = PackedSwitch::pack(s);
            }
            None => f(self.spill.entry(c).or_default()),
        }
    }

    /// The switch state at `c` (default state if never touched).
    pub fn state(&self, c: Coord) -> SwitchState {
        match self.slab_index(c) {
            Some(i) => self.slab[i].unpack(),
            None => self.spill.get(&c).copied().unwrap_or_default(),
        }
    }

    /// The owner of the switch at `c`.
    pub fn owner(&self, c: Coord) -> Option<RegionTag> {
        self.state(c).reserved_by
    }

    /// Marks the switch at `c` stuck (a permanent stuck-at fault in its
    /// programming registers). From now on every programming store at
    /// `c` fails typed; existing state is frozen as-is.
    pub fn mark_stuck(&mut self, c: Coord) {
        self.stuck.insert(c);
    }

    /// Whether the switch at `c` is marked stuck.
    pub fn is_stuck(&self, c: Coord) -> bool {
        self.stuck.contains(&c)
    }

    /// Stuck switches, in coordinate order.
    pub fn stuck_coords(&self) -> impl Iterator<Item = Coord> + '_ {
        self.stuck.iter().copied()
    }

    fn check_healthy(&self, c: Coord) -> Result<(), TopologyError> {
        if self.is_stuck(c) {
            Err(TopologyError::SwitchStuck { at: c })
        } else {
            Ok(())
        }
    }

    /// Stores the reservation flag at `c` for `owner` — the per-switch
    /// effect of a configuration worm passing through. Fails if another
    /// region holds the switch.
    pub fn reserve(&mut self, c: Coord, owner: RegionTag) -> Result<(), TopologyError> {
        self.check_healthy(c)?;
        match self.owner(c) {
            Some(o) if o != owner => Err(TopologyError::SwitchConflict { at: c }),
            _ => {
                self.update(c, |s| s.reserved_by = Some(owner));
                self.store(1);
                Ok(())
            }
        }
    }

    /// Chains the bidirectional network between adjacent clusters `a` and
    /// `b`. Both switches must be reserved by `owner`.
    pub fn chain(&mut self, a: Coord, b: Coord, owner: RegionTag) -> Result<(), TopologyError> {
        let d = a.dir_to(b).ok_or(TopologyError::NotAdjacent(a, b))?;
        for (c, dir) in [(a, d), (b, d.opposite())] {
            self.check_healthy(c)?;
            if self.owner(c) != Some(owner) {
                return Err(TopologyError::SwitchConflict { at: c });
            }
            self.update(c, |s| s.chained[dir.index()] = true);
            self.store(1);
        }
        Ok(())
    }

    /// Unchains the bidirectional network between `a` and `b` (splitting).
    pub fn unchain(&mut self, a: Coord, b: Coord) -> Result<(), TopologyError> {
        let d = a.dir_to(b).ok_or(TopologyError::NotAdjacent(a, b))?;
        for (c, dir) in [(a, d), (b, d.opposite())] {
            self.check_healthy(c)?;
            self.update(c, |s| s.chained[dir.index()] = false);
            self.store(1);
        }
        Ok(())
    }

    /// Whether the chain network connects adjacent `a` and `b` (both ends
    /// must be chained).
    pub fn is_chained(&self, a: Coord, b: Coord) -> bool {
        let Some(d) = a.dir_to(b) else { return false };
        self.state(a).chained[d.index()] && self.state(b).chained[d.opposite().index()]
    }

    /// Programs the unidirectional stack-shift path along `path` (already
    /// validated as hop-adjacent), plus the chain network between every
    /// consecutive pair. `close_ring` additionally chains last → first
    /// (Figure 5). All touched switches must be reserved by `owner` first.
    pub fn program_path(
        &mut self,
        path: &[Coord],
        owner: RegionTag,
        close_ring: bool,
    ) -> Result<(), TopologyError> {
        for w in path.windows(2) {
            let (a, b) = (w[0], w[1]);
            let d = a.dir_to(b).ok_or(TopologyError::NotAdjacent(a, b))?;
            self.check_healthy(a)?;
            self.check_healthy(b)?;
            if self.owner(a) != Some(owner) {
                return Err(TopologyError::SwitchConflict { at: a });
            }
            if self.owner(b) != Some(owner) {
                return Err(TopologyError::SwitchConflict { at: b });
            }
            self.update(a, |s| s.shift_out = Some(d));
            self.update(b, |s| s.shift_in = Some(d.opposite()));
            self.store(2);
            self.chain(a, b, owner)?;
        }
        if let (true, &[first, _, .., last]) = (close_ring, path) {
            let d = last
                .dir_to(first)
                .ok_or(TopologyError::NotAdjacent(last, first))?;
            self.check_healthy(last)?;
            self.check_healthy(first)?;
            self.update(last, |s| s.shift_out = Some(d));
            self.update(first, |s| s.shift_in = Some(d.opposite()));
            self.store(2);
            self.chain(last, first, owner)?;
        }
        Ok(())
    }

    /// Applies a decoded per-switch program at `c` — the effect of one
    /// configuration worm's payload arriving at its target cluster. The
    /// switch must already hold `owner`'s reservation flag (stored by the
    /// same worm via [`reserve`](Self::reserve)).
    pub fn apply_program(
        &mut self,
        c: Coord,
        owner: RegionTag,
        program: SwitchState,
    ) -> Result<(), TopologyError> {
        self.check_healthy(c)?;
        if self.owner(c) != Some(owner) {
            return Err(TopologyError::SwitchConflict { at: c });
        }
        self.update(c, |s| {
            s.shift_in = program.shift_in;
            s.shift_out = program.shift_out;
            s.chained = program.chained;
        });
        self.store(1);
        Ok(())
    }

    /// Writes a saved switch state back at `c` verbatim — the undo of a
    /// failed re-program. One store, like a release, and it works on a
    /// stuck switch for the same reason: rolling back must never wedge on
    /// a fault.
    pub fn restore(&mut self, c: Coord, state: SwitchState) {
        self.update(c, |s| *s = state);
        self.store(1);
    }

    /// Releases every switch owned by `owner`, restoring the default
    /// state — the down-scale path ("clearing active state, turns to be a
    /// release", §3.4).
    pub fn release_owner(&mut self, owner: RegionTag) -> usize {
        let mut released = 0;
        for p in self.slab.iter_mut() {
            if p.flags & HAS_OWNER != 0 && p.reserved == owner.0 {
                *p = PackedSwitch::DEFAULT;
                released += 1;
            }
        }
        for s in self.spill.values_mut() {
            if s.reserved_by == Some(owner) {
                *s = SwitchState::default();
                released += 1;
            }
        }
        if released > 0 {
            self.store(released as u64);
        }
        released
    }

    /// Follows the programmed shift path from `start` (useful to recover
    /// a region's linear order from switch state alone). Stops after
    /// `limit` hops or when the path ends or loops back to `start`.
    pub fn trace_shift_path(&self, start: Coord, limit: usize) -> Vec<Coord> {
        let mut path = vec![start];
        let mut cur = start;
        for _ in 0..limit {
            let Some(d) = self.state(cur).shift_out else {
                break;
            };
            let Some(next) = cur.step(d) else { break };
            if next == start {
                break; // closed ring
            }
            path.push(next);
            cur = next;
        }
        path
    }

    /// Total programming-register stores performed — the paper's cost
    /// currency for reconfiguration ("simply requires routing and storing
    /// the data set", §5).
    pub fn store_count(&self) -> u64 {
        self.programming_stores
    }

    /// Coordinates whose switch deviates from the default state, slab
    /// row-major first, then spill coordinates in order.
    pub fn programmed_coords(&self) -> impl Iterator<Item = Coord> + '_ {
        let w = usize::from(self.slab_width);
        self.slab
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.is_default())
            .map(move |(i, _)| Coord::new((i % w) as u16, (i / w) as u16))
            .chain(
                self.spill
                    .iter()
                    .filter(|(_, s)| s.is_programmed() || s.reserved_by.is_some())
                    .map(|(&c, _)| c),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(x: u16, y: u16) -> Coord {
        Coord::new(x, y)
    }

    #[test]
    fn default_is_unchained_and_unreserved() {
        let f = SwitchFabric::new();
        let s = f.state(c(3, 3));
        assert!(!s.is_programmed());
        assert_eq!(s.reserved_by, None);
        assert!(!f.is_chained(c(0, 0), c(1, 0)));
    }

    #[test]
    fn reservation_conflicts_detected() {
        let mut f = SwitchFabric::new();
        f.reserve(c(0, 0), RegionTag(1)).unwrap();
        // Same owner re-reserves fine.
        f.reserve(c(0, 0), RegionTag(1)).unwrap();
        // Other owner rejected.
        assert_eq!(
            f.reserve(c(0, 0), RegionTag(2)),
            Err(TopologyError::SwitchConflict { at: c(0, 0) })
        );
    }

    #[test]
    fn chain_requires_reservation_and_adjacency() {
        let mut f = SwitchFabric::new();
        assert!(matches!(
            f.chain(c(0, 0), c(2, 0), RegionTag(1)),
            Err(TopologyError::NotAdjacent(_, _))
        ));
        assert!(matches!(
            f.chain(c(0, 0), c(1, 0), RegionTag(1)),
            Err(TopologyError::SwitchConflict { .. })
        ));
        f.reserve(c(0, 0), RegionTag(1)).unwrap();
        f.reserve(c(1, 0), RegionTag(1)).unwrap();
        f.chain(c(0, 0), c(1, 0), RegionTag(1)).unwrap();
        assert!(f.is_chained(c(0, 0), c(1, 0)));
        assert!(f.is_chained(c(1, 0), c(0, 0)));
    }

    #[test]
    fn unchain_splits() {
        let mut f = SwitchFabric::new();
        f.reserve(c(0, 0), RegionTag(1)).unwrap();
        f.reserve(c(1, 0), RegionTag(1)).unwrap();
        f.chain(c(0, 0), c(1, 0), RegionTag(1)).unwrap();
        f.unchain(c(0, 0), c(1, 0)).unwrap();
        assert!(!f.is_chained(c(0, 0), c(1, 0)));
    }

    #[test]
    fn program_path_sets_shift_and_chain() {
        let mut f = SwitchFabric::new();
        let path = [c(0, 0), c(1, 0), c(1, 1)];
        for &p in &path {
            f.reserve(p, RegionTag(7)).unwrap();
        }
        f.program_path(&path, RegionTag(7), false).unwrap();
        assert_eq!(f.state(c(0, 0)).shift_out, Some(Dir::East));
        assert_eq!(f.state(c(1, 0)).shift_in, Some(Dir::West));
        assert_eq!(f.state(c(1, 0)).shift_out, Some(Dir::South));
        assert_eq!(f.state(c(1, 1)).shift_in, Some(Dir::North));
        assert!(f.is_chained(c(0, 0), c(1, 0)));
        assert_eq!(f.trace_shift_path(c(0, 0), 10), path.to_vec());
    }

    #[test]
    fn ring_closes_the_path() {
        let mut f = SwitchFabric::new();
        let path = [c(0, 0), c(1, 0), c(1, 1), c(0, 1)];
        for &p in &path {
            f.reserve(p, RegionTag(1)).unwrap();
        }
        f.program_path(&path, RegionTag(1), true).unwrap();
        assert!(f.is_chained(c(0, 1), c(0, 0)));
        assert_eq!(f.state(c(0, 1)).shift_out, Some(Dir::North));
        // The trace stops when it loops back to the start.
        assert_eq!(f.trace_shift_path(c(0, 0), 100).len(), 4);
    }

    #[test]
    fn release_owner_restores_defaults() {
        let mut f = SwitchFabric::new();
        let path = [c(0, 0), c(1, 0)];
        for &p in &path {
            f.reserve(p, RegionTag(1)).unwrap();
        }
        f.program_path(&path, RegionTag(1), false).unwrap();
        assert_eq!(f.release_owner(RegionTag(1)), 2);
        assert!(!f.state(c(0, 0)).is_programmed());
        assert_eq!(f.owner(c(0, 0)), None);
        // Another region can take the clusters now.
        f.reserve(c(0, 0), RegionTag(2)).unwrap();
    }

    #[test]
    fn stuck_switch_rejects_programming_typed() {
        let mut f = SwitchFabric::new();
        f.mark_stuck(c(1, 0));
        assert!(f.is_stuck(c(1, 0)));
        assert_eq!(
            f.reserve(c(1, 0), RegionTag(1)),
            Err(TopologyError::SwitchStuck { at: c(1, 0) })
        );
        // A path through the stuck switch fails typed, never silently
        // mis-programs.
        f.reserve(c(0, 0), RegionTag(1)).unwrap();
        assert_eq!(
            f.program_path(&[c(0, 0), c(1, 0)], RegionTag(1), false),
            Err(TopologyError::SwitchStuck { at: c(1, 0) })
        );
        // Healthy switches are unaffected.
        f.reserve(c(0, 1), RegionTag(1)).unwrap();
        f.program_path(&[c(0, 0), c(0, 1)], RegionTag(1), false)
            .unwrap();
    }

    #[test]
    fn release_still_works_on_a_stuck_switch() {
        let mut f = SwitchFabric::new();
        f.reserve(c(0, 0), RegionTag(1)).unwrap();
        f.reserve(c(1, 0), RegionTag(1)).unwrap();
        f.chain(c(0, 0), c(1, 0), RegionTag(1)).unwrap();
        // The switch gets stuck mid-life; tearing the region down must
        // not wedge on it.
        f.mark_stuck(c(1, 0));
        assert_eq!(f.release_owner(RegionTag(1)), 2);
        assert_eq!(f.owner(c(1, 0)), None);
        // But it stays unusable for the next region.
        assert!(f.reserve(c(1, 0), RegionTag(2)).is_err());
        assert_eq!(f.stuck_coords().collect::<Vec<_>>(), vec![c(1, 0)]);
    }

    #[test]
    fn programming_store_accounting() {
        let mut f = SwitchFabric::new();
        let before = f.store_count();
        f.reserve(c(0, 0), RegionTag(1)).unwrap();
        f.reserve(c(1, 0), RegionTag(1)).unwrap();
        f.chain(c(0, 0), c(1, 0), RegionTag(1)).unwrap();
        assert!(f.store_count() > before);
    }

    #[test]
    fn packed_switch_round_trips_every_field() {
        let mut state = SwitchState {
            shift_in: Some(Dir::Up),
            shift_out: Some(Dir::West),
            chained: [true, false, true, false, true, true],
            reserved_by: Some(RegionTag(u32::MAX)),
        };
        assert_eq!(PackedSwitch::pack(state).unpack(), state);
        // Tag 0 and no tag must stay distinguishable.
        state.reserved_by = Some(RegionTag(0));
        assert_eq!(PackedSwitch::pack(state).unpack(), state);
        state.reserved_by = None;
        assert_eq!(PackedSwitch::pack(state).unpack(), state);
        assert!(PackedSwitch::pack(SwitchState::default()).is_default());
        assert_eq!(std::mem::size_of::<PackedSwitch>(), 8);
    }

    #[test]
    fn sized_fabric_matches_unsized_behaviour() {
        let mut sized = SwitchFabric::sized(4, 4);
        let mut lazy = SwitchFabric::new();
        for f in [&mut sized, &mut lazy] {
            let path = [c(0, 0), c(1, 0), c(1, 1)];
            for &p in &path {
                f.reserve(p, RegionTag(3)).unwrap();
            }
            f.program_path(&path, RegionTag(3), false).unwrap();
            f.reserve(c(3, 3), RegionTag(9)).unwrap();
        }
        for x in 0..4 {
            for y in 0..4 {
                assert_eq!(sized.state(c(x, y)), lazy.state(c(x, y)));
            }
        }
        assert_eq!(sized.store_count(), lazy.store_count());
        let mut a: Vec<Coord> = sized.programmed_coords().collect();
        let mut b: Vec<Coord> = lazy.programmed_coords().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(sized.release_owner(RegionTag(3)), 3);
        assert_eq!(lazy.release_owner(RegionTag(3)), 3);
        assert_eq!(sized.owner(c(3, 3)), Some(RegionTag(9)));
    }

    #[test]
    fn sized_fabric_spills_out_of_grid_and_stacked_coords() {
        let mut f = SwitchFabric::sized(2, 2);
        // Beyond the slab bounds.
        f.reserve(c(7, 7), RegionTag(1)).unwrap();
        assert_eq!(f.owner(c(7, 7)), Some(RegionTag(1)));
        // On a stacked layer above a slab-covered (x, y).
        let up = Coord::on_layer(0, 0, 1);
        f.reserve(up, RegionTag(2)).unwrap();
        assert_eq!(f.owner(up), Some(RegionTag(2)));
        // The layer-0 cell underneath is untouched.
        assert_eq!(f.owner(c(0, 0)), None);
        let coords: Vec<Coord> = f.programmed_coords().collect();
        assert_eq!(coords.len(), 2);
        assert!(coords.contains(&up) && coords.contains(&c(7, 7)));
        assert_eq!(f.release_owner(RegionTag(1)), 1);
        assert_eq!(f.owner(c(7, 7)), None);
    }
}
