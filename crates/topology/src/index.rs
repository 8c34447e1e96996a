//! The flat fabric occupancy index.
//!
//! §3.3–3.4 argue gather/release are cheap enough to run *at run time* —
//! which the simulator must not contradict. The switch fabric itself is
//! a lazily-populated map (correct for sparse programming state, wrong
//! for occupancy probes), so admission control used to rescan the whole
//! die through `HashMap`/`HashSet` lookups on every scheduler tick.
//! [`FabricIndex`] is the flat mirror those probes read instead: owner
//! tags and the defect set live in `Vec` slabs addressed `y * width +
//! x`, and the free-cluster count is maintained incrementally, so
//! `free_clusters` is O(1), point probes are one indexed load, and
//! region scans touch exactly the cells of the region.
//!
//! The index is a *mirror*, not the source of truth: the chip updates it
//! at the same funnels that mutate the switch fabric (reserve, release,
//! defect marking). The defect slab also replaces the chip's old
//! `HashSet<Coord>` — iteration ([`FabricIndex::defect_coords`]) is
//! row-major and therefore deterministic, where hash order was not.

use crate::coord::Coord;
use crate::switch::RegionTag;

/// Sentinel for "no owner" in the owner slab (tags are processor ids,
/// which never reach `u32::MAX`).
const NO_OWNER: u32 = u32::MAX;

/// A flat per-cluster occupancy index for a `width × height` die.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FabricIndex {
    width: u16,
    height: u16,
    /// Owner tag per cell, `NO_OWNER` when unowned.
    owner: Vec<u32>,
    /// Defect flag per cell.
    defect: Vec<bool>,
    /// Cells that are unowned and non-defective, maintained incrementally.
    free: usize,
    /// Defective cells, maintained incrementally.
    defects: usize,
    /// Occupancy generation: bumped by every call that changes which
    /// cells are free, so two reads under one value saw the same free
    /// set. Snapshots of the free space (the chip's shared
    /// `RegionFinder`) are keyed on it.
    generation: u64,
}

impl FabricIndex {
    /// A fully-free index for a `width × height` grid.
    pub fn new(width: u16, height: u16) -> FabricIndex {
        let n = usize::from(width) * usize::from(height);
        FabricIndex {
            width,
            height,
            owner: vec![NO_OWNER; n],
            defect: vec![false; n],
            free: n,
            defects: 0,
            generation: 0,
        }
    }

    /// Grid width in clusters.
    pub fn width(&self) -> u16 {
        self.width
    }

    /// Grid height in clusters.
    pub fn height(&self) -> u16 {
        self.height
    }

    fn idx(&self, c: Coord) -> Option<usize> {
        if c.x < self.width && c.y < self.height {
            Some(usize::from(c.y) * usize::from(self.width) + usize::from(c.x))
        } else {
            None
        }
    }

    fn coord_of(&self, i: usize) -> Coord {
        let w = usize::from(self.width);
        Coord::new((i % w) as u16, (i / w) as u16)
    }

    fn is_free_at(&self, i: usize) -> bool {
        self.owner[i] == NO_OWNER && !self.defect[i]
    }

    /// The owner tag of `c`, if any. Out-of-bounds cells have no owner.
    pub fn owner(&self, c: Coord) -> Option<RegionTag> {
        let i = self.idx(c)?;
        match self.owner[i] {
            NO_OWNER => None,
            tag => Some(RegionTag(tag)),
        }
    }

    /// Whether `c` is allocatable: on the die, unowned, non-defective.
    pub fn is_free(&self, c: Coord) -> bool {
        self.idx(c).is_some_and(|i| self.is_free_at(i))
    }

    /// Unowned, non-defective clusters — O(1).
    pub fn free_clusters(&self) -> usize {
        self.free
    }

    /// The occupancy generation: equal values mean no owner or defect
    /// changed in between.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Assigns `c` to `tag`. Out-of-bounds coordinates are ignored (the
    /// fabric's own bounds checks are the authority on errors).
    pub fn set_owner(&mut self, c: Coord, tag: RegionTag) {
        if let Some(i) = self.idx(c) {
            if self.is_free_at(i) {
                self.free -= 1;
            }
            self.owner[i] = tag.0;
            self.generation += 1;
        }
    }

    /// Clears the owner of `c`, whoever held it.
    pub fn clear_owner(&mut self, c: Coord) {
        if let Some(i) = self.idx(c) {
            if self.owner[i] != NO_OWNER {
                self.owner[i] = NO_OWNER;
                if !self.defect[i] {
                    self.free += 1;
                }
                self.generation += 1;
            }
        }
    }

    /// Releases every cell owned by `tag`; returns how many were held.
    /// One linear pass over the slab — no per-cell map lookups.
    pub fn release_owner(&mut self, tag: RegionTag) -> usize {
        let mut released = 0;
        for i in 0..self.owner.len() {
            if self.owner[i] == tag.0 {
                self.owner[i] = NO_OWNER;
                if !self.defect[i] {
                    self.free += 1;
                }
                released += 1;
            }
        }
        self.generation += u64::from(released > 0);
        released
    }

    /// Whether `c` is marked defective.
    pub fn is_defective(&self, c: Coord) -> bool {
        self.idx(c).is_some_and(|i| self.defect[i])
    }

    /// Marks `c` defective (idempotent).
    pub fn mark_defective(&mut self, c: Coord) {
        if let Some(i) = self.idx(c) {
            if !self.defect[i] {
                if self.is_free_at(i) {
                    self.free -= 1;
                }
                self.defect[i] = true;
                self.defects += 1;
                self.generation += 1;
            }
        }
    }

    /// Defective clusters on the die — O(1).
    pub fn defect_count(&self) -> usize {
        self.defects
    }

    /// Whether the `w × h` rectangle anchored at `origin` lies entirely
    /// on the die with every cell unowned and non-defective. Zero-sized
    /// rectangles are never free: a placement that asks for nothing is
    /// a caller bug, not an allocatable region.
    pub fn rect_is_free(&self, origin: Coord, w: u16, h: u16) -> bool {
        if w == 0 || h == 0 {
            return false;
        }
        if usize::from(origin.x) + usize::from(w) > usize::from(self.width)
            || usize::from(origin.y) + usize::from(h) > usize::from(self.height)
        {
            return false;
        }
        for dy in 0..h {
            let row = usize::from(origin.y + dy) * usize::from(self.width);
            for dx in 0..w {
                if !self.is_free_at(row + usize::from(origin.x + dx)) {
                    return false;
                }
            }
        }
        true
    }

    /// Row-major first-fit probe: the lowest `(y, x)` origin whose
    /// `w × h` rectangle is entirely free, or `None` when no such
    /// window exists. Deterministic by construction — placement passes
    /// lean on this to make compiled layouts reproducible.
    pub fn first_rect_fit(&self, w: u16, h: u16) -> Option<Coord> {
        if w == 0 || h == 0 || w > self.width || h > self.height {
            return None;
        }
        for y in 0..=(self.height - h) {
            for x in 0..=(self.width - w) {
                let origin = Coord::new(x, y);
                if self.rect_is_free(origin, w, h) {
                    return Some(origin);
                }
            }
        }
        None
    }

    /// Defective coordinates in row-major order — a deterministic view,
    /// unlike the hash-ordered set this slab replaced.
    pub fn defect_coords(&self) -> impl Iterator<Item = Coord> + '_ {
        self.defect
            .iter()
            .enumerate()
            .filter(|(_, &d)| d)
            .map(|(i, _)| self.coord_of(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_count_tracks_owners_and_defects() {
        let mut ix = FabricIndex::new(4, 3);
        assert_eq!(ix.free_clusters(), 12);
        ix.set_owner(Coord::new(1, 1), RegionTag(7));
        ix.set_owner(Coord::new(2, 1), RegionTag(7));
        assert_eq!(ix.free_clusters(), 10);
        assert_eq!(ix.owner(Coord::new(1, 1)), Some(RegionTag(7)));
        assert!(!ix.is_free(Coord::new(1, 1)));
        // Re-tagging an owned cell does not double-count.
        ix.set_owner(Coord::new(1, 1), RegionTag(9));
        assert_eq!(ix.free_clusters(), 10);
        ix.clear_owner(Coord::new(1, 1));
        assert_eq!(ix.free_clusters(), 11);
        assert_eq!(ix.release_owner(RegionTag(7)), 1);
        assert_eq!(ix.free_clusters(), 12);
    }

    #[test]
    fn defects_interact_with_ownership() {
        let mut ix = FabricIndex::new(2, 2);
        ix.mark_defective(Coord::new(0, 0));
        ix.mark_defective(Coord::new(0, 0)); // idempotent
        assert_eq!(ix.free_clusters(), 3);
        assert_eq!(ix.defect_count(), 1);
        // An owned cell going defective must not re-enter the free pool
        // when released.
        ix.set_owner(Coord::new(1, 1), RegionTag(3));
        ix.mark_defective(Coord::new(1, 1));
        assert_eq!(ix.release_owner(RegionTag(3)), 1);
        assert_eq!(ix.free_clusters(), 2);
        assert!(!ix.is_free(Coord::new(1, 1)));
    }

    #[test]
    fn generation_moves_exactly_when_occupancy_does() {
        let mut ix = FabricIndex::new(3, 3);
        let mut last = ix.generation();
        let mut moved = |ix: &FabricIndex| {
            let now = ix.generation();
            let changed = now != last;
            last = now;
            changed
        };
        ix.set_owner(Coord::new(0, 0), RegionTag(1));
        assert!(moved(&ix));
        ix.mark_defective(Coord::new(2, 2));
        assert!(moved(&ix));
        ix.mark_defective(Coord::new(2, 2)); // already defective
        assert!(!moved(&ix));
        assert_eq!(ix.release_owner(RegionTag(9)), 0); // owns nothing
        assert!(!moved(&ix));
        ix.clear_owner(Coord::new(1, 1)); // unowned
        assert!(!moved(&ix));
        ix.set_owner(Coord::new(7, 7), RegionTag(1)); // off the die
        assert!(!moved(&ix));
        assert_eq!(ix.release_owner(RegionTag(1)), 1);
        assert!(moved(&ix));
    }

    #[test]
    fn defect_coords_are_row_major() {
        let mut ix = FabricIndex::new(3, 3);
        for c in [Coord::new(2, 2), Coord::new(0, 1), Coord::new(1, 0)] {
            ix.mark_defective(c);
        }
        let got: Vec<Coord> = ix.defect_coords().collect();
        assert_eq!(
            got,
            vec![Coord::new(1, 0), Coord::new(0, 1), Coord::new(2, 2)]
        );
    }

    #[test]
    fn rect_probes_respect_owners_defects_and_bounds() {
        let mut ix = FabricIndex::new(4, 3);
        assert!(ix.rect_is_free(Coord::new(0, 0), 4, 3));
        assert!(!ix.rect_is_free(Coord::new(0, 0), 5, 1)); // off the die
        assert!(!ix.rect_is_free(Coord::new(3, 2), 2, 1)); // overhangs
        assert!(!ix.rect_is_free(Coord::new(0, 0), 0, 2)); // zero-sized
        ix.mark_defective(Coord::new(1, 1));
        assert!(!ix.rect_is_free(Coord::new(0, 0), 2, 2));
        assert!(ix.rect_is_free(Coord::new(2, 0), 2, 2));
        ix.set_owner(Coord::new(2, 0), RegionTag(1));
        assert!(!ix.rect_is_free(Coord::new(2, 0), 2, 2));
    }

    #[test]
    fn first_rect_fit_scans_row_major_around_obstacles() {
        let mut ix = FabricIndex::new(4, 3);
        assert_eq!(ix.first_rect_fit(2, 2), Some(Coord::new(0, 0)));
        // Block the top-left candidate with a defect; the scan must
        // slide right along the same row before dropping down.
        ix.mark_defective(Coord::new(0, 0));
        assert_eq!(ix.first_rect_fit(2, 2), Some(Coord::new(1, 0)));
        // Fill row 0 entirely: next fit starts on row 1.
        for x in 0..4 {
            ix.set_owner(Coord::new(x, 0), RegionTag(5));
        }
        assert_eq!(ix.first_rect_fit(2, 2), Some(Coord::new(0, 1)));
        // Too tall / too wide for the die → no fit, not a panic.
        assert_eq!(ix.first_rect_fit(5, 1), None);
        assert_eq!(ix.first_rect_fit(1, 4), None);
        assert_eq!(ix.first_rect_fit(0, 1), None);
        // Saturate the die: nothing fits.
        for y in 0..3 {
            for x in 0..4 {
                ix.set_owner(Coord::new(x, y), RegionTag(9));
            }
        }
        assert_eq!(ix.first_rect_fit(1, 1), None);
    }

    #[test]
    fn out_of_bounds_probes_are_inert() {
        let mut ix = FabricIndex::new(2, 2);
        let outside = Coord::new(5, 5);
        ix.set_owner(outside, RegionTag(1));
        ix.mark_defective(outside);
        ix.clear_owner(outside);
        assert_eq!(ix.owner(outside), None);
        assert!(!ix.is_free(outside));
        assert!(!ix.is_defective(outside));
        assert_eq!(ix.free_clusters(), 4);
    }
}
