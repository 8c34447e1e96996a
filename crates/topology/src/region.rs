//! Regions: arbitrary connected shapes of clusters forming one scaled AP.
//!
//! §3.1: "The S-topology network supports the ability to unchain (split)
//! the array into any arbitrary shape that may be formed by connecting the
//! clusters" — and Figure 5 shows such shapes closed into rings.
//!
//! A [`Region`] is a set of cluster coordinates. To become a processor it
//! needs a **linear path** visiting every cluster exactly once (the folded
//! stack). Rectangles take the serpentine directly; arbitrary shapes use a
//! bounded backtracking search (regions are tens of clusters, far below
//! the budget). A **ring path** (Figure 5) is a linear path whose ends are
//! adjacent.

use crate::coord::Coord;
use crate::error::TopologyError;
use crate::fold::{serpentine, FoldMap};
use std::collections::{BTreeSet, HashSet, VecDeque};

/// Budget of backtracking steps for path search on irregular shapes.
const SEARCH_BUDGET: usize = 2_000_000;

/// A set of clusters intended to form one scaled processor.
///
/// ```
/// use vlsi_topology::{Coord, Region};
///
/// // A 4x2 rectangle threads as a serpentine and closes as a ring.
/// let region = Region::rect(Coord::new(1, 1), 4, 2);
/// let fold = region.linear_path().unwrap();
/// assert_eq!(fold.len(), 8);
/// assert!(fold.max_hop_distance() <= 1); // stack shifts stay single-hop
/// assert!(region.ring_path().unwrap().closes_as_ring());
///
/// // Arbitrary connected shapes work too (an L of 5 clusters).
/// let l = Region::new([
///     Coord::new(0, 0), Coord::new(0, 1), Coord::new(0, 2),
///     Coord::new(1, 2), Coord::new(2, 2),
/// ]);
/// assert!(l.is_connected());
/// assert_eq!(l.linear_path().unwrap().len(), 5);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Region {
    cells: BTreeSet<Coord>,
}

impl Region {
    /// A region from any collection of coordinates.
    pub fn new(cells: impl IntoIterator<Item = Coord>) -> Region {
        Region {
            cells: cells.into_iter().collect(),
        }
    }

    /// A `w × h` rectangle anchored at `origin` (planar).
    pub fn rect(origin: Coord, w: u16, h: u16) -> Region {
        Region::new((0..h).flat_map(|dy| {
            (0..w).map(move |dx| Coord::on_layer(origin.x + dx, origin.y + dy, origin.layer))
        }))
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Whether `c` belongs to the region.
    pub fn contains(&self, c: Coord) -> bool {
        self.cells.contains(&c)
    }

    /// Iterates the cells in coordinate order.
    pub fn cells(&self) -> impl Iterator<Item = Coord> + '_ {
        self.cells.iter().copied()
    }

    /// Whether the region is 4/6-connected.
    pub fn is_connected(&self) -> bool {
        let Some(&start) = self.cells.iter().next() else {
            return false;
        };
        let mut seen = HashSet::from([start]);
        let mut queue = VecDeque::from([start]);
        while let Some(c) = queue.pop_front() {
            for d in crate::coord::Dir::ALL {
                if let Some(n) = c.step(d) {
                    if self.cells.contains(&n) && seen.insert(n) {
                        queue.push_back(n);
                    }
                }
            }
        }
        seen.len() == self.cells.len()
    }

    /// Whether the region is another region's disjoint neighbour (used for
    /// fuse legality checks).
    pub fn is_disjoint(&self, other: &Region) -> bool {
        self.cells.is_disjoint(&other.cells)
    }

    /// The union of two regions (fusing).
    pub fn union(&self, other: &Region) -> Region {
        Region {
            cells: self.cells.union(&other.cells).copied().collect(),
        }
    }

    /// Removes `other`'s cells (splitting / defect excision).
    pub fn difference(&self, other: &Region) -> Region {
        Region {
            cells: self.cells.difference(&other.cells).copied().collect(),
        }
    }

    /// If the region is an axis-aligned full rectangle on one layer,
    /// returns `(origin, w, h)`.
    pub fn as_rect(&self) -> Option<(Coord, u16, u16)> {
        let first = *self.cells.iter().next()?;
        let (mut min_x, mut max_x) = (u16::MAX, 0u16);
        let (mut min_y, mut max_y) = (u16::MAX, 0u16);
        for c in &self.cells {
            if c.layer != first.layer {
                return None;
            }
            min_x = min_x.min(c.x);
            max_x = max_x.max(c.x);
            min_y = min_y.min(c.y);
            max_y = max_y.max(c.y);
        }
        let w = max_x - min_x + 1;
        let h = max_y - min_y + 1;
        (w as usize * h as usize == self.cells.len())
            .then(|| (Coord::on_layer(min_x, min_y, first.layer), w, h))
    }

    /// The Manhattan diameter of the region — the worst physical distance
    /// between any two of its clusters, which bounds the global-wire span
    /// of any chain inside the gathered processor (the §4 delay driver).
    pub fn diameter(&self) -> u32 {
        let mut best = 0;
        for a in &self.cells {
            for b in &self.cells {
                best = best.max(a.manhattan(*b));
            }
        }
        best
    }

    /// Finds a linear path (Hamiltonian path over the region's adjacency
    /// graph): the fold of the scaled processor's stack.
    pub fn linear_path(&self) -> Result<FoldMap, TopologyError> {
        self.path_inner(false)
    }

    /// Finds a ring path (Hamiltonian cycle, returned as a path whose ends
    /// are adjacent): Figure 5.
    pub fn ring_path(&self) -> Result<FoldMap, TopologyError> {
        self.path_inner(true)
    }

    fn path_inner(&self, ring: bool) -> Result<FoldMap, TopologyError> {
        if self.cells.is_empty() {
            return Err(TopologyError::EmptyRegion);
        }
        if !self.is_connected() {
            return Err(TopologyError::Disconnected);
        }
        if self.cells.len() == 1 {
            if ring {
                return Err(TopologyError::NoRingPath);
            }
            return FoldMap::from_path(self.cells.iter().copied().collect());
        }
        // Fast path: rectangles use the serpentine.
        if let Some((origin, w, h)) = self.as_rect() {
            let fold = serpentine(w, h);
            let path: Vec<Coord> = fold
                .path()
                .iter()
                .map(|c| Coord::on_layer(origin.x + c.x, origin.y + c.y, origin.layer))
                .collect();
            if !ring {
                return FoldMap::from_path(path);
            }
            let Some(cycle) = crate::fold::rect_ring(w, h) else {
                return Err(TopologyError::NoRingPath);
            };
            let path: Vec<Coord> = cycle
                .path()
                .iter()
                .map(|c| Coord::on_layer(origin.x + c.x, origin.y + c.y, origin.layer))
                .collect();
            return FoldMap::from_path(path);
        }
        // Serpentine-prefix shapes (full rows plus one partial row — what
        // the allocator carves) thread directly without search.
        if !ring {
            if let Some(path) = self.serpentine_prefix_path() {
                return FoldMap::from_path(path);
            }
        }
        // General case: bounded backtracking from every possible start.
        let cells: Vec<Coord> = self.cells.iter().copied().collect();
        let mut budget = SEARCH_BUDGET;
        for &start in &cells {
            let mut path = vec![start];
            let mut visited = HashSet::from([start]);
            if self.backtrack(&mut path, &mut visited, ring, &mut budget)? {
                return FoldMap::from_path(path);
            }
        }
        Err(if ring {
            TopologyError::NoRingPath
        } else {
            TopologyError::NoLinearPath
        })
    }

    /// If the region is a *prefix of a serpentine* over its bounding box —
    /// all rows full except the last, whose cells sit at the end the
    /// serpentine reaches them — returns that path directly.
    fn serpentine_prefix_path(&self) -> Option<Vec<Coord>> {
        let first = *self.cells.iter().next()?;
        let layer = first.layer;
        let (mut min_x, mut max_x, mut min_y, mut max_y) = (u16::MAX, 0u16, u16::MAX, 0u16);
        for c in &self.cells {
            if c.layer != layer {
                return None;
            }
            min_x = min_x.min(c.x);
            max_x = max_x.max(c.x);
            min_y = min_y.min(c.y);
            max_y = max_y.max(c.y);
        }
        let w = max_x - min_x + 1;
        let h = max_y - min_y + 1;
        // Build the serpentine over the bounding box and check that the
        // region is exactly its first |region| cells.
        let fold = serpentine(w, h);
        let path: Vec<Coord> = fold
            .path()
            .iter()
            .take(self.cells.len())
            .map(|c| Coord::on_layer(min_x + c.x, min_y + c.y, layer))
            .collect();
        if path.len() == self.cells.len() && path.iter().all(|c| self.cells.contains(c)) {
            Some(path)
        } else {
            None
        }
    }

    fn backtrack(
        &self,
        path: &mut Vec<Coord>,
        visited: &mut HashSet<Coord>,
        ring: bool,
        budget: &mut usize,
    ) -> Result<bool, TopologyError> {
        if *budget == 0 {
            return Err(TopologyError::SearchBudgetExceeded);
        }
        *budget -= 1;
        let Some(&cur) = path.last() else {
            return Ok(false);
        };
        if path.len() == self.cells.len() {
            return Ok(!ring || path[0].is_adjacent(cur));
        }
        for d in crate::coord::Dir::ALL {
            let Some(n) = cur.step(d) else { continue };
            if !self.cells.contains(&n) || visited.contains(&n) {
                continue;
            }
            path.push(n);
            visited.insert(n);
            if self.backtrack(path, visited, ring, budget)? {
                return Ok(true);
            }
            path.pop();
            visited.remove(&n);
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(x: u16, y: u16) -> Coord {
        Coord::new(x, y)
    }

    #[test]
    fn rect_region_geometry() {
        let r = Region::rect(c(2, 1), 3, 2);
        assert_eq!(r.len(), 6);
        assert!(r.contains(c(4, 2)));
        assert!(!r.contains(c(1, 1)));
        assert_eq!(r.as_rect(), Some((c(2, 1), 3, 2)));
    }

    #[test]
    fn diameter_is_the_manhattan_worst_case() {
        assert_eq!(Region::rect(c(0, 0), 4, 4).diameter(), 6);
        assert_eq!(Region::rect(c(0, 0), 8, 1).diameter(), 7);
        assert_eq!(Region::new([c(3, 3)]).diameter(), 0);
        assert_eq!(Region::new([]).diameter(), 0);
    }

    #[test]
    fn connectivity() {
        let connected = Region::new([c(0, 0), c(1, 0), c(1, 1)]);
        assert!(connected.is_connected());
        let split = Region::new([c(0, 0), c(2, 0)]);
        assert!(!split.is_connected());
        assert!(!Region::new([]).is_connected());
    }

    #[test]
    fn rect_linear_path_is_serpentine() {
        let r = Region::rect(c(0, 0), 4, 4);
        let f = r.linear_path().unwrap();
        assert_eq!(f.len(), 16);
        assert!(f.max_hop_distance() <= 1);
    }

    #[test]
    fn offset_rect_paths_stay_inside() {
        let r = Region::rect(c(5, 5), 3, 2);
        let f = r.linear_path().unwrap();
        for &p in f.path() {
            assert!(r.contains(p));
        }
        assert!(f.max_hop_distance() <= 1);
    }

    #[test]
    fn l_shape_has_linear_path() {
        // L-shaped region: 3x1 arm + 1x2 arm.
        let r = Region::new([c(0, 0), c(1, 0), c(2, 0), c(0, 1), c(0, 2)]);
        let f = r.linear_path().unwrap();
        assert_eq!(f.len(), 5);
        assert!(f.max_hop_distance() <= 1);
    }

    #[test]
    fn ring_on_even_rect() {
        let r = Region::rect(c(0, 0), 4, 2);
        let f = r.ring_path().unwrap();
        assert!(f.closes_as_ring());
    }

    #[test]
    fn ring_on_odd_rows_even_columns_uses_transpose() {
        let r = Region::rect(c(0, 0), 2, 3);
        let f = r.ring_path().unwrap();
        assert!(f.closes_as_ring());
        assert_eq!(f.len(), 6);
    }

    #[test]
    fn no_ring_on_a_line() {
        let r = Region::rect(c(0, 0), 4, 1);
        assert!(matches!(r.ring_path(), Err(TopologyError::NoRingPath)));
    }

    #[test]
    fn hollow_square_ring() {
        // Figure 5's donut: 3x3 minus the centre.
        let mut cells: Vec<Coord> = Region::rect(c(0, 0), 3, 3).cells().collect();
        cells.retain(|&p| p != c(1, 1));
        let r = Region::new(cells);
        let f = r.ring_path().unwrap();
        assert_eq!(f.len(), 8);
        assert!(f.closes_as_ring());
    }

    #[test]
    fn disconnected_region_rejected() {
        let r = Region::new([c(0, 0), c(5, 5)]);
        assert!(matches!(r.linear_path(), Err(TopologyError::Disconnected)));
    }

    #[test]
    fn single_cluster() {
        let r = Region::new([c(3, 3)]);
        assert_eq!(r.linear_path().unwrap().len(), 1);
        assert!(r.ring_path().is_err());
    }

    #[test]
    fn union_and_difference() {
        let a = Region::rect(c(0, 0), 2, 2);
        let b = Region::rect(c(2, 0), 2, 2);
        assert!(a.is_disjoint(&b));
        let fused = a.union(&b);
        assert_eq!(fused.len(), 8);
        assert_eq!(fused.as_rect(), Some((c(0, 0), 4, 2)));
        let back = fused.difference(&b);
        assert_eq!(back, a);
    }

    #[test]
    fn empty_region_errors() {
        assert!(matches!(
            Region::new([]).linear_path(),
            Err(TopologyError::EmptyRegion)
        ));
    }
}
