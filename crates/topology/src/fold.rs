//! Folding the linear array onto the 2D (or die-stacked 3D) grid.
//!
//! Figure 4(c): the AP's linear stack is laid through the cluster grid as a
//! serpentine — row 0 left-to-right, row 1 right-to-left, and so on. The
//! property that matters (and that the tests pin down) is **adjacency**:
//! stack slot `i` and slot `i + 1` always land on neighbouring clusters,
//! so a stack shift is a single-hop move everywhere, and the dynamic CSD
//! segments line up with physical cluster boundaries.
//!
//! [`die_stack`] extends the fold across two stacked dies (Figure 6(d)):
//! the path serpentines across the bottom die, rises through the 3D switch
//! at the far corner, and serpentines back across the top die, ending
//! above its entry point — still every hop adjacent.

use crate::coord::Coord;
use crate::error::TopologyError;
use std::collections::HashMap;

/// A bijection between linear stack indices and grid coordinates.
#[derive(Clone, Debug)]
pub struct FoldMap {
    path: Vec<Coord>,
    index: HashMap<Coord, usize>,
}

impl FoldMap {
    /// Builds a fold from an explicit path. Fails if any two consecutive
    /// coordinates are not adjacent, or a coordinate repeats.
    pub fn from_path(path: Vec<Coord>) -> Result<FoldMap, TopologyError> {
        if path.is_empty() {
            return Err(TopologyError::EmptyRegion);
        }
        let mut index = HashMap::with_capacity(path.len());
        for (i, &c) in path.iter().enumerate() {
            if index.insert(c, i).is_some() {
                return Err(TopologyError::NoLinearPath);
            }
            if i > 0 && !path[i - 1].is_adjacent(c) {
                return Err(TopologyError::NotAdjacent(path[i - 1], c));
            }
        }
        Ok(FoldMap { path, index })
    }

    /// A fold from a path its construction makes valid — every hop
    /// adjacent, no coordinate repeated. Debug builds re-check both.
    fn from_valid_path(path: Vec<Coord>) -> FoldMap {
        let index: HashMap<Coord, usize> = path.iter().enumerate().map(|(i, &c)| (c, i)).collect();
        debug_assert_eq!(index.len(), path.len(), "fold path repeats a cell");
        debug_assert!(path.windows(2).all(|w| w[0].is_adjacent(w[1])));
        FoldMap { path, index }
    }

    /// Number of folded positions.
    pub fn len(&self) -> usize {
        self.path.len()
    }

    /// Whether the fold is empty (true only for the fold of an empty
    /// grid).
    pub fn is_empty(&self) -> bool {
        self.path.is_empty()
    }

    /// The coordinate of linear index `i`.
    pub fn coord_of(&self, i: usize) -> Option<Coord> {
        self.path.get(i).copied()
    }

    /// The linear index at coordinate `c`.
    pub fn index_of(&self, c: Coord) -> Option<usize> {
        self.index.get(&c).copied()
    }

    /// The full path, in stack order (index 0 = top of stack).
    pub fn path(&self) -> &[Coord] {
        &self.path
    }

    /// Whether the fold's two ends are adjacent — i.e. the path can close
    /// into the ring of Figure 5 with one more chained switch.
    pub fn closes_as_ring(&self) -> bool {
        let n = self.path.len();
        n >= 3 && self.path[0].is_adjacent(self.path[n - 1])
    }

    /// Physical Manhattan distance between two stack slots — what a chain
    /// between them must span on the die.
    pub fn physical_distance(&self, a: usize, b: usize) -> Option<u32> {
        Some(self.coord_of(a)?.manhattan(self.coord_of(b)?))
    }

    /// The worst physical distance of any single stack hop. 1 for every
    /// valid fold — asserting this is how tests pin the fold property.
    pub fn max_hop_distance(&self) -> u32 {
        self.path
            .windows(2)
            .map(|w| w[0].manhattan(w[1]))
            .max()
            .unwrap_or(0)
    }
}

/// The serpentine fold of a `w × h` grid (Figure 4(c)): row-major, with
/// every odd row reversed. A grid with a zero side folds to the empty
/// fold.
pub fn serpentine(w: u16, h: u16) -> FoldMap {
    let mut path = Vec::with_capacity(w as usize * h as usize);
    for y in 0..h {
        if y % 2 == 0 {
            for x in 0..w {
                path.push(Coord::new(x, y));
            }
        } else {
            for x in (0..w).rev() {
                path.push(Coord::new(x, y));
            }
        }
    }
    FoldMap::from_valid_path(path)
}

/// A ring fold of a `w × h` rectangle (Figure 5): a Hamiltonian cycle,
/// returned as a path whose last hop is adjacent to its first.
///
/// Exists iff the area is even and both sides are at least 2. The
/// construction uses column 0 as a return rail and serpentines the
/// remaining `w-1` columns row by row (transposed when only `w` is even).
pub fn rect_ring(w: u16, h: u16) -> Option<FoldMap> {
    if w < 2 || h < 2 || !(w as usize * h as usize).is_multiple_of(2) {
        return None;
    }
    if h.is_multiple_of(2) {
        let mut path = Vec::with_capacity(w as usize * h as usize);
        path.push(Coord::new(0, 0));
        for y in 0..h {
            if y % 2 == 0 {
                for x in 1..w {
                    path.push(Coord::new(x, y));
                }
            } else {
                for x in (1..w).rev() {
                    path.push(Coord::new(x, y));
                }
            }
        }
        // Return rail up column 0.
        for y in (1..h).rev() {
            path.push(Coord::new(0, y));
        }
        return Some(FoldMap::from_valid_path(path));
    }
    // h odd, so w must be even: transpose.
    let t = rect_ring(h, w)?;
    let path = t.path().iter().map(|c| Coord::new(c.y, c.x)).collect();
    Some(FoldMap::from_valid_path(path))
}

/// The two-die fold (Figure 6(d)): serpentine across layer 0, one hop up
/// through the 3D stack switch, then the *reverse* serpentine across layer
/// 1, ending directly above the entry point.
pub fn die_stack(w: u16, h: u16) -> FoldMap {
    let bottom = serpentine(w, h);
    let mut path = bottom.path().to_vec();
    // Rise through the 3D switch above the last cell, then retrace in
    // reverse on the top die.
    for c in bottom.path().iter().rev() {
        path.push(Coord::on_layer(c.x, c.y, 1));
    }
    FoldMap::from_valid_path(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serpentine_visits_every_cluster_once() {
        let f = serpentine(8, 8);
        assert_eq!(f.len(), 64);
        let mut seen = std::collections::HashSet::new();
        for i in 0..64 {
            assert!(seen.insert(f.coord_of(i).unwrap()));
        }
    }

    #[test]
    fn serpentine_hops_are_single_distance() {
        for (w, h) in [(1u16, 1u16), (4, 4), (8, 8), (5, 3), (1, 7), (7, 1)] {
            let f = serpentine(w, h);
            assert!(f.max_hop_distance() <= 1, "{w}x{h} fold broke adjacency");
        }
    }

    #[test]
    fn fold_is_a_bijection() {
        let f = serpentine(5, 3);
        for i in 0..f.len() {
            let c = f.coord_of(i).unwrap();
            assert_eq!(f.index_of(c), Some(i));
        }
        assert_eq!(f.index_of(Coord::new(9, 9)), None);
        assert_eq!(f.coord_of(99), None);
    }

    #[test]
    fn serpentine_rows_alternate() {
        let f = serpentine(3, 2);
        let expect = [
            Coord::new(0, 0),
            Coord::new(1, 0),
            Coord::new(2, 0),
            Coord::new(2, 1),
            Coord::new(1, 1),
            Coord::new(0, 1),
        ];
        assert_eq!(f.path(), &expect);
    }

    #[test]
    fn two_row_serpentine_closes_as_ring() {
        // With exactly two rows the serpentine ends at (0,1), adjacent to
        // the start — taller serpentines end too far down and need the
        // dedicated ring construction (`rect_ring`).
        assert!(serpentine(3, 2).closes_as_ring());
        assert!(!serpentine(4, 4).closes_as_ring());
        assert!(!serpentine(4, 3).closes_as_ring());
        assert!(!serpentine(4, 1).closes_as_ring());
    }

    #[test]
    fn rect_ring_construction() {
        for (w, h) in [
            (2u16, 2u16),
            (4, 2),
            (2, 4),
            (4, 4),
            (3, 4),
            (4, 3),
            (5, 2),
            (6, 5),
        ] {
            let f = rect_ring(w, h).unwrap_or_else(|| panic!("{w}x{h} must ring"));
            assert_eq!(f.len(), w as usize * h as usize, "{w}x{h} covers all");
            assert!(f.max_hop_distance() <= 1, "{w}x{h} adjacency");
            assert!(f.closes_as_ring(), "{w}x{h} closes");
        }
        // Odd area or degenerate strips have no Hamiltonian cycle.
        assert!(rect_ring(3, 3).is_none());
        assert!(rect_ring(5, 1).is_none());
        assert!(rect_ring(1, 6).is_none());
    }

    #[test]
    fn die_stack_doubles_capacity_and_keeps_adjacency() {
        let f = die_stack(4, 3);
        assert_eq!(f.len(), 24);
        assert!(f.max_hop_distance() <= 1);
        // Ends directly above the entry point: the stack closes through
        // the 3D switch into a ring.
        assert!(f.closes_as_ring());
    }

    #[test]
    fn physical_distance_of_chains() {
        let f = serpentine(4, 4);
        // Slots 0 and 7 sit at (0,0) and (0,1): folded neighbours.
        assert_eq!(f.physical_distance(0, 7), Some(1));
        // Slots 0 and 15 span the grid corner-to-corner rows.
        assert_eq!(f.physical_distance(0, 15), Some(3));
    }

    #[test]
    fn invalid_paths_rejected() {
        // Non-adjacent jump.
        let bad = vec![Coord::new(0, 0), Coord::new(2, 0)];
        assert!(matches!(
            FoldMap::from_path(bad),
            Err(TopologyError::NotAdjacent(_, _))
        ));
        // Revisit.
        let dup = vec![Coord::new(0, 0), Coord::new(1, 0), Coord::new(0, 0)];
        assert!(matches!(
            FoldMap::from_path(dup),
            Err(TopologyError::NoLinearPath)
        ));
        assert!(matches!(
            FoldMap::from_path(vec![]),
            Err(TopologyError::EmptyRegion)
        ));
    }
}
