//! Chip-level topology: how the dies of a cluster are wired together.
//!
//! A [`ClusterTopology`] is a torus of chips — a ring is the degenerate
//! `M × 1` case — with one bidirectional off-chip link per mesh
//! direction. Routing between chips is greedy dimension-order with a
//! fixed tie-break (East before South, shorter wrap preferred), so the
//! chip-level path of a message is a pure function of `(from, to, dead
//! set)` and never depends on traffic or thread count.

use vlsi_topology::Dir;

/// The four chip-level link directions, in *commit order*: every
/// per-link loop in the fabric walks links as `chip * 4 + dir_index`
/// with this ordering, which is what makes cross-chip commits
/// deterministic.
pub const LINK_DIRS: [Dir; 4] = [Dir::East, Dir::South, Dir::West, Dir::North];

/// Dense index of a chip-level link direction (see [`LINK_DIRS`]).
pub fn link_dir_index(dir: Dir) -> usize {
    match dir {
        Dir::East => 0,
        Dir::South => 1,
        Dir::West => 2,
        Dir::North => 3,
        Dir::Up | Dir::Down => unreachable!("chip links are planar"),
    }
}

/// A torus of chips (a ring is the `M × 1` case) with greedy
/// dimension-order routing between them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ClusterTopology {
    width: usize,
    height: usize,
}

impl ClusterTopology {
    /// A `width × height` torus of chips (both dimensions ≥ 1).
    pub fn torus(width: usize, height: usize) -> ClusterTopology {
        assert!(width >= 1 && height >= 1, "empty cluster topology");
        ClusterTopology { width, height }
    }

    /// A ring of `chips` dies — the `chips × 1` torus.
    pub fn ring(chips: usize) -> ClusterTopology {
        ClusterTopology::torus(chips, 1)
    }

    /// Chips in the cluster.
    pub fn chips(&self) -> usize {
        self.width * self.height
    }

    /// Torus width in chips.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Torus height in chips.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Chip-grid coordinates of chip index `chip`.
    pub fn coords(&self, chip: usize) -> (usize, usize) {
        (chip % self.width, chip / self.width)
    }

    /// Chip index of the chip at `(x, y)` (wrapping).
    pub fn chip_at(&self, x: usize, y: usize) -> usize {
        (y % self.height) * self.width + (x % self.width)
    }

    /// The neighbouring chip in `dir`, wrapping torus-style. In a
    /// dimension of size 1 the neighbour is the chip itself.
    pub fn neighbor(&self, chip: usize, dir: Dir) -> usize {
        let (x, y) = self.coords(chip);
        match dir {
            Dir::East => self.chip_at(x + 1, y),
            Dir::West => self.chip_at(x + self.width - 1, y),
            Dir::South => self.chip_at(x, y + 1),
            Dir::North => self.chip_at(x, y + self.height - 1),
            Dir::Up | Dir::Down => chip,
        }
    }

    /// The next link direction a message at `from` takes toward `to`,
    /// avoiding chips marked in `dead`. Greedy: productive directions
    /// first (x before y, shorter wrap, East/South on ties), then the
    /// remaining directions in [`LINK_DIRS`] order as detours. Returns
    /// `None` when every candidate neighbour is dead (the caller fails
    /// the message typed rather than spinning).
    pub fn next_hop(&self, from: usize, to: usize, dead: &[bool]) -> Option<Dir> {
        if from == to {
            return None;
        }
        let (fx, fy) = self.coords(from);
        let (tx, ty) = self.coords(to);
        let mut candidates: Vec<Dir> = Vec::with_capacity(6);
        if fx != tx {
            let east = (tx + self.width - fx) % self.width;
            let west = (fx + self.width - tx) % self.width;
            candidates.push(if east <= west { Dir::East } else { Dir::West });
        }
        if fy != ty {
            let south = (ty + self.height - fy) % self.height;
            let north = (fy + self.height - ty) % self.height;
            candidates.push(if south <= north {
                Dir::South
            } else {
                Dir::North
            });
        }
        candidates.extend(LINK_DIRS);
        for dir in candidates {
            let n = self.neighbor(from, dir);
            if n != from && !dead.get(n).copied().unwrap_or(false) {
                return Some(dir);
            }
        }
        None
    }

    /// Livelock bound on chip-level hops: detours around dead chips may
    /// wander, but never farther than a couple of torus perimeters.
    pub fn hop_budget(&self) -> u64 {
        2 * (self.width as u64 + self.height as u64) + 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wraps_both_ways() {
        let t = ClusterTopology::ring(4);
        assert_eq!(t.chips(), 4);
        assert_eq!(t.neighbor(3, Dir::East), 0);
        assert_eq!(t.neighbor(0, Dir::West), 3);
        // Height 1: vertical neighbours are the chip itself.
        assert_eq!(t.neighbor(2, Dir::South), 2);
    }

    #[test]
    fn next_hop_prefers_the_short_way_round() {
        let t = ClusterTopology::ring(6);
        let dead = vec![false; 6];
        assert_eq!(t.next_hop(0, 1, &dead), Some(Dir::East));
        assert_eq!(t.next_hop(0, 5, &dead), Some(Dir::West));
        // Equidistant: East wins the tie.
        assert_eq!(t.next_hop(0, 3, &dead), Some(Dir::East));
        assert_eq!(t.next_hop(2, 2, &dead), None);
    }

    #[test]
    fn next_hop_detours_around_dead_chips() {
        let t = ClusterTopology::ring(4);
        let mut dead = vec![false; 4];
        dead[1] = true;
        // 0 → 2 would go East through 1; the detour goes West via 3.
        assert_eq!(t.next_hop(0, 2, &dead), Some(Dir::West));
        // Fully cut off: both neighbours dead.
        dead[3] = true;
        assert_eq!(t.next_hop(0, 2, &dead), None);
    }

    #[test]
    fn torus_routes_x_before_y() {
        let t = ClusterTopology::torus(3, 3);
        let dead = vec![false; 9];
        // chip 0 = (0,0), chip 4 = (1,1): x first.
        assert_eq!(t.next_hop(0, 4, &dead), Some(Dir::East));
        // chip 3 = (0,1): pure y move.
        assert_eq!(t.next_hop(0, 3, &dead), Some(Dir::South));
        // Wrap: (0,0) → (2,0) is one West hop on a width-3 torus... East
        // distance 2, West distance 1.
        assert_eq!(t.next_hop(0, 2, &dead), Some(Dir::West));
    }

    #[test]
    fn greedy_routes_terminate_on_live_toruses() {
        // Walk every pair on a 4×3 torus and assert the greedy walk
        // reaches the destination within the hop budget.
        let t = ClusterTopology::torus(4, 3);
        let dead = vec![false; 12];
        for from in 0..12 {
            for to in 0..12 {
                if from == to {
                    continue;
                }
                let mut at = from;
                let mut hops = 0u64;
                while at != to {
                    let dir = t.next_hop(at, to, &dead).expect("live torus routes");
                    at = t.neighbor(at, dir);
                    hops += 1;
                    assert!(hops <= t.hop_budget(), "{from}→{to} wandered");
                }
            }
        }
    }
}
