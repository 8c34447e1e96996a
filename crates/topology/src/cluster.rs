//! Clusters and the chip-wide cluster grid.
//!
//! Figure 4(b): the unit that is "simply replicated" across the chip. A
//! cluster bundles compute objects, memory objects, one system object, and
//! one programmable switch. §3.3 scales processors by *gathering clusters*,
//! so the cluster is the granularity of every scaling decision.

use crate::coord::Coord;
use crate::error::TopologyError;
use std::fmt;

/// Identifier of a cluster (row-major position in the grid).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ClusterId(pub u32);

impl fmt::Display for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cluster{}", self.0)
    }
}

/// Resource composition of one cluster.
///
/// The paper's minimum AP has 16 physical objects and 16 memory objects
/// (§4.1, Table 4); a cluster carrying 4 + 4 means a minimum AP gathers a
/// 2×2 cluster patch. The composition is a parameter so cost ablations can
/// trade FPUs for memory ("We can coordinate the number of FPUs and
/// memories").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Cluster {
    /// Compute physical objects in the cluster.
    pub compute_objects: usize,
    /// Memory objects (64 KiB blocks) in the cluster.
    pub memory_objects: usize,
    /// System objects (sequencer/control; Figure 4(b) shows one).
    pub system_objects: usize,
}

impl Default for Cluster {
    fn default() -> Cluster {
        Cluster {
            compute_objects: 4,
            memory_objects: 4,
            system_objects: 1,
        }
    }
}

impl Cluster {
    /// Total objects of all kinds.
    pub fn total_objects(&self) -> usize {
        self.compute_objects + self.memory_objects + self.system_objects
    }
}

/// The chip floorplan: a `width × height` grid of identical clusters
/// (× `layers` dies for chip-on-chip stacking).
#[derive(Clone, Debug)]
pub struct ClusterGrid {
    width: u16,
    height: u16,
    layers: u8,
    cluster: Cluster,
}

impl ClusterGrid {
    /// A planar grid.
    pub fn new(width: u16, height: u16, cluster: Cluster) -> ClusterGrid {
        ClusterGrid {
            width,
            height,
            layers: 1,
            cluster,
        }
    }

    /// A die-stacked grid (Figure 6(d)).
    pub fn stacked(width: u16, height: u16, layers: u8, cluster: Cluster) -> ClusterGrid {
        ClusterGrid {
            width,
            height,
            layers: layers.max(1),
            cluster,
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

    /// Number of stacked dies.
    pub fn layers(&self) -> u8 {
        self.layers
    }

    /// The replicated cluster composition.
    pub fn cluster(&self) -> Cluster {
        self.cluster
    }

    /// Total clusters on the chip.
    pub fn cluster_count(&self) -> usize {
        self.width as usize * self.height as usize * self.layers as usize
    }

    /// Whether `c` is on the chip.
    pub fn contains(&self, c: Coord) -> bool {
        c.x < self.width && c.y < self.height && c.layer < self.layers
    }

    /// Validates that `c` is on the chip.
    pub fn check(&self, c: Coord) -> Result<(), TopologyError> {
        if self.contains(c) {
            Ok(())
        } else {
            Err(TopologyError::OutOfGrid(c))
        }
    }

    /// Row-major (then layer-major) ID of a coordinate.
    pub fn id_of(&self, c: Coord) -> Option<ClusterId> {
        if !self.contains(c) {
            return None;
        }
        let per_layer = self.width as u32 * self.height as u32;
        Some(ClusterId(
            c.layer as u32 * per_layer + c.y as u32 * self.width as u32 + c.x as u32,
        ))
    }

    /// Coordinate of a cluster ID.
    pub fn coord_of(&self, id: ClusterId) -> Option<Coord> {
        let per_layer = self.width as u32 * self.height as u32;
        let layer = id.0 / per_layer;
        let rem = id.0 % per_layer;
        let c = Coord::on_layer(
            (rem % self.width as u32) as u16,
            (rem / self.width as u32) as u16,
            layer as u8,
        );
        self.contains(c).then_some(c)
    }

    /// Neighbours of `c` that are on the chip.
    pub fn neighbours(&self, c: Coord) -> impl Iterator<Item = Coord> + '_ {
        crate::coord::Dir::ALL
            .into_iter()
            .filter_map(move |d| c.step(d))
            .filter(|&n| self.contains(n))
    }

    /// All coordinates, row-major, layer by layer.
    pub fn coords(&self) -> impl Iterator<Item = Coord> + '_ {
        (0..self.layers).flat_map(move |l| {
            (0..self.height)
                .flat_map(move |y| (0..self.width).map(move |x| Coord::on_layer(x, y, l)))
        })
    }

    /// Total compute objects on the chip.
    pub fn total_compute_objects(&self) -> usize {
        self.cluster_count() * self.cluster.compute_objects
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_geometry() {
        let g = ClusterGrid::new(8, 8, Cluster::default());
        assert_eq!(g.cluster_count(), 64);
        assert!(g.contains(Coord::new(7, 7)));
        assert!(!g.contains(Coord::new(8, 0)));
        assert!(!g.contains(Coord::on_layer(0, 0, 1)));
        assert_eq!(g.total_compute_objects(), 256);
    }

    #[test]
    fn id_coord_roundtrip() {
        let g = ClusterGrid::stacked(4, 3, 2, Cluster::default());
        for c in g.coords().collect::<Vec<_>>() {
            let id = g.id_of(c).unwrap();
            assert_eq!(g.coord_of(id), Some(c));
        }
        assert_eq!(g.id_of(Coord::new(0, 0)), Some(ClusterId(0)));
        assert_eq!(g.id_of(Coord::new(1, 0)), Some(ClusterId(1)));
        assert_eq!(g.id_of(Coord::new(0, 1)), Some(ClusterId(4)));
        assert_eq!(g.id_of(Coord::on_layer(0, 0, 1)), Some(ClusterId(12)));
        assert_eq!(g.coord_of(ClusterId(24)), None);
    }

    #[test]
    fn neighbours_respect_bounds() {
        let g = ClusterGrid::new(3, 3, Cluster::default());
        let corner: Vec<_> = g.neighbours(Coord::new(0, 0)).collect();
        assert_eq!(corner.len(), 2);
        let centre: Vec<_> = g.neighbours(Coord::new(1, 1)).collect();
        assert_eq!(centre.len(), 4);
        // Stacked grid gains the Up neighbour.
        let s = ClusterGrid::stacked(3, 3, 2, Cluster::default());
        let centre3d: Vec<_> = s.neighbours(Coord::new(1, 1)).collect();
        assert_eq!(centre3d.len(), 5);
    }

    #[test]
    fn cluster_composition() {
        let c = Cluster::default();
        assert_eq!(c.total_objects(), 9);
        // A 2x2 patch of default clusters yields the paper's 16+16 AP.
        assert_eq!(4 * c.compute_objects, 16);
        assert_eq!(4 * c.memory_objects, 16);
    }

    #[test]
    fn coords_iterates_everything_once() {
        let g = ClusterGrid::stacked(5, 2, 2, Cluster::default());
        let all: Vec<_> = g.coords().collect();
        assert_eq!(all.len(), g.cluster_count());
        let set: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(set.len(), all.len());
    }
}
