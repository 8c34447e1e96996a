//! Cluster allocation: finding a free region for a resource request.
//!
//! §1's first benefit — "Application designers know the optimal amount of
//! resources, and thus they should be able to control the reconfiguration"
//! — means requests arrive as *counts*, not shapes. The allocator turns
//! "give me `k` clusters" into a concrete free region: the squarest
//! serpentine-prefix shape (full rows plus one partial row) that fits,
//! scanned row-major across the chip. Serpentine prefixes always admit a
//! linear stack path, so every allocation is gatherable by construction.
//!
//! §5 contrasts this with mesh tile processors where "a host system has
//! to manage the placement, routing, replacement, and defragmentation";
//! here the placement policy is this one deterministic function, and
//! [`fragmentation`] measures how badly a chip's free space has decayed.

use crate::cluster::ClusterGrid;
use crate::coord::Coord;
use crate::region::Region;
use std::cell::OnceCell;

/// A reusable free-space index over one snapshot of the chip.
///
/// [`find_region`] answers a single request but pays an O(grid) predicate
/// sweep every call, which makes probe-heavy callers — the binary searches
/// in [`fragmentation`] and `VlsiChip::largest_gatherable` — quadratic in
/// practice. A `RegionFinder` does the sweep once into a 2-D integral
/// image and then answers [`find`](Self::find) probes with O(1) work per
/// anchor: a serpentine prefix is always "`full` complete rows plus one
/// partial row", so fit is one rectangle query plus one row-span query.
/// Size probes ([`largest_fit`](Self::largest_fit)) stop at the anchor;
/// only `find` materialises the [`Region`].
///
/// The finder is a snapshot: rebuild it after any allocation change.
/// Placement decisions are bit-identical to [`find_region`]'s.
#[derive(Debug)]
pub struct RegionFinder {
    gw: usize,
    gh: usize,
    free_total: usize,
    /// Integral image, stride `gw + 1`: `ii[y * (gw+1) + x]` counts the
    /// free cells in rows `[0, y)` × columns `[0, x)`.
    ii: Vec<u32>,
    /// [`largest_fit`](Self::largest_fit), searched at most once per
    /// snapshot.
    largest_fit: OnceCell<usize>,
}

impl RegionFinder {
    /// Sweeps `is_free` exactly once per cell and builds the index.
    pub fn new(grid: &ClusterGrid, mut is_free: impl FnMut(Coord) -> bool) -> RegionFinder {
        let gw = usize::from(grid.width());
        let gh = usize::from(grid.height());
        let stride = gw + 1;
        let mut ii = vec![0u32; stride * (gh + 1)];
        let mut free_total = 0usize;
        for y in 0..gh {
            let mut row = 0u32;
            for x in 0..gw {
                let f = is_free(Coord::new(x as u16, y as u16));
                free_total += usize::from(f);
                row += u32::from(f);
                ii[(y + 1) * stride + (x + 1)] = ii[y * stride + (x + 1)] + row;
            }
        }
        RegionFinder {
            gw,
            gh,
            free_total,
            ii,
            largest_fit: OnceCell::new(),
        }
    }

    /// Total free cells in the snapshot.
    pub fn free_total(&self) -> usize {
        self.free_total
    }

    /// Free cells in rows `[y0, y1)` × columns `[x0, x1)`.
    #[inline]
    fn rect_free(&self, x0: usize, y0: usize, x1: usize, y1: usize) -> usize {
        let s = self.gw + 1;
        (self.ii[y1 * s + x1] + self.ii[y0 * s + x0] - self.ii[y0 * s + x1] - self.ii[y1 * s + x0])
            as usize
    }

    /// The row-major first-fit anchor for a `clusters`-cell request:
    /// `(x0, y0, w)` of the first `w`-wide box, widths squarest first,
    /// whose serpentine prefix is entirely free. Pure index arithmetic —
    /// nothing is materialised, so size probes cost no allocation.
    fn anchor(&self, clusters: usize) -> Option<(usize, usize, usize)> {
        if clusters == 0 || clusters > self.gw * self.gh || self.free_total < clusters {
            return None;
        }
        for w in widths_squarest_first(clusters, self.gw) {
            let h = clusters.div_ceil(w);
            if h > self.gh {
                continue;
            }
            // A k-cell serpentine prefix of a w×h box is `full` complete
            // rows plus `rem` cells in row `full` — left-aligned when that
            // row is traversed left→right (even index), right-aligned
            // otherwise. Fit is therefore one rect query + one row query.
            let full = clusters / w;
            let rem = clusters % w;
            for y0 in 0..=(self.gh - h) {
                for x0 in 0..=(self.gw - w) {
                    if self.rect_free(x0, y0, x0 + w, y0 + full) != w * full {
                        continue;
                    }
                    if rem > 0 {
                        let y = y0 + full;
                        let (a, b) = if full.is_multiple_of(2) {
                            (x0, x0 + rem)
                        } else {
                            (x0 + w - rem, x0 + w)
                        };
                        if self.rect_free(a, y, b, y + 1) != rem {
                            continue;
                        }
                    }
                    return Some((x0, y0, w));
                }
            }
        }
        None
    }

    /// Finds a free region of exactly `clusters` clusters, or `None` —
    /// same candidate-width order and row-major first-fit anchor scan as
    /// [`find_region`], so the placement is identical.
    pub fn find(&self, clusters: usize) -> Option<Region> {
        self.find_cells(clusters).map(Region::new)
    }

    /// The cells [`find`](Self::find) would return, row by row, without
    /// building the [`Region`] — for callers that only test them.
    pub fn find_cells(&self, clusters: usize) -> Option<impl Iterator<Item = Coord> + Clone> {
        let (x0, y0, w) = self.anchor(clusters)?;
        Some(serpentine_prefix(x0 as u16, y0 as u16, w as u16, clusters))
    }

    /// The largest `k` for which [`find`](Self::find) succeeds (0 when
    /// nothing fits). Serpentine-prefix fit is monotone in the request
    /// size, so this is a binary search over anchor-only probes — run
    /// on the first call and remembered for the snapshot's lifetime.
    pub fn largest_fit(&self) -> usize {
        *self.largest_fit.get_or_init(|| {
            let (mut lo, mut hi) = (0usize, self.free_total);
            while lo < hi {
                let mid = (lo + hi).div_ceil(2);
                if self.anchor(mid).is_some() {
                    lo = mid;
                } else {
                    hi = mid - 1;
                }
            }
            lo
        })
    }

    /// Free-space fragmentation of the snapshot in `[0, 1]`: 0 when one
    /// request can take every free cluster (or none is free),
    /// approaching 1 when only tiny requests can be placed.
    pub fn fragmentation(&self) -> f64 {
        if self.free_total == 0 {
            return 0.0;
        }
        1.0 - self.largest_fit() as f64 / self.free_total as f64
    }
}

/// The cells of the `clusters`-cell prefix of the serpentine fold of a
/// `w`-wide box at `(x0, y0)`: `full` complete rows, then `rem` cells of
/// the next row — from the left when that row runs left to right (even
/// index), from the right otherwise.
fn serpentine_prefix(
    x0: u16,
    y0: u16,
    w: u16,
    clusters: usize,
) -> impl Iterator<Item = Coord> + Clone {
    let full = (clusters / usize::from(w)) as u16;
    let rem = (clusters % usize::from(w)) as u16;
    let last = if full.is_multiple_of(2) {
        x0..x0 + rem
    } else {
        x0 + w - rem..x0 + w
    };
    (y0..y0 + full)
        .flat_map(move |y| (x0..x0 + w).map(move |x| Coord::new(x, y)))
        .chain(last.map(move |x| Coord::new(x, y0 + full)))
}

/// Candidate box widths `1..=min(gw, clusters)` for a `clusters`-cell
/// request, squarest first: ascending `|w − √clusters|`, the wider of
/// two equidistant widths first (only perfect squares tie). An
/// integer-only merge outward from `⌊√clusters⌋` — no allocation, no
/// float comparison, and a probe that fits its first width never
/// computes the rest.
fn widths_squarest_first(clusters: usize, gw: usize) -> impl Iterator<Item = usize> {
    let max = gw.min(clusters);
    // `lo` walks down from ⌊√k⌋ (0 = exhausted), `hi` up from ⌊√k⌋ + 1.
    let mut lo = clusters.isqrt().min(max);
    let mut hi = lo + 1;
    std::iter::from_fn(move || {
        // lo ≤ √k < hi, so lo is strictly closer iff 2√k < lo + hi.
        if lo >= 1 && (hi > max || 4 * clusters < (lo + hi) * (lo + hi)) {
            lo -= 1;
            Some(lo + 1)
        } else if hi <= max {
            hi += 1;
            Some(hi - 1)
        } else {
            None
        }
    })
}

/// Finds a free region of exactly `clusters` clusters, or `None`.
///
/// `is_free` reports whether a coordinate is allocatable (unowned,
/// non-defective, on the chip). Candidate widths are tried squarest-first;
/// anchors row-major — the first fit wins, so allocation is deterministic.
///
/// One-shot convenience over [`RegionFinder`]; callers probing many sizes
/// against one snapshot should build the finder once instead.
pub fn find_region(
    grid: &ClusterGrid,
    clusters: usize,
    is_free: impl FnMut(Coord) -> bool,
) -> Option<Region> {
    if clusters == 0 || clusters > grid.cluster_count() {
        return None;
    }
    RegionFinder::new(grid, is_free).find(clusters)
}

/// Free-space fragmentation in `[0, 1]` — one-shot convenience over
/// [`RegionFinder::fragmentation`].
pub fn fragmentation(grid: &ClusterGrid, is_free: impl FnMut(Coord) -> bool) -> f64 {
    RegionFinder::new(grid, is_free).fragmentation()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::fold::serpentine;
    use std::collections::HashSet;

    fn grid() -> ClusterGrid {
        ClusterGrid::new(8, 8, Cluster::default())
    }

    #[test]
    fn exact_squares_allocate_as_squares() {
        let g = grid();
        let r = find_region(&g, 16, |_| true).unwrap();
        assert_eq!(r.len(), 16);
        assert_eq!(r.as_rect().map(|(_, w, h)| (w, h)), Some((4, 4)));
        // And it's gatherable.
        assert!(r.linear_path().is_ok());
    }

    #[test]
    fn non_rect_counts_get_serpentine_prefixes() {
        let g = grid();
        for k in [1usize, 3, 5, 7, 11, 13, 23, 37] {
            let r = find_region(&g, k, |_| true).unwrap_or_else(|| panic!("k={k} must allocate"));
            assert_eq!(r.len(), k);
            let f = r.linear_path().unwrap_or_else(|e| panic!("k={k}: {e}"));
            assert!(f.max_hop_distance() <= 1);
        }
    }

    #[test]
    fn allocation_respects_occupancy() {
        let g = grid();
        // Occupy the left half.
        let occupied: HashSet<Coord> = Region::rect(Coord::new(0, 0), 4, 8).cells().collect();
        let r = find_region(&g, 16, |c| !occupied.contains(&c)).unwrap();
        for c in r.cells() {
            assert!(!occupied.contains(&c));
        }
    }

    #[test]
    fn oversized_requests_fail() {
        let g = grid();
        assert!(find_region(&g, 65, |_| true).is_none());
        assert!(find_region(&g, 0, |_| true).is_none());
        // Free space exists but no contiguous 9 fits in two 2x2 holes.
        let holes: HashSet<Coord> = Region::rect(Coord::new(0, 0), 2, 2)
            .union(&Region::rect(Coord::new(6, 6), 2, 2))
            .cells()
            .collect();
        assert!(find_region(&g, 8, |c| holes.contains(&c)).is_none());
        assert!(find_region(&g, 4, |c| holes.contains(&c)).is_some());
    }

    #[test]
    fn allocation_is_deterministic() {
        let g = grid();
        let a = find_region(&g, 6, |_| true).unwrap();
        let b = find_region(&g, 6, |_| true).unwrap();
        assert_eq!(a, b);
    }

    /// The float sort the allocator used to run on every probe — kept
    /// here as the reference the integer merge must reproduce.
    fn widths_by_float_sort(clusters: usize, gw: usize) -> Vec<usize> {
        let ideal = (clusters as f64).sqrt();
        let mut widths: Vec<usize> = (1..=gw.min(clusters)).collect();
        widths.sort_by(|&a, &b| {
            (a as f64 - ideal)
                .abs()
                .partial_cmp(&(b as f64 - ideal).abs())
                .unwrap()
                .then(b.cmp(&a))
        });
        widths
    }

    #[test]
    fn candidate_width_order_is_pinned() {
        for gw in [8usize, 16, 64] {
            for k in 1..=256usize {
                let got: Vec<usize> = widths_squarest_first(k, gw).collect();
                assert_eq!(got, widths_by_float_sort(k, gw), "k={k} gw={gw}");
            }
        }
        // The documented tie: a perfect square's two equidistant
        // neighbours come wider first.
        assert_eq!(
            widths_squarest_first(16, 8).collect::<Vec<_>>(),
            vec![4, 5, 3, 6, 2, 7, 1, 8]
        );
    }

    /// Cell-by-cell oracle, no integral image: does *any* box width and
    /// anchor hold a free `k`-cell serpentine prefix?
    fn brute_force_fits(g: &ClusterGrid, k: usize, free: &dyn Fn(Coord) -> bool) -> bool {
        let (gw, gh) = (g.width(), g.height());
        (1..=gw).any(|w| {
            let h = k.div_ceil(usize::from(w)) as u16;
            h <= gh
                && (0..=gh - h).any(|y0| {
                    (0..=gw - w).any(|x0| {
                        serpentine(w, h)
                            .path()
                            .iter()
                            .take(k)
                            .all(|c| free(Coord::new(x0 + c.x, y0 + c.y)))
                    })
                })
        })
    }

    #[test]
    fn anchor_probe_agrees_with_find_for_every_size() {
        let g = grid();
        // Free-space shapes: empty die, a pinned column, a checkerboard,
        // and a pseudo-random scatter.
        let occupancies: [&dyn Fn(Coord) -> bool; 4] = [
            &|_| true,
            &|c| !(3..5).contains(&c.x),
            &|c| (c.x + c.y) % 2 == 0,
            &|c| (c.x * 7 + c.y * 13 + c.x * c.y) % 5 != 0,
        ];
        for free in occupancies {
            let finder = RegionFinder::new(&g, free);
            for k in 0..=finder.free_total() {
                let found = finder.find(k);
                assert_eq!(finder.anchor(k).is_some(), found.is_some(), "k={k}");
                assert_eq!(
                    found.is_some(),
                    k > 0 && brute_force_fits(&g, k, free),
                    "k={k}"
                );
                if let Some(r) = found {
                    assert_eq!(r.len(), k);
                    assert!(r.cells().all(free), "k={k}: region must be free");
                    // The prefix of the anchored box's serpentine fold.
                    let (x0, y0, w) = finder.anchor(k).unwrap();
                    let fold = serpentine(w as u16, k.div_ceil(w) as u16);
                    let prefix = fold.path().iter().take(k);
                    let expect = prefix.map(|c| Coord::new(x0 as u16 + c.x, y0 as u16 + c.y));
                    assert_eq!(r, Region::new(expect), "k={k}");
                }
            }
            let exhaustive = (0..=finder.free_total())
                .rev()
                .find(|&k| finder.find(k).is_some())
                .unwrap_or(0);
            assert_eq!(finder.largest_fit(), exhaustive);
        }
    }

    #[test]
    fn fragmentation_metric() {
        let g = grid();
        // Whole chip free: a 64-cluster request fits, fragmentation 0.
        assert_eq!(fragmentation(&g, |_| true), 0.0);
        // Checkerboard of free 1x1 holes: only 1-cluster requests fit.
        let frag = fragmentation(&g, |c| (c.x + c.y) % 2 == 0);
        assert!(frag > 0.9, "checkerboard fragmentation {frag}");
    }
}
