//! The region-shaping pass: pick a rectangle for every stage.
//!
//! A stage needs enough *compute* objects for its datapath working set
//! (binary nodes + local constants + one address constant per mailbox
//! channel + one probe per live-out) and enough *memory* objects for
//! its mailbox channels (one per live-in). The cluster composition
//! (`Cluster::default()` = 4 compute + 4 memory, the paper's 2×2-patch
//! minimum AP) converts those counts into a cluster count; this pass
//! then chooses the rectangle's aspect ratio against the §4 cost
//! model: among all `w × h` covers of the cluster count, prefer the
//! smallest area, then the smallest *wire-delay-weighted semi-
//! perimeter* (`(w + h) · t_wire(region)`, with `t_wire` from the ITRS
//! tables — the §4 argument that a scaled processor's cycle time is
//! set by the wires that span it), then the narrowest width.

use crate::error::CompileError;
use crate::netlist::Netlist;
use crate::partition::Partition;
use vlsi_cost::itrs::{self, YearParams};
use vlsi_cost::wire;
use vlsi_topology::Cluster;

/// The shape chosen for one stage.
#[derive(Clone, PartialEq, Debug)]
pub struct StageShape {
    /// Region width in clusters.
    pub width: u16,
    /// Region height in clusters.
    pub height: u16,
    /// Compute objects the stage's datapath needs.
    pub compute_objects: usize,
    /// Memory objects (mailbox channels) the stage needs.
    pub memory_objects: usize,
    /// Estimated global-wire delay across the region (ns, §4 model).
    pub est_wire_delay_ns: f64,
}

impl StageShape {
    /// Clusters the rectangle spans.
    pub fn clusters(&self) -> usize {
        usize::from(self.width) * usize::from(self.height)
    }
}

/// The shaping artifact.
#[derive(Clone, PartialEq, Debug)]
pub struct Shape {
    /// Per-stage shapes, in stage order.
    pub stages: Vec<StageShape>,
    /// ITRS year the wire-delay weighting used.
    pub year: u32,
}

/// Shapes every stage of `part` for a `chip_width × chip_height` die
/// of `cluster`-composed clusters.
pub fn shape(
    netlist: &Netlist,
    part: &Partition,
    cluster: &Cluster,
    chip_width: u16,
    chip_height: u16,
    year: u32,
) -> Result<Shape, CompileError> {
    let params = itrs::year(year).ok_or(CompileError::UnknownYear { year })?;
    let _ = netlist; // shapes depend only on the partition's counts
    let mut stages = Vec::with_capacity(part.stages.len());
    for (i, st) in part.stages.iter().enumerate() {
        let compute = st.nodes.len() + st.consts.len() + st.live_ins.len() + st.live_outs.len();
        let memory = st.live_ins.len();
        let by_compute = compute.div_ceil(cluster.compute_objects.max(1));
        let by_memory = memory.div_ceil(cluster.memory_objects.max(1));
        let clusters = by_compute.max(by_memory).max(1);
        let Some((w, h, delay)) = best_rect(clusters, chip_width, chip_height, cluster, &params)
        else {
            return Err(CompileError::StageTooLarge {
                stage: i,
                clusters,
                chip_clusters: usize::from(chip_width) * usize::from(chip_height),
            });
        };
        stages.push(StageShape {
            width: w,
            height: h,
            compute_objects: compute,
            memory_objects: memory,
            est_wire_delay_ns: delay,
        });
    }
    Ok(Shape { stages, year })
}

/// The best `w × h ≥ clusters` rectangle fitting the die, by
/// `(area, (w + h) · t_wire, w)`.
fn best_rect(
    clusters: usize,
    chip_width: u16,
    chip_height: u16,
    cluster: &Cluster,
    params: &YearParams,
) -> Option<(u16, u16, f64)> {
    let mut best: Option<(u16, u16, f64)> = None;
    let mut best_key: Option<(usize, f64, u16)> = None;
    for w in 1..=chip_width {
        let h_min = clusters.div_ceil(usize::from(w));
        if h_min > usize::from(chip_height) {
            continue;
        }
        let h = h_min as u16;
        let area = usize::from(w) * usize::from(h);
        let delay = wire::wire_delay_ns_for((area * cluster.compute_objects) as f64, params);
        let key = (area, f64::from(w + h) * delay, w);
        let better = match &best_key {
            None => true,
            Some((a, p, bw)) => {
                key.0 < *a || (key.0 == *a && (key.1 < *p || (key.1 == *p && key.2 < *bw)))
            }
        };
        if better {
            best_key = Some(key);
            best = Some((w, h, delay));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Netlist;
    use crate::partition::partition;

    #[test]
    fn near_square_rectangles_win() {
        let cluster = Cluster::default();
        let p = itrs::year(2012).unwrap();
        // 12 clusters on a big die: 3×4 Pareto-beats 1×12 and 2×6.
        let (w, h, _) = best_rect(12, 32, 32, &cluster, &p).unwrap();
        assert_eq!((w.min(h), w.max(h)), (3, 4));
        // 5 clusters: area 5 (1×5) beats area 6 (2×3) — area first.
        let (w, h, _) = best_rect(5, 32, 32, &cluster, &p).unwrap();
        assert_eq!(usize::from(w) * usize::from(h), 5);
    }

    #[test]
    fn chip_bounds_constrain_the_shape() {
        let cluster = Cluster::default();
        let p = itrs::year(2012).unwrap();
        // A 2-tall die forces 12 clusters into 6×2.
        let (w, h, _) = best_rect(12, 32, 2, &cluster, &p).unwrap();
        assert!(usize::from(w) * usize::from(h) >= 12);
        assert!(h <= 2);
        // Impossible request.
        assert!(best_rect(100, 4, 4, &cluster, &p).is_none());
    }

    #[test]
    fn capacity_counts_cover_the_lowered_datapath() {
        let n = Netlist::parse(
            "graph g\ninput x\ninput y\nconst k 5\nnode a add x k\nnode b mul a y\noutput o b\n",
        )
        .unwrap();
        let part = partition(&n, 12);
        let s = shape(&n, &part, &Cluster::default(), 32, 32, 2012).unwrap();
        assert_eq!(s.stages.len(), 1);
        let st = &s.stages[0];
        // 2 nodes + 1 const + 2 live-ins (x, y) + 1 live-out = 6 compute.
        assert_eq!(st.compute_objects, 6);
        assert_eq!(st.memory_objects, 2);
        // 6 compute / 4 per cluster → 2 clusters.
        assert_eq!(st.clusters(), 2);
        // A year the ITRS table does not cover is refused, typed.
        assert_eq!(
            shape(&n, &part, &Cluster::default(), 32, 32, 2020).unwrap_err(),
            CompileError::UnknownYear { year: 2020 }
        );
        assert!(st.est_wire_delay_ns > 0.0);
    }

    #[test]
    fn oversized_stage_is_a_typed_error() {
        // One stage needing more clusters than a 1×1 die has.
        let mut text = String::from("graph g\ninput x\n");
        let mut prev = "x".to_string();
        for i in 0..12 {
            text.push_str(&format!("node n{i} add {prev} {prev}\n"));
            prev = format!("n{i}");
        }
        text.push_str(&format!("output o {prev}\n"));
        let n = Netlist::parse(&text).unwrap();
        let part = partition(&n, 12);
        let err = shape(&n, &part, &Cluster::default(), 1, 1, 2012).unwrap_err();
        assert!(matches!(err, CompileError::StageTooLarge { .. }));
    }
}
