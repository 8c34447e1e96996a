//! Integration: scaling operations — gather/fuse/split economics and the
//! reservation discipline.

use vlsi_processor::core::{CoreError, VlsiChip};
use vlsi_processor::topology::{Cluster, Coord, Region};

#[test]
fn configuration_latency_grows_with_region_size() {
    // Ablation C: gathering a bigger region takes more worms, more switch
    // stores, and a maximum worm latency that never falls.
    let mut last = (0usize, 0u64, 0u64);
    for side in [1u16, 2, 3, 4, 6, 8] {
        let mut chip = VlsiChip::new(8, 8, Cluster::default());
        let out = chip
            .gather(Region::rect(Coord::new(0, 0), side, side))
            .unwrap();
        let cur = (out.worms, out.switch_stores, out.config_latency);
        println!(
            "{side}x{side}: worms {}, switch stores {}, latency {}",
            cur.0, cur.1, cur.2
        );
        assert!(cur.0 > last.0);
        assert!(cur.1 > last.1);
        assert!(cur.2 >= last.2);
        last = cur;
    }

    // Closing a 4x2 fold into a ring costs nothing extra: the same switch
    // stores and the same configuration latency as the open fold.
    let region = Region::rect(Coord::new(0, 0), 4, 2);
    let open = VlsiChip::new(8, 8, Cluster::default())
        .gather(region.clone())
        .unwrap();
    let ring = VlsiChip::new(8, 8, Cluster::default())
        .gather_ring(region)
        .unwrap();
    assert_eq!(ring.switch_stores, open.switch_stores);
    assert_eq!(ring.config_latency, open.config_latency);
}

#[test]
fn up_and_down_scaling_cycle() {
    // 4 small -> 2 medium -> 1 large -> release, on one chip.
    let mut chip = VlsiChip::new(8, 8, Cluster::default());
    let small: Vec<_> = (0..4u16)
        .map(|i| {
            chip.gather(Region::rect(Coord::new(i * 2, 0), 2, 2))
                .unwrap()
                .id
        })
        .collect();
    let m1 = chip.fuse(small[0], small[1]).unwrap().id;
    let m2 = chip.fuse(small[2], small[3]).unwrap().id;
    assert_eq!(chip.processor(m1).unwrap().scale(), 8);
    let large = chip.fuse(m1, m2).unwrap().id;
    let p = chip.processor(large).unwrap();
    assert_eq!(p.scale(), 16);
    assert_eq!(p.ap.config().compute_objects, 64);
    chip.release_processor(large).unwrap();
    assert_eq!(chip.free_clusters(), 64);
    assert_eq!(chip.fabric().programmed_coords().count(), 0);
}

#[test]
fn reservation_flags_serialise_conflicting_gathers() {
    // Two gathers race for overlapping clusters: the first worm-programs
    // its switches; the second must fail atomically and leave the first
    // intact (§3.3's conflict-avoidance role of the reservation flag).
    let mut chip = VlsiChip::new(8, 8, Cluster::default());
    let a = chip.gather(Region::rect(Coord::new(0, 0), 3, 3)).unwrap();
    let before = chip.free_clusters();
    let err = chip
        .gather(Region::rect(Coord::new(2, 2), 3, 3))
        .unwrap_err();
    assert!(matches!(err, CoreError::Topology(_)));
    assert_eq!(
        chip.free_clusters(),
        before,
        "failed gather left no residue"
    );
    // The winner still traces cleanly.
    let p = chip.processor(a.id).unwrap();
    let traced = chip
        .fabric()
        .trace_shift_path(p.fold.path()[0], p.fold.len() + 2);
    assert_eq!(traced.len(), 9);
}

#[test]
fn no_dedicated_scaling_state_leaks_across_processors() {
    // Gather/release in a loop at the same location: IDs advance,
    // resources do not leak, and the NoC keeps delivering.
    let mut chip = VlsiChip::new(4, 4, Cluster::default());
    let mut last_latency = None;
    for _ in 0..16 {
        let out = chip.gather(Region::rect(Coord::new(1, 1), 2, 2)).unwrap();
        if let Some(l) = last_latency {
            // Same shape, same supervisor: identical configuration cost.
            assert_eq!(out.config_latency, l);
        }
        last_latency = Some(out.config_latency);
        chip.release_processor(out.id).unwrap();
    }
    assert_eq!(chip.free_clusters(), 16);
}

#[test]
fn arbitrary_shapes_gather() {
    // §3.1: "any arbitrary shape that may be formed by connecting the
    // clusters". T, L, S pentomino-ish shapes.
    let shapes: Vec<Vec<(u16, u16)>> = vec![
        vec![(0, 0), (1, 0), (0, 1), (1, 1), (0, 2)], // P
        vec![(4, 0), (4, 1), (4, 2), (5, 2), (6, 2)], // L
        vec![(0, 4), (1, 4), (1, 5), (2, 5), (2, 6)], // S/Z
    ];
    let mut chip = VlsiChip::new(8, 8, Cluster::default());
    for cells in shapes {
        let region = Region::new(cells.into_iter().map(|(x, y)| Coord::new(x, y)));
        let out = chip.gather(region.clone()).unwrap();
        let p = chip.processor(out.id).unwrap();
        assert_eq!(p.fold.len(), region.len());
        assert!(p.fold.max_hop_distance() <= 1);
    }

    // A T-pentomino has three degree-1 tips: no linear stack can thread
    // it, and the gather must say so rather than wedge.
    let t = Region::new(
        [(4u16, 4u16), (5, 4), (6, 4), (5, 5), (5, 6)]
            .into_iter()
            .map(|(x, y)| Coord::new(x, y)),
    );
    assert!(matches!(
        chip.gather(t),
        Err(CoreError::Topology(
            vlsi_processor::topology::TopologyError::NoLinearPath
        ))
    ));
}
