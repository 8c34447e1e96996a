//! The inter-chip interconnect: per-die fabric planes bridged by
//! off-chip links.
//!
//! Every chip contributes one *fabric plane* — a dedicated
//! [`NocNetwork`] mesh the size of the die, modelled after the DNP's
//! separate network processor — plus four off-chip **edge ports**, one
//! router per mesh direction, that feed latency/bandwidth-limited links
//! to the neighbouring chips of the [`ClusterTopology`].
//!
//! ## Tick discipline (why this is deterministic)
//!
//! One [`ClusterNetwork::tick`] runs `cycles_per_tick` fabric cycles.
//! Each cycle has two phases:
//!
//! 1. **In-phase** — every live plane that carries traffic advances one
//!    cycle, in chip order. Intra-chip crossings commit here, inside
//!    each plane, exactly as they would stand-alone.
//! 2. **Proposals** — the owner drains each plane's delivered list in
//!    ascending chip order; within a chip the NoC has already committed
//!    deliveries in ascending router order. A message delivered at an
//!    edge port that still has chips to cross becomes a *link proposal*,
//!    committed onto the link queue immediately — so the queue order is
//!    exactly ascending (source chip, source router).
//!
//! The cycle loop ends early once every live plane is idle after phase
//! 2: the cycles it skips would tick nothing and deliver nothing.
//!
//! After the cycle loop, links transmit in fixed index order
//! (`chip * 4 + direction`): up to `link_bandwidth` packets whose
//! latency has elapsed hop to the neighbour chip and are re-injected at
//! its opposite edge port.
//!
//! ## Failure model
//!
//! [`fail_chip`] kills a die mid-run: its plane stops ticking, all
//! eight adjacent link queues are severed, and every in-flight message
//! touching it is either retransmitted from its source (counted in
//! `fabric.retransmits`) or failed typed — never dropped silently. A
//! worm a plane's transport gives up on surfaces here as a fabric-level
//! retransmission.
//!
//! [`fail_chip`]: ClusterNetwork::fail_chip

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

use vlsi_noc::{NocNetwork, WormId};
use vlsi_telemetry::TelemetryHandle;
use vlsi_topology::{Coord, Dir};

use crate::error::FabricError;
use crate::topology::{link_dir_index, ClusterTopology, LINK_DIRS};

/// Identifier of a fabric message, in send order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MessageId(pub u64);

impl std::fmt::Display for MessageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "msg{}", self.0)
    }
}

/// Tunables of the interconnect. [`Default`] is what the integration
/// tests, the pinned `cluster_4x_32x32` digest and the serving benchmark
/// use (through [`ClusterConfig::standard`](crate::ClusterConfig::standard)).
#[derive(Clone, Debug)]
pub struct FabricConfig {
    /// Ticks a packet spends on an off-chip wire before it may hop.
    pub link_latency: u64,
    /// Packets one link may deliver per tick (serialisation limit).
    pub link_bandwidth: usize,
    /// On-die fabric-plane cycles simulated per cluster tick.
    pub cycles_per_tick: u64,
    /// Fabric-level (re)transmissions per message before it fails typed.
    pub max_attempts: u32,
}

impl Default for FabricConfig {
    fn default() -> FabricConfig {
        FabricConfig {
            link_latency: 2,
            link_bandwidth: 4,
            cycles_per_tick: 32,
            max_attempts: 4,
        }
    }
}

/// A message handed to its destination chip.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Delivery {
    /// The message.
    pub msg: MessageId,
    /// Chip it was sent from.
    pub src_chip: usize,
    /// Chip it arrived on.
    pub dst_chip: usize,
    /// Router it arrived at.
    pub dst: Coord,
    /// The payload, as given to [`ClusterNetwork::send`].
    pub payload: Vec<u64>,
    /// Cluster ticks from send to delivery.
    pub latency: u64,
}

/// Where a pending message currently sits.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Location {
    /// Travelling inside chip `chip`'s fabric plane.
    InPlane(usize),
    /// Queued on link `link` (index `chip * 4 + dir`).
    OnLink(usize),
}

/// Book-keeping for one undelivered message.
#[derive(Clone, Debug)]
struct Pending {
    src_chip: usize,
    src: Coord,
    dst_chip: usize,
    dst: Coord,
    payload: Vec<u64>,
    attempts: u32,
    hops: u64,
    sent_at: u64,
    at: Coord,
    location: Location,
}

/// One packet riding an off-chip link.
#[derive(Clone, Copy, Debug)]
struct LinkEntry {
    msg: u64,
    ready_at: u64,
}

/// Aggregate interconnect counters (also exported as `fabric.*`
/// telemetry).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Cluster ticks simulated.
    pub ticks: u64,
    /// Messages accepted by [`ClusterNetwork::send`].
    pub messages: u64,
    /// Messages delivered end-to-end.
    pub delivered: u64,
    /// Off-chip link crossings.
    pub crossings: u64,
    /// Fabric-level retransmissions (chip deaths, severed links, worms
    /// the on-die transport gave up on).
    pub retransmits: u64,
    /// Messages failed typed.
    pub undeliverable: u64,
    /// Chips killed by [`ClusterNetwork::fail_chip`].
    pub chip_failures: u64,
}

/// `M` fabric planes bridged into one cluster by latency- and
/// bandwidth-limited off-chip links.
pub struct ClusterNetwork {
    topo: ClusterTopology,
    mesh: (u16, u16),
    planes: Vec<NocNetwork>,
    dead: Vec<bool>,
    links: Vec<VecDeque<LinkEntry>>,
    pending: BTreeMap<u64, Pending>,
    worm_msg: Vec<BTreeMap<WormId, u64>>,
    delivered: Vec<Delivery>,
    failed: Vec<(MessageId, FabricError)>,
    next_msg: u64,
    now: u64,
    config: FabricConfig,
    stats: FabricStats,
    telemetry: TelemetryHandle,
}

impl ClusterNetwork {
    /// A cluster of `topo.chips()` planes, each a `mesh.0 × mesh.1`
    /// die, with no telemetry.
    pub fn new(topo: ClusterTopology, mesh: (u16, u16), config: FabricConfig) -> ClusterNetwork {
        ClusterNetwork::with_telemetry(topo, mesh, config, TelemetryHandle::disabled())
    }

    /// Like [`new`](Self::new), recording `fabric.*` instruments through
    /// `telemetry`. Each plane records through its own fork (live
    /// exactly when `telemetry` is), merged in chip order by
    /// [`merged_telemetry`](Self::merged_telemetry). Gauges add on
    /// merge, so one shared registry would export different values.
    pub fn with_telemetry(
        topo: ClusterTopology,
        mesh: (u16, u16),
        config: FabricConfig,
        telemetry: TelemetryHandle,
    ) -> ClusterNetwork {
        let chips = topo.chips();
        let planes: Vec<NocNetwork> = (0..chips)
            .map(|_| NocNetwork::with_telemetry(mesh.0, mesh.1, telemetry.fork()))
            .collect();
        ClusterNetwork {
            topo,
            mesh,
            planes,
            dead: vec![false; chips],
            links: (0..chips * 4).map(|_| VecDeque::new()).collect(),
            pending: BTreeMap::new(),
            worm_msg: (0..chips).map(|_| BTreeMap::new()).collect(),
            delivered: Vec::new(),
            failed: Vec::new(),
            next_msg: 0,
            now: 0,
            config,
            stats: FabricStats::default(),
            telemetry,
        }
    }

    /// The chip-level topology.
    pub fn topology(&self) -> &ClusterTopology {
        &self.topo
    }

    /// The fabric-level telemetry handle (plane instruments live in
    /// per-plane forks; see [`merged_telemetry`](Self::merged_telemetry)).
    pub fn telemetry(&self) -> &TelemetryHandle {
        &self.telemetry
    }

    /// Aggregate counters.
    pub fn stats(&self) -> &FabricStats {
        &self.stats
    }

    /// Cluster ticks simulated so far.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Whether `chip` is still alive.
    pub fn alive(&self, chip: usize) -> bool {
        !self.dead[chip]
    }

    /// Whether no message is in flight anywhere.
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty()
    }

    /// The edge-port router serving off-chip direction `dir` on every
    /// die: East `(w-1, h/2)`, West `(0, h/2)`, South `(w/2, h-1)`,
    /// North `(w/2, 0)`. `None` for `Up`/`Down`: chip links are planar.
    pub fn port(&self, dir: Dir) -> Option<Coord> {
        let (w, h) = self.mesh;
        match dir {
            Dir::East => Some(Coord::new(w - 1, h / 2)),
            Dir::West => Some(Coord::new(0, h / 2)),
            Dir::South => Some(Coord::new(w / 2, h - 1)),
            Dir::North => Some(Coord::new(w / 2, 0)),
            Dir::Up | Dir::Down => None,
        }
    }

    /// Sends `payload` from router `src` on `src_chip` to router `dst`
    /// on `dst_chip`. Routing, link scheduling, and retransmission are
    /// the network's business; the caller polls
    /// [`take_delivered`](Self::take_delivered) /
    /// [`take_failed`](Self::take_failed). A send from or to a dead chip
    /// is refused up front; a message that becomes undeliverable later
    /// fails typed on the failed list instead.
    pub fn send(
        &mut self,
        src_chip: usize,
        src: Coord,
        dst_chip: usize,
        dst: Coord,
        payload: Vec<u64>,
    ) -> Result<MessageId, FabricError> {
        assert!(src_chip < self.topo.chips(), "source chip out of cluster");
        assert!(
            dst_chip < self.topo.chips(),
            "destination chip out of cluster"
        );
        if self.dead[src_chip] {
            return Err(FabricError::ChipDown { chip: src_chip });
        }
        if self.dead[dst_chip] {
            return Err(FabricError::ChipDown { chip: dst_chip });
        }
        let msg = self.next_msg;
        self.next_msg += 1;
        self.pending.insert(
            msg,
            Pending {
                src_chip,
                src,
                dst_chip,
                dst,
                payload,
                attempts: 1,
                hops: 0,
                sent_at: self.now,
                at: src,
                location: Location::InPlane(src_chip),
            },
        );
        self.stats.messages += 1;
        self.telemetry.count("fabric.messages", 1);
        self.inject_hop(msg, src_chip);
        Ok(MessageId(msg))
    }

    /// Kills the chip at `chip`: the plane stops ticking, its eight
    /// adjacent link queues are severed, and every in-flight message
    /// touching it is retransmitted from its source or failed typed —
    /// in ascending message order, so the outcome is deterministic.
    pub fn fail_chip(&mut self, chip: usize) {
        if self.dead[chip] {
            return;
        }
        self.dead[chip] = true;
        self.stats.chip_failures += 1;
        self.telemetry.count("fabric.chip_failures", 1);
        self.worm_msg[chip].clear();
        // Messages inside the dead plane, or addressed to it, first.
        let msgs: Vec<u64> = self.pending.keys().copied().collect();
        for msg in msgs {
            let p = &self.pending[&msg];
            if p.dst_chip == chip {
                self.fail_msg(msg, "destination chip down");
            } else if p.location == Location::InPlane(chip) {
                self.retransmit_or_fail(msg, "transit chip down");
            }
        }
        // Then the severed link queues, in link-index order.
        for li in 0..self.links.len() {
            let src = li / 4;
            let dir = LINK_DIRS[li % 4];
            if src != chip && self.topo.neighbor(src, dir) != chip {
                continue;
            }
            let q = std::mem::take(&mut self.links[li]);
            for entry in q {
                if self.pending.contains_key(&entry.msg) {
                    self.retransmit_or_fail(entry.msg, "link severed");
                }
            }
        }
    }

    /// Advances the cluster one tick: up to `cycles_per_tick` two-phase
    /// fabric cycles (planes, then a commit in ascending chip order),
    /// then one round of link transmission in fixed link-index order.
    pub fn tick(&mut self) {
        self.now += 1;
        self.stats.ticks += 1;
        let chips = self.planes.len();
        for _ in 0..self.config.cycles_per_tick {
            // Phase 1 — in chip order. Idle planes are skipped, so a
            // plane's clock only advances while it carries traffic.
            for (plane, &dead) in self.planes.iter_mut().zip(&self.dead) {
                if !dead && !plane.is_idle() {
                    plane.tick();
                }
            }
            // Phase 2 — commit in ascending (chip, router) order:
            // the NoC already commits a cycle's deliveries in ascending
            // router order, so draining chips in index order yields the
            // canonical proposal order.
            for c in 0..chips {
                if self.dead[c] {
                    continue;
                }
                for (packet, _) in self.planes[c].take_delivered() {
                    let Some(msg) = self.worm_msg[c].remove(&packet.worm) else {
                        continue;
                    };
                    if self.pending.contains_key(&msg) {
                        self.arrive(c, msg);
                    }
                }
                for (worm, _) in self.planes[c].take_failed() {
                    let Some(msg) = self.worm_msg[c].remove(&worm) else {
                        continue;
                    };
                    if self.pending.contains_key(&msg) {
                        self.retransmit_or_fail(msg, "plane transport failed");
                    }
                }
            }
            // Every later cycle would tick no plane and drain nothing.
            if self
                .planes
                .iter()
                .zip(&self.dead)
                .all(|(p, &dead)| dead || p.is_idle())
            {
                break;
            }
        }
        // Link transmission, fixed link-index order.
        for li in 0..self.links.len() {
            let src = li / 4;
            if self.dead[src] {
                continue;
            }
            let dir = LINK_DIRS[li % 4];
            let dst = self.topo.neighbor(src, dir);
            let mut budget = self.config.link_bandwidth;
            while budget > 0 {
                let Some(&LinkEntry { msg, ready_at }) = self.links[li].front() else {
                    break;
                };
                if ready_at > self.now {
                    break;
                }
                self.links[li].pop_front();
                budget -= 1;
                let ingress = self.port(dir.opposite());
                let hop_budget = self.topo.hop_budget();
                let Some(p) = self.pending.get_mut(&msg) else {
                    continue;
                };
                self.stats.crossings += 1;
                self.telemetry.count("fabric.crossings", 1);
                self.telemetry.count_at("fabric.link_util", li as u64, 1);
                p.hops += 1;
                if p.hops > hop_budget {
                    self.fail_msg(msg, "hop budget");
                    continue;
                }
                let Some(ingress) = ingress else {
                    self.fail_msg(msg, "no route");
                    continue;
                };
                p.location = Location::InPlane(dst);
                p.at = ingress;
                self.inject_hop(msg, dst);
            }
        }
        // Per-link occupancy, sampled once per tick per link while the
        // fabric is busy (state-dependent, so still deterministic).
        if !self.pending.is_empty() {
            for q in &self.links {
                self.telemetry
                    .record("fabric.link_occupancy", q.len() as u64);
            }
        }
    }

    /// Messages delivered since the last call, in commit order.
    pub fn take_delivered(&mut self) -> Vec<Delivery> {
        std::mem::take(&mut self.delivered)
    }

    /// Messages failed typed since the last call, in commit order.
    pub fn take_failed(&mut self) -> Vec<(MessageId, FabricError)> {
        std::mem::take(&mut self.failed)
    }

    /// A fresh registry holding the fabric's own instruments plus every
    /// plane's, merged in chip order — byte-identical per seed.
    pub fn merged_telemetry(&self) -> TelemetryHandle {
        let merged = TelemetryHandle::active();
        merged.merge_from(&self.telemetry);
        for plane in &self.planes {
            merged.merge_from(plane.telemetry());
        }
        merged
    }

    /// Injects the next on-die leg of `msg` into the plane of `chip`,
    /// where it now sits: toward the final destination router if this is
    /// the last chip, else toward the edge port of the next chip-level
    /// hop.
    fn inject_hop(&mut self, msg: u64, chip: usize) {
        let (dst_chip, dst, from) = {
            let p = &self.pending[&msg];
            (p.dst_chip, p.dst, p.at)
        };
        let target = if dst_chip == chip {
            dst
        } else {
            let hop = self.topo.next_hop(chip, dst_chip, &self.dead);
            match hop.and_then(|dir| self.port(dir)) {
                Some(port) => port,
                None => {
                    self.fail_msg(msg, "no route");
                    return;
                }
            }
        };
        // Two header words model the routing envelope a cross-chip
        // message carries on the wire.
        let p = &self.pending[&msg];
        let mut payload = Vec::with_capacity(2 + p.payload.len());
        payload.push(FABRIC_HEADER);
        payload.push(msg);
        payload.extend_from_slice(&p.payload);
        match self.planes[chip].inject(from, target, payload) {
            Ok(worm) => {
                self.worm_msg[chip].insert(worm, msg);
            }
            Err(_) => self.fail_msg(msg, "inject refused"),
        }
    }

    /// A leg of `msg` completed on chip `c`: final delivery, or a link
    /// proposal committed in arrival order.
    fn arrive(&mut self, c: usize, msg: u64) {
        let Entry::Occupied(entry) = self.pending.entry(msg) else {
            return;
        };
        if entry.get().dst_chip == c {
            let p = entry.remove();
            let latency = self.now - p.sent_at;
            self.stats.delivered += 1;
            self.telemetry.count("fabric.delivered", 1);
            self.telemetry.record("fabric.msg_latency", latency);
            self.delivered.push(Delivery {
                msg: MessageId(msg),
                src_chip: p.src_chip,
                dst_chip: p.dst_chip,
                dst: p.dst,
                payload: p.payload,
                latency,
            });
            return;
        }
        let p = entry.into_mut();
        match self
            .topo
            .next_hop(c, p.dst_chip, &self.dead)
            .and_then(link_dir_index)
        {
            Some(k) => {
                let li = c * 4 + k;
                p.location = Location::OnLink(li);
                let ready_at = self.now + self.config.link_latency;
                self.links[li].push_back(LinkEntry { msg, ready_at });
            }
            None => self.fail_msg(msg, "no route"),
        }
    }

    /// Re-sends `msg` from its source, or fails it typed once the
    /// attempt budget is spent or no live path can exist.
    fn retransmit_or_fail(&mut self, msg: u64, reason: &'static str) {
        let Some(p) = self.pending.get_mut(&msg) else {
            return;
        };
        if self.dead[p.src_chip] || self.dead[p.dst_chip] {
            self.fail_msg(msg, reason);
            return;
        }
        if p.attempts >= self.config.max_attempts {
            self.fail_msg(msg, "retries");
            return;
        }
        p.attempts += 1;
        p.hops = 0;
        p.at = p.src;
        p.location = Location::InPlane(p.src_chip);
        let src_chip = p.src_chip;
        self.stats.retransmits += 1;
        self.telemetry.count("fabric.retransmits", 1);
        self.inject_hop(msg, src_chip);
    }

    /// Fails `msg` typed onto the failed list.
    fn fail_msg(&mut self, msg: u64, reason: &'static str) {
        if self.pending.remove(&msg).is_some() {
            self.stats.undeliverable += 1;
            self.telemetry.count("fabric.undeliverable", 1);
            self.failed.push((
                MessageId(msg),
                FabricError::Undeliverable {
                    msg: MessageId(msg),
                    reason,
                },
            ));
        }
    }
}

/// First payload word of every on-wire fabric leg (a recognisable
/// envelope marker in plane-level dumps; identification itself uses the
/// worm→message map, not the payload).
pub const FABRIC_HEADER: u64 = 0xFAB0_C0DE_0000_0001;

#[cfg(test)]
mod tests {
    use super::*;

    fn net(topo: ClusterTopology) -> ClusterNetwork {
        ClusterNetwork::with_telemetry(
            topo,
            (8, 8),
            FabricConfig::default(),
            TelemetryHandle::active(),
        )
    }

    fn drain(net: &mut ClusterNetwork, max: u64) {
        let mut t = 0;
        while !net.is_idle() {
            net.tick();
            t += 1;
            assert!(t < max, "fabric did not drain");
        }
    }

    #[test]
    fn same_chip_sends_deliver_without_crossings() {
        let mut n = net(ClusterTopology::ring(2));
        let msg = n
            .send(0, Coord::new(0, 0), 0, Coord::new(7, 7), vec![1, 2, 3])
            .unwrap();
        drain(&mut n, 100);
        let d = n.take_delivered();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].msg, msg);
        assert_eq!(d[0].payload, vec![1, 2, 3]);
        assert_eq!(n.stats().crossings, 0);
        assert!(n.take_failed().is_empty());
    }

    #[test]
    fn cross_chip_sends_cross_links_and_keep_payloads() {
        let mut n = net(ClusterTopology::ring(4));
        let msg = n
            .send(0, Coord::new(2, 3), 2, Coord::new(5, 1), vec![9, 8, 7])
            .unwrap();
        drain(&mut n, 400);
        let d = n.take_delivered();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].msg, msg);
        assert_eq!(d[0].dst_chip, 2);
        assert_eq!(d[0].payload, vec![9, 8, 7]);
        assert_eq!(n.stats().crossings, 2, "0→1→2 is two link hops");
        assert!(d[0].latency > 0);
    }

    #[test]
    fn storm_replays_bit_identically() {
        let run = || {
            let mut n = net(ClusterTopology::torus(2, 2));
            let mut k = 0u64;
            for src in 0..4usize {
                for dst in 0..4usize {
                    for i in 0..4u16 {
                        k += 1;
                        n.send(
                            src,
                            Coord::new(i, (k % 8) as u16),
                            dst,
                            Coord::new(7 - i, ((k * 3) % 8) as u16),
                            vec![k, k * 17, k * 31],
                        )
                        .unwrap();
                    }
                }
            }
            drain(&mut n, 2_000);
            format!(
                "{:?}\n{:?}\n{:?}\n{}",
                n.take_delivered(),
                n.take_failed(),
                n.stats(),
                n.merged_telemetry().snapshot().to_json(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn chip_death_reroutes_or_fails_typed_never_hangs() {
        let mut n = net(ClusterTopology::ring(4));
        // A message that must transit chip 1 (0 → 2 goes East), plus one
        // addressed to chip 1 itself.
        let transit = n
            .send(0, Coord::new(0, 0), 2, Coord::new(4, 4), vec![1])
            .unwrap();
        let doomed = n
            .send(0, Coord::new(0, 1), 1, Coord::new(3, 3), vec![2])
            .unwrap();
        n.tick();
        n.fail_chip(1);
        drain(&mut n, 1_000);
        let delivered = n.take_delivered();
        let failed = n.take_failed();
        assert_eq!(delivered.len(), 1, "transit message detours via chip 3");
        assert_eq!(delivered[0].msg, transit);
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].0, doomed);
        assert!(matches!(
            failed[0].1,
            FabricError::Undeliverable {
                reason: "destination chip down",
                ..
            }
        ));
        assert!(n.stats().retransmits > 0 || n.stats().crossings >= 2);
        // Sending to/from the dead chip is refused up front.
        assert_eq!(
            n.send(1, Coord::new(0, 0), 2, Coord::new(0, 0), vec![]),
            Err(FabricError::ChipDown { chip: 1 })
        );
        assert_eq!(
            n.send(2, Coord::new(0, 0), 1, Coord::new(0, 0), vec![]),
            Err(FabricError::ChipDown { chip: 1 })
        );
    }

    #[test]
    fn isolated_destination_fails_every_message_typed() {
        let mut n = net(ClusterTopology::ring(3));
        n.fail_chip(1);
        n.fail_chip(2);
        // Only chip 0 lives; nothing can leave it.
        let msg = n.send(0, Coord::new(0, 0), 0, Coord::new(1, 1), vec![5]);
        assert!(msg.is_ok(), "same-chip send still works");
        drain(&mut n, 200);
        assert_eq!(n.take_delivered().len(), 1);
        assert!(n.take_failed().is_empty());
    }

    #[test]
    fn telemetry_counts_crossings_and_occupancy() {
        let mut n = net(ClusterTopology::ring(2));
        for i in 0..6u64 {
            n.send(
                0,
                Coord::new(0, i as u16),
                1,
                Coord::new(7, i as u16),
                vec![i],
            )
            .unwrap();
        }
        drain(&mut n, 400);
        let snap = n.merged_telemetry().snapshot();
        assert_eq!(snap.counter("fabric.crossings"), n.stats().crossings);
        assert_eq!(snap.counter("fabric.delivered"), 6);
        assert!(snap.histogram("fabric.link_occupancy").is_some());
        assert!(snap.histogram("fabric.msg_latency").is_some());
    }
}
