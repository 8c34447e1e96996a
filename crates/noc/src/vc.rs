//! Virtual-channel flow control — the Dally \[18\] extension.
//!
//! The paper cites virtual-channel flow control among its foundations;
//! the base [`NocNetwork`](crate::network::NocNetwork) uses a single
//! channel per link, so one long configuration worm can block an
//! unrelated worm behind it (head-of-line blocking). [`VcNetwork`]
//! multiplexes `V` virtual channels onto every physical link: each worm
//! is assigned a VC at injection (`worm mod V`), buffers and wormhole
//! holds are per-VC, and the physical link arbitrates round-robin among
//! ready VCs, one flit per cycle.
//!
//! With `V = 1` the behaviour (and, in tests, the delivered traffic)
//! matches the base network; with `V ≥ 2` a blocked worm no longer
//! stalls worms on other VCs, which the `ablation_vc` bench quantifies.

use crate::error::NocError;
use crate::flit::{Flit, Packet, WormId};
use crate::router::{Port, INPUT_QUEUE_DEPTH};
use std::collections::{HashMap, VecDeque};
use vlsi_topology::Coord;

#[derive(Clone, Debug, Default)]
struct OutReg {
    reg: Option<Flit>,
    held_by: Option<WormId>,
}

#[derive(Clone, Debug)]
struct VcRouter {
    coord: Coord,
    /// `inputs[port][vc]`.
    inputs: Vec<Vec<VecDeque<Flit>>>,
    /// `bindings[port][vc]` → output port chosen by that worm's head.
    bindings: Vec<Vec<Option<Port>>>,
    /// `outputs[port][vc]`.
    outputs: Vec<Vec<OutReg>>,
}

impl VcRouter {
    fn new(coord: Coord, vcs: usize) -> VcRouter {
        VcRouter {
            coord,
            inputs: vec![vec![VecDeque::new(); vcs]; 5],
            bindings: vec![vec![None; vcs]; 5],
            outputs: vec![vec![OutReg::default(); vcs]; 5],
        }
    }

    fn route(&self, dest: Coord) -> Port {
        if dest.x > self.coord.x {
            Port::East
        } else if dest.x < self.coord.x {
            Port::West
        } else if dest.y > self.coord.y {
            Port::South
        } else if dest.y < self.coord.y {
            Port::North
        } else {
            Port::Local
        }
    }

    fn can_accept(&self, port: Port, vc: usize) -> bool {
        self.inputs[port.index()][vc].len() < INPUT_QUEUE_DEPTH
    }

    /// Moves the head-of-queue flit of `(port, vc)` to its output register
    /// if the per-VC wormhole rules allow.
    fn allocate(&mut self, in_port: Port, vc: usize) -> bool {
        let Some(&flit) = self.inputs[in_port.index()][vc].front() else {
            return false;
        };
        let out_port = match flit {
            Flit::Head { dest, .. } => {
                let p = self.route(dest);
                let out = &mut self.outputs[p.index()][vc];
                if out.held_by.is_some() || out.reg.is_some() {
                    return false;
                }
                out.held_by = Some(flit.worm());
                self.bindings[in_port.index()][vc] = Some(p);
                p
            }
            _ => {
                let Some(p) = self.bindings[in_port.index()][vc] else {
                    return false;
                };
                let out = &mut self.outputs[p.index()][vc];
                if out.held_by != Some(flit.worm()) || out.reg.is_some() {
                    return false;
                }
                p
            }
        };
        let flit = self.inputs[in_port.index()][vc]
            .pop_front()
            .expect("checked");
        self.outputs[out_port.index()][vc].reg = Some(flit);
        if flit.is_tail() {
            self.bindings[in_port.index()][vc] = None;
        }
        true
    }

    fn is_idle(&self) -> bool {
        self.inputs.iter().flatten().all(|q| q.is_empty())
            && self
                .outputs
                .iter()
                .flatten()
                .all(|o| o.reg.is_none() && o.held_by.is_none())
    }
}

/// A mesh with `V` virtual channels per link.
#[derive(Clone, Debug)]
pub struct VcNetwork {
    width: u16,
    height: u16,
    vcs: usize,
    routers: Vec<VcRouter>,
    injection: Vec<VecDeque<Flit>>,
    assembling: HashMap<WormId, (Vec<u64>, u64)>,
    delivered: Vec<(Packet, u64)>,
    worms_delivered: u64,
    next_worm: u64,
    cycles: u64,
    rr: u64,
    link_crossings: u64,
    flits_delivered: u64,
}

impl VcNetwork {
    /// A `width × height` mesh with `vcs` virtual channels per link.
    pub fn new(width: u16, height: u16, vcs: usize) -> VcNetwork {
        assert!(vcs >= 1);
        let routers: Vec<VcRouter> = (0..height)
            .flat_map(|y| (0..width).map(move |x| Coord::new(x, y)))
            .map(|c| VcRouter::new(c, vcs))
            .collect();
        let n = routers.len();
        VcNetwork {
            width,
            height,
            vcs,
            routers,
            injection: vec![VecDeque::new(); n],
            assembling: HashMap::new(),
            delivered: Vec::new(),
            worms_delivered: 0,
            next_worm: 0,
            cycles: 0,
            rr: 0,
            link_crossings: 0,
            flits_delivered: 0,
        }
    }

    fn idx(&self, c: Coord) -> Option<usize> {
        (c.x < self.width && c.y < self.height && c.layer == 0)
            .then(|| c.y as usize * self.width as usize + c.x as usize)
    }

    /// Virtual channels per link.
    pub fn vcs(&self) -> usize {
        self.vcs
    }

    /// Injects a packet; its worm rides VC `worm mod V` end to end.
    pub fn inject(
        &mut self,
        src: Coord,
        dest: Coord,
        payload: Vec<u64>,
    ) -> Result<WormId, NocError> {
        let si = self.idx(src).ok_or(NocError::OutOfGrid(src))?;
        self.idx(dest).ok_or(NocError::OutOfGrid(dest))?;
        let worm = WormId(self.next_worm);
        self.next_worm += 1;
        let packet = Packet {
            worm,
            dest,
            payload,
        };
        self.assembling.insert(worm, (Vec::new(), self.cycles));
        for f in packet.flits() {
            self.injection[si].push_back(f);
        }
        Ok(worm)
    }

    fn vc_of(&self, worm: WormId) -> usize {
        (worm.0 % self.vcs as u64) as usize
    }

    /// Advances one cycle.
    pub fn tick(&mut self) {
        self.cycles += 1;
        self.rr = self.rr.wrapping_add(1);
        // Phase 1: link traversal — one flit per physical port per cycle,
        // round-robin among VCs with a ready register.
        for ri in 0..self.routers.len() {
            let coord = self.routers[ri].coord;
            for port in Port::ALL {
                // Round-robin VC arbitration per link.
                let start = (self.rr as usize) % self.vcs;
                for k in 0..self.vcs {
                    let vc = (start + k) % self.vcs;
                    let Some(flit) = self.routers[ri].outputs[port.index()][vc].reg else {
                        continue;
                    };
                    let moved = match port {
                        Port::Local => {
                            self.routers[ri].outputs[port.index()][vc].reg = None;
                            if flit.is_tail() {
                                self.routers[ri].outputs[port.index()][vc].held_by = None;
                            }
                            self.deliver(coord, flit);
                            true
                        }
                        _ => {
                            let d = port.dir().expect("non-local port");
                            let moved = coord
                                .step(d)
                                .and_then(|nc| self.idx(nc))
                                .map(|ni| {
                                    let in_port = Port::from_dir(d.opposite()).expect("planar");
                                    if self.routers[ni].can_accept(in_port, vc) {
                                        self.routers[ni].inputs[in_port.index()][vc]
                                            .push_back(flit);
                                        true
                                    } else {
                                        false
                                    }
                                })
                                .unwrap_or(false);
                            if moved {
                                self.routers[ri].outputs[port.index()][vc].reg = None;
                                if flit.is_tail() {
                                    self.routers[ri].outputs[port.index()][vc].held_by = None;
                                }
                                self.link_crossings += 1;
                            }
                            moved
                        }
                    };
                    if moved {
                        break; // one flit per physical link per cycle
                    }
                }
            }
        }
        // Phase 2: injection into the local port's per-worm VC.
        for ri in 0..self.routers.len() {
            while let Some(&f) = self.injection[ri].front() {
                let vc = self.vc_of(f.worm());
                if self.routers[ri].can_accept(Port::Local, vc) {
                    self.routers[ri].inputs[Port::Local.index()][vc].push_back(f);
                    self.injection[ri].pop_front();
                } else {
                    break;
                }
            }
        }
        // Phase 3: allocation, one flit per (input port, vc).
        for ri in 0..self.routers.len() {
            for port in Port::ALL {
                for vc in 0..self.vcs {
                    let _ = self.routers[ri].allocate(port, vc);
                }
            }
        }
    }

    fn deliver(&mut self, at: Coord, flit: Flit) {
        self.flits_delivered += 1;
        let worm = flit.worm();
        if let Some((payload, _)) = self.assembling.get_mut(&worm) {
            match flit {
                Flit::Body { data, .. } | Flit::Tail { data, .. } => payload.push(data),
                Flit::Head { .. } => {}
            }
            if flit.is_tail() {
                let (payload, injected) = self.assembling.remove(&worm).expect("present");
                let latency = self.cycles - injected;
                self.worms_delivered += 1;
                self.delivered.push((
                    Packet {
                        worm,
                        dest: at,
                        payload,
                    },
                    latency,
                ));
            }
        }
    }

    /// Whether any flit is in flight.
    pub fn is_idle(&self) -> bool {
        self.injection.iter().all(|q| q.is_empty()) && self.routers.iter().all(|r| r.is_idle())
    }

    /// Ticks until idle, up to `max_cycles`.
    pub fn run_until_drained(&mut self, max_cycles: u64) -> Result<(), NocError> {
        for _ in 0..max_cycles {
            if self.is_idle() {
                return Ok(());
            }
            self.tick();
        }
        if self.is_idle() {
            Ok(())
        } else {
            Err(NocError::Timeout {
                cycles: self.cycles,
            })
        }
    }

    /// Takes delivered packets (with latencies).
    pub fn take_delivered(&mut self) -> Vec<(Packet, u64)> {
        std::mem::take(&mut self.delivered)
    }

    /// Latency of a delivered worm not yet [taken](Self::take_delivered).
    pub fn worm_latency(&self, worm: WormId) -> Option<u64> {
        let (_, latency) = self.delivered.iter().find(|(p, _)| p.worm == worm)?;
        Some(*latency)
    }

    /// Cycles simulated.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Aggregate statistics in the base network's format.
    pub fn stats(&self) -> crate::network::NetworkStats {
        crate::network::NetworkStats {
            cycles: self.cycles,
            worms_delivered: self.worms_delivered,
            flits_delivered: self.flits_delivered,
            link_crossings: self.link_crossings,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_vc_delivers_like_base_network() {
        let mut vc = VcNetwork::new(4, 4, 1);
        let mut base = crate::network::NocNetwork::new(4, 4);
        let pairs = [
            ((0u16, 0u16), (3u16, 3u16), vec![1u64, 2, 3]),
            ((2, 1), (0, 3), vec![9]),
            ((3, 0), (3, 0), vec![]),
        ];
        for ((sx, sy), (dx, dy), payload) in pairs {
            vc.inject(Coord::new(sx, sy), Coord::new(dx, dy), payload.clone())
                .unwrap();
            base.inject(Coord::new(sx, sy), Coord::new(dx, dy), payload)
                .unwrap();
        }
        vc.run_until_drained(100_000).unwrap();
        base.run_until_drained(100_000).unwrap();
        let mut a: Vec<_> = vc
            .take_delivered()
            .into_iter()
            .map(|(p, _)| (p.worm, p.dest, p.payload))
            .collect();
        let mut b: Vec<_> = base
            .take_delivered()
            .into_iter()
            .map(|(p, _)| (p.worm, p.dest, p.payload))
            .collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn all_traffic_delivered_with_multiple_vcs() {
        for vcs in [1usize, 2, 4] {
            let mut net = VcNetwork::new(4, 4, vcs);
            let mut worms = Vec::new();
            for i in 0..12u16 {
                let w = net
                    .inject(
                        Coord::new(i % 4, i / 4),
                        Coord::new(3 - i % 4, 2 - i / 4),
                        (0..8u64).collect(),
                    )
                    .unwrap();
                worms.push(w);
            }
            net.run_until_drained(1_000_000).unwrap();
            for &w in &worms {
                assert!(net.worm_latency(w).is_some());
            }
            let delivered = net.take_delivered();
            assert_eq!(delivered.len(), 12, "vcs={vcs}");
            // The latencies left with the packets; the count stays.
            for w in worms {
                assert_eq!(net.worm_latency(w), None);
            }
            assert_eq!(net.stats().worms_delivered, 12);
        }
    }

    /// The HOL-blocking relief that motivates VCs: a short worm stuck
    /// behind a long worm on a shared link finishes sooner with 2 VCs.
    #[test]
    fn virtual_channels_relieve_head_of_line_blocking() {
        let run = |vcs: usize| -> u64 {
            let mut net = VcNetwork::new(8, 2, vcs);
            // Worm 0 (vc 0): long, (0,0) -> (7,0), floods the row-0 links.
            net.inject(Coord::new(0, 0), Coord::new(7, 0), (0..64).collect())
                .unwrap();
            // Let the long worm establish its wormhole holds first.
            for _ in 0..10 {
                net.tick();
            }
            // Worm 1 (vc 1 when vcs=2): short, (1,0) -> (6,0), same links.
            let short = net
                .inject(Coord::new(1, 0), Coord::new(6, 0), vec![42])
                .unwrap();
            net.run_until_drained(1_000_000).unwrap();
            net.worm_latency(short).unwrap()
        };
        let blocked = run(1);
        let relieved = run(2);
        assert!(
            relieved < blocked,
            "short worm latency with 2 VCs ({relieved}) must beat 1 VC ({blocked})"
        );
    }

    #[test]
    fn stats_match_the_base_network_at_one_vc() {
        let drive = |single: bool| {
            if single {
                let mut n = crate::network::NocNetwork::new(4, 2);
                n.inject(Coord::new(0, 0), Coord::new(3, 1), vec![1, 2])
                    .unwrap();
                n.run_until_drained(10_000).unwrap();
                n.stats().clone()
            } else {
                let mut n = VcNetwork::new(4, 2, 1);
                n.inject(Coord::new(0, 0), Coord::new(3, 1), vec![1, 2])
                    .unwrap();
                n.run_until_drained(10_000).unwrap();
                n.stats()
            }
        };
        let base = drive(true);
        let vc = drive(false);
        assert_eq!(vc.worms_delivered, base.worms_delivered);
        assert_eq!(vc.flits_delivered, base.flits_delivered);
        assert_eq!(vc.link_crossings, base.link_crossings);
    }

    #[test]
    fn payload_integrity_under_vc_interleaving() {
        let mut net = VcNetwork::new(8, 1, 2);
        let a = net
            .inject(Coord::new(0, 0), Coord::new(7, 0), (100..140).collect())
            .unwrap();
        let b = net
            .inject(Coord::new(0, 0), Coord::new(7, 0), (200..240).collect())
            .unwrap();
        net.run_until_drained(1_000_000).unwrap();
        for (p, _) in net.take_delivered() {
            let want: Vec<u64> = if p.worm == a {
                (100..140).collect()
            } else {
                assert_eq!(p.worm, b);
                (200..240).collect()
            };
            assert_eq!(p.payload, want);
        }
    }
}
